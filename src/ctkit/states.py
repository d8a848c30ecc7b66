"""Pure and mixed states on finite-dimensional substrates.

States compare phase-insensitively: two unit vectors count as the same state
when the magnitude of their overlap is within tolerance of 1.  Mixed states
compare entrywise.  Every state carries a tuple of factor dimensions so that
partial traces and factor-local unitaries need no side channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import SizeLimitError, StateError
from .tolerance import tol

# A dense density matrix (complex128, 16 bytes an entry) is refused above this
# size; validating one holds a few such matrices at once.  256 MiB allows
# dimension 4096.
DENSITY_BYTES = 256 * 2 ** 20


def _check_density_size(dim: int) -> None:
    """Raise SizeLimitError, before anything is allocated, for a dim x dim
    density matrix over the DENSITY_BYTES budget."""
    needed = 16 * dim * dim
    if needed > DENSITY_BYTES:
        raise SizeLimitError(
            f"a {dim} x {dim} density matrix needs {needed} bytes, over the "
            f"budget of {DENSITY_BYTES}"
        )


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureState:
    """A unit vector, with the factor dimensions of its substrate."""

    vector: np.ndarray
    dims: tuple[int, ...] = ()

    def __post_init__(self):
        vec = _freeze(np.asarray(self.vector).reshape(-1))
        object.__setattr__(self, "vector", vec)
        dims = tuple(self.dims) if self.dims else (vec.size,)
        object.__setattr__(self, "dims", dims)
        if prod(dims) != vec.size:
            raise StateError(f"factor dims {dims} do not match length {vec.size}")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > tol():
            raise StateError(f"vector norm {norm!r} is not 1 within tolerance")

    @property
    def dim(self) -> int:
        return self.vector.size

    def density(self) -> "MixedState":
        _check_density_size(self.dim)
        return MixedState(np.outer(self.vector, self.vector.conj()), self.dims)

    def __repr__(self):
        return f"PureState(dim={self.dim}, dims={self.dims})"


@dataclass(frozen=True)
class MixedState:
    """A density matrix: hermitian, positive semidefinite, unit trace."""

    matrix: np.ndarray
    dims: tuple[int, ...] = ()

    def __post_init__(self):
        mat = _freeze(np.asarray(self.matrix))
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise StateError(f"density matrix must be square, got {mat.shape}")
        dims = tuple(self.dims) if self.dims else (mat.shape[0],)
        object.__setattr__(self, "dims", dims)
        if prod(dims) != mat.shape[0]:
            raise StateError(f"factor dims {dims} do not match size {mat.shape[0]}")
        t = tol()
        if float(np.abs(mat - mat.conj().T).max()) > t:
            raise StateError("density matrix is not hermitian within tolerance")
        if float(np.linalg.eigvalsh(mat).min()) < -t:
            raise StateError("density matrix has a negative eigenvalue")
        if abs(float(mat.trace().real) - 1.0) > t:
            raise StateError(f"density matrix trace {mat.trace()!r} is not 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def density(self) -> "MixedState":
        return self

    def __repr__(self):
        return f"MixedState(dim={self.dim}, dims={self.dims})"


State = PureState | MixedState


def normalized(coeffs, dims: tuple[int, ...] = ()) -> PureState:
    """Build a pure state from unnormalized coefficients."""
    vec = np.asarray(coeffs, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise StateError("cannot normalize the zero vector")
    return PureState(vec / norm, dims)


def basis_state(dim: int, index: int, dims: tuple[int, ...] = ()) -> PureState:
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return PureState(vec, dims)


def inner(a: PureState, b: PureState) -> complex:
    return complex(np.vdot(a.vector, b.vector))


def states_equal(a: State, b: State, atol: float | None = None) -> bool:
    """Same state: phase-insensitive for vectors, entrywise for matrices."""
    atol = tol() if atol is None else atol
    if isinstance(a, PureState) and isinstance(b, PureState):
        if a.dim != b.dim:
            return False
        return abs(inner(a, b)) >= 1.0 - atol
    da, db = a.density(), b.density()
    if da.dim != db.dim:
        return False
    return float(np.abs(da.matrix - db.matrix).max()) <= atol


def orthogonal(a: PureState, b: PureState, atol: float | None = None) -> bool:
    atol = tol() if atol is None else atol
    return abs(inner(a, b)) <= atol


def tensor(a: State, b: State) -> State:
    dims = a.dims + b.dims
    if isinstance(a, PureState) and isinstance(b, PureState):
        # the outer product, flattened, is np.kron of two vectors bit for bit
        return PureState(np.outer(a.vector, b.vector).reshape(-1), dims)
    _check_density_size(a.dim * b.dim)
    return MixedState(np.kron(a.density().matrix, b.density().matrix), dims)


def expectation(state: State, operator: np.ndarray) -> float:
    """Real part of Tr(rho A); exact for hermitian A."""
    if isinstance(state, PureState):
        return float(np.real(np.vdot(state.vector, operator @ state.vector)))
    return float(np.real(np.trace(state.density().matrix @ operator)))


def partial_trace(state: State, keep, dims: tuple[int, ...] | None = None) -> MixedState:
    """Reduced density matrix over the kept factors, in their given order.

    A pure state is contracted as psi psi* over the traced axes; its full
    density matrix is never formed."""
    dims = tuple(dims) if dims is not None else state.dims
    if prod(dims) != state.dim:
        raise StateError(f"dims {dims} do not match state size {state.dim}")
    keep = (keep,) if isinstance(keep, int) else tuple(keep)
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise StateError(f"keep={keep} out of range for {n} factors")
    kept_dim = prod(dims[k] for k in keep)
    if isinstance(state, PureState):
        order = list(keep) + [k for k in range(n) if k not in keep]
        psi = np.transpose(state.vector.reshape(dims), order).reshape(kept_dim, -1)
        return MixedState(psi @ psi.conj().T, tuple(dims[k] for k in keep))
    letters = "abcdefghijklm"
    row = list(letters[:n])
    col = [letters[n + k] if k in keep else row[k] for k in range(n)]
    out = "".join(row[k] for k in keep) + "".join(col[k] for k in keep)
    sub = "".join(row) + "".join(col) + "->" + out
    tensor_form = state.matrix.reshape(*dims, *dims)
    reduced = np.einsum(sub, tensor_form).reshape(kept_dim, kept_dim)
    return MixedState(reduced, tuple(dims[k] for k in keep))


def embed_unitary(u: np.ndarray, dims: tuple[int, ...], factors) -> np.ndarray:
    """Operator on the whole product space acting as `u` on the listed
    factors (in the listed order) and as the identity elsewhere."""
    factors = tuple(factors)
    n = len(dims)
    others = [k for k in range(n) if k not in factors]
    d_f = prod(dims[k] for k in factors)
    d_o = prod(dims[k] for k in others) if others else 1
    if u.shape != (d_f, d_f):
        raise StateError(f"unitary shape {u.shape} does not match factors {factors}")
    big = np.kron(u, np.eye(d_o, dtype=complex))
    # Map each standard-order flat index to the (factors + others) ordering.
    order = list(factors) + others
    grid = np.arange(prod(dims)).reshape(*dims)
    mapping = np.transpose(grid, order).reshape(-1)
    out = np.empty_like(big)
    out[np.ix_(mapping, mapping)] = big
    return out


def apply_unitary(state: State, u: np.ndarray, factors=None) -> State:
    """Apply a unitary to a state, optionally on a subset of its factors."""
    full = u if factors is None else embed_unitary(u, state.dims, factors)
    if isinstance(state, PureState):
        return PureState(full @ state.vector, state.dims)
    return MixedState(full @ state.density().matrix @ full.conj().T, state.dims)
