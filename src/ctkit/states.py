"""Pure and mixed states on finite-dimensional substrates.

States compare phase-insensitively: two unit vectors count as the same state
when the magnitude of their overlap is within tolerance of 1.  Mixed states
compare entrywise.  Every state carries a tuple of factor dimensions so that
partial traces and factor-local unitaries need no side channel, and a
read-only factor F with rho = F F^dag (a pure state's vector as one column; a
mixed state's V sqrt(lambda) over lambda > 0, or the factor it was derived
with): partial traces, weights and images contract F, one route for both
kinds.  F is unique only up to a unitary, so comparisons read `.matrix`.

Validate at the boundary, trust inside.  A state built by its constructor is
checked: unit norm, or hermitian, positive semidefinite and of unit trace.
A state the library derives from checked states is not checked again when
its validity follows in exact arithmetic: the tensor product of two states,
a partial trace, the density matrix of a pure state, the rows of an SVD
(which `bar` and `span_closure` turn into states), basis states, game member
states, and `normalized` vectors whose squared norm does not underflow.
Those are built by `_trusted`, mixed ones by `_mixed`.  At the tolerance
edge this accepts what a second check would refuse: two states of norm
1 + 0.9 tol each are accepted, and so is their product, of norm 1 + 1.8 tol;
a partial trace likewise keeps a trace gap that grows with the traced
dimension.  A map may not be unitary, so an image is checked (`_image`), but
only for its norm or trace |F|^2: F F^dag is PSD for any F.  A product of
mixed states is a valid state, but two products can be equal entrywise where
their factors are not, so `kernel` keeps the repeat and overlap checks of
products that hold a mixed state.
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
    _check_bytes(16 * dim * dim, "a {0} x {0} density matrix", dim)


def _check_bytes(needed: int, what: str, *args, budget: int = DENSITY_BYTES) -> None:
    """Raise SizeLimitError when what (a `str.format` template, filled with
    args only then), which takes needed bytes of complex entries, is over budget."""
    if needed > budget:
        raise SizeLimitError(f"{what.format(*args)} needs {needed} bytes, over the budget of {budget}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A complex array computed from checked states, made read-only in place."""
    arr.setflags(write=False)
    return arr


def _trusted(cls, **fields):
    """An instance of the frozen record type cls holding the given fields as
    they are, without __post_init__.  Only for objects whose validity follows
    from inputs that were validated when they were built; the caller passes
    every field already normalised: tuples, and `_readonly` complex arrays."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _eig_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A hermitian matrix's eigenvalues, and its factor V sqrt(lambda > 0)."""
    vals, vecs = np.linalg.eigh(matrix)
    pos = vals > 0
    return vals, _readonly(vecs[:, pos] * np.sqrt(vals[pos]))


def _mixed(factor: np.ndarray, dims) -> "MixedState":
    """A trusted MixedState with this factor and the matrix F F^dag, held to
    DENSITY_BYTES first; a unit trace is the caller's to ensure."""
    _check_density_size(factor.shape[0])
    return _trusted(MixedState, matrix=_readonly(factor @ factor.conj().T), dims=dims,
                    factor=_readonly(factor))


def _image(state: "State", factor: np.ndarray) -> "State":
    """The state of this factor, state's image under a map that may not be
    unitary: checked for its norm by `PureState`, or for its trace |F|^2."""
    if isinstance(state, PureState):
        return PureState(factor.reshape(-1), state.dims)
    trace = np.vdot(factor, factor)
    if not abs(float(trace.real) - 1.0) <= tol():
        raise StateError(f"density matrix trace {trace!r} is not 1")
    return _mixed(factor, state.dims)


def _pure_dims(dims, size: int) -> tuple[int, ...]:
    dims = tuple(dims) if dims else (size,)
    if prod(dims) != size:
        raise StateError(f"factor dims {dims} do not match length {size}")
    return dims


@dataclass(frozen=True)
class PureState:
    """A unit vector, with the factor dimensions of its substrate."""

    vector: np.ndarray
    dims: tuple[int, ...] = ()

    def __post_init__(self):
        vec = _freeze(np.asarray(self.vector).reshape(-1))
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "dims", _pure_dims(self.dims, vec.size))
        norm = float(np.linalg.norm(vec))
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= tol():
            raise StateError(f"vector norm {norm!r} is not 1 within tolerance")

    @property
    def dim(self) -> int:
        return self.vector.size

    @property
    def factor(self) -> np.ndarray:
        return self.vector[:, None]

    def density(self) -> "MixedState":
        return _mixed(self.factor, self.dims)

    def __repr__(self):
        return f"PureState(dim={self.dim}, dims={self.dims})"


@dataclass(frozen=True)
class MixedState:
    """A density matrix: hermitian, positive semidefinite, unit trace; its
    read-only `factor` F (F F^dag = matrix) is held outside the fields."""

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
        # a non-finite entry has no hermiticity gap to measure, and fails here
        if not (np.isfinite(mat).all() and float(np.abs(mat - mat.conj().T).max()) <= t):
            raise StateError("density matrix is not hermitian within tolerance")
        vals, factor = _eig_factor(mat)
        if not float(vals.min()) >= -t:
            raise StateError("density matrix has a negative eigenvalue")
        if not abs(float(mat.trace().real) - 1.0) <= t:
            raise StateError(f"density matrix trace {mat.trace()!r} is not 1")
        vars(self)["factor"] = factor

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
    if not 1e-150 <= norm < np.inf:  # NaN, infinite, or a squared norm in underflow
        with np.errstate(invalid="ignore"):  # the constructor refuses the NaN it leaves
            return PureState(vec / norm, dims)
    return _trusted(PureState, vector=_readonly(vec / norm), dims=_pure_dims(dims, vec.size))


def basis_state(dim: int, index: int, dims: tuple[int, ...] = ()) -> PureState:
    if not 0 <= index < dim:
        raise StateError(f"basis index {index} out of range for dimension {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return _trusted(PureState, vector=_readonly(vec), dims=_pure_dims(dims, vec.size))


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
        # the outer product (as np.outer forms it), flattened, is np.kron of
        # two vectors bit for bit
        return _trusted(PureState, vector=_readonly((a.vector[:, None] * b.vector).reshape(-1)),
                        dims=dims)
    _check_density_size(a.dim * b.dim)
    # a partial trace's factor can be wider than dim columns: narrow it first
    narrow = [s.factor if s.factor.shape[1] <= s.dim else _eig_factor(s.matrix)[1] for s in (a, b)]
    return _mixed(np.kron(*narrow), dims)


def expectation(state: State, operator: np.ndarray) -> float:
    """Real part of Tr(rho A) = Tr(F^dag A F); exact for hermitian A."""
    return float(np.real(np.vdot(state.factor, operator @ state.factor)))


def partial_trace(state: State, keep, dims: tuple[int, ...] | None = None) -> MixedState:
    """Reduced density matrix over the kept factors, in their given order: G G^dag
    for G the factor reshaped to kept by traced factors and columns (psi psi*
    over the traced axes for a pure state), with no full density matrix."""
    dims = tuple(dims) if dims is not None else state.dims
    if prod(dims) != state.dim:
        raise StateError(f"dims {dims} do not match state size {state.dim}")
    keep = (keep,) if isinstance(keep, int) else tuple(keep)
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise StateError(f"keep={keep} out of range for {n} factors")
    if len(set(keep)) != len(keep):
        raise StateError(f"keep={keep} names a factor twice")
    kept = tuple(dims[k] for k in keep)
    kept_dim = prod(kept)
    order = list(keep) + [k for k in range(n) if k not in keep]
    grid = np.transpose(state.factor.reshape(dims + (-1,)), order + [n])
    return _mixed(grid.reshape(kept_dim, -1), kept or (1,))


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
    return _image(state, full @ state.factor)
