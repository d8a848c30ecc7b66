"""Quantum backend: exact feasibility oracle and the standard constructions.

Possibility of a finite task under unitary dynamics is a property of pairwise
overlaps only.  Without side effects a unitary realizing the task exists iff
some choice of output states reproduces the input Gram matrix entrywise.
With side effects an ancilla may soak up the difference: the task is possible
iff the entrywise ratio of input to output overlaps can be completed to a
positive semidefinite matrix with unit diagonal (the Gram matrix of the
garbage states; Chefles, Jozsa and Winter, quant-ph/0307227).  Forced
entries decide most cases outright, a fully forced matrix that is not PSD
with its negative eigenvector as the certificate; when only the free
entries are in doubt the oracle says so instead of guessing.  The choices
of output are searched input by input against one Gram matrix of all
candidates, and a partial choice is dropped as soon as one pair of its
inputs fails.  The options visited count against the model's node budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import (
    NotMeasurableError,
    PreconditionError,
    ReceptiveStateError,
    RepresentationError,
    SizeLimitError,
    StateError,
    TransformError,
)
from .kernel import (
    IMPOSSIBLE,
    POSSIBLE,
    QUANTUM,
    UNKNOWN,
    Attribute,
    PossibilityVerdict,
    SubstrateSpec,
    Task,
    Variable,
    _first_span_overlap,
    _member_weights,
    _row_weights,
)
from .states import (
    MixedState,
    PureState,
    State,
    _check_bytes,
    _check_density_size,
    _image,
    basis_state,
    partial_trace,
)
from .tolerance import tol

BACKEND = "quantum"

SHARP_YES = "sharp-yes"
SHARP_NO = "sharp-no"
NON_SHARP = "non-sharp"


@dataclass(frozen=True)
class QuantumModel:
    """Quantum substrate; assignment_guard is the choice search's node budget."""

    substrate: SubstrateSpec
    assignment_guard: int = 10**6

    kind = QUANTUM

    def possible(self, task: Task) -> PossibilityVerdict:
        return unitary_task_feasible(task, self)

    def check_witness(self, task: Task, witness) -> bool:
        return _witness_ok(task, witness)


# ---------------------------------------------------------------------------
# Gram matrices and the feasibility oracle


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise overlaps <s_i|s_j> of a list of pure states."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def gram(states) -> GramMatrix:
    states = list(states)
    if not states:
        return GramMatrix(np.zeros((0, 0)))
    dim = states[0].dim
    for s in states:
        if not isinstance(s, PureState):
            raise RepresentationError("gram matrices are defined for pure states")
        if s.dim != dim:
            raise StateError("gram inputs must share one dimension")
    vecs = np.array([s.vector for s in states])
    return GramMatrix(vecs.conj() @ vecs.T)


def _pure_states_of(attr: Attribute):
    if attr.is_subspace:
        raise RepresentationError(
            "subspace attribute given to the pure-state oracle; "
            "convert via explicit basis enumeration first"
        )
    for s in attr.states:
        if not isinstance(s, PureState):
            raise RepresentationError("the feasibility oracle handles pure states only")
    return attr.states


def _ratio_bad(g_in: np.ndarray, g_out: np.ndarray, atol: float) -> np.ndarray:
    """Entrywise, whether a pair of inputs rules out every garbage state.

    The test `_ratio_matrix` makes of one pair, on arrays of overlaps: where
    the outputs overlap the garbage overlap is forced to g_in / g_out, which
    no unit vectors can carry once it exceeds 1; where they are orthogonal
    the inputs must be orthogonal too.
    """
    forced = np.abs(g_out) > atol
    ratio = g_in / np.where(forced, g_out, 1)
    return np.where(forced, np.abs(ratio) > 1.0 + atol, np.abs(g_in) > atol)


def _ratio_matrix(g_in: np.ndarray, g_out: np.ndarray, atol: float):
    """Forced completion of the garbage Gram matrix, or the reason none exists.

    Returns (status, matrix_or_none, certificate).  The pairs are tested in
    row order, one at a time, which is cheapest for the few inputs of most
    tasks; the first that rules out every garbage state makes the task
    impossible.  With no entry free the matrix is fully determined, so a
    negative eigenvalue makes the task impossible too, and the certificate
    gives the eigenvector v, for which v^dag M v < 0.  When free entries
    remain only their zero completion has been tried, and a negative
    eigenvalue leaves the verdict open.
    """
    n = g_in.shape[0]
    a = np.eye(n, dtype=complex)
    free = False
    for i in range(n):
        for j in range(i + 1, n):
            go, gi = g_out[i, j], g_in[i, j]
            if abs(go) > atol:
                ratio = gi / go
                if abs(ratio) > 1.0 + atol:
                    cert = (
                        f"inputs {i},{j}: garbage overlap ratio |{ratio:.6g}| "
                        "exceeds 1, no unit vectors can carry it"
                    )
                    return IMPOSSIBLE, None, cert
                a[i, j], a[j, i] = ratio, np.conj(ratio)
            elif abs(gi) > atol:
                cert = (
                    f"inputs {i},{j}: outputs are orthogonal but inputs "
                    f"overlap by {abs(gi):.6g}"
                )
                return IMPOSSIBLE, None, cert
            else:
                free = True  # both overlaps vanish; entry left at zero
    # a set entry is a nonzero ratio; with none, a is the identity
    if np.count_nonzero(a) > n and float(np.linalg.eigvalsh(a).min()) < -atol:
        if free:
            return UNKNOWN, a, "zero completion of the garbage Gram matrix is not PSD"
        vals, vecs = np.linalg.eigh(a)
        # phase fixed by the first sizeable entry, rounding noise dropped
        v = vecs[:, 0]
        lead = v[np.argmax(np.abs(v) >= 0.5 * np.abs(v).max())]
        v = np.round(v * (abs(lead) / lead), 12) + 0.0
        entries = ", ".join(f"{z:.12g}" for z in v)
        cert = (
            f"forced garbage Gram matrix is not PSD: eigenvalue {vals[0]:.6g} "
            f"with eigenvector v = [{entries}], so v^dag M v < 0"
        )
        return IMPOSSIBLE, a, cert
    return POSSIBLE, a, None


def _task_demands(task: Task):
    """Input states in task order, the candidate output states, and per input
    the candidate indices it may take (one block of candidates per pair)."""
    ins, cands, options = [], [], []
    for attr_in, attr_out in task.pairs:
        out_states = _pure_states_of(attr_out)
        block = list(range(len(cands), len(cands) + len(out_states)))
        cands.extend(out_states)
        for s in _pure_states_of(attr_in):
            ins.append(s)
            options.append(block)
    return ins, cands, options


def _full_check(g_in: np.ndarray, g_out: np.ndarray, side_effects: bool, atol: float):
    """(status, garbage Gram or None, certificate) of one full choice of outputs."""
    if side_effects:
        return _ratio_matrix(g_in, g_out, atol)
    diff = np.abs(g_in - g_out)
    if not diff.size or float(diff.max()) <= atol:
        return POSSIBLE, None, None
    i, j = divmod(int(diff.argmax()), len(g_in))
    cert = (
        f"no choice preserves the Gram matrix; e.g. inputs {i},{j} "
        f"need overlap {g_in[i, j]:.6g} but outputs give {g_out[i, j]:.6g}"
    )
    return IMPOSSIBLE, None, cert


def _choice_search(g_in: np.ndarray, g_cand, options, pair_bad, accept, budget: int) -> int:
    """Depth-first search over the output choices, in product order.

    Input k takes one candidate from options[k].  All its options are tested
    at once against the candidates already taken by inputs j < k, and an
    option is dropped when pair_bad flags one of those pairs.  accept(choice,
    taken) is asked about every full choice that survives, and ends the
    search by returning true; it must reject any choice with a pair that
    pair_bad flags.  Once every input left has a single option the one full
    choice below is handed to accept untested.  Returns the nodes visited,
    one per option, or raises SizeLimitError once they pass budget.  The
    stack is explicit, so any number of inputs will do.
    """
    n = len(options)
    settled = n  # inputs from here on have one option each
    while settled and len(options[settled - 1]) == 1:
        settled -= 1
    if not settled and n <= budget:  # one full choice: nothing to search
        accept((0,) * n, [opts[0] for opts in options])
        return n
    choice, taken = [0] * n, [0] * n  # option position and candidate per input
    nodes = 0

    def expand(k):
        nonlocal nodes
        opts = options[k]
        nodes += len(opts)
        if nodes > budget:
            raise SizeLimitError(f"the search exceeds the node budget of {budget}")
        if k == 0 or k >= settled:
            return list(range(len(opts)))[::-1]
        bad = pair_bad(g_in[:k, k, None], g_cand[taken[:k]][:, opts]).any(axis=0)
        return np.flatnonzero(~bad)[::-1].tolist()  # popped from the end: first option first

    alive = [expand(0)]  # per depth, the surviving options not yet taken
    while alive:
        k = len(alive) - 1
        if not alive[k]:
            alive.pop()
            continue
        pos = alive[k].pop()
        choice[k], taken[k] = pos, options[k][pos]
        if k + 1 < n:
            alive.append(expand(k + 1))
        elif accept(tuple(choice), taken):
            break
    return nodes


def unitary_task_feasible(task: Task, model: QuantumModel) -> PossibilityVerdict:
    """Exact possibility of a finite quantum task: the Gram matrices of its
    input states and of its candidate output states, and the candidates each
    input may take (`_task_demands`), decided by `_gram_feasible`."""
    ins, cands, options = _task_demands(task)
    return _gram_feasible(gram(ins).matrix, gram(cands).matrix, options, task.side_effects, model)


def _gram_feasible(g_in, g_cand, options, side_effects, model: QuantumModel) -> PossibilityVerdict:
    """The verdict on a task given by Gram matrices alone, by a pruned choice
    search: g_in of its inputs, g_cand of all candidate outputs, and options[k]
    the candidates input k may take.

    Each full choice of outputs is decided by `_full_check` on the candidates'
    Gram matrix restricted to the chosen ones.  A partial choice is abandoned
    as soon as one pair of inputs fails the pairwise test that check makes of
    it, since every full choice below fails too; the first full choice
    accepted is the one plain enumeration in product order would have met
    first.  The options visited count against model.assignment_guard.
    """
    atol = tol()

    def pair_bad(gi, go):
        if side_effects:
            return _ratio_bad(gi, go, atol)
        return np.abs(gi - go) > atol

    found, unknown, first_cert = None, None, None

    def accept(choice, taken):
        nonlocal found, unknown, first_cert
        g_out = g_cand.take(taken, 0).take(taken, 1)
        status, a, cert = _full_check(g_in, g_out, side_effects, atol)
        if not any(choice):
            first_cert = cert
        if status == POSSIBLE:
            found = {"choice": choice, "garbage_gram": a} if side_effects else {"choice": choice}
        elif status == UNKNOWN:
            unknown = cert
        return found is not None

    nodes = _choice_search(g_in, g_cand, options, pair_bad, accept, model.assignment_guard)
    if found is not None:
        return PossibilityVerdict(POSSIBLE, witness=found, backend=BACKEND, nodes=nodes)
    if unknown is not None:
        return PossibilityVerdict(UNKNOWN, certificate=unknown, backend=BACKEND, nodes=nodes)
    # every full choice fails; the first one's reason certifies it
    first = [opts[0] for opts in options]
    cert = first_cert or \
        _full_check(g_in, g_cand.take(first, 0).take(first, 1), side_effects, atol)[2]
    return PossibilityVerdict(IMPOSSIBLE, certificate=cert, backend=BACKEND, nodes=nodes)


def _witness_ok(task: Task, witness) -> bool:
    if not isinstance(witness, dict) or "choice" not in witness:
        return False
    ins, cands, options = _task_demands(task)
    choice = witness["choice"]
    if len(choice) != len(ins):
        return False
    try:
        chosen = [cands[options[k][c]] for k, c in enumerate(choice)]
    except IndexError:
        return False
    status, _, _ = _full_check(gram(ins).matrix, gram(chosen).matrix, task.side_effects, tol())
    return status == POSSIBLE


# ---------------------------------------------------------------------------
# Projector-controlled target maps and measurers


@dataclass(frozen=True)
class ControlledMap:
    """U = sum_k P_k (x) T_k + P_rest (x) I on control (x) target.

    The control space carries the orthonormal basis kron(*bases), one ket
    per row.  classes gives each basis row's class: P_k is the projector onto
    the rows of class k and T_k = maps[k] is a target_dim x target_dim
    unitary, a `FlagReflector`, or the index vector p of a target permutation
    (T x = x[p]), a row of the (len(maps) + 1) x target_dim `table` whose
    other rows are the identity; class len(maps) completes the basis.  A
    control that is a product of small factors (the counting constructor's
    replicas) keeps one basis per factor, so nothing of size control_dim**2
    is held; control_dim, the product of their sizes, is kept from
    construction.  apply sends every row through table[classes] in one
    gather, then each dense map or reflector through its class's rows; it
    skips the bases found at construction to be exactly the identity."""

    bases: tuple
    classes: np.ndarray
    maps: tuple
    target_dim: int

    def __post_init__(self):
        n, classes = len(self.maps), np.asarray(self.classes)
        control_dim = prod(b.shape[0] for b in self.bases)
        if classes.shape != (control_dim,) or classes.dtype.kind not in "iu" \
                or ((classes < 0) | (classes > n)).any():
            raise PreconditionError(f"classes must give each of the {control_dim} "
                                    f"control rows a class in 0..{n}")
        same = np.arange(self.target_dim)
        table = np.array([t if t.ndim == 1 else same for t in self.maps] + [same], np.intp)
        table.setflags(write=False)
        maps = tuple(table[k] if t.ndim == 1 else t for k, t in enumerate(self.maps))
        vars(self).update(classes=classes, maps=maps, table=table, control_dim=control_dim,
                          _dense=[(k, t) for k, t in enumerate(maps) if t.ndim == 2],
                          _identity=[np.count_nonzero(b) == len(b) and (b.diagonal() == 1).all()
                                     for b in self.bases])

    def rows(self, k: int) -> np.ndarray:
        """The basis kets (rows) of class k."""
        idx = np.flatnonzero(self.classes == k)
        digits = np.unravel_index(idx, tuple(b.shape[0] for b in self.bases))
        out = np.ones((idx.size, 1), dtype=complex)
        for b, digit in zip(self.bases, digits):
            width = out.shape[1] * b.shape[1]
            out = np.einsum("ri,rj->rij", out, b[digit]).reshape(idx.size, width)
        return out

    def projector(self, k: int) -> np.ndarray:
        _check_density_size(self.control_dim)
        rows = self.rows(k)
        return rows.T @ rows.conj()

    @property
    def unitary(self) -> np.ndarray:
        """The dense operator; its size is (control_dim * target_dim)**2."""
        _check_density_size(self.control_dim * self.target_dim)
        out = np.kron(self.projector(len(self.maps)), np.eye(self.target_dim))
        for k, t_map in enumerate(self.maps):
            dense = np.eye(self.target_dim)[t_map] if t_map.ndim == 1 else np.asarray(t_map)
            out = out + np.kron(self.projector(k), dense)
        return out

    def _per_factor(self, op, x: np.ndarray) -> np.ndarray:
        """op(bases[f]) on control sub-axis f of x, shaped (target, control, m)."""
        left, right = x.shape[0], x.size // x.shape[0]
        for basis, identity in zip(self.bases, self._identity):
            d = basis.shape[0]
            right //= d
            if not identity:
                x = np.matmul(op(basis), x.reshape(left, d, right))
            left *= d
        return x.reshape(self.target_dim, self.control_dim, -1)

    def _on_rows(self, mat: np.ndarray, dims, factors) -> np.ndarray:
        """(U on factors) @ mat, for mat of shape (prod(dims), m)."""
        c, t = factors
        order = [t, c, *(f for f in range(len(dims) + 1) if f != c and f != t)]
        x = mat.reshape(*dims, -1).transpose(order)
        moved = x.shape
        # coordinates <b_i|.> of the control, then T_k on each class's rows
        x = self._per_factor(np.conj, x.reshape(self.target_dim, self.control_dim, -1))
        out = x[self.table.T[:, self.classes], np.arange(self.control_dim)]
        for k, t_map in self._dense:
            rows = np.flatnonzero(self.classes == k)
            if rows.size:
                block = x[:, rows]
                out[:, rows] = t_map.dot(block.reshape(self.target_dim, -1)).reshape(block.shape)
        out = self._per_factor(np.transpose, out)
        return out.reshape(moved).transpose(np.argsort(order)).reshape(mat.shape)

    def _check_factors(self, state: State, factors, dims) -> None:
        """PreconditionError unless dims split the state and give its two
        distinct factors the control and target dimensions."""
        c, t = factors
        if prod(dims) != state.dim or c == t or any(not 0 <= f < len(dims) for f in factors) \
                or (dims[c], dims[t]) != (self.control_dim, self.target_dim):
            raise PreconditionError(
                f"joint dims {state.dims} do not expose a ({self.control_dim},{self.target_dim}) "
                f"pair at factors {factors}")

    def apply(self, state: State, factors=(0, 1), dims=None) -> State:
        """U F on the (control, target) factor pair of a joint state, rho = F F^dag.

        dims overrides the factor split of the state (its own dims are kept
        on the result)."""
        dims = state.dims if dims is None else tuple(dims)
        self._check_factors(state, factors, dims)
        return _image(state, self._on_rows(state.factor, dims, factors))


def completed_basis(rows, counts, dim: int, error, what: str):
    """Complete the stacked span rows to an orthonormal basis.

    Returns (basis, classes): span k's counts[k] rows get class k, the rest
    class len(counts).  Unitarity is checked on the k x k Gram matrix of the
    rows; the dim x dim basis is held to `states.DENSITY_BYTES` first.  Short
    of dim rows, the SVD's vh is the basis buffer; dim rows are the basis."""
    _check_bytes(16 * dim * dim, "a {0} x {0} control basis", dim)
    k = rows.shape[0]
    dev = float(np.abs(rows.conj() @ rows.T - np.eye(k)).max(initial=0.0))
    if dev > 1e-9:
        raise error(f"{what} construction lost unitarity (deviation {dev:.3g})")
    # past k orthonormal span rows, vh's rows complete them to a basis
    basis = np.empty_like(rows) if k == dim else np.linalg.svd(rows)[2]
    basis[:k] = rows
    # |b><b| ignores phases: make each row's largest entry real positive, so
    # a basis of standard kets is exactly the identity and costs nothing
    lead = basis[np.arange(dim), np.abs(basis).argmax(axis=1)]
    basis /= (lead / np.abs(lead))[:, None]
    classes = np.repeat(np.arange(len(counts) + 1), [*counts, dim - k])
    return basis, classes


def controlled_map(rows, counts, maps, dim: int, error=NotMeasurableError,
                   what: str = "measurer") -> ControlledMap:
    """sum_k P_k (x) maps[k] + P_rest (x) I, for pairwise orthogonal spans.

    The next counts[k] rows of rows are orthonormal kets spanning the range
    of P_k (`kernel._stacked_span_rows`); the orthogonal rest of the control
    space acts as the identity.  Raises `error` when the rows or any map are
    not unitary building blocks (a reflector's flag must be a unit vector,
    the table rows permutations).
    """
    basis, classes = completed_basis(rows, counts, dim, error, what)
    maps = tuple(t if isinstance(t, FlagReflector) else np.asarray(t) for t in maps)
    target_dim = maps[0].shape[0]
    lost = error(f"{what} construction lost unitarity (a target map is not unitary)")
    for t_map in maps:
        if t_map.ndim == 1:
            ok = t_map.dtype.kind in "iu" and t_map.shape == (target_dim,)
        elif isinstance(t_map, FlagReflector):
            ok = t_map.shape[0] == target_dim and abs(np.vdot(t_map.flag, t_map.flag) - 1) <= 1e-9
        else:
            ok = t_map.shape == (target_dim, target_dim) and float(
                np.abs(t_map.conj().T @ t_map - np.eye(target_dim)).max()) <= 1e-9
        if not ok:
            raise lost
    control = ControlledMap((basis,), classes, maps, target_dim)
    if not (np.sort(control.table, axis=1) == np.arange(target_dim)).all():
        raise lost
    return control


def _orthogonal(vectors, atol: float) -> bool:
    """Whether no two of the vectors overlap by more than atol."""
    return _first_span_overlap(np.array(vectors), [1] * len(vectors), atol) is None


def basis_swap(dim: int, a: int, b) -> np.ndarray:
    """Index vector p (T x = x[p]) of the permutation exchanging basis states
    a and b; for an array of b, one such vector (row) per entry."""
    b = np.asarray(b, dtype=np.intp)
    perm = np.where(np.arange(dim) == b[..., None], a, np.arange(dim))
    perm[..., a] = b
    return perm


@dataclass(frozen=True)
class FlagReflector:
    """The target map phase (I - 2 w w^dag / |w|^2) taking e0 to the unit flag
    f, held as (phase, w): phase = -f0/|f0| (-1 when f0 = 0) makes
    w = e0 - conj(phase) f start with 1 + |f0| >= 1, so w never cancels to
    rounding noise.  `dot` applies it in O(t) per column; numpy reads it as
    the dense `_unitary_with_first_column(f)`, built on request."""

    flag: np.ndarray
    ndim = 2

    def __post_init__(self):
        f0 = self.flag[0]
        phase = -f0 / abs(f0) if f0 != 0 else -1.0
        w = -np.conj(phase) * self.flag
        w[0] += 1.0
        vars(self).update(phase=phase, w=w, scale=2.0 / np.vdot(w, w).real, shape=(w.size,) * 2)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """The map times the (t, m) matrix x."""
        return self.phase * (x - self.w[:, None] * (self.scale * (self.w.conj() @ x)))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(_unitary_with_first_column(self.flag), dtype)


def _unitary_with_first_column(flag: np.ndarray) -> np.ndarray:
    """The dense `FlagReflector` of flag, in O(n^2), with its first column
    then set to flag itself: exact, and not unitary when flag is not a unit
    vector."""
    r = FlagReflector(flag)
    out = np.eye(flag.size, dtype=complex) - r.scale * np.outer(r.w, r.w.conj())
    out *= r.phase
    out[:, 0] = flag
    return out


@dataclass(frozen=True)
class MeasurerSpec:
    """A measurement interaction: source states tagged onto a fresh target.

    The unitary acts on source (x) target and sends |v>|recv> to |v>|flag_k>
    for any v in the k-th attribute's span.  It is stored as a controlled
    map: the source basis completed from the attribute spans, one class per
    label, and per label a target map taking recv to the flag: the swap's
    row of the index table for a basis-state flag, else a `FlagReflector`.
    The completing rest of the source space leaves the target alone.
    """

    labels: tuple
    flags: tuple               # flag vector per label, on the target
    control: ControlledMap
    receptive_index: int = 0

    @property
    def source_dim(self) -> int:
        return self.control.control_dim

    @property
    def target_dim(self) -> int:
        return self.control.target_dim

    def span(self, label) -> np.ndarray:
        """Orthonormal kets (rows) of the source span flagged as label."""
        return self.control.rows(self.labels.index(label))

    @property
    def projectors(self) -> tuple:
        """Span projector per label, on the source; built on request."""
        return tuple(self.control.projector(k) for k in range(len(self.labels)))

    @property
    def unitary(self) -> np.ndarray:
        """The dense measurement unitary; built on request."""
        return self.control.unitary

    def flag_state(self, label) -> PureState:
        return PureState(self.flags[self.labels.index(label)])

    def flag_projector(self, label) -> np.ndarray:
        v = self.flags[self.labels.index(label)]
        return np.outer(v, v.conj())

    def receptive_state(self) -> PureState:
        return basis_state(self.target_dim, self.receptive_index)


def build_measurer(
    x: Variable,
    target_dim: int | None = None,
    labeling: dict | None = None,
    flag_states: dict | None = None,
) -> MeasurerSpec:
    """Measurer of a variable whose attribute spans are pairwise orthogonal.

    labeling maps each label to a target basis index; flag_states may instead
    map labels to arbitrary orthonormal target vectors (used where the output
    alphabet is itself structured).  Defaults: label k of the variable gets
    target basis index k.  The n flags, the (n + 1) x target_dim index table
    and the reflectors' w are held to `states.DENSITY_BYTES` before any is built.
    """
    atol = tol()
    rows, counts = x._span_block()
    hit = _first_span_overlap(rows, counts, atol)
    if hit is not None:
        i, j, overlap = hit
        raise NotMeasurableError(
            f"attributes {x.labels[i]!r} and {x.labels[j]!r} have "
            f"non-orthogonal spans (overlap {overlap:.6g})"
        )
    n = len(x.members)
    recv = 0
    if flag_states is not None:
        flags = []
        for label in x.labels:
            v = _entry(flag_states, "flag_states", label)
            flags.append(v.vector if isinstance(v, PureState) else np.array(v, dtype=complex))
        target_dim = flags[0].size if target_dim is None else target_dim
        for label, flag in zip(x.labels, flags):
            if flag.shape != (target_dim,):
                raise PreconditionError(f"the flag state of label {label!r} has shape "
                                        f"{flag.shape}, not ({target_dim},)")
    target_dim = n if target_dim is None else target_dim
    per_entry = 8 * (n + 1) + (32 if flag_states is not None else 16) * n  # table, flags, w
    _check_bytes(per_entry * target_dim, "a measurer of {} flags of dimension {}", n, target_dim)
    if flag_states is not None:
        if not _orthogonal(flags, atol):
            raise NotMeasurableError("flag states must be pairwise orthogonal")
        maps = [FlagReflector(f) for f in flags]
    else:
        if target_dim < n:
            raise PreconditionError(
                f"target dimension {target_dim} cannot hold {n} outcome flags"
            )
        labeling = labeling or {label: k for k, label in enumerate(x.labels)}
        indices = [_entry(labeling, "labeling", label) for label in x.labels]
        for label, k in zip(x.labels, indices):
            if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
                raise PreconditionError(
                    f"labeling gives label {label!r} the non-integer index {k!r}")
        if len(set(indices)) != n or any(k < 0 or k >= target_dim for k in indices):
            raise PreconditionError("labeling must assign distinct in-range flags")
        flags = np.zeros((n, target_dim), dtype=complex)
        flags[np.arange(n), indices] = 1.0
        flags.setflags(write=False)
        maps = basis_swap(target_dim, recv, indices)
    return MeasurerSpec(
        labels=x.labels,
        flags=tuple(np.asarray(f) for f in flags),
        control=controlled_map(rows, counts, maps, x.substrate.dim),
        receptive_index=recv,
    )


def _entry(mapping: dict, name: str, label):
    """mapping[label], or a PreconditionError naming the label it lacks."""
    if label not in mapping:
        raise PreconditionError(f"{name} has no entry for label {label!r}")
    return mapping[label]


def _receptive_weight(joint: State, factor: int, index: int) -> float:
    """Weight of the joint state on basis state `index` of one factor."""
    amps = joint.factor.reshape(joint.dims + (-1,))[(slice(None),) * factor + (index,)]
    return float(np.vdot(amps, amps).real)


def apply_measurer(m: MeasurerSpec, joint: State, factors: tuple[int, int] = (0, 1)) -> State:
    """Run the measurement unitary as `ControlledMap.apply` does, with the
    factors checked once, here; the target factor must be receptive."""
    control = m.control
    control._check_factors(joint, factors, joint.dims)
    if _receptive_weight(joint, factors[1], m.receptive_index) < 1.0 - tol():
        raise ReceptiveStateError("target factor is not in the receptive state")
    return _image(joint, control._on_rows(joint.factor, joint.dims, factors))


def intrinsic_part(joint: State, factor) -> MixedState:
    """What the joint state looks like from one factor alone."""
    return partial_trace(joint, factor)


# ---------------------------------------------------------------------------
# Comparers


@dataclass(frozen=True)
class ComparisonOutcome:
    verdict: str
    expectation: float


@dataclass(frozen=True)
class ComparerSpec:
    """Two-outcome check of 'same value on both factors'.

    The yes outcome is the projector onto span{|x>_a |x>_b} over the shared
    label set, with each factor contributing its own basis vector for x.
    Its orthonormal rows are stored, row k being kron(u_k, v_k), and
    `compare` reads sum_k <u_k v_k|rho|u_k v_k> off them
    (`kernel._row_weights`); the dense projector is built on request.
    """

    labels: tuple
    dim_a: int
    dim_b: int
    basis_a: tuple
    basis_b: tuple
    rows: np.ndarray

    @property
    def projector(self) -> np.ndarray:
        """The dense yes projector, (dim_a * dim_b)**2 entries; built on request."""
        _check_density_size(self.dim_a * self.dim_b)
        return self.rows.T @ self.rows.conj()

    def compare(self, state: State) -> ComparisonOutcome:
        if prod(state.dims) != self.dim_a * self.dim_b:
            raise PreconditionError("state size does not match the compared factors")
        value = float(np.sum(_row_weights(state, self.rows)))
        atol = tol()
        if value >= 1.0 - atol:
            return ComparisonOutcome(SHARP_YES, value)
        if value <= atol:
            return ComparisonOutcome(SHARP_NO, value)
        return ComparisonOutcome(NON_SHARP, value)


def build_comparer(labels, basis_a=None, basis_b=None, dim_a=None, dim_b=None) -> ComparerSpec:
    """Comparer over a shared label set; default bases are the standard ones.

    Stores the n rows kron(u_k, v_k), n * dim_a * dim_b entries; nothing of
    the projector's (dim_a * dim_b)**2 is formed.  Rows over the
    `states.DENSITY_BYTES` budget are refused before anything is allocated."""
    labels = tuple(labels)
    n = len(labels)
    dim_a = dim_a if dim_a is not None else (basis_a[0].dim if basis_a else n)
    dim_b = dim_b if dim_b is not None else (basis_b[0].dim if basis_b else n)
    _check_bytes(16 * n * dim_a * dim_b, "a comparer of {} rows of length {}", n, dim_a * dim_b)

    def default_basis(dim):
        return tuple(basis_state(dim, k) for k in range(n))

    basis_a = tuple(basis_a) if basis_a is not None else default_basis(dim_a)
    basis_b = tuple(basis_b) if basis_b is not None else default_basis(dim_b)
    if len(basis_a) != n or len(basis_b) != n:
        raise PreconditionError("need one basis vector per label on each factor")
    atol = tol()
    for side, basis, dim in (("a", basis_a, dim_a), ("b", basis_b, dim_b)):
        for label, u in zip(labels, basis):
            if u.dim != dim:
                raise PreconditionError(f"the factor-{side} basis vector of label {label!r} "
                                        f"has dimension {u.dim}, not {dim}")
        if not _orthogonal([u.vector for u in basis], atol):
            raise PreconditionError("comparer bases must be orthonormal")
    a = np.array([u.vector for u in basis_a], dtype=complex).reshape(n, dim_a)
    b = np.array([v.vector for v in basis_b], dtype=complex).reshape(n, dim_b)
    rows = (a[:, :, None] * b[:, None, :]).reshape(n, dim_a * dim_b)
    return ComparerSpec(labels, dim_a, dim_b, basis_a, basis_b, rows)


def comparer_for_measurers(m1: MeasurerSpec, m2: MeasurerSpec, labels=None) -> ComparerSpec:
    """Comparer of the targets of two measurers over their shared labels."""
    labels = tuple(labels) if labels is not None else tuple(
        l for l in m1.labels if l in m2.labels
    )
    for l in labels:
        if l not in m1.labels or l not in m2.labels:
            raise PreconditionError(f"label {l!r} is not an outcome of both measurers")
    basis_a = tuple(m1.flag_state(l) for l in labels)
    basis_b = tuple(m2.flag_state(l) for l in labels)
    return build_comparer(labels, basis_a, basis_b, m1.target_dim, m2.target_dim)


# ---------------------------------------------------------------------------
# Permutations acting as computations


def permutation_computation(mapping: dict, members) -> np.ndarray:
    """Unitary sending the state for label x to the state for mapping[x].

    members: ordered (label, PureState) pairs with orthonormal vectors.  The
    unitary acts as the identity on the orthogonal rest of the space: with
    the vectors as the rows of V, and V_s the rows reordered so that row l
    holds the vector of mapping[l], U = V_s^T V* + (I - V^T V*).
    """
    members = tuple(members)
    labels = [l for l, _ in members]
    if set(mapping) != set(labels) or set(mapping.values()) != set(labels):
        missing = set(mapping.values()) - set(labels) or set(labels) - set(mapping)
        raise TransformError(f"permutation is not closed on the label set: {sorted(map(repr, missing))}")
    state = dict(members)  # a repeated label repeats one row, which the check refuses
    rows = np.array([state[l].vector for l in labels])
    if not _orthogonal(rows, tol()):
        raise PreconditionError("permutation members must be orthonormal")
    position = {l: i for i, l in enumerate(labels)}
    conj = rows.conj()
    image = rows[[position[mapping[l]] for l in labels]]
    return image.T @ conj + (np.eye(rows.shape[1]) - rows.T @ conj)


def transposition_map(labels, a, b) -> dict:
    mapping = {l: l for l in labels}
    mapping[a], mapping[b] = b, a
    return mapping


def cyclic_shift_map(labels, k: int) -> dict:
    """Shift each label k places along the given cyclic order."""
    labels = tuple(labels)
    n = len(labels)
    return {labels[i]: labels[(i + k) % n] for i in range(n)}


def negation_map(labels) -> dict:
    """x -> -x; every negated label must itself be a label."""
    labels = tuple(labels)
    mapping = {}
    for x in labels:
        if -x not in labels:
            raise TransformError(f"label set is not closed under negation: {x!r}")
        mapping[x] = -x
    return mapping


def basis_members(labels, dim: int | None = None):
    """Standard-basis (label, state) pairs, in label order."""
    labels = tuple(labels)
    dim = dim if dim is not None else len(labels)
    return tuple((label, basis_state(dim, k)) for k, label in enumerate(labels))


# ---------------------------------------------------------------------------
# Sharpness


def sharp_value(state: State, x: Variable, atol: float | None = None):
    """The label whose attribute holds the whole state, or None."""
    atol = tol() if atol is None else atol
    for label, weight in zip(x.labels, _member_weights(state, *x._span_block())):
        if weight >= 1.0 - atol:
            return label
    return None
