"""Substrates, attributes, variables and tasks.

The kernel is backend-neutral: it knows how to form and validate these
objects and how to combine them, but possibility itself is decided by a
model object (classical or quantum) that the kernel merely dispatches to.

A classical substrate carries an explicit finite universe of labels; a
composite classical substrate's universe is the set of flat tuples of leaf
labels, so composition is associative up to factor-list flattening.  A
state is checked against the leaf label sets one label at a time, so no
universe is listed to validate it.  A quantum substrate carries a
Hilbert-space dimension.  A substrate spec is frozen, so its leaves,
dimension, size and leaf label sets are computed once, at construction.  A
quantum variable's span block, the read-only stacked span rows of its
members and their counts (`_stacked_span_rows`), which measurers, adders,
weights, span closures and member states read (`Variable._span_block`), is
derived once and kept: on its first read, so a variable the library builds
that nothing reads (a parsed model's variable under `check-model`, a
product, a diagonal, a coarsening, a superinformation union, a
certificate's X_y + y) derives none, and at construction by the public
builder `variable`, whose caller builds a variable to read it.  The trusted
builders hand on a block they hold: a relabeled variable keeps its source's
arrays, a restriction takes rows of its source's block.  A variable with a
member that lists a mixed state keeps none, because that span depends on
`tol()`; it is derived on each read.

An attribute is one record: its substrate, a tuple of elements, and whether
they are a subspace basis.  Listed elements are the attribute's states; a
subspace attribute (quantum only) holds every state in the span of its
orthonormal basis.  `states` and `basis` read the elements of their own
kind and refuse the other.

Pairwise conditions are checked in bulk.  A variable's members and a task's
inputs must be pairwise disjoint: over pure states the overlapping pairs are
read off one Gram matrix of the stacked state vectors, formed a block of
rows at a time so memory stays bounded, and over classical labels off one
count of the labels.  A measurer needs pairwise orthogonal member spans,
read off the Gram matrix of the stacked span rows.  The bulk test only
nominates pairs; each nominee is decided by the pairwise test, in the order
a nested loop over the pairs would meet it, so the first offending pair and
its witness are the loop's.  Lists holding a mixed state or a subspace
attribute fall back to `attributes_disjoint` pair by pair, the only test
that decides those.  Repeats within one attribute, and within a union of
attributes, follow the same rule: the Gram matrix nominates, `states_equal`
decides.

Weights Tr(rho P_a) are read from span rows, without projectors
(`_member_weights` of a span block).

Validate at the boundary, trust inside.  Every public constructor, and so
every object of a model document, is checked when it is built.  An object
the library derives from checked objects is built by `_trusted`, without a
second check, where its validity follows from theirs in exact arithmetic:
the composite of two substrates, the product of two classical, two
pure-extensional or two subspace attributes (distinct factors give
distinct products, and orthonormal bases an orthonormal basis), a task
whose inputs are the members of a checked variable or their products with
one receptive, and a variable whose members are drawn from checked
variables, are products of their members, or are unions of such products
for distinct pairs of members (a coarsening).  Products that hold a mixed
state are checked: entrywise equality does not survive a product, since
rho (x) I/d and rho' (x) I/d differ by max|rho - rho'| / d, so distinct
factors can give equal products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Any

import numpy as np

from .errors import (
    DisjointnessError,
    DispatchError,
    DomainError,
    InvalidCompositionError,
    LabelArithmeticError,
    RepresentationError,
    StateError,
)
from .states import MixedState, PureState, State, _readonly, _trusted, basis_state, states_equal, tensor
from .tolerance import tol

CLASSICAL = "classical"
QUANTUM = "quantum"


@dataclass(frozen=True)
class SubstrateSpec:
    """A physical system: finite label universe or Hilbert dimension."""

    id: str
    kind: str
    labels: tuple = ()          # classical leaf universe
    dimension: int = 0          # quantum leaf dimension
    factors: tuple["SubstrateSpec", ...] = ()

    def __post_init__(self):
        if self.kind not in (CLASSICAL, QUANTUM):
            raise InvalidCompositionError(f"unknown substrate kind {self.kind!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            if self.kind == CLASSICAL:
                if not self.labels:
                    raise InvalidCompositionError(f"substrate {self.id!r} has an empty universe")
                if len(set(self.labels)) != len(self.labels):
                    raise InvalidCompositionError(f"substrate {self.id!r} has duplicate labels")
            elif self.dimension < 1:
                raise InvalidCompositionError(f"substrate {self.id!r} needs dimension >= 1")
        self._work_out_sizes()

    def _work_out_sizes(self) -> None:
        """Work out the leaves and sizes once, from the factors' own: the spec
        is frozen.  They live outside the dataclass fields, so equality and
        hashing ignore them."""
        if self.factors:
            leaves, leaf_dims, label_sets, size = (), (), (), 1
            for f in self.factors:
                leaves += f._leaves
                leaf_dims += f._leaf_dims
                label_sets += f._label_sets
                size *= f._size
        else:
            leaves, leaf_dims, label_sets = (self,), (self.dimension,), (frozenset(self.labels),)
            size = self.dimension if self.kind == QUANTUM else len(self.labels)
        self.__dict__.update(_leaves=leaves, _leaf_dims=leaf_dims, _label_sets=label_sets,
                             _size=size)

    def leaves(self) -> tuple["SubstrateSpec", ...]:
        return self._leaves

    @property
    def leaf_dims(self) -> tuple[int, ...]:
        return self._leaf_dims

    @property
    def dim(self) -> int:
        if self.kind != QUANTUM:
            raise RepresentationError(f"substrate {self.id!r} is not quantum")
        return self._size

    def universe(self) -> tuple:
        """All states of a classical substrate; flat tuples when composite."""
        if self.kind != CLASSICAL:
            raise RepresentationError(f"substrate {self.id!r} has no finite universe")
        if not self.factors:
            return self.labels
        pools = [leaf.labels for leaf in self.leaves()]
        return tuple(itertools.product(*pools))

    def size(self) -> int:
        return self._size

    def _holds(self, state) -> bool:
        """Whether a classical state is in the universe, checked label by label
        against the leaves rather than by listing the universe."""
        sets = self._label_sets
        try:
            if not self.factors:
                return state in sets[0]
            return isinstance(state, tuple) and len(state) == len(sets) and all(
                label in labels for label, labels in zip(state, sets))
        except TypeError:  # an unhashable state is in no universe
            return False


def classical_substrate(id: str, labels) -> SubstrateSpec:
    return SubstrateSpec(id=id, kind=CLASSICAL, labels=tuple(labels))


def quantum_substrate(id: str, dimension: int) -> SubstrateSpec:
    return SubstrateSpec(id=id, kind=QUANTUM, dimension=dimension)


def compose_substrates(a: SubstrateSpec, b: SubstrateSpec) -> SubstrateSpec:
    """Joint substrate of two systems of the same kind."""
    if a.kind != b.kind:
        raise InvalidCompositionError(f"cannot compose {a.kind} with {b.kind}")
    # a composite of checked factors has nothing of its own to check
    spec = _trusted(SubstrateSpec, id=f"({a.id}+{b.id})", kind=a.kind, labels=(), dimension=0,
                    factors=(a, b))
    spec._work_out_sizes()
    return spec


# ---------------------------------------------------------------------------
# Attributes


def _equal_pairs(states):
    """Pairs (i, j), i < j, of equal states (`states_equal`) in lexicographic
    order; pure states of one length are nominated by their Gram matrix."""
    vecs = _pure_rows(states)
    pairs = itertools.combinations(range(len(states)), 2) if vecs is None else \
        _nominated_pairs(vecs, np.arange(len(vecs)), _near_one(vecs.shape[1]))
    return ((i, j) for i, j in pairs if states_equal(states[i], states[j]))


@dataclass(frozen=True)
class Attribute:
    """A set of states of one substrate: the states listed in elements or,
    with is_subspace (quantum only), every state in the span of the
    orthonormal basis in elements.  An empty basis is the zero subspace, which
    holds no state and shows up as the orthogonal rest of a full variable."""

    substrate: SubstrateSpec
    elements: tuple
    is_subspace: bool = False

    def __post_init__(self):
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if self.is_subspace:
            t = tol()
            if elements:
                if not all(isinstance(v, PureState) for v in elements):
                    raise RepresentationError("subspace basis vectors must be PureState")
                if len({v.dim for v in elements}) != 1:
                    raise StateError("subspace basis dimension does not match substrate")
                vecs = np.array([v.vector for v in elements])
                gram = np.abs(vecs.conj() @ vecs.T)
                if float(np.abs(gram - np.eye(len(vecs))).max()) > t:
                    raise StateError("subspace basis is not orthonormal")
            if self.substrate.kind != QUANTUM:
                raise RepresentationError("subspace attributes require a quantum substrate")
            if elements and elements[0].dim != self.substrate.dim:  # one dim by now
                raise StateError("subspace basis dimension does not match substrate")
        elif not elements:
            raise StateError("an extensional attribute cannot be empty")
        elif self.substrate.kind == CLASSICAL:
            for s in elements:
                if not self.substrate._holds(s):
                    raise StateError(f"state {s!r} is not in the universe of {self.substrate.id!r}")
            if len(set(elements)) != len(elements):
                raise StateError("duplicate states in attribute")
        else:
            for s in elements:
                if not isinstance(s, (PureState, MixedState)):
                    raise RepresentationError("quantum attribute states must be PureState or MixedState")
                if s.dim != self.substrate.dim:
                    raise StateError("state dimension does not match substrate")
            if len(elements) > 1 and next(_equal_pairs(elements), None):
                raise StateError("duplicate states in attribute (up to phase)")

    @property
    def states(self) -> tuple:
        if self.is_subspace:
            raise RepresentationError("a subspace attribute has no finite state list")
        return self.elements

    @property
    def basis(self) -> tuple:
        if not self.is_subspace:
            raise RepresentationError("not a subspace attribute")
        return self.elements


def _single_state(attr: Attribute, error=DomainError,
                  message: str = "attribute does not denote a single state",
                  pure_message: str | None = None) -> State:
    """The one state an attribute denotes: the one vector of a subspace's
    basis, or the one state an extensional attribute lists; error(message)
    otherwise.  With pure_message, the listed state must also be pure, or
    error(pure_message) is raised."""
    states = attr.elements
    if pure_message is not None and not attr.is_subspace and (
            len(states) != 1 or not isinstance(states[0], PureState)):
        raise error(pure_message)
    if len(states) != 1:
        raise error(message)
    return states[0]


def extensional_attribute(substrate: SubstrateSpec, states) -> Attribute:
    return Attribute(substrate, states)


def subspace_attribute(substrate: SubstrateSpec, basis) -> Attribute:
    return Attribute(substrate, basis, is_subspace=True)


def _trusted_attribute(substrate: SubstrateSpec, elements: tuple,
                       is_subspace: bool = False) -> Attribute:
    """Attribute, unchecked: for listed states known to be valid and
    distinct, or a basis known to be orthonormal."""
    return _trusted(Attribute, substrate=substrate, elements=elements, is_subspace=is_subspace)


def _holds_mixed(attr: Attribute) -> bool:
    """Whether an extensional attribute lists a mixed state."""
    return not attr.is_subspace and any(isinstance(s, MixedState) for s in attr.elements)


def attribute_span(attr: Attribute) -> np.ndarray:
    """Orthonormal basis (rows) of the span of a quantum attribute's states."""
    if attr.substrate.kind != QUANTUM:
        raise RepresentationError("span is a quantum notion")
    if attr.is_subspace:
        return np.array([v.vector for v in attr.basis], complex).reshape(-1, attr.substrate.dim)
    rows = []
    for s in attr.states:
        if isinstance(s, PureState):
            rows.append(s.vector)
        else:
            vals, vecs = np.linalg.eigh(s.matrix)
            rows.extend(vecs.T[vals > tol()])
    return _row_basis(np.array(rows))


def _row_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the given rows: the right singular vectors
    whose singular values exceed 1e-12."""
    _, sing, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[:int(np.sum(sing > 1e-12))]


def attribute_projector(attr: Attribute) -> np.ndarray:
    """Orthogonal projector sum_i |b_i><b_i| onto the attribute's span."""
    basis = attribute_span(attr)
    return basis.T @ basis.conj()


def _row_weights(state: State, rows: np.ndarray) -> np.ndarray:
    """<r|rho|r> for each row r of rows: the row sums of |R conj(F)|^2 for the
    state's factor F, one product with no conjugate copy of the rows."""
    if state.dim != rows.shape[1]:
        raise StateError("state dimension does not match substrate")
    return np.add.reduce(np.abs(rows @ state.factor.conj()) ** 2, 1)


def _stacked_span_rows(attributes) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning each quantum attribute in turn, up to each
    row's phase, and how many rows each has.  The lone pure states v are
    normalised together, each its own row v/|v| with no SVD; the rest take
    `attribute_span`.  No weight sees a row's phase, and a measurer's control
    basis sets it (`quantum.completed_basis`)."""
    spans = [None if not a.is_subspace and len(a.elements) == 1
             and isinstance(a.elements[0], PureState) else attribute_span(a) for a in attributes]
    counts = np.array([1 if s is None else len(s) for s in spans], np.intp)
    lone = [a.elements[0].vector for a, s in zip(attributes, spans) if s is None]
    if lone:
        lone = np.array(lone, dtype=complex)
        lone /= np.linalg.norm(lone, axis=1)[:, None]
        if len(lone) == len(spans):
            return lone, counts
    units = iter(lone)
    return np.concatenate([next(units)[None, :] if s is None else s for s in spans]), counts


def _member_weights(state: State, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Tr(rho P_a) for each quantum attribute a of a span block, in order:
    the weights of its stacked span rows (`_stacked_span_rows`,
    `_row_weights`), summed per attribute with `np.bincount` unless each has
    one row, so an empty span weighs exactly 0.  No d x d projector is formed."""
    return _member_sums(_row_weights(state, rows), counts)


def _member_sums(per_row: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Values of the rows of a span block summed per attribute (`_member_weights`)."""
    if (counts == 1).all():
        return per_row
    return np.bincount(np.repeat(np.arange(len(counts)), counts), per_row, len(counts))


def contains_state(attr: Attribute, state: State, atol: float | None = None) -> bool:
    """Membership of a single state in an attribute.  In a subspace, read off
    its span rows: a pure state when |Pv| = sqrt(sum of row weights) >= 1 - atol,
    a mixture when Tr(P rho) >= 1 - atol and it is pure within it."""
    atol = tol() if atol is None else atol
    if attr.is_subspace:
        weight = float(np.sum(_row_weights(state, attribute_span(attr))))
        if isinstance(state, PureState):
            return weight ** 0.5 >= 1.0 - atol
        return weight >= 1.0 - atol and float(np.linalg.eigvalsh(state.matrix).max()) >= 1.0 - atol
    if attr.substrate.kind == CLASSICAL:
        return state in attr.states
    return any(states_equal(s, state, atol) for s in attr.states)


def attributes_disjoint(a: Attribute, b: Attribute) -> tuple[bool, Any]:
    """Whether two attributes share no state; returns (flag, witness)."""
    if a.substrate.kind == CLASSICAL:
        held = set(b.states)
        for s in a.states:
            if s in held:
                return False, s
        return True, None
    if a.is_subspace and b.is_subspace:
        # disjoint as state sets iff the subspaces meet only in the zero vector
        sa, sb = attribute_span(a), attribute_span(b)
        if sa.size == 0 or sb.size == 0:
            return True, None
        stacked = np.vstack([sa, sb])
        rank = int(np.linalg.matrix_rank(stacked, tol=1e-9))
        if rank == sa.shape[0] + sb.shape[0]:
            return True, None
        return False, "subspaces intersect nontrivially"
    if a.is_subspace or b.is_subspace:
        ext, sub = (b, a) if a.is_subspace else (a, b)
        for s in ext.states:
            if contains_state(sub, s):
                return False, s
        return True, None
    for s in a.states:
        for r in b.states:
            if states_equal(s, r):
                return False, s
    return True, None


def attribute_subset(a: Attribute, b: Attribute) -> bool:
    """Every state of a is a state of b."""
    if a.substrate.kind == CLASSICAL:
        return set(a.states) <= set(b.states)
    # a subspace is never a subset of listed states
    return (b.is_subspace or not a.is_subspace) and all(contains_state(b, s) for s in a.elements)


def attribute_equal(a: Attribute, b: Attribute) -> bool:
    return attribute_subset(a, b) and attribute_subset(b, a)


def product_attribute(a: Attribute, b: Attribute) -> Attribute:
    """Attribute of the composite substrate with each factor in its own attribute.

    Unchecked (see the module docstring) unless a factor lists a mixed state."""
    return _product_attribute(a, b, compose_substrates(a.substrate, b.substrate))


def _product_attribute(a: Attribute, b: Attribute, substrate: SubstrateSpec) -> Attribute:
    """`product_attribute` on a composite of a's and b's substrates built
    once by the caller, for a sweep of products over the same two."""
    if a.substrate.kind == CLASSICAL:
        def flat(state, sub):
            return state if sub.factors else (state,)
        states = tuple(
            flat(s, a.substrate) + flat(r, b.substrate)
            for s in a.states
            for r in b.states
        )
        return _trusted_attribute(substrate, states)
    if a.is_subspace or b.is_subspace:
        if not (a.is_subspace and b.is_subspace):
            raise RepresentationError("cannot mix subspace and extensional factors in a product")
        basis = tuple(tensor(u, v) for u in a.basis for v in b.basis)
        return _trusted_attribute(substrate, basis, is_subspace=True)
    states = tuple(tensor(s, r) for s in a.states for r in b.states)
    if _holds_mixed(a) or _holds_mixed(b):
        return extensional_attribute(substrate, states)
    return _trusted_attribute(substrate, states)


def attribute_union(parts) -> Attribute:
    """Union of extensional attributes on a common substrate."""
    parts = list(parts)
    if not parts:
        raise StateError("an extensional attribute cannot be empty")
    substrate = parts[0].substrate
    if any(p.is_subspace for p in parts):
        raise RepresentationError("union of subspace attributes is not supported")
    states = [s for p in parts for s in p.states]
    if substrate.kind == CLASSICAL:
        return extensional_attribute(substrate, dict.fromkeys(states))
    # pairs (k, i) come before (i, j): j goes when it equals an i that stays
    dropped = set()
    for i, j in _equal_pairs(states):
        if i not in dropped:
            dropped.add(j)
    return extensional_attribute(substrate, [s for k, s in enumerate(states) if k not in dropped])


# ---------------------------------------------------------------------------
# Bulk pairwise tests (see the module docstring)

# A block of rows against n columns of the Gram matrix holds at most this
# many bytes of complex entries (plus half as many of their magnitudes).
_GRAM_BLOCK_BYTES = 4 * 2 ** 20
_EPS = float(np.finfo(float).eps)


def _slack(dim: int) -> float:
    """Bound on how far two evaluations of one inner product of unit vectors
    of length dim, summed in different orders, can differ."""
    return 4 * (dim + 2) * _EPS


def _near_one(dim: int) -> float:
    """Overlap magnitude above which two pure states may be equal (equal
    states have |<a|b>| >= 1 - tol)."""
    return 1.0 - tol() - _slack(dim)


def _pure_rows(states) -> np.ndarray | None:
    """The state vectors as rows when every state is pure and of one length."""
    if not states or not all(isinstance(s, PureState) for s in states):
        return None
    if len({s.dim for s in states}) != 1:
        return None
    return np.array([s.vector for s in states])


def _nominated_pairs(rows: np.ndarray, owner: np.ndarray, floor: float):
    """Owner pairs (i, j), i < j, in lexicographic order, for which some row
    of i and some row of j have an overlap magnitude >= floor.

    Rows must be grouped by owner in increasing order.  Once a block of rows
    is done, every owner that ends inside it has met all later rows, so its
    pairs are final and are handed out before the next block is formed."""
    n = len(rows)
    step = max(1, _GRAM_BLOCK_BYTES // (16 * n)) if n else 1
    conj = rows.conj()
    pending: set = set()
    for start in range(0, n, step):
        stop = min(start + step, n)
        near = np.abs(conj[start:stop] @ rows[start:].T) >= floor
        np.fill_diagonal(near, False)  # each row against itself
        if near.any():
            near_r, near_c = np.nonzero(near)
            oi, oj = owner[start + near_r], owner[start + near_c]
            later = oi < oj
            pending.update(zip(oi[later].tolist(), oj[later].tolist()))
        if pending:
            done = owner[stop] if stop < n else owner[-1] + 1
            final = sorted(pair for pair in pending if pair[0] < done)
            pending.difference_update(final)
            yield from final


def _first_overlap(attrs) -> tuple[int, int, Any] | None:
    """The first pair (i, j, witness), i < j, of attributes that share a
    state, in the order of the loop over i and then j > i calling
    `attributes_disjoint`; None when they are pairwise disjoint."""
    attrs = list(attrs)
    if len(attrs) < 2:
        return None
    kinds = {a.substrate.kind for a in attrs}
    if kinds == {CLASSICAL}:
        owners: dict = {}
        for i, a in enumerate(attrs):
            for s in a.states:
                owners.setdefault(s, []).append(i)
        # the loop meets a shared label first at its first two owners
        firsts = [tuple(o[:2]) for o in owners.values() if len(o) > 1]
        pairs = [min(firsts)] if firsts else []
    elif kinds == {QUANTUM} and not any(a.is_subspace for a in attrs) \
            and (rows := _pure_rows([s for a in attrs for s in a.states])) is not None:
        owner = np.arange(len(attrs)) if len(rows) == len(attrs) else \
            np.repeat(np.arange(len(attrs)), [len(a.states) for a in attrs])
        pairs = _nominated_pairs(rows, owner, _near_one(rows.shape[1]))
    else:
        pairs = itertools.combinations(range(len(attrs)), 2)
    for i, j in pairs:
        ok, witness = attributes_disjoint(attrs[i], attrs[j])
        if not ok:
            return i, j, witness
    return None


def _span_gram(rows: np.ndarray) -> np.ndarray | None:
    """The Gram matrix rows* rows^T when it is one block of `_nominated_pairs`, else None."""
    return rows.conj() @ rows.T if 16 * len(rows) ** 2 <= _GRAM_BLOCK_BYTES else None


def _first_span_overlap(rows: np.ndarray, counts, atol: float, gram=None) -> tuple[int, int, float] | None:
    """The first pair (i, j, overlap), i < j, of spans with an overlap
    max |<u|v>| above atol, in the order of the loop over i and then j > i;
    None when the spans are pairwise orthogonal.  Span k is the next counts[k]
    orthonormal rows of rows (`_stacked_span_rows`); an empty one overlaps nothing.
    The rows' Gram matrix (`_span_gram`, handed in by a caller that holds it)
    tells pairwise orthogonal spans in one test when it fits one block."""
    if np.count_nonzero(counts) < 2:
        return None
    owner = np.repeat(np.arange(len(counts)), counts)
    floor, gram = atol - _slack(rows.shape[1]), _span_gram(rows) if gram is None else gram
    if gram is not None and not (np.abs(gram)[owner[:, None] != owner] >= floor).any():
        return None
    for i, j in _nominated_pairs(rows, owner, floor):
        overlap = float(np.abs(rows[owner == i].conj() @ rows[owner == j].T).max())
        if overlap > atol:
            return i, j, overlap
    return None


# ---------------------------------------------------------------------------
# Variables


@dataclass(frozen=True)
class Variable:
    """An ordered set of pairwise disjoint attributes with distinct labels."""

    substrate: SubstrateSpec
    members: tuple  # of (label, Attribute)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple((l, a) for l, a in self.members))
        validate_variable(self.members, substrate=self.substrate)

    @cached_property
    def _span(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The span block the variable keeps: the read-only
        `_stacked_span_rows` of its quantum attributes, or None when it is
        classical or an attribute lists a mixed state, whose span depends on
        tol().  Derived on the first read, and at construction by `variable`;
        a trusted variable (`_trusted_variable`) may be handed one."""
        if self.substrate.kind == QUANTUM and not any(map(_holds_mixed, self.attributes)):
            return tuple(map(_readonly, _stacked_span_rows(self.attributes)))

    def _span_block(self) -> tuple[np.ndarray, np.ndarray]:
        """The members' stacked span rows and counts (`_stacked_span_rows`):
        the block kept, or derived now when none is kept."""
        return self._span or _stacked_span_rows(self.attributes)

    @property
    def labels(self) -> tuple:
        return tuple(l for l, _ in self.members)

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return tuple(a for _, a in self.members)

    def attribute(self, label) -> Attribute:
        for l, a in self.members:
            if l == label:
                return a
        raise KeyError(label)

    def __len__(self) -> int:
        return len(self.members)


def validate_variable(members, substrate: SubstrateSpec | None = None) -> None:
    """Reject duplicate or NaN labels and overlapping attributes, naming offenders."""
    members = tuple(members)
    if not members:
        raise DisjointnessError("a variable needs at least one member")
    labels = [l for l, _ in members]
    _check_labels(labels)
    if substrate is not None:
        _check_member_substrates(members, substrate)
    hit = _first_overlap(a for _, a in members)
    if hit is not None:
        i, j, witness = hit
        raise DisjointnessError(
            f"attributes {labels[i]!r} and {labels[j]!r} overlap (shared state: {witness!r})"
        )


def _check_labels(labels) -> None:
    """Reject a repeated label, then a label that does not equal itself (NaN):
    no member could be looked up by it."""
    if len(set(labels)) != len(labels):
        dupe = next(l for l in labels if labels.count(l) > 1)
        raise DisjointnessError(f"duplicate label {dupe!r} in variable")
    for label in labels:
        if label != label:
            raise DisjointnessError(f"label {label!r} does not equal itself")


def _check_member_substrates(members, substrate: SubstrateSpec) -> None:
    for label, attr in members:
        if attr.substrate.kind != substrate.kind or attr.substrate.size() != substrate.size():
            raise DisjointnessError(f"attribute {label!r} lives on a different substrate")


def variable(substrate: SubstrateSpec, members) -> Variable:
    """A checked `Variable` that derives its span block now, as one built
    through this public builder is built to be read."""
    built = Variable(substrate, tuple(members))
    built._span  # derived here, not at its first use
    return built


def _trusted_variable(substrate: SubstrateSpec, members: tuple, span=None) -> Variable:
    """Variable, unchecked: for members known to be valid and pairwise
    disjoint.  It keeps the given span block of its members, or derives one
    on its first read."""
    kept = {"_span": span} if span else {}  # else derived on the first read
    return _trusted(Variable, substrate=substrate, members=members, **kept)


def union_attribute_of(var: Variable) -> Attribute:
    return attribute_union(var.attributes)


def coarsen_variable(x1: Variable, x2: Variable, mode: str = "sum") -> Variable:
    """Joint variable on the composite substrate whose labels are sums or
    products of the factor labels; equal values merge into one attribute,
    the union of their products.  Unchecked (see the module docstring)
    unless a member lists a mixed state or is a subspace, whose union is refused."""
    if mode not in ("sum", "product"):
        raise LabelArithmeticError(f"unknown coarsening mode {mode!r}")
    for v in (x1, x2):
        for label in v.labels:
            if not isinstance(label, Real) or isinstance(label, bool):
                raise LabelArithmeticError(f"label {label!r} does not support arithmetic")
    substrate = compose_substrates(x1.substrate, x2.substrate)
    buckets: dict = {}  # value -> products, in order of first appearance
    for l1, a1 in x1.members:
        for l2, a2 in x2.members:
            buckets.setdefault(l1 + l2 if mode == "sum" else l1 * l2, []).append(
                _product_attribute(a1, a2, substrate))
    checked = any(a.is_subspace or _holds_mixed(a) for a in x1.attributes + x2.attributes)
    members = tuple((value, attribute_union(parts) if checked else _trusted_attribute(
        substrate, sum((p.elements for p in parts), ()))) for value, parts in buckets.items())
    return (Variable if checked else _trusted_variable)(substrate, members)


# ---------------------------------------------------------------------------
# Tasks


@dataclass(frozen=True)
class Task:
    """A finite set of input -> output attribute pairs on one substrate."""

    substrate: SubstrateSpec
    pairs: tuple  # of (Attribute, Attribute)
    side_effects: bool = False

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((i, o) for i, o in self.pairs))
        for attr_in, attr_out in self.pairs:
            for attr in (attr_in, attr_out):
                if attr.substrate.kind != self.substrate.kind or attr.substrate.size() != self.substrate.size():
                    raise InvalidCompositionError("task attribute on a different substrate")
        hit = _first_overlap(p[0] for p in self.pairs)
        if hit is not None:
            raise DisjointnessError(
                f"task input attributes overlap (shared state: {hit[2]!r})"
            )


def task(substrate: SubstrateSpec, pairs, side_effects: bool = False) -> Task:
    return Task(substrate, tuple(pairs), side_effects)


def identity_task(substrate: SubstrateSpec) -> Task:
    """The do-nothing task: every state back to itself."""
    if substrate.kind == CLASSICAL:
        u = extensional_attribute(substrate, substrate.universe())
    else:
        d = substrate.dim
        u = extensional_attribute(substrate, [basis_state(d, k) for k in range(d)])
    return Task(substrate, ((u, u),))


def parallel_task(a: Task, b: Task) -> Task:
    """Both tasks side by side on the composite substrate."""
    substrate = compose_substrates(a.substrate, b.substrate)
    pairs = tuple(
        (product_attribute(ai, bi), product_attribute(ao, bo))
        for ai, ao in a.pairs
        for bi, bo in b.pairs
    )
    return Task(substrate, pairs, side_effects=a.side_effects or b.side_effects)


# ---------------------------------------------------------------------------
# Possibility verdicts


POSSIBLE = "possible"
IMPOSSIBLE = "impossible"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class PossibilityVerdict:
    status: str
    witness: Any = None
    certificate: str | None = None
    backend: str = ""
    nodes: int = 0  # search nodes the oracle visited

    def __post_init__(self):
        if self.status not in (POSSIBLE, IMPOSSIBLE, UNKNOWN):
            raise StateError(f"unknown verdict status {self.status!r}")

    @property
    def possible(self) -> bool:
        return self.status == POSSIBLE


def is_task_possible(task: Task, model) -> PossibilityVerdict:
    """Dispatch to the model's possibility oracle; kinds must match."""
    if task.substrate.kind != model.kind:
        raise DispatchError(
            f"task on a {task.substrate.kind} substrate cannot run on a {model.kind} model"
        )
    if not task.pairs:
        return PossibilityVerdict(POSSIBLE, witness="identity", backend=model.kind)
    return model.possible(task)


def replay_witness(task: Task, model, verdict: PossibilityVerdict) -> bool:
    """Check a stored witness against the backend it came from."""
    if verdict.status != POSSIBLE:
        return False
    if not task.pairs:
        return verdict.witness == "identity"
    return model.check_witness(task, verdict.witness)
