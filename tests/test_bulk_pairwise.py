"""The kernel's bulk pairwise checks against the pair-by-pair loops.

Variables, task inputs, unions, subspace bases and measurer spans are built
from random mixes of pure, mixed, subspace and classical attributes, with
repeats planted on purpose (one of them up to a phase).  Each is decided
twice: by the library, which nominates pairs from one Gram matrix or one
label count, and by `pairwise_oracle`, which walks every pair.  Both sides
must succeed alike, or raise the same error class with the same text.
"""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctkit import (
    ClassicalModel,
    MixedState,
    PureState,
    QuantumModel,
    SubstrateSpec,
    Task,
    Variable,
    attribute_span,
    attribute_union,
    basis_state,
    build_measurer,
    classical_substrate,
    compose_substrates,
    extensional_attribute,
    is_distinguishable,
    normalized,
    quantum_substrate,
    states_equal,
    subspace_attribute,
    tensor,
    variable,
)
from ctkit import kernel
from ctkit.errors import CtError, StateError
from ctkit.kernel import _first_overlap, _first_span_overlap
from ctkit.predicates import _superinformation_pair
from ctkit.tolerance import tol

import pairwise_oracle as ref

seed_st = st.integers(min_value=0, max_value=2**32 - 1)
PURE, MIXED, SUBSPACE, MULTI = "pure", "mixed", "subspace", "multi"


def outcome(build):
    """('ok', value) or (error class, message) of one construction."""
    try:
        return "ok", build()
    except CtError as exc:
        return type(exc), str(exc)


def same_witness(a, b) -> bool:
    # states are compared by identity: their repr does not tell them apart
    return a is b or (isinstance(a, (str, int, tuple)) and a == b)


def state_pool(dim, rng):
    """Basis kets, |0>+-|1>, one random state, and copies of |0> and of the
    random state up to a phase."""
    pool = [basis_state(dim, k) for k in range(dim)]
    pool += [normalized([1, c] + [0] * (dim - 2)) for c in (1, -1)]
    pool.append(normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim)))
    pool.append(normalized(1j * pool[0].vector))
    pool.append(PureState(np.exp(0.3j) * pool[-2].vector))
    return pool


def draw_attributes(data, sub, rng, kinds):
    """Quantum attributes of the drawn kinds; those the library itself
    refuses (a repeat inside one attribute) are left out."""
    dim = sub.dim
    pool = state_pool(dim, rng)
    attrs = []
    for kind in kinds:
        if kind == PURE:
            idx = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                     max_size=3, unique=True))
            build = lambda: extensional_attribute(sub, [pool[k] for k in idx])  # noqa: E731
        elif kind == MIXED:
            k = data.draw(st.integers(0, len(pool) - 1))
            if data.draw(st.booleans()):
                # the density matrix of a pool state: equal to that pure state
                build = lambda: extensional_attribute(sub, [pool[k].density()])  # noqa: E731
            else:
                build = lambda: extensional_attribute(  # noqa: E731
                    sub, [MixedState(np.diag([0.5, 0.5] + [0.0] * (dim - 2)))])
        else:
            ks = data.draw(st.lists(st.integers(0, dim - 1), min_size=0,
                                    max_size=2, unique=True))
            build = lambda: subspace_attribute(sub, [basis_state(dim, k) for k in ks])  # noqa: E731
        status, attr = outcome(build)
        if status == "ok":
            attrs.append(attr)
    return attrs


def assert_agree(sub, attrs):
    """Variable, task inputs and union decided by both sides alike."""
    got = _first_overlap(attrs)
    want = ref.first_overlap(attrs)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[:2] == want[:2]
        assert same_witness(got[2], want[2])

    members = [(k, a) for k, a in enumerate(attrs)]
    got = outcome(lambda: Variable(sub, members))
    want = outcome(lambda: ref.check_variable(sub, members))
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]

    got = outcome(lambda: Task(sub, [(a, attrs[0]) for a in attrs]))
    want = outcome(lambda: ref.check_task_inputs(attrs))
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]

    if attrs:
        got = outcome(lambda: attribute_union(attrs))
        want = outcome(lambda: ref.check_union(attrs))
        assert got[0] == want[0]
        if got[0] == "ok":
            assert len(got[1].states) == len(want[1].states)
            assert all(a is b for a, b in zip(got[1].states, want[1].states))
        else:
            assert got[1] == want[1]


@settings(deadline=None, max_examples=150)
@given(seed_st, st.integers(min_value=2, max_value=4), st.booleans(), st.data())
def test_quantum_attribute_mixes_agree_with_the_loops(seed, dim, row_blocks, data):
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", dim)
    # pure-only lists take the Gram path; any mixed or subspace member
    # sends the whole list pair by pair
    menu = data.draw(st.sampled_from([(PURE,), (PURE,), (PURE, MIXED), (PURE, SUBSPACE),
                                      (PURE, MIXED, SUBSPACE)]))
    kinds = data.draw(st.lists(st.sampled_from(menu), min_size=0, max_size=6))
    attrs = draw_attributes(data, sub, rng, kinds)
    # a one-byte budget forms the Gram matrix one row at a time, so an
    # attribute's rows straddle blocks
    with mock.patch.object(kernel, "_GRAM_BLOCK_BYTES", 1 if row_blocks else kernel._GRAM_BLOCK_BYTES):
        assert_agree(sub, attrs)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_classical_attribute_mixes_agree_with_the_loops(data):
    labels = ["a", "b", "c", 0, 1, (2, 3)]
    sub = classical_substrate("c", labels)
    attrs = [extensional_attribute(sub, data.draw(st.lists(
        st.sampled_from(labels), min_size=1, max_size=3, unique=True)))
        for _ in range(data.draw(st.integers(min_value=0, max_value=6)))]
    assert_agree(sub, attrs)


@pytest.mark.parametrize("row_blocks", [False, True])
def test_union_keeps_a_state_whose_only_equal_was_dropped(row_blocks):
    """a equals b and b equals c within the tolerance, a does not equal c:
    the loop keeps a, drops b and keeps c, which equals no state kept."""
    sub = quantum_substrate("s", 2)
    step = np.sqrt(1.2 * tol())  # overlaps 1 - 0.6 tol and 1 - 2.4 tol
    a, b, c = (PureState(np.array([np.cos(k * step), np.sin(k * step)])) for k in range(3))
    assert states_equal(a, b) and states_equal(b, c) and not states_equal(a, c)
    parts = [extensional_attribute(sub, [s]) for s in (a, b, c)]
    assert ref.union_states(parts) == [a, c]
    with mock.patch.object(kernel, "_GRAM_BLOCK_BYTES", 1 if row_blocks else kernel._GRAM_BLOCK_BYTES):
        kept = attribute_union(parts).states
    assert len(kept) == 2 and kept[0] is a and kept[1] is c


@settings(deadline=None, max_examples=100)
@given(seed_st, st.integers(min_value=2, max_value=4), st.data())
def test_subspace_bases_agree_with_the_loop(seed, dim, data):
    rng = np.random.default_rng(seed)
    pool = state_pool(dim, rng)
    idx = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=dim + 1))
    basis = [pool[k] for k in idx]
    got = outcome(lambda: subspace_attribute(quantum_substrate("s", dim), basis))
    want = outcome(lambda: ref.check_subspace(basis, tol()))
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]


def stacked(spans):
    """The (rows, counts) block of a list of spans."""
    rows = np.concatenate(spans) if spans else np.zeros((0, 0), dtype=complex)
    return rows, [len(s) for s in spans]


@settings(deadline=None, max_examples=100)
@given(seed_st, st.integers(min_value=2, max_value=4), st.data())
def test_span_overlaps_agree_with_the_loop(seed, dim, data):
    """`build_measurer` and `is_distinguishable` name the first pair of
    non-orthogonal member spans the loop would, with the same overlap."""
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", dim)
    kinds = data.draw(st.lists(st.sampled_from([PURE, MIXED, SUBSPACE]), max_size=5))
    attrs = draw_attributes(data, sub, rng, kinds)
    spans = [attribute_span(a) for a in attrs]
    hit = ref.first_span_overlap(spans, tol())
    assert _first_span_overlap(*stacked(spans), tol()) == hit

    labels = list(range(len(attrs)))  # so a (label, label, overlap) witness reads as hit
    status, v = outcome(lambda: Variable(sub, list(zip(labels, attrs))))
    if status != "ok":
        return
    got = outcome(lambda: build_measurer(v, target_dim=max(dim, len(attrs))))
    want = outcome(lambda: ref.check_measurable(labels, spans, tol()))
    if want[0] != "ok":
        assert got == want
    assert is_distinguishable(v, None).evidence["witness"] == hit


def test_span_overlap_after_empty_spans():
    # owners outnumber the stacked rows when empty spans come first
    sub = quantum_substrate("s", 2)
    empty = subspace_attribute(sub, [])
    zero = extensional_attribute(sub, [basis_state(2, 0)])
    spans = [attribute_span(a) for a in (empty, empty, zero, zero)]
    assert _first_span_overlap(*stacked(spans), tol()) == ref.first_span_overlap(spans, tol()) \
        == (2, 3, 1.0)


def test_tensor_of_vectors_is_kron_bit_for_bit():
    rng = np.random.default_rng(5)
    for da, db in [(1, 3), (2, 2), (3, 5), (8, 4)]:
        a = normalized(rng.normal(size=da) + 1j * rng.normal(size=da))
        b = normalized(rng.normal(size=db) + 1j * rng.normal(size=db))
        assert tensor(a, b).vector.tobytes() == np.kron(a.vector, b.vector).tobytes()


def test_substrate_sizes_match_the_factor_tree():
    def walk(spec):
        if not spec.factors:
            return (spec,)
        return tuple(leaf for f in spec.factors for leaf in walk(f))

    q2, q3 = quantum_substrate("a", 2), quantum_substrate("b", 3)
    nested = compose_substrates(compose_substrates(q2, q3), compose_substrates(q3, q2))
    assert nested.leaves() == walk(nested)
    assert nested.leaf_dims == (2, 3, 3, 2)
    assert nested.dim == nested.size() == 36
    c = compose_substrates(classical_substrate("x", [0, 1, 2]), classical_substrate("y", "ab"))
    assert c.size() == len(c.universe()) == 6
    # cached sizes stay out of equality, hashing and repr
    again = SubstrateSpec(id=nested.id, kind=nested.kind, factors=nested.factors)
    assert again == nested and hash(again) == hash(nested)
    assert "_size" not in repr(nested)


# ---------------------------------------------------------------------------
# Scale: pairwise checks over 2000 attributes


N_SCALE, DIM_SCALE = 2000, 64


@pytest.fixture(scope="module")
def scale_attrs():
    rng = np.random.default_rng(11)
    sub = quantum_substrate("big", DIM_SCALE)
    vecs = rng.normal(size=(N_SCALE, DIM_SCALE)) + 1j * rng.normal(size=(N_SCALE, DIM_SCALE))
    return sub, [extensional_attribute(sub, [normalized(v)]) for v in vecs]


def timed_peak(build):
    """(seconds, peak traced bytes) of one call."""
    tracemalloc.start()
    try:
        started = time.perf_counter()
        build()
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return elapsed, peak


def test_two_thousand_input_task_constructs_in_a_second(scale_attrs):
    sub, attrs = scale_attrs
    elapsed, peak = timed_peak(lambda: Task(sub, [(a, a) for a in attrs]))
    assert elapsed < 1.0
    # the whole 2000 x 2000 Gram matrix would take 64 MB; row blocks keep
    # the peak near the block budget
    assert peak < 24 * 2 ** 20


def test_two_thousand_member_variable_constructs_in_a_second(scale_attrs):
    sub, attrs = scale_attrs
    elapsed, peak = timed_peak(lambda: Variable(sub, list(enumerate(attrs))))
    assert elapsed < 1.0
    assert peak < 24 * 2 ** 20


def test_a_late_repeat_is_found_across_row_blocks(scale_attrs):
    sub, attrs = scale_attrs
    # a copy of member 1500 up to a phase, as member 1999's second state
    shared = attrs[1500].states[0]
    twin = extensional_attribute(sub, [attrs[1999].states[0], PureState(-1j * shared.vector)])
    members = list(enumerate(attrs[:1999])) + [(1999, twin)]
    i, j, witness = _first_overlap([a for _, a in members])
    assert (i, j) == (1500, 1999) and witness is shared
    with pytest.raises(CtError) as info:
        Variable(sub, members)
    assert str(info.value) == f"attributes 1500 and 1999 overlap (shared state: {shared!r})"


@settings(deadline=None, max_examples=150)
@given(seed_st, st.integers(min_value=1, max_value=4), st.booleans(), st.data())
def test_attribute_repeats_match_a_nested_states_equal_loop(seed, dim, row_blocks, data):
    """An extensional attribute of pure states is refused exactly when a
    nested `states_equal` loop finds a repeat, near-repeats at the
    tolerance included."""
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", dim)
    pool = state_pool(dim, rng) if dim > 1 else [basis_state(1, 0), PureState(np.array([1j]))]
    idx = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    states = [pool[k] for k in idx]
    if dim > 1 and data.draw(st.booleans()):
        # s + eps u, u a unit vector orthogonal to s, has overlap 1 - eps^2 / 2
        # with s, so eps near sqrt(2 tol) lands either side of the tolerance
        s = states[data.draw(st.integers(0, len(states) - 1))].vector
        step = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        step -= np.vdot(s, step) * s
        eps = np.sqrt(2 * tol()) * data.draw(st.floats(min_value=0.98, max_value=1.02))
        states.insert(data.draw(st.integers(0, len(states))),
                      normalized(s + eps * step / np.linalg.norm(step)))
    repeat = any(states_equal(a, b) for i, a in enumerate(states) for b in states[i + 1:])
    with mock.patch.object(kernel, "_GRAM_BLOCK_BYTES", 1 if row_blocks else kernel._GRAM_BLOCK_BYTES):
        got = outcome(lambda: extensional_attribute(sub, states))
    if repeat:
        assert got == (StateError, "duplicate states in attribute (up to phase)")
    else:
        assert got[0] == "ok"


# ---------------------------------------------------------------------------
# Superinformation: the first cross pair of two variables


def draw_member(data, sub, pool):
    """A single pure state, two or three pure states, or a subspace."""
    kind = data.draw(st.sampled_from([PURE, MULTI, SUBSPACE]))
    if kind == SUBSPACE:
        ks = data.draw(st.lists(st.integers(0, sub.dim - 1), min_size=1, max_size=2, unique=True))
        return subspace_attribute(sub, [basis_state(sub.dim, k) for k in ks])
    size = 1 if kind == PURE else data.draw(st.integers(2, 3))
    idx = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size,
                             unique=True))
    return extensional_attribute(sub, [pool[k] for k in idx])


def planted_copy(data, sub, pool, attr):
    """An attribute sharing a state with attr: the same subspace, one of its
    basis vectors, or one of its states up to a phase, alone or with
    another pool state."""
    if attr.is_subspace:
        if data.draw(st.booleans()):
            return attr
        return extensional_attribute(sub, [data.draw(st.sampled_from(attr.basis))])
    s = data.draw(st.sampled_from(attr.states))
    copy = PureState(np.exp(1j * data.draw(st.floats(0, 6.28))) * s.vector)
    other = data.draw(st.sampled_from(pool))
    status, both = outcome(lambda: extensional_attribute(sub, [copy, other]))
    if status == "ok" and data.draw(st.booleans()):
        return both
    return extensional_attribute(sub, [copy])


def grow_variable(data, sub, prefix, candidates):
    """A variable of those candidate attributes that keep the members
    pairwise disjoint, each inserted at a drawn place; None if none does."""
    members = []
    for k, draw in enumerate(candidates):
        status, attr = outcome(draw)
        if status != "ok":
            continue
        trial = list(members)
        trial.insert(data.draw(st.integers(0, len(trial))), (f"{prefix}{k}", attr))
        if outcome(lambda: variable(sub, trial))[0] == "ok":
            members = trial
    return variable(sub, members) if members else None


def assert_first_cross_pair(x, y, model):
    want = ref.first_cross_overlap(x, y)
    assert want is not None
    verdict, evidence = _superinformation_pair(x, y, model)
    assert verdict is False
    assert evidence["failed"] == "cross disjointness"
    assert evidence["pair"] == want[0]
    assert same_witness(evidence["witness"], want[1])


@settings(deadline=None, max_examples=150)
@given(seed_st, st.integers(min_value=2, max_value=4), st.booleans(), st.data())
def test_superinformation_names_the_first_cross_pair(seed, dim, row_blocks, data):
    """With members sharing a state with x planted in y, the pair and the
    witness are those of the nested `attributes_disjoint` loop over x's and
    y's members."""
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", dim)
    pool = state_pool(dim, rng)

    def member():
        return draw_member(data, sub, pool)

    def plant():
        return planted_copy(data, sub, pool, data.draw(st.sampled_from(x.attributes)))

    x = grow_variable(data, sub, "x", [member] * data.draw(st.integers(1, 4)))
    assume(x is not None)
    # the first candidate always stays, so y shares a state with x
    y = grow_variable(data, sub, "y", [plant] * data.draw(st.integers(1, 2))
                      + [member] * data.draw(st.integers(0, 3)))
    with mock.patch.object(kernel, "_GRAM_BLOCK_BYTES", 1 if row_blocks else kernel._GRAM_BLOCK_BYTES):
        assert_first_cross_pair(x, y, QuantumModel(sub))


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_classical_superinformation_names_the_first_cross_pair(data):
    labels = ["a", "b", "c", 0, 1, (2, 3)]
    sub = classical_substrate("c", labels)

    def member():
        return extensional_attribute(sub, data.draw(st.lists(
            st.sampled_from(labels), min_size=1, max_size=2, unique=True)))

    def plant():
        shared = data.draw(st.sampled_from(data.draw(st.sampled_from(x.attributes)).states))
        extra = data.draw(st.lists(st.sampled_from(labels), max_size=1))
        return extensional_attribute(sub, dict.fromkeys([shared] + extra))

    x = grow_variable(data, sub, "x", [member] * data.draw(st.integers(1, 4)))
    y = grow_variable(data, sub, "y", [plant] * data.draw(st.integers(1, 2))
                      + [member] * data.draw(st.integers(0, 3)))
    assert_first_cross_pair(x, y, ClassicalModel(sub))
