"""The measurer path reads a variable's span rows as one stacked block.

`kernel._stacked_span_rows` stacks and normalises the lone pure states in
one step; `_first_span_overlap`, `quantum.completed_basis` and
`controlled_map` take the (rows, counts) block.  Each is checked against
`pairwise_oracle`, which builds the spans one attribute at a time and walks
every pair of them.  A game's member states and `span_closure` read the same
block, and are checked against the per-member SVD rows they used to take.

A variable keeps its block from construction (`Variable._span_block`): it
must be `_stacked_span_rows` of its members bit for bit, and everything that
reads it must give what a variable re-deriving its block on each read gives.
A variable with a mixed member keeps none and follows `CT_TOL`.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctkit import (
    CtError,
    MixedState,
    PureState,
    Variable,
    apply_measurer,
    basis_state,
    build_measurer,
    check_decision_support,
    extensional_attribute,
    normalized,
    parse_model_spec,
    partition_of_unity,
    quantum_substrate,
    sharp_value,
    span_closure,
    subspace_attribute,
    tensor,
    variable,
)
from ctkit.errors import DisjointnessError, NotMeasurableError
from ctkit.games import _member_states
from ctkit.kernel import (_first_span_overlap, _row_basis, _stacked_span_rows,
                          _trusted_attribute, attribute_span)
from ctkit.states import _trusted
from ctkit.quantum import completed_basis
from ctkit.tolerance import tol

import pairwise_oracle as ref
from conftest import FIXTURE_DIR, basis_variable, random_unitary

seed_st = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = ["pure", "pure_off_norm", "multi", "subspace", "empty_subspace", "mixed", "rank_one_mixed"]


def attribute(kind, sub, rng):
    """One quantum attribute of the given kind on sub, from a random unitary's
    columns."""
    d = sub.dim
    u = random_unitary(rng, d)
    if kind == "pure":
        return extensional_attribute(sub, [PureState(u[:, 0])])
    if kind == "pure_off_norm":  # within tolerance of unit norm, read as its unit row
        return extensional_attribute(sub, [PureState((1 + 0.5 * tol()) * u[:, 0])])
    if kind == "multi":
        return extensional_attribute(sub, [PureState(u[:, 0]), normalized(u[:, 0] + u[:, 1])])
    if kind == "subspace":
        return subspace_attribute(sub, [PureState(u[:, k]) for k in range(min(2, d))])
    if kind == "empty_subspace":
        return subspace_attribute(sub, [])
    weights = [1.0] if kind == "rank_one_mixed" else [0.75, 0.25]
    rho = sum(w * np.outer(u[:, k], u[:, k].conj()) for k, w in enumerate(weights))
    return extensional_attribute(sub, [MixedState(rho)])


@settings(deadline=None, max_examples=80)
@given(seed_st, st.integers(min_value=2, max_value=5),
       st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
def test_stacked_span_rows_are_the_per_attribute_spans_up_to_row_phase(seed, d, kinds):
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", d)
    attrs = [attribute(kind, sub, rng) for kind in kinds]
    rows, counts = _stacked_span_rows(attrs)
    spans = ref.span_rows(attrs)
    assert counts.tolist() == [len(s) for s in spans]
    want = np.concatenate(spans)
    assert rows.shape == want.shape == (sum(len(s) for s in spans), d)
    for got_row, want_row in zip(rows, want):
        phase = np.vdot(got_row, want_row)
        assert abs(abs(phase) - 1) <= 1e-12
        assert np.abs(got_row * phase - want_row).max() <= 1e-12


MEMBER_KINDS = ["pure", "listed_twice", "line", "rank_one_mixed"]


def member_attribute(kind, sub, rng):
    """An attribute of the given kind that spans one dimension."""
    u = random_unitary(rng, sub.dim)
    state = PureState((1 + 0.5 * tol() * rng.uniform(-1, 1)) * u[:, 0])
    if kind == "pure":
        return extensional_attribute(sub, [state])
    if kind == "listed_twice":  # built unchecked: the constructor refuses the repeat
        return _trusted_attribute(sub, (state, state))
    if kind == "line":
        return subspace_attribute(sub, [PureState(u[:, 0])])
    return extensional_attribute(sub, [MixedState(np.outer(u[:, 0], u[:, 0].conj()))])


@settings(deadline=None, max_examples=80)
@given(seed_st, st.integers(min_value=2, max_value=5),
       st.lists(st.sampled_from(MEMBER_KINDS), min_size=1, max_size=6))
def test_member_states_and_span_closures_match_the_per_member_svd(seed, d, kinds):
    """`games._member_states` of one member is its SVD row (`attribute_span`)
    up to a real sign, and `span_closure` projects where one SVD over the
    per-member SVD rows does, to 1e-12.  (From d = 2: in dimension 1 the SVD
    row is 1 and v/|v| is any phase of it.)"""
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", d)
    attrs = [member_attribute(kind, sub, rng) for kind in kinds]
    for attr in attrs:
        (got,) = _member_states(*_stacked_span_rows((attr,)))
        got, (old,) = got.vector, attribute_span(attr)
        sign = np.vdot(got, old)
        assert abs(sign.imag) <= 1e-12 and abs(abs(sign.real) - 1) <= 1e-12
        assert np.abs(got * np.sign(sign.real) - old).max() <= 1e-12
    rows = attribute_span(span_closure(variable(sub, list(enumerate(attrs)))))
    old = _row_basis(np.concatenate([attribute_span(a) for a in attrs]))
    assert rows.shape == old.shape
    assert np.abs(rows.T @ rows.conj() - old.T @ old.conj()).max() <= 1e-12


@settings(deadline=None, max_examples=100)
@given(seed_st, st.integers(min_value=2, max_value=4), st.data())
def test_the_block_overlap_names_the_loops_first_pair(seed, d, data):
    # spans of none, one or two columns of two shared unitaries: some overlap,
    # some are orthogonal, some are empty
    rng = np.random.default_rng(seed)
    unitaries = [random_unitary(rng, d), random_unitary(rng, d)]
    picks = data.draw(st.lists(st.tuples(st.integers(0, 1), st.lists(
        st.integers(0, d - 1), max_size=2, unique=True)), max_size=6))
    spans = [unitaries[u][:, cols].T for u, cols in picks]
    rows = np.concatenate(spans) if spans else np.zeros((0, d), dtype=complex)
    got = _first_span_overlap(rows, [len(s) for s in spans], tol())
    assert got == ref.first_span_overlap(spans, tol())


def test_the_block_overlap_skips_empty_spans_before_and_between():
    d = 3
    ket = [basis_state(d, k).vector[None, :] for k in range(d)]
    empty = np.zeros((0, d), dtype=complex)
    plus = normalized([1, 1, 0]).vector[None, :]
    for spans in ([empty, empty, ket[0], empty, ket[0]], [ket[1], empty, plus, empty],
                  [empty, ket[0], ket[1], empty, ket[2]], [empty], []):
        rows = np.concatenate(spans) if spans else np.zeros((0, d), dtype=complex)
        got = _first_span_overlap(rows, [len(s) for s in spans], tol())
        assert got == ref.first_span_overlap(spans, tol())


@pytest.mark.parametrize("k, calls", [(4, 0), (3, 1), (1, 1), (0, 1)])
def test_completed_basis_runs_the_svd_only_when_the_rows_fall_short(k, calls):
    rng = np.random.default_rng(k)
    rows = random_unitary(rng, 4)[:k]
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        basis, classes = completed_basis(rows, [1] * k, 4, NotMeasurableError, "measurer")
    assert svd.call_count == calls
    assert np.abs(basis @ basis.conj().T - np.eye(4)).max() <= 1e-12
    assert np.array_equal(classes, np.repeat(np.arange(k + 1), [1] * k + [4 - k]))
    # the rows keep their place, each re-phased to a real positive largest entry
    for got, row in zip(basis, rows):
        lead = row[np.abs(row).argmax()]
        assert np.abs(got - row * abs(lead) / lead).max() <= 1e-15


def test_a_full_block_off_by_1e_8_is_refused_with_the_deviation():
    rows = np.eye(4, dtype=complex)
    rows[0, 1] = 1e-8
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        with pytest.raises(NotMeasurableError) as err:
            completed_basis(rows, [2, 2], 4, NotMeasurableError, "measurer")
    assert str(err.value) == "measurer construction lost unitarity (deviation 1e-08)"
    assert svd.call_count == 0


def test_a_basis_measurer_skips_its_identity_control_basis_without_building_one():
    sub = quantum_substrate("q", 8)
    x = basis_variable(sub)
    m = build_measurer(x)
    assert m.control._identity == [True]
    joint = tensor(normalized(np.arange(1, 9)), m.receptive_state())
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
            mock.patch.object(np, "eye", wraps=np.eye) as eye:
        out = apply_measurer(m, joint)
    assert (svd.call_count, eye.call_count) == (0, 0)
    amps = out.vector.reshape(8, 8)
    assert np.array_equal(np.flatnonzero(amps), np.arange(8) * 9)


# ---------------------------------------------------------------------------
# The block a variable keeps


def outcome(call):
    """call()'s result, or the type and text of the CtError it raised."""
    try:
        return call()
    except CtError as exc:
        return type(exc).__name__, str(exc)


def same_measurer(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):  # an error
        return a == b
    return (a.labels == b.labels and np.array_equal(a.control.classes, b.control.classes)
            and all(np.array_equal(p, q) for p, q in zip(a.control.bases, b.control.bases)))


@settings(deadline=None, max_examples=80)
@given(seed_st, st.integers(min_value=2, max_value=5),
       st.lists(st.sampled_from(["pure", "multi", "subspace", "mixed"]), min_size=1, max_size=4))
def test_the_kept_block_is_the_stacked_span_rows_and_reads_like_them(seed, d, kinds):
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", d)
    try:
        v = variable(sub, [(k, attribute(kind, sub, rng)) for k, kind in enumerate(kinds)])
    except DisjointnessError:  # two planes of a small space meet
        assume(False)
    rows, counts = _stacked_span_rows(v.attributes)
    if "mixed" in kinds:
        assert v._span is None
    else:
        kept_rows, kept_counts = v._span
        assert kept_rows.dtype == rows.dtype and np.array_equal(kept_rows, rows)
        assert kept_counts.dtype == counts.dtype and np.array_equal(kept_counts, counts)
        assert not kept_rows.flags.writeable and not kept_counts.flags.writeable
    # the same members with no kept block derive it on every read
    fresh = _trusted(Variable, substrate=sub, members=v.members, _span=None)
    first = v.attributes[0].elements
    for state in (PureState(random_unitary(rng, d)[:, 0]), first[0] if first else basis_state(d, 0)):
        assert outcome(lambda: partition_of_unity(state, v)) == \
            outcome(lambda: partition_of_unity(state, fresh))
        assert sharp_value(state, v) == sharp_value(state, fresh)
    assert same_measurer(outcome(lambda: build_measurer(v)), outcome(lambda: build_measurer(fresh)))


def test_a_mixed_member_span_follows_the_tolerance(monkeypatch):
    """An eigenvalue of 1e-7 is in the span at the default tolerance 1e-9
    and out of it at 1e-6: the variable reads its span anew."""
    sub = quantum_substrate("q", 3)
    rho = MixedState(np.diag([1 - 1e-7, 1e-7, 0.0]))
    v = variable(sub, [(0, extensional_attribute(sub, [rho])),
                       (1, extensional_attribute(sub, [basis_state(3, 2)]))])
    assert v._span_block()[1].tolist() == [2, 1]
    monkeypatch.setenv("CT_TOL", "1e-6")
    rows, counts = v._span_block()
    assert counts.tolist() == [1, 1]
    assert np.array_equal(rows, _stacked_span_rows(v.attributes)[0])


@pytest.mark.parametrize("name", ["qubit.json", "qubit_degenerate.json"])
def test_decision_support_makes_no_svd_call(name):
    """The span closures of orthonormal members take no SVD, and T1's summed
    pair variable and R4's (l, l) product variables take the products of
    the members' rows as their span blocks, so the two-state member of the
    pair variable takes none either."""
    doc = parse_model_spec(FIXTURE_DIR / name)
    x, y = doc.variables["X"], doc.variables["Y"]
    check_decision_support(doc.model, x, y)  # the appendix derivation runs once per tolerance
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        check_decision_support(doc.model, x, y)
    assert svd.call_count == 0


def test_span_closure_of_an_orthonormal_block_is_the_block():
    x = basis_variable(quantum_substrate("q", 4), range(3))
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        closure = span_closure(x)
    assert svd.call_count == 0
    assert np.array_equal(attribute_span(closure), np.eye(4)[:3])


def test_a_library_built_variable_derives_its_block_on_the_first_read():
    """A model document's variables, and the products, diagonals, unions and
    coarsenings the library builds, derive their block on the first read and
    keep it; what `check-model` asks of the qubit fixture reads none.  A
    variable of the public builder `variable` derives its block when it is
    built."""
    from ctkit import coarsen_variable, is_information_variable, is_observable
    from ctkit.predicates import _superinformation_pair

    doc = parse_model_spec(FIXTURE_DIR / "qubit.json")
    x, y = doc.variables["X"], doc.variables["Y"]
    with mock.patch.object(Variable, "_span_block", autospec=True) as read:
        for v in (x, y):
            assert is_information_variable(v, doc.model) and is_observable(v, doc.model)
        assert _superinformation_pair(x, y, doc.model)[0]
    assert read.call_count == 0
    pair = coarsen_variable(x, x)
    for v in (x, y, pair):
        assert "_span" not in vars(v)
        rows, counts = v._span_block()
        kept_rows, kept_counts = vars(v)["_span"]
        assert np.array_equal(kept_rows, rows) and np.array_equal(kept_counts, counts)
        assert np.array_equal(rows, _stacked_span_rows(v.attributes)[0])
    built = variable(x.substrate, x.members)
    assert np.array_equal(vars(built)["_span"][0], vars(x)["_span"][0])
