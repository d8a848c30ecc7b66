"""`check_decision_support` and `is_generalised_mixture` against the member
loops of `tests/decision_support_oracle.py`: whole reports compared.

A decision-support report matches when every check has the same verdict
and detail (floats to 1e-12), and the reason, the appendix flag and q (to
1e-12) agree; an error matches in type and text.  A mixture report matches
when the subject, the verdict and every evidence entry agree, the witness
being the same object.  The draws: rotated qubit MUB pairs (which pass),
non-MUB and degenerate pairs (which fail and then ask whether the pair is
superinformation), two-member observables in d = 3, members that list two
states, a subspace or a mixed state, and mixtures whose z is trivial,
overlapping, contained, outside the span or inside it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctkit import (
    CtError,
    MixedState,
    PureState,
    QuantumModel,
    check_decision_support,
    extensional_attribute,
    is_generalised_mixture,
    normalized,
    quantum_substrate,
    subspace_attribute,
    variable,
)

import decision_support_oracle as oracle
from conftest import random_unitary

ORACLE = settings(max_examples=120, deadline=None)
seed_st = st.integers(0, 2**32 - 1)


def outcome(fn):
    try:
        return fn()
    except CtError as exc:
        return exc


def assert_close(a, b):
    """Equal structure; floats (and arrays) to 1e-12, anything else equal."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and list(a) == list(b)
        for key in a:
            assert_close(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for u, v in zip(a, b):
            assert_close(u, v)
    elif isinstance(a, float) and not isinstance(a, bool):
        assert isinstance(b, float) and abs(a - b) <= 1e-12
    else:
        assert type(a) is type(b) and a == b


def assert_same_support(got, want):
    if isinstance(want, CtError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert [(name, verdict) for name, verdict, _ in got.checks] == \
        [(name, verdict) for name, verdict, _ in want.checks]
    for (_, _, a), (_, _, b) in zip(got.checks, want.checks):
        assert_close(a, b)
    assert (got.passed, got.reason, got.appendix_preparation_available) == \
        (want.passed, want.reason, want.appendix_preparation_available)
    assert (got.q is None) == (want.q is None)
    if want.q is not None:
        assert got.q.dims == want.q.dims
        assert np.abs(got.q.vector - want.q.vector).max() <= 1e-12


def assert_same_mixture(got, want):
    if isinstance(want, CtError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert (got.predicate, got.subject, got.verdict) == (want.predicate, want.subject, want.verdict)
    assert list(got.evidence) == list(want.evidence)
    for key, value in want.evidence.items():
        if key == "witness":
            assert got.evidence[key] is value
        elif key == "span_sharpness_gap":
            assert abs(got.evidence[key] - value) <= 1e-12
        else:
            assert got.evidence[key] == value


def phased(rng, vector):
    return PureState(vector * np.exp(2j * np.pi * rng.random()))


def observable(sub, labels, rows, rng=None):
    """Members of one state per row; each takes a random phase when rng is given."""
    return variable(sub, [(l, extensional_attribute(sub, [PureState(r) if rng is None else phased(rng, r)]))
                          for l, r in zip(labels, rows)])


# ---------------------------------------------------------------------------
# decision support


@st.composite
def support_pairs(draw):
    rng = np.random.default_rng(draw(seed_st))
    kind = draw(st.sampled_from(["mub", "rotated", "degenerate", "qutrit",
                                 "two_states", "subspace", "mixed"]))
    d = 3 if kind == "qutrit" else 2
    sub = quantum_substrate(f"q{d}", d)
    u = random_unitary(rng, d)
    x_labels = draw(st.sampled_from([(0, 1), (1, -1), (0.5, 2)]))
    y_labels = draw(st.sampled_from([("+", "-"), (0, 1), (3, 7)]))
    basis = u.T  # rows: an orthonormal basis
    if kind == "mub":
        y_rows = np.array([basis[0] + basis[1], basis[0] - basis[1]]) / np.sqrt(2)
    elif kind == "rotated":
        theta = rng.uniform(0.05, np.pi / 4 - 0.05) if rng.random() < 0.9 else 0.0
        y_rows = np.array([np.cos(theta) * basis[0] + np.sin(theta) * basis[1],
                           -np.sin(theta) * basis[0] + np.cos(theta) * basis[1]])
    elif kind == "degenerate":
        y_rows = basis[::-1] if rng.random() < 0.5 else basis[:2]
    elif kind == "qutrit":
        v = random_unitary(rng, 2)  # a second basis of the span of the first two rows
        y_rows = v.T @ basis[:2] if rng.random() < 0.5 else random_unitary(rng, 3).T[:2]
    else:
        y_rows = np.array([basis[0] + basis[1], basis[0] - basis[1]]) / np.sqrt(2)
    # the swaps map member states to member states, phases and all: a MUB
    # pair passes when its members are U|0>, U|1>, U|+>, U|->, and the
    # diagonal states of x and y agree when y is a real rotation of x
    phases = None if kind == "mub" or rng.random() < 0.5 else rng
    x = observable(sub, x_labels, basis[:2], phases)
    y = observable(sub, y_labels, y_rows, phases)
    if kind in ("two_states", "subspace", "mixed"):
        which = draw(st.sampled_from(["x", "y"]))
        v, rows = (x, basis) if which == "x" else (y, y_rows)
        first, second = v.members
        if kind == "two_states":  # two states, so two span rows: refused before any check
            tilted = normalized(rows[0] + 0.3 * rows[1])
            v = variable(sub, [(first[0], extensional_attribute(sub, [PureState(rows[0]), tilted])),
                               second])
        elif kind == "subspace":
            v = variable(sub, [(first[0], subspace_attribute(sub, [PureState(rows[0])])), second])
        else:
            rho = np.outer(rows[0], rows[0].conj())
            v = variable(sub, [(first[0], extensional_attribute(sub, [MixedState(rho)])), second])
        x, y = (v, y) if which == "x" else (x, v)
    return QuantumModel(sub), x, y


@ORACLE
@given(support_pairs())
def test_decision_support_matches_the_member_loops(case):
    model, x, y = case
    got = outcome(lambda: check_decision_support(model, x, y))
    want = outcome(lambda: oracle.check_decision_support(model, x, y))
    assert_same_support(got, want)


@settings(max_examples=30, deadline=None)
@given(seed_st)
def test_rotated_mub_pairs_pass(seed):
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("q2", 2)
    basis = random_unitary(rng, 2).T
    x = observable(sub, (0, 1), basis)
    y = observable(sub, ("+", "-"), np.array([basis[0] + basis[1], basis[0] - basis[1]]) / np.sqrt(2))
    report = check_decision_support(QuantumModel(sub), x, y)
    assert report.passed
    assert_same_support(report, oracle.check_decision_support(QuantumModel(sub), x, y))


def test_a_member_that_lists_two_states_is_refused_alike():
    sub = quantum_substrate("q3", 3)
    e = np.eye(3)
    x = variable(sub, [(0, extensional_attribute(sub, [PureState(e[0]), normalized(e[0] + e[2])])),
                       (1, extensional_attribute(sub, [PureState(e[1])]))])
    y = observable(sub, ("+", "-"), np.array([e[0] + e[1], e[0] - e[1]]) / np.sqrt(2),
                   np.random.default_rng(0))
    model = QuantumModel(sub)
    got = outcome(lambda: check_decision_support(model, x, y))
    assert isinstance(got, CtError)
    assert_same_support(got, outcome(lambda: oracle.check_decision_support(model, x, y)))


# ---------------------------------------------------------------------------
# generalised mixtures


@st.composite
def mixtures(draw):
    rng = np.random.default_rng(draw(seed_st))
    d = draw(st.integers(2, 5))
    sub = quantum_substrate(f"q{d}", d)
    basis = random_unitary(rng, d).T
    # members of h: lone states, a two-state member, a subspace, a mixed state
    kinds = draw(st.lists(st.sampled_from(["state", "state", "two", "subspace", "mixed"]),
                          min_size=1, max_size=d))
    members, used, spans = [], 0, []
    for k, kind in enumerate(kinds):
        width = 2 if kind in ("two", "subspace") and used + 2 <= d else 1
        rows = basis[used:used + width]
        used += width
        if kind == "two" and width == 2:
            states = [phased(rng, rows[0]), PureState(normalized(rows[0] + rows[1]).vector)]
            attr = extensional_attribute(sub, states)
        elif kind == "subspace":
            attr = subspace_attribute(sub, [PureState(r) for r in rows])
        elif kind == "mixed":
            attr = extensional_attribute(sub, [MixedState(np.outer(rows[0], rows[0].conj()))])
        else:
            attr = extensional_attribute(sub, [phased(rng, rows[0])])
        members.append((k, attr))
        spans.append(rows)
        if used >= d:
            break
    h = variable(sub, members)
    inside = np.concatenate(spans)
    k = draw(st.integers(0, len(members) - 1))
    member = members[k][1]
    z_kind = draw(st.sampled_from(["trivial", "overlapping", "contained", "outside",
                                   "inside", "inside_subspace", "inside_mixed", "zero"]))

    def superposition(rows):
        c = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
        return normalized(c @ rows)

    if z_kind == "trivial":
        z = member
    elif z_kind == "overlapping":
        own = member.basis[0] if member.is_subspace else member.elements[0]
        if isinstance(own, MixedState):
            own = PureState(spans[k][0])
        other = superposition(basis)
        z = extensional_attribute(sub, [other, own] if rng.random() < 0.5 else [own, other])
    elif z_kind == "contained":
        rows = spans[k]
        c = random_unitary(rng, len(rows))[:1]
        z = subspace_attribute(sub, [PureState(r) for r in c @ rows])
    elif z_kind == "outside":
        z = extensional_attribute(sub, [normalized(rng.normal(size=d) + 1j * rng.normal(size=d))])
    elif z_kind == "inside":
        count = draw(st.integers(1, min(2, len(inside))))  # one row spans one state
        z = extensional_attribute(sub, [superposition(inside) for _ in range(count)])
    elif z_kind == "inside_subspace":
        z = subspace_attribute(sub, [PureState(r) for r in
                                     random_unitary(rng, len(inside))[:1] @ inside])
    elif z_kind == "inside_mixed":
        a, b = superposition(inside).vector, superposition(inside).vector
        z = extensional_attribute(sub, [MixedState(0.5 * np.outer(a, a.conj()) + 0.5 * np.outer(b, b.conj()))])
    else:
        z = subspace_attribute(sub, [])
    return QuantumModel(sub), z, h


@settings(max_examples=300, deadline=None)
@given(mixtures())
def test_generalised_mixture_matches_the_member_loop(case):
    model, z, h = case
    got = outcome(lambda: is_generalised_mixture(z, h, model))
    want = outcome(lambda: oracle.is_generalised_mixture(z, h, model))
    assert_same_mixture(got, want)


@pytest.mark.parametrize("order", ["first", "last"])
def test_the_first_overlapping_member_is_the_witness(order):
    """Two members share a state with z: the loop's first hit, its witness
    object, is the report's."""
    sub = quantum_substrate("q3", 3)
    e = np.eye(3)
    a, b = PureState(e[0]), PureState(e[1])
    h = variable(sub, [(0, extensional_attribute(sub, [a])), (1, extensional_attribute(sub, [b])),
                       (2, extensional_attribute(sub, [PureState(e[2])]))])
    z = extensional_attribute(sub, [b, a] if order == "first" else [a, b])
    report = is_generalised_mixture(z, h, QuantumModel(sub))
    want = oracle.is_generalised_mixture(z, h, QuantumModel(sub))
    assert report.evidence["failed"] == "not disjoint" and report.evidence["member"] == 0
    assert_same_mixture(report, want)


@pytest.mark.parametrize("case", ["state_of_long_norm", "state_near_a_subspace",
                                  "subspace_near_a_subspace", "state_far"])
def test_nomination_reaches_the_tolerance_edge(case, monkeypatch):
    """At CT_TOL = 1e-3, states within tolerance of a member, of a member
    whose state is longer than 1, and a subspace within tolerance of a
    subspace member: nominated, so the reports are the loop's."""
    monkeypatch.setenv("CT_TOL", "1e-3")
    sub = quantum_substrate("q3", 3)
    e = np.eye(3, dtype=complex)
    tilt = 1.0 - 0.0009  # within 1e-3 of 1, as an overlap or a norm in the span
    longer = PureState(e[2] * 1.0009)  # a checked state may be this long
    h = variable(sub, [(0, subspace_attribute(sub, [PureState(e[0]), PureState(e[1])])),
                       (1, extensional_attribute(sub, [longer]))])
    if case == "state_of_long_norm":  # |<s|r>| = 0.9982 * 1.0009 >= 1 - 1e-3
        z = extensional_attribute(sub, [PureState(0.9982 * e[2] + np.sqrt(1 - 0.9982 ** 2) * e[0])])
    elif case == "state_near_a_subspace":
        z = extensional_attribute(sub, [PureState(tilt * e[0] + np.sqrt(1 - tilt ** 2) * e[2])])
    elif case == "subspace_near_a_subspace":
        z = subspace_attribute(sub, [PureState(tilt * e[1] + np.sqrt(1 - tilt ** 2) * e[2])])
    else:
        z = extensional_attribute(sub, [PureState(0.99 * e[2] + np.sqrt(1 - 0.99 ** 2) * e[0])])
    got = is_generalised_mixture(z, h, QuantumModel(sub))
    want = oracle.is_generalised_mixture(z, h, QuantumModel(sub))
    assert_same_mixture(got, want)
    assert ("span_sharpness_gap" in want.evidence) == (case == "state_far")  # else a member test
