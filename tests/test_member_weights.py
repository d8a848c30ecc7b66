"""Weights from span rows against weights through projectors.

`kernel._member_weights` reads Tr(rho P_a) for every member a off one
product with the stacked span rows; `weight_oracle` builds each P_a and
takes `expectation`.  Both are run over pure and mixed states against
every kind of member: a single pure state (norms at 1 +- 0.9 tol
included), a set of linearly dependent states, a subspace basis, the zero
subspace, and a member listing a mixed state.  The library's
`partition_of_unity`, `sharp_value` and `restricted_variable` must agree
with the reference copies in `weight_oracle`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctkit import (
    DomainError,
    MixedState,
    PureState,
    QuantumModel,
    attribute_span,
    bar,
    extensional_attribute,
    normalized,
    partition_of_unity,
    quantum_substrate,
    restricted_variable,
    sharp_value,
    span_closure,
    subspace_attribute,
    variable,
)
from ctkit.kernel import _member_weights, _stacked_span_rows
from ctkit.tolerance import tol

import weight_oracle as ref

seed_st = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = ("pure", "dependent", "subspace", "mixed")
WEIGHTS = settings(max_examples=60, deadline=None)


def _pure(vec, scale=1.0):
    return PureState(np.asarray(vec) / np.linalg.norm(vec) * scale)


def _mixture(rng, rows):
    """A mixed state of full rank on the span of the given orthonormal rows."""
    w = rng.uniform(0.1, 1.0, size=len(rows))
    rho = sum(wk * np.outer(r, r.conj()) for wk, r in zip(w / w.sum(), rows))
    return MixedState(rho)


def _member(rng, sub, kind, rows):
    """A member of the given kind whose span is the span of rows."""
    if kind == "pure":
        scale = 1.0 + rng.choice([-0.9, 0.0, 0.9]) * tol()
        return extensional_attribute(sub, [_pure(rows[0], scale)])
    if kind == "dependent":
        # every row, then the sum of the first two: one more state than the span's rank
        return extensional_attribute(sub, [_pure(r) for r in rows] + [_pure(rows[0] + rows[1])])
    if kind == "subspace":
        return subspace_attribute(sub, [PureState(r) for r in rows])
    return extensional_attribute(sub, [_mixture(rng, rows)])


def _sizes(kind, rng):
    return {"pure": 1, "dependent": 2}.get(kind, int(rng.integers(1, 3)))


def covering_variable(rng, dim, kinds):
    """A variable whose members span the whole space, one member per kind
    while dimensions last, the zero subspace last."""
    sub = quantum_substrate(f"q{dim}", dim)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    cols = list(q.T)
    members, k = [], 0
    for kind in kinds:
        size = _sizes(kind, rng)
        if len(cols) - k < size:
            break
        members.append(_member(rng, sub, kind, cols[k:k + size]))
        k += size
    if k < dim:
        members.append(subspace_attribute(sub, [PureState(c) for c in cols[k:]]))
    full = variable(sub, list(enumerate(members)))
    zero = bar(span_closure(full), QuantumModel(sub))
    assert zero.is_subspace and zero.basis == ()
    return variable(sub, list(enumerate(members + [zero])))


def random_state(rng, dim, mixed):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if not mixed:
        return normalized(vec)
    return _mixture(rng, np.linalg.qr(rng.normal(size=(dim, dim))
                                      + 1j * rng.normal(size=(dim, dim)))[0].T)


def inside(rng, attr, mixed):
    """A state within the span of attr."""
    span = attribute_span(attr)
    if mixed:
        return _mixture(rng, span)
    return normalized(rng.normal(size=len(span)) @ span)


variables_st = st.tuples(seed_st, st.integers(2, 7),
                         st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))


@WEIGHTS
@given(variables_st, st.booleans())
def test_weights_match_the_projector_route(case, mixed):
    seed, dim, kinds = case
    rng = np.random.default_rng(seed)
    x = covering_variable(rng, dim, kinds)
    state = random_state(rng, dim, mixed)
    got = _member_weights(state, *x._span_block())
    want = [ref.weight(state, a) for a in x.attributes]
    assert got.shape == (len(x),)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert got[-1] == 0.0  # the zero subspace weighs exactly 0


@WEIGHTS
@given(seed_st, st.integers(2, 6), st.lists(st.integers(1, 4), min_size=1, max_size=5),
       st.booleans())
def test_weights_of_overlapping_attributes_match_the_projector_route(seed, dim, sizes, mixed):
    """Any list of attributes, not only a variable's members: random states
    (overlapping spans, dependent sets once a set outgrows the dimension)."""
    rng = np.random.default_rng(seed)
    sub = quantum_substrate(f"q{dim}", dim)
    attrs = [extensional_attribute(sub, [random_state(rng, dim, mixed and k == 0)
                                         for _ in range(n)])
             for k, n in enumerate(sizes)]
    state = random_state(rng, dim, not mixed)
    assert np.allclose(_member_weights(state, *_stacked_span_rows(attrs)),
                       [ref.weight(state, a) for a in attrs], rtol=0, atol=1e-12)


@WEIGHTS
@given(variables_st, st.booleans(), st.integers(0, 8))
def test_partition_sharp_value_and_restriction_match_the_references(case, mixed, where):
    seed, dim, kinds = case
    rng = np.random.default_rng(seed)
    x = covering_variable(rng, dim, kinds)
    # a state in one member's span (sharp), or spread over the whole space
    filled = [k for k, a in enumerate(x.attributes) if a.elements]
    state = (inside(rng, x.attributes[filled[where]], mixed) if where < len(filled)
             else random_state(rng, dim, mixed))

    part = partition_of_unity(state, x)
    want = ref.partition_items(state, x)
    assert part.labels == tuple(l for l, _ in want)
    assert np.allclose([v for _, v in part.items], [v for _, v in want], rtol=0, atol=1e-12)

    assert sharp_value(state, x) == ref.sharp_value(state, x)
    if where < len(filled):
        assert sharp_value(state, x) == x.labels[filled[where]]

    y = extensional_attribute(x.substrate, [state])
    got, want = restricted_variable(x, y).members, ref.restricted_members(state, x)
    assert [(l, id(a)) for l, a in got] == [(l, id(a)) for l, a in want]


def test_a_state_outside_the_span_has_no_partition_on_either_route():
    sub = quantum_substrate("q3", 3)
    x = variable(sub, [(0, extensional_attribute(sub, [_pure([1, 0, 0])])),
                       (1, extensional_attribute(sub, [_pure([0, 1, 0])]))])
    state = _pure([1, 1, 1])
    with pytest.raises(DomainError, match=r"coverage 0\.666666667") as got:
        partition_of_unity(state, x)
    with pytest.raises(DomainError) as want:
        ref.partition_items(state, x)
    assert str(got.value) == str(want.value)


def test_an_empty_span_weighs_exactly_zero_for_pure_and_mixed_states():
    sub = quantum_substrate("q2", 2)
    zero = subspace_attribute(sub, ())
    one = extensional_attribute(sub, [_pure([1, 1j])])
    for state in (_pure([0.6, 0.8j]), MixedState(np.diag([0.3, 0.7]))):
        got = _member_weights(state, *_stacked_span_rows((zero, one, zero)))
        assert got[0] == 0.0 and got[2] == 0.0
        assert got[1] == pytest.approx(ref.weight(state, one), abs=1e-12)


def test_a_lone_pure_member_at_the_norm_edge_is_read_as_its_unit_row():
    sub = quantum_substrate("q2", 2)
    for scale in (1.0 - 0.9 * tol(), 1.0 + 0.9 * tol()):
        member = extensional_attribute(sub, [_pure([1, 1], scale)])
        state = _pure([1, 0])
        # the row is v/|v| whatever |v|, so the weight is exactly 1/2 up to rounding
        weights = _member_weights(state, *_stacked_span_rows((member,)))
        assert weights[0] == pytest.approx(0.5, abs=1e-15)
        assert ref.weight(state, member) == pytest.approx(0.5, abs=1e-15)
