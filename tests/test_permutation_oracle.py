"""`quantum.permutation_computation` against the outer-product reference of
`tests/permutation_oracle.py`: the same unitary to 1e-12, unitary itself,
and the same error type and text on a mapping that is not closed and on
members that are not orthonormal."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctkit import (PreconditionError, PureState, TransformError, basis_members, basis_state,
                   permutation_computation)

from conftest import plus, random_unitary
from permutation_oracle import permutation_unitary


@st.composite
def members_and_mapping(draw):
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = draw(st.sampled_from([list(range(k)), [Fraction(j, 3) - 1 for j in range(k)],
                                   [f"m{j}" for j in range(k)]]))
    members = [(l, PureState(row)) for l, row in zip(labels, random_unitary(rng, d)[:k])]
    order = draw(st.permutations(labels))
    return members, dict(zip(labels, order))


@settings(max_examples=200, deadline=None)
@given(members_and_mapping())
def test_the_stacked_product_is_the_outer_product_sum(case):
    members, mapping = case
    u = permutation_computation(mapping, members)
    assert np.abs(u - permutation_unitary(mapping, members)).max() <= 1e-12
    assert np.abs(u.conj().T @ u - np.eye(len(u))).max() <= 1e-12
    for label, state in members:
        target = dict(members)[mapping[label]].vector
        assert np.abs(u @ state.vector - target).max() <= 1e-12


@pytest.mark.parametrize("mapping, members", [
    ({0: 2, 1: 0}, basis_members([0, 1])),
    ({0: 1}, basis_members([0, 1])),
    ({0: 1, 1: 0, 2: 2}, basis_members([0, 1])),
    ({0: 1, 1: 0}, ((0, basis_state(2, 0)), (1, plus()))),
    ({0: 0}, ((0, basis_state(2, 0)), (0, basis_state(2, 1)))),
])
def test_the_error_paths_match_the_reference(mapping, members):
    with pytest.raises((TransformError, PreconditionError)) as expected:
        permutation_unitary(mapping, members)
    with pytest.raises(expected.type) as got:
        permutation_computation(mapping, members)
    assert str(got.value) == str(expected.value)
