"""The factor route against the dense formulas it replaced.

Every state carries a factor F with rho = F F^dag (`ctkit.states`), and
partial traces, row weights, expectations, measurer and unitary images,
products of mixed states and the receptive weight all contract F.  The
oracle here is the dense route they replaced, written on rho alone.  Each
route must agree with it to 1e-12 over four kinds of state: pure, full-rank
mixed, rank-deficient mixed, and a wide factor (a partial trace of a random
pure joint, with more columns than rows).
"""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctkit import (
    MixedState,
    PureState,
    StateError,
    apply_measurer,
    apply_unitary,
    build_counting_constructor,
    build_measurer,
    embed_unitary,
    expectation,
    normalized,
    partial_trace,
    quantum_substrate,
    tensor,
)
from ctkit.kernel import _row_weights
from ctkit.quantum import ControlledMap, _receptive_weight

from conftest import basis_variable, random_unitary

KINDS = ("pure", "full", "deficient", "wide")
ATOL = 1e-12
seed_st = st.integers(min_value=0, max_value=2**32 - 1)
ROUTES = settings(max_examples=30, deadline=None)


# ---------------------------------------------------------------------------
# The dense oracle


def dense_partial_trace(rho, dims, keep):
    n = len(dims)
    order = list(keep) + [k for k in range(n) if k not in keep]
    kept_dim = prod(dims[k] for k in keep)
    block = np.transpose(rho.reshape(dims + dims), order + [n + k for k in order])
    block = block.reshape(kept_dim, rho.shape[0] // kept_dim, kept_dim, -1)
    return np.trace(block, axis1=1, axis2=3)


def dense_row_weights(rho, rows):
    return np.sum((rows.conj() @ rho) * rows, axis=1).real


def dense_expectation(rho, operator):
    return float(np.real(np.trace(rho @ operator)))


def dense_receptive_weight(rho, dims, factor, index):
    n = len(dims)
    block = np.moveaxis(rho.reshape(dims + dims), (factor, n + factor), (0, 1))
    rest = rho.shape[0] // dims[factor]
    return float(np.trace(block[index, index].reshape(rest, rest)).real)


def dense_image(rho, u):
    return u @ rho @ u.conj().T


# ---------------------------------------------------------------------------
# States of each kind


def random_state(rng, dims, kind):
    dims = tuple(dims)
    dim = prod(dims)
    if kind == "pure":
        return normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim), dims)
    if kind == "wide":
        extra = dim + 1 + int(rng.integers(3))
        joint = normalized(rng.normal(size=dim * extra) + 1j * rng.normal(size=dim * extra),
                           dims + (extra,))
        state = partial_trace(joint, tuple(range(len(dims))))
        assert state.factor.shape == (dim, extra)
        return state
    rank = dim if kind == "full" else max(1, dim // 2)
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return MixedState(rho / np.trace(rho).real, dims)


def assert_factored(state):
    """A mixed state holds a read-only factor with F F^dag = matrix and unit trace."""
    f = state.factor
    assert not f.flags.writeable
    assert f.shape[0] == state.dim
    if isinstance(state, MixedState):
        assert not state.matrix.flags.writeable
        assert np.allclose(f @ f.conj().T, state.matrix, rtol=0, atol=ATOL)
        assert abs(np.trace(state.matrix).real - 1.0) <= ATOL


def close(a, b):
    return np.allclose(a, b, rtol=0, atol=ATOL)


# ---------------------------------------------------------------------------
# Each route against the oracle


@ROUTES
@given(seed_st, st.sampled_from(KINDS), st.sampled_from([(2,), (3,), (2, 3), (2, 2, 2)]))
def test_partial_traces_weights_and_expectations_match_the_dense_route(seed, kind, dims):
    rng = np.random.default_rng(seed)
    state = random_state(rng, dims, kind)
    rho = state.density().matrix
    assert_factored(state)
    assert_factored(state.density())
    n = len(dims)
    for size in range(n + 1):
        for keep in (tuple(range(size)), tuple(range(n))[::-1][:size]):
            reduced = partial_trace(state, keep)
            assert_factored(reduced)
            assert close(reduced.matrix, dense_partial_trace(rho, dims, keep))
    rows = rng.normal(size=(3, state.dim)) + 1j * rng.normal(size=(3, state.dim))
    assert close(_row_weights(state, rows), dense_row_weights(rho, rows))
    a = rng.normal(size=(state.dim, state.dim)) + 1j * rng.normal(size=(state.dim, state.dim))
    hermitian = a + a.conj().T
    assert abs(expectation(state, hermitian) - dense_expectation(rho, hermitian)) <= ATOL
    for factor, d in enumerate(dims):
        for index in range(d):
            assert abs(_receptive_weight(state, factor, index)
                       - dense_receptive_weight(rho, dims, factor, index)) <= ATOL


@ROUTES
@given(seed_st, st.sampled_from(KINDS), st.sampled_from([None, (0,), (1,), (2, 0), (1, 2, 0)]))
def test_unitary_images_match_the_dense_conjugation(seed, kind, factors):
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2)
    state = random_state(rng, dims, kind)
    acted = prod(dims[k] for k in factors) if factors else state.dim
    u = random_unitary(rng, acted)
    out = apply_unitary(state, u, factors)
    assert type(out) is type(state) and out.dims == dims
    assert_factored(out)
    full = u if factors is None else embed_unitary(u, dims, factors)
    assert close(out.density().matrix, dense_image(state.density().matrix, full))


@ROUTES
@given(seed_st, st.sampled_from(KINDS), st.sampled_from([2, 3]))
def test_measurer_images_match_the_dense_unitary(seed, kind, d):
    rng = np.random.default_rng(seed)
    m = build_measurer(basis_variable(quantum_substrate(f"q{d}", d)))
    source = random_state(rng, (d,), kind)
    joint = tensor(source, m.receptive_state())
    assert_factored(joint)
    u = m.control.unitary
    out = apply_measurer(m, joint)
    assert_factored(out)
    assert close(out.density().matrix, dense_image(joint.density().matrix, u))
    # off the receptive state, and with a wide factor on the joint itself
    other = random_state(rng, (d, m.control.target_dim), kind)
    moved = m.control.apply(other)
    assert_factored(moved)
    assert close(moved.density().matrix, dense_image(other.density().matrix, u))


@ROUTES
@given(seed_st, st.sampled_from(KINDS), st.integers(1, 3))
def test_counting_constructor_images_match_the_dense_unitary(seed, kind, n):
    rng = np.random.default_rng(seed)
    m = build_counting_constructor(0, n, basis_variable(quantum_substrate("q2", 2)))
    joint = tensor(random_state(rng, (2 ** n,), kind), m.receptive_state())
    out = apply_measurer(m, joint)
    assert_factored(out)
    assert close(out.density().matrix, dense_image(joint.density().matrix, m.control.unitary))
    record = partial_trace(out, 1)
    rows = np.array(m.flags)
    assert close(_row_weights(record, rows), dense_row_weights(record.matrix, rows))


@ROUTES
@given(seed_st, st.sampled_from(KINDS[1:]), st.sampled_from(KINDS[1:]))
def test_mixed_products_are_the_kronecker_product(seed, left, right):
    rng = np.random.default_rng(seed)
    a, b = random_state(rng, (2,), left), random_state(rng, (3, 2), right)
    for x, y in ((a, b), (b, a), (a, a)):
        joint = tensor(x, y)
        assert isinstance(joint, MixedState) and joint.dims == x.dims + y.dims
        assert_factored(joint)
        assert joint.factor.shape[1] <= joint.dim
        assert close(joint.matrix, np.kron(x.matrix, y.matrix))


# ---------------------------------------------------------------------------
# What stays checked


@pytest.mark.parametrize("kind", KINDS[1:])
def test_a_map_that_is_not_unitary_is_still_refused_on_a_mixed_state(kind):
    rng = np.random.default_rng(5)
    state = random_state(rng, (2, 2), kind)
    with pytest.raises(StateError, match=r"^density matrix trace .* is not 1$"):
        apply_unitary(state, 2 * np.eye(2), (1,))
    stretch = ControlledMap(bases=(np.eye(2, dtype=complex),), classes=np.array([0, 1]),
                            maps=(np.diag([1.0, 3.0]).astype(complex),), target_dim=2)
    with pytest.raises(StateError, match=r"^density matrix trace .* is not 1$"):
        stretch.apply(state)
    with pytest.raises(StateError, match="vector norm"):
        stretch.apply(random_state(rng, (2, 2), "pure"))


def test_a_pure_state_factor_is_its_vector_as_one_column():
    state = PureState(np.array([0.6, 0.8j]))
    assert state.factor.shape == (2, 1) and not state.factor.flags.writeable
    assert np.array_equal(state.factor[:, 0], state.vector)
