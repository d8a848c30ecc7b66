"""States: construction, comparison, tensor algebra, partial traces."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctkit import (
    MixedState,
    PureState,
    SizeLimitError,
    StateError,
    apply_unitary,
    basis_state,
    embed_unitary,
    expectation,
    inner,
    normalized,
    orthogonal,
    partial_trace,
    states_equal,
    tensor,
)
from ctkit.states import DENSITY_BYTES, _check_bytes, _check_density_size

from conftest import ket, minus, plus

RNG = np.random.default_rng(20260822)


def random_ket(dim, rng=RNG):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return normalized(vec)


def test_basis_state_is_unit():
    s = basis_state(2, 0)
    assert s.dim == 2
    assert s.dims == (2,)
    assert abs(np.linalg.norm(s.vector) - 1.0) < 1e-12


def test_non_unit_vector_rejected():
    with pytest.raises(StateError):
        PureState(np.array([1.0, 1.0]))


def test_zero_vector_rejected():
    with pytest.raises(StateError):
        normalized([0, 0])


def test_dims_must_factor_the_length():
    with pytest.raises(StateError):
        PureState(np.array([1.0, 0.0, 0.0]), dims=(2, 2))


def test_equality_ignores_global_phase():
    s = plus()
    rotated = PureState(np.exp(1j * 0.7) * s.vector)
    assert states_equal(s, rotated)


def test_distinct_states_not_equal():
    assert not states_equal(basis_state(2, 0), plus())
    assert not states_equal(basis_state(2, 0), basis_state(3, 0))


def test_inner_and_orthogonal():
    assert inner(basis_state(2, 0), basis_state(2, 1)) == 0
    assert orthogonal(plus(), minus())
    assert not orthogonal(basis_state(2, 0), plus())
    assert abs(inner(basis_state(2, 0), plus()) - 1 / np.sqrt(2)) < 1e-12


def test_tensor_tracks_factor_dims():
    joint = tensor(basis_state(2, 0), plus())
    assert joint.dims == (2, 2)
    assert joint.dim == 4
    expected = np.array([1, 1, 0, 0]) / np.sqrt(2)
    assert np.allclose(joint.vector, expected)


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    bell = normalized([1, 0, 0, 1], dims=(2, 2))
    reduced = partial_trace(bell, keep=0)
    assert np.allclose(reduced.matrix, np.eye(2) / 2)


def test_partial_trace_of_product_recovers_factor():
    joint = tensor(basis_state(2, 0), plus())
    reduced = partial_trace(joint, keep=1)
    assert states_equal(reduced, plus())
    # and the kept factor is pure: rho^2 == rho
    assert np.allclose(reduced.matrix @ reduced.matrix, reduced.matrix)


def test_partial_trace_keep_order_matters():
    joint = tensor(basis_state(2, 0), basis_state(3, 1))
    swapped = partial_trace(joint, keep=(1, 0))
    assert swapped.dims == (3, 2)
    assert states_equal(swapped, tensor(basis_state(3, 1), basis_state(2, 0)).density())


def test_partial_trace_rejects_bad_factor_index():
    with pytest.raises(StateError):
        partial_trace(plus(), keep=1)


def test_mixed_state_validation():
    with pytest.raises(StateError):
        MixedState(np.array([[0.5, 0.5], [0.4, 0.5]]))  # not hermitian
    with pytest.raises(StateError):
        MixedState(np.diag([0.5, 0.4]))  # trace 0.9
    with pytest.raises(StateError):
        MixedState(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_expectation_on_pure_and_mixed():
    proj0 = np.diag([1.0, 0.0])
    assert expectation(plus(), proj0) == pytest.approx(0.5)
    assert expectation(plus().density(), proj0) == pytest.approx(0.5)


def test_apply_unitary_on_one_factor():
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    joint = tensor(basis_state(2, 0), basis_state(2, 0))
    out = apply_unitary(joint, hadamard, factors=(1,))
    assert states_equal(out, tensor(basis_state(2, 0), plus()))


def test_apply_unitary_whole_space():
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert states_equal(apply_unitary(basis_state(2, 0), hadamard), plus())


# ---------------------------------------------------------------------------
# Properties

dims_st = st.integers(min_value=2, max_value=5)
phase_st = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)
seed_st = st.integers(min_value=0, max_value=2**32 - 1)


@given(dims_st, phase_st, seed_st)
def test_phase_invariance_property(dim, theta, seed):
    s = random_ket(dim, np.random.default_rng(seed))
    assert states_equal(s, PureState(np.exp(1j * theta) * s.vector))


@given(dims_st, seed_st)
def test_density_of_pure_state_is_idempotent(dim, seed):
    rho = random_ket(dim, np.random.default_rng(seed)).density()
    assert np.allclose(rho.matrix @ rho.matrix, rho.matrix, atol=1e-10)


@given(seed_st)
def test_partial_trace_consistent_with_tensor(seed):
    rng = np.random.default_rng(seed)
    a, b = random_ket(2, rng), random_ket(3, rng)
    joint = tensor(a, b)
    assert states_equal(partial_trace(joint, keep=0), a.density())
    assert states_equal(partial_trace(joint, keep=1), b.density())


# ---------------------------------------------------------------------------
# Mixed states against dense references


def random_mixture(dims, rank, rng):
    """A rank-`rank` density matrix on `dims` and its (weight, PureState) terms."""
    weights = rng.random(rank)
    weights /= weights.sum()
    terms = [(w, PureState(random_ket(int(np.prod(dims)), rng).vector, dims)) for w in weights]
    matrix = sum(w * np.outer(k.vector, k.vector.conj()) for w, k in terms)
    return MixedState(matrix, dims), terms


def random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("dims, keep", [
    ((2, 3), (1,)),
    ((3, 2), (1, 0)),
    ((2, 3, 2), (2, 0)),
    ((2,) * 7, tuple(range(6))),  # seven factors, six kept
    ((2,) * 7, (6, 2, 4)),
    ((2, 2, 3, 2, 2, 2, 2), (2, 5, 0, 1)),
])
def test_mixed_partial_trace_matches_the_eigen_sum_of_pure_traces(dims, keep):
    rng = np.random.default_rng(len(dims) * 100 + len(keep))
    rho, terms = random_mixture(dims, rank=3, rng=rng)
    reduced = partial_trace(rho, keep)
    assert reduced.dims == tuple(dims[k] for k in keep)
    vals, vecs = np.linalg.eigh(rho.matrix)
    eigen_sum = sum(v * partial_trace(PureState(vecs[:, i], dims), keep).matrix
                    for i, v in enumerate(vals) if v > 1e-12)
    assert np.allclose(reduced.matrix, eigen_sum, atol=1e-12)
    term_sum = sum(w * partial_trace(k, keep).matrix for w, k in terms)
    assert np.allclose(reduced.matrix, term_sum, atol=1e-12)


def test_mixed_tensor_is_the_kronecker_product():
    rng = np.random.default_rng(7)
    a, _ = random_mixture((2,), rank=2, rng=rng)
    b, _ = random_mixture((3, 2), rank=2, rng=rng)
    ket_c = random_ket(2, rng)
    for left, right in ((a, b), (b, a), (a, ket_c), (ket_c, b)):
        joint = tensor(left, right)
        assert isinstance(joint, MixedState)
        assert joint.dims == left.dims + right.dims
        assert np.allclose(joint.matrix, np.kron(left.density().matrix,
                                                 right.density().matrix), atol=0)


@pytest.mark.parametrize("dims, factors", [
    ((2, 3), None),
    ((2, 3), (1,)),
    ((2, 3, 2), (2, 0)),
    ((2,) * 7, (6, 1, 3)),
])
def test_mixed_apply_unitary_matches_the_dense_conjugation(dims, factors):
    rng = np.random.default_rng(len(dims) * 10 + (len(factors) if factors else 0))
    rho, terms = random_mixture(dims, rank=3, rng=rng)
    acted = int(np.prod([dims[k] for k in factors])) if factors else rho.dim
    u = random_unitary(acted, rng)
    out = apply_unitary(rho, u, factors)
    assert isinstance(out, MixedState) and out.dims == dims
    full = u if factors is None else embed_unitary(u, dims, factors)
    assert np.allclose(out.matrix, full @ rho.matrix @ full.conj().T, atol=1e-12)
    # each pure term moved on its own, then mixed again
    moved = sum(w * apply_unitary(k, u, factors).density().matrix for w, k in terms)
    assert np.allclose(out.matrix, moved, atol=1e-12)


def test_an_infinite_entry_is_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match="density matrix is not hermitian within tolerance"):
            MixedState(np.array([[0.5, np.inf], [np.inf, 0.5]]))


def test_size_checks_format_their_error_text_only_over_budget():
    class Template(str):
        def format(self, *args):
            raise AssertionError(f"formatted {args} under budget")

    _check_bytes(DENSITY_BYTES, Template("a {0} x {0} density matrix"), 4096)
    with pytest.raises(SizeLimitError, match=r"^a 4097 x 4097 density matrix needs 268566544 "
                                             r"bytes, over the budget of 268435456$"):
        _check_density_size(4097)
