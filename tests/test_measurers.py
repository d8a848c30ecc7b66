"""Structured measurers against dense reference operators, and the counting
constructor at ensemble sizes a dense unitary could not reach."""

import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctkit import (
    MixedState,
    NotMeasurableError,
    PureState,
    SizeLimitError,
    apply_measurer,
    attribute_projector,
    basis_state,
    build_adder,
    build_counting_constructor,
    build_measurer,
    controlled_map,
    extensional_attribute,
    intrinsic_part,
    quantum_substrate,
    subspace_attribute,
    tensor,
    variable,
)
from ctkit.ensembles import COUNTING_JOINT_BYTES
from ctkit.quantum import MeasurerSpec, _unitary_with_first_column, basis_swap, completed_basis
from ctkit.states import DENSITY_BYTES
from ctkit.tolerance import tol

import measurer_oracle as oracle
from conftest import basis_variable, random_unitary, state_variable

RNG_SEED = 20150711


def complex_basis_variable(rng, d, labels=None):
    sub = quantum_substrate(f"c{d}", d)
    u = random_unitary(rng, d)
    labels = list(range(d)) if labels is None else labels
    return state_variable(sub, [(label, PureState(u[:, k])) for k, label in enumerate(labels)])


def basis_measurer(rng):
    return build_measurer(complex_basis_variable(rng, 3))


def partial_measurer(rng):
    """Two labels in dimension 4: spans of rank 2 and 1 leave a one-dimensional rest."""
    sub = quantum_substrate("q4", 4)
    u = random_unitary(rng, 4)
    pair = subspace_attribute(sub, (PureState(u[:, 0]), PureState(u[:, 1])))
    single = extensional_attribute(sub, (PureState(u[:, 2]),))
    return build_measurer(variable(sub, [("pair", pair), ("single", single)]))


def flag_measurer(rng):
    x = complex_basis_variable(rng, 2, labels=["a", "b"])
    flags = random_unitary(rng, 4)
    return build_measurer(x, flag_states={"a": PureState(flags[:, 1]),
                                          "b": PureState(flags[:, 3])})


def counting_measurer(rng):
    x = complex_basis_variable(rng, 2, labels=["u", "v"])
    return build_counting_constructor("v", 3, x)


def many_class_measurer(rng):
    """One class per ket: the gather carries sixteen permutation classes."""
    return build_measurer(complex_basis_variable(rng, 16))


def mixed_map_measurer(rng):
    """A `controlled_map` of the equal-value replacement's shape, index maps
    beside one dense unitary, on spans of rank 2, 1 and 1 in dimension 5."""
    u = random_unitary(rng, 5)
    maps = [np.array([2, 0, 1]), random_unitary(rng, 3), np.array([0, 2, 1])]
    control = controlled_map(u[:, :4].T, [2, 1, 1], maps, 5)
    return MeasurerSpec(labels=(0, 1, 2), flags=tuple(np.eye(3, dtype=complex)), control=control)


BUILDERS = {
    "basis": basis_measurer,
    "partial": partial_measurer,
    "flags": flag_measurer,
    "counting": counting_measurer,
    "many_classes": many_class_measurer,
    "mixed_maps": mixed_map_measurer,
}


def receptive_vector(rng, m, dims, factors):
    """A random joint vector, entangled across every factor but the target,
    whose target factor sits in the receptive state."""
    psi = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    target = np.moveaxis(psi, factors[1], 0)
    keep = target[m.receptive_index].copy()
    target[...] = 0
    target[m.receptive_index] = keep
    return psi.reshape(-1) / np.linalg.norm(psi)


def random_density(rng, vectors):
    weights = rng.random(len(vectors))
    weights /= weights.sum()
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors))


def layouts(m):
    """(dims, factors) placements: plain, reversed, and with a spectator."""
    s, t = m.source_dim, m.target_dim
    return [((s, t), (0, 1)), ((t, s), (1, 0)), ((s, 2, t), (0, 2))]


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_oracle_operator_is_unitary_and_matches_the_dense_view(kind):
    m = BUILDERS[kind](np.random.default_rng(RNG_SEED))
    dense = oracle.local_operator(m.control)
    assert np.allclose(dense.conj().T @ dense, np.eye(dense.shape[0]), atol=1e-9)
    assert np.allclose(m.unitary, dense, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_apply_agrees_with_the_oracle_on_pure_and_mixed_joints(kind):
    rng = np.random.default_rng(RNG_SEED)
    m = BUILDERS[kind](rng)
    for dims, factors in layouts(m):
        full = oracle.joint_operator(m.control, dims, factors)
        vectors = [receptive_vector(rng, m, dims, factors) for _ in range(3)]
        for vec in vectors:
            out = apply_measurer(m, PureState(vec, dims), factors=factors)
            assert out.dims == dims
            assert np.allclose(out.vector, full @ vec, atol=1e-12)
        rho = random_density(rng, vectors)
        out = apply_measurer(m, MixedState(rho, dims), factors=factors)
        assert np.allclose(out.matrix, full @ rho @ full.conj().T, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_controlled_map_agrees_off_the_receptive_subspace(kind):
    """The whole operator, not just its action on receptive targets."""
    rng = np.random.default_rng(RNG_SEED + 1)
    m = BUILDERS[kind](rng)
    dims, factors = (m.source_dim, 2, m.target_dim), (0, 2)
    full = oracle.joint_operator(m.control, dims, factors)
    size = full.shape[0]
    vectors = [v / np.linalg.norm(v) for v in
               rng.normal(size=(2, size)) + 1j * rng.normal(size=(2, size))]
    out = m.control.apply(PureState(vectors[0], dims), factors)
    assert np.allclose(out.vector, full @ vectors[0], atol=1e-12)
    rho = random_density(rng, vectors)
    out = m.control.apply(MixedState(rho, dims), factors)
    assert np.allclose(out.matrix, full @ rho @ full.conj().T, atol=1e-12)


def test_adder_dense_view_matches_the_oracle(qubit):
    x = variable(qubit, [(0, extensional_attribute(qubit, (PureState([1, 0]),))),
                         (1, extensional_attribute(qubit, (PureState([0, 1]),)))])
    adder = build_adder(x, (0, 1, 2))
    assert np.allclose(adder.unitary, oracle.local_operator(adder.control), atol=1e-12)


# ---------------------------------------------------------------------------
# The counting constructor at scale


def zero_counts(n):
    """Number of 0 digits of each n-bit index, first replica most significant."""
    return np.array([n - bin(s).count("1") for s in range(2 ** n)])


@pytest.mark.parametrize("n", [12, 14])
def test_counting_constructor_flags_every_product_state(qubit, n):
    rng = np.random.default_rng(n)
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    psi /= np.linalg.norm(psi)
    started = time.perf_counter()
    m = build_counting_constructor(0, n, basis_variable(qubit))
    out = apply_measurer(m, tensor(PureState(psi), m.receptive_state()))
    elapsed = time.perf_counter() - started
    assert m.labels == tuple(Fraction(c, n) for c in range(n + 1))
    expected = np.zeros((2 ** n, n + 1), dtype=complex)
    expected[np.arange(2 ** n), zero_counts(n)] = psi
    assert np.allclose(out.vector.reshape(2 ** n, n + 1), expected, atol=1e-12)
    if n == 14:
        assert elapsed < 1.0
    weights = np.real(np.diag(intrinsic_part(out, 1).matrix))
    assert weights.sum() == pytest.approx(1.0)


def test_counting_guard_refuses_before_allocating(qubit):
    x = basis_variable(qubit)
    tracemalloc.start()
    try:
        for n in (18, 40):  # both joints are over the byte budget
            with pytest.raises(SizeLimitError):
                build_counting_constructor(0, n, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert 16 * 2 ** 18 * 19 > COUNTING_JOINT_BYTES


def test_density_guard_refuses_the_counting_joint_before_allocating(qubit):
    # 2**11 x 12 = 24576 amplitudes: the joint itself is within the counting
    # budget, but its density matrix would take 9 GiB
    m = build_counting_constructor(0, 11, basis_variable(qubit))
    joint = tensor(PureState(np.full(2 ** 11, 2 ** -5.5)), m.receptive_state())
    assert joint.dim == 24576
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="density matrix"):
            joint.density()
        with pytest.raises(SizeLimitError, match="density matrix"):
            tensor(MixedState(np.eye(2) / 2), joint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert 16 * 4096 ** 2 <= DENSITY_BYTES < 16 * 24576 ** 2


def two_member_variable(dim):
    sub = quantum_substrate(f"q{dim}", dim)
    return state_variable(sub, [(0, basis_state(dim, 0)), (1, basis_state(dim, 1))])


def test_control_basis_guard_refuses_before_the_svd():
    # the completed control basis is dim x dim: 1 GiB at 8192, 256 MiB (the
    # whole budget) at 4096
    x = two_member_variable(8192)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="a 8192 x 8192 control basis"):
            build_measurer(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    m = build_measurer(two_member_variable(4096))
    assert m.source_dim == 4096


def test_basis_measurer_of_256_members_holds_index_vectors():
    x = basis_variable(quantum_substrate("q256", 256))
    tracemalloc.start()
    try:
        started = time.perf_counter()
        m = build_measurer(x)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.2
    assert peak < 16 * 2 ** 20
    assert all(t_map.shape == (256,) for t_map in m.control.maps)


@pytest.mark.parametrize("bad", [[0, 0, 2], [0, 1, 3], [0, 1], [1, 0, 2, 3],
                                 [0.0, 1.0, 2.0], [True, False, True]])
def test_controlled_map_refuses_an_index_vector_that_is_no_permutation(bad):
    rows = basis_state(2, 0).vector.reshape(1, 2)
    with pytest.raises(NotMeasurableError, match=r"^measurer construction lost unitarity "
                                                 r"\(a target map is not unitary\)$"):
        controlled_map(rows, [1], [np.array([1, 0, 2]), np.array(bad)], 2)


# ---------------------------------------------------------------------------
# Construction: flag maps, member spans and the standard labelling


def test_flag_map_of_one_entry_is_the_flag():
    flag = np.array([np.exp(0.3j)])
    assert np.array_equal(_unitary_with_first_column(flag), flag[:, None])


def _flag_map_ok(flag):
    u = _unitary_with_first_column(flag)
    assert np.abs(u[:, 0] - flag).max() <= 1e-12
    assert np.abs(u.conj().T @ u - np.eye(flag.size)).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 7, 64])
def test_flag_map_of_special_flags(n):
    rng = np.random.default_rng(RNG_SEED + n)
    phase = np.exp(2j * np.pi * rng.random())
    e0 = np.eye(n, dtype=complex)[0]
    rest = rng.normal(size=n) + 1j * rng.normal(size=n)
    rest[0] = 0
    rest /= np.linalg.norm(rest)
    _flag_map_ok(phase * e0)  # the map is a phase
    _flag_map_ok(rest)  # f0 = 0
    for s in (1e-4, 1e-9, 1e-15):  # within s of a multiple of e0
        _flag_map_ok(phase * (np.sqrt(1 - s * s) * e0 + s * rest))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5, 16, 100, 1024]))
def test_flag_map_of_random_flags(seed, n):
    rng = np.random.default_rng(seed)
    flag = rng.normal(size=n) + 1j * rng.normal(size=n)
    _flag_map_ok(flag / np.linalg.norm(flag))


def test_a_flag_off_the_unit_sphere_still_breaks_unitarity(qubit):
    with pytest.raises(NotMeasurableError,
                       match=r"^measurer construction lost unitarity \(a target map is not unitary\)$"):
        build_measurer(basis_variable(qubit), flag_states={0: np.array([2, 0]), 1: np.array([0, 2])})


def test_two_flag_states_of_2048_build_and_apply_as_reflectors(qubit):
    # two dense 2048 x 2048 flag maps would hold 128 MiB and take seconds
    t = 2048
    block = np.arange(t) < t // 2
    flags = [block / np.sqrt(t // 2), ~block / np.sqrt(t // 2)]
    amps = np.array([0.6, 0.8j])
    tracemalloc.start()
    try:
        started = time.perf_counter()
        m = build_measurer(basis_variable(qubit), flag_states={0: flags[0], 1: flags[1]})
        out = apply_measurer(m, tensor(PureState(amps), m.receptive_state()))
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 8 * 2 ** 20
    assert np.abs(out.vector.reshape(2, t) - amps[:, None] * np.array(flags)).max() <= 1e-12


def test_the_dense_view_of_a_flag_measurer_is_built_from_the_reference_flag_maps(qubit):
    m = flag_measurer(np.random.default_rng(RNG_SEED))
    p0, p1 = (m.control.projector(k) for k in range(2))
    dense = sum(np.kron(p, _unitary_with_first_column(f)) for p, f in zip((p0, p1), m.flags))
    dense = dense + np.kron(np.eye(2) - p0 - p1, np.eye(4))
    assert np.abs(m.unitary - dense).max() <= 1e-12


MEMBER_KINDS = ("lone", "lone", "several", "subspace", "mixed")


def mixed_kind_variable(rng, d, kinds):
    """Members spanning disjoint blocks of a random basis: lone pure states
    with a random phase and a norm of 1 - 0.9 tol, 1 or 1 + 0.9 tol, a
    member listing two states and their sum, a subspace of rank 1 or 2, and
    a member listing a mixed state of rank 2."""
    sub = quantum_substrate(f"m{d}", d)
    cols = list(random_unitary(rng, d).T)
    members = []
    for kind in kinds:
        size = {"lone": 1, "several": 2, "mixed": 2}.get(kind, int(rng.integers(1, 3)))
        if len(cols) < size:
            break
        rows, cols = cols[:size], cols[size:]
        if kind == "lone":
            scale = (1.0 + rng.choice([-0.9, 0.0, 0.9]) * tol()) * np.exp(2j * np.pi * rng.random())
            attr = extensional_attribute(sub, [PureState(rows[0] * scale)])
        elif kind == "several":
            both = (rows[0] + rows[1]) / np.sqrt(2)
            attr = extensional_attribute(sub, [PureState(r) for r in (*rows, both)])
        elif kind == "subspace":
            attr = subspace_attribute(sub, [PureState(r) for r in rows])
        else:
            attr = extensional_attribute(sub, [MixedState(random_density(rng, rows))])
        members.append(attr)
    return variable(sub, list(enumerate(members)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7),
       st.lists(st.sampled_from(MEMBER_KINDS), min_size=1, max_size=5))
def test_measurer_spans_match_the_attribute_projectors(seed, d, kinds):
    rng = np.random.default_rng(seed)
    x = mixed_kind_variable(rng, d, kinds)
    m = build_measurer(x)
    for k, attr in enumerate(x.attributes):
        assert np.abs(m.control.projector(k) - attribute_projector(attr)).max() <= 1e-12
    assert np.abs(m.unitary - oracle.local_operator(m.control)).max() <= 1e-12
    # the default labelling: basis flags, and swaps of the receptive index 0 with k
    n = len(x)
    for k in range(n):
        assert np.array_equal(m.flags[k], basis_state(n, k).vector)
        assert np.array_equal(m.control.maps[k], basis_swap(n, 0, k))


def test_a_two_member_measurer_at_4096_checks_its_span_rows_only():
    # unitarity is read off the 2 x 2 Gram matrix of the span rows, not off a
    # 4096 x 4096 product of the completed basis
    x = two_member_variable(4096)
    started = time.perf_counter()
    m = build_measurer(x)
    assert time.perf_counter() - started < 2.0
    assert m.source_dim == 4096


def test_the_control_basis_is_built_in_the_svd_buffer():
    # a 2048 x 2048 complex basis is 64 MiB; a fresh stack beside the SVD's
    # vh plus a re-phased copy would hold three of them at once
    dim = 2048
    rows = np.array([basis_state(dim, 0).vector, basis_state(dim, 1).vector])
    tracemalloc.start()
    try:
        basis, classes = completed_basis(rows, [1, 1], dim, NotMeasurableError, "measurer")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.nbytes == 16 * dim * dim
    assert peak <= 1.6 * basis.nbytes
    assert np.array_equal(basis[:2], rows)
    assert np.array_equal(classes, np.repeat([0, 1, 2], [1, 1, dim - 2]))
    with pytest.raises(NotMeasurableError, match=r"^measurer construction lost unitarity"):
        completed_basis(2 * rows[:1], [1], dim, NotMeasurableError, "measurer")
