"""Quantum backend: Gram feasibility, measurers, comparers, permutations."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctkit import (
    IMPOSSIBLE,
    POSSIBLE,
    UNKNOWN,
    NotMeasurableError,
    PreconditionError,
    QuantumModel,
    ReceptiveStateError,
    SizeLimitError,
    TransformError,
    apply_measurer,
    basis_members,
    basis_state,
    build_comparer,
    build_measurer,
    comparer_for_measurers,
    compose_substrates,
    cyclic_shift_map,
    extensional_attribute,
    gram,
    intrinsic_part,
    is_task_possible,
    negation_map,
    normalized,
    partial_trace,
    permutation_computation,
    product_attribute,
    quantum_substrate,
    replay_witness,
    sharp_value,
    states_equal,
    task,
    tensor,
    transposition_map,
)
from ctkit.quantum import NON_SHARP, SHARP_NO, SHARP_YES

from conftest import basis_variable, ket, minus, plus, state_variable


def single(sub, state):
    return extensional_attribute(sub, [state])


def clone_task(sub, states, side_effects=True):
    """|s>|0> -> |s>|s> for each source state, on the doubled substrate."""
    pair = compose_substrates(sub, sub)
    blank = basis_state(sub.dim, 0)
    pairs = [
        (
            product_attribute(single(sub, s), single(sub, blank)),
            product_attribute(single(sub, s), single(sub, s)),
        )
        for s in states
    ]
    return task(pair, pairs, side_effects=side_effects), QuantumModel(pair)


def random_ket(dim, rng):
    return normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


# ---------------------------------------------------------------------------
# Gram matrices


def test_gram_entries():
    g = gram([basis_state(2, 0), plus()]).matrix
    assert np.allclose(np.diag(g), 1)
    assert g[0, 1] == pytest.approx(1 / np.sqrt(2))
    assert np.allclose(g, g.conj().T)


def test_gram_empty():
    assert gram([]).matrix.shape == (0, 0)


# ---------------------------------------------------------------------------
# Feasibility oracle


def test_basis_flip_possible(qubit, qubit_model):
    zero, one = basis_state(2, 0), basis_state(2, 1)
    flip = task(qubit, [(single(qubit, zero), single(qubit, one)),
                        (single(qubit, one), single(qubit, zero))])
    verdict = is_task_possible(flip, qubit_model)
    assert verdict.status == POSSIBLE
    assert replay_witness(flip, qubit_model, verdict)


def test_replay_refuses_a_malformed_witness(qubit, qubit_model):
    zero, one = basis_state(2, 0), basis_state(2, 1)
    flip = task(qubit, [(single(qubit, zero), single(qubit, one)),
                        (single(qubit, one), single(qubit, zero))])
    verdict = is_task_possible(flip, qubit_model)
    # not a dict, a choice of the wrong length, an option out of range
    for witness in ("identity", {"choice": (0,)}, {"choice": (0, 1)}):
        assert not replay_witness(flip, qubit_model, replace(verdict, witness=witness))


def test_overlap_must_be_preserved_without_side_effects(qubit, qubit_model):
    # |0>,|+> -> |0>,|1> squeezes the overlap from 1/sqrt2 to 0: no unitary.
    t = task(qubit, [
        (single(qubit, basis_state(2, 0)), single(qubit, basis_state(2, 0))),
        (single(qubit, plus()), single(qubit, basis_state(2, 1))),
    ])
    verdict = is_task_possible(t, qubit_model)
    assert verdict.status == IMPOSSIBLE
    assert "Gram" in verdict.certificate


def test_cloning_basis_possible(qubit):
    t, model = clone_task(qubit, [basis_state(2, 0), basis_state(2, 1)])
    verdict = is_task_possible(t, model)
    assert verdict.status == POSSIBLE
    assert replay_witness(t, model, verdict)


def test_cloning_nonorthogonal_impossible_both_modes(qubit):
    pair = [basis_state(2, 0), plus()]
    for side_effects in (False, True):
        t, model = clone_task(qubit, pair, side_effects=side_effects)
        verdict = is_task_possible(t, model)
        assert verdict.status == IMPOSSIBLE, side_effects
    # with side effects the overlap ratio sqrt(2) is the whole story
    t, model = clone_task(qubit, pair, side_effects=True)
    assert "ratio" in is_task_possible(t, model).certificate


def test_side_effects_can_rescue_overlap_shrinkage(qubit):
    # overlap may grow (1/sqrt2 -> almost 1): the garbage ratio stays below 1
    t = task(
        qubit,
        [
            (single(qubit, basis_state(2, 0)), single(qubit, basis_state(2, 0))),
            (single(qubit, plus()), single(qubit, ket(1, 0.001))),
        ],
        side_effects=True,
    )
    model = QuantumModel(qubit)
    verdict = is_task_possible(t, model)
    assert verdict.status == POSSIBLE
    assert replay_witness(t, model, verdict)


def test_orthogonal_outputs_for_overlapping_inputs_impossible(qubit, qubit_model):
    t = task(
        qubit,
        [
            (single(qubit, basis_state(2, 0)), single(qubit, basis_state(2, 0))),
            (single(qubit, plus()), single(qubit, basis_state(2, 1))),
        ],
        side_effects=True,
    )
    verdict = is_task_possible(t, qubit_model)
    assert verdict.status == IMPOSSIBLE
    assert "orthogonal" in verdict.certificate


def test_free_entries_can_leave_the_verdict_open(qubit, qubit_model):
    # Swap the basis while fixing both diagonal states.  The forced garbage
    # overlaps are M02 = M12 = 1 and M03 = M13 = -1; M01 and M23 stay free.
    # Their zero completion is not PSD, yet M01 = 1, M23 = -1 completes M to
    # a rank-one Gram matrix with G_in = G_out o M, so the task is possible.
    # The specified entries form a 4-cycle, which is not chordal, and the
    # oracle leaves the verdict open rather than guess.
    t = task(
        qubit,
        [
            (single(qubit, basis_state(2, 0)), single(qubit, basis_state(2, 1))),
            (single(qubit, basis_state(2, 1)), single(qubit, basis_state(2, 0))),
            (single(qubit, plus()), single(qubit, plus())),
            (single(qubit, minus()), single(qubit, minus())),
        ],
        side_effects=True,
    )
    verdict = is_task_possible(t, qubit_model)
    assert verdict.status == UNKNOWN
    assert "PSD" in verdict.certificate
    assert not replay_witness(t, qubit_model, verdict)


def test_forced_garbage_gram_that_is_not_psd_is_impossible():
    # Inputs with pairwise overlap 1/2 onto (1,0,0), (1/2, +-sqrt3/2, 0):
    # every garbage overlap is forced, and the forced matrix is not PSD.
    sub = quantum_substrate("q3", 3)
    g = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
    ins = [normalized(row) for row in np.linalg.cholesky(g)]
    outs = [normalized(v) for v in ([1, 0, 0], [0.5, np.sqrt(3) / 2, 0], [0.5, -np.sqrt(3) / 2, 0])]
    t = task(sub, [(single(sub, a), single(sub, b)) for a, b in zip(ins, outs)], side_effects=True)
    model = QuantumModel(sub)
    verdict = is_task_possible(t, model)
    assert verdict.status == IMPOSSIBLE
    assert not replay_witness(t, model, verdict)
    # replay the certificate: M = G_in / G_out entrywise, and v^dag M v < 0
    text = verdict.certificate.split("v = [", 1)[1].split("]", 1)[0]
    v = np.array([complex(z) for z in text.split(", ")])
    m = np.array([[np.vdot(ins[i].vector, ins[j].vector) / np.vdot(outs[i].vector, outs[j].vector)
                   for j in range(3)] for i in range(3)])
    assert np.vdot(v, m @ v).real < -0.5


def test_overlapping_inputs_onto_a_basis_prune_at_the_second_input():
    # 4**8 choices, none keeping the overlaps: the first pair of inputs
    # already fails for every pick, so 4 + 16 nodes decide it
    rng = np.random.default_rng(7)
    sub = quantum_substrate("q4", 4)
    basis = extensional_attribute(sub, [basis_state(4, k) for k in range(4)])
    t = task(sub, [(single(sub, random_ket(4, rng)), basis) for _ in range(8)])
    verdict = is_task_possible(t, QuantumModel(sub))
    assert verdict.status == IMPOSSIBLE
    assert "Gram" in verdict.certificate
    assert 0 < verdict.nodes <= 4 + 16


def test_two_thousand_single_option_inputs():
    # The search keeps its own stack, 2000 deep, and meets no recursion
    # limit; the last input overlaps the others while its output is
    # orthogonal to theirs.
    sub = quantum_substrate("qubit", 2)
    angles = np.linspace(0, np.pi / 2, 2000)[:-1]
    fan = extensional_attribute(sub, [normalized([np.cos(a), np.sin(a)]) for a in angles])
    one = single(sub, basis_state(2, 1))
    t = task(sub, [(fan, single(sub, basis_state(2, 0))), (one, one)], side_effects=True)
    verdict = is_task_possible(t, QuantumModel(sub))
    assert verdict.status == IMPOSSIBLE
    assert verdict.nodes == 2000
    assert verdict.certificate.startswith("inputs 1,1999: outputs are orthogonal")


def test_choice_search_over_wide_outputs(qubit, qubit_model):
    # target attribute offers two states; only one preserves overlaps
    wide = extensional_attribute(qubit, [basis_state(2, 1), plus()])
    t = task(qubit, [
        (single(qubit, basis_state(2, 0)), single(qubit, basis_state(2, 0))),
        (single(qubit, plus()), wide),
    ])
    verdict = is_task_possible(t, qubit_model)
    assert verdict.status == POSSIBLE
    assert verdict.witness["choice"][1] == 1


def test_node_budget_counts_the_options_the_search_visits():
    # five orthonormal inputs onto the same four basis states: 4**5 choices,
    # every one of them refused after 260 visited options
    sub = quantum_substrate("q8", 8)
    outs = extensional_attribute(sub, [basis_state(8, j) for j in range(4)])
    t = task(sub, [(single(sub, basis_state(8, k)), outs) for k in range(5)])
    with pytest.raises(SizeLimitError, match="node budget of 259"):
        is_task_possible(t, QuantumModel(sub, assignment_guard=259))
    verdict = is_task_possible(t, QuantumModel(sub, assignment_guard=260))
    assert verdict.status == IMPOSSIBLE and verdict.nodes == 260


# ---------------------------------------------------------------------------
# Measurers


def test_measurer_copies_basis_weights(qubit):
    x = basis_variable(qubit)
    m = build_measurer(x)
    src = ket(np.sqrt(1 / 3), np.sqrt(2 / 3))
    joint = tensor(src, basis_state(2, 0))
    out = apply_measurer(m, joint)
    expected = normalized([np.sqrt(1 / 3), 0, 0, np.sqrt(2 / 3)], dims=(2, 2))
    assert states_equal(out, expected)


def test_measurer_in_rotated_basis(qubit):
    x = state_variable(qubit, [("+", plus()), ("-", minus())])
    m = build_measurer(x)
    joint = tensor(basis_state(2, 0), basis_state(2, 0))
    out = apply_measurer(m, joint)
    # |0> = (|+> + |->)/sqrt2, so the target ends up correlated half-half
    target = partial_trace(out, keep=1)
    assert np.allclose(target.matrix, np.eye(2) / 2)


def test_complex_basis_state_is_sharp_in_its_own_basis(qubit):
    b0, b1 = ket(1, 1j), ket(1, -1j)
    x = state_variable(qubit, [(0, b0), (1, b1)])
    assert sharp_value(b0, x) == 0
    assert sharp_value(b1, x) == 1
    m = build_measurer(x)
    for label, state in ((0, b0), (1, b1)):
        out = apply_measurer(m, tensor(state, m.receptive_state()))
        assert states_equal(out, tensor(state, m.flag_state(label)))


def test_measurer_requires_orthogonal_spans(qubit):
    skewed = state_variable(qubit, [(0, basis_state(2, 0)), ("p", plus())])
    with pytest.raises(NotMeasurableError):
        build_measurer(skewed)


def test_measurer_requires_receptive_target(qubit):
    m = build_measurer(basis_variable(qubit))
    joint = tensor(basis_state(2, 0), basis_state(2, 1))
    with pytest.raises(ReceptiveStateError):
        apply_measurer(m, joint)


def test_measurer_rejects_cramped_target(qubit):
    with pytest.raises(PreconditionError):
        build_measurer(basis_variable(qubit), target_dim=1)


def test_measurer_rejects_clashing_labeling(qubit):
    with pytest.raises(PreconditionError):
        build_measurer(basis_variable(qubit), labeling={0: 0, 1: 0})


def test_intrinsic_part_of_bell_pair():
    bell = normalized([1, 0, 0, 1], dims=(2, 2))
    rho = intrinsic_part(bell, 0)
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_intrinsic_part_of_product_is_pure(qubit):
    joint = tensor(plus(), basis_state(2, 0))
    rho = intrinsic_part(joint, 0)
    assert states_equal(rho, plus())


# ---------------------------------------------------------------------------
# Comparers


def test_comparer_sharp_yes_on_correlated_state():
    c = build_comparer([0, 1], dim_a=2, dim_b=2)
    bell = normalized([1, 0, 0, 1], dims=(2, 2))
    outcome = c.compare(bell)
    assert outcome.verdict == SHARP_YES
    assert outcome.expectation == pytest.approx(1.0)


def test_comparer_sharp_no_on_anticorrelated_state():
    c = build_comparer([0, 1], dim_a=2, dim_b=2)
    outcome = c.compare(normalized([0, 1, 0, 0], dims=(2, 2)))
    assert outcome.verdict == SHARP_NO
    assert outcome.expectation == pytest.approx(0.0)


def test_comparer_non_sharp_in_between():
    c = build_comparer([0, 1], dim_a=2, dim_b=2)
    outcome = c.compare(normalized([1, 1, 0, 0], dims=(2, 2)))
    assert outcome.verdict == NON_SHARP
    assert outcome.expectation == pytest.approx(0.5)


def test_comparer_needs_orthonormal_bases():
    with pytest.raises(PreconditionError):
        build_comparer([0, 1], basis_a=(basis_state(2, 0), plus()), dim_b=2)


def test_repeated_measurement_agrees(qubit):
    """Measure, measure again, compare the two records: sharp agreement."""
    x = basis_variable(qubit)
    m = build_measurer(x)
    src = ket(0.6, 0.8)
    joint = tensor(tensor(src, basis_state(2, 0)), basis_state(2, 0))
    once = apply_measurer(m, joint, factors=(0, 1))
    twice = apply_measurer(m, once, factors=(0, 2))
    records = partial_trace(twice, keep=(1, 2))
    outcome = comparer_for_measurers(m, m).compare(records)
    assert outcome.verdict == SHARP_YES


# ---------------------------------------------------------------------------
# Permutations and sharpness


def test_permutation_computation_is_the_swap(qubit):
    u = permutation_computation(transposition_map([0, 1], 0, 1), basis_members([0, 1]))
    assert np.allclose(u, np.array([[0, 1], [1, 0]]))


def test_permutation_must_close(qubit):
    with pytest.raises(TransformError):
        permutation_computation({0: 2, 1: 0}, basis_members([0, 1]))


def test_permutation_members_must_be_orthonormal(qubit):
    members = ((0, basis_state(2, 0)), (1, plus()))
    with pytest.raises(PreconditionError):
        permutation_computation({0: 1, 1: 0}, members)


def test_cyclic_and_negation_maps():
    assert cyclic_shift_map([0, 1, 2], 1) == {0: 1, 1: 2, 2: 0}
    assert negation_map([-1, 0, 1]) == {-1: 1, 0: 0, 1: -1}
    with pytest.raises(TransformError):
        negation_map([0, 1])


def test_sharp_value_reads_the_label(qubit):
    x = basis_variable(qubit)
    assert sharp_value(basis_state(2, 0), x) == 0
    assert sharp_value(basis_state(2, 1), x) == 1
    assert sharp_value(plus(), x) is None


# ---------------------------------------------------------------------------
# Properties

seed_st = st.integers(min_value=0, max_value=2**32 - 1)


@given(seed_st, st.integers(min_value=2, max_value=4))
def test_permuting_orthonormal_states_possible(seed, dim):
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", dim)
    model = QuantumModel(sub)
    image = rng.permutation(dim)
    t = task(sub, [
        (single(sub, basis_state(dim, k)), single(sub, basis_state(dim, int(image[k]))))
        for k in range(dim)
    ])
    verdict = is_task_possible(t, model)
    assert verdict.status == POSSIBLE
    assert replay_witness(t, model, verdict)


@given(seed_st)
def test_cloning_two_states_iff_orthogonal(seed):
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", 3)
    a = random_ket(3, rng)
    if seed % 2:
        # Gram-Schmidt a second state into exact orthogonality
        raw = rng.normal(size=3) + 1j * rng.normal(size=3)
        raw -= np.vdot(a.vector, raw) * a.vector
        b = normalized(raw)
    else:
        b = random_ket(3, rng)
    overlap = abs(np.vdot(a.vector, b.vector))
    if abs(overlap - 1) < 1e-6:
        return  # effectively the same state; no task to pose
    t, model = clone_task(sub, [a, b])
    verdict = is_task_possible(t, model)
    if overlap < 1e-9:
        assert verdict.status == POSSIBLE
    else:
        assert verdict.status == IMPOSSIBLE


@given(seed_st)
def test_dropping_pairs_preserves_possibility(seed):
    rng = np.random.default_rng(seed)
    dim = 4
    sub = quantum_substrate("s", dim)
    model = QuantumModel(sub)
    image = rng.permutation(dim)
    pairs = [
        (single(sub, basis_state(dim, k)), single(sub, basis_state(dim, int(image[k]))))
        for k in range(dim)
    ]
    keep = sorted(rng.choice(dim, size=rng.integers(1, dim + 1), replace=False))
    part = task(sub, [pairs[k] for k in keep])
    assert is_task_possible(part, model).status == POSSIBLE


@given(seed_st)
def test_intrinsic_part_is_a_state(seed):
    rng = np.random.default_rng(seed)
    joint = normalized(rng.normal(size=6) + 1j * rng.normal(size=6), dims=(2, 3))
    for factor in (0, 1):
        rho = intrinsic_part(joint, factor)
        assert rho.dim == joint.dims[factor]
        # built trusted from the joint's factor: F F^dag is the matrix, of unit trace
        f = rho.factor
        assert np.allclose(f @ f.conj().T, rho.matrix, rtol=0, atol=1e-12)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12


@given(seed_st)
def test_measurement_record_matches_born_weights(seed):
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", 2)
    src = random_ket(2, rng)
    m = build_measurer(basis_variable(sub))
    out = apply_measurer(m, tensor(src, basis_state(2, 0)))
    record = partial_trace(out, keep=1)
    weights = np.abs(src.vector) ** 2
    assert np.allclose(np.diag(record.matrix).real, weights, atol=1e-9)
