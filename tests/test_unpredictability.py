"""Predictor feasibility and the unpredictability certificate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctkit import (
    DegenerateInputError,
    DispatchError,
    PreconditionError,
    QuantumModel,
    basis_state,
    build_measurer,
    extensional_attribute,
    is_information_variable,
    normalized,
    predictor_feasible,
    quantum_substrate,
    replay_predictor,
    unpredictability_certificate,
)
from ctkit.quantum import SHARP_YES
from ctkit.unpredictability import PredictorProblem

from conftest import basis_variable, ket, plus, state_variable


def problem_for(x, z_pairs):
    z = state_variable(x.substrate, z_pairs)
    return PredictorProblem(x=x, z=z, measurer=build_measurer(x))


def test_sharp_inputs_have_a_predictor(qubit, qubit_model):
    x = basis_variable(qubit)
    prob = problem_for(x, [(0, basis_state(2, 0)), (1, basis_state(2, 1))])
    verdict = predictor_feasible(prob, qubit_model)
    assert verdict.exists
    assert verdict.predictions == {0: 0, 1: 1}
    for outcome in verdict.certificate["replay"].values():
        assert outcome.verdict == SHARP_YES


def test_replay_confirms_predictions(qubit, qubit_model):
    x = basis_variable(qubit)
    prob = problem_for(x, [("a", basis_state(2, 1))])
    outcomes = replay_predictor(prob, {"a": 1})
    assert outcomes["a"].verdict == SHARP_YES
    wrong = replay_predictor(prob, {"a": 0})
    assert wrong["a"].verdict != SHARP_YES


def test_orthogonality_branch_blocks_full_register(qubit, qubit_model):
    # both flags forced, so nothing orthogonal is left for the mixture
    x = basis_variable(qubit)
    prob = problem_for(
        x, [(0, basis_state(2, 0)), (1, basis_state(2, 1)), ("p", plus())]
    )
    verdict = predictor_feasible(prob, qubit_model)
    assert not verdict.exists
    cert = verdict.certificate
    assert cert["branch"] == "orthogonality"
    assert cert["member"] == "p"
    assert cert["forced_flags"] == [0, 1]


def test_cross_terms_branch_blocks_lone_mixture(qubit, qubit_model):
    x = basis_variable(qubit)
    prob = problem_for(x, [("p", plus())])
    verdict = predictor_feasible(prob, qubit_model)
    assert not verdict.exists
    cert = verdict.certificate
    assert cert["branch"] == "cross-terms"
    assert set(cert["support"]) == {0, 1}


def test_predictor_needs_quantum_backend(bit_model, qubit):
    x = basis_variable(qubit)
    prob = problem_for(x, [(0, basis_state(2, 0))])
    with pytest.raises(DispatchError):
        predictor_feasible(prob, bit_model)


def test_predicted_variable_must_be_observable(qubit, qubit_model):
    open_member = extensional_attribute(qubit, [basis_state(2, 0), basis_state(2, 1)])
    from ctkit import variable

    x = variable(qubit, [("u", open_member)])
    prob = PredictorProblem(
        x=basis_variable(qubit),
        z=state_variable(qubit, [(0, basis_state(2, 0))]),
        measurer=build_measurer(basis_variable(qubit)),
    )
    bad = PredictorProblem(x=x, z=prob.z, measurer=prob.measurer)
    with pytest.raises(PreconditionError):
        predictor_feasible(bad, qubit_model)


# ---------------------------------------------------------------------------
# Certificates


def test_qubit_superposition_certificate(qubit, qubit_model):
    x = basis_variable(qubit)
    y = extensional_attribute(qubit, [plus()])
    cert = unpredictability_certificate(x, y, qubit_model)
    assert cert.unpredictable
    assert cert.agree
    assert not cert.cloning_possible
    assert set(cert.z.labels) == {0, 1, ("mixture", "y")}


def test_qutrit_partial_superposition_certificate(qutrit, qutrit_model):
    x = basis_variable(qutrit)
    y = extensional_attribute(qutrit, [normalized([1, 0, 1])])
    cert = unpredictability_certificate(x, y, qutrit_model)
    assert cert.unpredictable
    # the restriction only picks up the two supported members
    assert set(cert.z.labels) == {0, 2, ("mixture", "y")}


def test_sharp_y_is_rejected(qubit, qubit_model):
    x = basis_variable(qubit)
    y = extensional_attribute(qubit, [basis_state(2, 0)])
    with pytest.raises(DegenerateInputError):
        unpredictability_certificate(x, y, qubit_model)


# ---------------------------------------------------------------------------
# Properties

seed_st = st.integers(min_value=0, max_value=2**32 - 1)


def random_unsharp_ket(dim, rng):
    while True:
        s = normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        if all(abs(a) ** 2 < 1 - 1e-6 for a in s.vector):
            return s


@given(seed_st, st.integers(min_value=2, max_value=3))
def test_certificate_always_agrees(seed, dim):
    """Cloning impossibility and predictor impossibility land together."""
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", dim)
    model = QuantumModel(sub)
    x = basis_variable(sub)
    y = extensional_attribute(sub, [random_unsharp_ket(dim, rng)])
    cert = unpredictability_certificate(x, y, model)
    assert cert.agree
    assert cert.unpredictable


@given(seed_st)
def test_exists_verdicts_replay_sharp(seed):
    """Whenever a predictor exists its replay is sharp on every input."""
    rng = np.random.default_rng(seed)
    dim = 3
    sub = quantum_substrate("s", dim)
    model = QuantumModel(sub)
    x = basis_variable(sub)
    picks = rng.choice(dim, size=rng.integers(1, dim + 1), replace=False)
    prob = problem_for(x, [(int(k), basis_state(dim, int(k))) for k in picks])
    verdict = predictor_feasible(prob, model)
    assert verdict.exists
    for outcome in verdict.certificate["replay"].values():
        assert outcome.verdict == SHARP_YES


@given(seed_st)
def test_predictor_matches_information_status_of_z(seed):
    """Predictor exists iff Z stayed inside the information variable."""
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", 2)
    model = QuantumModel(sub)
    x = basis_variable(sub)
    if seed % 2:
        pairs = [(0, basis_state(2, 0)), (1, basis_state(2, 1))]
    else:
        theta = rng.uniform(0.2, np.pi / 2 - 0.2)
        pairs = [("m", ket(np.cos(theta), np.sin(theta)))]
    prob = problem_for(x, pairs)
    verdict = predictor_feasible(prob, model)
    z_info = is_information_variable(prob.z, model)
    sharp_everywhere = all(label in (0, 1) for label, _ in prob.z.members)
    assert verdict.exists == sharp_everywhere
    if verdict.exists:
        assert z_info.verdict


def test_certificate_clones_onto_the_blank_then_each_member(qutrit, qutrit_model):
    from ctkit import blank_attribute, cloning_task, is_task_possible

    x = basis_variable(qutrit)
    y = extensional_attribute(qutrit, [normalized([1, 1, 1])])
    cert = unpredictability_certificate(x, y, qutrit_model)
    assert list(cert.cloning) == ["blank", *cert.z.labels]
    receptives = [blank_attribute(qutrit), *cert.z.attributes]
    for verdict, receptive in zip(cert.cloning.values(), receptives):
        assert verdict.status == is_task_possible(cloning_task(cert.z, receptive),
                                                  qutrit_model).status
