"""Exact error class and message at each place that reads one state off an
attribute or checks a list of vectors for pairwise orthogonality, at each
public call given an argument it cannot use, and the classical attribute
check against a composite universe."""

import numpy as np
import pytest

import ctkit.kernel as kernel
from ctkit import (
    CtError,
    DisjointnessError,
    DomainError,
    Game,
    MixedState,
    NotMeasurableError,
    PureState,
    PreconditionError,
    QuantumModel,
    RepresentationError,
    StateError,
    UnsupportedInputError,
    apply_measurer,
    attribute_union,
    basis_state,
    build_comparer,
    build_counting_constructor,
    build_measurer,
    check_equal_value,
    classical_substrate,
    compose_substrates,
    deviant_weight,
    extensional_attribute,
    partial_trace,
    partition_of_unity,
    permutation_computation,
    predictor_feasible,
    product_attribute,
    quantum_substrate,
    restricted_variable,
    sharp_value,
    subspace_attribute,
    tensor,
    transform_game,
    unpredictability_certificate,
    variable,
)
from ctkit.unpredictability import PredictorProblem

from conftest import basis_variable, minus, plus, state_variable

QUBIT = quantum_substrate("qubit", 2)
MODEL = QuantumModel(QUBIT)
ZERO, ONE = basis_state(2, 0), basis_state(2, 1)


def _x():
    return basis_variable(QUBIT)


def _two_states():
    return extensional_attribute(QUBIT, [ZERO, ONE])


def _check_equal_value():
    h = state_variable(QUBIT, [("p", plus()), ("m", minus())])
    check_equal_value(_x(), h, _two_states(), MODEL)


def _transform_game():
    x = _x()
    transform_game(Game(x, _two_states(), QUBIT), "permutation",
                   mapping={0: 1, 1: 0}, target="attribute")


def _predictor_with_mixed_member():
    x = _x()
    z = state_variable(QUBIT, [("m", MixedState(np.eye(2) / 2))])
    predictor_feasible(PredictorProblem(x=x, z=z, measurer=build_measurer(x)), MODEL)


SINGLE = "attribute does not denote a single state"
CASES = {
    "restricted_variable": (
        lambda: restricted_variable(_x(), _two_states()), DomainError, SINGLE),
    "partition_of_unity": (
        lambda: partition_of_unity(_two_states(), _x()), DomainError, SINGLE),
    "check_equal_value": (_check_equal_value, DomainError, SINGLE),
    "transform_game": (
        _transform_game, DomainError, "game attribute does not denote a single state"),
    "certificate_subspace_y": (
        lambda: unpredictability_certificate(
            _x(), subspace_attribute(QUBIT, [ZERO, ONE]), MODEL),
        UnsupportedInputError, "input attribute must denote a single state"),
    "certificate_two_state_y": (
        lambda: unpredictability_certificate(_x(), _two_states(), MODEL),
        UnsupportedInputError, "input attribute must denote a single pure state"),
    "predictor_mixed_member": (
        _predictor_with_mixed_member,
        UnsupportedInputError, "input attribute must denote a single pure state"),
    "measurer_flags": (
        lambda: build_measurer(_x(), flag_states={0: ZERO, 1: plus()}),
        NotMeasurableError, "flag states must be pairwise orthogonal"),
    "comparer_bases": (
        lambda: build_comparer((0, 1), basis_a=(ZERO, plus())),
        PreconditionError, "comparer bases must be orthonormal"),
    "permutation_members": (
        lambda: permutation_computation({0: 1, 1: 0}, ((0, ZERO), (1, plus()))),
        PreconditionError, "permutation members must be orthonormal"),
}


# ---------------------------------------------------------------------------
# Bad arguments to public calls raise CtErrors, not numpy or Python errors

PAIR = tensor(ZERO, ONE)
CASES.update({
    "partial_trace_repeat_pure": (
        lambda: partial_trace(PAIR, (0, 0)), StateError, "keep=(0, 0) names a factor twice"),
    "partial_trace_repeat_mixed": (
        lambda: partial_trace(PAIR.density(), (1, 1)),
        StateError, "keep=(1, 1) names a factor twice"),
    "counting_constructor_zero_replicas": (
        lambda: build_counting_constructor(0, 0, _x()),
        DomainError, "the ensemble must contain at least one replica"),
    "counting_constructor_negative_replicas": (
        lambda: build_counting_constructor(0, -2, _x()),
        DomainError, "the ensemble must contain at least one replica"),
    "deviant_weight_fractional_replicas": (
        lambda: deviant_weight(None, 5.5, 0.1, probabilities=[0.5, 0.5]),
        DomainError, "the number of replicas must be an integer, got 5.5"),
    "deviant_weight_unreadable_epsilon": (
        lambda: deviant_weight(None, 5, "abc", probabilities=[0.5, 0.5]),
        DomainError, "cannot read 'abc' as an exact number"),
    "deviant_weight_nan_amplitude": (
        lambda: deviant_weight((np.nan, 1.0), 5, 0.1),
        DomainError, "amplitudes are not normalized (sum of squares nan)"),
    "deviant_weight_nan_probability": (
        lambda: deviant_weight(None, 5, 0.1, probabilities=[np.nan, 1.0]),
        DomainError, "probabilities must sum to 1"),
    "basis_state_index": (
        lambda: basis_state(2, 5), StateError, "basis index 5 out of range for dimension 2"),
    "measurer_one_factor_joint": (
        lambda: apply_measurer(build_measurer(_x()), ZERO),
        PreconditionError, "joint dims (2,) do not expose a (2,2) pair at factors (0, 1)"),
    "comparer_dimension_below_labels": (
        lambda: build_comparer(["a", "b"], dim_a=1, dim_b=2),
        StateError, "basis index 1 out of range for dimension 1"),
    "union_of_nothing": (
        lambda: attribute_union([]), StateError, "an extensional attribute cannot be empty"),
    "unhashable_classical_label": (
        lambda: extensional_attribute(classical_substrate("c", ["a"]), [["a"]]),
        StateError, "state ['a'] is not in the universe of 'c'"),
    "unhashable_composite_label": (
        lambda: extensional_attribute(_cc(), [("a", ["b"])]),
        StateError, "state ('a', ['b']) is not in the universe of '(c+c)'"),
    "nan_pure_state": (
        lambda: PureState(np.array([np.nan, 1.0])),
        StateError, "vector norm nan is not 1 within tolerance"),
    "nan_mixed_state": (
        lambda: MixedState(np.array([[np.nan, 0], [0, 1.0]])),
        StateError, "density matrix is not hermitian within tolerance"),
    "inf_mixed_state": (
        lambda: MixedState(np.array([[0.5, np.inf], [np.inf, 0.5]])),
        StateError, "density matrix is not hermitian within tolerance"),
    "nan_variable_label": (
        lambda: variable(QUBIT, [(0, extensional_attribute(QUBIT, [ZERO])),
                                 (float("nan"), extensional_attribute(QUBIT, [ONE]))]),
        DisjointnessError, "label nan does not equal itself"),
    "nan_payoff_shift": (
        lambda: transform_game(Game(_x(), _two_states(), QUBIT), "shift", k=float("nan")),
        DisjointnessError, "label nan does not equal itself"),
    "partition_of_unity_state_dimension": (
        lambda: partition_of_unity(basis_state(3, 0), _x()),
        StateError, "state dimension does not match substrate"),
    "sharp_value_state_dimension": (
        lambda: sharp_value(basis_state(3, 0), _x()),
        StateError, "state dimension does not match substrate"),
})


# ---------------------------------------------------------------------------
# The attribute record's own checks, and its two accessors

BIT = classical_substrate("c", ["a", "b"])
CASES.update({
    "empty_extensional_attribute": (
        lambda: extensional_attribute(QUBIT, []),
        StateError, "an extensional attribute cannot be empty"),
    "classical_state_outside_universe": (
        lambda: extensional_attribute(BIT, ["z"]),
        StateError, "state 'z' is not in the universe of 'c'"),
    "duplicate_classical_states": (
        lambda: extensional_attribute(BIT, ["a", "b", "a"]),
        StateError, "duplicate states in attribute"),
    "duplicate_quantum_states_up_to_phase": (
        lambda: extensional_attribute(QUBIT, [ZERO, PureState(-1j * ZERO.vector)]),
        StateError, "duplicate states in attribute (up to phase)"),
    "quantum_entry_not_a_state": (
        lambda: extensional_attribute(QUBIT, [ZERO, "x"]),
        RepresentationError, "quantum attribute states must be PureState or MixedState"),
    "state_dimension_mismatch": (
        lambda: extensional_attribute(QUBIT, [basis_state(3, 0)]),
        StateError, "state dimension does not match substrate"),
    "subspace_on_classical_substrate": (
        lambda: subspace_attribute(BIT, []),
        RepresentationError, "subspace attributes require a quantum substrate"),
    "subspace_basis_dimension_mismatch": (
        lambda: subspace_attribute(QUBIT, [basis_state(3, 0), basis_state(3, 1)]),
        StateError, "subspace basis dimension does not match substrate"),
    "subspace_orthonormality_before_substrate_kind": (
        lambda: subspace_attribute(BIT, [ZERO, plus()]),
        StateError, "subspace basis is not orthonormal"),
    "subspace_attribute_states": (
        lambda: subspace_attribute(QUBIT, [ZERO]).states,
        RepresentationError, "a subspace attribute has no finite state list"),
    "extensional_attribute_basis": (
        lambda: _two_states().basis,
        RepresentationError, "not a subspace attribute"),
    # these three used to escape as AttributeError or numpy's ValueError
    "subspace_basis_entry_not_a_state": (
        lambda: subspace_attribute(QUBIT, [ZERO, "x"]),
        RepresentationError, "subspace basis vectors must be PureState"),
    "subspace_basis_entry_mixed": (
        lambda: subspace_attribute(QUBIT, [MixedState(np.eye(2) / 2)]),
        RepresentationError, "subspace basis vectors must be PureState"),
    "subspace_basis_unequal_lengths": (
        lambda: subspace_attribute(QUBIT, [basis_state(2, 0), basis_state(3, 0)]),
        StateError, "subspace basis dimension does not match substrate"),
})


@pytest.mark.parametrize("site", sorted(CASES))
def test_error_class_and_message_at_each_site(site):
    call, error, message = CASES[site]
    with pytest.raises(CtError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Classical attributes on a composite substrate


def _cc():
    c = classical_substrate("c", ["a", "b"])
    return compose_substrates(c, c)


@pytest.mark.parametrize("state", [("a", "z"), ("a",), "a", ("a", "b", "a")])
def test_a_state_outside_a_composite_universe_is_named(state):
    with pytest.raises(StateError) as info:
        extensional_attribute(_cc(), [state])
    assert str(info.value) == f"state {state!r} is not in the universe of '(c+c)'"


def test_composite_classical_attributes_never_list_the_universe(monkeypatch):
    def refuse(self):
        raise AssertionError("the universe was enumerated")

    monkeypatch.setattr(kernel.SubstrateSpec, "universe", refuse)
    cc = _cc()
    attr = extensional_attribute(cc, [("a", "b"), ("b", "b")])
    assert attr.states == (("a", "b"), ("b", "b"))
    c = cc.factors[0]
    nested = product_attribute(extensional_attribute(cc, [("a", "a")]),
                               extensional_attribute(c, ["b"]))
    assert nested.states == (("a", "a", "b"),)
