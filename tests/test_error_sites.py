"""Exact error class and message at each place that reads one state off an
attribute or checks a list of vectors for pairwise orthogonality, and the
classical attribute check against a composite universe."""

import numpy as np
import pytest

import ctkit.kernel as kernel
from ctkit import (
    CtError,
    DomainError,
    Game,
    MixedState,
    NotMeasurableError,
    PreconditionError,
    QuantumModel,
    StateError,
    UnsupportedInputError,
    basis_state,
    build_comparer,
    build_measurer,
    check_equal_value,
    classical_substrate,
    compose_substrates,
    extensional_attribute,
    partition_of_unity,
    permutation_computation,
    predictor_feasible,
    product_attribute,
    quantum_substrate,
    restricted_variable,
    subspace_attribute,
    transform_game,
    unpredictability_certificate,
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
