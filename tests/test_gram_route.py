"""The information predicates' Gram route against the task route.

On a `QuantumModel`, a variable whose members list only pure states has its
cloning tasks and star transpositions decided from the Gram matrix G of its
member states (`predicates._member_gram`): no composite substrate, product
attribute, tensor state or task is built, and the Gram data goes straight to
the oracle's Gram-level core, `quantum._gram_feasible`, which the task route
(`unitary_task_feasible`) also ends in.  Over random pure-state variables
(lone and multi-state members, unit and off-unit states, orthogonal or not)
the two routes must give the same status, certificate text, node count and
witness choice, with garbage Gram matrices within 1e-12; every `possible`
verdict must replay on its own task; small cases must agree with the
enumerating `tests/possibility_oracle.py`.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctkit.kernel as kernel
import ctkit.predicates as predicates
from ctkit import (
    CtError,
    PureState,
    QuantumModel,
    cloning_task,
    extensional_attribute,
    is_computation_variable,
    is_information_variable,
    normalized,
    permutation_task,
    quantum_substrate,
    replay_witness,
    variable,
)
from ctkit.errors import DisjointnessError, StateError
from ctkit.predicates import _cloning_verdicts, _superinformation_pair
from ctkit.tolerance import tol

import possibility_oracle
import sweep_oracle
from conftest import basis_variable, random_unitary

seed_st = st.integers(min_value=0, max_value=2**32 - 1)
BUDGET = 20_000  # node budget: members of three states can make searches of 9**18 choices
ROUTES = settings(max_examples=150, deadline=None)
KINDS = ("orthonormal", "random", "near-duplicate", "off-unit", "mixed-sizes")


def pure_variable(seed: int, kind: str, dim: int, n: int):
    """A variable of up to n pure-state members on a dim-dimensional
    substrate, members listing one to three states; None when two states
    land within tolerance of each other."""
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("q", dim)

    def vector():
        return rng.normal(size=dim) + 1j * rng.normal(size=dim)

    def sizes():
        return rng.integers(1, 3 if kind != "mixed-sizes" else 4, size=n)

    if kind == "orthonormal":
        states = [PureState(np.exp(2j * np.pi * rng.random()) * c)
                  for c in random_unitary(rng, dim).T]
    elif kind == "near-duplicate":
        base = vector()
        states = [normalized(base + 10 ** rng.uniform(-4.3, -1) * vector())
                  for _ in range(3 * n)]
    else:
        states = [normalized(vector()) for _ in range(3 * n)]
    if kind in ("off-unit", "mixed-sizes"):
        # a norm of 1 +- 0.9 tol is a valid state, but not unit up to rounding
        states = [PureState(s.vector * (1 + rng.choice([-0.9, 0.9]) * tol()))
                  if rng.random() < 0.5 else s for s in states]
    members, start = [], 0
    for size in sizes():
        if start >= len(states):
            break
        members.append(states[start:start + size])
        start += size
    try:
        v = variable(sub, [(k, extensional_attribute(sub, group))
                           for k, group in enumerate(members)])
    except (DisjointnessError, StateError):
        return None
    return v, QuantumModel(sub, assignment_guard=BUDGET)


def outcome(call):
    """call()'s value, or the class and message of the CtError it raised."""
    try:
        return call()
    except CtError as err:
        return type(err), str(err)


def assert_same_verdict(gram_route, task_route):
    assert gram_route.status == task_route.status
    assert gram_route.certificate == task_route.certificate
    assert gram_route.nodes == task_route.nodes
    assert gram_route.backend == task_route.backend
    if task_route.possible:
        assert gram_route.witness["choice"] == task_route.witness["choice"]
        assert np.allclose(gram_route.witness["garbage_gram"], task_route.witness["garbage_gram"],
                           rtol=0, atol=1e-12)


def task_route():
    """Every information predicate on the task route."""
    return mock.patch.object(predicates, "_member_gram", return_value=None)


@ROUTES
@given(seed_st, st.sampled_from(KINDS), st.integers(2, 4), st.integers(2, 4))
def test_the_gram_route_decides_as_the_task_route(seed, kind, dim, n):
    built = pure_variable(seed, kind, dim, n)
    if built is None:
        return
    v, model = built
    assert predicates._member_gram(v, model) is not None
    cloning = outcome(lambda: list(_cloning_verdicts(v, model)))
    transpositions = outcome(lambda: is_computation_variable(v, model).evidence["transpositions"])
    with task_route():
        by_tasks = outcome(lambda: list(_cloning_verdicts(v, model)))
        by_task_transpositions = outcome(
            lambda: is_computation_variable(v, model).evidence["transpositions"])
    if isinstance(cloning, tuple) or isinstance(by_tasks, tuple):  # a search over budget
        assert cloning == by_tasks
        cloning = by_tasks = []
    if isinstance(transpositions, tuple) or isinstance(by_task_transpositions, tuple):
        assert transpositions == by_task_transpositions
        transpositions = by_task_transpositions = {}
    assert [name for name, _ in cloning] == [name for name, _ in by_tasks]
    for (_, mine), (_, theirs) in zip(cloning, by_tasks):
        assert_same_verdict(mine, theirs)
    assert list(transpositions) == list(by_task_transpositions)
    for pair, verdict in transpositions.items():
        assert_same_verdict(verdict, by_task_transpositions[pair])
    # each verdict replays on the task it stands for
    for (_, verdict), (_, receptive) in zip(cloning, sweep_oracle.receptives(v)):
        if verdict.possible:
            assert replay_witness(cloning_task(v, receptive), model, verdict)
    for (a, b), verdict in transpositions.items():
        if verdict.possible:
            assert replay_witness(permutation_task(v, {a: b, b: a}), model, verdict)


def choice_space(task) -> int:
    return int(np.prod([len(out.states) ** len(inp.states) for inp, out in task.pairs]))


@settings(max_examples=60, deadline=None)
@given(seed_st, st.sampled_from(KINDS), st.integers(2, 3), st.integers(2, 3))
def test_small_gram_route_verdicts_match_the_enumerating_oracle(seed, kind, dim, n):
    """Tasks of at most 4096 full choices, enumerated one by one."""
    built = pure_variable(seed, kind, dim, n)
    if built is None:
        return
    v, model = built
    cloning = outcome(lambda: list(_cloning_verdicts(v, model)))
    transpositions = outcome(lambda: is_computation_variable(v, model).evidence["transpositions"])
    cases = [] if isinstance(cloning, tuple) else [
        (verdict, cloning_task(v, receptive))
        for (_, verdict), (_, receptive) in zip(cloning, sweep_oracle.receptives(v))]
    cases += [] if isinstance(transpositions, tuple) else [
        (verdict, permutation_task(v, {a: b, b: a})) for (a, b), verdict in transpositions.items()]
    for verdict, task in cases:
        if choice_space(task) <= 4096:
            status, choice = possibility_oracle.quantum_possible(task, tol())
            assert verdict.status == status
            if choice is not None:
                assert verdict.witness["choice"] == choice


@pytest.mark.parametrize("make", [
    lambda sub: basis_variable(sub),
    lambda sub: variable(sub, [(k, extensional_attribute(sub, [PureState(c)]))
                               for k, c in enumerate(random_unitary(np.random.default_rng(4), 4).T)]),
])
def test_an_information_check_on_lone_states_builds_no_composite_objects(make):
    """Neither a product attribute, nor a tensor state, nor a task."""
    sub = quantum_substrate("q", 4)
    v = make(sub)
    with mock.patch.object(kernel, "_product_attribute") as products, \
            mock.patch.object(kernel, "tensor") as tensors, \
            mock.patch.object(predicates, "_product_attribute") as predicate_products, \
            mock.patch.object(predicates, "tensor") as predicate_tensors, \
            mock.patch.object(predicates, "task") as tasks, \
            mock.patch.object(predicates, "_trusted") as trusted, \
            mock.patch.object(predicates, "is_task_possible") as oracle:
        report = is_information_variable(v, QuantumModel(sub))
    assert report.verdict
    for built in (products, tensors, predicate_products, predicate_tensors, tasks, trusted, oracle):
        assert built.call_count == 0


def test_the_member_gram_keeps_off_unit_norms_and_refuses_other_routes(qubit):
    short = PureState(np.array([1.0, 1.0]) / np.sqrt(2) * (1 - 0.9 * tol()))
    v = variable(qubit, [(0, extensional_attribute(qubit, [PureState(np.array([1.0, 0.0]))])),
                         (1, extensional_attribute(qubit, [short]))])
    g, owner = predicates._member_gram(v, QuantumModel(qubit))
    assert owner.tolist() == [0, 1]
    assert g[1, 1] == pytest.approx(np.vdot(short.vector, short.vector), rel=0, abs=1e-16)
    assert g[1, 1] != 1.0
    from ctkit import ClassicalModel, MixedState, classical_substrate, subspace_attribute
    mixed = variable(qubit, [(0, extensional_attribute(qubit, [MixedState(np.eye(2) / 2)]))])
    plane = variable(qubit, [(0, subspace_attribute(qubit, [PureState(np.array([1.0, 0.0]))]))])
    bit = classical_substrate("bit", "01")
    for other, model in ((mixed, QuantumModel(qubit)), (plane, QuantumModel(qubit)),
                         (v, ClassicalModel(bit))):
        assert predicates._member_gram(other, model) is None


@pytest.mark.parametrize("d", [2, 3, 4])
def test_the_union_cloning_decision_matches_its_task(d):
    """The one cloning decision of an unclonable basis/Fourier union, on both routes."""
    sub = quantum_substrate("q", d)
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    x = basis_variable(sub)
    y = variable(sub, [(("f", k), extensional_attribute(sub, [PureState(col)]))
                       for k, col in enumerate(fourier.T)])
    model = QuantumModel(sub)
    verdict, evidence = _superinformation_pair(x, y, model)
    with task_route():
        by_tasks = _superinformation_pair(x, y, model)
    assert verdict == by_tasks[0]
    mine = evidence["union_information"].evidence["cloning"]
    theirs = by_tasks[1]["union_information"].evidence["cloning"]
    assert list(mine) == list(theirs)
    for name in mine:
        assert_same_verdict(mine[name], theirs[name])
