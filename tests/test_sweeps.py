"""Information-variable sweeps against the exhaustive reference, and their work.

`is_computation_variable` asks the oracle about the n-1 star
transpositions (l0 lk) only, and `_cloning_verdicts` lets a quantum member
that lists one unit pure state take the blank's verdict.  `sweep_oracle`
asks about every transposition and decides every receptive's own cloning
task.  Over quantum variables (orthonormal, random, near-duplicate,
multi-state, off-unit and mixed members) and classical variables the
verdicts, the cloning statuses and any raised error must agree, and every
shared `possible` verdict must replay on the member's own cloning task.
The decisions each sweep makes are pinned: on a `QuantumModel` with
pure-state members, calls to the Gram-level core `quantum._gram_feasible`
(the Gram route builds no task), elsewhere the tasks handed to the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctkit.predicates as predicates
from ctkit import (
    ClassicalModel,
    CtError,
    DisjointnessError,
    MixedState,
    PureState,
    QuantumModel,
    classical_substrate,
    cloning_task,
    extensional_attribute,
    is_computation_variable,
    is_information_variable,
    normalized,
    quantum_substrate,
    replay_witness,
    variable,
)
from ctkit.predicates import _cloning_verdicts, _superinformation_pair
from ctkit.tolerance import tol

import sweep_oracle as oracle
from conftest import basis_variable, plus, random_unitary, state_variable

seed_st = st.integers(min_value=0, max_value=2**32 - 1)
SWEEPS = settings(max_examples=80, deadline=None)
QUANTUM_KINDS = ("orthonormal", "random", "near-duplicate", "multi-state", "off-unit", "mixed")


def _quantum_variable(seed: int, kind: str, dim: int, n: int):
    """A variable of n members on a dim-dimensional substrate, or None when
    two near-duplicates land within tolerance of each other."""
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("q", dim)

    def vector():
        return rng.normal(size=dim) + 1j * rng.normal(size=dim)

    def off_unit(vec):
        # a norm of 1 +- 0.9 tol is a valid state, but not unit up to rounding
        return PureState(vec / np.linalg.norm(vec) * (1 + rng.choice([-0.9, 0.9]) * tol()))

    if kind == "orthonormal":
        # columns of a random unitary with random phases, one or two per member
        cols = [PureState(np.exp(2j * np.pi * rng.random()) * c)
                for c in random_unitary(rng, dim).T]
        sizes = rng.integers(1, 3, size=dim)
        members, start = [], 0
        for size in sizes:
            if start >= len(cols) or len(members) == n:
                break
            members.append(cols[start:start + size])
            start += size
    elif kind == "random":
        members = [[normalized(vector())] for _ in range(n)]
    elif kind == "near-duplicate":
        base = vector()
        members = [[normalized(base + 10 ** rng.uniform(-4.3, -1) * vector())] for _ in range(n)]
    elif kind == "multi-state":
        members = [[normalized(vector()) for _ in range(rng.integers(1, 3))] for _ in range(n)]
    elif kind == "off-unit":
        members = [[off_unit(vector()) if rng.random() < 0.5 else normalized(vector())]
                   for _ in range(n)]
    else:  # mixed: one member is a density matrix
        members = [[normalized(vector())] for _ in range(n - 1)]
        a = vector()[:, None] * rng.normal(size=(1, dim))
        rho = a @ a.conj().T + np.eye(dim)
        members.insert(rng.integers(0, n), [MixedState(rho / np.trace(rho))])
    try:
        v = variable(sub, [(k, extensional_attribute(sub, states))
                           for k, states in enumerate(members)])
    except DisjointnessError:
        return None
    return v, QuantumModel(sub)


def _classical_variable(seed: int, size: int, n: int):
    """n disjoint non-empty attributes over part of a size-label universe."""
    rng = np.random.default_rng(seed)
    sub = classical_substrate("c", range(size))
    labels = rng.permutation(size)[:rng.integers(n, size + 1)].tolist()
    cuts = sorted(rng.choice(np.arange(1, len(labels)), size=n - 1, replace=False).tolist())
    parts = np.split(np.array(labels), cuts)
    v = variable(sub, [(k, extensional_attribute(sub, part.tolist()))
                       for k, part in enumerate(parts)])
    return v, ClassicalModel(sub)


def _outcome(call):
    """call()'s value, or the class and message of the CtError it raised."""
    try:
        return call()
    except CtError as err:
        return type(err), str(err)


def _statuses(verdicts) -> list:
    return [(name, verdict.status) for name, verdict in verdicts]


def _agrees_with_the_reference(v, model):
    assert _outcome(lambda: is_computation_variable(v, model).verdict) == \
        _outcome(lambda: oracle.is_computation_variable(v, model))
    assert _outcome(lambda: is_information_variable(v, model).verdict) == \
        _outcome(lambda: oracle.is_information_variable(v, model))
    # every status equals is_task_possible(cloning_task(v, r)) on its own task
    mine = _outcome(lambda: list(_cloning_verdicts(v, model)))
    reference = _outcome(lambda: list(oracle.cloning_verdicts(v, model)))
    if isinstance(mine, tuple) or isinstance(reference, tuple):
        assert mine == reference
        return
    assert _statuses(mine) == _statuses(reference)
    (_, first), *rest = mine
    for (name, verdict), (_, receptive) in zip(rest, oracle.receptives(v)[1:]):
        if verdict is first and verdict.possible:
            assert replay_witness(cloning_task(v, receptive), model, verdict)


@SWEEPS
@given(seed_st, st.sampled_from(QUANTUM_KINDS), st.integers(2, 4), st.integers(2, 4))
def test_quantum_sweeps_match_the_exhaustive_reference(seed, kind, dim, n):
    built = _quantum_variable(seed, kind, dim, n)
    if built is not None:
        _agrees_with_the_reference(*built)


@SWEEPS
@given(seed_st, st.integers(2, 6), st.integers(1, 4))
def test_classical_sweeps_match_the_exhaustive_reference(seed, size, n):
    _agrees_with_the_reference(*_classical_variable(seed, size, min(n, size)))


def test_lone_unit_members_share_the_blank_verdict_and_others_keep_their_own():
    v, model = _quantum_variable(11, "multi-state", 3, 4)
    kinds = [predicates._unit_pure(a) for a in v.attributes]
    assert kinds == [True, True, False, True]
    verdicts = list(_cloning_verdicts(v, model))
    first = verdicts[0][1]
    assert [verdict is first for _, verdict in verdicts[1:]] == kinds


def test_a_multi_state_cloning_sweep_is_decided_at_the_default_budget():
    # the first member's cloning task has a choice space of over 10**6; its
    # search visits 548 nodes
    v, model = _quantum_variable(5, "multi-state", 3, 4)
    report = is_information_variable(v, model)
    assert report.verdict is False
    cloning = report.evidence["cloning"]
    assert [verdict.nodes for verdict in cloning.values()] == [68, 548, 132, 68, 852]
    assert not any(verdict.possible for verdict in cloning.values())


# ---------------------------------------------------------------------------
# Work: oracle calls per sweep


@pytest.fixture
def oracle_calls(monkeypatch):
    """The tasks predicates hands to the oracle, in order."""
    calls = []
    decide = predicates.is_task_possible

    def counted(task, model):
        calls.append(task)
        return decide(task, model)

    monkeypatch.setattr(predicates, "is_task_possible", counted)
    return calls


@pytest.fixture
def core_calls(monkeypatch):
    """The Gram-level decisions predicates hands to `quantum._gram_feasible`,
    in order, as (input Gram matrix, candidate Gram matrix, options)."""
    calls = []
    decide = predicates._gram_feasible

    def counted(g_in, g_cand, options, side_effects, model):
        calls.append((g_in, g_cand, options))
        return decide(g_in, g_cand, options, side_effects, model)

    monkeypatch.setattr(predicates, "_gram_feasible", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64])
def test_a_computation_check_asks_about_n_minus_1_star_transpositions(n, core_calls, oracle_calls):
    v = basis_variable(quantum_substrate("q", n))
    report = is_computation_variable(v, QuantumModel(v.substrate))
    assert report.verdict
    assert len(core_calls) == n - 1
    assert not oracle_calls
    assert list(report.evidence["transpositions"]) == [(0, k) for k in range(1, n)]


def test_a_classical_computation_check_asks_about_n_minus_1_star_transpositions(oracle_calls):
    v, model = _classical_variable(3, 6, 4)
    report = is_computation_variable(v, model)
    assert report.verdict == oracle.is_computation_variable(v, model)
    assert len(oracle_calls) == 3


@pytest.mark.parametrize("d", [2, 3, 4])
def test_an_unclonable_union_of_lone_state_observables_makes_one_cloning_call(d, core_calls,
                                                                              oracle_calls):
    sub = quantum_substrate("q", d)
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    x = basis_variable(sub)
    y = state_variable(sub, [(("f", k), PureState(col)) for k, col in enumerate(fourier.T)])
    verdict, evidence = _superinformation_pair(x, y, QuantumModel(sub))
    assert verdict
    assert len(core_calls) == 1
    assert not oracle_calls
    cloning = evidence["union_information"].evidence["cloning"]
    assert len(cloning) == 2 * d + 1
    assert len({id(v) for v in cloning.values()}) == 1
    assert not cloning["blank"].possible


def test_an_off_unit_member_keeps_its_own_cloning_call(qubit, core_calls):
    # |0> and |+> cannot be cloned; |0> takes the blank's verdict, the
    # slightly short |+> is decided on its own inputs, whose Gram matrix
    # G <+|+> carries its norm: the (|+>|+>, |+>|+>) entry is |+|^4
    short = PureState(plus().vector * (1 - 0.9 * tol()))
    v = state_variable(qubit, [(0, PureState(np.array([1.0, 0.0]))), (1, short)])
    report = is_information_variable(v, QuantumModel(qubit))
    assert not report.verdict
    assert len(core_calls) == 2
    g_in = core_calls[1][0]
    norm2 = np.vdot(short.vector, short.vector)
    assert g_in[1, 1] == pytest.approx(norm2 ** 2, rel=0, abs=1e-15)
    assert abs(g_in[1, 1] - 1) > tol()
