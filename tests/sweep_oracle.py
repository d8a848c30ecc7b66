"""Reference information-variable sweeps: one oracle call per question.

`ctkit.predicates` decides a computation variable from its n-1 star
transpositions, and lets a quantum member that lists one unit pure state
take the blank's cloning verdict.  The sweeps here ask the oracle about
every transposition, and build and decide every receptive's own cloning
task, so the equivalence tests in `tests/test_sweeps.py` can hold the
shortcuts to the exhaustive answers.
"""

import itertools

from ctkit import (
    POSSIBLE,
    blank_attribute,
    cloning_task,
    is_task_possible,
    permutation_task,
)


def transposition_verdicts(v, model) -> dict:
    """The verdict of every transposition (a b) of v's labels, a before b."""
    return {(a, b): is_task_possible(permutation_task(v, {a: b, b: a}), model)
            for a, b in itertools.combinations(v.labels, 2)}


def is_computation_variable(v, model) -> bool:
    """Whether every transposition of v is a possible task."""
    return all(verdict.status == POSSIBLE for verdict in transposition_verdicts(v, model).values())


def receptives(v) -> list:
    """(name, attribute) of the blank, then of each member in label order."""
    return [("blank", blank_attribute(v.substrate)), *v.members]


def cloning_verdicts(v, model):
    """(name, verdict) per receptive, each from its own cloning task."""
    for name, receptive in receptives(v):
        yield name, is_task_possible(cloning_task(v, receptive), model)


def is_information_variable(v, model) -> bool:
    """Clonable onto some receptive, tried in order, and a computation variable."""
    clonable = any(verdict.status == POSSIBLE for _, verdict in cloning_verdicts(v, model))
    return clonable and is_computation_variable(v, model)
