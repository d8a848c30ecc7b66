"""Exact possibility oracle for classical finite-universe models.

A task is treated as a demand on a choice function: every state of every
input attribute must be sent into the matching output attribute.  Without
side effects the chosen map must extend to a permutation of the substrate
joined with a fixed-state ancilla, which for finite universes comes down to
injectivity of the choice.  With side effects the ancilla may absorb the
input as garbage, so any choice function at all will do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RepresentationError, SizeLimitError
from .kernel import (
    CLASSICAL,
    IMPOSSIBLE,
    POSSIBLE,
    PossibilityVerdict,
    SubstrateSpec,
    Task,
)

BACKEND = "classical"


@dataclass(frozen=True)
class ClassicalModel:
    """Finite classical substrate plus the choice-function search guard."""

    substrate: SubstrateSpec
    assignment_guard: int = 10**6

    kind = CLASSICAL

    def possible(self, task: Task) -> PossibilityVerdict:
        return classical_possible(task, self)

    def check_witness(self, task: Task, witness) -> bool:
        return _witness_ok(task, witness)


def _flat_inputs(task: Task):
    """All (input state, output attribute index) demands, in task order."""
    demands = []
    for idx, (attr_in, attr_out) in enumerate(task.pairs):
        if attr_in.is_subspace or attr_out.is_subspace:
            raise RepresentationError("classical oracle needs extensional attributes")
        for state in attr_in.states:
            demands.append((state, idx))
    return demands


def classical_possible(task: Task, model: ClassicalModel) -> PossibilityVerdict:
    """Decide a classical task exactly by choice-function search."""
    demands = _flat_inputs(task)
    outs = [tuple(attr_out.states) for _, attr_out in task.pairs]

    total = 1
    for _, idx in demands:
        total *= len(outs[idx])
        if total > model.assignment_guard:
            raise SizeLimitError(
                f"choice-function space exceeds the guard of {model.assignment_guard}"
            )

    if task.side_effects:
        # Any choice function will do; collisions become ancilla garbage.
        assignment = {state: outs[idx][0] for state, idx in demands}
        garbage, seen = {}, {}
        for state, _ in demands:
            target = assignment[state]
            garbage[state] = seen.get(target, 0)
            seen[target] = seen.get(target, 0) + 1
        ancilla_used = max(seen.values(), default=1)
        return PossibilityVerdict(
            POSSIBLE,
            witness={"assignment": assignment, "garbage": garbage, "ancilla_states": ancilla_used},
            backend=BACKEND,
        )

    # Without side effects: search for an injective choice function.
    # Order the demands by how few output options they have, then backtrack.
    order = sorted(range(len(demands)), key=lambda k: len(outs[demands[k][1]]))
    assignment: dict = {}
    used: set = set()

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            return True
        state, idx = demands[order[pos]]
        for target in outs[idx]:
            if target in used:
                continue
            assignment[state] = target
            used.add(target)
            if backtrack(pos + 1):
                return True
            used.discard(target)
            del assignment[state]
        return False

    if backtrack(0):
        return PossibilityVerdict(
            POSSIBLE, witness={"assignment": dict(assignment)}, backend=BACKEND
        )

    n_in = len(demands)
    distinct_out = len({t for options in outs for t in options})
    if n_in > distinct_out:
        certificate = (
            f"no injective choice function: {n_in} input states compete for "
            f"{distinct_out} distinct output states"
        )
    else:
        certificate = "no injective choice function exists for this task"
    return PossibilityVerdict(IMPOSSIBLE, certificate=certificate, backend=BACKEND)


def _witness_ok(task: Task, witness) -> bool:
    if not isinstance(witness, dict) or "assignment" not in witness:
        return False
    assignment = witness["assignment"]
    demands = _flat_inputs(task)
    outs = [set(attr_out.states) for _, attr_out in task.pairs]
    for state, idx in demands:
        if state not in assignment or assignment[state] not in outs[idx]:
            return False
    if task.side_effects:
        # garbage tags must separate states that share a target
        garbage = witness.get("garbage", {})
        tagged = [(assignment[s], garbage.get(s, 0)) for s, _ in demands]
        return len(set(tagged)) == len(tagged)
    images = [assignment[s] for s, _ in demands]
    return len(set(images)) == len(images)
