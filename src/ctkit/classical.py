"""Exact possibility oracle for classical finite-universe models.

A task is treated as a demand on a choice function: every state of every
input attribute must be sent into the matching output attribute.  Without
side effects the chosen map must extend to a permutation of the substrate
joined with a fixed-state ancilla, which for finite universes comes down to
injectivity of the choice: a bipartite matching of input states to output
states, found by augmenting paths (Hall 1935).  When none exists the failed
search names a set of inputs with fewer outputs between them.  With side
effects the ancilla may absorb the input as garbage, so any choice function
at all will do.
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
_DONE = object()  # end of an input's options


@dataclass(frozen=True)
class ClassicalModel:
    """Finite classical substrate; assignment_guard is the matching's node budget."""

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
    """Decide a classical task exactly: by bipartite matching without side effects."""
    demands = _flat_inputs(task)
    outs = [tuple(attr_out.states) for _, attr_out in task.pairs]

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
            nodes=len(demands),
        )

    # Without side effects: an injective choice is a matching of every input.
    owner, stuck, nodes = _match([outs[idx] for _, idx in demands], model.assignment_guard)
    if stuck is None:
        target = {u: t for t, u in owner.items()}
        assignment = {state: target[u] for u, (state, _) in enumerate(demands)}
        return PossibilityVerdict(
            POSSIBLE, witness={"assignment": assignment}, backend=BACKEND, nodes=nodes
        )

    n_in = len(demands)
    distinct_out = len({t for options in outs for t in options})
    if n_in > distinct_out:
        certificate = (
            f"no injective choice function: {n_in} input states compete for "
            f"{distinct_out} distinct output states"
        )
    else:
        inputs, reached = stuck
        certificate = (
            f"no injective choice function: the {len(inputs)} input states "
            f"{[demands[u][0] for u in inputs]!r} reach only the {len(reached)} "
            f"output states {reached!r}"
        )
    return PossibilityVerdict(IMPOSSIBLE, certificate=certificate, backend=BACKEND, nodes=nodes)


def _match(options, budget: int):
    """Match every input u to a distinct output from options[u] (Kuhn's method).

    Inputs are placed in order.  Each placement is an iterative depth-first
    search for an augmenting path: an input tries its options in order, and
    an output already held sends the search on to its holder.  Every input
    is entered at most once per search, so the whole costs O(V*E) edge looks.

    Returns (owner, stuck, nodes): owner maps each matched output to its
    input; stuck is None when every input is placed, and otherwise (inputs,
    outputs) reached by the search that failed.  Each of those outputs is
    held by one of those inputs and the root holds none, so the outputs are
    fewer: a violation of Hall's condition.  nodes counts the edges looked at,
    and SizeLimitError is raised once it passes budget.
    """
    owner: dict = {}
    nodes = 0
    for root in range(len(options)):
        reached = {}  # outputs met by this search, in order, with their holders
        stack = [(root, iter(options[root]))]
        via = []  # via[i]: the output that led from stack[i] to stack[i + 1]
        while stack:
            u, todo = stack[-1]
            t = next(todo, _DONE)
            if t is _DONE:
                stack.pop()
                if via:
                    via.pop()
                continue
            nodes += 1
            if nodes > budget:
                raise SizeLimitError(f"the search exceeds the node budget of {budget}")
            if t in reached:
                continue
            reached[t] = owner.get(t)
            if reached[t] is None:
                # augment: every input on the stack moves to the output after it
                for (v, _), out in zip(stack, via + [t]):
                    owner[out] = v
                break
            stack.append((reached[t], iter(options[reached[t]])))
            via.append(t)
        else:
            return owner, (sorted([root, *reached.values()]), list(reached)), nodes
    return owner, None, nodes


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
