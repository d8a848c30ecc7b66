"""Reference pairwise checks, decided one pair at a time.

The kernel nominates overlapping pairs from one Gram matrix of stacked
vectors (or one label count on the classical side) and re-decides only the
nominees.  Everything here walks every pair in nested-loop order instead,
calling `attributes_disjoint` or taking one span overlap per pair, and
compares states with `states_equal` alone.  These are the loops the kernel
ran before it checked in bulk, so agreement means the same first pair, the
same witness and the same error text.
"""

import numpy as np

from ctkit.errors import DisjointnessError, NotMeasurableError, RepresentationError, StateError
from ctkit.kernel import attributes_disjoint, extensional_attribute
from ctkit.states import states_equal


def first_overlap(attrs):
    """(i, j, witness) of the first overlapping pair in loop order, or None."""
    attrs = list(attrs)
    for i, a in enumerate(attrs):
        for j in range(i + 1, len(attrs)):
            ok, witness = attributes_disjoint(a, attrs[j])
            if not ok:
                return i, j, witness
    return None


def check_variable(substrate, members) -> None:
    """Raise what `Variable(substrate, members)` must raise, if anything."""
    members = tuple(members)
    if not members:
        raise DisjointnessError("a variable needs at least one member")
    labels = [l for l, _ in members]
    if len(set(labels)) != len(labels):
        dupe = next(l for l in labels if labels.count(l) > 1)
        raise DisjointnessError(f"duplicate label {dupe!r} in variable")
    for label, attr in members:
        if attr.substrate.kind != substrate.kind or attr.substrate.size() != substrate.size():
            raise DisjointnessError(f"attribute {label!r} lives on a different substrate")
    for i, (la, a) in enumerate(members):
        for lb, b in members[i + 1:]:
            ok, witness = attributes_disjoint(a, b)
            if not ok:
                raise DisjointnessError(
                    f"attributes {la!r} and {lb!r} overlap (shared state: {witness!r})"
                )


def check_task_inputs(ins) -> None:
    """Raise what a task with these input attributes must raise, if anything."""
    hit = first_overlap(ins)
    if hit is not None:
        raise DisjointnessError(f"task input attributes overlap (shared state: {hit[2]!r})")


def union_states(parts) -> list:
    """The states `attribute_union(parts)` keeps, in order."""
    substrate = parts[0].substrate
    merged = []
    for p in parts:
        if p.is_subspace:
            raise RepresentationError("union of subspace attributes is not supported")
        for s in p.states:
            if substrate.kind == "classical":
                if s not in merged:
                    merged.append(s)
            elif not any(states_equal(s, q) for q in merged):
                merged.append(s)
    return merged


def check_union(parts):
    """The attribute `attribute_union(parts)` must return, or its error."""
    return extensional_attribute(parts[0].substrate, union_states(parts))


def check_subspace(basis, atol: float) -> None:
    """Raise what `subspace_attribute` must raise about the basis, one inner
    product at a time."""
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            ip = abs(np.vdot(u.vector, v.vector))
            if abs(ip - (1.0 if i == j else 0.0)) > atol:
                raise StateError("subspace basis is not orthonormal")


def first_span_overlap(spans, atol: float):
    """(i, j, overlap) of the first pair of spans with an overlap above atol."""
    for i, si in enumerate(spans):
        for j in range(i + 1, len(spans)):
            sj = spans[j]
            if si.size and sj.size:
                overlap = float(np.abs(si.conj() @ sj.T).max())
                if overlap > atol:
                    return i, j, overlap
    return None


def check_measurable(labels, spans, atol: float) -> None:
    """Raise what `build_measurer` must raise about the member spans."""
    hit = first_span_overlap(spans, atol)
    if hit is not None:
        i, j, overlap = hit
        raise NotMeasurableError(
            f"attributes {labels[i]!r} and {labels[j]!r} have "
            f"non-orthogonal spans (overlap {overlap:.6g})"
        )


def first_cross_overlap(x, y):
    """((label of x, label of y), witness) of the first pair of members, one
    from each variable, that share a state, in the nested loop over x's
    members and then y's; None when no pair does."""
    for lx, ax in x.members:
        for ly, ay in y.members:
            disjoint, witness = attributes_disjoint(ax, ay)
            if not disjoint:
                return (lx, ly), witness
    return None
