"""Reference weights, read through d x d projectors.

The library reads each weight Tr(rho P_a) off stacked span rows
(`kernel._member_weights`) and never forms P_a.  Everything here builds
the projector with `attribute_projector` and takes
`expectation(state, P_a)` one member at a time: the route
`partition_of_unity`, `sharp_value` and `restricted_variable` took before,
so agreement means the same weights, labels, members and errors.
"""

from ctkit.errors import DomainError
from ctkit.kernel import attribute_projector
from ctkit.states import expectation
from ctkit.tolerance import tol


def weight(state, attr) -> float:
    """Tr(rho P) for the attribute's span projector P."""
    return expectation(state, attribute_projector(attr))


def partition_items(state, x) -> tuple:
    """The (label, weight) items `partition_of_unity(state, x)` must hold."""
    raw = [(label, max(0.0, weight(state, attr))) for label, attr in x.members]
    total = sum(v for _, v in raw)
    if abs(total - 1.0) > tol():
        raise DomainError(f"state lies outside the span of the variable (coverage {total:.9f})")
    return tuple((label, v / total) for label, v in raw)


def sharp_value(state, x, atol=None):
    """The first label, in member order, whose attribute holds the state."""
    atol = tol() if atol is None else atol
    for label, attr in x.members:
        if weight(state, attr) >= 1.0 - atol:
            return label
    return None


def restricted_members(state, x) -> tuple:
    """The members `restricted_variable` keeps for an attribute holding state."""
    members = tuple((label, attr) for label, attr in x.members if weight(state, attr) > tol())
    if not members:
        raise DomainError("restriction is empty: y has no overlap with any member")
    return members
