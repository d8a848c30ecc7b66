"""Exception hierarchy for the workbench.

Every error raised by the library derives from CtError so callers can catch
one base class at an API boundary (the CLI does exactly that).
"""


class CtError(Exception):
    """Base class for all workbench errors."""


class StateError(CtError):
    """A state object violates its invariants (norm, hermiticity, trace)."""


class InvalidCompositionError(CtError):
    """Substrates or tasks combined across incompatible kinds or shapes."""


class DisjointnessError(CtError):
    """Two attributes that must be disjoint share a state."""


class RepresentationError(CtError):
    """An operation received a kind of attribute it cannot handle."""


class LabelArithmeticError(CtError):
    """Variable labels do not support the requested arithmetic."""


class DispatchError(CtError):
    """Task and model kinds do not match."""


class SizeLimitError(CtError):
    """An enumeration guard or dimension guard was exceeded."""


class NotMeasurableError(CtError):
    """Measurer construction failed because attribute spans overlap."""


class ReceptiveStateError(CtError):
    """A measurer was applied to a joint state whose target is not receptive."""


class PreconditionError(CtError):
    """A documented operation precondition does not hold."""


class DegenerateInputError(CtError):
    """The input is sharp where a genuinely unsharp input is required."""


class UnsupportedInputError(CtError):
    """The input is outside the class this operation handles."""


class DomainError(CtError):
    """A state lies outside the domain where the quantity is defined."""


class TransformError(CtError):
    """A label transform is not closed on the label set it must act on."""


class IllegitimateAttributeError(CtError):
    """A game attribute admits no partition of unity over the observable."""


class MeasurerConformanceError(CtError):
    """An implementation handed to the consistency check is structurally
    not a measurer of the coarse variable it claims to measure."""


class ModelSpecError(CtError):
    """A model description file is malformed or violates an invariant."""


class ToleranceError(CtError):
    """The CT_TOL override is not a finite number in (0, MAX_TOL]."""
