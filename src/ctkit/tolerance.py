"""Global numeric tolerances.

A single absolute tolerance governs state equality, orthogonality and
sharpness everywhere in the library.  Partition-of-unity sums are held to a
tighter budget because they only accumulate rounding noise.

The CT_TOL environment variable overrides the default.  It must be a finite
number in (0, MAX_TOL]: a larger tolerance silently changes verdicts (at 0.5
the qubit fixture stops being superinformation), so it is refused instead.
"""

import math
import os

from .errors import ToleranceError

DEFAULT_TOL = 1e-9
MAX_TOL = 1e-3
PARTITION_SUM_TOL = 1e-12


def tol() -> float:
    """Comparison tolerance; the CT_TOL environment variable overrides it."""
    raw = os.environ.get("CT_TOL")
    if not raw:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ToleranceError(f"CT_TOL={raw!r} is not a number") from None
    if not (math.isfinite(value) and 0.0 < value <= MAX_TOL):
        raise ToleranceError(f"CT_TOL={raw!r} must be a finite number in (0, {MAX_TOL:g}]")
    return value
