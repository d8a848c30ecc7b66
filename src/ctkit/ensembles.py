"""Ensemble frequencies, exact deviant weights, and partitions of unity.

The convergence computations run in exact arithmetic whenever the squared
amplitudes are rational and the lcm L of their denominators stays within
EXACT_DENOMINATOR_BOUND (`exact_probabilities` makes that one decision for
the CLI, the amplitude route and verify_E1_E2); only then do statements like
"weight 352/1024 exactly" make sense.  An exact row is an integer numerator
over the natural denominator L**N, computed in integers throughout.  Double
precision is the fallback and is flagged on the row that used it; it sums
weights in log space (lgamma), so it has no ceiling on N and never
overflows.  Either way the walk visits every count vector once, and
ENUMERATION_GUARD bounds how many there are.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NotMeasurableError, RepresentationError, SizeLimitError
from .kernel import (
    QUANTUM,
    Attribute,
    Variable,
    attribute_projector,
    attribute_span,
)
from .predicates import PredicateReport
from .quantum import (
    ControlledMap,
    MeasurerSpec,
    apply_measurer,
    basis_swap,
    build_measurer,
    completed_basis,
    intrinsic_part,
)
from .states import MixedState, PureState, basis_state, expectation, tensor
from .tolerance import PARTITION_SUM_TOL, tol

ENUMERATION_GUARD = 10_000_000
# One complex128 joint vector of the counting constructor (d**n source states
# times n+1 flags) plus its n+1 dense flag maps must fit in this many bytes;
# applying the measurer holds a few such vectors at once.
COUNTING_JOINT_BYTES = 64 * 2 ** 20
EXACT_DENOMINATOR_BOUND = 10 ** 6
RENDER_DENOMINATOR_BOUND = 10 ** 18


# ---------------------------------------------------------------------------
# Frequencies of outcome strings


def frequency(x, s) -> Fraction:
    """The fraction of entries of the outcome string s equal to x."""
    s = tuple(s)
    if not s:
        raise DomainError("frequency of the empty string is undefined")
    return Fraction(sum(1 for digit in s if digit == x), len(s))


def build_counting_constructor(x, n: int, basis: Variable,
                               guard: int = ENUMERATION_GUARD) -> MeasurerSpec:
    """The measurer writing f(x; s) onto a fresh register, for s over n replicas.

    basis is the per-replica observable: one single-state member per label.
    The returned measurer acts on the n-replica product space (one source
    factor of dimension d**n) with n+1 outcome flags labeled i/n.  A product
    basis state's class is its count of x, built by a broadcast recurrence;
    product states touching the rest of a replica's space act trivially.
    Flag k is the target basis state k.  Both d**n <= guard and the byte
    budget COUNTING_JOINT_BYTES are checked before anything is allocated.
    """
    if basis.substrate.kind != QUANTUM:
        raise RepresentationError("the counting constructor is a quantum device")
    if x not in basis.labels:
        raise DomainError(f"{x!r} is not a label of the counted observable")
    d = basis.substrate.dim
    if d ** n > guard:
        raise SizeLimitError(f"{d}**{n} product states exceed the enumeration guard")
    needed = 16 * (d ** n * (n + 1) + (n + 1) ** 3)
    if needed > COUNTING_JOINT_BYTES:
        raise SizeLimitError(
            f"a {d}**{n} x {n + 1} joint state needs {needed} bytes, over the "
            f"counting constructor's budget of {COUNTING_JOINT_BYTES}"
        )
    spans = []
    for label, attr in basis.members:
        span = attribute_span(attr)
        if span.shape[0] != 1:
            raise RepresentationError("counted members must be single states")
        spans.append(span)
    replica, member = completed_basis(spans, d, NotMeasurableError, "counting constructor")
    # per basis row: 1 for x, 0 for the other members, n+1 (saturating) for the rest
    rest = n + 1
    dtype = np.min_scalar_type(2 * rest)
    step = np.where(member == len(spans), rest, member == basis.labels.index(x)).astype(dtype)
    counts = np.zeros(1, dtype=dtype)
    for _ in range(n):
        counts = np.minimum(counts[:, None] + step, rest).reshape(-1)
    present = np.flatnonzero(np.bincount(counts, minlength=rest + 1)[:rest])
    lookup = np.full(rest + 1, present.size)
    lookup[present] = np.arange(present.size)
    control = ControlledMap(
        bases=(replica,) * n,
        classes=lookup[counts],
        maps=tuple(basis_swap(n + 1, 0, int(c)) for c in present),
        target_dim=n + 1,
    )
    return MeasurerSpec(
        labels=tuple(Fraction(int(c), n) for c in present),
        flags=tuple(basis_state(n + 1, int(c)).vector for c in present),
        control=control,
    )


# ---------------------------------------------------------------------------
# Deviant weights


@dataclass(frozen=True)
class ConvergenceRow:
    """One N of a convergence sweep.

    An exact row holds its deviant weight as numerator / natural_denominator,
    where natural_denominator = L**N and L is the lcm of the probabilities'
    denominators; both are None on the double fallback.
    """

    n: int
    epsilon: Fraction
    numerator: int | None
    approx: float
    natural_denominator: int | None = None

    @property
    def exact(self) -> Fraction | None:
        if self.numerator is None:
            return None
        return Fraction(self.numerator, self.natural_denominator)

    def render_exact(self) -> str:
        """p/q over the natural denominator (unreduced) where it stays printable."""
        if self.numerator is None:
            return ""
        if self.natural_denominator <= RENDER_DENOMINATOR_BOUND:
            return f"{self.numerator}/{self.natural_denominator}"
        exact = self.exact
        return f"{exact.numerator}/{exact.denominator}"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"cannot read {value!r} as an exact number")


def exact_probabilities(weights) -> list[Fraction] | None:
    """Exact non-negative weights normalized to sum 1, or None for the double fallback.

    This is the one exact-or-float decision of the convergence code: a sweep
    stays exact while the lcm of the normalized denominators is at most
    EXACT_DENOMINATOR_BOUND.
    """
    total = sum(weights)
    probs = [Fraction(w) / total for w in weights]
    if math.lcm(*(p.denominator for p in probs)) > EXACT_DENOMINATOR_BOUND:
        return None
    return probs


def _normalized_probabilities(c) -> list:
    """Squared amplitudes, normalized: exact Fractions when exact_probabilities
    keeps them, floats otherwise (complex amplitudes are always floats)."""
    amps = list(c)
    if not amps:
        raise DomainError("need at least one amplitude")
    float_q = [abs(complex(a)) ** 2 for a in amps]
    total_f = sum(float_q)
    if abs(total_f - 1.0) > 1e-6:
        raise DomainError(f"amplitudes are not normalized (sum of squares {total_f:.8f})")
    try:
        probs = exact_probabilities([_as_fraction(a) ** 2 for a in amps])
    except DomainError:
        probs = None
    return probs if probs is not None else [q / total_f for q in float_q]


def _compositions(total: int, parts: int):
    """Count vectors of `parts` entries summing to `total`, in lexicographic order.

    Yields (level, counts), with counts one list updated in place.  The first
    vector is (0, ..., 0, total), with level -1.  Every later one moves a
    single unit from the last entry into entry `level`, starting from the
    vector produced by the latest move into `level` or any entry before it
    (the first vector if there was none); the entries strictly between
    `level` and the last are zero at both ends of the move.
    """
    last = parts - 1
    counts = [0] * parts
    counts[last] = total
    yield -1, counts
    while True:
        level = last - 1
        while level >= 0 and counts[last] == 0:
            counts[last], counts[level] = counts[level], 0
            level -= 1
        if level < 0:
            return
        counts[level] += 1
        counts[last] -= 1
        yield level, counts


def deviant_weight(c, n: int, epsilon, probabilities=None,
                   guard: int = ENUMERATION_GUARD) -> ConvergenceRow:
    """Total weight of length-n outcome strings whose frequencies stray past epsilon.

    The deviation of a string with counts k is sum_x (k_x/n - p_x)^2; the
    weight of a count vector is the multinomial coefficient times the product
    of p_x^k_x.  probabilities may be passed directly (exact Fractions or
    floats), bypassing the amplitude route.

    One walk over the count vectors serves both arithmetics.  Outcomes of
    probability zero never occur and are dropped first.  Exact rows work in
    integers over L**n with a_x = p_x*L: a count vector deviates when
    eps.den * sum_x (k_x*L - n*a_x)^2 > eps.num * n^2 * L^2, and each weight
    numerator follows from an earlier one by the multinomial recurrence, so
    only O(d) big integers are live.  Double rows sum
    exp(lgamma(n+1) - sum_x lgamma(k_x+1) + sum_x k_x log p_x), which stays
    finite for every n.
    """
    eps = _as_fraction(epsilon)
    probs = list(probabilities) if probabilities is not None else _normalized_probabilities(c)
    exact = all(isinstance(p, Fraction) for p in probs)
    if exact:
        if sum(probs) != 1:
            raise DomainError("exact probabilities must sum to 1")
    else:
        probs = [float(p) for p in probs]
        if abs(sum(probs) - 1.0) > 1e-6:
            raise DomainError("probabilities must sum to 1")
    if any(p < 0 for p in probs):
        raise DomainError("probabilities must be non-negative")
    if n < 1:
        raise DomainError("the ensemble must contain at least one replica")
    kept = [p for p in probs if p != 0]
    last = len(kept) - 1
    if math.comb(n + last, last) > guard:
        raise SizeLimitError("frequency-vector enumeration exceeds the guard")

    if exact:
        den = math.lcm(*(p.denominator for p in kept))
        a = [p.numerator * (den // p.denominator) for p in kept]
        bound = eps.numerator * n * n * den * den
        weight = a[last] ** n
        saved = [weight] * last  # the weight each level's next move starts from
    else:
        eps_f = float(eps)
        logs = [math.log(p) for p in kept]
        lg = [math.lgamma(k + 1) for k in range(n + 1)]
    deviant = within = 0
    for level, counts in _compositions(n, len(kept)):
        if exact:
            if level >= 0:
                weight = saved[level] * (counts[last] + 1) * a[level] // (counts[level] * a[last])
                saved[level:] = [weight] * (last - level)
            spread = sum((k * den - n * ax) ** 2 for k, ax in zip(counts, a))
            deviates = eps.denominator * spread > bound
        else:
            weight = math.exp(lg[n] + sum(k * lp - lg[k] for k, lp in zip(counts, logs)))
            deviates = sum((k / n - p) ** 2 for k, p in zip(counts, kept)) > eps_f
        if deviates:
            deviant += weight
        else:
            within += weight
    if not exact:
        return ConvergenceRow(n=n, epsilon=eps, numerator=None, approx=float(deviant))
    natural = den ** n
    if deviant + within != natural:
        raise DomainError("exact multinomial weights failed to sum to 1")
    return ConvergenceRow(n=n, epsilon=eps, numerator=deviant, approx=deviant / natural,
                          natural_denominator=natural)


# ---------------------------------------------------------------------------
# Partitions of unity and class keys


@dataclass(frozen=True)
class PartitionOfUnity:
    """Per-label weights summing to one; values exact or double."""

    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple((l, v) for l, v in self.items))
        total = sum(v for _, v in self.items)
        if abs(float(total) - 1.0) > PARTITION_SUM_TOL:
            raise DomainError(f"partition entries sum to {float(total)!r}, not 1")
        for label, v in self.items:
            if float(v) < -PARTITION_SUM_TOL or float(v) > 1.0 + PARTITION_SUM_TOL:
                raise DomainError(f"partition entry for {label!r} is outside [0, 1]")

    @property
    def labels(self) -> tuple:
        return tuple(l for l, _ in self.items)

    def value(self, label):
        for l, v in self.items:
            if l == label:
                return v
        raise KeyError(label)

    def as_dict(self) -> dict:
        return dict(self.items)


def _as_state(z):
    if isinstance(z, (PureState, MixedState)):
        return z
    if isinstance(z, Attribute):
        if z.is_subspace:
            if len(z.basis) != 1:
                raise DomainError("attribute does not denote a single state")
            return z.basis[0]
        if len(z.states) != 1:
            raise DomainError("attribute does not denote a single state")
        return z.states[0]
    raise DomainError(f"cannot read {type(z).__name__} as a state")


def partition_of_unity(z, x: Variable) -> PartitionOfUnity:
    """The tuple Tr(rho_z P_x) over x's members, for z inside x's span.

    States outside the span closure of x are not generalised mixtures of x
    and have no X-partition; that is a caller error, not a verdict.
    """
    if x.substrate.kind != QUANTUM:
        raise RepresentationError("partitions of unity live on the quantum backend")
    state = _as_state(z)
    projs = [(label, attribute_projector(attr)) for label, attr in x.members]
    raw = [(label, max(0.0, expectation(state, p))) for label, p in projs]
    total = sum(v for _, v in raw)
    if abs(total - 1.0) > tol():
        raise DomainError(
            f"state lies outside the span of the variable (coverage {total:.9f})"
        )
    return PartitionOfUnity(tuple((label, v / total) for label, v in raw))


def class_key(z, x: Variable) -> tuple:
    """Canonical indistinguishability key: rounded weights in sorted label order."""
    part = partition_of_unity(z, x)
    ordered = sorted(part.items, key=lambda item: repr(item[0]))
    return tuple(round(float(v), 9) + 0.0 for _, v in ordered)


def _snap(value: float, bound: int = EXACT_DENOMINATOR_BOUND) -> Fraction | None:
    frac = Fraction(value).limit_denominator(bound)
    return frac if abs(float(frac) - value) <= 1e-12 else None


# ---------------------------------------------------------------------------
# E1/E2 verification


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple
    monotone: bool
    final_ok: bool
    partition: PartitionOfUnity

    @property
    def verdict(self) -> bool:
        return self.monotone and self.final_ok


def verify_E1_E2(z, x: Variable, n_sweep, epsilon,
                 final_bound: float = 0.005,
                 guard: int = ENUMERATION_GUARD) -> ConvergenceReport:
    """Deviant weights along an N-sweep must shrink toward zero.

    The partition entries are snapped to small rationals when they are within
    1e-12 of one; the sweep is exact when exact_probabilities keeps them.
    Ties in the sweep are allowed (parity effects at small N produce plateaus).
    """
    part = partition_of_unity(z, x)
    snapped = [_snap(float(v)) for _, v in part.items]
    probabilities = exact_probabilities(snapped) if None not in snapped else None
    if probabilities is None:
        probabilities = [float(v) for _, v in part.items]
    rows = []
    for n in sorted(int(n) for n in n_sweep):
        rows.append(deviant_weight(None, n, epsilon,
                                   probabilities=probabilities, guard=guard))
    monotone = True
    for prev, cur in zip(rows, rows[1:]):
        if prev.exact is not None and cur.exact is not None:
            if cur.exact > prev.exact:
                monotone = False
        elif cur.approx > prev.approx + 1e-12:
            monotone = False
    final_ok = rows[-1].approx < final_bound if rows else False
    return ConvergenceReport(rows=tuple(rows), monotone=monotone,
                             final_ok=final_ok, partition=part)


def intrinsic_partition_preserved(y, x: Variable) -> PredicateReport:
    """Measuring x must hand y's partition unchanged to both factors.

    Runs the measurer on y next to a receptive target and checks that the
    source's reduced state and the target's flag distribution both carry
    partition_of_unity(y, x).
    """
    state = _as_state(y)
    measurer = build_measurer(x)
    out = apply_measurer(measurer, tensor(state, measurer.receptive_state()))
    part_y = partition_of_unity(state, x)
    part_src = partition_of_unity(intrinsic_part(out, 0), x)
    rho_tgt = intrinsic_part(out, 1)
    tgt_raw = [(l, max(0.0, expectation(rho_tgt, measurer.flag_projector(l))))
               for l in x.labels]
    tgt_total = sum(v for _, v in tgt_raw)
    atol = tol()
    ok = abs(tgt_total - 1.0) <= atol
    part_tgt = PartitionOfUnity(tuple((l, v / tgt_total) for l, v in tgt_raw)) if ok else None
    if ok:
        for label in x.labels:
            if abs(part_src.value(label) - part_y.value(label)) > atol:
                ok = False
            if abs(part_tgt.value(label) - part_y.value(label)) > atol:
                ok = False
    return PredicateReport(
        predicate="intrinsic_partition_preserved",
        subject=f"{x.substrate.id} {x.labels}",
        verdict=ok,
        evidence={"input": part_y, "source": part_src, "target": part_tgt},
    )
