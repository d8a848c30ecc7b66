"""Ensemble frequencies, exact deviant weights, and partitions of unity.

The convergence computations run in exact arithmetic whenever the squared
amplitudes are rational and the lcm L of their denominators stays within
EXACT_DENOMINATOR_BOUND (`exact_probabilities` makes that one decision for
the CLI, the amplitude route and verify_E1_E2); only then do statements like
"weight 352/1024 exactly" make sense.  An exact row is an integer numerator
over the natural denominator L**N, computed in integers throughout.  Double
precision is the fallback and is flagged on the row that used it; it sums
weights in log space (lgamma), so it has no ceiling on N and never
overflows.  Either way the count vectors are taken a line at a time (all
counts fixed but the last two), and ENUMERATION_GUARD bounds that work.

A partition of unity reads its weights off span rows (`kernel._member_weights`).
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NotMeasurableError, RepresentationError, SizeLimitError
from .kernel import (
    QUANTUM,
    Attribute,
    Variable,
    _member_weights,
    _single_state,
    attribute_span,
)
from .predicates import PredicateReport, _report
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


def _check_replicas(n) -> None:
    if not isinstance(n, numbers.Integral):
        raise DomainError(f"the number of replicas must be an integer, got {n!r}")
    if n < 1:
        raise DomainError("the ensemble must contain at least one replica")


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
    _check_replicas(n)
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
    if isinstance(value, (Fraction, str, float, int)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
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
    if not abs(total_f - 1.0) <= 1e-6:  # NaN fails too
        raise DomainError(f"amplitudes are not normalized (sum of squares {total_f:.8f})")
    try:
        probs = exact_probabilities([_as_fraction(a) ** 2 for a in amps])
    except DomainError:
        probs = None
    return probs if probs is not None else [q / total_f for q in float_q]


def _heads(total: int, parts: int):
    """Tuples of `parts` non-negative counts summing to at most `total`."""
    head, left = [0] * parts, total
    while True:
        yield tuple(head)
        i = parts - 1
        while i >= 0 and left == 0:
            left, head[i] = head[i], 0
            i -= 1
        if i < 0:
            return
        head[i] += 1
        left -= 1


def _exact_lines(n: int, eps: Fraction, den: int, a: list) -> tuple[int, int]:
    """(deviant, within) weight numerators over den**n.

    A line fixes the head counts k_x of all outcomes but the last two, which
    take (j, m - j).  Its numerators are coef * C(m, j) a_u^j a_v^(m-j), coef
    the multinomial n!/(prod k_x! m!) times prod a_x^k_x, so it totals
    coef * (a_u + a_v)^m.  With c = m*L - n*(a_u + a_v) the vector deviates
    unless eps.den * (2*j*L - mid)^2 <= room, where mid = m*L + n*(a_u - a_v)
    and room = 2*eps.num*n^2*L^2 - eps.den*(2*sum_head (k_x*L - n*a_x)^2 + c^2):
    the within j are |2*j*L - mid| <= isqrt(room // eps.den), exactly, ties
    included.  Only they are walked, by the binomial recurrence.
    """
    *top, u, v = a if len(a) > 1 else (0, *a)  # a lone outcome gets an empty partner
    bound = 2 * eps.numerator * (n * den) ** 2
    deviant = within = 0
    for head in _heads(n, len(top)):
        coef, m = 1, n
        for k, ax in zip(head, top):
            coef *= math.comb(m, k) * ax ** k
            m -= k
        c = m * den - n * (u + v)
        room = bound - eps.denominator * (
            2 * sum((k * den - n * ax) ** 2 for k, ax in zip(head, top)) + c * c)
        inside = 0
        if room >= 0:
            r, mid = math.isqrt(room // eps.denominator), m * den + n * (u - v)
            lo, hi = max(0, -((r - mid) // (2 * den))), min(m, (mid + r) // (2 * den))
            weight = coef * math.comb(m, lo) * u ** lo * v ** (m - lo) if lo <= hi else 0
            for j in range(lo, hi + 1):
                inside += weight
                weight = weight * (m - j) * u // ((j + 1) * v)
        deviant += coef * (u + v) ** m - inside
        within += inside
    return deviant, within


# A block of count vectors on the float path holds about ten 8-byte
# temporaries per vector, within this many bytes.
_FLOAT_BLOCK_BYTES = 4 * 2 ** 20


def _float_lines(n: int, eps: float, kept: list) -> float:
    """The float deviant weight over the lines of _exact_lines, in blocks.

    Each line's head deviation and log weight are computed once; its vectors
    are classified by sum_x (k_x/n - p_x)**2 > eps, added in order of x, and
    only the deviant weights are exponentiated and summed.
    """
    if len(kept) == 1:  # the one count vector (n,)
        return math.exp(n * math.log(kept[0])) if (1.0 - kept[0]) ** 2 > eps else 0.0
    *top, u, v = kept
    lg = np.fromiter((math.lgamma(k + 1) for k in range(n + 1)), float, n + 1)
    step = max(1, _FLOAT_BLOCK_BYTES // 80)
    lines, deviant = _heads(n, len(top)), 0.0
    while chunk := list(itertools.islice(lines, max(1, step // (len(top) + 1)))):
        heads = np.array(chunk, dtype=np.int64)
        m = n - heads.sum(axis=1)
        head_dev = sum(((heads[:, x] / n - p) ** 2 for x, p in enumerate(top)), np.zeros(len(m)))
        head_log = lg[n] + heads @ np.log(np.array(top)) - lg[heads].sum(axis=1)
        ends = np.cumsum(m + 1)
        for start in range(0, int(ends[-1]), step):
            flat = np.arange(start, min(start + step, int(ends[-1])))
            line = np.searchsorted(ends, flat, side="right")
            j = flat - ends[line] + m[line] + 1
            rest = m[line] - j
            strays = head_dev[line] + (j / n - u) ** 2 + (rest / n - v) ** 2 > eps
            line, j, rest = line[strays], j[strays], rest[strays]
            deviant += float(np.exp(head_log[line] + j * math.log(u) - lg[j]
                                    + rest * math.log(v) - lg[rest]).sum())
    return deviant


def deviant_weight(c, n: int, epsilon, probabilities=None,
                   guard: int = ENUMERATION_GUARD) -> ConvergenceRow:
    """Total weight of length-n outcome strings whose frequencies stray past epsilon.

    The deviation of a string with counts k is sum_x (k_x/n - p_x)^2; the
    weight of a count vector is the multinomial coefficient times the product
    of p_x^k_x.  probabilities may be passed directly (exact Fractions or
    floats), bypassing the amplitude route.  Outcomes of probability zero
    never occur and are dropped first.  Both arithmetics take the count
    vectors a line at a time: exact rows in integers over L**n, a_x = p_x*L
    (_exact_lines; deviant plus within must come to L**n), double rows as
    log-space weights in bounded blocks (_float_lines).
    """
    eps = _as_fraction(epsilon)
    probs = list(probabilities) if probabilities is not None else _normalized_probabilities(c)
    exact = all(isinstance(p, Fraction) for p in probs)
    if exact:
        if sum(probs) != 1:
            raise DomainError("exact probabilities must sum to 1")
    else:
        probs = [float(p) for p in probs]
        if not abs(sum(probs) - 1.0) <= 1e-6:  # NaN fails too
            raise DomainError("probabilities must sum to 1")
    if any(p < 0 for p in probs):
        raise DomainError("probabilities must be non-negative")
    _check_replicas(n)
    kept = [p for p in probs if p != 0]
    last = len(kept) - 1
    # each of the C(n + last - 1, last - 1) lines costs last - 1 head counts
    head_work = math.comb(n + last - 1, last - 1) * (last - 1) if last > 1 else 0
    if math.comb(n + last, last) + head_work > guard:
        raise SizeLimitError("frequency-vector enumeration exceeds the guard")
    if not exact:
        return ConvergenceRow(n=n, epsilon=eps, numerator=None,
                              approx=_float_lines(n, float(eps), kept))
    den = math.lcm(*(p.denominator for p in kept))
    deviant, within = _exact_lines(n, eps, den, [p.numerator * (den // p.denominator)
                                                 for p in kept])
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
        return _single_state(z)
    raise DomainError(f"cannot read {type(z).__name__} as a state")


def partition_of_unity(z, x: Variable) -> PartitionOfUnity:
    """The tuple Tr(rho_z P_x) over x's members, for z inside x's span.

    States outside the span closure of x are not generalised mixtures of x
    and have no X-partition; that is a caller error, not a verdict.
    """
    if x.substrate.kind != QUANTUM:
        raise RepresentationError("partitions of unity live on the quantum backend")
    state = _as_state(z)
    weights = _member_weights(state, x.attributes)
    raw = [(label, max(0.0, float(w))) for label, w in zip(x.labels, weights)]
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
    rows = [deviant_weight(None, n, epsilon, probabilities=probabilities, guard=guard)
            for n in sorted(int(n) for n in n_sweep)]
    monotone = all(
        cur.exact <= prev.exact if None not in (prev.exact, cur.exact)
        else cur.approx <= prev.approx + 1e-12
        for prev, cur in zip(rows, rows[1:]))
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
    ok = ok and all(abs(part.value(label) - part_y.value(label)) <= atol
                    for label in x.labels for part in (part_src, part_tgt))
    return _report("intrinsic_partition_preserved", x, ok,
                   {"input": part_y, "source": part_src, "target": part_tgt})
