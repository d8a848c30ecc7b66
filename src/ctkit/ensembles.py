"""Ensemble frequencies, exact deviant weights, and partitions of unity.

The convergence computations run in exact arithmetic whenever the squared
amplitudes are rational and the lcm L of their denominators stays within
EXACT_DENOMINATOR_BOUND (`exact_probabilities` makes that one decision for
the CLI, the amplitude route and verify_E1_E2); only then do statements like
"weight 352/1024 exactly" make sense.  An exact row is an integer numerator
over the natural denominator L**N, computed in integers throughout.  Double
precision is the fallback and is flagged on the row that used it; it sums
weights in log space (lgamma), so it has no ceiling on N and never
overflows.  Either way one walk over the head counts (every count but the
last two; fixing them all leaves a line) serves both arithmetics.  It skips
each subtree whose fixed counts already put every vector below it past
epsilon, by a Cauchy-Schwarz bound, and adds that subtree's total in closed
form by the multinomial theorem.  A surviving line sums only its band of
vectors within epsilon, by binary splitting when the band is long.
ENUMERATION_GUARD bounds the work of the walk without skipping.

A partition of unity reads its weights off the variable's span block
(`kernel._member_weights`).
"""
from __future__ import annotations

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
    _row_weights,
    _single_state,
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
from .states import MixedState, PureState, _check_bytes, tensor
from .tolerance import PARTITION_SUM_TOL, tol

ENUMERATION_GUARD = 10_000_000
# One complex128 joint vector of the counting constructor (d**n source states
# times n+1 flags) must fit in this many bytes; the flag maps are index
# vectors, and applying the measurer holds a few such vectors at once.
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


def build_counting_constructor(x, n: int, basis: Variable) -> MeasurerSpec:
    """The measurer writing f(x; s) onto a fresh register, for s over n replicas.

    basis is the per-replica observable: one single-state member per label,
    its stacked span rows the replica basis (no SVD when they fill it).  The
    measurer acts on the n-replica product space (one source factor of
    dimension d**n) with n+1 outcome flags labeled i/n.  A product
    basis state's class is its count of x, built by a broadcast recurrence;
    product states touching the rest of a replica's space act trivially.
    Flag k is the target basis state k.  The joint vector is held to the byte
    budget COUNTING_JOINT_BYTES before anything is allocated.
    """
    if basis.substrate.kind != QUANTUM:
        raise RepresentationError("the counting constructor is a quantum device")
    if x not in basis.labels:
        raise DomainError(f"{x!r} is not a label of the counted observable")
    _check_replicas(n)
    d = basis.substrate.dim
    _check_bytes(16 * d ** n * (n + 1), "a {}**{} x {} joint state", d, n, n + 1,
                 budget=COUNTING_JOINT_BYTES)
    rows, ranks = basis._span_block()
    if (ranks != 1).any():
        raise RepresentationError("counted members must be single states")
    replica, member = completed_basis(rows, ranks, d, NotMeasurableError, "counting constructor")
    # per basis row: 1 for x, 0 for the other members, n+1 (saturating) for the rest
    rest = n + 1
    dtype = np.min_scalar_type(2 * rest)
    step = np.where(member == len(ranks), rest, member == basis.labels.index(x)).astype(dtype)
    counts = np.zeros(1, dtype=dtype)
    for _ in range(n):
        counts = np.minimum(counts[:, None] + step, rest).reshape(-1)
    present = np.flatnonzero(np.bincount(counts, minlength=rest + 1)[:rest])
    lookup = np.full(rest + 1, present.size)
    lookup[present] = np.arange(present.size)
    flags = np.eye(rest, dtype=complex)[present]
    flags.setflags(write=False)
    control = ControlledMap(
        bases=(replica,) * n,
        classes=lookup[counts],
        maps=tuple(basis_swap(n + 1, 0, present)),
        target_dim=n + 1,
    )
    return MeasurerSpec(
        labels=tuple(Fraction(int(c), n) for c in present),
        flags=tuple(flags),
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


def _subtrees(n: int, dev: list, rest: list, limit, scale, weight, grow):
    """The head counts, depth first, without the subtrees that lie outside the ball.

    The head is every outcome but the last two; fixing all its counts leaves
    a line.  dev[x][k] is the squared offset of head outcome x at count k and
    rest[x][m] that of the mass left after x + 1 head counts when m replicas
    remain, both in the caller's arithmetic.  With P the squared offsets
    fixed so far and R the outcomes left, Cauchy-Schwarz bounds the squared
    offsets still to come below by rest/R, so a node with
    scale * (R*P + rest) > R * limit deviates as a whole.  Yields
    (w, m, P, fixed, whole) for each such node (whole) and for each other
    line, m the replicas left and w the node's weight: grow(parent, last, m,
    k, x) gives it from its parent's weight and from that of its sibling at
    count k - 1 (None at k = 0), starting from weight at the root.
    """
    heads = len(dev)
    left, offset, weights, count = [n] * heads, [0] * heads, [weight] * heads, [-1] * heads
    last = [None] * heads
    x = 0
    while x >= 0:
        m, k = left[x], count[x] + 1
        if k > m:
            x -= 1
            continue
        count[x] = k
        p = offset[x] + dev[x][k]
        w = last[x] = grow(weights[x], last[x] if k else None, m, k, x)
        outcomes = heads + 1 - x
        if scale * (outcomes * p + rest[x][m - k]) > outcomes * limit:
            yield w, m - k, p, x + 1, True
        elif x + 1 == heads:
            yield w, m - k, p, heads, False
        else:
            x += 1
            left[x], offset[x], weights[x], count[x] = m - k, p, w, -1


# Bands of at least this many terms are binary-split; shorter ones are walked.
_SPLIT_TERMS = 128


def _ratios(m: int, u: int, v: int, a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) over the term ratios (m-i)*u / ((i+1)*v) of a binomial band, i in
    [a, b): the products of their numerators and of their denominators, and T
    with T/Q = sum over j in [a, b) of the ratios a..j-1 multiplied together."""
    if b - a == 1:
        q = (a + 1) * v
        return (m - a) * u, q, q
    c = (a + b) // 2
    p1, q1, t1 = _ratios(m, u, v, a, c)
    p2, q2, t2 = _ratios(m, u, v, c, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _band(m: int, lo: int, hi: int, u: int, v: int) -> int:
    """sum_{j=lo..hi} C(m, j) u^j v^(m-j), for v > 0.

    Short bands are walked by the binomial recurrence; from _SPLIT_TERMS
    terms on, the ratios are multiplied out by binary splitting (Haible and
    Papanikolaou, 1998), which ends in one exact division.
    """
    if lo > hi:
        return 0
    weight = math.comb(m, lo) * u ** lo * v ** (m - lo)
    if hi - lo + 1 >= _SPLIT_TERMS:
        _, q, t = _ratios(m, u, v, lo, hi + 1)
        return weight * t // q
    total = 0
    for j in range(lo, hi + 1):
        total += weight
        weight = weight * (m - j) * u // ((j + 1) * v)
    return total


def _exact_lines(n: int, eps: Fraction, den: int, a: list) -> tuple[int, int]:
    """(deviant, within) weight numerators over den**n.

    Offsets are k_x*L - n*a_x, and a vector deviates when eps.den times the
    sum of their squares exceeds limit = eps.num*n^2*L^2.  _subtrees walks
    the head counts in integers; a node whose bound already deviates adds
    its total coef * A^m by the multinomial theorem, A the mass left and
    coef the multinomial n!/(prod k_x! m!) times prod a_x^k_x, carried from
    each count to the next by coef * (m - k) * a_x / (k + 1).  On a
    surviving line the last two outcomes take (j, m - j), and with
    c = m*L - n*(a_u + a_v) the vector deviates unless
    eps.den * (2*j*L - mid)^2 <= room, where mid = m*L + n*(a_u - a_v) and
    room = 2*limit - eps.den*(2*P + c^2): the within j are
    |2*j*L - mid| <= isqrt(room // eps.den), exactly, ties included.  Only
    that band is summed (_band); the rest of the line's total
    coef * (a_u + a_v)^m is deviant.  Two outcomes are one line, with no walk.
    """
    *top, u, v = a if len(a) > 1 else (0, *a)  # a lone outcome gets an empty partner
    limit = eps.numerator * (n * den) ** 2

    def band(m, p):
        c = m * den - n * (u + v)
        room = 2 * limit - eps.denominator * (2 * p + c * c)
        if room < 0:
            return 0
        r, mid = math.isqrt(room // eps.denominator), m * den + n * (u - v)
        return _band(m, max(0, -((r - mid) // (2 * den))), min(m, (mid + r) // (2 * den)), u, v)

    if not top:
        within = band(n, 0)
        return (u + v) ** n - within, within
    mass = [sum(a[x:]) for x in range(len(a))]
    dev = [[(k * den - n * ax) ** 2 for k in range(n + 1)] for ax in top]
    rest = [[(m * den - n * mass[x]) ** 2 for m in range(n + 1)] for x in range(1, len(a) - 1)]
    deviant = within = 0
    for coef, m, p, fixed, whole in _subtrees(
            n, dev, rest, limit, eps.denominator, 1,
            lambda coef, last, m, k, x: last * (m - k + 1) * top[x] // k if k else coef):
        inside = 0 if whole else coef * band(m, p)
        deviant += coef * mass[fixed] ** m - inside
        within += inside
    return deviant, within


# A block of count vectors on the float path holds about ten 8-byte
# temporaries per vector, within this many bytes.
_FLOAT_BLOCK_BYTES = 4 * 2 ** 20
# The float walk skips a subtree only past this multiple of epsilon, so no
# vector that rounding could put within epsilon is skipped.
_FLOAT_PRUNE_MARGIN = 1 + 1e-9


def _float_lines(n: int, eps: float, kept: list) -> float:
    """The float deviant weight over the walk of _exact_lines, in log space.

    Offsets are k_x/n - p_x.  A subtree the walk skips (its bound past
    eps * _FLOAT_PRUNE_MARGIN) adds exp(log coef + m log A).  The surviving
    lines are taken in blocks: their vectors are classified by
    sum_x (k_x/n - p_x)**2 > eps, added in order of x, and only the deviant
    weights are exponentiated and summed.
    """
    if len(kept) == 1:  # the one count vector (n,)
        return math.exp(n * math.log(kept[0])) if (1.0 - kept[0]) ** 2 > eps else 0.0
    *top, u, v = kept
    lg = np.fromiter((math.lgamma(k + 1) for k in range(n + 1)), float, n + 1)
    step = max(1, _FLOAT_BLOCK_BYTES // 80)

    def deviant_in(lines) -> float:  # (log weight, offsets, replicas left) per line
        head_log, head_dev, m = np.array(lines).T
        m = m.astype(np.int64)
        deviant, ends = 0.0, np.cumsum(m + 1)
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

    if not top:
        return deviant_in([(lg[n], 0.0, n)])
    mass = [sum(kept[x:]) for x in range(len(kept))]
    counts = np.arange(n + 1) / n
    dev = [((counts - p) ** 2).tolist() for p in top]
    rest = [((counts - mass[x]) ** 2).tolist() for x in range(1, len(kept) - 1)]
    logs, log_mass, lgs = [math.log(p) for p in top], [math.log(a) for a in mass], lg.tolist()
    block, lines, deviant = max(1, step // (len(top) + 1)), [], 0.0
    for w, m, p, fixed, whole in _subtrees(
            n, dev, rest, eps * _FLOAT_PRUNE_MARGIN, 1, lgs[n],
            lambda w, last, m, k, x: w + k * logs[x] - lgs[k]):
        if whole:
            deviant += math.exp(w - lgs[m] + m * log_mass[fixed])
            continue
        lines.append((w, p, m))
        if len(lines) == block:
            deviant += deviant_in(lines)
            lines = []
    return deviant + deviant_in(lines) if lines else deviant


def deviant_weight(c, n: int, epsilon, probabilities=None,
                   guard: int = ENUMERATION_GUARD) -> ConvergenceRow:
    """Total weight of length-n outcome strings whose frequencies stray past epsilon.

    The deviation of a string with counts k is sum_x (k_x/n - p_x)^2; the
    weight of a count vector is the multinomial coefficient times the product
    of p_x^k_x.  probabilities may be passed directly (exact Fractions or
    floats), bypassing the amplitude route.  Outcomes of probability zero
    never occur and are dropped first.  Both arithmetics walk the head
    counts with _subtrees, adding each subtree already past epsilon in
    closed form and summing the band within epsilon of each surviving line:
    exact rows in integers over L**n, a_x = p_x*L (_exact_lines; deviant
    plus within must come to L**n), double rows as log-space weights in
    bounded blocks (_float_lines).
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
    weights = _partition_weights(_member_weights(_as_state(z), *x._span_block()), tol())
    return PartitionOfUnity(tuple(zip(x.labels, weights.tolist())))


def _partition_weights(weights: np.ndarray, atol: float) -> np.ndarray:
    """Member weights clipped at 0 and divided by their sum, the coverage.
    A coverage off 1 by more than atol puts the state outside the variable's
    span.  The entries returned lie in [0, 1]."""
    weights = np.where(weights > 0.0, weights, 0.0)
    total = sum(weights.tolist())
    if abs(total - 1.0) > atol:
        raise DomainError(f"state lies outside the span of the variable (coverage {total:.9f})")
    weights = weights / total
    if weights.max(initial=0.0) > 1.0 + PARTITION_SUM_TOL:
        raise DomainError("a partition entry is outside [0, 1]")
    return weights


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
                 final_bound: float = 0.005) -> ConvergenceReport:
    """Deviant weights along an N-sweep must shrink toward zero.

    The partition entries are snapped to small rationals when they are within
    1e-12 of one; the sweep is exact when exact_probabilities keeps them.
    Ties in the sweep are allowed (parity effects at small N produce plateaus).
    """
    return _convergence(partition_of_unity(z, x), n_sweep, epsilon, final_bound)


def _convergence(part: PartitionOfUnity, n_sweep, epsilon, final_bound: float) -> ConvergenceReport:
    """`verify_E1_E2`'s sweep over the partition part, for a caller that holds it."""
    snapped = [_snap(float(v)) for _, v in part.items]
    probabilities = exact_probabilities(snapped) if None not in snapped else None
    if probabilities is None:
        probabilities = [float(v) for _, v in part.items]
    rows = [deviant_weight(None, n, epsilon, probabilities=probabilities)
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
    tgt_raw = [(l, max(0.0, float(w)))
               for l, w in zip(x.labels, _row_weights(rho_tgt, np.array(measurer.flags)))]
    tgt_total = sum(v for _, v in tgt_raw)
    atol = tol()
    ok = abs(tgt_total - 1.0) <= atol
    part_tgt = PartitionOfUnity(tuple((l, v / tgt_total) for l, v in tgt_raw)) if ok else None
    ok = ok and all(abs(part.value(label) - part_y.value(label)) <= atol
                    for label in x.labels for part in (part_src, part_tgt))
    return _report("intrinsic_partition_preserved", x, ok,
                   {"input": part_y, "source": part_src, "target": part_tgt})
