"""Ensemble frequencies, exact deviant weights, and partitions of unity.

The convergence computations run in exact rational arithmetic whenever the
squared amplitudes are rational with reasonable denominators; only then do
statements like "weight 352/1024 exactly" make sense.  Double precision is
the fallback and is flagged on the row that used it.
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
# Exact deviant weights


@dataclass(frozen=True)
class ConvergenceRow:
    """One N of a convergence sweep; exact is None on the double fallback."""

    n: int
    epsilon: Fraction
    exact: Fraction | None
    approx: float
    natural_denominator: int | None = None

    def render_exact(self) -> str:
        """p/q over the natural denominator (unreduced) where it stays printable."""
        if self.exact is None:
            return ""
        dn = self.natural_denominator
        if dn is not None and dn <= RENDER_DENOMINATOR_BOUND and dn % self.exact.denominator == 0:
            num = self.exact.numerator * (dn // self.exact.denominator)
            return f"{num}/{dn}"
        return f"{self.exact.numerator}/{self.exact.denominator}"


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


def _normalized_probabilities(c) -> tuple[list[float], list[Fraction] | None]:
    """Squared amplitudes, normalized; exact list only when denominators stay small."""
    amps = list(c)
    if not amps:
        raise DomainError("need at least one amplitude")
    exact_q: list[Fraction] | None = []
    for a in amps:
        if isinstance(a, complex):
            exact_q = None
            break
        try:
            exact_q.append(_as_fraction(a) ** 2)
        except DomainError:
            exact_q = None
            break
    float_q = [abs(complex(a)) ** 2 for a in amps]
    total_f = sum(float_q)
    if abs(total_f - 1.0) > 1e-6:
        raise DomainError(f"amplitudes are not normalized (sum of squares {total_f:.8f})")
    if exact_q is not None:
        total = sum(exact_q)
        probs = [q / total for q in exact_q]
        lcm = 1
        for p in probs:
            lcm = lcm * p.denominator // math.gcd(lcm, p.denominator)
            if lcm > EXACT_DENOMINATOR_BOUND:
                exact_q = None
                break
        else:
            return [float(p) for p in probs], probs
    return [q / total_f for q in float_q], None


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def deviant_weight(c, n: int, epsilon, probabilities=None,
                   guard: int = ENUMERATION_GUARD) -> ConvergenceRow:
    """Total weight of length-n outcome strings whose frequencies stray past epsilon.

    The deviation of a string with counts k is sum_x (k_x/n - p_x)^2; the
    weight of a count vector is the multinomial coefficient times the product
    of p_x^k_x.  probabilities may be passed directly (exact Fractions or
    floats), bypassing the amplitude route.
    """
    eps = _as_fraction(epsilon)
    if probabilities is not None:
        probs = list(probabilities)
        if all(isinstance(p, Fraction) for p in probs):
            if sum(probs) != 1:
                raise DomainError("exact probabilities must sum to 1")
            exact_p: list[Fraction] | None = probs
            float_p = [float(p) for p in probs]
        else:
            float_p = [float(p) for p in probs]
            if abs(sum(float_p) - 1.0) > 1e-6:
                raise DomainError("probabilities must sum to 1")
            exact_p = None
    else:
        float_p, exact_p = _normalized_probabilities(c)
    d = len(float_p)
    if n < 1:
        raise DomainError("the ensemble must contain at least one replica")
    if math.comb(n + d - 1, d - 1) > guard:
        raise SizeLimitError("frequency-vector enumeration exceeds the guard")

    if exact_p is not None:
        deviant = Fraction(0)
        total = Fraction(0)
        for counts in _compositions(n, d):
            coeff = math.factorial(n)
            for k in counts:
                coeff //= math.factorial(k)
            weight = Fraction(coeff)
            for k, p in zip(counts, exact_p):
                weight *= p ** k
            total += weight
            delta = sum((Fraction(k, n) - p) ** 2 for k, p in zip(counts, exact_p))
            if delta > eps:
                deviant += weight
        if total != 1:
            raise DomainError("exact multinomial weights failed to sum to 1")
        lcm = 1
        for p in exact_p:
            lcm = lcm * p.denominator // math.gcd(lcm, p.denominator)
        return ConvergenceRow(n=n, epsilon=eps, exact=deviant,
                              approx=float(deviant), natural_denominator=lcm ** n)

    eps_f = float(eps)
    deviant_f = 0.0
    for counts in _compositions(n, d):
        coeff = math.factorial(n)
        for k in counts:
            coeff //= math.factorial(k)
        weight = coeff * math.prod(p ** k for k, p in zip(counts, float_p))
        delta = sum((k / n - p) ** 2 for k, p in zip(counts, float_p))
        if delta > eps_f:
            deviant_f += weight
    return ConvergenceRow(n=n, epsilon=eps, exact=None, approx=deviant_f)


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
    1e-12 of one, keeping the sweep on the exact path; ties in the sweep are
    allowed (parity effects at small N produce plateaus).
    """
    part = partition_of_unity(z, x)
    snapped = [_snap(float(v)) for _, v in part.items]
    if all(s is not None for s in snapped):
        drift = sum(snapped)
        probabilities = list(snapped)
        if drift != 1:
            # distribute closure error onto the largest entry
            probabilities[probabilities.index(max(probabilities))] += 1 - drift
    else:
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
