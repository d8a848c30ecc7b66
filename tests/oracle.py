"""Reference deviant weights, computed by a separate route.

A length-n outcome string with count vector k deviates when its squared
frequency deviation sum_x (k_x/n - p_x)^2 exceeds epsilon.  The library
takes count vectors a line at a time, with closed-form line totals and an
isqrt interval of within-epsilon vectors; everything here classifies each
occupation vector on its own instead: the two-outcome case loops over a
single count with ``math.comb``, the general case places bars between stars via
``itertools.combinations`` and divides factorials.  The two routes share no
code, so exact agreement pins both down.

All arithmetic is ``fractions.Fraction``; nothing here ever touches a float.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial


def binomial_deviant(p, n: int, epsilon) -> Fraction:
    """Deviant weight for a two-outcome ensemble with probabilities (p, 1-p).

    The squared deviation collapses to 2*(k/n - p)^2 because the two
    frequency errors mirror each other.
    """
    p = Fraction(p)
    epsilon = Fraction(epsilon)
    if not 0 <= p <= 1:
        raise ValueError(f"p out of range: {p}")
    total = Fraction(0)
    for k in range(n + 1):
        if 2 * (Fraction(k, n) - p) ** 2 > epsilon:
            total += comb(n, k) * p ** k * (1 - p) ** (n - k)
    return total


def _count_vectors(parts: int, total: int):
    """All length-`parts` tuples of non-negative ints summing to `total`,
    read off bar positions among total + parts - 1 slots."""
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(total + parts - 1 - prev - 1)
        yield tuple(counts)


def _multinomial(counts) -> int:
    out = factorial(sum(counts))
    for c in counts:
        out //= factorial(c)
    return out


def _vector_weight(counts, ps) -> Fraction:
    weight = Fraction(_multinomial(counts))
    for c, p in zip(counts, ps):
        weight *= p ** c
    return weight


def _squared_deviation(counts, ps, n) -> Fraction:
    return sum((Fraction(c, n) - p) ** 2 for c, p in zip(counts, ps))


def multinomial_deviant(probabilities, n: int, epsilon) -> Fraction:
    """Weight of the count vectors whose squared deviation exceeds epsilon."""
    ps = [Fraction(p) for p in probabilities]
    epsilon = Fraction(epsilon)
    if sum(ps) != 1:
        raise ValueError(f"probabilities sum to {sum(ps)}, not 1")
    total = Fraction(0)
    for counts in _count_vectors(len(ps), n):
        if _squared_deviation(counts, ps, n) > epsilon:
            total += _vector_weight(counts, ps)
    return total


def multinomial_within(probabilities, n: int, epsilon) -> Fraction:
    """Complementary weight: squared deviation at most epsilon.

    Computed by its own pass rather than as 1 - deviant, so that
    (library deviant) + (this) == 1 is a real two-sided check."""
    ps = [Fraction(p) for p in probabilities]
    epsilon = Fraction(epsilon)
    if sum(ps) != 1:
        raise ValueError(f"probabilities sum to {sum(ps)}, not 1")
    total = Fraction(0)
    for counts in _count_vectors(len(ps), n):
        if _squared_deviation(counts, ps, n) <= epsilon:
            total += _vector_weight(counts, ps)
    return total


def deviation_margin(probabilities, n: int, epsilon) -> Fraction:
    """Smallest distance between epsilon and the squared deviation of any count
    vector; a float classifier can only be trusted where this is not tiny."""
    ps = [Fraction(p) for p in probabilities]
    epsilon = Fraction(epsilon)
    return min(abs(_squared_deviation(counts, ps, n) - epsilon)
               for counts in _count_vectors(len(ps), n))
