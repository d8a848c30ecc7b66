"""Independent deviant weights for checking convergence rows.

The library walks count compositions recursively and accumulates `Fraction`
weights.  The exact reference here works in plain integers over the natural
denominator L**n instead: with p_x = a_x / L, a count vector k deviates when

    eps.denominator * sum_x (k_x*L - n*a_x)**2 > eps.numerator * n**2 * L**2,

and its weight numerator is the multinomial coefficient times prod a_x**k_x.
Count vectors come from stars and bars.  The float reference sums
log-gamma weights, so it shares no arithmetic with the library's
`coeff * p**k` loop; only the deviation test repeats the library's float
expression, so that both sides classify each count vector the same way.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def count_vectors(n: int, parts: int):
    """All length-`parts` tuples of non-negative ints summing to n."""
    slots = n + parts - 1
    for bars in combinations(range(slots), parts - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(slots - prev - 1)
        yield tuple(counts)


def exact_deviant(probs, n: int, eps: Fraction) -> tuple[Fraction, int]:
    """(deviant weight, natural denominator L**n) for rational probabilities."""
    probs = [Fraction(p) for p in probs]
    if sum(probs) != 1:
        raise ValueError("probabilities must sum to 1")
    den = math.lcm(*(p.denominator for p in probs))
    a = [p.numerator * (den // p.denominator) for p in probs]
    fact = [1] * (n + 1)
    for k in range(1, n + 1):
        fact[k] = fact[k - 1] * k
    powers = []
    for ax in a:
        row = [1] * (n + 1)
        for k in range(1, n + 1):
            row[k] = row[k - 1] * ax
        powers.append(row)
    bound = eps.numerator * n * n * den * den
    numerator = 0
    for ks in count_vectors(n, len(a)):
        spread = sum((k * den - n * ax) ** 2 for k, ax in zip(ks, a))
        if eps.denominator * spread > bound:
            weight = fact[n]
            for k in ks:
                weight //= fact[k]
            for k, row in zip(ks, powers):
                weight *= row[k]
            numerator += weight
    natural = den ** n
    return Fraction(numerator, natural), natural


def float_deviant(probs, n: int, eps: float) -> float:
    """Deviant weight for float probabilities, summed from log-gamma weights."""
    logs = [math.log(p) for p in probs]
    head = math.lgamma(n + 1)
    total = 0.0
    for ks in count_vectors(n, len(probs)):
        delta = sum((k / n - p) ** 2 for k, p in zip(ks, probs))
        if delta > eps:
            log_w = head + sum(k * lp - math.lgamma(k + 1) for k, lp in zip(ks, logs))
            total += math.exp(log_w)
    return total


def floats_agree(value: float, reference: float) -> bool:
    return abs(value - reference) <= 1e-9 * abs(reference) + 1e-300
