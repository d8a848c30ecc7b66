"""The unpruned line walk: every line of count vectors, one after another.

`ctkit.ensembles` skips whole subtrees of lines whose head counts already
put every vector past epsilon, and binary-splits long band sums.  The walk
here visits every line (an odometer over the head counts), rebuilds each
line's coefficient from scratch and sums each band term by term, so the
tests can hold the pruned walk to the same integers and, for float rows,
to the same doubles up to rounding.  Its float row classifies every vector
with the library's expression, so only summation order differs.
"""

import math

import numpy as np


def heads(total: int, parts: int):
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


def exact_lines(n: int, eps, den: int, a: list) -> tuple[int, int]:
    """(deviant, within) numerators over den**n for a_x = p_x * den."""
    *top, u, v = a if len(a) > 1 else (0, *a)
    bound = 2 * eps.numerator * (n * den) ** 2
    deviant = within = 0
    for head in heads(n, len(top)):
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


def exact_row(probs, n: int, eps) -> tuple[int, int, int]:
    """(deviant, within, den**n) for exact probabilities, zeros dropped."""
    kept = [p for p in probs if p != 0]
    den = math.lcm(*(p.denominator for p in kept))
    deviant, within = exact_lines(n, eps, den, [p.numerator * (den // p.denominator)
                                                for p in kept])
    return deviant, within, den ** n


def float_row(probs, n: int, eps: float) -> float:
    """The float deviant weight, every vector of every line in log space."""
    kept = [float(p) for p in probs if p != 0]
    if len(kept) == 1:
        return math.exp(n * math.log(kept[0])) if (1.0 - kept[0]) ** 2 > eps else 0.0
    *top, u, v = kept
    lg = np.fromiter((math.lgamma(k + 1) for k in range(n + 1)), float, n + 1)
    deviant = 0.0
    for head in heads(n, len(top)):
        m = n - sum(head)
        offsets = [k / n - p for k, p in zip(head, top)]
        head_dev = sum((y * y for y in offsets), 0.0)  # numpy's ** 2 is y * y too
        head_log = lg[n] + sum(k * math.log(p) - lg[k] for k, p in zip(head, top))
        j = np.arange(m + 1)
        rest = m - j
        strays = head_dev + (j / n - u) ** 2 + (rest / n - v) ** 2 > eps
        j, rest = j[strays], rest[strays]
        deviant += float(np.exp(head_log + j * math.log(u) - lg[j]
                                + rest * math.log(v) - lg[rest]).sum())
    return deviant
