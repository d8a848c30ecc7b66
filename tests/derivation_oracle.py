"""The value derivation's steps 5-7 with exact labels and a built o-register.

`ctkit.games` reads the o-register's partition of unity off the diagonal of
its reduced state, over integer labels in half units.  Here the labels are
`Fraction`s, and the register is a variable built with `variable`,
`extensional_attribute` and `basis_state` (label lam holds the standard kets
|j> labeled lam) and passed through `partition_of_unity`; every check walks
the labels one at a time.  Step 4's state is prepared with the same public
calls as the library's, so the tests can hold steps 5-7 to the same flags,
conclusions and exact `mean`, and to the same doubles up to summation order.
Additivity is held, as in the library, to tol() scaled by the payoffs' size.

    reference_steps(m, n, payoffs, labels=None) -> (EqualValue, Additivity, NonSymmetric)

`labels` overrides the target register's labels (one per standard ket).
"""

import math
from fractions import Fraction

import numpy as np

from ctkit import (
    DerivationStep,
    PureState,
    apply_measurer,
    basis_members,
    basis_state,
    build_measurer,
    extensional_attribute,
    intrinsic_part,
    normalized,
    partition_of_unity,
    quantum_substrate,
    states_equal,
    tensor,
    variable,
)
from ctkit.tolerance import tol


def block_labels(m: int, n: int) -> list:
    """Each block of the register centered on zero."""
    return ([Fraction(j) - Fraction(m - 1, 2) for j in range(m)]
            + [Fraction(j - m) - Fraction(n - m - 1, 2) for j in range(m, n)])


def target_variable(labels):
    """The o-register observable, through the validating constructors."""
    n = len(labels)
    sub = quantum_substrate(f"o-register[{n}]", n)
    buckets = {}
    for j, lam in enumerate(labels):
        buckets.setdefault(lam, []).append(basis_state(n, j))
    return variable(sub, [(lam, extensional_attribute(sub, states))
                          for lam, states in sorted(buckets.items())])


def weighted_labels(part) -> float:
    return float(sum(float(v) * float(l) for l, v in part.items))


def in_block(i: int, j: int, m: int) -> bool:
    return (i == 0 and j < m) or (i == 1 and j >= m)


def reference_steps(m: int, n: int, payoffs, labels=None) -> tuple:
    atol = tol()
    x1, x2 = (Fraction(p) for p in payoffs)
    final = (m * x1 + (n - m) * x2) / n
    scaled = atol * max(1.0, abs(float(x1)), abs(float(x2)))
    sub = quantum_substrate(f"payoff[{x1},{x2}]", 2)
    x = variable(sub, [(l, extensional_attribute(sub, (s,))) for l, s in basis_members((x1, x2))])

    # step 4's state
    b1, b2 = (normalized(a.states[0].vector) for a in x.attributes)  # v/|v|
    amp1, amp2 = math.sqrt(m / n), math.sqrt((n - m) / n)
    y_state = normalized(amp1 * b1.vector + amp2 * b2.vector)
    o1 = normalized([1.0 if j < m else 0.0 for j in range(n)])
    o2 = normalized([1.0 if j >= m else 0.0 for j in range(n)])
    measurer = build_measurer(x, flag_states={x1: o1, x2: o2})
    measured = apply_measurer(measurer, tensor(y_state, measurer.receptive_state()))
    s_vec = amp1 * np.kron(b1.vector, o1.vector) + amp2 * np.kron(b2.vector, o2.vector)

    labels = block_labels(m, n) if labels is None else list(labels)
    sums_zero = sum(labels[:m]) == 0 and sum(labels[m:]) == 0
    flip = [*range(m - 1, -1, -1), *range(n - 1, m - 1, -1)]
    negates = all(labels[flip[j]] == -labels[j] for j in range(n))
    fixes_o = (states_equal(PureState(o1.vector[flip]), o1)
               and states_equal(PureState(o2.vector[flip]), o2))
    rho_o = intrinsic_part(measured, 1)
    invariant = float(np.abs(rho_o.matrix[np.ix_(flip, flip)] - rho_o.matrix).max()) <= atol
    part_o = partition_of_unity(rho_o, target_variable(labels))
    value_o = weighted_labels(part_o)
    weight_o = part_o.as_dict()
    mirrored = all(-lam in weight_o and abs(weight_o[lam] - weight_o[-lam]) <= atol
                   for lam in weight_o)
    zero_ok = abs(value_o) <= atol
    equal_value = DerivationStep(
        rule="EqualValue",
        premises=("reflection-invariant partition on the target",),
        conclusion="V{target factor of s} = 0",
        check=sums_zero and negates and fixes_o and invariant and mirrored and zero_ok,
        computation={
            "block_sums_zero": sums_zero,
            "reversal_negates_labels": negates,
            "reversal_fixes_o_states": fixes_o,
            "reduced_state_invariant": invariant,
            "target_value": value_o,
        },
    )

    amps = np.array([b1.vector, b2.vector]).conj() @ s_vec.reshape(2, n)
    payoff_of = {0: x1, 1: x2}
    total = float(sum(
        abs(a) ** 2 * float(payoff_of[i] + labels[j]) for (i, j), a in np.ndenumerate(amps)))
    source_value = weighted_labels(partition_of_unity(intrinsic_part(measured, 0), x))
    additivity = DerivationStep(
        rule="Additivity",
        premises=("V{target} = 0",),
        conclusion="V{G_{X+L}(s)} = V{G_X(s)} + V{G_L(s)} = V{G_X(y)} + 0",
        check=abs(total - (source_value + value_o)) <= scaled,
        computation={"total_value": total, "source_value": source_value},
    )

    uniform = all(
        abs(abs(a) - (1.0 / math.sqrt(n) if in_block(i, j, m) else 0.0)) <= atol
        for (i, j), a in np.ndenumerate(amps))
    branch_payoffs = [payoff_of[i] + labels[j]
                      for i in range(2) for j in range(n) if in_block(i, j, m)]
    mean = sum(branch_payoffs, Fraction(0)) / n
    non_symmetric = DerivationStep(
        rule="NonSymmetric",
        premises=("uniform n-branch expansion", "symmetric case value = branch mean"),
        conclusion=f"V{{G_X(y)}} = ({m}*{x1} + {n - m}*{x2})/{n} = {final}",
        check=uniform and mean == final and len(branch_payoffs) == n,
        computation={"branches": len(branch_payoffs), "mean": str(mean)},
    )
    return equal_value, additivity, non_symmetric
