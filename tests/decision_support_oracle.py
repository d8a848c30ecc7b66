"""Reference decision-support check and generalised-mixture predicate, member
loop by member loop.

`games.check_decision_support` reads its checks off the members' span rows:
T1's pair partition from the products of x's rows, the diagonal states from
outer products of the rows, and the swap invariances from one product with
the stacked state vectors; `predicates.is_generalised_mixture` runs its
member tests only on the members one product with h's span block nominates.
These are the forms they replaced: T1 builds the summed pair variable with
`coarsen_variable` and sweeps with `verify_E1_E2`, the diagonal states are
sums of `np.kron` products, each swap is applied to one state at a time,
and every member of h is tested in turn, its span closure built as an
attribute.  The library pieces they call are the library's own.
"""

import math
from fractions import Fraction
from functools import cache, partial

import numpy as np

from ctkit import (
    CtError,
    DomainError,
    apply_measurer,
    apply_unitary,
    attribute_equal,
    attribute_span,
    attribute_subset,
    attributes_disjoint,
    build_measurer,
    coarsen_variable,
    detect_superinformation,
    extensional_attribute,
    intrinsic_part,
    normalized,
    partition_of_unity,
    permutation_computation,
    span_closure,
    states_equal,
    tensor,
    transposition_map,
    verify_E1_E2,
)
from ctkit.games import DecisionSupportReport, _appendix_available, _member_states
from ctkit.kernel import CLASSICAL, _row_weights
from ctkit.predicates import PredicateReport, _product_variable, _subject
from ctkit.tolerance import tol


def is_generalised_mixture(z, h, model) -> PredicateReport:
    report = partial(PredicateReport, "is_generalised_mixture",
                     _subject(z.substrate.id, "z vs", h.labels))
    for label, attr in h.members:
        if attribute_equal(z, attr):
            return report(True, {"trivial": label})
    if z.substrate.kind == CLASSICAL:
        return report(False, {"reason": "no classical attribute lies in the span "
                                        "of members it is disjoint from"})
    for label, attr in h.members:
        disjoint, witness = attributes_disjoint(z, attr)
        if not disjoint:
            return report(False, {"failed": "not disjoint", "member": label, "witness": witness})
        if attribute_subset(z, attr):
            return report(False, {"failed": "contained in a member", "member": label})
    rows = attribute_span(span_closure(h))
    atol = tol()
    if z.is_subspace:
        overlaps = attribute_span(z).conj() @ rows.T
        worst = 1.0 if not overlaps.size else \
            float(np.abs(overlaps @ overlaps.conj().T - np.eye(len(overlaps))).max())
    else:
        worst = max(abs(1.0 - float(np.sum(_row_weights(s, rows)))) for s in z.states)
    return report(worst <= atol, {"span_sharpness_gap": worst})


def _nontrivial_mixture(attr, of, model) -> bool:
    report = is_generalised_mixture(attr, of, model)
    return report.verdict and "trivial" not in report.evidence


def check_decision_support(model, x, y) -> DecisionSupportReport:
    if getattr(model, "kind", None) == CLASSICAL:
        return DecisionSupportReport(
            checks=(),
            passed=False,
            reason="no complementary observables",
            appendix_preparation_available=False,
        )
    if len(x) != 2 or len(y) != 2:
        raise DomainError("decision support covers two-valued observables")
    atol = tol()
    checks = []

    def record(name, fn):
        try:
            verdict, detail = fn()
        except CtError as exc:
            verdict, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, verdict, detail))

    xs, ys = _member_states(*x._span_block()), _member_states(*y._span_block())

    def swap(labels, states):
        return permutation_computation(
            transposition_map(labels, *labels), tuple(zip(labels, states)))

    def diagonal(states):
        return normalized(
            (np.kron(states[0].vector, states[0].vector)
             + np.kron(states[1].vector, states[1].vector))
            / math.sqrt(2), dims=(x.substrate.dim,) * 2)

    swap_x, diagonal_x = cache(lambda: swap(x.labels, xs)), cache(lambda: diagonal(xs))

    def t1():
        z = ys[0]
        part_single = partition_of_unity(z, x)
        pair = coarsen_variable(x, x, mode="sum")
        part_pair = partition_of_unity(tensor(z, z), pair)
        sweep = verify_E1_E2(z, x, (8, 24), Fraction(1, 20), final_bound=0.5)
        return (sweep.verdict, {
            "single": part_single.as_dict(),
            "pair_labels": part_pair.labels,
            "sweep_rows": [float(r.approx) for r in sweep.rows],
        })

    def r1():
        for label, attr in x.members:
            if not _nontrivial_mixture(attr, y, model):
                return False, f"member {label!r} of X is not a non-trivial mixture of Y"
        for label, attr in y.members:
            if not _nontrivial_mixture(attr, x, model):
                return False, f"member {label!r} of Y is not a non-trivial mixture of X"
        return True, "all four members are non-trivial mixtures of the other observable"

    def r2():
        s_x, s_y = swap_x(), swap(y.labels, ys)
        for v in ys:
            if not states_equal(apply_unitary(v, s_x), v):
                return False, "S_x moves a member of Y"
        for v in xs:
            if not states_equal(apply_unitary(v, s_y), v):
                return False, "S_y moves a member of X"
        return True, "both swaps fix the other observable's members"

    def r3():
        m = build_measurer(x)
        reduced = []
        for v in ys:
            out = apply_measurer(m, tensor(v, m.receptive_state()))
            reduced.append(intrinsic_part(out, 0).matrix)
        equal = float(np.abs(reduced[0] - reduced[1]).max()) <= atol
        s_x = swap_x()
        swap_inv = float(np.abs(s_x @ reduced[0] @ s_x.conj().T - reduced[0]).max()) <= atol
        return equal and swap_inv, {"reduced_equal": equal, "swap_invariant": swap_inv}

    def r4():
        q_x, q_y = diagonal_x(), diagonal(ys)
        if not states_equal(q_x, q_y):
            return False, "the two diagonal superpositions differ"
        diag_x, diag_y = (_product_variable(v, v, zip(v.members, v.members)) for v in (x, y))
        q_attr = extensional_attribute(diag_x.substrate, (q_x,))
        mix_x = _nontrivial_mixture(q_attr, diag_x, model)
        mix_y = _nontrivial_mixture(q_attr, diag_y, model)
        swap_xx = swap([(l, l) for l in x.labels], [tensor(v, v) for v in xs])
        swap_yy = swap([(l, l) for l in y.labels], [tensor(v, v) for v in ys])
        inv_x = states_equal(apply_unitary(q_x, swap_xx), q_x)
        inv_y = states_equal(apply_unitary(q_x, swap_yy), q_x)
        ok = mix_x and mix_y and inv_x and inv_y
        return ok, {"mixture_of_Sx": mix_x, "mixture_of_Sy": mix_y,
                    "swap_xx_invariant": inv_x, "swap_yy_invariant": inv_y}

    record("T1", t1)
    record("R1", r1)
    record("R2", r2)
    record("R3", r3)
    record("R4", r4)

    q_state = diagonal_x() if checks[4][1] else None
    passed = all(v for _, v, _ in checks)
    reason = None
    if not passed and not detect_superinformation(x, y, model).verdict:
        reason = "observables do not form a superinformation pair"
    return DecisionSupportReport(
        checks=tuple(checks),
        passed=passed,
        reason=reason,
        appendix_preparation_available=_appendix_available(atol),
        q=q_state,
    )
