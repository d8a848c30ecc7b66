"""Command line front end.

Every subcommand wraps one library entry point and prints a short
line-oriented report.  Exit codes follow one contract: 0 when every verdict
the command produced passed, 1 when any failed, 2 for unusable input
(unknown flags, malformed documents, values outside a precondition).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .ensembles import deviant_weight, exact_probabilities
from .errors import CtError, DomainError, ModelSpecError
from .games import check_decision_support, derive_value_mn, exact_game_value, render_trace
from .kernel import QUANTUM, extensional_attribute, is_task_possible
from .modelspec import parse_model_spec, sqrt_radicand
from .predicates import _superinformation_pair, is_information_variable, is_observable
from .tolerance import tol
from .unpredictability import unpredictability_certificate

CSV_HEADER = "N,epsilon,deviant_weight_exact,deviant_weight_float"


@dataclass(frozen=True)
class RunReport:
    """What one invocation did: named verdicts plus the exit code they imply."""

    command: str
    inputs: str
    verdicts: tuple
    elapsed: float
    exit_code: int

    def __post_init__(self):
        ok = all(v for _, v in self.verdicts)
        if (self.exit_code == 0) != ok:
            raise ValueError("exit code disagrees with the verdict list")


# ---------------------------------------------------------------------------
# Input parsing helpers


def _split(text: str, flag: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise DomainError(f"--{flag}: empty entry in {text!r}")
    return parts


def _fraction(token: str, flag: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"--{flag}: cannot read {token!r} as a rational") from None


def _int(token: str, flag: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DomainError(f"--{flag}: cannot read {token!r} as an integer") from None


def _squared_probability(token: str) -> Fraction:
    """|amplitude|^2 as an exact rational; sqrt tokens square back exactly."""
    root = sqrt_radicand(token)
    if root is not None:
        return root[1]
    return _fraction(token, "amplitudes") ** 2


def _render(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _digest(argv, spec_path) -> str:
    h = hashlib.sha256()
    for arg in argv:
        h.update(str(arg).encode())
        h.update(b"\0")
    if spec_path is not None:
        try:
            h.update(Path(spec_path).read_bytes())
        except OSError:
            pass
    return h.hexdigest()[:12]


# ---------------------------------------------------------------------------
# Subcommands; each prints its report and returns (name, passed) verdicts


def cmd_check_model(args) -> tuple:
    doc = parse_model_spec(args.spec)
    if doc.kind == QUANTUM:
        print(f"model: quantum substrate {doc.substrate.id!r} (dimension {doc.substrate.dim})")
    else:
        print(f"model: classical substrate {doc.substrate.id!r} ({doc.substrate.size()} labels)")
    verdicts = []
    observables = []
    for name, var in doc.variables.items():
        info = is_information_variable(var, doc.model)
        obs = is_observable(var, doc.model)
        ok = info.verdict and obs.verdict
        if ok:
            observables.append(var)
            wording = "information observable"
        elif info.verdict:
            wording = "information variable, not an observable"
        else:
            wording = "not an information variable"
        print(f"variable {name}: {wording}")
        verdicts.append((f"variable {name}", ok))
    for name, declared in doc.tasks.items():
        print(f"task {name}: {is_task_possible(declared, doc.model).status}")
    # detect_superinformation fails any pair with a non-observable in it
    found = any(_superinformation_pair(a, b, doc.model)[0]
                for a, b in itertools.combinations(observables, 2))
    print(f"superinformation: {'true' if found else 'false'}")
    verdicts.append(("superinformation", found))
    return tuple(verdicts)


def cmd_predict(args) -> tuple:
    doc = parse_model_spec(args.spec)
    if args.observable not in doc.variables:
        raise ModelSpecError(f"{args.spec}: no variable named {args.observable!r}")
    if args.state not in doc.states:
        raise ModelSpecError(f"{args.spec}: no state named {args.state!r}")
    x = doc.variables[args.observable]
    y = extensional_attribute(doc.substrate, (doc.states[args.state],))
    cert = unpredictability_certificate(x, y, doc.model)
    print(f"observable: {args.observable}")
    print(f"state: {args.state}")
    print(f"members of Z: {len(cert.z)}")
    print(f"cloning: {'possible' if cert.cloning_possible else 'impossible'}")
    print(f"predictor: {cert.predictor.status}")
    print(f"unpredictable: {'true' if cert.unpredictable else 'false'}")
    return (("unpredictable", cert.unpredictable),)


def cmd_converge(args) -> tuple:
    sweep = [_int(t, "N-sweep") for t in _split(args.n_sweep, "N-sweep")]
    eps = _fraction(args.epsilon, "epsilon")
    squared = [_squared_probability(t) for t in _split(args.amplitudes, "amplitudes")]
    total = sum(squared)
    if abs(float(total) - 1.0) > 1e-6:
        raise DomainError(
            f"--amplitudes: squares sum to {float(total):.8f}, not 1"
        )
    probabilities = exact_probabilities(squared) or [float(q / total) for q in squared]
    lines = [CSV_HEADER]
    for n in sweep:
        row = deviant_weight(None, n, eps, probabilities=probabilities)
        lines.append(f"{n},{args.epsilon},{row.render_exact()},{row.approx!r}")
    print("\n".join(lines))
    if args.csv:
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return ()


def cmd_value(args) -> tuple:
    weights = [_fraction(t, "weights") for t in _split(args.weights, "weights")]
    payoffs = [_fraction(t, "payoffs") for t in _split(args.payoffs, "payoffs")]
    print(_render(exact_game_value(weights, payoffs)))
    return ()


def cmd_derive(args) -> tuple:
    payoffs = [_fraction(t, "payoffs") for t in _split(args.payoffs, "payoffs")]
    if len(payoffs) != 2:
        raise DomainError("--payoffs: the derivation covers two-payoff games")
    trace = derive_value_mn(args.m, args.n, tuple(payoffs))
    print(render_trace(trace))
    print(f"value: {_render(trace.final_value)}")
    return (("derivation checks", trace.all_checks_pass),)


def cmd_decision_support(args) -> tuple:
    doc = parse_model_spec(args.spec)
    names = list(doc.variables)
    x_name = args.x if args.x is not None else (names[0] if names else None)
    y_name = args.y if args.y is not None else (names[1] if len(names) > 1 else None)
    if x_name not in doc.variables or y_name not in doc.variables:
        raise ModelSpecError(
            f"{args.spec}: decision support needs two declared observables"
        )
    report = check_decision_support(doc.model, doc.variables[x_name], doc.variables[y_name])
    for name, ok, detail in report.checks:
        print(f"{name}: pass" if ok else f"{name}: fail ({detail})")
    print(f"decision-support: {'pass' if report.passed else 'fail'}")
    if not report.passed and report.reason:
        print(f"reason: {report.reason}")
    return (("decision-support", report.passed),)


# ---------------------------------------------------------------------------
# Dispatch


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process
    (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="ctkit",
        description="Finite-model verification workbench for possibility, "
        "information and value statements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-model", help="predicate sweep over a model document")
    p.add_argument("spec", help="path to a model JSON document")
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("predict", help="unpredictability certificate for one state")
    p.add_argument("spec", help="path to a model JSON document")
    p.add_argument("--observable", required=True, help="variable name in the document")
    p.add_argument("--state", required=True, help="state name in the document")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("converge", help="deviant-weight table along an N sweep")
    p.add_argument("--amplitudes", required=True,
                   help="comma-separated amplitudes (decimals, p/q, or sqrt(p/q))")
    p.add_argument("--N-sweep", dest="n_sweep", required=True,
                   help="comma-separated replica counts")
    p.add_argument("--epsilon", required=True, help="deviation threshold")
    p.add_argument("--csv", help="also write the table to this file")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("value", help="expected payoff from explicit weights")
    p.add_argument("--weights", required=True, help="comma-separated rational weights")
    p.add_argument("--payoffs", required=True, help="comma-separated rational payoffs")
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("derive", help="step-checked value derivation for m of n branches")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--payoffs", required=True, help="the two payoff labels")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("decision-support", help="run the decision-support checklist")
    p.add_argument("spec", help="path to a model JSON document")
    p.add_argument("--x", help="first observable (default: first declared)")
    p.add_argument("--y", help="second observable (default: second declared)")
    p.set_defaults(func=cmd_decision_support)
    return parser


def run_command(argv) -> RunReport:
    argv = list(argv)
    args = _parser().parse_args(argv)
    tol()  # a bad CT_TOL is refused here, before any document names it
    started = time.perf_counter()
    verdicts = tuple(args.func(args))
    return RunReport(
        command=args.command,
        inputs=_digest(argv, getattr(args, "spec", None)),
        verdicts=verdicts,
        elapsed=time.perf_counter() - started,
        exit_code=0 if all(v for _, v in verdicts) else 1,
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        report = run_command(argv)
    except (CtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return report.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
