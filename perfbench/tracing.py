"""Spans around the public functions of each ctkit module, installed from outside.

Modules import each other's functions by name (`from .ensembles import
deviant_weight`), so a wrapper only takes effect if every module binding of
the original function is replaced.  `Tracer.install` does that by identity
over all loaded `ctkit` modules, the package namespace included.

Each span records its name, start, end, parent span and the query it belongs
to.  Spans are kept in flat arrays while the run lasts and reduced to
per-function call counts and self times when it ends.  Self time is a span's
duration minus the durations of its child spans; children are nested calls
on the same thread, so they never overlap.
"""
from __future__ import annotations

import importlib
import inspect
import math
import sys
from array import array
from time import perf_counter

# (module, function) pairs wrapped by the traced run, in report order.
TRACED = (
    ("ensembles", "deviant_weight"),
    ("ensembles", "build_counting_constructor"),
    ("ensembles", "verify_E1_E2"),
    ("ensembles", "partition_of_unity"),
    ("quantum", "unitary_task_feasible"),
    ("quantum", "gram"),
    ("quantum", "build_measurer"),
    ("quantum", "apply_measurer"),
    ("quantum", "build_comparer"),
    ("classical", "classical_possible"),
    ("kernel", "is_task_possible"),
    ("states", "apply_unitary"),
    ("states", "embed_unitary"),
    ("states", "partial_trace"),
    ("predicates", "is_information_variable"),
    ("predicates", "is_observable"),
    ("predicates", "detect_superinformation"),
    ("unpredictability", "unpredictability_certificate"),
    ("unpredictability", "predictor_feasible"),
    ("games", "derive_value_mn"),
    ("games", "check_equal_value"),
    ("games", "build_adder"),
    ("games", "check_decision_support"),
    ("modelspec", "parse_model_spec"),
    ("cli", "run_command"),
)

# Oracle functions whose combined self time is the decide workload's target.
ORACLE = ("quantum.unitary_task_feasible", "quantum.gram", "classical.classical_possible")


def _replace_everywhere(original, wrapper) -> int:
    """Rebind every ctkit module attribute that is `original`; returns the count."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ctkit" or name.startswith("ctkit.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                replaced += 1
    return replaced


class Tracer:
    """Span recorder; `active` is off while the benchmark builds and checks queries."""

    def __init__(self):
        self.active = False
        self.query = -1
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.tol_calls = 0
        # per-span facts observed from arguments and results
        self.deviant_kind: dict[int, str] = {}
        self.compositions = 0
        self.product_states = 0
        self.choice_space = 0
        self.oracle_status: dict[str, int] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "ensembles.deviant_weight": self._on_deviant_weight,
            "ensembles.build_counting_constructor": self._on_counting_constructor,
            "quantum.unitary_task_feasible": self._on_unitary_task_feasible,
        }
        for module_name, fn_name in TRACED:
            module = importlib.import_module(f"ctkit.{module_name}")
            original = getattr(module, fn_name)
            qualname = f"{module_name}.{fn_name}"
            wrapper = self._wrap(qualname, original, hooks.get(qualname))
            if not _replace_everywhere(original, wrapper):
                raise RuntimeError(f"could not wrap {qualname}")
        tolerance = importlib.import_module("ctkit.tolerance")
        original_tol = tolerance.tol

        def counted_tol(*args, **kwargs):
            if self.active:
                self.tol_calls += 1
            return original_tol(*args, **kwargs)

        _replace_everywhere(original_tol, counted_tol)

    def _wrap(self, qualname, original, hook):
        code = len(self.names)
        self.names.append(qualname)
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            idx = len(self.span_name)
            self.span_name.append(code)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_query.append(self.query)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result, idx)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        wrapper.__doc__ = original.__doc__
        return wrapper

    # -- observations made outside the call ----------------------------------

    def _on_deviant_weight(self, args, row, idx):
        probs = args.get("probabilities")
        d = len(probs) if probs is not None else len(args["c"])
        self.compositions += math.comb(args["n"] + d - 1, d - 1)
        self.deviant_kind[idx] = "float" if row.exact is None else "exact"

    def _on_counting_constructor(self, args, measurer, idx):
        self.product_states += args["basis"].substrate.dim ** args["n"]

    def _on_unitary_task_feasible(self, args, verdict, idx):
        space = 1
        for attr_in, attr_out in args["task"].pairs:
            space *= len(attr_out.states) ** len(attr_in.states)
        self.choice_space += space
        self.oracle_status[verdict.status] = self.oracle_status.get(verdict.status, 0) + 1

    # -- reduction -------------------------------------------------------------

    def reduce(self) -> tuple[list[int], list[float], list[float], list[float]]:
        """Calls, self seconds and inclusive seconds per wrapped function, and
        self seconds per span."""
        n = len(self.names)
        calls, self_s, incl_s = [0] * n, [0.0] * n, [0.0] * n
        spans = len(self.span_name)
        child = [0.0] * spans
        for i in range(spans):
            dur = self.span_end[i] - self.span_start[i]
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur
        span_self = [0.0] * spans
        for i in range(spans):
            dur = self.span_end[i] - self.span_start[i]
            span_self[i] = dur - child[i]
            code = self.span_name[i]
            calls[code] += 1
            self_s[code] += span_self[i]
            incl_s[code] += dur
        return calls, self_s, incl_s, span_self
