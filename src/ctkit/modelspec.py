"""Loading finite models from JSON documents.

A document declares one substrate plus named states, attributes, variables
and tasks, which resolve to the corresponding kernel objects.  Structural
problems (wrong shapes, unknown references) raise ModelSpecError with the
offending path; objects that parse but violate a kernel invariant re-raise
the kernel's own error type prefixed with the object's name, so a
disjointness failure stays a disjointness failure.

Scalar grammar, shared with the command line:

    7            integer
    0.25         decimal
    "3/4"        exact rational
    "sqrt(1/2)"  square root of a rational, optional leading minus
    [re, im]     complex pair; each part any real form above
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .classical import ClassicalModel
from .errors import CtError, ModelSpecError
from .kernel import (
    CLASSICAL,
    QUANTUM,
    Attribute,
    SubstrateSpec,
    Task,
    Variable,
    classical_substrate,
    extensional_attribute,
    quantum_substrate,
    subspace_attribute,
    task,
)
from .quantum import QuantumModel
from .states import PureState

_SQRT = re.compile(r"^(-?)sqrt\(\s*(\d+)\s*(?:/\s*(\d+)\s*)?\)$")


def sqrt_radicand(text: str) -> tuple[int, Fraction] | None:
    """(sign, p/q) for a `sqrt(p/q)` token, None for any other string."""
    m = _SQRT.match(text.strip())
    if m is None:
        return None
    num, den = int(m.group(2)), int(m.group(3) or 1)
    if den == 0:
        raise ModelSpecError(f"zero denominator in {text!r}")
    return (-1 if m.group(1) else 1, Fraction(num, den))


def real_token(value, where: str) -> float:
    """One real scalar: a JSON number, a rational string, or a sqrt token."""
    if isinstance(value, bool):
        raise ModelSpecError(f"{where}: booleans are not numbers")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            root = sqrt_radicand(value)
        except ModelSpecError as exc:
            raise ModelSpecError(f"{where}: {exc}") from exc
        if root is not None:
            sign, rad = root
            return sign * math.sqrt(rad)
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError):
            pass
    raise ModelSpecError(
        f"{where}: expected a number, 'p/q' or 'sqrt(p/q)', got {value!r}"
    )


def _scalar(value, where: str) -> complex:
    if isinstance(value, list):
        if len(value) != 2:
            raise ModelSpecError(f"{where}: a complex pair has exactly two parts")
        return complex(real_token(value[0], f"{where}[0]"),
                       real_token(value[1], f"{where}[1]"))
    return complex(real_token(value, where))


@dataclass(frozen=True)
class ModelSpecDocument:
    """One parsed model: the substrate, its named objects, and a backend."""

    kind: str
    substrate: SubstrateSpec
    states: dict[str, PureState]
    attributes: dict[str, Attribute]
    variables: dict[str, Variable]
    tasks: dict[str, Task]
    model: ClassicalModel | QuantumModel


def _require_mapping(doc, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ModelSpecError(f"{key}: expected an object")
    return value


def _section(doc: dict, key: str, what: str, build) -> dict:
    """Build every entry of one section as build(entry, "<key>.<name>").

    A ModelSpecError passes through unchanged; any other CtError keeps its
    type, so a disjointness error stays one, and gets "<what> '<name>': " in
    front."""
    built = {}
    for name, entry in _require_mapping(doc, key).items():
        try:
            built[name] = build(entry, f"{key}.{name}")
        except ModelSpecError:
            raise
        except CtError as exc:
            raise type(exc)(f"{what} {name!r}: {exc}") from exc
    return built


def _lookup(table: dict, ref, where: str, what: str):
    """The entry a reference names; a reference must be a string naming one."""
    if not isinstance(ref, str) or ref not in table:
        raise ModelSpecError(f"{where}: unknown {what} {ref!r}")
    return table[ref]


def _parse_substrate(doc: dict, default_id: str) -> SubstrateSpec:
    kind = doc.get("kind")
    if kind not in (CLASSICAL, QUANTUM):
        raise ModelSpecError(f"kind: expected 'classical' or 'quantum', got {kind!r}")
    sid = doc.get("id", default_id)
    if not isinstance(sid, str) or not sid:
        raise ModelSpecError("id: expected a non-empty string")
    if kind == QUANTUM:
        if "labels" in doc:
            raise ModelSpecError("labels: a quantum model declares a dimension instead")
        dim = doc.get("dimension")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ModelSpecError(f"dimension: expected a positive integer, got {dim!r}")
        return quantum_substrate(sid, dim)
    if "dimension" in doc:
        raise ModelSpecError("dimension: a classical model declares labels instead")
    labels = doc.get("labels")
    if not isinstance(labels, list) or not labels:
        raise ModelSpecError("labels: expected a non-empty list")
    for i, label in enumerate(labels):
        if not isinstance(label, (str, int, float)) or isinstance(label, bool):
            raise ModelSpecError(f"labels[{i}]: expected a string or number")
    if len(set(labels)) != len(labels):
        raise ModelSpecError("labels: duplicates are not allowed")
    return classical_substrate(sid, tuple(labels))


def _parse_states(doc: dict, substrate: SubstrateSpec) -> dict[str, PureState]:
    if substrate.kind == CLASSICAL:
        if _require_mapping(doc, "states"):
            raise ModelSpecError(
                "states: classical attributes reference labels; there is no state section"
            )
        return {}
    d = substrate.dim

    def build(entry, where):
        if isinstance(entry, dict):
            vector = entry.get("vector")
            dims = entry.get("dims", [d])
            if not isinstance(vector, list) or not isinstance(dims, list):
                raise ModelSpecError(f"{where}: expected 'vector' and 'dims' lists")
            for i, dim in enumerate(dims):
                if type(dim) is not int or dim != d:  # 2.0 would pass as a dimension
                    raise ModelSpecError(
                        f"{where}.dims[{i}]: every factor must be a copy of the "
                        f"substrate (dimension {d}), got {dim!r}"
                    )
        elif isinstance(entry, list):
            vector, dims = entry, [d]
            if len(vector) != d:
                raise ModelSpecError(
                    f"{where}: {len(vector)} amplitudes do not fill dimension {d}; "
                    "composite states need the dict form with 'dims'"
                )
        else:
            raise ModelSpecError(f"{where}: expected a vector or a vector/dims object")
        amps = np.array([_scalar(v, f"{where}[{i}]") for i, v in enumerate(vector)])
        return PureState(amps, tuple(dims))

    return _section(doc, "states", "state", build)


def _parse_attributes(doc: dict, substrate: SubstrateSpec,
                      states: dict[str, PureState]) -> dict[str, Attribute]:
    def build(entry, where):
        if not isinstance(entry, dict) or entry.get("kind") not in ("set", "subspace"):
            raise ModelSpecError(f"{where}: expected an object with kind 'set' or 'subspace'")

        def resolve(key):
            refs = entry.get(key)
            if not isinstance(refs, list):
                raise ModelSpecError(f"{where}.{key}: expected a list of state names")
            return [_lookup(states, r, f"{where}.{key}[{i}]", "state")
                    for i, r in enumerate(refs)]

        if entry["kind"] == "subspace":
            return subspace_attribute(substrate, resolve("basis"))
        if substrate.kind == CLASSICAL:
            labels = entry.get("labels")
            if not isinstance(labels, list):
                raise ModelSpecError(f"{where}.labels: expected a list of labels")
            return extensional_attribute(substrate, labels)
        return extensional_attribute(substrate, resolve("states"))

    return _section(doc, "attributes", "attribute", build)


def _parse_variables(doc: dict, substrate: SubstrateSpec,
                     attributes: dict[str, Attribute]) -> dict[str, Variable]:
    def build(entry, where):
        if not isinstance(entry, list):
            raise ModelSpecError(f"{where}: expected a list of [label, attribute] pairs")
        members = []
        for i, pair in enumerate(entry):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ModelSpecError(f"{where}[{i}]: expected a [label, attribute] pair")
            label, ref = pair
            # NaN is not a number here: it equals no label, itself included
            if isinstance(label, bool) or not isinstance(label, (str, int, float)) \
                    or label != label:
                raise ModelSpecError(f"{where}[{i}]: label must be a string or number")
            members.append((label, _lookup(attributes, ref, f"{where}[{i}]", "attribute")))
        return Variable(substrate, members)  # its span block is derived on the first read

    return _section(doc, "variables", "variable", build)


def _parse_tasks(doc: dict, substrate: SubstrateSpec,
                 attributes: dict[str, Attribute]) -> dict[str, Task]:
    def build(entry, where):
        if not isinstance(entry, dict) or not isinstance(entry.get("pairs"), list):
            raise ModelSpecError(f"{where}: expected an object with a 'pairs' list")
        side = entry.get("side_effects", False)
        if not isinstance(side, bool):
            raise ModelSpecError(f"{where}.side_effects: expected true or false")
        pairs = []
        for i, pair in enumerate(entry["pairs"]):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ModelSpecError(f"{where}.pairs[{i}]: expected an [in, out] pair")
            pairs.append(tuple(_lookup(attributes, ref, f"{where}.pairs[{i}]", "attribute")
                               for ref in pair))
        return task(substrate, pairs, side_effects=side)

    return _section(doc, "tasks", "task", build)


def parse_model_spec(path) -> ModelSpecDocument:
    """Read, resolve and validate one model document."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelSpecError(f"{path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelSpecError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ModelSpecError(f"{path}: the top level must be an object")
    known = {"kind", "id", "dimension", "labels", "states", "attributes",
             "variables", "tasks"}
    for key in doc:
        if key not in known:
            raise ModelSpecError(f"{key}: unknown section")
    substrate = _parse_substrate(doc, default_id=path.stem)
    states = _parse_states(doc, substrate)
    attributes = _parse_attributes(doc, substrate, states)
    variables = _parse_variables(doc, substrate, attributes)
    tasks = _parse_tasks(doc, substrate, attributes)
    if substrate.kind == CLASSICAL:
        model: ClassicalModel | QuantumModel = ClassicalModel(substrate)
    else:
        model = QuantumModel(substrate)
    return ModelSpecDocument(
        kind=substrate.kind,
        substrate=substrate,
        states=states,
        attributes=attributes,
        variables=variables,
        tasks=tasks,
        model=model,
    )
