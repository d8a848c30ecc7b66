"""Seeded mutations of JSON model documents, shared by the loader fuzz, the
hash-seed test and the differential script.

Three families.  `mutate` edits anywhere, with any value, so most of its
documents are refused by the loader: they test the error paths.
`perturb` edits only within the grammar (amplitudes and phases,
renormalised; variable labels; which declared state or label an attribute
names), so most of its documents load and reach the predicates.  `overlap`
makes two attributes of a classical variable share two or more labels, so
the shared state an error names shows the order the check reads them in.

Nothing here imports ctkit, so a process can load this module before it
chooses which source tree to import the library from.
"""

import cmath
import copy
import json
import math
import random
import re
from fractions import Fraction

_FUZZ_VALUES = ({}, [], None, True, 0, 1, -1, 2.5, "", "x", "1/0", "sqrt(1/2)",
                [0, 1], ["x"], [{}], {"kind": "set"}, float("nan"), float("inf"))


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def mutate(doc, rng):
    """One random edit of a JSON document: replace a value (by a stock value,
    a declared name or another node), drop it, or repeat a list entry."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))[1:]
    path = paths[rng.randrange(len(paths))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    names = [n for sec in ("states", "attributes") for n in doc.get(sec, {})]
    op = rng.randrange(4)
    if op == 0:
        parent[key] = rng.choice(_FUZZ_VALUES + tuple(names))
    elif op == 1:
        del parent[key]
    elif op == 2:
        other = doc
        for k in paths[rng.randrange(len(paths))]:
            other = other[k]
        parent[key] = copy.deepcopy(other)
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key + "_copy"] = copy.deepcopy(parent[key])
    return doc


def mutated_documents(fixtures, count):
    """count documents, each one mutation of the next fixture in turn, from
    one generator seeded with 10: the first documents of the loader fuzz in
    `tests/test_modelspec.py`, in its order."""
    rng = random.Random(10)
    for i in range(count):
        yield mutate(json.loads(fixtures[i % len(fixtures)].read_text()), rng)


# ---------------------------------------------------------------------------
# Edits within the grammar

_SQRT = re.compile(r"^(-?)sqrt\((\d+)(?:/(\d+))?\)$")
_PHASES = (-1, 1j, -1j, cmath.exp(1j * math.pi / 4))
_LABELS = (0, 1, 2, 3, -1, 2.5, "+", "-", "a", "red")


def _real(token) -> float:
    """A real scalar of the document grammar: a number, 'p/q' or 'sqrt(p/q)'."""
    if isinstance(token, str):
        root = _SQRT.match(token.replace(" ", ""))
        if root is None:
            return float(Fraction(token))
        sign = -1.0 if root.group(1) else 1.0
        return sign * math.sqrt(Fraction(int(root.group(2)), int(root.group(3) or 1)))
    return float(token)


def _scalar(token) -> complex:
    if isinstance(token, list):
        return complex(_real(token[0]), _real(token[1]))
    return complex(_real(token))


def _amplitudes(doc, name) -> list:
    """The amplitude list of a declared state, in place."""
    entry = doc["states"][name]
    return entry["vector"] if isinstance(entry, dict) else entry


def _new_magnitudes(doc, name, rng) -> None:
    """Squared magnitudes k_i / sum(k) with k_i in 0..3, signs kept, as
    exact 'sqrt(p/q)' tokens."""
    amps = _amplitudes(doc, name)
    counts = [rng.randrange(4) for _ in amps]
    if not any(counts):
        counts[rng.randrange(len(counts))] = 1
    total = sum(counts)
    for i, (k, old) in enumerate(zip(counts, amps)):
        sign = "-" if _scalar(old).real < 0 else ""
        amps[i] = f"{sign}sqrt({k}/{total})" if k else 0


def _new_phase(doc, name, rng) -> None:
    """One nonzero amplitude times a phase; the vector is renormalised and
    written as [re, im] pairs."""
    amps = _amplitudes(doc, name)
    values = [_scalar(a) for a in amps]
    i = rng.choice([k for k, v in enumerate(values) if v])
    values[i] *= rng.choice(_PHASES)
    norm = math.sqrt(sum(abs(v) ** 2 for v in values))
    amps[:] = [[v.real / norm, v.imag / norm] for v in values]


def _new_label(doc, rng) -> None:
    """One variable member gets another label (a repeat within the variable
    is possible, and is refused by the loader)."""
    members = [m for v in doc.get("variables", {}).values() for m in v]
    member = rng.choice(members)
    member[0] = rng.choice(_LABELS)


def _new_reference(doc, rng) -> None:
    """One entry of an attribute names another declared state (quantum) or
    another substrate label (classical)."""
    quantum = doc.get("kind") == "quantum"
    pool = list(doc.get("states", {})) if quantum else list(doc.get("labels", []))
    attr = doc["attributes"][rng.choice(list(doc["attributes"]))]
    key = "labels" if not quantum else "basis" if attr.get("kind") == "subspace" else "states"
    refs = attr[key]
    refs[rng.randrange(len(refs))] = rng.choice(pool)


def perturb(doc, rng):
    """One to three random edits of a model document, each within the
    grammar: new magnitudes or a new phase of a declared state, a new
    variable label, or a new state (label) an attribute names."""
    doc = copy.deepcopy(doc)
    for _ in range(1 + rng.randrange(3)):
        edits = ["label", "reference"] + (["magnitudes", "phase"] if doc.get("states") else [])
        edit = rng.choice(edits)
        if edit == "label":
            _new_label(doc, rng)
        elif edit == "reference":
            _new_reference(doc, rng)
        else:
            name = rng.choice(list(doc["states"]))
            (_new_magnitudes if edit == "magnitudes" else _new_phase)(doc, name, rng)
    return doc


def perturbed_documents(fixtures, count):
    """count documents, each a perturbation of the next fixture in turn,
    from one generator seeded with 13 (the `mutate` stream is untouched)."""
    rng = random.Random(13)
    for i in range(count):
        yield perturb(json.loads(fixtures[i % len(fixtures)].read_text()), rng)


# ---------------------------------------------------------------------------
# Classical attributes that share labels


def overlap(doc, rng):
    """Two attributes of one variable of a classical document, rewritten to
    share two or more labels, each with the shared labels and some others in
    a random order."""
    doc = copy.deepcopy(doc)
    members = rng.choice([v for v in doc["variables"].values() if len(v) > 1])
    labels = list(doc["labels"])
    shared = rng.sample(labels, rng.randrange(2, len(labels) + 1))
    for _, name in rng.sample(members, 2):
        own = shared + [l for l in labels if l not in shared and rng.random() < 0.5]
        rng.shuffle(own)
        doc["attributes"][name] = {"kind": "set", "labels": own}
    return doc


def overlapping_documents(fixtures, count):
    """count documents, each an `overlap` of the next classical fixture with
    string labels (whose hashes, unlike an int's, depend on the hash seed),
    from one generator seeded with 17."""
    docs = [json.loads(f.read_text()) for f in fixtures]
    pool = [d for d in docs if d.get("kind") == "classical"
            and all(isinstance(label, str) for label in d["labels"])]
    rng = random.Random(17)
    for i in range(count):
        yield overlap(pool[i % len(pool)], rng)
