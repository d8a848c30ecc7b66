"""Seeded mutations of JSON model documents, shared by the loader fuzz, the
hash-seed test and the differential script.

Nothing here imports ctkit, so a process can load this module before it
chooses which source tree to import the library from.
"""

import copy
import json
import random

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
