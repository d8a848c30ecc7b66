"""Source hygiene: every name a library module imports is used in it, and
every private module-level function is referenced from outside its body."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ctkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Any, List\nx: List = 1\n") == [
        "Any (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions named `_x` (not dunders) that no statement of
    any of the sources refers to, by name or attribute, outside their own
    definition."""
    defined = {}
    referenced = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    stmt.name.startswith("_") and not stmt.name.startswith("__"):
                own = stmt.name
                defined[own] = module
            referenced |= names - {own}
    return sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in referenced)


def test_the_check_sees_an_unreferenced_private_function():
    sources = {
        "a.py": "def _used():\n    return 1\n\ndef _dead():\n    return _dead()\n"
                "def __dunder__():\n    pass\n",
        "b.py": "from a import _used\n\ndef public():\n    return _used() + a._via_attr()\n",
        "c.py": "def _via_attr():\n    pass\n\ndef _gone():\n    pass\n",
    }
    assert _unreferenced_private_functions(sources) == ["a.py: _dead", "c.py: _gone"]


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private_functions(sources) == []


DENSE_WEIGHT_ROUTES = {"attribute_projector", "expectation", "flag_projector"}


def _dense_weight_calls(source: str) -> list[str]:
    """Calls, by name or attribute, of a route that reads a weight through a
    d x d operator, outside the definitions of those routes."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                node.name in DENSE_WEIGHT_ROUTES:
            return
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in DENSE_WEIGHT_ROUTES:
                found.append(f"{name} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_check_sees_a_dense_weight_call():
    source = ("def expectation(s, op):\n    return expectation(s, op)\n\n"
              "def weight(s, a, m):\n    p = attribute_projector(a)\n"
              "    return states.expectation(s, p) + m.flag_projector(0).sum()\n")
    assert _dense_weight_calls(source) == [
        "attribute_projector (line 5)", "expectation (line 6)", "flag_projector (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_library_weight_goes_through_a_dense_operator(path):
    """Weights are read off span rows (`kernel._row_weights`); the dense
    routes stay public, and `tests/weight_oracle.py` uses them as reference."""
    assert _dense_weight_calls(path.read_text()) == []


def test_the_counter_sees_code_lines_and_options():
    """`tests/code_lines.py` skips blanks, comments and docstrings, and counts
    the defaulted parameters of public functions and public methods of
    public classes, but not dataclass fields."""
    from code_lines import code_lines, options

    source = ('"""Module."""\n\n'
              "@dataclass\nclass Spec:\n    size: int = 3\n\n"
              "    def grow(self, by=1, *, to=None, strict):\n        # a comment\n        return by\n\n"
              "    def _hidden(self, a=1):\n        pass\n\n"
              "class _Private:\n    def shown(self, a=1):\n        pass\n\n"
              'def public(a, b=2, *, c=3):\n    """Doc."""\n    def inner(d=4):\n        pass\n\n'
              "def _private(a=1):\n    pass\n")
    assert options(source) == 4  # grow: by, to; public: b, c
    assert code_lines(source) == 15
