"""Count the code lines and the options of each library module.

A code line is not blank, not a comment and not part of a module, class or
function docstring.  An option is a defaulted parameter of a public
function, or of a public method of a public class (a name without a leading
underscore, at module level); dataclass fields do not count.

    python3 tests/code_lines.py . ../parent

Prints, for each source tree given (default: this one), one line per module
of its `src/ctkit`, code lines then options, and then the totals.
"""

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in docstrings and line.strip() and not line.strip().startswith("#"))


def options(source: str) -> int:
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    public = []
    for node in ast.parse(source).body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            public.append(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            public += [f for f in node.body if isinstance(f, functions) and not f.name.startswith("_")]
    return sum(len(f.args.defaults) + sum(d is not None for d in f.args.kw_defaults) for f in public)


def main(trees) -> int:
    for tree in trees:
        print(f"== {tree}")
        sources = {p.name: p.read_text() for p in sorted((Path(tree) / "src" / "ctkit").glob("*.py"))}
        counts = {name: (code_lines(s), options(s)) for name, s in sources.items()}
        print("  code  opts module")
        for name, (lines, opts) in counts.items():
            print(f"{lines:6d} {opts:5d} {name}")
        print(f"{sum(c[0] for c in counts.values()):6d} {sum(c[1] for c in counts.values()):5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["."]))
