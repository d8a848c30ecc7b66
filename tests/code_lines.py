"""Count the code lines of each library module: lines that are not blank,
not a comment and not part of a module, class or function docstring.

    python3 tests/code_lines.py . ../parent

Prints, for each source tree given (default: this one), one line per module
of its `src/ctkit` and then the total.
"""

import ast
import sys
from pathlib import Path


def code_lines(path: Path) -> int:
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in docstrings and line.strip() and not line.strip().startswith("#"))


def main(trees) -> int:
    for tree in trees:
        print(f"== {tree}")
        counts = {p.name: code_lines(p) for p in sorted((Path(tree) / "src" / "ctkit").glob("*.py"))}
        for name, count in counts.items():
            print(f"{count:6d} {name}")
        print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["."]))
