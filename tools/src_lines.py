"""Count the lines of the package source, by kind.

    python3 tools/src_lines.py [FILE ...]

For each file (default: src/elastic_flow/*.py) prints its `wc -l` line
count and splits it into code, docstrings, comments and blank lines, then
the totals. A docstring is the leading string of a module, class or
function, and all of its lines count as docstring, blank ones included.
Outside docstrings, a line holding only whitespace is blank, one whose
first character other than whitespace is `#` is a comment, and every other
line is code, trailing comments and other strings included.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("code", "docstrings", "comments", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The `wc -l` count of `text` as "lines", and its lines of each of KINDS."""
    docs = _docstring_lines(ast.parse(text))
    found = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            found["docstrings"] += 1
        elif not stripped:
            found["blank"] += 1
        elif stripped.startswith("#"):
            found["comments"] += 1
        else:
            found["code"] += 1
    return {"lines": text.count("\n"), **found}


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted((ROOT / "src" / "elastic_flow").glob("*.py"))
    columns = ("lines", *KINDS)
    total = dict.fromkeys(columns, 0)
    print(f"{'file':<16}" + "".join(f"{c:>12}" for c in columns))
    for path in paths:
        found = count(path.read_text(encoding="utf-8"))
        print(f"{path.name:<16}" + "".join(f"{found[c]:>12}" for c in columns))
        total = {c: total[c] + found[c] for c in columns}
    print(f"{'total':<16}" + "".join(f"{total[c]:>12}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
