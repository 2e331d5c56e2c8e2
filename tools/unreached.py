"""List the functions of the package that the shipped commands never enter.

    python3 tools/unreached.py

Runs, in this one process and with the src/ of the tree the script sits
in, `simulate configs/run.cfg`, `sweep configs/sweep.cfg` and
`verify --seed 0` through `cli.main`, each into a temporary directory and
with its stdout discarded, under one `sys.setprofile` hook. Then prints
every function defined in src/elastic_flow/ (methods and nested functions
included) whose code none of them entered, with its line count, and the
totals. The snapshot writer of `simulate` runs in a forked process, which
the hook follows: a function entered only there is listed too, marked
"(forked writer only)", since an in-process trace of the same commands
does not see it enter. Exits 1 when a command does not exit 0.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "elastic_flow"
COMMANDS = (
    ("simulate", "-c", "configs/run.cfg"),
    ("sweep", "-c", "configs/sweep.cfg"),
    ("verify", "--seed", "0"),
)
FORKED = "(forked writer only)"


def defined_functions(package: Path = PACKAGE) -> dict:
    """{(path, first line): (name, lines)} of every function defined in the
    package's modules, its first line that of its first decorator, as in
    its code object's `co_firstlineno`."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = (f"{prefix}{child.name}", child.end_lineno - first + 1)
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), f"{path.stem}.")
    return found


class _Tracer:
    # the code objects entered in this process; in a forked child, each one
    # entered there is also appended to `log` as "line path", since the
    # child ends with os._exit
    active = None

    def __init__(self, log: str):
        self.entered = set()
        self.log = log
        self.fd = None

    def __call__(self, frame, event, arg) -> None:
        if event == "call" and frame.f_code not in self.entered:
            self.entered.add(frame.f_code)
            if self.fd is not None:
                os.write(self.fd, f"{frame.f_code.co_firstlineno} {frame.f_code.co_filename}\n".encode())

    @classmethod
    def after_fork_in_child(cls) -> None:
        if cls.active is not None:
            cls.active.entered = set()
            cls.active.fd = os.open(cls.active.log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)


os.register_at_fork(after_in_child=_Tracer.after_fork_in_child)


_realpath = functools.cache(os.path.realpath)


def _where(filename: str, line: int):
    return _realpath(filename), line


def unreached(commands, cwd: Path = ROOT) -> list:
    """Run each of `commands` (argument lists of `cli.main`, "-o DIR" added)
    under the hook, config paths relative to `cwd`; return (name, lines,
    forked) of every package function not entered in this process, in
    source order, `forked` true for one entered in a forked child. Raises
    RuntimeError when a command does not exit 0."""
    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        tracer = _Tracer(os.path.join(tmp, "forked.log"))
        previous = sys.getprofile()
        _Tracer.active = tracer
        sys.setprofile(tracer)
        try:
            from elastic_flow import cli  # a first import runs under the hook, as a command's does

            for k, args in enumerate(commands):
                args = [str(cwd / a) if a.startswith("configs/") else a for a in args]
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main([*args, "-o", os.path.join(tmp, str(k))])
                if status != 0:
                    raise RuntimeError(f"{' '.join(args)} exited {status}")
        finally:
            sys.setprofile(previous)
            _Tracer.active = None
        forked = set()
        if os.path.exists(tracer.log):
            with open(tracer.log, encoding="utf-8") as fh:
                for line in fh:
                    number, filename = line.rstrip("\n").split(" ", 1)
                    forked.add(_where(filename, int(number)))
    entered = {_where(code.co_filename, code.co_firstlineno) for code in tracer.entered}
    return [(name, lines, where in forked)
            for where, (name, lines) in sorted(defined_functions().items()) if where not in entered]


def main() -> int:
    try:
        rows = unreached(COMMANDS)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    width = max((len(name) for name, _, _ in rows), default=0)
    for name, lines, forked in rows:
        print(f"{name:<{width}}  {lines:>4} lines" + (f"  {FORKED}" if forked else ""))
    total = len(defined_functions())
    print(f"{len(rows)} of {total} functions ({sum(lines for _, lines, _ in rows)} lines) not entered by: "
          + "; ".join(" ".join(args) for args in COMMANDS))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
