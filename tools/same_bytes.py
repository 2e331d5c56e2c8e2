"""Check that the command line writes the same bytes as a git revision.

    python3 tools/same_bytes.py REV

Exports REV with `git archive` into a temporary directory, without
touching the working tree or `.git`. Then runs, on that tree and on the
working tree the script sits in, each with its own src/ on PYTHONPATH and
its own configs/:

    simulate configs/run.cfg (stride 1 and 7), sweep configs/sweep.cfg,
    verify --seed 0

and compares every output file and each command's stdout and exit status
byte for byte. Prints the first file that differs and exits 1 on any
difference; exits 0 when all match. `verify`'s "within"/"over" budget
words come from the wall clock, so a difference confined to them is named
as such, and still counts as a difference.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CASES = {
    "simulate-1": ("simulate", "-c", "configs/run.cfg", "--stride", "1"),
    "simulate-7": ("simulate", "-c", "configs/run.cfg", "--stride", "7"),
    "sweep": ("sweep", "-c", "configs/sweep.cfg"),
    "verify": ("verify", "--seed", "0"),
}
_MAIN = "import sys\nfrom elastic_flow.cli import main\nsys.exit(main(sys.argv[1:]))"
_BUDGET_WORDS = re.compile(rb"\b(within|over)\b")


def run_cases(tree: Path, out: Path) -> None:
    """Run every case on `tree`, each into out/<case>/, its stdout and exit
    status into out/<case>.stdout. Config paths are absolute and output
    paths relative to `out`, so the printed text names no tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out.mkdir(parents=True)
    for case, args in CASES.items():
        args = [str(tree / a) if a.startswith("configs/") else a for a in args]
        proc = subprocess.run([sys.executable, "-c", _MAIN, *args, "-o", case],
                              cwd=out, env=env, capture_output=True)
        (out / f"{case}.stdout").write_bytes(proc.stdout + b"exit status %d\n" % proc.returncode)


def export(root: Path, rev: str, dest: Path) -> str | None:
    """Extract revision `rev` of the repository at `root` into the new
    directory `dest` with `git archive`, touching neither the working tree
    nor `.git`. Returns git's message when it cannot, else None."""
    archive = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev], capture_output=True)
    if archive.returncode:
        return archive.stderr.decode(errors="replace").strip()
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return None


def _files(top: Path) -> set[str]:
    return {p.relative_to(top).as_posix() for p in top.rglob("*") if p.is_file()}


def compare(a: Path, b: Path) -> str | None:
    """None when directories `a` and `b` hold the same files with the same
    bytes; otherwise a line naming the first file, by relative path, that
    is in one of them only or differs, and whether only budget words differ."""
    for name in sorted(_files(a) | _files(b)):
        if not ((a / name).is_file() and (b / name).is_file()):
            return f"{name}: in one tree only"
        x, y = (a / name).read_bytes(), (b / name).read_bytes()
        if x != y:
            if _BUDGET_WORDS.sub(b"?", x) == _BUDGET_WORDS.sub(b"?", y):
                return f"{name}: differs only in verify's budget words (within/over), which come from the wall clock"
            return f"{name}: differs"
    return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare the command line's output bytes with those of REV.")
    parser.add_argument("rev", help="a git revision, for example HEAD")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        tmp = Path(tmp)
        tree = tmp / "rev"
        error = export(ROOT, rev, tree)
        if error:
            print(error, file=sys.stderr)
            return 2
        run_cases(tree, tmp / "out-rev")
        run_cases(ROOT, tmp / "out-work")
        found = compare(tmp / "out-rev", tmp / "out-work")
        count = len(_files(tmp / "out-work"))
    if found:
        print(f"{rev} and the working tree differ: {found}")
        return 1
    print(f"{rev} and the working tree wrote the same bytes: {count} files of {len(CASES)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
