import importlib.util
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_bytes = _load(_ROOT / "tools" / "same_bytes.py")
src_lines = _load(_ROOT / "tools" / "src_lines.py")
unreached = _load(_ROOT / "tools" / "unreached.py")

_REPORT = b"01-stationarity PASS max node displacement 0.000e+00; runtime within 5 s budget\n"


def _tree(top: Path, files: dict) -> Path:
    for name, content in files.items():
        (top / name).parent.mkdir(parents=True, exist_ok=True)
        (top / name).write_bytes(content)
    return top


@pytest.fixture
def pair(tmp_path):
    files = {"run.stdout": b"reached_t_end; wrote 3 files to run\nexit status 0\n",
             "run/snapshot_000000.txt": b"n=16 length=1 t=0 eps=0.10000000000000001\n",
             "verify/verify_report.txt": _REPORT}
    return _tree(tmp_path / "a", files), _tree(tmp_path / "b", files)


def test_matching_trees_compare_equal(pair):
    assert same_bytes.compare(*pair) is None


def test_one_byte_names_the_first_differing_file(pair):
    a, b = pair
    (b / "run/snapshot_000000.txt").write_bytes(b"n=16 length=1 t=0 eps=0.10000000000000002\n")
    (b / "verify/verify_report.txt").write_bytes(_REPORT.replace(b"5 s", b"6 s"))
    assert same_bytes.compare(a, b) == "run/snapshot_000000.txt: differs"


def test_a_file_in_one_tree_only_is_a_difference(pair):
    a, b = pair
    (a / "run/diagnostics.csv").write_bytes(b"")
    assert same_bytes.compare(a, b) == "run/diagnostics.csv: in one tree only"


def test_budget_words_alone_are_named(pair):
    a, b = pair
    (b / "verify/verify_report.txt").write_bytes(_REPORT.replace(b"within", b"over"))
    assert same_bytes.compare(a, b) == (
        "verify/verify_report.txt: differs only in verify's budget words (within/over), which come from the wall clock"
    )


# two steps of a segment of 16 segments, and a sweep of two rows of four
_TINY_CFG = "[flow]\nepsilon = 0.1\nn = 16\ndt = 1e-3\nt_end = 2e-3\n[initial]\nfamily = segment\n"
_TINY_SWEEP_CFG = _TINY_CFG.replace("2e-3", "4e-3") + "[sweep]\nepsilons = 0.2, 0.1\ndelta = 0\nk_max = 0\n"


def _throwaway_repo(top, scripts):
    # a git repository holding a copy of src/, the scripts and the tiny
    # configs, committed
    repo = top / "repo"
    shutil.copytree(_ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (repo / "tools").mkdir()
    for script in scripts:
        shutil.copy(_ROOT / "tools" / script, repo / "tools")
    (repo / "configs").mkdir()
    (repo / "configs" / "tiny.cfg").write_text(_TINY_CFG)
    (repo / "configs" / "tiny_sweep.cfg").write_text(_TINY_SWEEP_CFG)
    for args in (["init", "-q"], ["add", "."],
                 ["-c", "user.name=test", "-c", "user.email=test@example.com", "-c", "commit.gpgsign=false",
                  "commit", "-q", "-m", "tiny"]):
        subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)
    return repo


def test_same_bytes_end_to_end(tmp_path, capsys):
    # the copied script runs on its throwaway repository
    repo = _throwaway_repo(tmp_path, ["same_bytes.py"])
    copy = _load(repo / "tools" / "same_bytes.py")
    copy.CASES = {"simulate": ("simulate", "-c", "configs/tiny.cfg"), "verify": ("verify", "--filter", "09", "--seed", "0")}

    assert copy.main(["HEAD"]) == 0
    assert capsys.readouterr().out == "HEAD and the working tree wrote the same bytes: 7 files of 2 commands\n"

    (repo / "configs" / "tiny.cfg").write_text(_TINY_CFG + "qx = 2\n")
    assert copy.main(["HEAD"]) == 1
    assert capsys.readouterr().out == "HEAD and the working tree differ: simulate/diagnostics.csv: differs\n"


def test_pairs_end_to_end(tmp_path, capsys):
    # one pair of each case on the tiny configs of a throwaway repository
    repo = _throwaway_repo(tmp_path, ["same_bytes.py", "pairs.py"])
    copy = _load(repo / "tools" / "pairs.py")
    copy.CASES = {"run": "configs/tiny.cfg", "run_sweep": "configs/tiny_sweep.cfg"}
    copy.PAIRS = 1

    assert copy.main(["HEAD"]) == 0
    (path,) = repo.glob("BENCH_*.json")
    record = json.loads(path.read_text())
    rev = subprocess.run(["git", "-C", str(repo), "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    assert path.name == f"BENCH_{record['date']}_{rev.stdout.strip()}.json"
    assert record["machine"]["cores"] == os.cpu_count()
    assert list(record["workloads"]) == ["run", "run_sweep"]
    for entry in record["workloads"].values():
        assert entry["pairs"] == 1
        for side in ("parent", "change"):
            (seconds,) = entry["runs"][side]
            assert 0.0 < seconds < 10.0
            assert entry[side]["median"] == entry[side]["q1"] == entry[side]["q3"] == round(seconds, 4)
        assert entry["change_lower_in_pairs"] in ("0/1", "1/1")
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["run", "run_sweep", f"wrote {path.name}"]


def test_unreached_lists_what_a_tiny_simulate_does_not_enter(tmp_path):
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "tiny.cfg").write_text(_TINY_CFG)
    rows = unreached.unreached([("simulate", "-c", "configs/tiny.cfg")], cwd=tmp_path)
    found = {name: (lines, forked) for name, lines, forked in rows}
    # the negative control of `verify`, which no simulate calls
    assert found["geometry.set_stencil_corruption"] == (3, False)
    # the snapshot writer's loop, entered only in its forked process
    assert found["writer._write_blocks"][1] is True
    assert "flow.run_batch" not in found and "writer.SnapshotWriter._fork" not in found


_MODULE = '''"""A module docstring,
on two lines."""

import os  # a trailing comment is code

# a comment


def f(x):
    """One line."""
    # an indented comment
    text = """a string that is not
a docstring is code"""
    return x


class C:
    """A class docstring.

    Its blank line is docstring.
    """
'''


def test_src_lines_splits_a_module_by_kind(tmp_path, capsys):
    want = {"lines": 21, "code": 6, "docstrings": 7, "comments": 2, "blank": 6}
    assert src_lines.count(_MODULE) == want
    (tmp_path / "m.py").write_text(_MODULE)
    assert src_lines.main([str(tmp_path / "m.py")] * 2) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["file", "lines", "code", "docstrings", "comments", "blank"]
    assert rows[1] == rows[2] == ["m.py", "21", "6", "7", "2", "6"]
    assert rows[3] == ["total", "42", "12", "14", "4", "12"]
