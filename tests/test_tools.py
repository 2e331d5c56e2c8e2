import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

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
