"""End-to-end verification: every criterion must pass at its stated
tolerance. One line per criterion is printed so a plain `pytest -s` run
doubles as the acceptance report."""

import pytest

from elastic_flow import acceptance

_RESULTS: dict = {}


def _criterion(label: str) -> acceptance.CriterionResult:
    if label not in _RESULTS:
        for name, _, func in acceptance.CRITERIA:
            if name == label:
                _RESULTS[label] = acceptance.CriterionResult(name, *func(seed=0))
                break
        else:
            raise KeyError(label)
    return _RESULTS[label]


@pytest.mark.parametrize("label", [name for name, _, _ in acceptance.CRITERIA])
def test_criterion(label):
    result = _criterion(label)
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}  {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_12_determinism():
    results = acceptance.run_acceptance(seed=0)
    final = results[-1]
    assert final.name == "12-determinism"
    print(f"[{'PASS' if final.passed else 'FAIL'}] {final.name}  {final.detail}")
    assert final.passed, final.detail
    failed = [f"[FAIL] {r.name}  {r.detail}" for r in results if not r.passed]
    assert not failed, "full suite must be green:\n" + "\n".join(failed)


def test_verify_exit_status_zero():
    status, text = acceptance.verify(seed=0)
    assert status == 0, text
    assert "12/12 criteria passed" in text
    # the criteria share their evolutions: seven distinct runs, none corrupted
    assert sum(corruption == 0.0 for _, corruption in acceptance._RUN_CACHE) == 7


@pytest.mark.parametrize("seed,slack", [(0, "3.168e-08"), (1, "3.277e-08"), (7, "6.720e-08")])
def test_criterion_8_detail_is_golden(seed, slack):
    passed, detail = acceptance.crit_gn_inequalities(seed)
    assert passed
    assert detail == f"1000 fresh samples, min slack {slack}; runtime within 30 s budget"
