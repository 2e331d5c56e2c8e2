"""End-to-end verification: every criterion must pass at its stated
tolerance. One line per criterion is printed so a plain `pytest -s` run
doubles as the acceptance report."""

import math

import numpy as np
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


def _model_peak(eps: float, window) -> float:
    # the largest gap over the window between the eps and eps = 0 flows of
    # the mode sin(pi x) of unit amplitude, linearized about the segment:
    # u_t = u_xx - 2 eps u_xxxx, so the gap is e^(-a t) (1 - e^(-b t)) with
    # a = pi^2 and b = 2 eps pi^4, largest at t = ln((a + b) / a) / b
    a, b = math.pi**2, 2.0 * eps * math.pi**4
    t = min(max(math.log((a + b) / a) / b, window[0]), window[1])
    return math.exp(-a * t) * (1.0 - math.exp(-b * t))


def test_ladder_follows_the_linearized_single_mode_model():
    # criterion 11's fitted order 0.62 is the mean of local slopes that rise
    # rung by rung, as the model's do (0.478, 0.625, 0.757). Measured: slope
    # gaps <= 0.0019, |d1/d0 - pi| <= 0.0020 and A 0.25-0.6 % below the
    # amplitude, so the margins 0.005, 0.005 and 1 % leave room of 2.5x, 2.5x
    # and 1.7x.
    report = acceptance._ladder()
    d0, d1 = report.distances.T
    peaks = np.array([_model_peak(eps, report.window) for eps in report.epsilons])
    model = np.log2(peaks[:-1] / peaks[1:])
    assert np.round(model, 3).tolist() == [0.478, 0.625, 0.757]
    for d in (d0, d1):
        assert np.max(np.abs(np.log2(d[:-1] / d[1:]) - model)) <= 0.005
    # one mode: its C^1 norm in x carries pi
    assert np.max(np.abs(d1 / d0 - math.pi)) <= 0.005
    assert np.max(np.abs(d0 / peaks / acceptance.AMPLITUDE - 1.0)) <= 0.01
