"""Smoke test of the benchmark harness at reduced size.

    python3 -m pytest perfbench/test_smoke.py

Runs the harness end to end over one seed, one reductions seed and short
solve ranges, untraced and traced, and checks the output check, the
negative control, the reference comparison and the JSON result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from calibration import REFERENCE_ROUND_S, SENSITIVITY, Calibration, scale  # noqa: E402

SHORT_RANGES = {
    "rebp": "0:0.125:0.00390625",
    "ginv12": "0:0.5:0.015625",
    "d16nu": "0.25:0.75:0.015625",
}
SMALL = {
    "reductions_catalog": lambda seed: run.reductions_catalog(seed, reduction_seeds=1),
    "profile_solve": lambda seed: run.profile_solve(seed, SHORT_RANGES),
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv, workloads=SMALL)
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    code, result, lines = _run(capsys, workload, 0)
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.split()[:2] == ["fail_frac", "0"] for line in lines)
    assert "negative control: fail_frac 0.6 (3 of 5 records), expected above 0" in lines


def test_traced_run_reports_every_per_layer_metric(capsys):
    code, result, lines = _run(capsys, "reductions_catalog", 1)
    assert code == 0, lines
    assert list(result["metrics"]) == PER_LAYER
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["catalog.verify_entry.calls"] == 14
    assert values["reductions.consistency.calls"] > 0
    assert 0.0 < values["superjet.apply_analytic.real_only_frac"] < 1.0
    assert "traced repeats: 2, counts identical" in lines
    # reductions seed 0, solutions and elliptic are all in the reference
    assert "reference: 3 of 3 commands recorded; 0 residuals differ" \
        " from the recorded ones" in lines


def test_traced_solve_counts_nodes(capsys):
    code, result, lines = _run(capsys, "profile_solve", 1)
    assert code == 0, lines
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["odes.nodes"] == 3 * 33
    assert values["odes.rhs_per_node"] > 5.0
    assert values["elliptic.jacobi.calls"] > 0


def _check(status, residual, tolerance=1e-12):
    return {"name": "c", "anchor": "a", "status": status, "max_residual": residual,
            "tolerance": tolerance, "samples": 3}


@pytest.mark.parametrize("check", [
    _check("pass", float("nan")),
    _check("pass", 1e-9),
    _check("pass", 0.0, float("inf")),
    _check("pass", float("inf"), float("inf")),
])
def test_output_check_does_not_trust_status(check):
    record, problems = run.judge_check(check)
    assert not record.passed
    assert problems


def test_honest_failure_counts_as_failed_without_contradiction():
    record, problems = run.judge_check(_check("fail", 1e-9))
    assert not record.passed and not problems


def test_reference_mismatch_fails_and_residual_change_is_listed():
    record, _ = run.judge_check(_check("pass", 1e-15))
    outcome = run.Outcome(["verify"], 1.0, 1.0, 1.0, records=[record])
    same = {"verify": [["c", "a", "pass", 3, {"max_residual": 1e-15}]]}
    moved = {"verify": [["c", "a", "pass", 3, {"max_residual": 2e-15}]]}
    other = {"verify": [["c", "a", "pass", 4, {"max_residual": 1e-15}]]}
    assert run.check_reference([outcome], same) == ([], [], 1)
    problems, changes, _ = run.check_reference([outcome], moved)
    assert not problems and len(changes) == 1
    problems, _, _ = run.check_reference([outcome], other)
    assert problems


def test_calibration_scales_by_the_kernel_slowdown():
    cal = Calibration()
    cal.sample(20)
    assert (cal.slices, cal.rounds) == (1, 20) and cal.seconds > 0.0
    cal = Calibration(slices=4, rounds=80, seconds=80 * 2 * REFERENCE_ROUND_S)
    assert cal.slowdown == pytest.approx(2.0)
    assert scale(3.0, cal.slowdown) == pytest.approx(3.0 / 2.0 ** SENSITIVITY)
    assert Calibration().slowdown == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "profile_solve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_predictions_cover_every_per_layer_metric():
    preds = json.loads((HERE / "predictions.json").read_text())
    listed = [m for group in preds["layers"] for m in group["metrics"]]
    assert sorted(listed) == sorted(PER_LAYER)
    assert len(set(listed)) == len(listed)
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(preds["workloads"]) == workloads == set(run.WORKLOADS)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for group in preds["layers"]:
        assert group["moves"]["metric"] in end_to_end
        assert set(group["moves"]["workloads"]) <= workloads
        assert set(group["no_change_on"]) <= workloads
