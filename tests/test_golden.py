"""Every command output in ``tests/golden/`` is re-created byte for byte.

``golden_outputs.py`` states the commands, how they are compared and how the
files are rewritten; the demos' stdout is compared in ``test_demos.py``.
"""

import json
import math

import pytest

import golden_outputs
from golden_outputs import (
    COMMANDS,
    DEMOS,
    GOLDEN,
    MANIFEST,
    REPORT_FORMATS,
    command_outputs,
    demo_file,
    first_difference,
    golden,
    mismatch,
    verdicts,
)


@pytest.fixture(scope="module")
def outputs():
    return command_outputs()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_its_golden_file(name, outputs):
    problem = mismatch(name, outputs[name])
    assert problem is None, problem


def test_golden_directory_holds_exactly_the_compared_outputs():
    want = {*COMMANDS, *(demo_file(d) for d in DEMOS), MANIFEST.name}
    assert {p.name for p in GOLDEN.iterdir()} == want


def test_a_mismatch_names_the_first_differing_record_or_line():
    report = '{"checks": [{"name": "a", "max_residual": 0.5}, {"name": "b", "max_residual": 1.0}]}'
    moved = report.replace("1.0", "1.0000000000000002")
    assert first_difference(report, moved).startswith("record 2: expected {'name': 'b'")
    assert first_difference("x\ny\n", "x\nz\n") == "line 2: expected 'y', got 'z'"
    assert first_difference("x\n", "x\ny\n") == "line 2: expected 1 lines, got 2"


def test_a_foreign_host_compares_the_verdicts_only(monkeypatch):
    monkeypatch.setattr(golden_outputs, "host", lambda: {"python": "other", "platform": "other"})
    report = json.loads(golden("verify-seed0.json"))
    first = report["checks"][0]
    first["max_residual"] = math.nextafter(first["max_residual"], math.inf)
    with pytest.warns(UserWarning, match="compared the verdicts only"):
        assert mismatch("verify-seed0.json", json.dumps(report)) is None
    first["status"] = "fail" if first["status"] == "pass" else "pass"
    with pytest.warns(UserWarning):
        assert mismatch("verify-seed0.json", json.dumps(report)) == "verify-seed0.json: the verdicts differ"
    # each report format of a seed gives the same verdicts
    one_seed = [verdicts(f"verify-seed0.{fmt}", golden(f"verify-seed0.{fmt}"))
                for fmt in REPORT_FORMATS]
    assert one_seed[0] and one_seed[0] == one_seed[1] == one_seed[2]
    with pytest.warns(UserWarning, match="not compared"):
        assert mismatch("solve-rebp.csv", "") is None
