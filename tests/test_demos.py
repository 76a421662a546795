"""Every demo script runs to completion against the package in ``src/``,
and prints its golden stdout."""

import pytest

from golden_outputs import DEMOS, demo_file, mismatch, run_demo


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert mismatch(demo_file(demo), proc.stdout) is None
