"""Run the susygordon CLI with the calibration kernel sampled while it runs.

    PYTHONPATH=src PERFBENCH_CALIBRATION_OUT=FILE python3 perfbench/sampled.py ARGS...
    PYTHONPATH=src PERFBENCH_CALIBRATION_OUT=FILE python3 perfbench/sampled.py --set-up-only

An interval timer runs one short kernel slice every ``PERIOD_S`` of wall
time inside the CLI's own process, so the slices see the same processor at
the same moments as the command does.  When the CLI returns, the slices'
count, rounds and seconds go to FILE as JSON.  The harness subtracts those
seconds from the command's wall and CPU times and scales what is left by the
slices' slowdown.  The CLI's outputs do not change: the kernel touches none
of the program's state.  With ``--set-up-only`` it imports the CLI and
builds its parser, the set-up every command pays, and runs nothing else.
"""

from __future__ import annotations

import json
import os
import signal
import sys

from calibration import Calibration

PERIOD_S = 0.05
SET_UP_ONLY = "--set-up-only"
ROUNDS = 20  # about 1.3 ms a slice, under 3% of the period


def main(argv) -> int:
    out = os.environ["PERFBENCH_CALIBRATION_OUT"]
    cal = Calibration()
    signal.signal(signal.SIGALRM, lambda *_: cal.sample(ROUNDS))
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        from susygordon import cli

        if argv == [SET_UP_ONLY]:
            cli.build_parser()
            return 0
        return cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        with open(out, "w") as f:
            json.dump({"slices": cal.slices, "rounds": cal.rounds, "seconds": cal.seconds}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
