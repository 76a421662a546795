"""Record the reference records of every workload for a range of seeds.

    python3 perfbench/record_reference.py FIRST LAST

For each CLI command that the workloads run for seeds FIRST..LAST, stores
its records as ``[name, anchor, status, samples, residuals]`` in
``perfbench/reference.json``.  Commands already in the file are kept as
they are, so delete the file to record afresh.  ``run.py`` fails a run
whose records differ from these in anything but the residuals, and lists
the residuals that changed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv) -> int:
    first, last = (int(a) for a in argv)
    ref = run.REFERENCE
    reference = json.loads(ref.read_text()) if ref.is_file() else {}
    (run.HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.HERE / "_work"))
    try:
        for seed in range(first, last + 1):
            for build in run.WORKLOADS.values():
                for cmd in build(seed):
                    key = run.command_key(cmd)
                    if key in reference:
                        continue
                    outcome = run.run_cli(cmd, work)
                    if outcome.problems or outcome.failed:
                        print(f"error: {key}: {outcome.problems}", file=sys.stderr)
                        return 1
                    reference[key] = [[*r.key, r.residuals] for r in outcome.records]
                    print(f"recorded {key}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
