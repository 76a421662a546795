"""The program's outputs for a fixed set of commands, kept in ``tests/golden/``.

The set is what every change is checked against: ``verify --suite all`` at
seeds 0, 1 and 2 in json, csv and md, ``list`` in its four formats, the
default ``solve`` of each reduced equation (its CSV and its summary) and the
stdout of each demo.  ``tests/test_golden.py`` re-creates the command
outputs in one process and ``tests/test_demos.py`` runs the demos; each
output must equal its file byte for byte.  A change that moves a byte
rewrites the files in the same commit, so their diff lists every changed
byte.  From the repository root:

    PYTHONPATH=src python3 tests/golden_outputs.py

``MANIFEST.json`` records the Python and the platform the files were written
on.  Under another one a libm may round the last bits differently, so the
tests then compare only each verdict record's (name, anchor, status,
samples) and warn that they compared less; ``list`` prints no computed
number and is compared in full everywhere.  No tolerance is involved.
"""

import contextlib
import csv
import io
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

from susygordon import cli
from susygordon.odes import REDUCED_ODES

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
GOLDEN = TESTS / "golden"
MANIFEST = GOLDEN / "MANIFEST.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SEEDS = (0, 1, 2)
REPORT_FORMATS = ("json", "csv", "md")

# golden file name -> (argv, the stream that holds the output)
COMMANDS = {
    **{f"verify-seed{seed}.{fmt}": (
        ["verify", "--suite", "all", "--seed", str(seed), "--format", fmt], "out")
       for seed in SEEDS for fmt in REPORT_FORMATS},
    "list.txt": (["list"], "out"),
    **{f"list.{fmt}": (["list", "--format", fmt], "out") for fmt in REPORT_FORMATS},
    **{f"solve-{ode}.{kind}": (["solve", "--ode", ode], stream)
       for ode in REDUCED_ODES for kind, stream in (("csv", "out"), ("summary.json", "err"))},
}


def demo_file(demo: Path) -> str:
    return f"demo-{demo.stem}.txt"


def host() -> dict:
    libc = " ".join(platform.libc_ver()).strip()
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": f"{sys.platform} {platform.machine()} {libc}".strip(),
    }


def same_host() -> bool:
    return json.loads(MANIFEST.read_text(encoding="utf-8")) == host()


def golden(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cli.main(argv)
    return {"out": out.getvalue(), "err": err.getvalue()}


def command_outputs() -> dict:
    """Each command file's name and the text its command prints, run in this
    process.  The checks of a seed run once and feed all three formats."""
    real_run_checks = cli._run_checks
    checked = {}

    def run_checks_once(specs, cfg):
        key = (cfg.seed, tuple(spec.name for spec in specs))
        if key not in checked:
            checked[key] = real_run_checks(specs, cfg)
        return checked[key]

    runs = {}
    with mock.patch.object(cli, "_run_checks", run_checks_once):
        for argv, _ in COMMANDS.values():
            if tuple(argv) not in runs:
                runs[tuple(argv)] = _run(argv)
    return {name: runs[tuple(argv)][stream] for name, (argv, stream) in COMMANDS.items()}


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """The demo run in a fresh interpreter against the package in ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )


def verdicts(name: str, text: str):
    """What a foreign host compares: the (name, anchor, status, samples) of
    each record of a verify report and the same four facts of a solve
    summary; None for an output with no verdict."""
    if name.endswith(".summary.json"):
        s = json.loads(text)
        return [(s["ode"], s["case"], s["status"], s["samples"])]
    if not name.startswith("verify-"):
        return None
    if name.endswith(".json"):
        rows = json.loads(text)["checks"]
    elif name.endswith(".csv"):
        rows = list(csv.DictReader(io.StringIO(text)))
    else:
        cells = [line.split(" | ") for line in text.splitlines()[4:]]
        rows = [{"name": c[0][2:], "anchor": c[1], "status": c[2], "samples": c[5][:-2]}
                for c in cells]
    return [(r["name"], r["anchor"], r["status"], int(r["samples"])) for r in rows]


def _units(text: str):
    try:
        return "record", json.loads(text)["checks"]
    except (ValueError, KeyError, TypeError):
        return "line", text.splitlines()


def first_difference(expected: str, got: str) -> str:
    """Where ``got`` first parts from ``expected``: the record of a JSON
    verify report, else the line."""
    (unit, want), (_, have) = _units(expected), _units(got)
    for i, (a, b) in enumerate(zip(want, have), 1):
        if a != b:
            return f"{unit} {i}: expected {a!r}, got {b!r}"
    if len(want) != len(have):
        return f"{unit} {min(len(want), len(have)) + 1}: expected {len(want)} {unit}s, got {len(have)}"
    return "the outputs differ outside their records or lines"


def mismatch(name: str, got: str):
    """None when ``got`` matches golden file ``name``, else where it parts.
    On a foreign host only the verdicts are compared, with a warning."""
    expected = golden(name)
    if name.startswith("list.") or same_host():
        return None if got == expected else f"{name}: {first_difference(expected, got)}"
    want = verdicts(name, expected)
    warnings.warn(
        f"{name}: written on {json.loads(MANIFEST.read_text(encoding='utf-8'))}, run on {host()}; "
        + ("compared the verdicts only" if want is not None else "not compared"),
        stacklevel=2,
    )
    if want is None or verdicts(name, got) == want:
        return None
    return f"{name}: the verdicts differ"


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    files = command_outputs()
    for demo in DEMOS:
        proc = run_demo(demo)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        files[demo_file(demo)] = proc.stdout
    files[MANIFEST.name] = json.dumps(host(), indent=2) + "\n"
    for name, text in files.items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
    stale = sorted(p.name for p in GOLDEN.iterdir() if p.name not in files)
    for name in stale:
        (GOLDEN / name).unlink()
    print(f"wrote {len(files)} files to {GOLDEN}, removed {len(stale)} stale ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
