"""Benchmark of the susygordon CLI on four verify/solve workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs the ``susygordon`` CLI as a user would: one command at a
time, each in a fresh interpreter, from this single process.  That is a
closed loop with one client and no worker threads; every command keeps the
default ``--jobs 1``.  A run repeats the workload until ``--seconds`` have
passed and reports the median over the repeats of each end-to-end metric.
Timings are scaled to a reference host speed by ``calibration.py``: each
command runs under ``sampled.py``, which runs short slices of a fixed kernel
inside the command's process, and the command's times, less the slices', are
divided by how much slower than its reference time the kernel ran there.
The uncalibrated medians are printed beside the calibrated ones.

Every output is checked without trusting its ``status`` field: the verdict
of each record is recomputed from its residual and tolerance, the exit code
must match, the reports of one seed must be byte-identical across repeats,
and ``(name, anchor, status, samples)`` must match the recorded reference
where ``reference.json`` has the command.  Residuals that differ from the
recorded ones are listed but do not fail the run.  A negative control,
``verify --suite elliptic --tolerance exact=1e-300``, must fail.

With ``--trace 1`` the run also repeats the workload twice under
``tracer.py`` and reports the per-layer metrics instead of the end-to-end
ones.  The two traced repeats must give identical counts.

The metric names, units and order come from ``BENCHMARK.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import sampled  # noqa: E402
from calibration import Calibration, scale  # noqa: E402

REFERENCE = HERE / "reference.json"
COMMAND_TIMEOUT_S = 150.0
SETUP_SAMPLES = 15
TRACED_REPEATS = 2
NEGATIVE_CONTROL = ["verify", "--suite", "elliptic", "--tolerance", "exact=1e-300"]

# About ten times the CLI's default ranges: a default-range solve takes
# 1.3-1.6 s with a 19% spread, too short to be steady.
SOLVE_RANGES = {
    "rebp": "0:30:0.00390625",
    "ginv12": "0:20:0.015625",
    "d16nu": "0.25:20.25:0.015625",
}


def verify(suite: str, seed: int | None = None) -> list:
    argv = ["verify", "--suite", suite]
    return argv if seed is None else argv + ["--seed", str(seed)]


def reductions_catalog(seed: int, reduction_seeds: int = 8) -> list:
    runs = [verify("reductions", seed + k) for k in range(reduction_seeds)]
    return runs + [verify("solutions"), verify("elliptic")]


def profile_solve(seed: int, ranges: dict = SOLVE_RANGES) -> list:
    rng = random.Random(seed)
    runs = []
    for ode, span in ranges.items():
        y0, d0 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        runs.append(["solve", "--ode", ode, "--range", span, f"--ics={y0!r},{d0!r}"])
    return runs


WORKLOADS = {
    "algebra_suite": lambda seed: [verify("algebra", seed)],
    "prolongation_suite": lambda seed: [verify("prolongation", seed)],
    "reductions_catalog": reductions_catalog,
    "profile_solve": profile_solve,
}

# per-layer ratios: metric -> (numerator tally, denominator tally)
RATIOS = {
    "grassmann.mul.empty_frac": ("grassmann.mul.empty", "grassmann.mul.super_calls"),
    "grassmann.mul.scalar_frac": ("grassmann.mul.scalar", "grassmann.mul.calls"),
    "superjet.apply_analytic.real_only_frac": (
        "superjet.apply_analytic.real_only", "superjet.apply_analytic.calls"),
    "superfield.jet.repeat_frac": ("superfield.jet.repeats", "superfield.jet.calls"),
    "prolongation.coefficient_partial.memo_hit_frac": (
        "prolongation.coefficient_partial.memo_hits", "prolongation.coefficient_partial.calls"),
    "odes.rhs_per_node": ("odes.rhs.calls", "odes.nodes"),
}


# ----------------------------------------------------------------- records


@dataclass
class Record:
    """One verify check or one solve summary, judged from its numbers."""

    key: tuple  # (name, anchor, status, samples)
    residuals: dict
    passed: bool


@dataclass
class Outcome:
    argv: list
    wall_s: float
    cpu_s: float
    rss_mb: float
    records: list = field(default_factory=list)
    digest: str = ""
    problems: list = field(default_factory=list)  # output-check failures
    crashed: bool = False
    calibration: Calibration = field(default_factory=Calibration)  # sampled in the command

    @property
    def slowdown(self) -> float:
        return self.calibration.slowdown

    @property
    def attempted(self) -> int:
        return len(self.records) + self.crashed

    @property
    def failed(self) -> int:
        return sum(not r.passed for r in self.records) + self.crashed

    @property
    def samples(self) -> int:
        return sum(r.key[3] for r in self.records)


def _finite_within(value, tol) -> bool:
    return (isinstance(value, (int, float)) and isinstance(tol, (int, float))
            and math.isfinite(value) and math.isfinite(tol) and value <= tol)


def judge_check(check: dict) -> tuple[Record, list]:
    """A verify record with its verdict recomputed from residual and tolerance."""
    res, tol = check["max_residual"], check["tolerance"]
    ok = _finite_within(res, tol)
    problems = []
    if check["status"] != ("pass" if ok else "fail"):
        problems.append(f"{check['name']}: status {check['status']!r} but "
                        f"max_residual {res!r} against tolerance {tol!r}")
    key = (check["name"], check["anchor"], check["status"], check["samples"])
    return Record(key, {"max_residual": res}, ok and check["status"] == "pass"), problems


def _node_count(span: list) -> int:
    lo, hi, step = span
    return int(round((hi - lo) / step)) + 1


def judge_summary(summary: dict) -> tuple[Record, list]:
    """A solve summary judged from its residuals, nodes and flagged ranges."""
    tol = summary["tolerance"]
    drift = summary["drift"]
    ok = (_finite_within(summary["max_residual_body"], tol)
          and _finite_within(summary["max_residual_soul_norm"], tol)
          and summary["samples"] == _node_count(summary["range"])
          and not summary["flagged"]
          and (drift is None or math.isfinite(drift)))
    problems = []
    if summary["status"] != ("pass" if ok else "fail"):
        problems.append(f"solve {summary['ode']}: status {summary['status']!r} "
                        f"contradicts its residuals, nodes or flagged ranges")
    key = (summary["ode"], summary["case"], summary["status"], summary["samples"])
    residuals = {k: summary[k] for k in ("max_residual_body", "max_residual_soul_norm", "drift")}
    return Record(key, residuals, ok and summary["status"] == "pass"), problems


# ----------------------------------------------------------------- commands


def _child_env(trace_stem=None, calibration_out=None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if trace_stem is not None:
        env["PERFBENCH_TRACE_OUT"] = str(trace_stem)
    if calibration_out is not None:
        env["PERFBENCH_CALIBRATION_OUT"] = str(calibration_out)
    return env


def _spawn(cmd, env, cwd, stdout, stderr):
    """Run ``cmd`` to its end; wall time, exit code and the child's usage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=stdout,
                            stderr=stderr, env=env, cwd=cwd)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_cli(argv: list, work: Path, trace_stem=None) -> Outcome:
    """One CLI command in a fresh interpreter, its outputs judged.

    Untraced, the command runs under ``sampled.py``; the kernel slices it
    samples are taken out of its wall and CPU times and kept as its
    calibration."""
    solve = argv[0] == "solve"
    out = work / ("trajectory.csv" if solve else "report.json")
    out.unlink(missing_ok=True)
    cal_out = None
    if trace_stem is None:
        cal_out = work / "calibration.json"
        cal_out.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "sampled.py")]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py")]
    cmd += [*argv, "--out", str(out)]
    stdout_path, stderr_path = work / "stdout", work / "stderr"
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        wall, code, usage = _spawn(cmd, _child_env(trace_stem, cal_out), work, so, se)
    outcome = Outcome(argv, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if cal_out is not None and cal_out.is_file():
        outcome.calibration = Calibration(**json.loads(cal_out.read_text()))
        outcome.wall_s -= outcome.calibration.seconds
        outcome.cpu_s -= outcome.calibration.seconds
    try:
        payload = out.read_bytes()
        stdout = stdout_path.read_bytes()
        if solve:
            judged = [judge_summary(json.loads(stdout))]
            payload += stdout
        else:
            judged = [judge_check(c) for c in json.loads(payload)["checks"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        outcome.crashed = True
        outcome.problems.append(f"{' '.join(argv)}: no readable output "
                                f"(exit {code}, {type(exc).__name__}) {' '.join(tail)}")
        return outcome
    outcome.digest = hashlib.sha256(payload).hexdigest()
    for record, problems in judged:
        outcome.records.append(record)
        outcome.problems.extend(problems)
    want = 0 if outcome.failed == 0 else 1
    if code != want:
        outcome.problems.append(f"{' '.join(argv)}: exit code {code}, expected {want}")
    return outcome


def run_workload(commands: list, work: Path, trace_dir=None) -> list:
    outcomes = []
    for i, argv in enumerate(commands):
        stem = None if trace_dir is None else trace_dir / f"cmd{i}"
        outcomes.append(run_cli(argv, work, stem))
    return outcomes


def measure_setup(work: Path, cal: Calibration) -> tuple[list, list]:
    """Interpreter start, ``import susygordon.cli`` and building the parser,
    under ``sampled.py``: the times less the kernel slices', which ``cal``
    sums."""
    cal_out = work / "calibration.json"
    cmd = [sys.executable, str(HERE / "sampled.py"), sampled.SET_UP_ONLY]
    env = _child_env(calibration_out=cal_out)
    times, problems = [], []
    for i in range(SETUP_SAMPLES + 1):  # the first one compiles bytecode
        cal_out.unlink(missing_ok=True)
        wall, code, _ = _spawn(cmd, env, work, subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0 or not cal_out.is_file():
            problems.append(f"set-up command exited {code}")
        elif i:
            sample = Calibration(**json.loads(cal_out.read_text()))
            times.append(wall - sample.seconds)
            cal.add(sample)
    return times, problems


# ----------------------------------------------------------------- checks


def command_key(argv: list) -> str:
    return " ".join(argv)


def check_repeats(repeats: list) -> list:
    """Reports and record keys of one seed must not change across repeats."""
    problems = []
    first = repeats[0]
    for later in repeats[1:]:
        for a, b in zip(first, later):
            if a.crashed or b.crashed:
                continue
            if [r.key for r in a.records] != [r.key for r in b.records]:
                problems.append(f"{command_key(a.argv)}: records differ between repeats")
            elif a.digest != b.digest:
                problems.append(f"{command_key(a.argv)}: output bytes differ between repeats")
    return problems


def check_reference(outcomes: list, reference: dict) -> tuple[list, list, int]:
    """Record keys against the recorded reference; residual changes listed.

    Returns the problems, the residual changes and how many commands had a
    reference."""
    problems, changes, known = [], [], 0
    for o in outcomes:
        recorded = reference.get(command_key(o.argv))
        if recorded is None or o.crashed:
            continue
        known += 1
        if [list(r.key) for r in o.records] != [row[:4] for row in recorded]:
            problems.append(f"{command_key(o.argv)}: (name, anchor, status, samples) "
                            f"differ from the recorded reference")
            continue
        for r, row in zip(o.records, recorded):
            for k, old in row[4].items():
                new = r.residuals[k]
                if new != old:
                    changes.append(f"{command_key(o.argv)} | {r.key[0]} | {k}: {old!r} -> {new!r}")
    return problems, changes, known


def check_negative_control(outcome: Outcome) -> list:
    if outcome.crashed or outcome.failed == 0:
        return ["negative control passed: the output check has lost its teeth"]
    return list(outcome.problems)


# ----------------------------------------------------------------- metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(repeats: list, setup_times: list, setup_slowdown=None) -> dict:
    """Per-repeat values of each end-to-end metric; set-up has its own samples.

    With ``setup_slowdown``, times are calibrated into seconds of the
    reference host: each command's by the slowdown of the kernel slices run
    inside it, set-up's by that of the slices of all its samples, since one
    sample is too short to hold more than a few."""
    def scaled(seconds, slowdown):
        return seconds if setup_slowdown is None else scale(seconds, slowdown)

    walls = [sum(scaled(o.wall_s, o.slowdown) for o in rep) for rep in repeats]
    return {
        "wall_s": walls,
        "cpu_s": [sum(scaled(o.cpu_s, o.slowdown) for o in rep) for rep in repeats],
        "samples_per_s": [sum(o.samples for o in rep) / w for rep, w in zip(repeats, walls)],
        "setup_s": [scaled(t, setup_slowdown) for t in setup_times],
        "peak_rss_mb": [max(o.rss_mb for o in rep) for rep in repeats],
    }


def layer_values(tallies: Counter, nodes: int, overhead_s: float, names: list) -> dict:
    known = tracer.tally_names() | {"odes.nodes"}
    t = Counter(tallies)
    t["odes.nodes"] = nodes
    out = {}
    for name in names:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = t[num] / t[den] if t[den] else 0.0
        elif name == "trace.overhead_s":
            out[name] = overhead_s
        elif name in known:
            out[name] = t[name]
        else:
            raise KeyError(f"per-layer metric {name!r} has no tally")
    return out


def per_layer(traced: list, untraced_wall: float, nodes: int, spec: dict) -> tuple[dict, list]:
    """Per-layer metrics over the traced repeats, and the counts that differ
    between them."""
    names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    per_run = [layer_values(tallies, nodes, sum(o.wall_s for o in outcomes) - untraced_wall, names)
               for outcomes, tallies in traced]
    # counts and ratios must repeat exactly; only times may differ
    differ = sorted(n for n in names if units[n] != "s"
                    and any(run[n] != per_run[0][n] for run in per_run))
    metrics = {n: {"value": _median([run[n] for run in per_run]), "unit": units[n]}
               for n in names}
    return metrics, differ


def read_trace(trace_dir: Path, count: int) -> Counter:
    total = Counter()
    for i in range(count):
        stem = str(trace_dir / f"cmd{i}")
        total.update(tracer.reduce_tallies(*tracer.load(stem)))
    return total


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


# ----------------------------------------------------------------- main


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    if not (SRC / "susygordon" / "cli.py").is_file():
        print(f"error: no susygordon sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    context = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "loadavg_start": _loadavg()}
    commands = workloads[args.workload](args.seed)
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_work"))
    try:
        setup_cal = Calibration()
        setup_times, problems = measure_setup(work, setup_cal)
        control = run_cli(NEGATIVE_CONTROL, work)
        problems += check_negative_control(control)

        repeats = []
        start = time.perf_counter()
        elapsed = 0.0
        # stop before a repeat of average length would overrun the budget
        while not repeats or elapsed * (len(repeats) + 1) / len(repeats) <= args.seconds:
            repeats.append(run_workload(commands, work))
            elapsed = time.perf_counter() - start
        traced = []
        if args.trace:
            for k in range(TRACED_REPEATS):
                trace_dir = work / f"trace{k}"
                trace_dir.mkdir()
                outcomes = run_workload(commands, work, trace_dir)
                tallies = Counter()
                if not any(o.crashed for o in outcomes):
                    tallies = read_trace(trace_dir, len(commands))
                traced.append((outcomes, tallies))
                shutil.rmtree(trace_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["loadavg_end"] = _loadavg()

    all_runs = repeats + [outcomes for outcomes, _ in traced]
    for rep in all_runs:
        for o in rep:
            problems.extend(o.problems)
    problems += check_repeats(all_runs)
    ref_problems, changes, known = check_reference(repeats[0], reference)
    problems += ref_problems
    attempted = sum(o.attempted for rep in all_runs for o in rep)
    failed = sum(o.failed for rep in all_runs for o in rep)

    print(f"context: {json.dumps(context)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(commands)} commands, "
          f"{len(repeats)} untraced repeats, {len(traced)} traced")
    run_cal = Calibration()
    for o in (o for rep in repeats for o in rep):
        run_cal.add(o.calibration)
    print(f"host slowdown against the calibration reference: run "
          f"{_fmt(run_cal.slowdown)} ({run_cal.slices} slices), set-up "
          f"{_fmt(setup_cal.slowdown)} ({setup_cal.slices} slices)")
    raw = end_to_end(repeats, setup_times)
    series = end_to_end(repeats, setup_times, setup_cal.slowdown)
    for m in spec["end_to_end"]:
        values = series[m["name"]]
        print(f"  {m['name']:14s} {_fmt(_median(values)):>12s} {m['unit']}"
              f"  (min {_fmt(min(values, default=0.0))}, max {_fmt(max(values, default=0.0))},"
              f" n={len(values)}; uncalibrated median {_fmt(_median(raw[m['name']]))})")
    print(f"  {'fail_frac':14s} {_fmt(failed / attempted if attempted else 1.0):>12s} ratio"
          f"  ({failed} of {attempted} records)")
    print(f"negative control: fail_frac {_fmt(control.failed / max(control.attempted, 1))}"
          f" ({control.failed} of {control.attempted} records), expected above 0")
    print(f"reference: {known} of {len(commands)} commands recorded; "
          f"{len(changes)} residuals differ from the recorded ones")
    for line in changes:
        print(f"  residual changed: {line}")

    if args.trace:
        nodes = sum(o.samples for o in repeats[0] if o.argv[0] == "solve")
        metrics, differ = per_layer(traced, _median(raw["wall_s"]), nodes, spec)
        if differ:
            problems.append(f"traced repeats disagree on counts: {', '.join(differ)}")
        print(f"traced repeats: {len(traced)}, counts {'differ' if differ else 'identical'}")
        for name, m in metrics.items():
            print(f"  {name:48s} {_fmt(m['value']):>14s} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": _median(series[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    correct = not problems and failed == 0
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # runs the cleanup
    sys.exit(main())
