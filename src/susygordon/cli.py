"""Verification suites, reduced-ODE runs, and catalog listings from the shell.

Three subcommands:

``verify``
    runs a named check suite (or all of them) and emits a machine-readable
    report: one record per check with name, anchor tag, pass/fail status,
    worst residual, tolerance, and sample count.
``solve``
    integrates one of the reduced profile equations over a sigma range and
    writes a trajectory CSV plus a summary record, both made and judged by
    one library call, ``odes.solve_profile``.
``list``
    prints the one-dimensional subalgebra catalog and the solution catalog.

Reports serialize deterministically: a fixed configuration yields identical
bytes, so regression runs diff at the file level.  Wall-clock times stay on
the in-memory records (and on stderr) but are never serialized.  Tolerances
come in four named tiers -- round-off ("exact"), trigonometric identity
chains ("trig"), special-function accuracy ("elliptic"), and RK4 truncation
("ode") -- each overridable with ``--tolerance tier=value``.  The checks
themselves live in the ``checks`` registry.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import NamedTuple, Optional

from .catalog import catalog_entry, catalog_names
from .checks import REGISTRY, CheckSpec
from .grassmann import DEFAULT_ROLES, MAX_GENERATORS, TIER_DEFAULTS, AlgebraContext
from .odes import REDUCED_ODES, solve_profile
from .superalgebra import subalgebra_catalog

SUITES = tuple(REGISTRY)

# residual recorded when a check raises instead of returning; large but finite
# so the JSON stays strictly valid
_CRASHED = 9.9e99


class UsageError(Exception):
    """Bad configuration; maps to exit code 2 with nothing written."""


# --------------------------------------------------------------------------
# configuration and report records


class RunConfig:
    """One command's settings; configs compare by value, and each holds its
    own ``tiers`` dict."""

    def __init__(self, suite: str = "all", case: Optional[str] = None, ode: Optional[str] = None,
                 range_spec: Optional[tuple] = None, tiers: Optional[dict] = None,
                 generators: int = 8, seed: int = 0, fmt: Optional[str] = None,
                 out: Optional[str] = None, k0: float = 0.0, eps: float = -1.0,
                 modulus: float = 0.7, ics: tuple = (0.0, 1.0)):
        self.suite = suite
        self.case = case
        self.ode = ode
        self.range_spec = range_spec  # (lo, hi, step)
        self.tiers = dict(TIER_DEFAULTS) if tiers is None else tiers
        self.generators = generators
        self.seed = seed
        self.fmt = fmt
        self.out = out
        self.k0 = k0
        self.eps = eps
        self.modulus = modulus
        self.ics = ics

    def __eq__(self, other):
        return type(other) is RunConfig and vars(self) == vars(other)

    def context(self) -> AlgebraContext:
        roles = {n: i for n, i in DEFAULT_ROLES.items() if i < self.generators}
        return AlgebraContext(generator_count=self.generators, roles=roles)


class CheckRecord(NamedTuple):
    name: str
    anchor: str
    status: str
    max_residual: float
    tolerance: float
    samples: int
    wall_time: float  # in memory and on stderr only, never serialized

    def payload(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "status": self.status,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "samples": self.samples,
        }


class Report(NamedTuple):
    suite: str
    checks: tuple

    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.checks)


def _tolerance(spec: CheckSpec, cfg: RunConfig) -> float:
    if spec.fixed_tolerance is not None:
        return spec.fixed_tolerance
    return cfg.tiers[spec.tier]


def _run_checks(specs, cfg: RunConfig):
    ctx = cfg.context()
    results = []
    for spec in specs:
        t0 = time.perf_counter()
        note = None
        try:
            worst, n = spec.fn(cfg, ctx)
        except Exception as exc:  # a crashed check fails; the report survives
            worst, n = _CRASHED, 0
            note = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        tol = _tolerance(spec, cfg)
        status = "pass" if worst <= tol else "fail"
        rec = CheckRecord(spec.name, spec.anchor, status, float(worst), float(tol), int(n), dt)
        results.append((rec, note))
    return results


# --------------------------------------------------------------------------
# report rendering


def _json_text(obj) -> str:
    """Strict JSON (RFC 8259 has no NaN or Infinity): a non-finite float is
    written as null."""

    def finite(v):
        if isinstance(v, float) and not math.isfinite(v):
            return None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return v

    return json.dumps(finite(obj), indent=2, allow_nan=False) + "\n"


def _render_json(report: Report) -> str:
    return _json_text({"suite": report.suite, "checks": [r.payload() for r in report.checks]})


def _render_csv(report: Report) -> str:
    lines = ["name,anchor,status,max_residual,tolerance,samples"]
    for r in report.checks:
        anchor = f'"{r.anchor}"' if "," in r.anchor else r.anchor
        lines.append(
            f"{r.name},{anchor},{r.status},{r.max_residual!r},{r.tolerance!r},{r.samples}"
        )
    return "\n".join(lines) + "\n"


def _render_md(report: Report) -> str:
    lines = [
        f"# suite: {report.suite}",
        "",
        "| name | anchor | status | max residual | tolerance | samples |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for r in report.checks:
        lines.append(
            f"| {r.name} | {r.anchor} | {r.status} | {r.max_residual:.6e} "
            f"| {r.tolerance:.1e} | {r.samples} |"
        )
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": _render_json, "csv": _render_csv, "md": _render_md}


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    # write beside the target and rename over it, so a failed write leaves
    # the target as it was instead of a partial report
    tmp = f"{out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# verify


def cmd_verify(cfg: RunConfig) -> int:
    wanted = SUITES if cfg.suite == "all" else (cfg.suite,)
    specs = []
    for name in wanted:
        suite_specs = REGISTRY[name]
        if cfg.case is not None:
            suite_specs = [s for s in suite_specs if cfg.case in s.case_tags]
        need = max((s.min_generators for s in suite_specs), default=4)
        if cfg.generators < need:
            raise UsageError(
                f"suite {name!r} needs at least {need} generators, have {cfg.generators}"
            )
        specs.extend(suite_specs)
    if not specs:
        raise UsageError(f"no checks match --case {cfg.case!r}")

    results = _run_checks(specs, cfg)
    records = tuple(rec for rec, _ in results)
    report = Report(cfg.suite, records)
    _emit(_RENDERERS[cfg.fmt or "json"](report), cfg.out)
    for rec, note in results:
        line = (
            f"{rec.status.upper():4s} {rec.name} [{rec.anchor}] "
            f"max={rec.max_residual:.3e} tol={rec.tolerance:.1e} "
            f"n={rec.samples} ({rec.wall_time:.2f}s)"
        )
        if note:
            line += f"  <- {note}"
        print(line, file=sys.stderr)
    print(
        f"suite {report.suite}: {'pass' if report.passed() else 'FAIL'}",
        file=sys.stderr,
    )
    return 0 if report.passed() else 1


# --------------------------------------------------------------------------
# solve


def _resolve_solve_target(cfg: RunConfig) -> str:
    if cfg.ode is None and cfg.case is None:
        raise UsageError("solve needs --ode or --case")
    ode = cfg.ode
    if ode is None:
        by_case = {rec.case: name for name, rec in REDUCED_ODES.items()}
        ode = by_case.get(cfg.case)
        if ode is None:
            raise UsageError(
                f"no integrated equation attached to case {cfg.case!r}; "
                f"have {sorted(by_case)}"
            )
    if ode not in REDUCED_ODES:
        raise UsageError(f"unknown ode {ode!r}; have {sorted(REDUCED_ODES)}")
    case_id = REDUCED_ODES[ode].case
    if cfg.case is not None and cfg.case != case_id:
        raise UsageError(f"ode {ode!r} reduces case {case_id!r}, not {cfg.case!r}")
    return ode


def cmd_solve(cfg: RunConfig) -> int:
    ode = _resolve_solve_target(cfg)
    try:
        nodes, summary = solve_profile(
            ode, cfg.range_spec or REDUCED_ODES[ode].span, cfg.ics, ctx=cfg.context(),
            tol=cfg.tiers["ode"], eps=cfg.eps, coupling=cfg.k0, modulus=cfg.modulus,
        )
    except ValueError as exc:  # a range, a generator count, eps or modulus the run cannot take
        raise UsageError(str(exc)) from None
    lines = ["sigma,alpha,g,f,residual_body,residual_soul_norm"]
    lines += [",".join(["" if v is None else repr(float(v)) for v in node]) for node in nodes]
    summary_text = _json_text(summary)
    _emit("\n".join(lines) + "\n", cfg.out)
    if cfg.out is None:
        sys.stderr.write(summary_text)
    else:
        sys.stdout.write(summary_text)
    return 0 if summary["status"] == "pass" else 1


# --------------------------------------------------------------------------
# list


def cmd_list(cfg: RunConfig) -> int:
    subs = subalgebra_catalog()
    entries = [catalog_entry(n) for n in catalog_names()]
    fmt = cfg.fmt or "text"
    if fmt == "json":
        obj = {
            "subalgebras": [t.payload() for t in subs],
            "solutions": [
                {
                    "name": e.name,
                    "anchor": e.name,
                    "subalgebra": e.subalgebra,
                    "tolerance": e.tolerance,
                    "summary": e.summary,
                }
                for e in entries
            ],
        }
        text = _json_text(obj)
    elif fmt == "md":
        lines = ["# one-dimensional subalgebras", ""]
        lines += [f"- `{t.name}`: `{t.expression}` ({t.picture})" for t in subs]
        lines += ["", "# solution catalog", ""]
        lines += [
            f"- `{e.name}` on {e.subalgebra}, tol {e.tolerance:g}: {e.summary}"
            for e in entries
        ]
        text = "\n".join(lines) + "\n"
    elif fmt == "csv":
        lines = ["kind,name,detail"]
        lines += [f'subalgebra,{t.name},"{t.expression}"' for t in subs]
        lines += [f'solution,{e.name},"{e.subalgebra}; tol {e.tolerance:g}"' for e in entries]
        text = "\n".join(lines) + "\n"
    else:
        lines = ["one-dimensional subalgebras (superspace):"]
        lines += [f"  {t.name}: {t.expression}" for t in subs if t.picture == "superspace"]
        lines.append("one-dimensional subalgebras (component):")
        lines += [f"  {t.name}: {t.expression}" for t in subs if t.picture == "component"]
        lines.append("solution catalog:")
        for e in entries:
            lines.append(f"  {e.name:8s} {e.subalgebra:8s} tol {e.tolerance:<8g} {e.summary}")
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)
    return 0


# --------------------------------------------------------------------------
# argument plumbing


def _parse_tolerances(pairs):
    tiers = dict(TIER_DEFAULTS)
    for item in pairs or ():
        name, _, raw = item.partition("=")
        if name not in tiers or not raw:
            raise UsageError(
                f"bad --tolerance {item!r}; expected tier=value with tier in {sorted(tiers)}"
            )
        try:
            value = float(raw)
        except ValueError:
            raise UsageError(f"bad --tolerance value {raw!r}")
        if not 0.0 < value < math.inf:  # also false for NaN
            raise UsageError(f"tolerance must be positive and finite, got {value}")
        tiers[name] = value
    return tiers


def _finite_numbers(flag, raw, sep, expected):
    """The finite numbers of a ``sep``-separated flag value shaped like ``expected``."""
    if raw is None:
        return None
    parts = raw.split(sep)
    if len(parts) != len(expected.split(sep)):
        raise UsageError(f"bad {flag} {raw!r}; expected {expected}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad {flag} {raw!r}; expected numbers")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"bad {flag} {raw!r}; numbers must be finite")
    return values


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="susygordon",
        description="verify the supersymmetric sine-Gordon tool chain, "
        "integrate its reduced equations, or list its catalogs",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # a flag that is not given sets nothing, so RunConfig supplies its default
    unset = {"argument_default": argparse.SUPPRESS}

    # each subcommand takes only the flags it reads
    def common(p):
        p.add_argument("--tolerance", action="append", metavar="TIER=VALUE",
                       help="override one tolerance tier (repeatable)")
        p.add_argument("--generators", type=int, metavar="K",
                       help="width of the underlying Grassmann algebra")
        p.add_argument("--out", help="write the report or trajectory here")

    pv = sub.add_parser("verify", help="run a verification suite", **unset)
    pv.add_argument("--suite", choices=SUITES + ("all",))
    pv.add_argument("--case", help="restrict to one reduction case or catalog entry")
    pv.add_argument("--seed", type=int)
    pv.add_argument("--format", dest="fmt", choices=("json", "csv", "md"))
    common(pv)

    ps = sub.add_parser("solve", help="integrate a reduced profile equation", **unset)
    ps.add_argument("--case", help="reduction case the equation belongs to")
    ps.add_argument("--ode", choices=tuple(REDUCED_ODES))
    ps.add_argument("--range", dest="range_spec", metavar="LO:HI:STEP")
    ps.add_argument("--ics", metavar="VALUE,DERIV",
                    help="initial data at the range start")
    ps.add_argument("--K0", dest="k0", type=float,
                    help="nilpotent-free part of the coupling constant")
    ps.add_argument("--eps", type=float)
    ps.add_argument("--modulus", type=float)
    common(ps)

    pl = sub.add_parser("list", help="print the catalogs", **unset)
    pl.add_argument("--format", dest="fmt", choices=("json", "csv", "md"))
    pl.add_argument("--out", help="write the catalogs here")
    return ap


def _config_from(ns) -> RunConfig:
    """The run configuration of the given flags; each other field keeps its
    ``RunConfig`` default."""
    given = vars(ns).copy()
    del given["command"]
    if "range_spec" in given:
        given["range_spec"] = _finite_numbers("--range", given["range_spec"], ":", "lo:hi:step")
    given["tiers"] = _parse_tolerances(given.pop("tolerance", None))
    if "ics" in given:
        given["ics"] = _finite_numbers("--ics", given["ics"], ",", "value,derivative")
    cfg = RunConfig(**given)
    if cfg.generators < 4:
        raise UsageError(f"need at least 4 generators, got {cfg.generators}")
    if cfg.generators > MAX_GENERATORS:
        raise UsageError(f"need at most {MAX_GENERATORS} generators, got {cfg.generators}")
    if not math.isfinite(cfg.k0):
        raise UsageError(f"--K0 must be finite, got {cfg.k0}")
    return cfg


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = _config_from(ns)
        handler = {"verify": cmd_verify, "solve": cmd_solve, "list": cmd_list}
        return handler[ns.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
