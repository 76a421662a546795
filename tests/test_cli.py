"""Command-line behavior: exit codes, report bytes, trajectory CSVs."""

import csv
import dataclasses
import importlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from susygordon import cli, grassmann, odes
from susygordon.catalog import _ginv_parts, catalog_entry
from susygordon.checks import _entry
from susygordon.cli import Report, RunConfig, _emit, _render_json, _run_checks, main
from susygordon.odes import integrate_profile_ode, make_system

from helpers import assert_reports_alike_from_three_threads

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# list


def test_list_text_contains_both_catalogs(capsys):
    code, out, _ = run_cli(["list"], capsys)
    assert code == 0
    assert "S8: P_x + eps*P_t + mu*Q_x" in out
    assert "L5: P_x - P_t" in out
    assert "d18" in out
    # 16 superspace + 5 component + 14 solutions
    assert out.count("S1") >= 2  # S1 heading plus S12 etc
    lines = [l for l in out.splitlines() if l.startswith("  ")]
    assert len(lines) == 16 + 5 + 14


def test_list_json_parses(capsys):
    code, out, _ = run_cli(["list", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["subalgebras"]) == 21
    assert len(obj["solutions"]) == 14
    names = {s["name"] for s in obj["solutions"]}
    assert "d18" in names and "ginv9" in names


def test_list_md_and_csv_render(capsys):
    code, out, _ = run_cli(["list", "--format", "md"], capsys)
    assert code == 0 and out.startswith("#")
    code, out, _ = run_cli(["list", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 21 + 14


# ---------------------------------------------------------------------------
# verify


def test_verify_elliptic_passes_and_schema(capsys):
    code, out, err = run_cli(["verify", "--suite", "elliptic"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["suite"] == "elliptic"
    for check in obj["checks"]:
        assert list(check) == [
            "name", "anchor", "status", "max_residual", "tolerance", "samples",
        ]
        assert check["status"] == "pass"
        assert check["max_residual"] <= check["tolerance"]
    assert "suite elliptic: pass" in err


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "reductions", "--seed", "1"]
    assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_nan_residual_fails_its_check():
    # max() would drop the NaN and pass the check on the finite samples
    spec = _entry("nan_probe", "none", "exact", 1, 3, 4,
                  lambda ctx, base, count: [0.0, math.nan, 1e-13])
    [(rec, note)] = _run_checks([spec], RunConfig())
    assert rec.status == "fail" and math.isnan(rec.max_residual)
    assert rec.samples == 3 and note is None
    # the report stays strict JSON: the NaN is written as null, not as NaN
    text = _render_json(Report("nan", (rec,)))
    [payload] = json.loads(text, parse_constant=_reject_constant)["checks"]
    assert payload["status"] == "fail" and payload["max_residual"] is None


def test_crashed_check_fails_and_leaves_the_others_intact():
    def boom(ctx, base, count):
        raise RuntimeError("boom")

    def passing(name):
        return _entry(name, "none", "exact", 1, 2, 4, lambda ctx, base, count: [0.0, 1e-13])

    before, after = passing("before"), passing("after")
    crashed = _entry("crash_probe", "none", "exact", 1, 3, 4, boom)
    results = _run_checks([before, crashed, after], RunConfig())
    (rec, note) = results[1]
    assert rec.status == "fail" and rec.samples == 0
    assert note == "RuntimeError: boom"
    alone = _run_checks([before, after], RunConfig())
    assert [(r._replace(wall_time=0.0), n) for r, n in results[::2]] == [
        (r._replace(wall_time=0.0), n) for r, n in alone
    ]


@pytest.mark.parametrize("suite", ["algebra", "reductions", "solutions", "elliptic"])
def test_suite_reports_alike_from_three_threads(suite, tmp_path, capsys):
    # from cold memos, three workers at once write the serial run's report;
    # test_prolongation runs the prolongation suite the same way
    assert_reports_alike_from_three_threads(suite, tmp_path)
    capsys.readouterr()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_emit_leaves_no_partial_report(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("old report\n")
    with pytest.raises(UnicodeEncodeError):
        _emit("new report\n\ud800", str(out))  # a lone surrogate cannot be written
    assert out.read_text() == "old report\n"
    assert list(tmp_path.iterdir()) == [out]
    _emit("new report\n", str(out))
    assert out.read_text() == "new report\n"
    assert list(tmp_path.iterdir()) == [out]


def test_verify_case_filter(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "reductions", "--case", "S8"], capsys
    )
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "consistency_S8" in names
    assert "consistency_S12" not in names


def test_verify_case_filter_reaches_solution_entries(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "solutions", "--case", "d5"], capsys
    )
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["d5"]


def test_verify_unmatched_case_is_usage_error(capsys):
    code, _, err = run_cli(["verify", "--case", "NOPE"], capsys)
    assert code == 2
    assert "no checks match" in err


def test_verify_tolerance_override_binds(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "elliptic", "--tolerance", "elliptic=1e-14"],
        capsys,
    )
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    drift = checks["traveling_first_integral"]
    assert drift["tolerance"] == 1e-14
    assert drift["status"] == "fail"


def test_verify_bad_tolerance_is_usage_error(capsys):
    for bad in ("elliptic=zero", "bogus=1e-3", "elliptic=-1e-8", "elliptic",
                "exact=inf", "exact=nan"):
        code, _, _ = run_cli(
            ["verify", "--suite", "elliptic", "--tolerance", bad], capsys
        )
        assert code == 2, bad


def test_verify_generator_floor(capsys):
    code, _, err = run_cli(
        ["verify", "--suite", "algebra", "--generators", "4"], capsys
    )
    assert code == 2
    assert "at least 6 generators" in err
    code, _, _ = run_cli(["verify", "--generators", "3"], capsys)
    assert code == 2


def test_generator_ceiling(tmp_path, capsys):
    # past 32 generators the packed sign-cache keys of the algebra collide
    target = tmp_path / "out"
    for argv in (["verify", "--suite", "elliptic", "--generators", "33"],
                 ["verify", "--suite", "elliptic", "--generators", "40"],
                 ["solve", "--ode", "rebp", "--generators", "40"]):
        code, out, err = run_cli(argv + ["--out", str(target)], capsys)
        assert code == 2 and out == "", argv
        assert "at most 32 generators" in err
        assert not target.exists()
    code, _, _ = run_cli(["verify", "--suite", "elliptic", "--generators", "32"], capsys)
    assert code == 0


def test_verify_bad_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_unknown_format_is_refused_by_the_parser(tmp_path, capsys):
    # the parser's choices are the one format check: an unknown format exits
    # 2 before any check runs, and nothing is written
    target = tmp_path / "report.xml"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "algebra", "--format", "xml", "--out", str(target)])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "argument --format: invalid choice: 'xml'" in err
    assert not target.exists()


def test_verify_usage_error_writes_nothing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["verify", "--case", "NOPE", "--out", str(target)], capsys
    )
    assert code == 2
    assert not target.exists()


def test_verify_csv_and_md_formats(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "elliptic", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and rows[0]["status"] == "pass"
    code, out, _ = run_cli(
        ["verify", "--suite", "elliptic", "--format", "md"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "# suite: elliptic"


# ---------------------------------------------------------------------------
# solve


def test_solve_ginv12_csv_residuals(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        ["solve", "--case", "S12", "--ode", "ginv12",
         "--range", "0:2:0.01", "--out", str(target)],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(target.open()))
    assert len(rows) == 201
    assert rows[0].keys() == {
        "sigma", "alpha", "g", "f", "residual_body", "residual_soul_norm"
    }
    assert all(float(r["residual_body"]) <= 1e-6 for r in rows)
    assert all(float(r["residual_soul_norm"]) <= 1e-6 for r in rows)
    summary = json.loads(out)
    assert summary["status"] == "pass"
    assert summary["case"] == "S12"


def test_solve_rebp_drift_in_summary(capsys):
    code, _, err = run_cli(["solve", "--case", "S4", "--ode", "rebp", "--K0", "0"], capsys)
    assert code == 0
    summary = json.loads(err)
    assert summary["drift"] is not None and summary["drift"] <= 1e-8
    assert summary["max_residual_body"] <= 1e-6


def test_solve_rebp_with_coupling(capsys):
    code, _, err = run_cli(
        ["solve", "--ode", "rebp", "--K0", "0.25", "--range", "0:2:0.0078125"],
        capsys,
    )
    assert code == 0
    summary = json.loads(err)
    assert summary["max_residual_body"] <= 1e-6
    assert summary["drift"] <= 1e-8


def test_solve_infers_ode_from_case(capsys):
    code, _, err = run_cli(
        ["solve", "--case", "S8", "--range", "0:1:0.0625"], capsys
    )
    assert code == 0
    assert json.loads(err)["ode"] == "ginv17"


def test_solve_empty_range_is_usage_error(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    for bad in ("1:1:0.1", "2:1:0.1", "0:1:0", "0:1:-0.5", "0:1", "a:b:c"):
        code, _, _ = run_cli(
            ["solve", "--ode", "rebp", "--range", bad, "--out", str(target)],
            capsys,
        )
        assert code == 2, bad
        assert not target.exists()


def test_solve_requires_target(capsys):
    code, _, err = run_cli(["solve"], capsys)
    assert code == 2
    assert "--ode or --case" in err


def test_solve_mismatched_pair_is_usage_error(capsys):
    code, _, _ = run_cli(["solve", "--ode", "ginv12", "--case", "S4"], capsys)
    assert code == 2


def test_solve_case_without_ode_attachment(capsys):
    code, _, _ = run_cli(["solve", "--case", "S7"], capsys)
    assert code == 2


def test_solve_singular_crossing_flags_range(capsys):
    # the scaling equation blows up at sigma = 0; the run survives and
    # reports the unreachable tail instead of crashing, and fails, since
    # nine nodes of the range have no rows
    code, _, err = run_cli(
        ["solve", "--ode", "d16nu", "--range=-1:1:0.125"], capsys
    )
    assert code == 1
    summary = json.loads(err)
    assert summary["status"] == "fail"
    assert summary["flagged"] == [[-0.125, 1.0]]
    assert summary["samples"] == 8


def test_solve_custom_ics(capsys):
    code, _, err = run_cli(
        ["solve", "--ode", "rebp", "--ics", "0.2,0.8", "--range", "0:1:0.00390625"],
        capsys,
    )
    assert code == 0
    assert json.loads(err)["status"] == "pass"


def test_solve_generator_floor(tmp_path, capsys):
    # the d16nu node rows carry the odd profile on the D1 generator, index 4
    target = tmp_path / "traj.csv"
    code, out, err = run_cli(
        ["solve", "--ode", "d16nu", "--generators", "4", "--out", str(target)], capsys
    )
    assert code == 2 and out == ""
    assert "at least 5 generators" in err
    assert not target.exists()
    for argv in (["--ode", "rebp", "--generators", "4", "--range", "0:0.5:0.125"],
                 ["--ode", "ginv12", "--generators", "4", "--range", "0:0.5:0.125"],
                 ["--ode", "ginv17", "--generators", "4", "--range", "0:0.5:0.125"],
                 ["--ode", "d16nu", "--generators", "5", "--range", "0.25:0.75:0.125"]):
        code, _, err = run_cli(["solve", *argv], capsys)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("ode,range_spec,column", [
    ("rebp", "0:1:0.0625", "alpha"),
    ("ginv12", "0:0.5:0.03125", "g"),
    ("ginv17", "0:0.5:0.03125", "g"),
    ("d16nu", "0.25:0.75:0.03125", "g"),
])
def test_solve_march_matches_one_integration(ode, range_spec, column, tmp_path, capsys):
    # solve marches one node at a time; over a dyadic range its nodes are
    # bit for bit those of one integrate_profile_ode call
    target = tmp_path / "traj.csv"
    code, _, _ = run_cli(["solve", "--ode", ode, "--range", range_spec, "--out", str(target)],
                         capsys)
    assert code == 0
    with open(target, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    lo, hi, step = (float(v) for v in range_spec.split(":"))
    traj = integrate_profile_ode(make_system(ode), (0.0, 1.0), lo, hi, step)
    assert [r["sigma"] for r in rows] == [repr(s.sigma) for s in traj.samples]
    assert [r[column] for r in rows] == [repr(s.value) for s in traj.samples]


@pytest.mark.parametrize("entry,ode", [("ginv9", "ginv12"), ("ginv14", "ginv17")])
def test_integrated_entry_has_the_nodes_of_the_default_solve(entry, ode, tmp_path, capsys):
    # the catalog entry and solve read one record of the equation: over
    # [0, 2] the entry's trajectory nodes are the solve's g column, bit for bit
    target = tmp_path / "traj.csv"
    code, _, _ = run_cli(["solve", "--ode", ode, "--out", str(target)], capsys)
    assert code == 0
    with open(target, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    defaults = dict(catalog_entry(entry).defaults)
    _, profiles, _ = _ginv_parts(entry, defaults, grassmann.DEFAULT_CONTEXT)
    traj = profiles["lambda"].terms[0][1].traj
    nodes = [s for s in traj.samples if 0.0 <= s.sigma <= 2.0]
    assert len(nodes) == len(rows) == 129
    assert [(r["sigma"], r["g"]) for r in rows] == [
        (repr(s.sigma), repr(s.value)) for s in nodes
    ]


def _count_calls(monkeypatch, name):
    """Calls of ``name`` through every binding of it in a loaded module of
    the package, so no import of it escapes the count."""
    calls = []
    holders = [mod for key, mod in sorted(sys.modules.items())
               if key.startswith("susygordon.") and hasattr(mod, name)]
    assert holders, f"no module of the package binds {name!r}"
    for mod in holders:
        real = getattr(mod, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("range_spec,n", [(None, 128), ("0:0.5:0.03125", 16)])
def test_solve_ginv12_evaluates_jacobi_2n_plus_1_times(range_spec, n, monkeypatch, capsys):
    # the background memo answers k2/k3 from one midpoint and k4, the node's
    # rhs, the node row and the next leg's start from one endpoint: two
    # evaluations per step and one at the first node
    calls = _count_calls(monkeypatch, "jacobi")
    argv = ["solve", "--ode", "ginv12"] + ([] if range_spec is None else ["--range", range_spec])
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(calls) == 2 * n + 1


@pytest.mark.parametrize("ode", ["rebp", "ginv12", "ginv17", "d16nu"])
def test_real_solve_sums_no_soul_series(ode, monkeypatch, capsys):
    # with real initial data no analytic function meets a soul: sin and cos
    # take floats, so the soul-Taylor loop never runs
    calls = _count_calls(monkeypatch, "soul_derivs")
    code, _, _ = run_cli(["solve", "--ode", ode], capsys)
    assert code == 0
    assert calls == []


@pytest.mark.parametrize("ode", ["rebp", "ginv12", "ginv17", "d16nu"])
def test_real_solve_makes_no_grassmann_product_in_its_rhs(ode, monkeypatch, capsys):
    # real data march on floats: inside the rhs (and the rebp energy) no
    # supernumber is ever multiplied
    depth, products, calls = [], [], []
    gn = grassmann.GrassmannNumber
    real_mul = gn.__mul__

    def counted_mul(self, other):
        if depth:
            products.append(1)
        return real_mul(self, other)

    def scoped(fn):
        def run(*args):
            calls.append(1)
            depth.append(1)
            try:
                return fn(*args)
            finally:
                depth.pop()
        return run

    real_make = odes.make_system

    def make(*args, **kwargs):
        system = real_make(*args, **kwargs)
        energy = system.energy
        return dataclasses.replace(
            system, rhs=scoped(system.rhs), energy=energy and scoped(energy)
        )

    monkeypatch.setattr(gn, "__mul__", counted_mul)
    monkeypatch.setattr(odes, "make_system", make)
    code, _, _ = run_cli(["solve", "--ode", ode], capsys)
    assert code == 0
    assert calls and products == []


@pytest.mark.parametrize("given", [[], ["--K0", "0.25", "--eps", "1"]])
def test_real_rebp_solve_makes_no_grassmann_product_or_sum(given, monkeypatch, capsys):
    # no generator enters a rebp run with real data and a real K0, so its
    # march, rows and drift all compute on floats
    ops = []
    gn = grassmann.GrassmannNumber
    for name in ("__mul__", "__add__", "__radd__", "__sub__"):
        real = getattr(gn, name)

        def counted(self, other, _real=real, _name=name):
            ops.append(_name)
            return _real(self, other)

        monkeypatch.setattr(gn, name, counted)
    code, _, _ = run_cli(["solve", "--ode", "rebp", *given], capsys)
    assert code == 0
    assert ops == []


@pytest.mark.parametrize("ode,ics", [
    ("rebp", "-0.0,-0.0"), ("ginv12", "-0.0,0.0"), ("d16nu", "-0.0,-0.0"),
])
def test_solve_negative_zero_data_give_the_bytes_of_zero_data(ode, ics, tmp_path, capsys):
    # a float march keeps -0.0 where zero data hold 0.0; the profile cells
    # print a zero of either sign as 0.0 all the same
    got = []
    for given in (ics, ics.replace("-", "")):
        target = tmp_path / f"{given}.csv"
        code, out, _ = run_cli(
            ["solve", "--ode", ode, f"--ics={given}", "--out", str(target)], capsys
        )
        got.append((code, out, target.read_bytes()))
    assert got[0] == got[1]


def test_solve_nan_residual_fails(monkeypatch, capsys):
    # a row is a supernumber or a float, and take reads both: each must fail,
    # a NaN in a soul term as well as one in a body.  JSON writes NaN as
    # null; the sign of a NaN is not compared
    real = odes._node_row
    for nan_row, field in (
        (lambda ctx: ctx.scalar(math.nan), "max_residual_body"),
        (lambda ctx: math.nan, "max_residual_body"),
        (lambda ctx: ctx.gen("nu") * math.nan, "max_residual_soul_norm"),
    ):

        def poisoned(system, sample, ctx, *params, nan_row=nan_row):
            rows, *rest = real(system, sample, ctx, *params)
            if sample.sigma >= 1.0:  # a NaN row behind finite ones
                rows = list(rows) + [nan_row(ctx)]
            return (rows, *rest)

        monkeypatch.setattr(odes, "_node_row", poisoned)
        code, _, err = run_cli(["solve", "--ode", "rebp"], capsys)
        assert code == 1
        summary = json.loads(err, parse_constant=_reject_constant)
        assert summary["status"] == "fail" and summary[field] is None


def test_solve_far_from_the_origin_marches_every_node(tmp_path, capsys):
    # near 1e8 a leg's own width, 0.001 after rounding, is off by about
    # 1.5e-8, more than the range rule's 1e-9 relative; the range is checked
    # once as a whole, so the march takes all 1,001 nodes
    target = tmp_path / "traj.csv"
    code, out, _ = run_cli(["solve", "--ode", "d16nu", "--range", "100000000:100000001:0.001",
                            "--out", str(target)], capsys)
    summary = json.loads(out, parse_constant=_reject_constant)
    assert code == 0 and summary["status"] == "pass"
    assert summary["samples"] == 1001 == len(target.read_text().splitlines()) - 1
    assert summary["flagged"] == []


@pytest.mark.parametrize("ode,n", [("rebp", 768), ("ginv12", 128), ("d16nu", 128)])
def test_solve_makes_6n_plus_1_rhs_calls(ode, n, monkeypatch, capsys):
    # the first node's rhs, then per step the leg's start sample, four RK4
    # stages and the node: the count perfbench's odes.rhs_per_node reads.
    # Marching once with k1 reused (ROADMAP item 1) lowers it, together with
    # the > 5.0 bound on that metric in perfbench/test_smoke.py
    calls = []
    real_make = odes.make_system

    def make(*args, **kwargs):
        system = real_make(*args, **kwargs)
        rhs = system.rhs

        def counted(*a):
            calls.append(1)
            return rhs(*a)

        return dataclasses.replace(system, rhs=counted)

    monkeypatch.setattr(odes, "make_system", make)
    code, _, _ = run_cli(["solve", "--ode", ode], capsys)
    assert code == 0
    assert len(calls) == 6 * n + 1


def test_solve_overflowed_drift_fails(capsys):
    # d1*d1 overflows, so the drift is NaN: JSON writes it as null, the same
    # as no first integral, and the verdict must not pass it
    code, _, err = run_cli(
        ["solve", "--ode", "rebp", "--range", "0:1:0.25", "--ics=1e200,1e200"], capsys
    )
    assert code == 1
    summary = json.loads(err, parse_constant=_reject_constant)
    assert summary["status"] == "fail" and summary["drift"] is None
    assert summary["max_residual_body"] == 0.0


@pytest.mark.parametrize("given", [["--K0", "1e308"], ["--ics=1e308,1e308"], ["--ics=1e308,0"]])
def test_solve_overflowed_march_ends_in_a_report(given, tmp_path, capsys):
    # finite data whose march or energy overflows, so math.sin or math.cos
    # meets an infinite number: the run keeps the nodes marched so far, and
    # fails
    target = tmp_path / "traj.csv"
    code, out, _ = run_cli(["solve", "--ode", "rebp", *given, "--out", str(target)], capsys)
    assert code == 1
    summary = json.loads(out, parse_constant=_reject_constant)
    assert summary["status"] == "fail"
    lines = target.read_text().splitlines()
    assert lines[0] == "sigma,alpha,g,f,residual_body,residual_soul_norm"
    assert 1 <= summary["samples"] == len(lines) - 1


@pytest.mark.parametrize("argv", [
    ["--ode", "rebp", "--range", "0:inf:1"],
    ["--ode", "rebp", "--range", "nan:1:0.5"],
    ["--ode", "rebp", "--eps", "0.5"],
    ["--ode", "ginv12", "--modulus", "1.5"],
    ["--ode", "ginv12", "--eps", "1"],
    ["--ode", "ginv17", "--eps", "1"],
    ["--ode", "rebp", "--ics", "nan,0"],
    ["--ode", "rebp", "--K0", "inf"],
    ["--ode", "rebp", "--range", "0:1e300:1e-300"],
])
def test_solve_bad_numbers_are_usage_errors(argv, tmp_path, capsys):
    target = tmp_path / "traj.csv"
    code, out, err = run_cli(["solve", *argv, "--out", str(target)], capsys)
    assert code == 2, err
    assert out == "" and err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize("ode", ["rebp", "ginv12"])
def test_solve_is_one_library_call(ode, tmp_path, capsys):
    # cmd_solve only renders: the summary of solve_profile is the summary
    # solve prints, byte for byte, and its node tuples are the CSV rows
    target = tmp_path / "traj.csv"
    code, out, _ = run_cli(["solve", "--ode", ode, "--out", str(target)], capsys)
    cfg = RunConfig(ode=ode)
    nodes, summary = odes.solve_profile(
        ode, odes.REDUCED_ODES[ode].span, cfg.ics, ctx=cfg.context(), tol=cfg.tiers["ode"],
        eps=cfg.eps, coupling=cfg.k0, modulus=cfg.modulus,
    )
    assert code == 0 and summary["status"] == "pass"
    assert cli._json_text(summary) == out
    with open(target, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(nodes) == summary["samples"]
    assert [[None if c == "" else float(c) for c in row] for row in rows] == [
        [None if v is None else float(v) for v in node] for node in nodes
    ]


@pytest.mark.parametrize("argv", [
    ["--ode", "d16nu", "--range=-1:1:0.125"],
    ["--ode", "rebp"],
    ["--ode", "ginv12"],
    ["--ode", "ginv17"],
    ["--ode", "d16nu"],
])
def test_solve_status_is_the_benchmark_verdict(argv, monkeypatch, capsys):
    # one rule judges a solve: the benchmark recomputes the verdict from the
    # residuals, the node count and the flagged ranges, and the status and
    # the exit code must agree with it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("run")
    code, _, err = run_cli(["solve", *argv], capsys)
    record, problems = bench.judge_summary(json.loads(err))
    assert problems == []
    assert code == (0 if record.passed else 1)


def test_subcommands_reject_the_flags_they_do_not_read(capsys):
    # solve writes only CSV and draws no sample; list prints fixed catalogs
    unread = {"solve": (["--seed", "1"], ["--format", "csv"], ["--format", "json"]),
              "list": (["--seed", "1"], ["--tolerance", "exact=1e-3"], ["--generators", "6"])}
    for command, flags in unread.items():
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                main([command, *flag])
            assert exc.value.code == 2, (command, flag)
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "solve", "list"])
def test_unset_flags_take_the_run_config_defaults(command):
    # the parser states no default of its own: RunConfig is their one home
    ns = cli.build_parser().parse_args([command])
    assert vars(ns) == {"command": command}
    cfg = cli._config_from(ns)
    assert cfg == RunConfig()
    # solve's initial data too: cmd_solve has no fallback of its own
    assert cfg.ics == (0.0, 1.0)


def test_given_flags_reach_the_run_config():
    def config(argv):
        return cli._config_from(cli.build_parser().parse_args(argv))

    argv = ["solve", "--ode", "rebp", "--range", "0:1:0.5", "--ics=0.25,-1",
            "--K0", "0.5", "--eps", "1", "--modulus", "0.3",
            "--generators", "6", "--tolerance", "ode=1e-3", "--out", "t.csv"]
    assert config(argv) == RunConfig(
        ode="rebp", range_spec=(0.0, 1.0, 0.5), ics=(0.25, -1.0), k0=0.5, eps=1.0,
        modulus=0.3, generators=6, out="t.csv",
        tiers={**grassmann.TIER_DEFAULTS, "ode": 1e-3},
    )
    argv = ["verify", "--suite", "algebra", "--case", "S8", "--seed", "4", "--generators", "6",
            "--tolerance", "trig=1e-9", "--format", "md", "--out", "r.md"]
    assert config(argv) == RunConfig(
        suite="algebra", case="S8", seed=4, generators=6, fmt="md", out="r.md",
        tiers={**grassmann.TIER_DEFAULTS, "trig": 1e-9},
    )
    assert config(["list", "--format", "csv", "--out", "c.csv"]) == RunConfig(fmt="csv", out="c.csv")
