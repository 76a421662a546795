"""Top-level acceptance sweep: ten criteria, one pass/fail line each.

Each test prints its verdict so a plain ``pytest -v tests/test_acceptance.py``
reads as a checklist.  Budgeted criteria time themselves and fail when they
run over.
"""

import itertools
import json
import random
import time

from susygordon.catalog import catalog_entry, catalog_names, verify_entry
from susygordon.checks import (
    b5_residuals,
    bch_residuals,
    consistency_residuals,
    covariant_squares,
    elliptic_identities,
    graded_jacobi,
    prolongation_gaps,
    rk4_ratio,
    shift_shortfalls,
    slice_residuals,
    structure_residuals,
    susy_anticommutators,
    symmetry_residuals,
    traveling_drifts,
)
from susygordon.cli import main
from susygordon.grassmann import DEFAULT_CONTEXT as CTX, worst_of
from susygordon.reductions import nonstandard_obstruction, reduction_case_ids
from susygordon.superalgebra import AlgebraElement


def _verdict(num, label, ok):
    print(f"criterion {num:02d} ({label}): {'pass' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} ({label})"


def test_criterion_01_operator_algebra():
    t0 = time.perf_counter()
    # one jet per superfield and point serves both identity families
    sampler = b5_residuals(covariant_squares, susy_anticommutators)
    worst = worst_of(sampler(CTX, 900, 50))
    elapsed = time.perf_counter() - t0
    _verdict(1, "operator algebra", worst <= 1e-12 and elapsed < 5.0)


def test_criterion_02_prolongation_oracle():
    t0 = time.perf_counter()
    worst = worst_of(itertools.chain(
        prolongation_gaps("superspace")(CTX, 7000, 100),
        prolongation_gaps("component")(CTX, 8000, 100),
    ))
    elapsed = time.perf_counter() - t0
    _verdict(2, "prolongation oracle equivalence", worst <= 1e-12 and elapsed < 30.0)


def test_criterion_03_determining_equations():
    worst = worst_of(symmetry_residuals("superspace")(CTX, 11000, 200))
    cworst = worst_of(symmetry_residuals("component")(CTX, 12000, 100))
    # the field shift is NOT a symmetry; its residual body must stay at or
    # above 0.1, so its shortfall below 0.1 must be zero
    shortfall = worst_of(shift_shortfalls("superspace")(CTX, 13000, 60))
    cshortfall = worst_of(shift_shortfalls("component")(CTX, 14000, 60))
    _verdict(
        3,
        "determining equations",
        worst <= 1e-12 and cworst <= 1e-12 and shortfall <= 0.0 and cshortfall <= 0.0,
    )


def test_criterion_04_structure_constants():
    dev = worst_of(itertools.chain(
        structure_residuals("superspace")(CTX, 0, 4),
        structure_residuals("component")(CTX, 0, 4),
    ))

    def rand_elem(seed):
        rng = random.Random(seed)
        mu, nu = CTX.gen("mu"), CTX.gen("nu")
        eta, lam = CTX.gen("D1"), CTX.gen("D2")
        return AlgebraElement.from_coeffs(
            CTX,
            L=CTX.scalar(rng.uniform(-1, 1)) + mu * nu * rng.uniform(-0.5, 0.5),
            Px=rng.uniform(-1, 1),
            Pt=rng.uniform(-1, 1),
            Qx=mu * rng.uniform(-1, 1) + eta * rng.uniform(-1, 1),
            Qt=nu * rng.uniform(-1, 1) + lam * rng.uniform(-1, 1),
        )

    jac = worst_of(
        graded_jacobi(rand_elem(3 * s), rand_elem(3 * s + 1), rand_elem(3 * s + 2))
        for s in range(100)
    )
    _verdict(4, "structure constants", dev <= 1e-12 and jac <= 1e-12)


def test_criterion_05_bch_closed_form():
    worst = worst_of(bch_residuals(CTX, 40, 5))
    _verdict(5, "BCH closed form", worst <= 1e-10)


def test_criterion_06_reduction_consistency():
    worst = worst_of(
        r
        for i, case in enumerate(reduction_case_ids())
        for r in consistency_residuals(case, i)(CTX, 500, 1)
    )
    # one rng stream runs through every component case
    sworst = worst_of(slice_residuals(CTX, itertools.repeat(random.Random(77))))
    _verdict(6, "reduction consistency", worst <= 1e-10 and sworst <= 1e-12)


def test_criterion_07_solution_catalog():
    t0 = time.perf_counter()
    ok = True
    for name in catalog_names():
        check = verify_entry(name)
        entry = catalog_entry(name)
        if not check.passed or check.tolerance != entry.tolerance:
            ok = False
    elapsed = time.perf_counter() - t0
    _verdict(7, "solution catalog", ok and elapsed < 120.0)


def test_criterion_08_elliptic_layer():
    worst = worst_of(elliptic_identities((-1.0, -0.3, 0.2, 0.49, 0.81))(CTX, 0, None))
    drift = worst_of(traveling_drifts(CTX, 0, None))
    ratio = rk4_ratio()
    _verdict(
        8,
        "elliptic layer",
        worst <= 1e-12 and drift <= 1e-8 and 12.8 <= ratio <= 19.2,
    )


def test_criterion_09_obstruction_demo():
    rec = nonstandard_obstruction("S5", CTX)
    ok = (
        rec.reducible is False
        and rec.x_gap >= 0.1
        and rec.solution_set == "value = k*pi"
        and max(rec.details["kpi_residuals"].values()) <= 1e-12
        and rec.details["offset_body_residual"] >= 0.1
        and rec.details["odd_probe_residual"] >= 0.1
    )
    _verdict(9, "obstruction demo", ok)


def test_criterion_10_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "all", "--seed", "1"]
    code_a = main(args + ["--out", str(a)])
    code_b = main(args + ["--out", str(b)])
    capsys.readouterr()
    same = a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    all_pass = all(c["status"] == "pass" for c in report["checks"])
    _verdict(10, "determinism", code_a == 0 and code_b == 0 and same and all_pass)
