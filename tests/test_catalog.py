"""Solution catalog: every entry beats its advertised residual tolerance.

Closed forms are additionally pinned by structure checks (theta slots read
back the displayed coefficients) and by negative controls that flip one
sign and watch the residual blow up; without those a residual check alone
could be satisfied by an accidentally trivial field.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susygordon.analytic import SIN, TANH, DomainError, Poly, TrigPoly
from susygordon.elliptic import JacobiSn, jacobi
from susygordon.grassmann import DEFAULT_CONTEXT, ParityError, apply_analytic
from susygordon.catalog import (
    EntryCheck,
    _OdeBackedFn,
    _ginv_parts,
    catalog_entry,
    catalog_names,
    catalog_solution,
    default_grid,
    verify_entry,
)
from susygordon.odes import integrate_two_sided, make_system
from susygordon.reductions import OutOfDomain, build_ansatz, profile
from susygordon.superfield import evaluate_bundle, ssg_residual, theta_coefficients

from helpers import reduced_residual

CTX = DEFAULT_CONTEXT


def odd_sector_profiles(name):
    """(case id, reduced profiles, case parameters) behind the integrated
    entry ``name`` (ginv9 or ginv14) at its default parameters."""
    return _ginv_parts(name, dict(catalog_entry(name).defaults), CTX)


EXACT = ("gian1", "gian1A", "gian1B", "gian1C", "gian1D", "gian1E", "gian1F", "gian1G", "gian2")


def test_catalog_names_are_stable():
    names = catalog_names()
    assert names == (
        "gian1",
        "gian1A",
        "gian1B",
        "gian1C",
        "gian1D",
        "gian1E",
        "gian1F",
        "gian1G",
        "gian2",
        "d3",
        "d5",
        "d18",
        "ginv9",
        "ginv14",
    )
    assert len(set(names)) == len(names)


def test_unknown_entry_lists_the_catalog():
    with pytest.raises(KeyError, match="d18"):
        catalog_entry("d19")


def test_unknown_parameter_is_rejected():
    with pytest.raises(ValueError, match="unknown parameters"):
        verify_entry("d5", params={"D7": None})


@pytest.mark.parametrize("name", EXACT)
def test_exact_entries_meet_machine_tolerance(name):
    check = verify_entry(name)
    assert check.tolerance == 1e-12
    assert check.passed, (name, check.max_residual)
    # "exact" really means roundoff, not just inside the advertised band
    assert check.max_residual < 1e-14


@pytest.mark.parametrize("name", ["gian1", "gian1B", "gian1D", "gian1F", "gian2"])
@pytest.mark.parametrize("k", [-2, -1, 0, 1, 3])
def test_vacuum_tower_all_rungs(name, k):
    assert verify_entry(name, params={"k": k}).passed


def test_vacuum_index_must_be_whole():
    with pytest.raises(ValueError, match="whole number"):
        verify_entry("gian1", params={"k": 0.5})


@pytest.mark.parametrize("k", [-1, 0, 1, 2])
@pytest.mark.parametrize("name", ["gian1A", "gian1C", "gian1E", "gian1G"])
def test_dressed_vacua_all_rungs(name, k):
    check = verify_entry(name, params={"k": k})
    assert check.max_residual < 1e-14, (name, k, check.max_residual)


def test_gian1a_reads_back_the_displayed_components():
    f = catalog_solution("gian1A", params={"k": 0})
    b = evaluate_bundle(f, 0.3, 1.7)
    c0, c1, c2, c3 = theta_coefficients(b.value, CTX)
    m0 = CTX.gen("mu0")
    assert abs(c0.body - 0.5 * math.pi) < 1e-15 and c0.soul().is_zero()
    assert (c1 - m0).is_zero()
    assert (c2 - m0 * (1.7**2)).is_zero()
    assert (c3 - CTX.scalar(-1.0)).is_zero()


def test_gian1g_theta_weight_flips_with_the_rung():
    lo = evaluate_bundle(catalog_solution("gian1G", params={"k": 0}), 0.4, 0.9)
    hi = evaluate_bundle(catalog_solution("gian1G", params={"k": 1}), 0.4, 0.9)
    _, _, _, f_lo = theta_coefficients(lo.value, CTX)
    _, _, _, f_hi = theta_coefficients(hi.value, CTX)
    assert abs(f_lo.body + 1.0) < 1e-15
    assert abs(f_hi.body - 1.0) < 1e-15


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
def test_gian1a_profile_freedom(coeffs):
    # the time profile multiplying the odd constant is genuinely free
    check = verify_entry("gian1A", params={"profile": Poly(coeffs)})
    assert check.max_residual < 1e-13


def test_gian1e_profile_argument_collapses_to_x():
    # replacing the profile changes nothing in t: value jets at fixed x agree
    f = catalog_solution("gian1E", params={"profile": TrigPoly(waves=((0.8, 1.3, 0.2),))})
    b1 = evaluate_bundle(f, 0.6, -1.0)
    b2 = evaluate_bundle(f, 0.6, -1.0 + 0.5)
    c1 = theta_coefficients(b1.value, CTX)[1]
    c2 = theta_coefficients(b2.value, CTX)[1]
    assert (c1 - c2).is_zero()


def test_dressing_parity_is_enforced():
    with pytest.raises(ParityError):
        verify_entry("gian1A", params={"mu0": CTX.scalar(0.7)})
    with pytest.raises(ParityError):
        verify_entry("ginv14", params={"mu": CTX.one()})


# ------------------------------------------------------------- closed forms


def test_d5_kink_entry():
    check = verify_entry("d5")
    assert check.subalgebra == "S4"
    assert check.max_residual < 1e-12
    f = catalog_solution("d5")
    c = theta_coefficients(evaluate_bundle(f, 1.0, 0.5).value, CTX)
    d1 = CTX.gen("D1")
    sg = 1.5
    assert abs(c[0].body - math.asin(math.tanh(sg))) < 1e-14
    assert (c[1] - d1 * (1.0 / math.cosh(sg))).norm() < 1e-14
    assert (c[2] - d1 * math.tanh(sg)).norm() < 1e-14
    assert abs(c[3].body + math.tanh(sg)) < 1e-14


def test_d5_wrong_beta_sign_is_caught():
    from susygordon.analytic import ARCSIN, SECH, TaylorFn

    d1 = CTX.gen("D1")
    profiles = {
        "alpha": profile(CTX, (1.0, TaylorFn(lambda s: s.apply(TANH).apply(ARCSIN)))),
        "mu": profile(CTX, (d1, SECH)),
        "nu": profile(CTX, (d1, TANH)),
        "beta": profile(CTX, (1.0, TANH)),
    }
    f = build_ansatz("S4", profiles, params={"eps": -1.0}, ctx=CTX)
    assert ssg_residual(f, 1.0, 0.5).norm() > 0.1


def test_d18_oscillatory_entry():
    check = verify_entry("d18")
    assert check.max_residual < 1e-11
    assert check.samples == 25


def test_d18_needs_positive_time():
    f = catalog_solution("d18")
    with pytest.raises(OutOfDomain):
        ssg_residual(f, 1.0, -0.5)


def test_d3_elliptic_entry():
    check = verify_entry("d3")
    assert check.tolerance == 1e-8
    # closed-form ladders actually land far below the advertised band
    assert check.max_residual < 1e-11, check.max_residual
    for x, t in default_grid("d3"):
        assert 0.25 < x - t < 2.35


def test_d3_background_matches_the_elliptic_triple():
    f = catalog_solution("d3")
    c = theta_coefficients(evaluate_bundle(f, 1.3, 0.25).value, CTX)
    trip = jacobi(1.05, -1.0)
    assert abs(c[0].body - math.acos(trip.cn)) < 1e-14
    assert abs(c[3].body + trip.sn) < 1e-14
    # odd doublet squares to zero, so the quartic row degenerates
    assert (c[1] * c[2]).is_zero()


def test_d3_degenerates_at_the_cell_edge():
    f = catalog_solution("d3")
    with pytest.raises(DomainError):
        ssg_residual(f, 1.0, 1.0)  # sigma = 0, cn = 1


# ------------------------------------------------- quadrature-backed entries


@pytest.mark.parametrize("name", ["ginv14", "ginv9"])
def test_integrated_entries_meet_tolerance(name):
    check = verify_entry(name)
    assert check.tolerance == 1e-6
    assert check.samples == 22
    # node data closes the equation exactly, so only roundoff remains
    assert check.max_residual < 1e-10, (name, check.max_residual)


def test_integrated_entries_build_each_coefficient_series_once(monkeypatch):
    # the lambda profile and the eta quotient ask for the same sn/cn/dn
    # series at every grid sigma: the two entries' 87 requests need 44
    # builds, one per (instance, sigma, order)
    builds = []
    build = _OdeBackedFn._coeff_series

    def counted(self, x, order):
        builds.append((self, x, order))
        return build(self, x, order)

    monkeypatch.setattr(_OdeBackedFn, "_coeff_series", counted)
    for name in ("ginv9", "ginv14"):
        assert verify_entry(name).passed
    assert len(builds) == 44
    assert len({(id(g), x, order) for g, x, order in builds}) == 44
    # a zero's sign and the order stay in the key, and a stored series
    # gives the bits a fresh build gives
    gfn = builds[0][0]
    gfn._series.clear()
    builds.clear()
    asks = ((0.0, 3), (-0.0, 3), (0.0, 4), (-0.0, 3), (0.0, 4))
    got = [repr(gfn.derivs(x, n)) for x, n in asks]
    assert [(math.copysign(1.0, x), order) for _, x, order in builds] == [
        (1.0, 1), (-1.0, 1), (1.0, 2)]
    fresh = [_OdeBackedFn(gfn.traj, gfn.eps, gfn.force, gfn.k).derivs(x, n) for x, n in asks]
    assert got == [repr(v) for v in fresh]


@pytest.mark.parametrize("name", ["ginv14", "ginv9"])
@pytest.mark.parametrize("half,samples", [(1.0, 14), (0.5, 10)])
def test_integrated_grid_stays_inside_the_halfwidth(name, half, samples):
    # the grid keeps only the sigmas the shorter trajectory covers
    check = verify_entry(name, params={"halfwidth": half})
    assert check.samples == samples
    assert check.passed and check.max_residual < 1e-10, (name, check.max_residual)


@pytest.mark.parametrize(
    "name,sign", [("ginv14", 1.0), ("ginv9", -1.0)]
)
def test_background_first_row(name, sign):
    # beta + sin(alpha) for the S8 family, beta - sin(alpha) for S12
    case, profiles, params = odd_sector_profiles(name)
    for sg in (-1.5, -0.25, 0.5, 1.75):
        beta = profiles["beta"].value_at(sg)
        alpha = profiles["alpha"].value_at(sg)
        row = beta + apply_analytic(SIN, alpha) * sign
        assert row.norm() < 1e-10


@pytest.mark.parametrize("name", ["ginv14", "ginv9"])
def test_reduced_rows_vanish_at_nodes(name):
    case, profiles, params = odd_sector_profiles(name)
    for sg in (-1.0, -0.25, 0.25, 0.5, 1.5):
        rows = reduced_residual(case, profiles, sg, params=params, ctx=CTX)
        assert len(rows) == 4
        worst = max(r.norm() for r in rows)
        assert worst < 1e-12, (name, sg, worst)


def test_integrated_profile_is_coherent_between_nodes():
    # Taylor data at one node predicts the next node to RK4-like accuracy;
    # this is what separates a trajectory from pointwise-consistent noise.
    _, profiles, _ = odd_sector_profiles("ginv14")
    lam = profiles["lambda"]
    h = 1.0 / 64.0
    g = [v.norm() for v in lam.derivs_at(0.5, 2)]
    here = lam.derivs_at(0.5, 2)
    there = lam.value_at(0.5 + h)
    mu = CTX.gen("mu")
    predicted = here[0] + here[1] * h + here[2] * (0.5 * h * h)
    assert (there - predicted).norm() < 1e-6 * max(1.0, g[0])


def test_integrated_entries_reject_the_other_branch():
    for name in ("ginv14", "ginv9"):
        with pytest.raises(OutOfDomain, match="eps = -1"):
            verify_entry(name, params={"eps": 1.0})


def test_integrated_entry_parameter_checks():
    with pytest.raises(ValueError, match="modulus"):
        verify_entry("ginv14", params={"modulus": 1.2})
    with pytest.raises(ValueError, match="eps"):
        verify_entry("ginv9", params={"eps": 0.3})
    with pytest.raises(ValueError, match="finite step count"):
        verify_entry("ginv9", params={"halfwidth": 1e300, "step": 1e-300})


def test_modulus_sweep_stays_within_tolerance():
    for k in (0.0, 0.3, 0.5, 0.9):
        check = verify_entry("ginv9", params={"modulus": k})
        assert check.passed, (k, check.max_residual)


def test_dropping_the_forcing_term_breaks_the_field():
    # integrate the homogeneous variant by flipping the drive off via the
    # wrong system; the assembled field then fails the first-order odd row
    from susygordon.catalog import _OdeBackedFn, _OddQuotientFn
    from susygordon.analytic import ARCSIN, TaylorFn

    k, m, eps = 0.7, 0.49, -1.0
    system = make_system("ginv12", eps=eps, modulus=k)  # wrong drive sign for S8
    traj = integrate_two_sided(system, (0.0, 1.0), -1.5, 1.5, 1.0 / 64.0)
    gfn = _OdeBackedFn(traj, eps, 1.0, k)
    ffn = _OddQuotientFn(gfn, eps, m)
    mu = CTX.gen("mu")
    profiles = {
        "alpha": profile(CTX, (1.0, TaylorFn(lambda s: (s.apply(JacobiSn(m)) * k).apply(ARCSIN)))),
        "eta": profile(CTX, (mu, ffn)),
        "lambda": profile(CTX, (mu, gfn)),
        "beta": profile(CTX, (-k, JacobiSn(m))),
    }
    f = build_ansatz("S8", profiles, params={"eps": eps, "mu": mu}, ctx=CTX)
    assert ssg_residual(f, -0.75, 0.25).norm() > 1e-3


def test_derivative_order_caps_are_honest():
    _, profiles, _ = odd_sector_profiles("ginv14")
    gfn = profiles["lambda"].terms[0][1]
    ffn = profiles["eta"].terms[0][1]
    with pytest.raises(ValueError, match="order 4"):
        gfn.derivs(0.25, 5)
    with pytest.raises(ValueError, match="order 3"):
        ffn.derivs(0.25, 4)


def test_entrycheck_passed_flag():
    good = EntryCheck("x", "S1", 1e-13, 1e-12, 3)
    bad = EntryCheck("x", "S1", 1e-3, 1e-12, 3)
    assert good.passed and not bad.passed
