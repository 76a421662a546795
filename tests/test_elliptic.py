"""sn/cn/dn against frozen multiprecision values, series, and identities.

Frozen decimals were computed once with scipy.special.ellipj (m in (0,1))
and mpmath.ellipfun (m < 0); the series oracle below rebuilds the
Maclaurin coefficients straight from the defining first-order system, so
it shares no code with the AGM path under test.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susygordon.grassmann import DEFAULT_CONTEXT, ParityError
from susygordon.elliptic import (
    EllipticTriple,
    JacobiCn,
    JacobiDn,
    JacobiSn,
    UnsupportedParameter,
    _agm_ladder,
    ellipk,
    jacobi,
    jacobi_jet,
)

ctx = DEFAULT_CONTEXT

M_GRID = (-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0)


def maclaurin_triple(m, order):
    """Taylor coefficients of (sn, cn, dn) from the coupled system alone."""
    s = [0.0] * (order + 1)
    c = [1.0] + [0.0] * order
    d = [1.0] + [0.0] * order
    for j in range(order):
        s[j + 1] = sum(c[i] * d[j - i] for i in range(j + 1)) / (j + 1)
        c[j + 1] = -sum(s[i] * d[j - i] for i in range(j + 1)) / (j + 1)
        d[j + 1] = -m * sum(s[i] * c[j - i] for i in range(j + 1)) / (j + 1)
    return s, c, d


def horner(coeffs, u):
    acc = 0.0
    for a in reversed(coeffs):
        acc = acc * u + a
    return acc


# ------------------------------------------------------------- fixed values


def test_agm_ladder_is_kept_per_parameter():
    _agm_ladder.cache_clear()
    first = jacobi(0.9, 0.49)
    ladder = _agm_ladder(0.49)
    assert all(isinstance(v, tuple) for v in ladder)
    assert _agm_ladder(0.49) is ladder
    assert jacobi(0.9, 0.49) == first


def test_initial_conditions():
    t = jacobi(0.0, 0.5)
    assert (t.sn, t.cn, t.dn) == (0.0, 1.0, 1.0)
    assert isinstance(t, EllipticTriple)
    assert t.u == 0.0 and t.m == 0.5


def test_degenerate_parameters():
    for u in (-2.0, 0.3, 1.9):
        t0 = jacobi(u, 0.0)
        assert t0.sn == pytest.approx(math.sin(u), abs=1e-15)
        assert t0.cn == pytest.approx(math.cos(u), abs=1e-15)
        assert t0.dn == 1.0
        t1 = jacobi(u, 1.0)
        assert t1.sn == pytest.approx(math.tanh(u), abs=1e-15)
        assert t1.cn == pytest.approx(1.0 / math.cosh(u), abs=1e-15)
        assert t1.dn == pytest.approx(t1.cn, abs=1e-15)


FROZEN = [
    # (u, m, sn, cn, dn)
    (0.3, 0.5, 0.2934127331684554, 0.9559858618277871, 0.9782405041743613),
    (1.0, 0.25, 0.8226355781298623, 0.5685689980951715, 0.9114920056691319),
    (2.7, 0.75, 0.9605755318841616, -0.2780191496020733, 0.5549513362981432),
    (-1.4, 0.5, -0.9471678386211034, 0.32073834426495906, 0.74258773403613),
    (0.8, 0.999, 0.6640909676967592, 0.7476517816628152, 0.7479466581494688),
    (0.5, -1.0, 0.49689119041931194, 0.86781285130129243, 1.1166471488864873),
    (1.0, -1.0, 0.90768322140494617, 0.41965601339661448, 1.3505142836786513),
    (1.7, -1.0, 0.85919229135668783, -0.51165281829893643, 1.318412451976526),
    (0.9, -0.5, 0.81458667735701328, 0.58004184769071718, 1.1540258781603511),
    (3.1, -2.5, -0.88791814136282913, -0.46000149373537797, 1.7236579023701462),
]


@pytest.mark.parametrize("u,m,sn,cn,dn", FROZEN)
def test_frozen_reference_values(u, m, sn, cn, dn):
    t = jacobi(u, m)
    assert t.sn == pytest.approx(sn, abs=1e-12)
    assert t.cn == pytest.approx(cn, abs=1e-12)
    assert t.dn == pytest.approx(dn, abs=1e-12)


def test_quarter_period_values():
    K = ellipk(0.5)
    assert K == pytest.approx(1.8540746773013719, abs=1e-13)
    assert ellipk(0.25) == pytest.approx(1.685750354812596, abs=1e-13)
    assert ellipk(-1.0) == pytest.approx(1.3110287771460598, abs=1e-13)
    assert ellipk(-0.5) == pytest.approx(1.4157372084259562, abs=1e-13)
    t = jacobi(K, 0.5)
    assert t.sn == pytest.approx(1.0, abs=1e-12)
    assert t.cn == pytest.approx(0.0, abs=1e-12)
    assert t.dn == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert ellipk(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert ellipk(1.0) == math.inf


def test_parameter_above_one_rejected():
    with pytest.raises(UnsupportedParameter):
        jacobi(0.5, 1.0001)
    with pytest.raises(UnsupportedParameter):
        ellipk(2.0)


# --------------------------------------------------------------- identities


def test_pythagorean_identities_on_grid():
    worst_sc = worst_d = 0.0
    for m in M_GRID:
        for i in range(200):
            u = -10.0 + 20.0 * i / 199
            t = jacobi(u, m)
            worst_sc = max(worst_sc, abs(t.sn**2 + t.cn**2 - 1.0))
            worst_d = max(worst_d, abs(t.dn**2 + m * t.sn**2 - 1.0))
    assert worst_sc < 1e-12
    assert worst_d < 1e-12


def test_ode_residuals_by_central_difference():
    h = 1e-5
    worst = 0.0
    for m in M_GRID:
        for i in range(40):
            u = -3.0 + 6.0 * i / 39
            t = jacobi(u, m)
            up, um = jacobi(u + h, m), jacobi(u - h, m)
            worst = max(
                worst,
                abs((up.sn - um.sn) / (2 * h) - t.cn * t.dn),
                abs((up.cn - um.cn) / (2 * h) + t.sn * t.dn),
                abs((up.dn - um.dn) / (2 * h) + m * t.sn * t.cn),
            )
    assert worst < 1e-6


def test_maclaurin_series_agreement():
    # the displayed low-order pattern first: cn = 1 - u^2/2 + (1+4m)u^4/24 - ...
    for m in (-1.0, 0.3):
        _, c, _ = maclaurin_triple(m, 4)
        assert c[2] == pytest.approx(-0.5, abs=1e-15)
        assert c[4] == pytest.approx((1.0 + 4.0 * m) / 24.0, abs=1e-14)
    s40, c40, d40 = maclaurin_triple(-1.0, 40)
    for i in range(41):
        u = -0.5 + 1.0 * i / 40
        t = jacobi(u, -1.0)
        assert t.cn == pytest.approx(horner(c40, u), abs=1e-10)
        assert t.sn == pytest.approx(horner(s40, u), abs=1e-10)
        assert t.dn == pytest.approx(horner(d40, u), abs=1e-10)


def test_periodicity():
    for m in (0.25, 0.5, 0.75, -0.5, -1.0):
        P = 4.0 * ellipk(m)
        for u in (-2.3, 0.0, 0.7, 1.9):
            a, b = jacobi(u, m), jacobi(u + P, m)
            assert b.sn == pytest.approx(a.sn, abs=1e-9)
            assert b.cn == pytest.approx(a.cn, abs=1e-9)
    assert 4.0 * ellipk(0.75) == pytest.approx(8.6260625899985729, abs=1e-12)


@given(st.floats(-10.0, 10.0), st.sampled_from(M_GRID))
@settings(max_examples=80, deadline=None)
def test_identities_hold_everywhere(u, m):
    t = jacobi(u, m)
    assert abs(t.sn**2 + t.cn**2 - 1.0) < 1e-12
    assert abs(t.dn**2 + m * t.sn**2 - 1.0) < 1e-12
    assert abs(t.sn) <= 1.0 + 1e-15
    assert t.dn > 0.0


def test_scipy_cross_check():
    ellipj = pytest.importorskip("scipy.special").ellipj
    worst = 0.0
    for i in range(60):
        u = -9.5 + 19.0 * i / 59
        for m in (0.1, 0.35, 0.6, 0.85, 0.97):
            t = jacobi(u, m)
            sn, cn, dn, _ = ellipj(u, m)
            worst = max(worst, abs(t.sn - sn), abs(t.cn - cn), abs(t.dn - dn))
    assert worst < 1e-12


# ------------------------------------------------------------------ the jet


def test_jet_without_soul_reduces_to_jacobi():
    u = ctx.scalar(0.8)
    j = jacobi_jet(u, 0.5)
    t = jacobi(0.8, 0.5)
    assert j.sn.body == t.sn and j.sn.soul().is_zero()
    assert j.cn.body == t.cn
    assert j.dn.body == t.dn


def test_jet_first_order_against_finite_difference():
    h = 1e-6
    pair = ctx.gen("theta1") * ctx.gen("theta2")
    mask = next(iter(pair.terms))
    for m in (-1.0, 0.5):
        for b in (0.35, 1.2):
            j = jacobi_jet(ctx.scalar(b) + pair, m)
            fd = (jacobi(b + h, m).sn - jacobi(b - h, m).sn) / (2 * h)
            assert j.sn.terms.get(mask, 0.0) == pytest.approx(fd, abs=1e-10)
            t = jacobi(b, m)
            assert j.sn.terms.get(mask, 0.0) == pytest.approx(t.cn * t.dn, abs=1e-14)


def test_jet_one_term_taylor_frozen():
    # u = 1 + theta1 theta2 at m = -1: the soul coefficient is cn*dn at 1
    pair = ctx.gen("theta1") * ctx.gen("theta2")
    mask = next(iter(pair.terms))
    j = jacobi_jet(ctx.scalar(1.0) + pair, -1.0)
    assert j.sn.body == pytest.approx(0.90768322140494617, abs=1e-12)
    want = 0.41965601339661448 * 1.3505142836786513
    assert j.sn.terms.get(mask, 0.0) == pytest.approx(want, abs=1e-12)


def test_jet_second_order_soul():
    # soul with two independent nilpotent blocks exposes the sn'' / 2 term
    s1 = ctx.gen("theta1") * ctx.gen("theta2")
    s2 = ctx.gen("mu") * ctx.gen("nu")
    quad_mask = next(iter((s1 * s2).terms))
    b, m = 0.7, -0.5
    j = jacobi_jet(ctx.scalar(b) + s1 + s2, m)
    t = jacobi(b, m)
    snpp = -t.sn * t.dn**2 - m * t.sn * t.cn**2
    # (s1+s2)^2 = 2 s1 s2, and the 1/2! eats the 2
    assert j.sn.terms.get(quad_mask, 0.0) == pytest.approx(snpp, abs=1e-12)
    j1 = jacobi_jet(ctx.scalar(b) + s1 + s2, m, order=1)
    assert j1.sn.terms.get(quad_mask, 0.0) == 0.0
    assert j1.sn.terms.get(next(iter(s1.terms)), 0.0) == pytest.approx(
        t.cn * t.dn, abs=1e-14
    )


def test_jet_validation():
    with pytest.raises(ValueError):
        jacobi_jet(ctx.scalar(0.3), 0.5, order=4)
    with pytest.raises(ParityError):
        jacobi_jet(ctx.gen("theta1"), 0.5)
    with pytest.raises(UnsupportedParameter):
        jacobi_jet(ctx.scalar(0.3), 1.5)


def test_analytic_adapters_match_derivative_ladder():
    m = -0.5
    x = 0.9
    S = JacobiSn(m).derivs(x, 3)
    C = JacobiCn(m).derivs(x, 3)
    D = JacobiDn(m).derivs(x, 3)
    t = jacobi(x, m)
    assert S[0] == t.sn and C[0] == t.cn and D[0] == t.dn
    assert S[1] == pytest.approx(t.cn * t.dn, abs=1e-14)
    assert C[1] == pytest.approx(-t.sn * t.dn, abs=1e-14)
    assert D[1] == pytest.approx(-m * t.sn * t.cn, abs=1e-14)
    h = 1e-5
    fd = (JacobiSn(m).derivs(x + h, 1)[1] - JacobiSn(m).derivs(x - h, 1)[1]) / (2 * h)
    assert S[2] == pytest.approx(fd, abs=1e-6)
    fd3 = (JacobiSn(m).derivs(x + h, 2)[2] - JacobiSn(m).derivs(x - h, 2)[2]) / (2 * h)
    assert S[3] == pytest.approx(fd3, abs=1e-5)
