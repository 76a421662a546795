"""Derivative-list providers checked against identities and slow oracles."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from susygordon import analytic
from susygordon.analytic import (
    ARCCOS,
    ARCSIN,
    COS,
    EXP,
    EXP_RATIO,
    RECIP,
    SECH,
    SIN,
    TANH,
    Const,
    Poly,
    Power,
    TaylorFn,
    TaylorQ,
    TrigPoly,
)
from susygordon.grassmann import DomainError

from helpers import ARCTAN, LOG, bits, derivs_providers


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_sin_cos_exp_lists():
    ds = SIN.derivs(0.7, 5)
    assert ds[0] == math.sin(0.7)
    assert ds[1] == math.cos(0.7)
    assert ds[4] == math.sin(0.7)
    dc = COS.derivs(0.7, 4)
    assert dc[1] == -math.sin(0.7)
    assert dc[4] == math.cos(0.7)
    de = EXP.derivs(1.3, 6)
    assert all(v == math.exp(1.3) for v in de)


def test_sin_cos_lists_are_the_four_cycle_bit_for_bit():
    for x in (0.7, -2.1, 0.0, -0.0, 1e300, math.nan):
        s, c = math.sin(x), math.cos(x)
        assert bits(dict(enumerate(SIN.derivs(x, 7)))) == bits(dict(enumerate([s, c, -s, -c] * 2)))
        assert bits(dict(enumerate(COS.derivs(x, 7)))) == bits(dict(enumerate([c, -s, -c, s] * 2)))


def test_log_and_reciprocal():
    x = 2.5
    dl = LOG.derivs(x, 4)
    assert dl[0] == math.log(x)
    assert abs(dl[1] - 1 / x) < 1e-15
    assert abs(dl[2] + 1 / x**2) < 1e-15
    assert abs(dl[3] - 2 / x**3) < 1e-15
    with pytest.raises(DomainError):
        LOG.derivs(0.0, 1)
    dr = RECIP.derivs(x, 3)
    assert abs(dr[0] - 1 / x) < 1e-15
    assert abs(dr[3] + 6 / x**4) < 1e-15
    with pytest.raises(DomainError):
        RECIP.derivs(0.0, 1)


def test_power_and_sqrt():
    ds = Power(0.5).derivs(4.0, 2)
    assert abs(ds[0] - 2.0) < 1e-15
    assert abs(ds[1] - 0.25) < 1e-15
    assert abs(ds[2] + 1 / 32) < 1e-15
    # integer powers survive x <= 0
    p3 = Power(3)
    assert p3.derivs(-2.0, 3) == [-8.0, 12.0, -12.0, 6.0]
    assert p3.derivs(0.0, 4) == [0.0, 0.0, 0.0, 6.0, 0.0]
    with pytest.raises(DomainError):
        Power(0.5).derivs(-1.0, 1)
    with pytest.raises(DomainError):
        Power(-1.0).derivs(0.0, 0)


def test_arcsin_by_inversion():
    # sin(arcsin(x)) must reproduce the identity series exactly
    for x in (-0.8, -0.3, 0.0, 0.45, 0.9):
        s = TaylorQ.var(x, 6)
        back = s.apply(ARCSIN).apply(SIN)
        assert abs(back.c[0] - x) < 1e-12
        assert abs(back.c[1] - 1.0) < 1e-10
        for c in back.c[2:]:
            assert abs(c) < 1e-8, f"arcsin recurrence broke at x={x}: {back.c}"
    with pytest.raises(DomainError):
        ARCSIN.derivs(1.0, 1)


def test_arccos_matches_arcsin():
    x = 0.37
    da = ARCCOS.derivs(x, 5)
    db = ARCSIN.derivs(x, 5)
    assert abs(da[0] - math.acos(x)) < 1e-15
    for j in range(1, 6):
        assert da[j] == -db[j]


def test_arctan_by_inversion():
    # tan(arctan x) = x, with tan built as sin/cos
    for x in (-3.0, -0.4, 0.0, 1.7):
        s = TaylorQ.var(x, 5)
        a = s.apply(ARCTAN)
        back = a.apply(SIN) / a.apply(COS)
        assert abs(back.c[0] - x) < 1e-12
        assert abs(back.c[1] - 1.0) < 1e-10
        for c in back.c[2:]:
            assert abs(c) < 1e-8 * max(1.0, abs(x) ** 4)


def test_tanh_sech_identities():
    for x in (-1.2, 0.0, 0.3, 2.0):
        dt = TANH.derivs(x, 6)
        ds = SECH.derivs(x, 6)
        t, s = math.tanh(x), 1 / math.cosh(x)
        assert abs(dt[0] - t) < 1e-15
        assert abs(dt[1] - s * s) < 1e-14
        assert abs(ds[1] + s * t) < 1e-14
        # independent route through exp: tanh = (e^2x - 1)/(e^2x + 1)
        q = TaylorQ.var(x, 6)
        e2 = (q * 2.0).apply(EXP)
        alt = (e2 - 1.0) / (e2 + 1.0)
        for a, b in zip(dt, alt.derivs()):
            assert abs(a - b) < 1e-9 * max(1.0, abs(a))
        alt_s = (q.apply(EXP) * 2.0) / (e2 + 1.0)
        for a, b in zip(ds, alt_s.derivs()):
            assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_exp_ratio_both_branches():
    # away from zero: direct formula
    for z in (-2.0, 0.8, 3.5):
        d = EXP_RATIO.derivs(z, 4)
        assert abs(d[0] - math.expm1(z) / z) < 1e-13
        alt = TaylorFn(lambda s: (s.apply(EXP) - 1.0) / s)
        for a, b in zip(d, alt.derivs(z, 4)):
            assert abs(a - b) < 1e-10 * max(1.0, abs(a))
    # at zero the series takes over with no pole
    d0 = EXP_RATIO.derivs(0.0, 3)
    assert abs(d0[0] - 1.0) < 1e-15
    assert abs(d0[1] - 0.5) < 1e-15
    assert abs(d0[2] - 1.0 / 3.0) < 1e-15
    assert abs(d0[3] - 0.25) < 1e-15
    # branches agree where they meet
    lo = EXP_RATIO.derivs(0.4999, 5)
    hi = EXP_RATIO.derivs(0.5001, 5)
    for a, b in zip(lo, hi):
        assert abs(a - b) < 1e-3 * max(1.0, abs(a))


def test_poly_const_trigpoly():
    p = Poly([1.0, -2.0, 0.0, 4.0])  # 1 - 2x + 4x^3
    assert p.derivs(2.0, 4) == [29.0, 46.0, 48.0, 24.0, 0.0]
    c = Const(7.5)
    assert c.derivs(123.0, 3) == [7.5, 0.0, 0.0, 0.0]
    tp = TrigPoly(waves=[(1.5, 2.0, 0.3)], poly=[0.0, 1.0])
    x = 0.9
    f = lambda u: 1.5 * math.sin(2 * u + 0.3) + u
    d = tp.derivs(x, 3)
    assert abs(d[0] - f(x)) < 1e-14
    assert abs(d[1] - central_diff(f, x)) < 1e-8
    # same wave through the series machinery
    alt = TaylorFn(lambda s: (s * 2.0 + 0.3).apply(SIN) * 1.5 + s)
    for a, b in zip(d, alt.derivs(x, 3)):
        assert abs(a - b) < 1e-10


def _poly_derivs_per_call(coeffs, x, n):
    """``Poly.derivs`` as it was written before the lists were kept: each
    derivative's coefficient list rebuilt on every call."""
    out = []
    c = [float(v) for v in coeffs]
    for _ in range(n + 1):
        acc = 0.0
        for v in reversed(c):
            acc = acc * x + v
        out.append(acc)
        c = [c[i] * i for i in range(1, len(c))]
    return out


def test_poly_builds_its_derivative_lists_once(monkeypatch):
    # one build per Poly, whatever the calls ask for; the bits are those of
    # rebuilding the lists on every call, past the degree and at NaN and inf
    built = []
    real = analytic._derivative_coeffs

    def counted(coeffs):
        built.append(list(coeffs))
        return real(coeffs)

    monkeypatch.setattr(analytic, "_derivative_coeffs", counted)
    cases = ([], [2.5], [1.0, -2.0, 0.0, 4.0], [0.3, 5e-324, -0.0, 1e308])
    polys = [Poly(c) for c in cases]
    trig = TrigPoly(waves=[(0.5, 1.1, -0.2)], poly=[-0.6, 0.4])
    assert len(built) == len(cases) + 1
    for p, c in zip(polys, cases):
        assert len(p.lists) == len(c) + 1 and p.lists[-1] == []
        for x in (0.7, -3.0, 0.0, -0.0, math.inf, math.nan):
            for n in range(7):
                assert bits(dict(enumerate(p.derivs(x, n)))) == bits(
                    dict(enumerate(_poly_derivs_per_call(c, x, n)))), (c, x, n)
    for x in (0.7, -3.0):
        for n in range(7):
            trig.derivs(x, n)
    assert len(built) == len(cases) + 1


def test_taylorq_basics():
    q = TaylorQ.var(3.0, 2)
    sq = q * q
    assert sq.derivs() == [9.0, 6.0, 2.0]
    # exp then log round trip
    r = q.apply(EXP).apply(LOG)
    assert abs(r.c[0] - 3.0) < 1e-12
    assert abs(r.c[1] - 1.0) < 1e-12
    assert abs(r.c[2]) < 1e-12
    # division against multiplication
    a = TaylorQ([2.0, 1.0, -0.5, 0.25])
    b = TaylorQ([1.5, -1.0, 0.3, 0.0])
    back = (a / b) * b
    for u, v in zip(back.c, a.c):
        assert abs(u - v) < 1e-12
    assert (q**3).derivs()[0] == 27.0


def test_composition_shift_identity():
    # derivative list of F = exp(sin x) shifted by one equals the list of
    # F' = cos x * exp(sin x); exercises composition and products together
    F = TaylorFn(lambda s: s.apply(SIN).apply(EXP))
    Fp = TaylorFn(lambda s: s.apply(COS) * s.apply(SIN).apply(EXP))
    for x in (-0.7, 0.2, 1.9):
        a = F.derivs(x, 5)
        b = Fp.derivs(x, 4)
        for j in range(5):
            assert abs(a[j + 1] - b[j]) < 1e-9 * max(1.0, abs(b[j]))


coeffs = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(coeffs, min_size=4, max_size=4), st.lists(coeffs, min_size=4, max_size=4))
def test_taylorq_ring_axioms(ac, bc):
    a, b = TaylorQ(ac), TaylorQ(bc)
    lhs = (a + b) * a
    rhs = a * a + b * a
    for u, v in zip(lhs.c, rhs.c):
        assert abs(u - v) < 1e-9
    ab = a * b
    ba = b * a
    for u, v in zip(ab.c, ba.c):
        assert abs(u - v) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-1.4, max_value=1.4, allow_nan=False))
def test_sin_sq_plus_cos_sq(x):
    q = TaylorQ.var(x, 5)
    one = q.apply(SIN) ** 2 + q.apply(COS) ** 2
    d = one.derivs()
    assert abs(d[0] - 1.0) < 1e-12
    for v in d[1:]:
        assert abs(v) < 1e-9


@pytest.mark.parametrize("n", range(4))
def test_every_provider_returns_n_plus_one_entries(n):
    # the AnalyticFn protocol; the order-0 series variable is one
    # coefficient long, so TaylorFn keeps it too
    providers = derivs_providers()
    assert len(providers) == 19
    for f in providers:
        assert len(f.derivs(0.3, n)) == n + 1, type(f).__name__
    assert TaylorQ.var(0.3, n).c == (0.3, 1.0, 0.0, 0.0)[: n + 1]
