"""Bracket table, adjoint action, and the subalgebra catalog."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susygordon.checks import bracket_table_residuals, graded_jacobi
from susygordon.grassmann import DEFAULT_CONTEXT, GrassmannNumber, Parity, ParityError
from susygordon.superalgebra import (
    STRUCTURE_TABLE,
    AlgebraElement,
    OutOfIdeal,
    adjoint_closed_form,
    adjoint_exp,
    basis_element,
    bracket,
    solve_conjugation_to_L,
    subalgebra,
    subalgebra_catalog,
    verify_structure,
)

from helpers import sample_random

ctx = DEFAULT_CONTEXT
MU = ctx.gen("mu")
NU = ctx.gen("nu")
ETA = ctx.gen("D1")
LAM = ctx.gen("D2")


def elem(**kw):
    return AlgebraElement.from_coeffs(ctx, **kw)


def rand_elem(seed, ideal_only=False):
    cL = ctx.zero() if ideal_only else sample_random(Parity.EVEN, 2, seed)
    return AlgebraElement(
        cL,
        sample_random(Parity.EVEN, 2, seed + 101),
        sample_random(Parity.EVEN, 2, seed + 202),
        sample_random(Parity.ODD, 3, seed + 303),
        sample_random(Parity.ODD, 3, seed + 404),
    )


# ------------------------------------------------------------ bracket table


def test_table_even_rows():
    L, Px, Pt = basis_element("L"), basis_element("Px"), basis_element("Pt")
    assert (bracket(L, Px) - 2.0 * Px).norm() == 0.0
    assert (bracket(L, Pt) + 2.0 * Pt).norm() == 0.0
    assert bracket(Px, Pt).is_zero()
    assert bracket(Px, Px).is_zero()
    assert bracket(L, L).is_zero()


def test_table_mixed_rows():
    L = basis_element("L")
    qx, qt = elem(Qx=MU), elem(Qt=NU)
    assert (bracket(L, qx) - elem(Qx=MU)).norm() == 0.0
    assert (bracket(L, qt) + elem(Qt=NU)).norm() == 0.0
    assert (bracket(qx, L) + elem(Qx=MU)).norm() == 0.0
    assert (bracket(qt, L) - elem(Qt=NU)).norm() == 0.0
    assert bracket(qx, basis_element("Px")).is_zero()
    assert bracket(qt, basis_element("Pt")).is_zero()


def test_table_odd_odd():
    # {Q_x, Q_x} = -2 P_x threads through the graded coefficient swap:
    # [mu Qx, eta Qx] = -mu eta (-2 Px) = 2 mu eta Px
    got = bracket(elem(Qx=MU), elem(Qx=ETA))
    want = 2.0 * (MU * ETA)
    assert (got.c_Px - want).norm() == 0.0
    assert got.c_Pt.is_zero() and got.c_Qx.is_zero() and got.c_Qt.is_zero()
    got_t = bracket(elem(Qt=NU), elem(Qt=LAM))
    assert (got_t.c_Pt - 2.0 * (NU * LAM)).norm() == 0.0
    # same odd parameter twice collapses to zero
    assert bracket(elem(Qx=MU), elem(Qx=MU)).is_zero()
    assert bracket(elem(Qx=MU), elem(Qt=NU)).is_zero()


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_bracket_antisymmetry_on_even_elements(seed):
    X, Y = rand_elem(seed), rand_elem(seed + 7000)
    assert (bracket(X, Y) + bracket(Y, X)).norm() < 1e-13


@given(st.integers(0, 400))
@settings(max_examples=25, deadline=None)
def test_jacobi_identity(seed):
    X, Y, Z = rand_elem(seed), rand_elem(seed + 5000), rand_elem(seed + 9000)
    total = (
        bracket(X, bracket(Y, Z))
        + bracket(Y, bracket(Z, X))
        + bracket(Z, bracket(X, Y))
    )
    assert total.norm() < 1e-12


# Exact-input twins: every coefficient is a small dyadic rational k/4, so
# each product and sum of the identities is exact in double precision and a
# correct identity reads exactly 0.0.  They add to the random float draws,
# which expose order-dependent rounding that exact inputs would hide.
DYADIC = tuple(k / 4 for k in range(-8, 9))


def dyadic_elem(rng):
    """An element shaped like ``checks.random_algebra_element``, with every
    coefficient drawn from ``DYADIC``."""
    def w():
        return rng.choice(DYADIC)

    return elem(L=ctx.scalar(w()) + MU * NU * w(), Px=w(), Pt=w(),
                Qx=MU * w() + ETA * w(), Qt=NU * w() + LAM * w())


def test_graded_jacobi_is_exactly_zero_on_dyadic_coefficients():
    rng = random.Random(17)
    for _ in range(200):
        X, Y, Z = dyadic_elem(rng), dyadic_elem(rng), dyadic_elem(rng)
        assert graded_jacobi(X, Y, Z) == 0.0


def test_bracket_table_is_exactly_zero_on_dyadic_weights():
    # the rows of the registry's abstract_bracket_table, [X, Y] = want, hold
    # exactly for every pair of dyadic weights on X and Y
    assert bracket_table_residuals(ctx, 0, None) == [0.0] * 14
    L, Px, Pt = (basis_element(k, ctx) for k in ("L", "Px", "Pt"))
    qx, qt, zero = elem(Qx=MU), elem(Qt=NU), elem()
    rows = (
        (L, Px, Px * 2.0), (L, Pt, Pt * -2.0), (Px, Pt, zero), (Px, Px, zero),
        (L, L, zero), (L, qx, qx), (L, qt, qt * -1.0), (qx, L, qx * -1.0),
        (qx, Px, zero), (qt, Pt, zero), (qx, qt, zero), (qx, qx, zero),
        (qx, elem(Qx=ETA), elem(Px=MU * ETA * 2.0)),
        (qt, elem(Qt=LAM), elem(Pt=NU * LAM * 2.0)),
    )
    for a, b in itertools.product(DYADIC, repeat=2):
        for X, Y, want in rows:
            assert (bracket(X * a, Y * b) - want * (a * b)).norm() == 0.0, (a, b)


def test_bracket_bilinear_over_even_weights():
    a = ctx.scalar(0.5) + ctx.gen(2) * ctx.gen(3) * 0.7
    X1, X2, Y = rand_elem(11), rand_elem(22), rand_elem(33)
    lhs = bracket(a * X1 + X2, Y)
    rhs = a * bracket(X1, Y) + bracket(X2, Y)
    assert (lhs - rhs).norm() < 1e-13


def test_norm_propagates_nan():
    # max() over the basis would skip a NaN that follows a finite coefficient
    X = AlgebraElement.from_coeffs(DEFAULT_CONTEXT, L=1.0, Pt=math.nan)
    assert math.isnan(X.norm())


def test_parity_enforcement():
    with pytest.raises(ParityError):
        elem(Qx=1.0)
    with pytest.raises(ParityError):
        elem(L=MU)
    with pytest.raises(ParityError):
        basis_element("Qx")
    with pytest.raises(ParityError):
        rand_elem(3) * MU


def test_element_refuses_a_coefficient_of_the_wrong_parity():
    zero, even, odd = ctx.zero(), ctx.scalar(0.5) + MU * NU, MU * 2.0
    for slot in range(5):
        coeffs = [zero] * 5
        coeffs[slot] = odd if slot < 3 else even
        name = ("c_L", "c_Px", "c_Pt", "c_Qx", "c_Qt")[slot]
        with pytest.raises(ParityError, match=f"{name} must be {'even' if slot < 3 else 'odd'}"):
            AlgebraElement(*coeffs)
    X = AlgebraElement(even, zero, zero, odd, zero)
    assert X.coeff("L") is even and X.coeff("Qx") is odd


# ------------------------------------------------------------ adjoint action


def test_closed_form_pure_scaling_frozen():
    # k = 0.3, no odd parts in Y: slots scale by e^{2k}, e^{-2k}, e^k, e^{-k}
    Y = elem(L=0.3)
    X = elem(Px=1.7, Pt=-0.6, Qx=0.9 * MU, Qt=1.3 * NU)
    img = adjoint_closed_form(Y, X)
    assert img.c_Px.body == pytest.approx(3.0976019606638651, abs=1e-14)
    assert img.c_Pt.body == pytest.approx(-0.32928698165641585, abs=1e-14)
    assert (img.c_Qx - 1.2148729268184029 * MU).norm() < 1e-14
    assert (img.c_Qt - 0.9630636868862333 * NU).norm() < 1e-14
    assert img.c_L.is_zero()


def test_closed_form_rejects_L_part():
    with pytest.raises(OutOfIdeal):
        adjoint_closed_form(elem(L=0.2), elem(L=1.0, Px=1.0))


def test_translation_parts_of_Y_are_inert():
    Y1 = elem(L=0.4, Px=2.0, Pt=-3.0, Qx=0.5 * ETA)
    Y2 = elem(L=0.4, Qx=0.5 * ETA)
    X = elem(Px=0.7, Pt=0.3, Qx=1.1 * MU, Qt=-0.2 * NU)
    d = adjoint_closed_form(Y1, X) - adjoint_closed_form(Y2, X)
    assert d.norm() == 0.0


def test_closed_form_bodiless_scaling_exact():
    # k = theta1 theta2: e^{2k} = 1 + 2k exactly, no limit handling needed
    k = ctx.gen("theta1") * ctx.gen("theta2")
    img = adjoint_closed_form(elem(L=k), elem(Px=1.0))
    want = ctx.one() + 2.0 * k
    assert (img.c_Px - want).norm() == 0.0


def test_closed_form_bodiless_ratio_term():
    # the (e^k - 1)/k factor at k = theta1 theta2 is 1 + k/2; with
    # Y = k L + eta Qx and X = mu Qx the P_x slot becomes
    # 2 eta mu (1 + k)(1 + k/2) = 2 eta mu (1 + 3k/2)
    k = ctx.gen("theta1") * ctx.gen("theta2")
    img = adjoint_closed_form(elem(L=k, Qx=ETA), elem(Qx=MU))
    want = 2.0 * (ETA * MU) * (ctx.one() + 1.5 * k)
    assert (img.c_Px - want).norm() < 1e-15
    assert (img.c_Qx - (ctx.one() + k) * MU).norm() == 0.0


def adjoint_truncation_bound(Y: AlgebraElement, X: AlgebraElement, series_terms: int) -> float:
    """Tail bound for the iterated-bracket series.

    Each bracket with Y rescales slots by at most 2|k|; the odd-pair
    feeds into the translation slots are nilpotent, so they enlarge the
    slot ceiling once instead of compounding.  Dropped terms therefore
    sum to below (2|k|)^n / n! e^{2|k|} times that ceiling.
    """
    feed = 2.0 * (Y.c_Qx.norm() * X.c_Qx.norm() + Y.c_Qt.norm() * X.c_Qt.norm())
    ceiling = X.norm() + feed
    two_k = Y.c_L * 2.0
    # actual powers of 2k, so a bodiless k truncates the tail exactly
    p = GrassmannNumber(Y.c_L.ngen, {0: 1.0 / math.factorial(series_terms)})
    for j in range(series_terms):
        p = p * two_k
    tail, j = 0.0, series_terms
    while not p.is_zero():
        tail += p.norm()
        j += 1
        p = p * two_k * (1.0 / j)
        if j > series_terms + 120:
            tail *= 2.0  # give up summing; the factorials dominate by here
            break
    return tail * ceiling


@pytest.mark.parametrize("kval", [-0.5, 0.3, "bodiless"])
def test_closed_form_matches_series(kval):
    k = ctx.gen("theta1") * ctx.gen("theta2") if kval == "bodiless" else ctx.scalar(kval)
    Y = elem(L=k, Qx=0.8 * ETA, Qt=-0.4 * LAM)
    X = elem(Px=0.3, Pt=1.1, Qx=0.9 * MU, Qt=1.3 * NU)
    closed = adjoint_closed_form(Y, X)
    series = adjoint_exp(Y, X, series_terms=16)
    assert (closed - series).norm() < 1e-10
    assert adjoint_truncation_bound(Y, X, 16) < 1e-10


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_adjoint_preserves_the_ideal(seed):
    Y = rand_elem(seed)
    X = rand_elem(seed + 1234, ideal_only=True)
    img = adjoint_exp(Y, X, series_terms=12)
    assert img.c_L.is_zero()


def test_series_term_count_matters():
    # one term is just X; the default tail bound is what makes 16 safe
    Y, X = elem(L=-0.5), elem(Px=1.0)
    assert (adjoint_exp(Y, X, series_terms=1) - X).norm() == 0.0
    assert adjoint_truncation_bound(Y, X, 4) > adjoint_truncation_bound(Y, X, 16)


# ----------------------------------------------- conjugation normal forms


def test_rescaling_normal_form_Px_Pt():
    for eps in (1.0, -1.0):
        X = elem(Px=1.0, Pt=eps)
        img = adjoint_closed_form(elem(L=0.7), X)
        scale = 1.0 / img.c_Px.body
        z = img * scale
        assert z.c_Px.body == pytest.approx(1.0, abs=1e-15)
        # the relative weight moves but the sign never does
        assert z.c_Pt.body == pytest.approx(eps * 0.06081006262521797, abs=1e-15)
        assert math.copysign(1.0, z.c_Pt.body) == eps


def test_rescaling_normal_form_Px_Qx():
    X = elem(Px=1.0, Qx=MU)
    img = adjoint_closed_form(elem(L=0.7), X)
    z = img * (1.0 / img.c_Px.body)
    assert z.c_Px.body == pytest.approx(1.0, abs=1e-15)
    assert (z.c_Qx - 0.4965853037914095 * MU).norm() < 1e-15
    assert z.c_Pt.is_zero()


def test_rescaling_two_odd_parameters():
    # conjugating mu Qx + nu Qt by -k L and rescaling by e^{2k} sends
    # (mu, nu) to (e^k mu, e^{3k} nu)
    k = 0.25
    X = elem(Qx=MU, Qt=NU)
    img = adjoint_closed_form(elem(L=-k), X)
    z = img * math.exp(2 * k)
    assert (z.c_Qx - 1.2840254166877414 * MU).norm() < 1e-14
    assert (z.c_Qt - 2.117000016612675 * NU).norm() < 1e-14


def test_conjugating_away_the_ideal_part():
    # V = L + W conjugates to exactly L; the closed-form Y needs half the
    # translation parts and the odd parts verbatim (Qt with a flipped sign)
    V = elem(L=1.0, Px=0.7, Pt=-1.3, Qx=0.8 * MU, Qt=1.1 * NU)
    Y0 = elem(Px=0.35, Pt=0.65, Qx=0.8 * MU, Qt=-1.1 * NU)
    img = adjoint_exp(Y0, V, series_terms=16)
    assert (img - basis_element("L")).norm() < 1e-15


@given(st.integers(0, 200))
@settings(max_examples=20, deadline=None)
def test_newton_solve_reaches_L(seed):
    V = rand_elem(seed, ideal_only=True) * 0.3 + basis_element("L")
    Y, res = solve_conjugation_to_L(V)
    assert res < 1e-12
    assert Y.c_L.is_zero()
    img = adjoint_exp(Y, V)
    assert (img - basis_element("L")).norm() < 1e-12


# ------------------------------------------------------- realized structure


def test_realized_superspace_structure():
    assert verify_structure("superspace", n_points=4, seed=0) < 1e-12


def test_realized_component_structure():
    assert verify_structure("component", n_points=4, seed=0) < 1e-12


def test_realized_structure_negative_control(monkeypatch):
    monkeypatch.setitem(STRUCTURE_TABLE, ("Qx", "Qx"), {"Px": 2.0})
    assert verify_structure("superspace", n_points=2, seed=0) > 0.1


def test_unknown_realization():
    with pytest.raises(ValueError):
        verify_structure("lightcone")


# ------------------------------------------------------- subalgebra catalog


def test_catalog_shape():
    cat = subalgebra_catalog()
    assert len(cat) == 21
    names = [t.name for t in cat]
    assert len(set(names)) == 21
    assert sum(1 for t in cat if t.picture == "superspace") == 16
    assert sum(1 for t in cat if t.picture == "component") == 5
    blob = json.dumps([t.payload() for t in cat])
    back = json.loads(blob)
    assert back[3]["slots"] == ["eps"]
    assert back[15]["expression"] == "P_x + eps*P_t + mu*Q_x + nu*Q_t"


# the sixteen superspace classes as the paper writes them: the reference the
# expressions generated from the term tables must match
PAPER_SUPERSPACE = {
    "S1": ("L", ()),
    "S2": ("P_x", ()),
    "S3": ("P_t", ()),
    "S4": ("P_x + eps*P_t", ("eps",)),
    "S5": ("mu*Q_x", ("mu",)),
    "S6": ("P_x + mu*Q_x", ("mu",)),
    "S7": ("P_t + mu*Q_x", ("mu",)),
    "S8": ("P_x + eps*P_t + mu*Q_x", ("eps", "mu")),
    "S9": ("nu*Q_t", ("nu",)),
    "S10": ("P_x + nu*Q_t", ("nu",)),
    "S11": ("P_t + nu*Q_t", ("nu",)),
    "S12": ("P_x + eps*P_t + nu*Q_t", ("eps", "nu")),
    "S13": ("mu*Q_x + nu*Q_t", ("mu", "nu")),
    "S14": ("P_x + mu*Q_x + nu*Q_t", ("mu", "nu")),
    "S15": ("P_t + mu*Q_x + nu*Q_t", ("mu", "nu")),
    "S16": ("P_x + eps*P_t + mu*Q_x + nu*Q_t", ("eps", "mu", "nu")),
}
PAPER_COMPONENT = {"L1": "D", "L2": "P_x", "L3": "P_t", "L4": "P_x + P_t", "L5": "P_x - P_t"}


def test_catalog_expressions_match_the_paper():
    cat = subalgebra_catalog()
    superspace = {t.name: (t.expression, t.slots) for t in cat if t.picture == "superspace"}
    component = {t.name: (t.expression, t.slots) for t in cat if t.picture == "component"}
    assert list(superspace.items()) == list(PAPER_SUPERSPACE.items())
    assert component == {n: (e, ()) for n, e in PAPER_COMPONENT.items()}
    assert [t.name for t in cat] == list(PAPER_SUPERSPACE) + list(PAPER_COMPONENT)
    assert all(subalgebra(n) == t for n, t in zip(PAPER_SUPERSPACE, cat))


def test_catalog_instantiation():
    cat = {t.name: t for t in subalgebra_catalog()}
    X = cat["S16"].element(ctx, eps=-1.0, mu=MU, nu=NU)
    assert X.c_Px.body == 1.0 and X.c_Pt.body == -1.0
    assert (X.c_Qx - MU).norm() == 0.0 and (X.c_Qt - NU).norm() == 0.0
    assert X.c_L.is_zero()
    lone = cat["S1"].element(ctx)
    assert lone.c_L.body == 1.0 and lone.c_Px.is_zero()
    s7 = cat["S7"].element(ctx, mu=MU)
    assert s7.c_Pt.body == 1.0 and s7.c_Px.is_zero()
    with pytest.raises(KeyError):
        cat["S13"].element(ctx, mu=MU)
    with pytest.raises(ValueError):
        cat["L1"].element(ctx)
    with pytest.raises(ParityError):
        cat["S5"].element(ctx, mu=0.5)


def test_catalog_entries_are_subalgebras():
    # every superspace template closes under the bracket: [X, X] = 0
    cat = subalgebra_catalog()
    for t in cat:
        if t.picture != "superspace":
            continue
        params = {}
        if "eps" in t.slots:
            params["eps"] = -1.0
        if "mu" in t.slots:
            params["mu"] = MU
        if "nu" in t.slots:
            params["nu"] = NU
        X = t.element(ctx, **params)
        assert bracket(X, X).is_zero(), t.name
