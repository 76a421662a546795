"""Invariant ansatz assembly, reduced systems, and their recombination.

The consistency checks here are deliberately off shell: profiles are random
smooth functions with random odd coefficients, so a residual that recombines
to zero gap can only do so if the chain rule through sigma, the odd monomial
algebra, and the sign table are all right.  Solution-level checks use closed
forms whose derivatives are worked out by hand in the comments.
"""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susygordon import reductions, superjet
from susygordon.analytic import (
    ARCSIN,
    COS,
    EXP,
    RECIP,
    SECH,
    SIN,
    TANH,
    Const,
    Poly,
    Power,
    TaylorFn,
    TrigPoly,
)
from susygordon.grassmann import (
    DEFAULT_CONTEXT,
    GrassmannNumber,
    ParityError,
    apply_analytic,
    scalar,
    worst_of,
)
from susygordon.prolongation import SSG_SIGNATURE, JetPoint, coordinate_key, evaluate_spec
from susygordon.reductions import (
    CASES,
    ObstructionRecord,
    OutOfDomain,
    Profile,
    SingularPoint,
    ansatz_invariance,
    build_ansatz,
    case_generator,
    component_case_ids,
    component_reduced_residual,
    component_slice_check,
    const_profile,
    constant_drift,
    nonstandard_ids,
    nonstandard_obstruction,
    profile,
    random_reduction_profiles,
    reduction_case,
    reduction_case_ids,
    reduction_consistency,
    reduction_constant,
    zero_profile,
)
from susygordon.superalgebra import realize, subalgebra
from susygordon.superfield import (
    component_superfield,
    coordinate_jets,
    evaluate_bundle,
    ssg_residual,
    superfield_jet,
)
from susygordon.superjet import JetSpec, jet_apply_analytic, jet_variable

from helpers import ARCTAN, component_jets, exact, reduced_residual

ctx = DEFAULT_CONTEXT

ALL_CASES = reduction_case_ids()


def params_for(cid, eps=-1.0):
    return {"eps": eps} if "eps" in CASES[cid].param_names else None


# ----------------------------------------------------------------- profiles


def test_profile_value_matches_direct_application():
    pair = ctx.gen("D1") * ctx.gen("D2")
    sg = ctx.scalar(1.2) + pair * 0.3
    p = profile(ctx, (1.0, SIN))
    assert (p.value_at(sg) - apply_analytic(SIN, sg)).norm() < 1e-15


@settings(max_examples=40, deadline=None)
@given(
    body=st.floats(min_value=-2.0, max_value=2.0),
    c=st.floats(min_value=-1.5, max_value=1.5),
)
def test_profile_taylor_shift_is_exact(body, c):
    # the soul is a single pair, so f(b + s) = f(b) + f'(b) s with no tail
    pair = ctx.gen("mu0") * ctx.gen("lambda0")
    p = profile(ctx, (1.0, SIN))
    got = p.derivs_at(ctx.scalar(body) + pair * c, 1)
    want0 = ctx.scalar(math.sin(body)) + pair * (c * math.cos(body))
    want1 = ctx.scalar(math.cos(body)) - pair * (c * math.sin(body))
    assert (got[0] - want0).norm() < 1e-14
    assert (got[1] - want1).norm() < 1e-14


def _derivs_at_reference(prof, sigma, order):
    """``Profile.derivs_at`` as a one-seed jet composed through Faa di Bruno
    term by term, as it was written before it read the soul-Taylor kernel
    directly; the reference it must match bit for bit."""
    sg = sigma if isinstance(sigma, GrassmannNumber) else scalar(float(sigma), prof.ctx.generator_count)
    base = jet_variable(JetSpec(("s",), order), "s", sg)
    out = [scalar(0.0, prof.ctx.generator_count) for _ in range(order + 1)]
    for coef, fn in prof.terms:
        j = jet_apply_analytic(base, fn)
        for k in range(order + 1):
            out[k] = out[k] + coef * j.get((k,))
    return out


_PAIR = ctx.gen("D1") * ctx.gen("D2")
_QUAD = _PAIR * ctx.gen("mu0") * ctx.gen("lambda0")
_SIGMAS = [0.7, -1.3, 0.0, ctx.scalar(0.4) + _PAIR * 0.3 - _QUAD * 0.8,
           math.nan, math.inf, -math.inf, ctx.scalar(math.nan) + _PAIR,
           ctx.scalar(math.inf) + _PAIR * 0.5 + _QUAD, ctx.gen("mu")]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("sigma", _SIGMAS, ids=range(len(_SIGMAS)))
def test_derivs_at_matches_the_one_seed_jet(sigma, order):
    profiles = list(random_reduction_profiles("S8", 5).values()) + [
        # functions that stay defined at infinite sigma; sin(inf) raises
        profile(ctx, (1.0, EXP), (_PAIR * 0.5, ARCTAN), (ctx.gen("mu") * 0.3, RECIP)),
        profile(ctx, (_PAIR, Poly([0.5, -1.0, 0.25]))),
        zero_profile(ctx),
    ]
    for prof in profiles:
        got = exact(prof.derivs_at, sigma, order)
        assert got == exact(_derivs_at_reference, prof, sigma, order)


def test_derivs_at_composes_no_jet(monkeypatch):
    # the profile reads its derivative lists from the soul-Taylor kernel; an
    # exact count of zero jet compositions gates that
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return jet_apply_analytic(*args)

    for module in (reductions, superjet):
        monkeypatch.setattr(module, "jet_apply_analytic", counted)
    for prof in random_reduction_profiles("S4", 3).values():
        prof.derivs_at(ctx.scalar(0.8) + _PAIR * 0.2, 2)
        prof.value_at(1.1)
    assert calls == 0


def test_profile_parity_bookkeeping():
    assert zero_profile(ctx).is_zero()
    even = profile(ctx, (1.0, SIN))
    odd = profile(ctx, (ctx.gen("D1"), COS))
    mixed = profile(ctx, (1.0, SIN), (ctx.gen("D1"), COS))
    assert even.parity.name == "EVEN"
    assert odd.parity.name == "ODD"
    assert mixed.parity.name == "MIXED"


@pytest.mark.parametrize("cid", ALL_CASES)
def test_random_profiles_have_slot_parities(cid):
    prof = random_reduction_profiles(cid, 3)
    names = CASES[cid].profile_names
    for i, nm in enumerate(names):
        assert not prof[nm].is_zero()
        want = "EVEN" if i in (0, 3) else "ODD"
        assert prof[nm].parity.name == want


# ------------------------------------------------------------ ansatz shape


def test_case_registry():
    assert reduction_case_ids() == (
        "S1", "S2", "S3", "S4", "S6", "S7", "S8", "S10", "S11", "S12",
    )
    assert reduction_case("S4") is CASES["S4"]
    with pytest.raises(KeyError):
        reduction_case("S5")  # no standard reduction for that one


@pytest.mark.parametrize("cid", ALL_CASES)
def test_case_parameters_are_the_slots_of_its_subalgebra(cid):
    assert set(CASES[cid].param_names) == set(subalgebra(cid).slots)


def _paper_invariants(cid, x, t, mu, nu, e):
    """(sigma, m1, m2) of the case as the paper's table writes them, each as
    (value, d/dx, d/dt) at the point (x, t)."""
    th1, th2 = ctx.gen("theta1"), ctx.gen("theta2")
    X, T, one, zero = ctx.scalar(x), ctx.scalar(t), ctx.one(), ctx.zero()
    if cid == "S1":
        # x t, theta1 t^(1/2), theta2 t^(-1/2)
        root, inv_root = apply_analytic(Power(0.5), T), apply_analytic(Power(-0.5), T)
        return ((X * T, T, X),
                (th1 * root, zero, th1 * (inv_root * 0.5)),
                (th2 * inv_root, zero, th2 * (apply_analytic(Power(-1.5), T) * -0.5)))
    theta = {1: (th1, zero, zero), 2: (th2, zero, zero)}
    return {
        "S2": ((T, zero, one), theta[1], theta[2]),
        "S3": ((X, one, zero), theta[1], theta[2]),
        "S4": ((X - T * e, one, one * -e), theta[1], theta[2]),
        "S6": ((T, zero, one), (th1 - mu * X, -mu, zero), theta[2]),
        "S7": ((X + mu * th1 * T, one, mu * th1), (th1 - mu * T, zero, -mu), theta[2]),
        "S8": ((X * e - T + mu * th1 * T, one * e, mu * th1 - one),
               (th1 - mu * e * T, zero, -(mu * e)), theta[2]),
        "S10": ((T + nu * th2 * X, nu * th2, one), (th2 - nu * X, -nu, zero), theta[1]),
        "S11": ((X, one, zero), (th2 - nu * T, zero, -nu), theta[1]),
        "S12": ((T - X * e + nu * th2 * X, nu * th2 - one * e, one),
                (th2 - nu * X, -nu, zero), theta[1]),
    }[cid]


@pytest.mark.parametrize("cid", ALL_CASES)
def test_case_invariants_match_the_paper(cid):
    x, t, e = 0.4, 0.7, -1.0
    mu, nu = ctx.gen("mu"), ctx.gen("nu")
    jx, jt = coordinate_jets(x, t, 1, ctx)
    got = CASES[cid].invariants(jx, jt, {"mu": mu, "nu": nu, "eps": e}, ctx)
    want = _paper_invariants(cid, x, t, mu, nu, e)
    for name, jet, (v, dx, dt) in zip(("sigma", "m1", "m2"), got, want):
        assert (jet.value(), jet.d("x"), jet.d("t")) == (v, dx, dt), name


def test_translation_ansatz_assembles_expected_value():
    prof = random_reduction_profiles("S2", 9)
    sf = build_ansatz("S2", prof)
    t = 0.8
    th1, th2 = ctx.gen("theta1"), ctx.gen("theta2")
    sg = ctx.scalar(t)
    manual = (
        prof["alpha"].value_at(sg)
        + th1 * prof["mu"].value_at(sg)
        + th2 * prof["nu"].value_at(sg)
        + (th1 * th2) * prof["beta"].value_at(sg)
    )
    got = evaluate_bundle(sf, -0.3, t).value
    assert (got - manual).norm() < 1e-14


def test_scaling_ansatz_carries_t_powers():
    prof = random_reduction_profiles("S1", 4)
    x, t = 1.3, 0.6
    sg = ctx.scalar(x * t)
    th1, th2 = ctx.gen("theta1"), ctx.gen("theta2")
    manual = (
        prof["alpha"].value_at(sg)
        + th1 * (math.sqrt(t) * prof["mu"].value_at(sg))
        + th2 * (prof["nu"].value_at(sg) / math.sqrt(t))
        + (th1 * th2) * prof["beta"].value_at(sg)
    )
    got = evaluate_bundle(build_ansatz("S1", prof), x, t).value
    assert (got - manual).norm() < 1e-14


def test_scaling_ansatz_domain_guard():
    prof = random_reduction_profiles("S1", 4)
    sf = build_ansatz("S1", prof)
    with pytest.raises(OutOfDomain):
        ssg_residual(sf, 1.0, -0.5)
    with pytest.raises(OutOfDomain):
        ssg_residual(sf, 1.0, 0.0)


def test_profile_slot_validation():
    prof = random_reduction_profiles("S2", 1)
    bad = dict(prof)
    bad["alpha"] = profile(ctx, (ctx.gen("D1"), SIN))
    with pytest.raises(ParityError):
        build_ansatz("S2", bad)
    bad["alpha"] = profile(ctx, (1.0, SIN), (ctx.gen("D1"), COS))
    with pytest.raises(ParityError):
        build_ansatz("S2", bad)
    del bad["alpha"]
    with pytest.raises(KeyError):
        build_ansatz("S2", bad)


def test_parameter_validation():
    prof = random_reduction_profiles("S4", 2)
    with pytest.raises(ValueError):
        build_ansatz("S4", prof, {"eps": 0.5})
    with pytest.raises(ValueError):
        build_ansatz("S4", prof, {"eps": 1.0, "bogus": 2.0})
    prof8 = random_reduction_profiles("S8", 2)
    with pytest.raises(ParityError):
        build_ansatz("S8", prof8, {"eps": 1.0, "mu": ctx.scalar(0.3)})


def test_s8_with_vanishing_odd_parameter_is_traveling_ansatz():
    # at eps = +1 both invariant variables are x - t; the mu term is the
    # only other difference, so zeroing it must collapse S8 onto S4
    prof = random_reduction_profiles("S8", 12)
    p4 = {"alpha": prof["alpha"], "mu": prof["eta"], "nu": prof["lambda"],
          "beta": prof["beta"]}
    sf8 = build_ansatz("S8", prof, {"eps": 1.0, "mu": ctx.zero()})
    sf4 = build_ansatz("S4", p4, {"eps": 1.0})
    for x, t in [(0.4, 0.9), (1.7, -0.6)]:
        j8 = superfield_jet(sf8, x, t, order=2)
        j4 = superfield_jet(sf4, x, t, order=2)
        assert j8.spec == j4.spec
        for J in j8.comp.keys() | j4.comp.keys():
            assert (j8.get(J) - j4.get(J)).norm() <= 1e-14


def test_constant_profiles_make_constant_superfield():
    prof = {
        "alpha": const_profile(0.7, ctx),
        "mu": profile(ctx, (ctx.gen("D1"), Const(1.0))),
        "nu": profile(ctx, (ctx.gen("D2"), Const(1.0))),
        "beta": const_profile(-0.2, ctx),
    }
    sf = build_ansatz("S4", prof, {"eps": 1.0})
    b1 = evaluate_bundle(sf, 0.3, 0.9)
    b2 = evaluate_bundle(sf, -1.1, 2.4)
    assert (b1.value - b2.value).norm() < 1e-15
    assert b1.d_x.norm() < 1e-15 and b1.d_t.norm() < 1e-15


def test_ansatz_jet_evaluates_each_profile_once(monkeypatch):
    calls = []
    real = Profile.jet

    def counted(self, sigma_jet):
        calls.append(self)
        return real(self, sigma_jet)

    monkeypatch.setattr(Profile, "jet", counted)
    for cid in ALL_CASES:
        prof = random_reduction_profiles(cid, 3)
        sf = build_ansatz(cid, prof, params_for(cid))
        calls.clear()
        superfield_jet(sf, 0.4, 0.7, order=2)
        assert sorted(map(id, calls)) == sorted(id(prof[n]) for n in CASES[cid].profile_names)


@pytest.mark.parametrize("cid", ALL_CASES)
def test_theta_split_ansatz_jet_glues_back_exactly(cid):
    sf = build_ansatz(cid, random_reduction_profiles(cid, 5), params_for(cid))
    jet = superfield_jet(sf, 0.4, 0.7, order=2)
    handles = [lambda x, t, order, part=part: part for part in component_jets(jet, ctx)]
    glued = superfield_jet(component_superfield(*handles, ctx), 0.4, 0.7, order=2)
    assert glued.spec == jet.spec and glued.comp == jet.comp


# ---------------------------------------------- recombination and invariance


@pytest.mark.parametrize("cid", ALL_CASES)
def test_residual_recombines_from_reduced_rows(cid):
    prof = random_reduction_profiles(cid, 23)
    pts = [(0.7, 0.9), (1.3, 0.5), (0.6, 1.4), (2.0, 0.8)]
    gap = reduction_consistency(cid, prof, pts, params_for(cid))
    assert gap <= 1e-10


def test_recombination_other_branch_of_eps():
    for cid in ("S4", "S8", "S12"):
        prof = random_reduction_profiles(cid, 31)
        gap = reduction_consistency(cid, prof, [(0.9, 0.7), (1.6, 1.2)], {"eps": 1.0})
        assert gap <= 1e-10


def test_recombination_zero_profiles_is_exactly_zero():
    prof = {nm: zero_profile(ctx) for nm in CASES["S2"].profile_names}
    assert reduction_consistency("S2", prof, [(0.5, 1.0)]) == 0.0


@pytest.mark.parametrize("cid", ALL_CASES)
def test_ansatz_invariant_under_its_generator(cid):
    prof = random_reduction_profiles(cid, 11)
    pts = [(0.8, 0.6), (1.4, 1.1)]
    assert ansatz_invariance(cid, prof, pts, params_for(cid)) <= 1e-12


def test_invariance_fails_for_wrong_generator():
    # a t-dependent translation-in-x ansatz is not constant along P_t
    prof = random_reduction_profiles("S2", 7)
    sf = build_ansatz("S2", prof)
    X = case_generator("S3")
    b = evaluate_bundle(sf, 0.9, 0.4)
    act = b.d_t  # P_t action is plain d/dt
    assert act.norm() > 0.05
    assert X.c_Pt.body == 1.0


def test_realized_coefficient_values_match_vector_field():
    # the invariance helper hard-codes the solved coefficients; tie them to
    # the realized vector field so the two cannot drift apart
    X = case_generator("S8", {"eps": -1.0})
    Y = case_generator("S1")
    x0, t0 = 0.7, -0.4
    sgn, key = coordinate_key(SSG_SIGNATURE, "Phi", ())
    point = JetPoint(
        SSG_SIGNATURE,
        ctx,
        base={
            "x": ctx.scalar(x0),
            "t": ctx.scalar(t0),
            "theta1": ctx.gen("theta1"),
            "theta2": ctx.gen("theta2"),
        },
        coords={key: ctx.scalar(0.3)},
    )
    from susygordon.reductions import _coefficient_values

    for el in (X, Y, X + Y):
        vals = evaluate_spec(realize(el, ctx), point)
        xi, tau, rho, sv = _coefficient_values(el, x0, t0, ctx)
        assert (vals["x"].partial(()) - xi).norm() < 1e-14
        assert (vals["t"].partial(()) - tau).norm() < 1e-14
        assert (vals["theta1"].partial(()) - rho).norm() < 1e-14
        assert (vals["theta2"].partial(()) - sv).norm() < 1e-14


# ------------------------------------------------------- reduced residuals


def test_reduced_residual_row_counts():
    assert len(reduced_residual("S2", random_reduction_profiles("S2", 1), 0.4)) == 4
    assert len(reduced_residual("S1", random_reduction_profiles("S1", 1), 0.9)) == 9
    assert len(reduced_residual("S4", random_reduction_profiles("S4", 1), 0.9,
                                {"eps": 1.0})) == 9


def test_kink_profiles_solve_traveling_system():
    # alpha = arcsin(tanh s): sin(alpha) = tanh, cos(alpha) = sech,
    # alpha' = sech, alpha'' = -sech tanh; with eps = -1 and the odd pair
    # (D1 sech, D1 tanh) every row cancels term by term
    d1 = ctx.gen("D1")
    prof = {
        "alpha": profile(ctx, (1.0, TaylorFn(lambda s: s.apply(TANH).apply(ARCSIN)))),
        "mu": profile(ctx, (d1, SECH)),
        "nu": profile(ctx, (d1, TANH)),
        "beta": profile(ctx, (-1.0, TANH)),
    }
    for s in (-1.5, -0.4, 0.0, 0.8, 2.2):
        rows = reduced_residual("S4", prof, s, {"eps": -1.0})
        assert max(r.norm() for r in rows) < 1e-12


def test_oscillatory_profiles_solve_scaling_system():
    # mu = s**(-1/2) (D1 cos 2 sqrt(s) - D2 sin 2 sqrt(s)),
    # nu = D1 sin 2 sqrt(s) + D2 cos 2 sqrt(s), alpha = beta = 0.
    # nu' = mu and s mu' + mu/2 + nu = 0, so all nine rows vanish.
    d1, d2 = ctx.gen("D1"), ctx.gen("D2")
    cos2rt = TaylorFn(lambda s: (s.apply(Power(0.5)) * 2.0).apply(COS))
    sin2rt = TaylorFn(lambda s: (s.apply(Power(0.5)) * 2.0).apply(SIN))
    mu1 = TaylorFn(lambda s: s.apply(Power(-0.5)) * (s.apply(Power(0.5)) * 2.0).apply(COS))
    mu2 = TaylorFn(lambda s: s.apply(Power(-0.5)) * (s.apply(Power(0.5)) * 2.0).apply(SIN))
    prof = {
        "alpha": zero_profile(ctx),
        "mu": profile(ctx, (d1, mu1), (d2 * -1.0, mu2)),
        "nu": profile(ctx, (d1, sin2rt), (d2, cos2rt)),
        "beta": zero_profile(ctx),
    }
    for s in (0.5, 1.0, 1.7, 2.4, 3.0):
        rows = reduced_residual("S1", prof, s)
        assert max(r.norm() for r in rows) < 1e-12
    # the nilpotent invariant is D1 D2 exactly, at every sigma
    assert constant_drift("S1", prof, [0.5, 1.1, 1.9, 2.6, 3.0]) < 1e-12
    c = reduction_constant("S1", prof, 1.3)
    assert (c - d1 * d2).norm() < 1e-12


def test_constant_vacuum_solves_translation_cases():
    for k in (0, 1, 2, -1):
        prof = {
            "alpha": const_profile(k * math.pi, ctx),
            "mu": zero_profile(ctx),
            "nu": zero_profile(ctx),
            "beta": zero_profile(ctx),
        }
        for cid in ("S2", "S3"):
            rows = reduced_residual(cid, prof, 0.8)
            assert max(r.norm() for r in rows) < 1e-12


def test_linear_alpha_fails_translation_case():
    prof = {
        "alpha": profile(ctx, (1.0, Poly([0.0, 1.0]))),
        "mu": zero_profile(ctx),
        "nu": zero_profile(ctx),
        "beta": zero_profile(ctx),
    }
    rows = reduced_residual("S2", prof, 1.0)
    assert rows[0].body == pytest.approx(math.sin(1.0))
    assert abs(rows[0].body) > 0.1


def _rewrite_identity_pieces(cid, seed, sigma, eps=None):
    prof = random_reduction_profiles(cid, seed)
    params = {"eps": eps} if eps is not None else None
    rows = reduced_residual(cid, prof, sigma, params)
    sg = ctx.scalar(sigma)
    pv = {nm: prof[nm].derivs_at(sg, 2) for nm in CASES[cid].profile_names}
    return prof, rows, pv


def test_scaling_rewrite_rows_are_row_combinations():
    # each rewritten row is a fixed combination of the first-order rows;
    # verified off shell, so the combination itself is what is being tested
    sigma = 1.7
    prof, rows, pv = _rewrite_identity_pieces("S1", 41, sigma)
    from susygordon.analytic import RECIP

    a, m, n = pv["alpha"], pv["mu"], pv["nu"]
    sin_a = apply_analytic(SIN, a[0])
    cos_a = apply_analytic(COS, a[0])
    inv_cos = apply_analytic(RECIP, cos_a)
    tan_a = sin_a * inv_cos
    e1, e2, e3, e4 = rows[0], rows[1], rows[2], rows[3]
    # E2' from the profile derivatives
    e2p = n[2] - m[1] * cos_a + m[0] * sin_a * a[1]
    root = math.sqrt(sigma)
    combos = [
        e4 + cos_a * e1,
        e2p + (tan_a * a[1] + 0.5 / sigma) * e2 + (cos_a * (1.0 / sigma)) * e3,
        inv_cos * e2 * -1.0,
        e1,
        e3 * n[0] / root + m[0] * e2 * root,
    ]
    for got, want in zip(rows[4:], combos):
        assert (got - want).norm() < 1e-12


def test_traveling_rewrite_rows_are_row_combinations():
    from susygordon.analytic import RECIP

    for eps in (1.0, -1.0):
        prof, rows, pv = _rewrite_identity_pieces("S4", 43, 0.8, eps)
        a, m, n = pv["alpha"], pv["mu"], pv["nu"]
        sin_a = apply_analytic(SIN, a[0])
        cos_a = apply_analytic(COS, a[0])
        inv_cos = apply_analytic(RECIP, cos_a)
        tan_a = sin_a * inv_cos
        e1, e2, e3, e4 = rows[0], rows[1], rows[2], rows[3]
        e2p = n[2] - m[1] * cos_a + m[0] * sin_a * a[1]
        combos = [
            e4 - cos_a * e1,
            e2p + cos_a * e3 * eps + tan_a * a[1] * e2,
            inv_cos * e2 * -1.0,
            e1,
            e3 * n[0] * eps + m[0] * e2,
        ]
        for got, want in zip(rows[4:], combos):
            assert (got - want).norm() < 1e-12


def test_rewrite_constant_override():
    prof = random_reduction_profiles("S4", 17)
    base = reduced_residual("S4", prof, 0.6, {"eps": 1.0})
    shifted = reduced_residual("S4", prof, 0.6, {"eps": 1.0},
                               constant=ctx.scalar(0.25))
    a0 = prof["alpha"].value_at(ctx.scalar(0.6))
    sin_a = apply_analytic(SIN, a0)
    gap = (shifted[4] - base[4]) - (ctx.scalar(0.25) - reduction_constant(
        "S4", prof, 0.6)) * sin_a
    assert gap.norm() < 1e-13
    for i in (5, 6, 7, 8):
        assert (shifted[i] - base[i]).norm() == 0.0


def test_singular_points():
    prof = random_reduction_profiles("S1", 2)
    with pytest.raises(SingularPoint):
        reduced_residual("S1", prof, 0.0)
    with pytest.raises(SingularPoint):
        reduced_residual("S1", prof, -1.3)
    vertical = {
        "alpha": const_profile(math.pi / 2.0, ctx),
        "mu": zero_profile(ctx),
        "nu": zero_profile(ctx),
        "beta": zero_profile(ctx),
    }
    with pytest.raises(SingularPoint):
        reduced_residual("S1", vertical, 1.0)
    with pytest.raises(SingularPoint):
        reduced_residual("S4", vertical, 1.0, {"eps": 1.0})


def test_reduction_constant_restricted_to_scaling_and_traveling():
    prof = random_reduction_profiles("S2", 5)
    with pytest.raises(ValueError):
        reduction_constant("S2", prof, 1.0)
    with pytest.raises(SingularPoint):
        reduction_constant("S1", random_reduction_profiles("S1", 5), -0.2)


# ------------------------------------------------------- component slices


def component_profiles(seed):
    import random as _r

    rng = _r.Random(seed)

    def fn():
        return TrigPoly(
            waves=[(rng.uniform(0.4, 1.0), rng.uniform(0.5, 1.2), rng.uniform(-1.5, 1.5))],
            poly=[rng.uniform(-0.3, 0.3)],
        )

    return {
        "u": profile(ctx, (ctx.scalar(rng.uniform(0.7, 1.3)), fn())),
        "phi": profile(ctx, (ctx.gen("D1"), fn()), (ctx.gen("mu0"), fn())),
        "psi": profile(ctx, (ctx.gen("D2"), fn()), (ctx.gen("lambda0"), fn())),
    }


@pytest.mark.parametrize("lid", component_case_ids())
def test_component_rows_slice_from_superspace_rows(lid):
    prof = component_profiles(7)
    assert component_slice_check(lid, prof, [0.6, 1.3, 2.1]) <= 1e-12


def test_component_kink_solves_sum_variable_case():
    # u = 2 arcsin(tanh s): u'' = -sin u; phi = D1 sech, psi = D1 tanh
    d1 = ctx.gen("D1")
    prof = {
        "u": profile(ctx, (2.0, TaylorFn(lambda s: s.apply(TANH).apply(ARCSIN)))),
        "phi": profile(ctx, (d1, SECH)),
        "psi": profile(ctx, (d1, TANH)),
    }
    for s in (-1.0, 0.0, 0.7, 1.9):
        rows = component_reduced_residual("L5", prof, s)
        assert max(r.norm() for r in rows) < 1e-12


def test_component_zero_profiles_vanish():
    prof = {k: zero_profile(ctx) for k in ("u", "phi", "psi")}
    for lid in component_case_ids():
        rows = component_reduced_residual(lid, prof, 0.9)
        assert max(r.norm() for r in rows) == 0.0


def test_component_case_validation():
    with pytest.raises(KeyError):
        component_reduced_residual("L9", component_profiles(1), 1.0)


# ------------------------------------------------- nonstandard subalgebras


def test_nonreducible_record_for_odd_translation_mix():
    rec = nonstandard_obstruction("S5", rng_seed=2)
    assert isinstance(rec, ObstructionRecord)
    assert not rec.reducible
    assert rec.x_gap > 0.1
    assert rec.details["affine_defect"] < 1e-12
    assert rec.solution_set == "value = k*pi"
    for v in rec.details["kpi_residuals"].values():
        assert v < 1e-12
    assert rec.details["offset_body_residual"] > 0.1
    assert rec.details["odd_probe_residual"] > 0.5


def test_nonstandard_records_cover_all_listed_subalgebras():
    assert nonstandard_ids() == ("S5", "S9", "S13", "S14", "S15", "S16")
    for sid in nonstandard_ids():
        rec = nonstandard_obstruction(sid)
        assert not rec.reducible
        assert rec.invariant_form.endswith("value)")
        if sid in ("S13", "S14", "S15", "S16"):
            assert rec.invariant_form.startswith("mu*nu")
    with pytest.raises(KeyError):
        nonstandard_obstruction("S1")


# --------------------------------------------------- complex cross-checks
#
# Two identities of the scaling reduction at complex sigma.  They are claims
# of the paper about complex-argument transforms, not about the engine, so
# only this module checks them; ``verify`` does not report them.


def _complex_sample(rng):
    p = [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(3)]
    sigma = complex(rng.uniform(0.4, 2.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0))
    y = cmath.exp(p[0] + p[1] * sigma + p[2] * sigma * sigma)
    y1 = (p[1] + 2.0 * p[2] * sigma) * y
    y2 = (2.0 * p[2]) * y + (p[1] + 2.0 * p[2] * sigma) * y1
    alpha = 1j * (p[0] + p[1] * sigma + p[2] * sigma * sigma)
    a1 = 1j * (p[1] + 2.0 * p[2] * sigma)
    a2 = 1j * (2.0 * p[2])
    return sigma, y, y1, y2, alpha, a1, a2


def _r_scaling(alpha, a1, a2, sigma, c0):
    return (sigma * a2 + a1 + 0.5 * cmath.sin(2.0 * alpha)
            - c0 * cmath.sin(alpha) / cmath.sqrt(sigma))


def _r_exponential(y, y1, y2, sigma, c0):
    return (y2 - y1 * y1 / y + y1 / sigma
            - (1.0 / (4.0 * sigma)) * (1.0 / y - y ** 3)
            + (c0 / (2.0 * sigma * cmath.sqrt(sigma))) * (1.0 - y * y))


def scaling_complex_transform_check(rng_seed=0, n_points=12) -> float:
    """The exponential substitution maps one scaling residual onto the other.

    With y = exp(-i alpha) the second-order scaling row times y/(i sigma)
    equals the rational row in y, identically in alpha and the constant.
    Checked at complex sigma off the real axis, where branch mistakes in the
    half-integer powers cannot hide.
    """
    rng = random.Random(rng_seed)

    def gap():
        sigma, y, y1, y2, alpha, a1, a2 = _complex_sample(rng)
        c0 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        lhs = _r_exponential(y, y1, y2, sigma, c0)
        rhs = (y / (1j * sigma)) * _r_scaling(alpha, a1, a2, sigma, c0)
        return abs(lhs - rhs)

    return worst_of(gap() for _ in range(n_points))


def scaled_complex_argument_check(rng_seed=0, n_points=10) -> float:
    """Rescaling the argument by +-2i matches the two signed rational forms.

    The sign of the imaginary argument and the sign in the equation are tied:
    z = 2i sigma lands on the + form, z = -2i sigma on the - form, and the
    residuals agree after dividing by the square of the scale.
    """
    rng = random.Random(rng_seed)

    def gaps():
        for _ in range(n_points):
            sigma, y, y1, y2, _, _, _ = _complex_sample(rng)
            base = _r_exponential(y, y1, y2, sigma, 0.0)
            for s in (1.0, -1.0):
                c = 2j * s
                z = c * sigma
                w, wz, wzz = y, y1 / c, y2 / (c * c)
                r = (wzz - wz * wz / w + wz / z
                     - s * (1j / (8.0 * z)) * (w ** 3 - 1.0 / w))
                yield abs(r - base / (c * c))

    return worst_of(gaps())


def test_scaling_equation_exponential_substitution():
    assert scaling_complex_transform_check(3, 20) < 1e-10


def test_scaling_equation_argument_rescaling():
    assert scaled_complex_argument_check(5, 16) < 1e-10
