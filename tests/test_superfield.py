"""Superfield assembly, covariant/supersymmetry operators, residuals."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from susygordon import checks, reductions, superfield
from susygordon.analytic import COS, EXP, SECH, SIN, Poly, TrigPoly
from susygordon.grassmann import (
    DEFAULT_CONTEXT as CTX,
    AlgebraContext,
    GrassmannNumber,
    Parity,
    ParityError,
    apply_analytic,
    gen_derivative,
    scalar,
    worst_of,
)
from susygordon.superfield import (
    component_superfield,
    constant_component,
    coordinate_jets,
    evaluate_bundle,
    op_D,
    op_Q,
    profile_component,
    random_superfield,
    ssg_residual,
    superfield_jet,
    theta_coefficients,
    theta_sum,
)

from helpers import ARCTAN, DYADIC, bits, component_jets
from susygordon.superjet import (
    JetSpec,
    SuperJet,
    jet_apply_analytic,
    jet_map,
    jet_add,
    jet_multiply,
    jet_partial,
    jet_scale,
    jet_spec,
)

TH1 = CTX.gen("theta1")
TH2 = CTX.gen("theta2")


def make(u_half=None, phi=None, psi=None, F=None):
    z = constant_component(CTX.zero())
    return component_superfield(u_half or z, phi or z, psi or z, F or z, CTX)


def test_linear_u_component():
    f = make(u_half=profile_component(lambda jx, jt: jx))  # u = 2x
    b = evaluate_bundle(f, scalar(0.3), scalar(-1.2))
    assert b.d_x.body == 1.0
    assert b.d_th1.is_zero()
    assert b.d_xt.is_zero()


def test_constant_odd_component():
    xi3 = CTX.gen(3)
    f = make(phi=constant_component(xi3))
    b = evaluate_bundle(f, scalar(0.0), scalar(0.0))
    assert (b.d_th1 - xi3).is_zero()
    assert b.d_x.is_zero()
    assert (b.value - TH1 * xi3).is_zero()


def test_theta_derivative_layout():
    # value = th1 th2 F: leftmost-subscript-first reading gives +F, and the
    # swapped application order flips the sign
    f = make(F=profile_component(lambda jx, jt: jx * jt))
    x, t = scalar(2.0), scalar(5.0)
    b = evaluate_bundle(f, x, t)
    assert b.d_th1th2.body == 10.0
    i1, i2 = CTX.roles["theta1"], CTX.roles["theta2"]
    swapped = gen_derivative(gen_derivative(b.value, i2), i1)
    assert swapped.body == -10.0
    # first theta derivatives carry the familiar expansion
    assert (b.d_th1 - TH2 * scalar(10.0)).is_zero()
    assert (b.d_th2 + TH1 * scalar(10.0)).is_zero()


def test_first_theta_derivative_is_phi_plus_theta2_F():
    f = random_superfield(42)
    x, t = scalar(0.4), scalar(0.9)
    b = evaluate_bundle(f, x, t)
    _, phi_v, psi_v, F_v = (j.value() for j in component_jets(superfield_jet(f, x, t, 0), CTX))
    assert (b.d_th1 - (phi_v + TH2 * F_v)).norm() < 1e-14
    assert (b.d_th2 - (psi_v - TH1 * F_v)).norm() < 1e-14


def test_D_of_pure_theta1():
    f = make(phi=constant_component(CTX.one()))  # value = th1
    jet = superfield_jet(f, scalar(1.0), scalar(2.0), order=1)
    assert (op_D(jet, CTX, "x").value() - CTX.one()).is_zero()


POINTS = [(0.3, -0.7), (1.1, 0.45), (-0.6, 0.2)]


@pytest.mark.parametrize("seed", range(10))
def test_operator_identities(seed):
    f = random_superfield(seed)
    for x0, t0 in POINTS:
        x, t = scalar(x0), scalar(t0)
        b = evaluate_bundle(f, x, t)
        jet3 = superfield_jet(f, x, t, order=2)

        def DD(a, b_):
            return op_D(op_D(jet3, CTX, b_), CTX, a).value()

        def QQ(a, b_):
            return op_Q(op_Q(jet3, CTX, b_), CTX, a).value()

        def DQ(a, b_):
            return op_D(op_Q(jet3, CTX, b_), CTX, a).value()

        def QD(a, b_):
            return op_Q(op_D(jet3, CTX, b_), CTX, a).value()

        assert (DD("x", "x") - b.d_x).norm() < 1e-13
        assert (DD("t", "t") - b.d_t).norm() < 1e-13
        assert (DD("x", "t") + DD("t", "x")).norm() < 1e-13
        # {Q,Q} doubles the single square: 2 Q_x^2 = -2 d_x
        assert (QQ("x", "x") * 2.0 + scalar(2.0) * b.d_x).norm() < 1e-13
        assert (QQ("t", "t") * 2.0 + scalar(2.0) * b.d_t).norm() < 1e-13
        assert (QQ("x", "t") + QQ("t", "x")).norm() < 1e-13
        for da, qb in (("x", "x"), ("x", "t"), ("t", "x"), ("t", "t")):
            anti = DQ(da, qb) + QD(qb, da)
            assert anti.norm() < 1e-13, f"D_{da} Q_{qb} anticommutator: {anti}"


def test_b5_sampler_builds_one_jet_per_point(monkeypatch):
    calls = []
    real = superfield.superfield_jet

    def counted(f, x, t, order=2):
        calls.append((x.body, t.body))
        return real(f, x, t, order)

    monkeypatch.setattr(superfield, "superfield_jet", counted)
    monkeypatch.setattr(checks, "superfield_jet", counted)
    residuals = list(checks.b5_residuals(checks.covariant_squares)(CTX, 0, 1))
    assert len(residuals) == len(calls) == 10
    assert len(set(calls)) == 10


def test_b5_families_build_each_first_level_operator_once(monkeypatch):
    # exact gate: D_x, D_t, Q_x and Q_t of the order-2 jet once per family
    # (2 + 4), then one outer operator per pair the families test (4 + 12)
    orders = []
    real = superfield._op_theta

    def counted(jet, ctx, which, sign):
        orders.append(jet.spec.order)
        return real(jet, ctx, which, sign)

    monkeypatch.setattr(superfield, "_op_theta", counted)
    jet = superfield_jet(random_superfield(900), scalar(0.15), scalar(-0.45), order=2)
    checks.covariant_squares(jet, CTX)
    checks.susy_anticommutators(jet, CTX)
    assert len(orders) == 22
    assert orders.count(2) == 6 and orders.count(1) == 16


# Exact-input twin of the b5 families: every coefficient and point is from
# DYADIC and every component a product of two polynomials, so a correct
# identity reads exactly 0.0.  It adds to the random float draws.
FREE_ROLES = ("mu", "nu", "D1", "D2", "mu0", "lambda0")


def dyadic_poly_field(rng):
    """u/2 + th1 phi + th2 psi + th1 th2 F with each component p(x) q(t) for
    quadratics p, q of dyadic coefficients; phi and psi each carry one
    generator."""

    def component(gen=None):
        px, qt = (Poly([rng.choice(DYADIC) for _ in range(3)]) for _ in range(2))

        def build(jx, jt):
            jet = jet_multiply(jet_apply_analytic(jx, px), jet_apply_analytic(jt, qt))
            return jet if gen is None else jet_scale(jet, gen, from_left=True)

        return profile_component(build, CTX)

    phi, psi = (component(CTX.gen(rng.choice(FREE_ROLES))) for _ in range(2))
    return component_superfield(component(), phi, psi, component(), CTX)


def test_b5_families_are_exactly_zero_on_dyadic_polynomial_fields():
    rng = random.Random(31)
    for _ in range(40):
        f = dyadic_poly_field(rng)
        for _ in range(3):
            x, t = (CTX.scalar(rng.choice(DYADIC)) for _ in range(2))
            jet = superfield_jet(f, x, t, order=2)
            devs = [*checks.covariant_squares(jet, CTX), *checks.susy_anticommutators(jet, CTX)]
            assert worst_of(devs) == 0.0, (x.body, t.body)


def _op_theta_reference(jet, ctx, which, sign):
    """The map-then-filter form of ``_op_theta``: the theta derivative of
    every component, the top order dropped afterwards.  ``_op_theta`` must
    match it bit for bit, key order included."""
    theta_role, seed = ("theta1", "x") if which == "x" else ("theta2", "t")
    idx = ctx.roles[theta_role]
    th = ctx.gen(theta_role)
    first = jet_map(jet, lambda v: gen_derivative(v, idx))
    second = jet_scale(jet_partial(jet, seed), th * sign, from_left=True)
    sub = JetSpec(jet.spec.seeds, jet.spec.order - 1)
    comp = dict(second.comp)
    for J, v in first.comp.items():
        if sum(J) <= sub.order:
            comp[J] = comp[J] + v if J in comp else v
    return SuperJet(sub, jet.ngen, comp)


def _jet_bits(jet):
    return [(J, bits(v.terms)) for J, v in jet.comp.items()]


# every float, plus the values whose sign or payload a product could lose
COEFFS = st.one_of(
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324]),
    st.floats(),
)
# half of the masks carry no theta generator, so their theta derivative vanishes
MASKS = st.one_of(st.integers(0, 255), st.integers(0, 63).map(lambda m: m << 2))


@st.composite
def superfield_jets(draw):
    """A jet of supernumbers in a drawn key order: general ones, or body-only
    ones, the components of a soul-free point."""
    spec = JetSpec(("x", "t"), draw(st.integers(1, 2)))
    masks = st.just(0) if draw(st.booleans()) else MASKS
    comp = {}
    for J in spec.indices():
        if draw(st.booleans()):
            terms = draw(st.dictionaries(masks, COEFFS, min_size=1, max_size=4))
            comp[J] = GrassmannNumber._make(CTX.generator_count, terms)
    order = draw(st.permutations(list(comp)))
    return SuperJet(spec, CTX.generator_count, {J: comp[J] for J in order})


@given(superfield_jets())
@settings(max_examples=200, deadline=None)
def test_op_theta_matches_the_map_then_filter_form(jet):
    for which in ("x", "t"):
        for sign in (1.0, -1.0):
            want = _op_theta_reference(jet, CTX, which, sign)
            assert _jet_bits(superfield._op_theta(jet, CTX, which, sign)) == _jet_bits(want)


def _lowered_checked(jet, which, sign):
    """``_op_theta`` of ``jet``, checked bit for bit against the reference."""
    got = superfield._op_theta(jet, CTX, which, sign)
    assert _jet_bits(got) == _jet_bits(_op_theta_reference(jet, CTX, which, sign))
    return got


def test_op_theta_drops_a_component_that_empties_and_keeps_the_later_keys():
    # (0, 0) holds no theta and (1, 0), (0, 1) hold both, so lowering along
    # either seed gives (0, 0) no shift term and no derivative term: it
    # empties between the shifted keys and a derivative key that joins after
    # it, and that later key keeps its place
    jet = SuperJet(JetSpec(("x", "t"), 2), CTX.generator_count, {
        (0, 0): scalar(1.5) * CTX.gen(2) * CTX.gen(3),
        (1, 0): TH1 * TH2 * 2.0,
        (0, 1): TH1 * TH2 * -1.0,
        (1, 1): CTX.gen(3) * 0.5,
    })
    for sign in (1.0, -1.0):
        for which, keys in (("x", [(0, 1), (1, 0)]), ("t", [(1, 0), (0, 1)])):
            assert list(_lowered_checked(jet, which, sign).comp) == keys


def test_op_theta_shift_and_derivative_terms_never_share_a_mask():
    # the shift term of (1, 0) and the derivative term of (0, 0) have opposite
    # coefficients on words that differ only in theta.  The shift's masks hold
    # theta's bit and the derivative's do not, so the two never meet on one
    # mask and no sum in a lowering can cancel: both terms stay
    k = CTX.gen(3)
    for which, th, J in (("x", TH1, (1, 0)), ("t", TH2, (0, 1))):
        jet = SuperJet(JetSpec(("x", "t"), 1), CTX.generator_count, {J: k, (0, 0): th * k * -1.0})
        shifted = next(iter((th * k).terms))
        for sign in (1.0, -1.0):
            got = _lowered_checked(jet, which, sign).get((0, 0))
            assert bits(got.terms) == bits({shifted: sign, 1 << 3: -1.0})


def test_lowering_an_order_zero_jet_raises():
    # the spec cache keeps no exception: every request for order -1 is refused
    jet = superfield_jet(random_superfield(7), scalar(0.25), scalar(0.75), order=0)
    coordinate = coordinate_jets(0.25, 0.75, 0, CTX)[0]
    for _ in range(2):
        for j in (jet, coordinate):
            for lower in (lambda j: op_D(j, CTX, "x"), lambda j: op_Q(j, CTX, "t"),
                          lambda j: jet_partial(j, "x")):
                with pytest.raises(ValueError, match="negative jet order"):
                    lower(j)
    assert jet_spec(("x", "t"), 1) is jet_spec(("x", "t"), 1)


def test_coordinate_jets_at_soul_free_points_hold_body_only_supernumbers():
    # a real coordinate is lifted, so every component is a supernumber over
    # the context's algebra (the benchmark tracer reads v.terms of each); a
    # zero coordinate's value is absent, as the algebra drops an empty number
    for ctx in (CTX, AlgebraContext(10)):
        points = ((0.4, -1.5), (ctx.scalar(0.4), ctx.scalar(5e-324)), (0.0, -0.0),
                  (ctx.scalar(-0.0), 5e-324), (-5e-324, ctx.scalar(2.0)))
        for x, t in points:
            for order in range(3):
                jx, jt = coordinate_jets(x, t, order, ctx)
                for jet, v, slope in ((jx, x, (1, 0)), (jt, t, (0, 1))):
                    body = ctx.lift(v).body
                    want = {(0, 0): {0: body}} if body != 0.0 else {}
                    if order:
                        want[slope] = {0: 1.0}
                    assert all(type(w) is GrassmannNumber and w.ngen == ctx.generator_count
                               for w in jet.comp.values())
                    assert [(J, bits(w.terms)) for J, w in jet.comp.items()] == [
                        (J, bits(w)) for J, w in want.items()]
                    assert all(w.terms.keys() <= {0}
                               for w in jet_apply_analytic(jet, COS).comp.values())


def test_theta_operators_match_the_bundle():
    f = random_superfield(7)
    x, t = scalar(0.25), scalar(0.75)
    b = evaluate_bundle(f, x, t)
    jet = superfield_jet(f, x, t, order=1)
    assert (op_D(jet, CTX, "x").value() - (b.d_th1 + TH1 * b.d_x)).norm() < 1e-14
    assert (op_Q(jet, CTX, "t").value() - (b.d_th2 - TH2 * b.d_t)).norm() < 1e-14


def test_residual_is_covariant_equation():
    # the expanded residual must equal D_x D_t value - sin(value)
    for seed in (3, 11):
        f = random_superfield(seed)
        for x0, t0 in POINTS:
            x, t = scalar(x0), scalar(t0)
            r = ssg_residual(f, x, t)
            jet = superfield_jet(f, x, t, order=2)
            alt = op_D(op_D(jet, CTX, "t"), CTX, "x").value() - apply_analytic(
                SIN, evaluate_bundle(f, x, t).value
            )
            assert (r - alt).norm() < 1e-13


def test_constant_multiple_of_pi_solves():
    # value = k*pi solves the equation; k*pi/2 with odd k does not
    for k in (-1, 0, 2):
        f = make(u_half=constant_component(scalar(k * math.pi)))
        assert ssg_residual(f, scalar(0.1), scalar(0.2)).norm() < 1e-12
    g = make(u_half=constant_component(scalar(math.pi / 2.0)))
    assert ssg_residual(g, scalar(0.1), scalar(0.2)).norm() > 0.5


def test_negative_control_theta1theta2():
    f = make(F=constant_component(CTX.one()))  # value = th1 th2
    r = ssg_residual(f, scalar(0.0), scalar(0.0))
    # -value_th1th2 - sin(th1 th2) = -1 - th1 th2
    assert (r + CTX.one() + TH1 * TH2).is_zero()
    assert abs(r.body) >= 0.1


def _component_rows(jet, ctx):
    """The component residuals of an order-2 superfield jet, and cos(u/2)."""
    ju, jphi, jpsi, jF = component_jets(jet, ctx)
    half_u = ju.value()
    sin_half = apply_analytic(SIN, half_u)
    cos_half = apply_analytic(COS, half_u)
    u_xt = ju.d("x", "t") * 2.0
    sin_u = sin_half * cos_half * 2.0
    phi_v, psi_v = jphi.value(), jpsi.value()
    d1 = u_xt + sin_u - phi_v * psi_v * sin_half * 2.0
    d2 = jphi.d("t") + psi_v * cos_half
    d3 = jpsi.d("x") - phi_v * cos_half
    dF = jF.value() + sin_half
    return (d1, d2, d3, dF), cos_half


def component_residuals(f, x, t):
    """(D1, D2, D3, DF): the three component equations plus the algebraic tie.

    D1 = u_xt + sin u - 2 phi psi sin(u/2)
    D2 = phi_t + psi cos(u/2)
    D3 = psi_x - phi cos(u/2)
    DF = F + sin(u/2)
    """
    return _component_rows(superfield_jet(f, x, t, 2), f.ctx)[0]


def component_equivalence(f, x, t) -> float:
    """Max deviation between the residual's theta slots and the component set.

    The identity holds off shell:
        slot 1     = -DF
        slot th1   =  D3
        slot th2   = -D2
        slot th1th2 = D1/2 - DF cos(u/2)
    """
    r = ssg_residual(f, x, t)
    c0, c1, c2, c3 = theta_coefficients(r, f.ctx)
    (d1, d2, d3, dF), cos_half = _component_rows(superfield_jet(f, x, t, 2), f.ctx)
    gaps = (
        c0 + dF,
        c1 - d3,
        c2 + d2,
        c3 - (d1 * 0.5 - dF * cos_half),
    )
    return worst_of(g.norm() for g in gaps)


def kink_superfield():
    def u_half(jx, jt):
        return jet_apply_analytic(jet_apply_analytic(jx - jt, EXP), ARCTAN) * 2.0

    def F(jx, jt):
        return jet_apply_analytic(jx - jt, SECH) * (-1.0)

    return make(u_half=profile_component(u_half), F=profile_component(F))


def test_classical_kink():
    f = kink_superfield()
    for i in range(5):
        for j in range(5):
            x0, t0 = -1.0 + 0.5 * i, -0.8 + 0.4 * j
            d1, d2, d3, dF = component_residuals(f, scalar(x0), scalar(t0))
            assert d1.norm() < 1e-10, f"({x0},{t0}): {d1}"
            assert d2.is_zero() and d3.is_zero()
            assert dF.norm() < 1e-10
            r = ssg_residual(f, scalar(x0), scalar(t0))
            assert r.norm() < 1e-10


def test_kink_against_finite_differences():
    # independent scalar oracle for u_xt = -sin(u)
    u = lambda x, t: 4.0 * math.atan(math.exp(x - t))
    h = 1e-4
    for x0, t0 in ((0.0, 0.0), (0.7, -0.3)):
        fd = (u(x0 + h, t0 + h) - u(x0 + h, t0 - h) - u(x0 - h, t0 + h) + u(x0 - h, t0 - h)) / (
            4 * h * h
        )
        assert abs(fd + math.sin(u(x0, t0))) < 1e-6


def test_component_equivalence_off_shell():
    for seed in range(20):
        f = random_superfield(seed)
        for x0, t0 in POINTS[:2]:
            dev = component_equivalence(f, scalar(x0), scalar(t0))
            assert dev < 1e-12, f"seed {seed} at ({x0},{t0}): {dev}"
    z = make()
    assert component_equivalence(z, scalar(0.0), scalar(0.0)) == 0.0


def test_sin_expansion_of_constant_superfield():
    alpha, beta = 0.7, 1.3
    eta, lam = CTX.gen(4), CTX.gen(5)
    f = make(
        u_half=constant_component(scalar(alpha)),
        phi=constant_component(eta),
        psi=constant_component(lam),
        F=constant_component(scalar(beta)),
    )
    v = evaluate_bundle(f, scalar(0.0), scalar(0.0)).value
    s = apply_analytic(SIN, v)
    c0, c1, c2, c3 = theta_coefficients(s, CTX)
    sa, ca = math.sin(alpha), math.cos(alpha)
    assert abs(c0.body - sa) < 1e-12
    assert (c1 - eta * ca).norm() < 1e-12
    assert (c2 - lam * ca).norm() < 1e-12
    expect3 = scalar(beta * ca) + eta * lam * sa
    assert (c3 - expect3).norm() < 1e-12


def test_residual_parity_even():
    for seed in (1, 8):
        f = random_superfield(seed)
        r = ssg_residual(f, scalar(0.5), scalar(0.1))
        assert r.parity in (Parity.EVEN,)


def test_gian_type_constant_background():
    # u = (2k+1)pi, phi = m0, psi = m0*w(t), F = (-1)^(k+1): exact solution
    m0 = CTX.gen("mu0")
    for k in (0, 1):
        f = make(
            u_half=constant_component(scalar((2 * k + 1) * math.pi / 2.0)),
            phi=constant_component(m0),
            psi=profile_component(lambda jx, jt: jet_scale(jt * jt, m0, from_left=True)),
            F=constant_component(scalar((-1.0) ** (k + 1))),
        )
        x, t = scalar(0.8), scalar(1.7)
        d1, d2, d3, dF = component_residuals(f, x, t)
        for d in (d1, d2, d3):
            assert d.norm() < 1e-12
        assert dF.norm() < 5e-13
        assert ssg_residual(f, x, t).norm() < 5e-13


def test_grassmann_valued_evaluation_points():
    # even supernumber coordinates flow through the jets unharmed
    f = random_superfield(5)
    soul = CTX.gen(2) * CTX.gen(3)
    x = scalar(0.4) + soul * scalar(0.2)
    t = scalar(-0.3)
    dev = component_equivalence(f, x, t)
    assert dev < 1e-12


def _composed_random_superfield(rng_seed, ctx=CTX):
    """``random_superfield`` composed from its parts: each profile composed
    onto the coordinate jets, the jets multiplied, scaled by the odd
    prefactors and glued by ``component_superfield``, with the same draws.
    The one-pass jet must give these bits in this key order."""
    rng = random.Random(rng_seed)
    i1, i2 = ctx.roles["theta1"], ctx.roles["theta2"]
    free = [i for i in range(ctx.generator_count) if i not in (i1, i2)]

    def trig():
        return TrigPoly(
            waves=[(rng.uniform(-1, 1), rng.uniform(0.4, 1.3), rng.uniform(-1, 1))],
            poly=[rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4)],
        )

    def even_builder():
        fx, ft, gx, gt = trig(), trig(), trig(), trig()

        def builder(jx, jt):
            return jet_apply_analytic(jx, fx) * jet_apply_analytic(jt, ft) + jet_apply_analytic(
                jx, gx
            ) * jet_apply_analytic(jt, gt)

        return profile_component(builder, ctx)

    def odd_builder():
        k1 = ctx.gen(rng.choice(free))
        trip = rng.sample(free, 3)
        k3 = ctx.gen(trip[0]) * ctx.gen(trip[1]) * ctx.gen(trip[2])
        fx, ft, gx, gt = trig(), trig(), trig(), trig()

        def builder(jx, jt):
            a = jet_apply_analytic(jx, fx) * jet_apply_analytic(jt, ft)
            b = jet_apply_analytic(jx, gx) * jet_apply_analytic(jt, gt)
            return jet_scale(a, k1, from_left=True) + jet_scale(b, k3, from_left=True)

        return profile_component(builder, ctx)

    # builder calls in argument order: even, odd, odd, even
    return component_superfield(even_builder(), odd_builder(), odd_builder(), even_builder(), ctx)


def _soul(*pairs):
    """sum of c * g_i g_j over (i, j, c), a theta-free even soul"""
    out = CTX.zero()
    for i, j, c in pairs:
        out = out + CTX.gen(i) * CTX.gen(j) * c
    return out


# soul-free points (floats, lifted reals and both signs of zero), and
# points with a soul in x, in t and in both
JET_POINTS = {
    "real": [(0.3, -0.7), (scalar(1.1), scalar(0.45)), (-0.6, scalar(0.2))],
    "zero": [(0.0, -0.0), (-0.0, scalar(0.0)), (scalar(-0.0), 0.75)],
    "soul_x": [(scalar(0.4) + _soul((2, 3, 0.2)), -0.3), (_soul((4, 6, -0.5)), 0.9)],
    "soul_t": [(1.2, scalar(-0.3) + _soul((5, 7, 0.25))), (scalar(-0.0), _soul((2, 4, 1.5)))],
    "soul_both": [(scalar(0.4) + _soul((2, 3, 0.2), (4, 7, -0.1)),
                   scalar(-0.8) + _soul((2, 5, 0.3), (3, 6, 0.7)))],
}


@pytest.mark.parametrize("kind", sorted(JET_POINTS))
def test_random_superfield_jet_matches_the_composed_jets(kind):
    for seed in range(60):
        f, want = random_superfield(seed), _composed_random_superfield(seed)
        for x, t in JET_POINTS[kind]:
            for order in range(4):
                got = superfield_jet(f, x, t, order)
                ref = superfield_jet(want, x, t, order)
                assert got.spec is ref.spec and got.ngen == ref.ngen
                assert [(J, bits(v.terms)) for J, v in got.comp.items()] == [
                    (J, bits(v.terms)) for J, v in ref.comp.items()
                ], (seed, kind, order)


# Exact cancellations, which random points almost never draw, at x = 0.4 +
# soul and t = -0.3 for seed 0.  With the soul c g2 g7 the two terms of the
# phi slot meet on th1 g2 g4 g7 in the value and their slot sum is 0.0.  With
# c th1 g4 the u/2 slot's soul term meets phi's body term on th1 g4 and the
# field sum is 0.0; the composed jets agree at this soul too.  The next float
# toward zero leaves the mask in the jet.
CANCELLING_SOULS = {
    "slot": ((2, 7, -0.796887504035161), 0b10010101),
    "field": ((0, 4, -0.36177345037608705), 0b10001),
}


@pytest.mark.parametrize("kind", sorted(CANCELLING_SOULS))
def test_random_superfield_cancelling_sums_match_the_composed_jets(kind):
    (i, j, c), mask = CANCELLING_SOULS[kind]
    f, want = random_superfield(0), _composed_random_superfield(0)
    for soul, cancels in ((c, True), (math.nextafter(c, 0.0), False)):
        x = scalar(0.4) + _soul((i, j, soul))
        for order in range(3):
            got = superfield_jet(f, x, -0.3, order)
            assert _jet_bits(got) == _jet_bits(superfield_jet(want, x, -0.3, order))
            assert (mask in got.value().terms) is not cancels, (soul, order)


def test_random_superfield_refuses_an_odd_coordinate():
    f, want = random_superfield(3), _composed_random_superfield(3)
    odd = CTX.gen(2)
    for x, t in ((odd, 0.4), (0.4, odd), (scalar(0.1) + CTX.gen(5), scalar(0.2))):
        for field in (f, want):
            with pytest.raises(ParityError):
                superfield_jet(field, x, t, 2)


def _jet_bits(jet):
    return [(J, bits(v.terms)) for J, v in jet.comp.items()]


@pytest.mark.parametrize("case_id", sorted(reductions.CASES))
def test_theta_sum_is_each_inline_expansion_it_replaces(case_id):
    # the references spell out each expansion site as it was written, with
    # the jet operations its operators reach
    case = reductions.CASES[case_id]
    profiles = reductions.random_reduction_profiles(case, 5, CTX)
    p = reductions._fill_params(case, None, CTX)
    x = CTX.scalar(0.4)
    t = CTX.scalar(1.3) + CTX.gen("D1") * CTX.gen("D2") * 0.25
    jx, jt = coordinate_jets(x, t, 2, CTX)
    sj, m1, m2 = case.invariants(jx, jt, p, CTX)
    a, f1, f2, b = (profiles[name].jet(sj) for name in case.profile_names)

    # jets with jet monomials: the ansatz of each case
    want = jet_add(jet_add(jet_add(a, jet_multiply(m1, f1)), jet_multiply(m2, f2)),
                   jet_multiply(jet_multiply(m1, m2), b))
    got = theta_sum(a, (m1, f1), (m2, f2), (m1 * m2, b))
    assert _jet_bits(got) == _jet_bits(want)

    # jets with supernumber monomials: a superfield from its components
    want = (a + jet_scale(f1, TH1, from_left=True) + jet_scale(f2, TH2, from_left=True)
            + jet_scale(b, TH1 * TH2, from_left=True))
    got = theta_sum(a, (TH1, f1), (TH2, f2), (TH1 * TH2, b))
    assert _jet_bits(got) == _jet_bits(want)

    # supernumbers with +-1.0-signed rows: the consistency recombination, the
    # sign folded into each row before the monomial product
    sig, n1, n2 = (j.value() for j in case.invariants(*coordinate_jets(x, t, 0, CTX), p, CTX))
    pv = {name: profiles[name].derivs_at(sig, 2) for name in case.profile_names}
    rows, s = case.equations(pv, sig, p), case.signs
    want = (rows[0] * s[0] + n1 * rows[1] * s[1] + n2 * rows[2] * s[2]
            + (n1 * n2) * rows[3] * s[3])
    got = theta_sum(rows[0] * s[0], (n1, rows[1] * s[1]), (n2, rows[2] * s[2]),
                    (n1 * n2, rows[3] * s[3]))
    assert want.terms and bits(got.terms) == bits(want.terms)
