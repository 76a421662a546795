"""Jet points, total derivatives, and the prolongation recursion."""

import math
import operator
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susygordon.grassmann import DEFAULT_CONTEXT as CTX
from susygordon.grassmann import (
    AlgebraContext,
    GrassmannNumber,
    Parity,
    apply_analytic,
    worst_count,
)
from susygordon.analytic import COS
from susygordon import checks, grassmann, prolongation
from susygordon.cli import RunConfig, _run_checks, main
from susygordon.superjet import JetSpec, jet_spec
from susygordon.prolongation import (
    COMPONENT_SIGNATURE,
    SSG_SIGNATURE,
    CoefficientFn,
    CoordF,
    FnF,
    IncompleteJetPoint,
    JetPoint,
    ProblemSignature,
    VectorFieldSpec,
    all_coordinate_keys,
    component_named_generators,
    component_shift_spec,
    component_symmetry_spec,
    collect,
    coordinate_key,
    evaluate_expr,
    evaluate_spec,
    expr_sub,
    onshell_substitute,
    prolong,
    prolong_expanded,
    prolonged_expr,
    random_jet_point,
    ssg_named_generators,
    ssg_shift_spec,
    ssg_symmetry_spec,
    symmetry_residual,
    total_derivative_expr,
)

from helpers import assert_reports_alike_from_three_threads, bits, general_product, general_sum


def total_derivative(p, expr, direction):
    """D_direction(expr) at the point, for an expression of jet coordinates
    only."""
    return evaluate_expr(total_derivative_expr(p.sig, {}, expr, direction), {}, p)


def _scaled(builder, weight):
    return lambda jets: builder(jets) * weight


def _summed(b1, w1, b2, w2):
    return lambda jets: b1(jets) * w1 + b2(jets) * w2


def combine_specs(a, v: VectorFieldSpec, b, w: VectorFieldSpec) -> VectorFieldSpec:
    """a*v + b*w for even supernumber weights, coefficient by coefficient.

    A combined coefficient reads what either part reads, and every odd
    independent too when a weight has a soul, which may carry a theta.
    """
    if v.sig is not w.sig:
        raise ValueError("cannot combine specs over different signatures")
    souled = any(isinstance(x, GrassmannNumber) and x.terms.keys() - {0} for x in (a, b))
    extra = frozenset(v.sig.odd_independents if souled else ())
    out = {}
    for name in v.coefficients:
        fv, fw = v.coefficients[name], w.coefficients[name]
        sectors: dict = {}
        for S, bld in fv.sectors.items():
            if S in fw.sectors:
                sectors[S] = _summed(bld, a, fw.sectors[S], b)
            else:
                sectors[S] = _scaled(bld, a)
        for S, bld in fw.sectors.items():
            if S not in sectors:
                sectors[S] = _scaled(bld, b)
        reads = None if fv.reads is None or fw.reads is None else fv.reads | fw.reads | extra
        out[name] = CoefficientFn(fv.parity, sectors, reads)
    return VectorFieldSpec(v.sig, out)


def test_total_derivative_of_odd_coordinate_times_field():
    # D_theta1(Phi_theta2 Phi) = (D_theta1 Phi_theta2) Phi - Phi_theta2 Phi_theta1:
    # theta1 hops the odd theta2 in the first term and the odd factor
    # Phi_theta2 in the second
    p = random_jet_point(SSG_SIGNATURE, 3, CTX)
    expr = [(1.0, (CoordF("Phi", (0, 0), ("theta2",)), CoordF("Phi", (0, 0), ())))]
    got = total_derivative(p, expr, "theta1")
    want = (
        -p.get(("Phi", (0, 0), ("theta1", "theta2"))) * p.get(("Phi", (0, 0), ()))
        - p.get(("Phi", (0, 0), ("theta2",))) * p.get(("Phi", (0, 0), ("theta1",)))
    )
    assert not want.is_zero() and (got - want).norm() < 1e-14


def test_even_total_derivatives_commute():
    p = random_jet_point(SSG_SIGNATURE, 5, CTX, order=3)
    expr = [(1.0, (CoordF("Phi", (0, 0), ("theta1",)), CoordF("Phi", (1, 0), ())))]
    xt = total_derivative_expr(
        SSG_SIGNATURE, {}, total_derivative_expr(SSG_SIGNATURE, {}, expr, "x"), "t"
    )
    tx = total_derivative_expr(
        SSG_SIGNATURE, {}, total_derivative_expr(SSG_SIGNATURE, {}, expr, "t"), "x"
    )
    assert (evaluate_expr(xt, {}, p) - evaluate_expr(tx, {}, p)).norm() < 1e-14


def test_odd_total_derivatives_anticommute():
    p = random_jet_point(SSG_SIGNATURE, 9, CTX, order=3)
    expr = [(1.0, (CoordF("Phi", (0, 1), ()), CoordF("Phi", (0, 0), ("theta2",))))]

    def dd(a, b):
        return total_derivative_expr(
            SSG_SIGNATURE, {}, total_derivative_expr(SSG_SIGNATURE, {}, expr, a), b
        )

    anti = evaluate_expr(dd("theta1", "theta2"), {}, p) + evaluate_expr(
        dd("theta2", "theta1"), {}, p
    )
    assert anti.norm() < 1e-14
    # odd squares vanish
    assert evaluate_expr(dd("theta1", "theta1"), {}, p).norm() < 1e-14


def test_translations_prolong_to_zero():
    p = random_jet_point(SSG_SIGNATURE, 21, CTX)
    for name in ("P_x", "P_t"):
        pro = prolong(ssg_named_generators(CTX)[name], p)
        assert max(v.norm() for v in pro.values()) == 0.0


def test_field_direction_scaling():
    # Pi = Phi, everything else zero: first coefficients are Phi_x, Phi_t
    spec = VectorFieldSpec(
        SSG_SIGNATURE,
        {
            "x": CoefficientFn.zero(Parity.EVEN),
            "t": CoefficientFn.zero(Parity.EVEN),
            "theta1": CoefficientFn.zero(Parity.ODD),
            "theta2": CoefficientFn.zero(Parity.ODD),
            "Phi": CoefficientFn.plain(Parity.EVEN, lambda jets: jets["Phi"]),
        },
    )
    p = random_jet_point(SSG_SIGNATURE, 2, CTX)
    pro = prolong(spec, p)
    assert (pro["Phi", ("x",)] - p.coordinate("Phi", "x")).norm() < 1e-14
    assert (pro["Phi", ("t",)] - p.coordinate("Phi", "t")).norm() < 1e-14
    assert (pro["Phi", ("x", "t")] - p.coordinate("Phi", "x", "t")).norm() < 1e-14


def test_scaling_generator_first_coefficient_by_hand():
    # for the dilation-like generator, the x-slot coefficient is 2 Phi_x
    p = random_jet_point(SSG_SIGNATURE, 31, CTX)
    pro = prolong(ssg_named_generators(CTX)["L"], p)
    assert (pro["Phi", ("x",)] - p.coordinate("Phi", "x") * 2.0).norm() < 1e-14
    # and the twice-odd slot coefficient cancels to zero
    assert pro["Phi", ("theta1", "theta2")].norm() < 1e-14


def test_odd_generator_top_coefficient_by_hand():
    # xi = -mu theta1, rho = mu: the only surviving top-slot term is mu Phi_xth2
    mu = CTX.gen("mu")
    p = random_jet_point(SSG_SIGNATURE, 17, CTX)
    pro = prolong(ssg_named_generators(CTX)["mu*Q_x"], p)
    want = mu * p.coordinate("Phi", "x", "theta2")
    assert (pro["Phi", ("theta1", "theta2")] - want).norm() < 1e-14


@pytest.mark.parametrize("seed", range(8))
def test_recursion_matches_expanded_closed_forms(seed):
    p = random_jet_point(SSG_SIGNATURE, 1000 + seed, CTX)
    for name, g in ssg_named_generators(CTX).items():
        pr = prolong(g, p)
        pe = prolong_expanded(g, p)
        for key, val in pe.items():
            assert (pr[key] - val).norm() < 1e-12, (name, key)


@pytest.mark.parametrize("seed", range(8))
def test_recursion_matches_expanded_component(seed):
    p = random_jet_point(COMPONENT_SIGNATURE, 2000 + seed, CTX)
    for name, g in component_named_generators(CTX).items():
        pr = prolong(g, p)
        pe = prolong_expanded(g, p)
        for key, val in pe.items():
            assert (pr[key] - val).norm() < 1e-12, (name, key)


def test_determining_equations_hold_on_shell():
    gens = ssg_named_generators(CTX)
    worst = 0.0
    for seed in range(30):
        p = random_jet_point(SSG_SIGNATURE, 3000 + seed, CTX)
        for g in gens.values():
            worst = max(worst, symmetry_residual(g, p).norm())
    assert worst < 1e-12


def test_component_determining_equations_hold_on_shell():
    gens = component_named_generators(CTX)
    worst = 0.0
    for seed in range(30):
        p = random_jet_point(COMPONENT_SIGNATURE, 4000 + seed, CTX)
        for g in gens.values():
            worst = max(worst, max(r.norm() for r in symmetry_residual(g, p)))
    assert worst < 1e-12


@given(
    c1=st.floats(-2, 2),
    c2=st.floats(-2, 2),
    c3=st.floats(-2, 2),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=25, deadline=None)
def test_general_solved_symmetry_family(c1, c2, c3, seed):
    d1 = CTX.gen("mu") * 0.7 + CTX.gen(5) * 0.2
    d2 = CTX.gen("nu") * -1.1
    g = ssg_symmetry_spec(C1=c1, C2=c2, C3=c3, D1=d1, D2=d2, ctx=CTX)
    p = random_jet_point(SSG_SIGNATURE, seed, CTX)
    assert symmetry_residual(g, p).norm() < 1e-11


def test_field_shift_is_not_a_symmetry():
    # Pi = 1 leaves the criterion equal to -cos(Phi), visible in the body
    for seed in range(10):
        p = random_jet_point(SSG_SIGNATURE, 5000 + seed, CTX)
        r = symmetry_residual(ssg_shift_spec(CTX), p)
        q = onshell_substitute(p)
        want = -apply_analytic(COS, q.coordinate("Phi"))
        assert (r - want).norm() < 1e-12
        assert abs(r.body) >= 0.1


def test_component_shift_is_not_a_symmetry():
    for seed in range(10):
        p = random_jet_point(COMPONENT_SIGNATURE, 6000 + seed, CTX)
        r1, _, _ = symmetry_residual(component_shift_spec(CTX), p)
        assert abs(r1.body) >= 0.1


def test_wrong_sign_coefficient_breaks_the_criterion():
    bad = ssg_named_generators(CTX)["L"]
    flipped = dict(bad.coefficients)
    flipped["x"] = CoefficientFn.plain(Parity.EVEN, lambda jets: jets["x"] * 2.0)
    bad = VectorFieldSpec(SSG_SIGNATURE, flipped)
    p = random_jet_point(SSG_SIGNATURE, 77, CTX)
    assert symmetry_residual(bad, p).norm() > 1e-3


def test_residual_is_linear_in_the_field():
    v = ssg_shift_spec(CTX)
    w = ssg_named_generators(CTX)["L"]
    a, b = 0.6, -1.7
    p = random_jet_point(SSG_SIGNATURE, 123, CTX)
    lin = symmetry_residual(combine_specs(a, v, b, w), p)
    sep = symmetry_residual(v, p) * a + symmetry_residual(w, p) * b
    assert (lin - sep).norm() < 1e-12


def test_residual_ignores_base_translation():
    v = ssg_shift_spec(CTX)
    p = random_jet_point(SSG_SIGNATURE, 321, CTX)
    r0 = symmetry_residual(v, p)
    shifted = JetPoint(
        p.sig,
        p.ctx,
        {**p.base, "x": p.base["x"] + 2.5, "t": p.base["t"] - 1.25},
        dict(p.coords),
    )
    assert (symmetry_residual(v, shifted) - r0).norm() < 1e-14


def test_prolonged_coefficient_parities():
    p = random_jet_point(SSG_SIGNATURE, 11, CTX)
    pro = prolong(ssg_named_generators(CTX)["L"], p)
    odd_slots = {("theta1",), ("theta2",), ("t", "theta1"), ("x", "theta2")}
    for (dep, dirs), val in pro.items():
        if val.is_zero():
            continue
        expect = Parity.ODD if tuple(dirs) in odd_slots else Parity.EVEN
        assert val.parity is expect, (dirs, val)


def test_onshell_substitution_is_idempotent():
    for sig, seed in ((SSG_SIGNATURE, 8), (COMPONENT_SIGNATURE, 9)):
        p = random_jet_point(sig, seed, CTX)
        q1 = onshell_substitute(p)
        q2 = onshell_substitute(q1)
        assert all((q1.coords[k] - q2.coords[k]).norm() < 1e-14 for k in q1.coords)


def test_onshell_component_slice_at_flat_field():
    # u = pi with vanishing gradients: the mixed slot becomes 2 phi psi
    p = random_jet_point(COMPONENT_SIGNATURE, 55, CTX)
    import math

    upd = {}
    for dirs, val in (
        ((), CTX.scalar(math.pi)),
        (("x",), CTX.zero()),
        (("t",), CTX.zero()),
    ):
        _, key = coordinate_key(COMPONENT_SIGNATURE, "u", dirs)
        upd[key] = val
    p = p.replace_coords(upd)
    q = onshell_substitute(p)
    got = q.coordinate("u", "x", "t")
    want = p.coordinate("phi") * p.coordinate("psi") * 2.0
    assert (got - want).norm() < 1e-13


def test_missing_coordinate_raises():
    p = random_jet_point(SSG_SIGNATURE, 1, CTX)
    trimmed = dict(p.coords)
    _, key = coordinate_key(SSG_SIGNATURE, "Phi", ("x", "t"))
    del trimmed[key]
    q = JetPoint(p.sig, p.ctx, p.base, trimmed)
    with pytest.raises(IncompleteJetPoint):
        symmetry_residual(ssg_named_generators(CTX)["L"], q)


def test_coefficient_parity_is_enforced():
    with pytest.raises(ValueError):
        VectorFieldSpec(
            SSG_SIGNATURE,
            {
                "x": CoefficientFn.zero(Parity.ODD),
                "t": CoefficientFn.zero(Parity.EVEN),
                "theta1": CoefficientFn.zero(Parity.ODD),
                "theta2": CoefficientFn.zero(Parity.ODD),
                "Phi": CoefficientFn.zero(Parity.EVEN),
            },
        )


def test_repeated_odd_derivative_kills_coordinate():
    p = random_jet_point(SSG_SIGNATURE, 4, CTX)
    assert p.coordinate("Phi", "theta1", "theta1").is_zero()
    sign, key = coordinate_key(SSG_SIGNATURE, "Phi", ("theta2", "theta1"))
    assert sign == -1.0 and key == ("Phi", (0, 0), ("theta1", "theta2"))


def test_component_scaling_acts_on_fermions():
    # the dilation-like component generator rescales phi_t by -3/2 C1 ... frozen
    # against the closed forms: for C1=2, Sigma^t at a point with only phi_t set
    p = random_jet_point(COMPONENT_SIGNATURE, 66, CTX)
    g = component_symmetry_spec(C1=2.0, ctx=CTX)
    pe = prolong_expanded(g, p)
    # Sigma^t = Sigma_phi phi_t - tau_t phi_t = (-1) phi_t - (-2) phi_t = phi_t
    want = p.coordinate("phi", "t")
    assert (pe["phi", ("t",)] - want).norm() < 1e-13


# ------------------------------------------- sparse evaluation of the tables


def _multiply_through(expr, coefvals, p):
    """Every term multiplied through, empty factors included: the reference
    that the sparse ``evaluate_expr`` must match bit for bit."""
    acc = p.ctx.zero()
    for c, fs in expr:
        term = p.ctx.scalar(c)
        for f in fs:
            if isinstance(f, CoordF):
                term = term * p.get((f.dep, f.jeven, f.jodd))
            else:
                term = term * coefvals[f.target].partial(f.derivs)
        acc = acc + term
    return acc


def _all_specs():
    """Every named generator and the shift spec of both pictures."""
    for named, shift in (
        (ssg_named_generators, ssg_shift_spec),
        (component_named_generators, component_shift_spec),
    ):
        yield from dict(named(CTX), shift=shift(CTX)).items()


class ReferenceTable:
    """Prolonged-coefficient expressions with one method per order, as they
    were written before ``prolonged_expr`` applied the recursion once per
    direction; the reference whose terms it must equal."""

    def __init__(self, sig, coef_parity: dict):
        self.sig = sig
        self.coef_parity = coef_parity
        self.exprs: dict = {}

    def first_order(self, dep, a):
        key = (dep, (a,))
        if key not in self.exprs:
            sig = self.sig
            e = total_derivative_expr(sig, self.coef_parity, [(1.0, (FnF(dep, ()),))], a)
            for b, _ in sig.independents:
                dz = total_derivative_expr(sig, self.coef_parity, [(1.0, (FnF(b, ()),))], a)
                sc, ckey = coordinate_key(sig, dep, (b,))
                if ckey is None:
                    continue
                e = expr_sub(e, [(c * sc, fs + (CoordF(*ckey),)) for c, fs in dz])
            self.exprs[key] = collect(e)
        return self.exprs[key]

    def second_order(self, dep, a, b):
        key = (dep, (a, b))
        if key not in self.exprs:
            sig = self.sig
            e = total_derivative_expr(sig, self.coef_parity, self.first_order(dep, a), b)
            for c_, _ in sig.independents:
                dz = total_derivative_expr(sig, self.coef_parity, [(1.0, (FnF(c_, ()),))], b)
                sc, ckey = coordinate_key(sig, dep, (a, c_))
                if ckey is None:
                    continue
                e = expr_sub(e, [(cc * sc, fs + (CoordF(*ckey),)) for cc, fs in dz])
            self.exprs[key] = collect(e)
        return self.exprs[key]

    def slot(self, dep, dirs):
        return self.first_order(dep, *dirs) if len(dirs) == 1 else self.second_order(dep, *dirs)


def _expr(spec, dep, dirs):
    """The unpruned table: ``prolonged_expr`` under no declaration."""
    return prolonged_expr(*_undeclared(spec).table_key, dep, dirs)


def test_recursion_matches_the_per_order_table():
    for name, spec in _all_specs():
        table = ReferenceTable(spec.sig, dict(spec.parity_table()))
        for dep, dirs in prolongation._slots(spec.sig):
            # equal terms in the same order
            assert list(_expr(spec, dep, dirs)) == table.slot(dep, dirs), (name, dep, dirs)
        # the pruned tables are the reference's terms minus the ruled-out ones
        for dep, dirs in prolongation._slots(spec.sig):
            want = [(c, fs) for c, fs in table.slot(dep, dirs)
                    if all(spec.coefficients[f.target].reads is None
                           or spec.coefficients[f.target].reads.issuperset(f.derivs)
                           for f in fs if isinstance(f, FnF))]
            live = prolonged_expr(*spec.table_key, dep, dirs)
            assert list(live) == want, (name, dep, dirs)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_sparse_evaluation_matches_multiplying_through(seed):
    for name, spec in _all_specs():
        p = random_jet_point(spec.sig, seed, CTX)
        for q in (p, onshell_substitute(p)):
            coefvals = evaluate_spec(spec, q)
            for (dep, dirs), got in prolong(spec, q).items():
                expr = _expr(spec, dep, dirs)
                want = list(_multiply_through(expr, coefvals, q).terms.items())
                # same coefficients, bit for bit, in the same order
                assert list(got.terms.items()) == want, (name, dep, dirs)
                assert list(evaluate_expr(expr, coefvals, q).terms.items()) == want


def test_prolongation_product_counts(monkeypatch):
    # deterministic counts gate the hot path, not wall time.  "full" is the
    # exact count of the products whose operands both carry terms (a real
    # when it is nonzero); "all" counts every product, and is pinned on the
    # symmetry samples, which do not run the expanded route
    calls = Counter()
    mul = GrassmannNumber.__mul__

    def carries(x):
        return bool(x.terms) if isinstance(x, GrassmannNumber) else x != 0.0

    def counted(a, b):
        calls["all"] += 1
        calls["full"] += carries(a) and carries(b)
        return mul(a, b)

    monkeypatch.setattr(GrassmannNumber, "__mul__", counted)
    list(checks.prolongation_gaps("superspace")(CTX, 2003, 1))
    assert calls["full"] == 65
    calls.clear()
    list(checks.prolongation_gaps("component")(CTX, 2087, 1))
    assert calls["full"] == 16
    calls.clear()
    list(checks.symmetry_residuals("superspace")(CTX, 3001, 1))
    assert (calls["all"], calls["full"]) == (104, 54)
    calls.clear()
    list(checks.symmetry_residuals("component")(CTX, 3001, 1))
    assert (calls["all"], calls["full"]) == (104, 67)


def test_point_values_are_built_once(monkeypatch):
    # one sample of each picture: the on-shell point and the seed jets are
    # built once per point, not once per generator, and the two routes of a
    # gap share one coefficient evaluation per generator
    calls = Counter()

    def count(name):
        fn = getattr(prolongation, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(prolongation, name, counted)
        return counted

    count("onshell_substitute")
    count("_seed_jets")
    monkeypatch.setattr(checks, "evaluate_spec", count("evaluate_spec"))
    for picture, named in (("superspace", ssg_named_generators),
                           ("component", component_named_generators)):
        calls.clear()
        list(checks.symmetry_residuals(picture)(CTX, 3001, 1))
        assert calls["onshell_substitute"] == calls["_seed_jets"] == 1
        calls.clear()
        list(checks.prolongation_gaps(picture)(CTX, 2003, 1))
        assert calls == {"evaluate_spec": len(named(CTX)), "_seed_jets": 1}


def test_prolongation_suite_soul_taylor_series(monkeypatch, capsys):
    # every soul-Taylor series runs soul_derivs.  The factors of the symmetry
    # criterion that no generator enters are built once per point, so the
    # suite runs 1,040 series; building them per generator ran 2,240
    calls = 0
    series = grassmann.soul_derivs

    def counted(*args):
        nonlocal calls
        calls += 1
        return series(*args)

    monkeypatch.setattr(grassmann, "soul_derivs", counted)
    assert main(["verify", "--suite", "prolongation", "--seed", "0"]) == 0
    capsys.readouterr()
    assert calls == 1040


def test_points_are_read_only():
    p = random_jet_point(SSG_SIGNATURE, 1, CTX)
    _, key = coordinate_key(SSG_SIGNATURE, "Phi", ())
    with pytest.raises(TypeError):
        p.coords[key] = CTX.zero()
    with pytest.raises(TypeError):
        p.base["x"] = CTX.zero()
    # a point keeps its own copy of the mappings it is built from
    coords = dict(p.coords)
    q = JetPoint(p.sig, p.ctx, p.base, coords)
    coords[key] = CTX.zero()
    assert q.get(key) is p.get(key)


def test_seed_jet_specs_are_built_once_per_shape(monkeypatch):
    # one prolongation_gaps sample of each picture: with a cold spec cache
    # the seed jets' shape and the order-1 shape of their partials are each
    # built once, with a warm one none is
    built = []
    init = JetSpec.__init__

    def counted(spec, seeds, order=2):
        built.append((seeds, order))
        init(spec, seeds, order)

    monkeypatch.setattr(JetSpec, "__init__", counted)
    jet_spec.cache_clear()
    for picture, base, seeds in (("superspace", 2003, ("x", "t", "Phi")),
                                 ("component", 2087, ("x", "t", "u"))):
        list(checks.prolongation_gaps(picture)(CTX, base, 1))
        assert sorted(built) == [(seeds, 1), (seeds, 2)]
        built.clear()
        list(checks.prolongation_gaps(picture)(CTX, base, 1))
        assert built == []


def test_expanded_route_returns_plain_numbers():
    for sig in (SSG_SIGNATURE, COMPONENT_SIGNATURE):
        zero = VectorFieldSpec(sig, {n: CoefficientFn.zero(sig.parity_of(n))
                                     for n, _ in sig.independents + sig.dependents})
        values = prolong_expanded(zero, random_jet_point(sig, 11, CTX))
        assert values and all(type(v) is GrassmannNumber and not v.terms
                              for v in values.values())


class _General:
    """A supernumber whose sums and products take the general loops, with
    no empty operand answered on its own."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def __add__(self, other):
        return _General(general_sum(self.terms, other.terms, operator.add))

    def __sub__(self, other):
        return _General(general_sum(self.terms, other.terms, operator.sub))

    def __mul__(self, other):
        return _General(general_product(self.terms, other.terms))

    def __rmul__(self, real):
        return _General(general_product(self.terms, CTX.scalar(real).terms))


def _general_expanded(spec, p):
    """The expanded formulas over ``_General`` partials and coordinates."""
    coefvals = evaluate_spec(spec, p)

    def f(target, *dirs):
        return _General(coefvals[target].partial(dirs).terms)

    def c(dep, *dirs):
        return _General(p.coordinate(dep, *dirs).terms)

    expanded = prolongation._ssg_expanded if p.sig.odd_independents else (
        prolongation._component_expanded)
    return expanded(f, c)


def test_expanded_route_keeps_the_bits_of_the_general_operations():
    for sig, named in ((SSG_SIGNATURE, ssg_named_generators),
                       (COMPONENT_SIGNATURE, component_named_generators)):
        for seed in range(20):
            p = random_jet_point(sig, 4000 + seed, CTX)
            points = (p, _nan_phi_x(p)) if sig is SSG_SIGNATURE and seed < 5 else (p,)
            for q in points:
                for name, spec in named(CTX).items():
                    got = prolong_expanded(spec, q)
                    want = _general_expanded(spec, q)
                    assert ([(slot, bits(v.terms)) for slot, v in got.items()]
                            == [(slot, bits(v.terms)) for slot, v in want.items()]), (name, seed)


def _undeclared(spec):
    """The spec with every declaration dropped: each coefficient reads all."""
    return VectorFieldSpec(
        spec.sig, {n: CoefficientFn(c.parity, c.sectors, None) for n, c in spec.coefficients.items()}
    )


def test_coefficient_partials_extend_their_prefix(monkeypatch):
    # a partial along (a, b) extends the cached sector state of (a,), so
    # one prolongation of undeclared L makes exactly this many jet partials;
    # declared, L answers every partial but d/dx xi and d/dt tau at once
    calls = 0
    partial = prolongation.jet_partial

    def counted(j, seed):
        nonlocal calls
        calls += 1
        return partial(j, seed)

    monkeypatch.setattr(prolongation, "jet_partial", counted)
    L = ssg_named_generators(CTX)["L"]
    p = random_jet_point(SSG_SIGNATURE, 31, CTX)
    prolong(_undeclared(L), p)
    assert calls == 36
    calls = 0
    prolong(L, p)
    assert calls == 2


def test_declared_tables_visit_only_live_terms(monkeypatch):
    # one prolongation of L hands evaluate_expr exactly this many table
    # terms (196 with the undeclared tables)
    visited = 0
    evaluate = prolongation.evaluate_expr

    def counted(expr, coefvals, p):
        nonlocal visited
        visited += len(expr)
        return evaluate(expr, coefvals, p)

    monkeypatch.setattr(prolongation, "evaluate_expr", counted)
    L = ssg_named_generators(CTX)["L"]
    p = random_jet_point(SSG_SIGNATURE, 31, CTX)
    prolong(_undeclared(L), p)
    assert visited == 196
    visited = 0
    prolong(L, p)
    assert visited == 18


def _criterion_from_every_slot(v, p):
    """The symmetry criterion as written over ``prolong``'s every slot."""
    q = p.onshell
    coefvals = evaluate_spec(v, q)
    pro = prolong(v, q, coefvals)
    if v.sig.odd_independents:
        th1 = q.base_value("theta1")
        th2 = q.base_value("theta2")
        a, b, cosP, th12 = q.criterion_values
        rho = coefvals["theta1"].partial(())
        sig_ = coefvals["theta2"].partial(())
        Pi = coefvals["Phi"].partial(())
        return (
            rho * a
            - sig_ * b
            - Pi * cosP
            + pro["Phi", ("x", "t")] * th12
            + pro["Phi", ("t", "theta1")] * th2
            - pro["Phi", ("x", "theta2")] * th1
            - pro["Phi", ("theta1", "theta2")]
        )
    phi, psi = q.coordinate("phi"), q.coordinate("psi")
    w, sh2, shm2, sh, ch = q.criterion_values
    U = coefvals["u"].partial(())
    S = coefvals["phi"].partial(())
    Ps = coefvals["psi"].partial(())
    r1 = pro["u", ("x", "t")] - (U * w + S * sh2 * psi + Ps * shm2 * phi)
    r2 = pro["phi", ("t",)] - (U * 0.5 * sh * psi - Ps * ch)
    r3 = pro["psi", ("x",)] - (U * -0.5 * sh * phi + S * ch)
    return r1, r2, r3


def _criterion_specs():
    """Every named generator and both shift specs of each picture."""
    for sig, named, shift in ((SSG_SIGNATURE, ssg_named_generators, ssg_shift_spec),
                              (COMPONENT_SIGNATURE, component_named_generators,
                               component_shift_spec)):
        yield from ((sig, name, spec) for name, spec in named(CTX).items())
        yield sig, "shift", shift(CTX)


def test_criterion_over_its_slots_keeps_every_bit():
    # reading only the slots the criterion contains gives the bits of the
    # criterion over every slot, off shell and on shell
    for sig, name, spec in _criterion_specs():
        for seed in range(12):
            p = random_jet_point(sig, 6100 + seed, CTX)
            for q in (p, p.onshell):
                got = symmetry_residual(spec, q)
                want = _criterion_from_every_slot(spec, q)
                got, want = (got, want) if isinstance(got, tuple) else ((got,), (want,))
                assert [bits(r.terms) for r in got] == [bits(r.terms) for r in want], (name, seed)


def test_criterion_evaluates_only_its_slots(monkeypatch):
    # the criterion hands evaluate_expr the tables of the 4 superspace or 3
    # component slots it reads, each once, and no other table
    seen = []
    evaluate = prolongation.evaluate_expr

    def counted(expr, coefvals, p):
        seen.append(expr)
        return evaluate(expr, coefvals, p)

    monkeypatch.setattr(prolongation, "evaluate_expr", counted)
    for spec, sig, slots in (
        (ssg_named_generators(CTX)["L"], SSG_SIGNATURE,
         [("Phi", ("x", "t")), ("Phi", ("t", "theta1")), ("Phi", ("x", "theta2")),
          ("Phi", ("theta1", "theta2"))]),
        (component_named_generators(CTX)["D"], COMPONENT_SIGNATURE,
         [("u", ("x", "t")), ("phi", ("t",)), ("psi", ("x",))]),
    ):
        seen.clear()
        symmetry_residual(spec, random_jet_point(sig, 31, CTX))
        assert len(prolongation._slots(sig)) > len(slots)
        assert [id(e) for e in seen] == [id(prolonged_expr(*spec.table_key, *slot))
                                         for slot in slots]


def test_component_gap_evaluates_only_the_compared_slots(monkeypatch):
    # the component check compares phi_t and psi_x alone, so the recursion
    # evaluates just those two tables per generator and point: 360 tables
    # over its 60 points at seed 1, where all seven slots made 1,260
    seen = []
    evaluate = prolongation.evaluate_expr

    def counted(expr, coefvals, p):
        seen.append(id(expr))
        return evaluate(expr, coefvals, p)

    monkeypatch.setattr(prolongation, "evaluate_expr", counted)
    residuals = checks.prolongation_gaps("component")(CTX, 2087, 60)
    assert worst_count(residuals) == (0.0, 180)
    assert len(seen) == 360
    compared = {id(prolonged_expr(*spec.table_key, *slot))
                for spec in component_named_generators(CTX).values()
                for slot in (("phi", ("t",)), ("psi", ("x",)))}
    assert set(seen) == compared


def test_prolongation_suite_reports_alike_from_three_threads(tmp_path, capsys):
    # from cold memos, three workers at once write the serial run's report
    assert_reports_alike_from_three_threads("prolongation", tmp_path)
    capsys.readouterr()


def _random_jet_point_reference(sig, rng_seed, ctx):
    """The base values and coordinates of ``random_jet_point``, each value
    formed through general products and sums of generators."""
    rng = random.Random(rng_seed)
    reserved = {ctx.roles["theta1"], ctx.roles["theta2"]}
    free = [i for i in range(ctx.generator_count) if i not in reserved]

    def even_value():
        v = ctx.scalar(rng.uniform(-1.2, 1.2))
        for _ in range(2):
            i, j = rng.sample(free, 2)
            v = v + ctx.gen(i) * ctx.gen(j) * rng.uniform(-0.5, 0.5)
        return v

    def odd_value():
        v = ctx.gen(rng.choice(free)) * rng.uniform(-1.0, 1.0)
        i, j, k = rng.sample(free, 3)
        return v + ctx.gen(i) * ctx.gen(j) * ctx.gen(k) * rng.uniform(-0.5, 0.5)

    base = {name: ctx.scalar(rng.uniform(-1.5, 1.5)) for name in sig.even_independents}
    base.update({name: ctx.gen(name) for name in sig.odd_independents})
    coords = {}
    for key in all_coordinate_keys(sig):
        dep, _, jodd = key
        even = sig.coordinate_parity(dep, jodd) is Parity.EVEN
        coords[key] = even_value() if even else odd_value()
    return base, coords


@pytest.mark.parametrize("ngen", [8, 32])
def test_sampled_points_keep_the_general_product_bits(ngen):
    ctx = CTX if ngen == 8 else AlgebraContext(ngen)

    def terms(values):
        return [(k, bits(v.terms)) for k, v in values.items()]

    for sig in (SSG_SIGNATURE, COMPONENT_SIGNATURE):
        for seed in range(200):
            p = random_jet_point(sig, seed, ctx)
            base, coords = _random_jet_point_reference(sig, seed, ctx)
            assert terms(p.coords) == terms(coords), (sig, seed)
            assert terms(p.base) == terms(base), (sig, seed)


def test_seed_jets_are_built_once_per_point(monkeypatch):
    # x, t and the even dependent: three seed jets per point, not three per
    # coefficient
    calls = 0
    variable = prolongation.jet_variable

    def counted(*args):
        nonlocal calls
        calls += 1
        return variable(*args)

    monkeypatch.setattr(prolongation, "jet_variable", counted)
    for spec, sig in ((ssg_named_generators(CTX)["L"], SSG_SIGNATURE),
                      (component_named_generators(CTX)["D"], COMPONENT_SIGNATURE)):
        calls = 0
        evaluate_spec(spec, random_jet_point(sig, 7, CTX))
        assert calls == 3


# ------------------------------------------------- declared dependencies


def _ruled_out(spec):
    """(target, dirs) of every partial the declarations of ``spec`` rule
    out: each one- and two-fold partial with an undeclared direction, which
    covers every query of ``prolong_expanded`` and of the realized
    brackets, and every coefficient-function factor that the declarations
    prune from the tables."""
    sig = spec.sig
    names = [n for n, _ in sig.independents + sig.dependents]
    out = set()
    for target, c in spec.coefficients.items():
        if c.reads is not None:
            for k in (1, 2):
                out.update((target, d) for d in product(names, repeat=k)
                           if not c.reads.issuperset(d))
    for dep, dirs in prolongation._slots(sig):
        for f in (f for _, fs in _expr(spec, dep, dirs) for f in fs if isinstance(f, FnF)):
            reads = spec.coefficients[f.target].reads
            if reads is not None and not reads.issuperset(f.derivs):
                out.add((f.target, f.derivs))
    return sorted(out)


def _declaration_violations(spec, p):
    """The ruled-out partials that are not the empty number at ``p``,
    computed on the undeclared copy of the spec."""
    coefvals = evaluate_spec(_undeclared(spec), p)
    return [(t, d) for t, d in _ruled_out(spec) if coefvals[t].partial(d).terms]


def _terms(pro):
    return [(slot, list(v.terms.items())) for slot, v in pro.items()]


# even weights: reals, and bodies with a soul in the free or the theta generators
_WEIGHTS = st.one_of(
    st.floats(-2, 2),
    st.builds(lambda a, b, pair: CTX.scalar(a) + CTX.gen(pair[0]) * CTX.gen(pair[1]) * b,
              st.floats(-2, 2), st.floats(-2, 2),
              st.sampled_from([("mu", "nu"), ("theta1", "theta2")])),
)


@given(seed=st.integers(min_value=0, max_value=10**6), data=st.data())
@settings(max_examples=20, deadline=None)
def test_declarations_only_rule_out_empty_partials(seed, data):
    specs = [spec for _, spec in _all_specs()]
    for sig in (SSG_SIGNATURE, COMPONENT_SIGNATURE):
        pool = [s for s in specs if s.sig is sig]
        v, w = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        specs.append(combine_specs(data.draw(_WEIGHTS), v, data.draw(_WEIGHTS), w))
    # constants may carry theta generators, which widens the declarations
    th1, th2, mu = CTX.gen("theta1"), CTX.gen("theta2"), CTX.gen("mu")
    c1, c2 = data.draw(st.floats(-2, 2)), data.draw(st.sampled_from([0.0, 1.0]))
    d1 = mu * data.draw(st.floats(-2, 2)) + th2 * data.draw(st.sampled_from([0.0, 0.5]))
    specs.append(ssg_symmetry_spec(C1=c1, C2=th1 * th2 * c2, D1=d1, ctx=CTX))
    for spec in specs:
        p = random_jet_point(spec.sig, seed, CTX)
        bare = _undeclared(spec)
        for q in (p, onshell_substitute(p)):
            assert _declaration_violations(spec, q) == []
            assert _terms(prolong(spec, q)) == _terms(prolong(bare, q))
            assert _terms(prolong_expanded(spec, q)) == _terms(prolong_expanded(bare, q))


def test_signature_refuses_a_repeated_name():
    EVEN, ODD = Parity.EVEN, Parity.ODD
    for independents, dependents in (
        ((("x", EVEN), ("x", EVEN)), (("u", EVEN),)),
        ((("x", EVEN), ("t", EVEN)), (("u", EVEN), ("x", ODD))),
        ((("x", EVEN),), (("u", EVEN), ("u", EVEN))),
    ):
        with pytest.raises(ValueError, match="must be distinct"):
            ProblemSignature(independents, dependents)


def test_equal_signatures_hash_alike():
    # the expression and layout caches key on a signature
    for sig in (SSG_SIGNATURE, COMPONENT_SIGNATURE):
        twin = ProblemSignature(sig.independents, sig.dependents)
        assert twin == sig and hash(twin) == hash(sig)
        assert ProblemSignature(sig.independents, sig.dependents, 3) != sig
        assert sig != (sig.independents, sig.dependents, sig.order)
        assert twin.odd_dependents == sig.odd_dependents
    assert SSG_SIGNATURE != COMPONENT_SIGNATURE


def test_vector_field_refuses_a_bad_sector_or_parity():
    sig = COMPONENT_SIGNATURE
    zero = {n: CoefficientFn.zero(sig.parity_of(n)) for n, _ in sig.independents + sig.dependents}
    for name, coef, match in (  # the spec refuses a sector before any builder runs
        ("u", CoefficientFn(Parity.EVEN, {("psi", "phi"): None}), "canonical order"),
        ("u", CoefficientFn(Parity.EVEN, {("u",): None}), "only list odd dependents"),
        ("phi", CoefficientFn.zero(Parity.EVEN), "must be"),
        ("x", CoefficientFn.zero(Parity.ODD), "must be"),
    ):
        with pytest.raises(ValueError, match=match):
            VectorFieldSpec(sig, {**zero, name: coef})
    assert VectorFieldSpec(sig, zero).coefficients == zero


def test_declared_reads_are_kept_as_a_frozenset():
    for reads in (["x", "t", "x"], ("t", "x"), {"x", "t"}):
        for coef in (CoefficientFn(Parity.EVEN, {}, reads),
                     CoefficientFn.plain(Parity.EVEN, None, reads)):
            assert type(coef.reads) is frozenset and coef.reads == {"x", "t"}
    assert CoefficientFn(Parity.EVEN, {}).reads is None


def test_declared_reads_must_name_variables():
    L = ssg_named_generators(CTX)["L"]
    coefficients = dict(L.coefficients)
    xi = coefficients["x"]
    coefficients["x"] = CoefficientFn(xi.parity, xi.sectors, frozenset({"theta"}))
    with pytest.raises(ValueError):
        VectorFieldSpec(SSG_SIGNATURE, coefficients)


def test_too_narrow_declaration_fails_the_audit():
    # xi of L is -2x; declaring that it reads only t hides d/dx xi = -2
    L = ssg_named_generators(CTX)["L"]
    coefficients = dict(L.coefficients)
    xi = coefficients["x"]
    coefficients["x"] = CoefficientFn(xi.parity, xi.sectors, frozenset({"t"}))
    narrow = VectorFieldSpec(SSG_SIGNATURE, coefficients)
    p = random_jet_point(SSG_SIGNATURE, 31, CTX)
    assert ("x", ("x",)) in _declaration_violations(narrow, p)
    assert _terms(prolong(narrow, p)) != _terms(prolong(L, p))


def _nan_phi_x(p):
    """The point with a NaN body in its Phi_x coordinate, soul kept."""
    _, key = coordinate_key(p.sig, "Phi", ("x",))
    assert key == ("Phi", (1, 0), ())
    v = p.get(key)
    return p.replace_coords({key: v - v.body + math.nan})


def test_nan_coordinate_is_not_skipped(monkeypatch):
    # the skip drops only terms with an empty factor, which the full
    # product would drop too; a NaN in a live factor still reaches the report
    p = _nan_phi_x(random_jet_point(SSG_SIGNATURE, 5, CTX))
    assert math.isnan(prolong(ssg_named_generators(CTX)["L"], p)["Phi", ("x",)].norm())
    monkeypatch.setattr(
        checks, "random_jet_point", lambda *a, **kw: _nan_phi_x(random_jet_point(*a, **kw))
    )
    [spec] = [s for s in checks.REGISTRY["prolongation"] if s.name == "recursive_vs_expanded"]
    [(rec, note)] = _run_checks([spec], RunConfig())
    assert rec.status == "fail" and math.isnan(rec.max_residual) and note is None
