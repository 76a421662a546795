"""Jet layer: Leibniz products, partials, analytic composition."""

import math
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from susygordon import checks, superfield
from susygordon.analytic import COS, EXP, SIN, TANH, TaylorFn, TrigPoly
from susygordon.grassmann import DEFAULT_CONTEXT as CTX
from susygordon.grassmann import GrassmannNumber, ParityError, scalar
from susygordon.superjet import (
    JetSpec,
    SuperJet,
    _check_same,
    jet_add,
    jet_apply_analytic,
    jet_constant,
    jet_multiply,
    jet_partial,
    jet_scale,
    jet_spec,
    jet_variable,
)

from susygordon.superfield import random_superfield

from helpers import LOG, bits, sample_random

NG = 8
XT = JetSpec(("x", "t"), order=2)


def sc(v):
    return scalar(v, NG)


def jet_from_derivs(spec: JetSpec, comp: dict) -> SuperJet:
    """Wrap a raw {multi-index: GrassmannNumber} table as a jet."""
    ng = None
    for v in comp.values():
        ng = v.ngen
        break
    if ng is None:
        raise ValueError("empty component table")
    clean = {}
    for J, v in comp.items():
        J = tuple(J)
        if len(J) != len(spec.seeds) or sum(J) > spec.order or min(J) < 0:
            raise ValueError(f"bad multi-index {J} for {spec}")
        clean[J] = v
    return SuperJet(spec, ng, clean)


def jet_isclose(a: SuperJet, b: SuperJet, tol: float = 1e-12) -> bool:
    _check_same(a, b)
    keys = set(a.comp) | set(b.comp)
    return all((a.get(J) - b.get(J)).norm() <= tol for J in keys)


def test_square_of_coordinate():
    j = jet_variable(JetSpec(("x",), 2), "x", sc(3.0))
    sq = jet_multiply(j, j)
    assert sq.get((0,)).body == 9.0
    assert sq.get((1,)).body == 6.0
    assert sq.get((2,)).body == 2.0


def test_two_variable_product_against_calculus():
    # f = sin(x) cos(t) + x t^2 at (x0, t0), all raw partials to order 2
    x0, t0 = 0.7, -0.4
    jx = jet_variable(XT, "x", sc(x0))
    jt = jet_variable(XT, "t", sc(t0))
    f = jet_apply_analytic(jx, SIN) * jet_apply_analytic(jt, COS) + jx * (jt * jt)
    sx, cx = math.sin(x0), math.cos(x0)
    stt, ct = math.sin(t0), math.cos(t0)
    expect = {
        (0, 0): sx * ct + x0 * t0**2,
        (1, 0): cx * ct + t0**2,
        (0, 1): -sx * stt + 2 * x0 * t0,
        (2, 0): -sx * ct,
        (1, 1): -cx * stt + 2 * t0,
        (0, 2): -sx * ct + 2 * x0,
    }
    for J, v in expect.items():
        got = f.get(J).body
        assert abs(got - v) < 1e-12, f"component {J}: {got} vs {v}"


def test_mixed_partial_against_finite_differences():
    def f(x, t):
        return math.exp(0.3 * x) * math.sin(x * t) + t**3

    def build(x0, t0):
        jx = jet_variable(XT, "x", sc(x0))
        jt = jet_variable(XT, "t", sc(t0))
        return jet_apply_analytic(jet_scale(jx, 0.3), EXP) * jet_apply_analytic(
            jx * jt, SIN
        ) + jt * jt * jt

    x0, t0 = 1.1, 0.6
    jet = build(x0, t0)
    h = 1e-4
    fd_xt = (f(x0 + h, t0 + h) - f(x0 + h, t0 - h) - f(x0 - h, t0 + h) + f(x0 - h, t0 - h)) / (
        4 * h * h
    )
    assert abs(jet.get((1, 1)).body - fd_xt) < 1e-6
    fd_x = (f(x0 + h, t0) - f(x0 - h, t0)) / (2 * h)
    assert abs(jet.get((1, 0)).body - fd_x) < 1e-7


def test_soul_carrying_composition():
    # sin(alpha + e*beta) = sin(alpha) + e*beta*cos(alpha) when e*e = 0,
    # and the same must hold slotwise for every sigma-derivative
    e = CTX.gen(1) * CTX.gen(2)
    alpha = TrigPoly(waves=[(1.2, 0.9, 0.2)], poly=[0.4])
    beta = TrigPoly(waves=[(0.7, 1.4, -0.5)])
    s0 = 0.8
    spec = JetSpec(("s",), 3)
    da, db = alpha.derivs(s0, 3), beta.derivs(s0, 3)
    F = jet_from_derivs(spec, {(k,): sc(da[k]) + e * sc(db[k]) for k in range(4)})
    sF = jet_apply_analytic(F, SIN)
    sin_a = TaylorFn(lambda s: (s * 0.9 + 0.2).apply(SIN) * 1.2 + 0.4).derivs(s0, 3)
    # expected body: sin(alpha); expected e-part: beta*cos(alpha)
    body_expect = TaylorFn(
        lambda s: ((s * 0.9 + 0.2).apply(SIN) * 1.2 + 0.4).apply(SIN)
    ).derivs(s0, 3)
    soul_expect = TaylorFn(
        lambda s: ((s * 1.4 - 0.5).apply(SIN) * 0.7)
        * ((s * 0.9 + 0.2).apply(SIN) * 1.2 + 0.4).apply(COS)
    ).derivs(s0, 3)
    for k in range(4):
        comp = sF.get((k,))
        assert abs(comp.body - body_expect[k]) < 1e-10
        soul = comp - sc(comp.body)
        diff = soul - e * sc(soul_expect[k])
        assert diff.norm() < 1e-10, f"slot {k}: {diff}"
    assert len(sin_a) == 4  # silence the otherwise-unused route


def test_exp_log_round_trip():
    spec = JetSpec(("x",), 3)
    e = CTX.gen(1) * CTX.gen(2)
    j = jet_from_derivs(
        spec,
        {
            (0,): sc(2.0) + e * sc(0.3),
            (1,): sc(-0.4) + e * sc(1.1),
            (2,): sc(0.9),
            (3,): sc(0.2) + e * sc(-0.7),
        },
    )
    back = jet_apply_analytic(jet_apply_analytic(j, LOG), EXP)
    assert jet_isclose(back, j, 1e-10)


def test_order_three_chain_rule():
    tp = TrigPoly(waves=[(0.8, 1.3, 0.4), (0.3, 2.1, -1.0)], poly=[0.2, 0.5])
    x0 = 0.35
    spec = JetSpec(("x",), 3)
    inner = jet_from_derivs(spec, {(k,): sc(v) for k, v in enumerate(tp.derivs(x0, 3))})
    outer = jet_apply_analytic(inner, SIN)
    ref = TaylorFn(
        lambda s: (
            (s * 1.3 + 0.4).apply(SIN) * 0.8
            + (s * 2.1 - 1.0).apply(SIN) * 0.3
            + s * 0.5
            + 0.2
        ).apply(SIN)
    ).derivs(x0, 3)
    for k in range(4):
        assert abs(outer.get((k,)).body - ref[k]) < 1e-11


def test_partial_and_truncation():
    jx = jet_variable(XT, "x", sc(2.0))
    jt = jet_variable(XT, "t", sc(5.0))
    f = jx * jx * jt  # x^2 t
    fx = jet_partial(f, "x")  # 2 x t
    assert fx.spec.order == 1
    assert fx.get((0, 0)).body == 20.0
    assert fx.get((1, 0)).body == 10.0
    assert fx.get((0, 1)).body == 4.0
    with pytest.raises(KeyError):
        f.d("y")


def rand_jet(spec, rng_seed, parity=None):
    rng = random.Random(rng_seed)
    comp = {}
    for J in spec.indices():
        if parity is None:
            v = sample_random("even", 4, rng.randrange(10**6), NG) + sample_random(
                "odd", 3, rng.randrange(10**6), NG
            )
        else:
            v = sample_random(parity, 4, rng.randrange(10**6), NG)
        comp[J] = v
    return jet_from_derivs(spec, comp)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_product_rule(sa, sb):
    f = rand_jet(XT, sa)
    g = rand_jet(XT, sb)
    lhs = jet_partial(jet_multiply(f, g), "x")
    spec1 = JetSpec(XT.seeds, 1)
    trunc = lambda j: SuperJet(spec1, NG, {J: v for J, v in j.comp.items() if sum(J) <= 1})
    rhs = jet_add(
        jet_multiply(jet_partial(f, "x"), trunc(g)),
        jet_multiply(trunc(f), jet_partial(g, "x")),
    )
    assert jet_isclose(lhs, rhs, 1e-9)


def test_odd_times_odd_jets():
    th1, th2 = CTX.gen(1), CTX.gen(2)
    spec = JetSpec(("x",), 1)
    a = jet_from_derivs(spec, {(0,): th1 * sc(2.0), (1,): th1 * sc(-1.0)})
    b = jet_from_derivs(spec, {(0,): th1 * sc(3.0), (1,): th2})
    sq = jet_multiply(a, a)
    assert all(v.is_zero() for v in sq.comp.values())
    ab = jet_multiply(a, b)
    assert ab.get((0, )).is_zero()
    assert (ab.get((1,)) - (th1 * th2 * sc(2.0) + (-th1) * th1 * sc(3.0))).norm() < 1e-15


def test_left_vs_right_scale():
    th1, th2 = CTX.gen(1), CTX.gen(2)
    spec = JetSpec(("x",), 0)
    a = jet_from_derivs(spec, {(0,): th2})
    left = jet_scale(a, th1, from_left=True)
    right = jet_scale(a, th1)
    assert (left.get((0,)) - th1 * th2).norm() == 0.0
    assert (right.get((0,)) + th1 * th2).norm() == 0.0


def test_apply_rejects_odd_jet():
    spec = JetSpec(("x",), 1)
    a = jet_from_derivs(spec, {(0,): CTX.gen(1)})
    with pytest.raises(ParityError):
        jet_apply_analytic(a, SIN)


def test_constant_jet():
    c = jet_constant(XT, sc(4.0))
    assert c.value().body == 4.0
    assert c.d("x").is_zero()
    j = jet_variable(XT, "t", sc(1.5))
    assert (c * j).d("t").body == 4.0


# ------------------------------- planned composition and product: references


def _partitions_reference(items):
    if not items:
        yield []
        return
    head, tail = items[0], items[1:]
    for rest in _partitions_reference(tail):
        for i in range(len(rest)):
            yield [rest[j] + ([head] if j == i else []) for j in range(len(rest))]
        yield [[head]] + rest


def _apply_reference(a, fn):
    """Every Faa di Bruno term multiplied through, absent components
    included, from the soul series of the base: the reference that the
    planned ``jet_apply_analytic`` must match bit for bit."""
    base = a.comp.get((0,) * len(a.spec.seeds), sc(0.0))
    s = base.soul()
    powers = [sc(1.0)]
    while not (p := powers[-1] * s).is_zero():
        powers.append(p)
    ds = fn.derivs(base.body, a.spec.order + len(powers) - 1)
    fs = []
    for k in range(a.spec.order + 1):
        acc = sc(0.0)
        for j, pw in enumerate(powers):
            acc = acc + pw * (ds[k + j] / math.factorial(j))
        fs.append(acc)
    comp = {(0,) * len(a.spec.seeds): fs[0]}
    for J in a.spec.indices():
        d = sum(J)
        if d == 0:
            continue
        positions = [ax for ax, cnt in enumerate(J) for _ in range(cnt)]
        acc = sc(0.0)
        for part in _partitions_reference(list(range(d))):
            term = fs[len(part)]
            for block in part:
                K = [0] * len(a.spec.seeds)
                for pos in block:
                    K[positions[pos]] += 1
                term = term * a.comp.get(tuple(K), sc(0.0))
            acc = acc + term
        comp[J] = acc
    return SuperJet(a.spec, NG, comp)


def _multiply_reference(a, b):
    comp = {}
    for I, av in a.comp.items():
        for K, bv in b.comp.items():
            J = tuple(i + k for i, k in zip(I, K))
            if sum(J) > a.spec.order:
                continue
            term = av * bv
            w = 1.0
            for j, i in zip(J, I):
                w *= math.comb(j, i)
            term = term * w if w != 1.0 else term
            comp[J] = comp[J] + term if J in comp else term
    return SuperJet(a.spec, NG, comp)


def _exact(f, *args):
    """Components and coefficients in their stored order, any NaN as one
    token, or the error raised (``math.sin(inf)`` is a ``ValueError``)."""
    try:
        jet = f(*args)
    except ValueError as e:
        return repr(e)
    return [
        (J, [(m, c if c == c else "nan") for m, c in v.terms.items()])
        for J, v in jet.comp.items()
    ]


# ordinary bodies plus -0.0, subnormals and pairs whose products underflow
_BODIES = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.5e-310, 1e-160, -3e-170]),
)


@st.composite
def _even_jet_pair(draw, kind):
    """Two jets over one spec.  Every kind but ``soul`` holds body-only
    supernumbers, the components of a soul-free point, drawn from the
    bodies above: -0.0 and subnormals included."""
    spec = JetSpec(("x", "t", "y")[: draw(st.integers(1, 3))], draw(st.integers(0, 3)))

    def one():
        bodies = {}
        for J in spec.indices():
            if kind == "missing" and draw(st.booleans()):
                continue
            bodies[J] = draw(_BODIES)
        if kind == "nonfinite":
            J = draw(st.sampled_from(list(spec.indices())))
            bodies[J] = bodies[J] + draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        comp = {J: sc(v) for J, v in bodies.items()}
        if kind == "soul":
            for J in comp:
                if draw(st.booleans()):
                    comp[J] = comp[J] + sample_random("even", 4, draw(st.integers(0, 10**6)), NG)
        return SuperJet(spec, NG, comp)

    return one(), one()


@pytest.mark.parametrize("kind", ["real", "soul", "missing", "nonfinite"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_planned_jets_match_multiplying_through(kind, data):
    a, b = data.draw(_even_jet_pair(kind))
    fn = data.draw(st.sampled_from([SIN, COS, EXP, TANH]))
    assert _exact(jet_apply_analytic, a, fn) == _exact(_apply_reference, a, fn)
    assert _exact(jet_multiply, a, b) == _exact(_multiply_reference, a, b)


def _scale_reference(a, c, from_left):
    """``jet_scale`` by a supernumber through one product per component."""
    if from_left:
        return SuperJet(a.spec, a.ngen, {J: c * v for J, v in a.comp.items()})
    return SuperJet(a.spec, a.ngen, {J: v * c for J, v in a.comp.items()})


@pytest.mark.parametrize("kind", ["real", "soul", "missing", "nonfinite"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scaling_by_an_empty_supernumber_gives_the_general_bits(kind, data):
    # the empty jet at once, whatever the components: NaN, inf and -0.0
    # included
    a, _ = data.draw(_even_jet_pair(kind))
    zero = GrassmannNumber(NG)
    for left in (False, True):
        got, want = jet_scale(a, zero, left), _scale_reference(a, zero, left)
        assert _exact(lambda: got) == _exact(lambda: want) == []
    assert _exact(lambda: a * zero) == _exact(lambda: zero * a) == []


def test_scaling_by_a_float_zero_keeps_the_general_path():
    # the algebra's product rule: a supernumber times 0.0 is empty, so even
    # an inf body scales to the empty jet
    jet = SuperJet(XT, NG, {(0, 0): sc(math.inf), (1, 0): sc(2.0)})
    for zero in (0.0, -0.0):
        for left in (False, True):
            assert jet_scale(jet, zero, left).comp == {}
        assert (jet * zero).comp == (zero * jet).comp == {}
    assert jet_scale(jet, GrassmannNumber(NG)).comp == {}


GRASSMANN_OPS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__")


def _count_grassmann_arithmetic(monkeypatch) -> Counter:
    """Count every Grassmann product and sum from here on, by operator."""
    counts = Counter()
    for name in GRASSMANN_OPS:
        def counted(a, b, _name=name, _op=getattr(GrassmannNumber, name)):
            counts[_name] += 1
            return _op(a, b)

        monkeypatch.setattr(GrassmannNumber, name, counted)
    return counts


def test_random_superfield_jet_makes_no_grassmann_arithmetic(monkeypatch):
    # at a soul-free point the profile products are floats, and each
    # component is assembled as a term map from the float terms of its
    # monomials: the one supernumber of a component is made from its
    # finished map
    f = random_superfield(900, CTX)
    counts = _count_grassmann_arithmetic(monkeypatch)
    for x, t in ((0.3, -0.7), (CTX.scalar(1.1), -0.0)):
        jet = superfield.superfield_jet(f, x, t, 2)
        assert len(jet.comp) == 6
    assert counts == {}


def test_theta_operators_make_no_grassmann_arithmetic(monkeypatch):
    # the theta shift and the theta derivative are summed as term maps, so
    # lowering a jet makes no product and no sum
    jet = superfield.superfield_jet(random_superfield(900, CTX), 0.15, -0.45, 2)
    counts = _count_grassmann_arithmetic(monkeypatch)
    for which in ("x", "t"):
        for op in (superfield.op_D, superfield.op_Q):
            assert len(op(jet, CTX, which).comp) == 3
    assert counts == {}


def test_jet_product_counts(monkeypatch):
    # deterministic counts gate the jet layer, not wall time; each bound is
    # the exact count of the planned composition with its body-only base
    calls = 0
    mul = GrassmannNumber.__mul__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(GrassmannNumber, "__mul__", counted)
    jet_apply_analytic(jet_variable(XT, "x", sc(0.7)), SIN)
    assert calls == 3
    calls = 0
    # one b5 superfield at ten points; each first-level D and Q is built once.
    # The ten jets and the operators make none: the 49 are the field's own
    # set-up (9) and the operator families' checks (40)
    list(checks.b5_residuals(checks.covariant_squares, checks.susy_anticommutators)(CTX, 900, 1))
    assert calls == 49


def test_jet_spec_refuses_a_bad_shape():
    for seeds in (("x", "x"), ("x", "t", "x"), ()):
        with pytest.raises(ValueError, match="distinct and nonempty"):
            JetSpec(seeds, 1)
    with pytest.raises(ValueError, match="negative jet order"):
        JetSpec(("x",), -1)


def test_jet_specs_compare_and_hash_by_shape():
    # the plan caches key on a spec: equal shapes are one key, and jet_spec
    # hands out one object per shape
    assert jet_spec(("x", "t"), 1) is jet_spec(("x", "t"), 1)
    a, b = JetSpec(("x", "t"), 1), jet_spec(("x", "t"), 1)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != JetSpec(("x", "t"), 2) and a != JetSpec(("t", "x"), 1)
    assert a != (("x", "t"), 1)
    assert repr(a) == "JetSpec(seeds=('x', 't'), order=1)"


def test_jet_spec_constructions(monkeypatch):
    # one b5 superfield at ten points with both families needs three shapes,
    # orders 2, 1 and 0 over ("x", "t"): each is built once with a cold spec
    # cache and none with a warm one
    built = []
    init = JetSpec.__init__

    def counted(spec, seeds, order=2):
        built.append((seeds, order))
        init(spec, seeds, order)

    monkeypatch.setattr(JetSpec, "__init__", counted)
    run = checks.b5_residuals(checks.covariant_squares, checks.susy_anticommutators)
    jet_spec.cache_clear()
    list(run(CTX, 900, 1))
    assert sorted(built) == [(("x", "t"), 0), (("x", "t"), 1), (("x", "t"), 2)]
    built.clear()
    list(run(CTX, 900, 1))
    assert built == []


def test_jet_spec_cache_is_coherent_across_threads():
    # threads filling a cold spec cache at once get equal specs and lower a
    # jet to the bits a serial run gives
    jet = superfield.superfield_jet(random_superfield(900), sc(0.15), sc(-0.45), order=2)

    def lowered():
        return [(J, bits(v.terms)) for which in ("x", "t")
                for J, v in superfield.op_Q(superfield.op_D(jet, CTX, which), CTX, "t").comp.items()]

    want = lowered()
    bad = []

    def work():
        for _ in range(200):
            if jet_spec(("x", "t"), 1) != JetSpec(("x", "t"), 1) or lowered() != want:
                bad.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        jet_spec.cache_clear()
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
