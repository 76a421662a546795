"""Grassmann arithmetic: frozen-value oracles plus algebraic property tests.

The multiplication oracle is an independent brute-force route (sorted-word
insertion with bubble-sort sign counting), so the bitmask merge sign in the
implementation is never compared against itself.
"""

import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from susygordon.analytic import COS, EXP, RECIP, SIN
from susygordon.grassmann import (
    AlgebraContext,
    ContextMismatch,
    DEFAULT_CONTEXT,
    DomainError,
    GrassmannNumber,
    NonInvertible,
    Parity,
    ParityError,
    add_terms,
    analytic_value,
    apply_analytic,
    demote,
    drop_gens,
    gen_derivative,
    invert,
    parse,
    scalar,
    soul_derivs,
    soul_taylor,
    to_text,
)

from helpers import (
    LOG, bits, derivs_providers, exact, general_product, general_sum, sample_random,
)

NGEN = 8
gen = DEFAULT_CONTEXT.gen


# --------------------------------------------------------------- slow oracle


def slow_mul(a: GrassmannNumber, b: GrassmannNumber) -> dict:
    """Distributive expansion over index words with bubble-sort sign."""
    out: dict[tuple, float] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            wa = [i for i in range(NGEN) if ma >> i & 1]
            wb = [i for i in range(NGEN) if mb >> i & 1]
            if set(wa) & set(wb):
                continue
            word = wa + wb
            sign = 1.0
            for i in range(len(word)):
                for j in range(len(word) - 1 - i):
                    if word[j] > word[j + 1]:
                        word[j], word[j + 1] = word[j + 1], word[j]
                        sign = -sign
            key = tuple(word)
            out[key] = out.get(key, 0.0) + sign * ca * cb
    return {k: v for k, v in out.items() if abs(v) > 0.0}


def as_words(a: GrassmannNumber) -> dict:
    return {
        tuple(i for i in range(NGEN) if m >> i & 1): c for m, c in a.terms.items()
    }


# ----------------------------------------------------------- frozen examples


def test_generator_squares_to_zero():
    x1 = gen(0)
    assert (x1 * x1).is_zero()


def test_anticommutation():
    x1, x2 = gen(0), gen(1)
    assert x2 * x1 == -(x1 * x2)


def test_distributive_example():
    x1x2 = gen(0) * gen(1)
    a = scalar(1) + x1x2 * 2
    b = scalar(3) + x1x2
    prod = a * b
    assert prod == scalar(3) + x1x2 * 7
    assert as_words(prod) == slow_mul(a, b)


def test_body_soul_examples():
    x1x2 = gen(0) * gen(1)
    a = scalar(3) + x1x2
    assert a.body == 3.0 and a.soul() == x1x2
    assert gen(0).body == 0.0 and gen(0).soul() == gen(0)
    assert scalar(0).body == 0.0 and scalar(0).soul().is_zero()


def test_invert_examples():
    x1x2 = gen(0) * gen(1)
    assert invert(scalar(1) + x1x2) == scalar(1) - x1x2
    assert invert(scalar(2)) == scalar(0.5)
    with pytest.raises(NonInvertible):
        invert(gen(0))


class _Sin:
    def derivs(self, x, n):
        cyc = [math.sin(x), math.cos(x), -math.sin(x), -math.cos(x)]
        return [cyc[j % 4] for j in range(n + 1)]


class _Cos:
    def derivs(self, x, n):
        cyc = [math.cos(x), -math.sin(x), -math.cos(x), math.sin(x)]
        return [cyc[j % 4] for j in range(n + 1)]


def test_apply_analytic_examples():
    x1x2 = gen(0) * gen(1)
    for k in range(-3, 4):
        assert apply_analytic(_Sin(), scalar(k * math.pi)).norm() < 1e-12
    assert apply_analytic(_Sin(), x1x2) == x1x2
    # sin(pi/2 + n) = 1 for n^2 = 0: cos(pi/2) kills the linear term
    val = apply_analytic(_Sin(), scalar(math.pi / 2) + x1x2)
    assert (val - scalar(1)).norm() <= 1e-12
    with pytest.raises(ParityError):
        apply_analytic(_Sin(), gen(0))


def test_exp_log_examples():
    x1x2 = gen(0) * gen(1)
    assert apply_analytic(EXP, x1x2) == scalar(1) + x1x2
    assert apply_analytic(EXP, scalar(0)) == scalar(1)
    a = scalar(0.3) + x1x2
    assert (apply_analytic(LOG, apply_analytic(EXP, a)) - a).norm() <= 1e-12
    with pytest.raises(DomainError):
        apply_analytic(LOG, scalar(-1) + x1x2)


def test_sample_random_examples():
    v = sample_random(Parity.ODD, 1, rng_seed=7)
    assert v.is_odd() and len(v.terms) == NGEN
    assert sample_random(Parity.ODD, 1, rng_seed=7) == v
    v0 = sample_random(Parity.EVEN, 0, rng_seed=11)
    assert v0.soul().is_zero()
    for s in range(1000):
        assert sample_random(Parity.ODD, 3, s).is_odd()
    with pytest.raises(ParityError):
        sample_random(Parity.MIXED, 2, 0)


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        gen(0) * AlgebraContext(6, {}).gen(0)


def test_norm_propagates_nan():
    # max() would drop the NaN and report 1.0
    assert math.isnan(GrassmannNumber(NGEN, {0: 1.0, 3: math.nan}).norm())
    assert math.isnan(GrassmannNumber(NGEN, {0: math.nan, 3: 1.0}).norm())


@pytest.mark.parametrize("ngen", [0, 33, 40])
def test_generator_count_outside_1_to_32_is_rejected(ngen):
    # the sign cache packs two masks into 64 bits; past 32 generators two
    # different mask pairs would share one cached sign
    for build in (
        lambda: GrassmannNumber(ngen),
        lambda: AlgebraContext(ngen, {}),
        lambda: AlgebraContext(ngen),
        lambda: scalar(1.0, ngen),
        lambda: sample_random(Parity.EVEN, 0, 0, ngen),
        lambda: parse("1", ngen),
    ):
        with pytest.raises(ValueError, match="generator count"):
            build()


def test_top_generators_of_a_32_generator_algebra_anticommute():
    ctx = AlgebraContext(32)
    low, mid, top = ctx.gen(0), ctx.gen(1), ctx.gen(31)
    assert top * low == -(low * top)
    assert to_text(low * top * mid) == "-1*x1^x2^x32"
    assert (low * top) * mid == mid * (low * top)


# ------------------------------------------------------------ text rendering


def test_to_text_example():
    v = scalar(3) + gen(0) * gen(1) * 7
    assert to_text(v) == "3 + 7*x1^x2"
    assert parse("3 + 7*x1^x2") == v


def test_parse_reorders_and_nils():
    assert parse("x2^x1") == -(gen(0) * gen(1))
    assert parse("x1^x1").is_zero()
    assert parse("-2.5*x3") == gen(2) * -2.5
    assert to_text(scalar(0)) == "0"
    # a zero coefficient leaves no term, as in scalar(0)
    for text in ("0", "-0", "0*x1", "1 - 0*x2^x3 - 1"):
        assert parse(text).terms == {}, text


def test_parse_reads_exponent_signs_as_part_of_the_coefficient():
    assert parse("1 + 1e-105*x1") == scalar(1) + gen(0) * 1e-105
    assert parse("-2E+20 - 3e-5*x2^x3") == scalar(-2e20) - gen(1) * gen(2) * 3e-5


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_nonfinite_coefficient_renders(c):
    # the body and a soul term both take the non-finite value
    for a in (scalar(c), scalar(1) + gen(0) * c):
        text = repr(a)
        assert ("nan" if math.isnan(c) else "inf") in text
        assert str(a) == text


@pytest.mark.parametrize("c", [math.inf, -math.inf])
def test_parse_gives_back_an_infinite_coefficient(c):
    for a in (scalar(c), scalar(1) + gen(0) * c, gen(1) * 2 + scalar(c)):
        assert parse(to_text(a)) == a


# finite coefficients of every magnitude and sign; repr writes many of them
# in exponent form
FINITE = st.one_of(
    st.sampled_from([1e-300, -1e-05, 1e16, 1e+20, 5e-324, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
).filter(lambda c: c != 0.0)


@given(st.dictionaries(st.integers(0, (1 << NGEN) - 1), FINITE, max_size=6))
@settings(max_examples=300, deadline=None)
def test_parse_inverts_to_text(terms):
    a = GrassmannNumber(NGEN, terms)
    assert parse(to_text(a), NGEN) == a


# ------------------------------------------------------- algebraic properties


def gvalues(max_degree=3):
    masks = st.integers(min_value=0, max_value=(1 << NGEN) - 1).filter(
        lambda m: m.bit_count() <= max_degree
    )
    coeffs = st.floats(
        min_value=-4, max_value=4, allow_nan=False, allow_infinity=False
    ).filter(lambda c: c == 0.0 or abs(c) > 1e-6)
    return st.dictionaries(masks, coeffs, max_size=6).map(
        lambda d: GrassmannNumber(NGEN, d)
    )


def hvalues(parity):
    """Homogeneous values of a fixed parity."""
    want = 1 if parity is Parity.ODD else 0
    masks = st.integers(min_value=0, max_value=(1 << NGEN) - 1).filter(
        lambda m: m.bit_count() % 2 == want and m.bit_count() <= 4
    )
    coeffs = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)
    return st.dictionaries(masks, coeffs, min_size=1, max_size=5).map(
        lambda d: GrassmannNumber(NGEN, d)
    )


@given(gvalues(), gvalues(), gvalues())
@settings(max_examples=150, deadline=None)
def test_associative_distributive(a, b, c):
    assert ((a * b) * c - a * (b * c)).norm() <= 1e-12 * (
        1 + a.norm() * b.norm() * c.norm()
    )
    assert ((a + b) * c - (a * c + b * c)).norm() <= 1e-12 * (
        1 + (a.norm() + b.norm()) * c.norm()
    )


@given(
    st.sampled_from([Parity.EVEN, Parity.ODD]),
    st.sampled_from([Parity.EVEN, Parity.ODD]),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_supercommutativity(pa, pb, data):
    a = data.draw(hvalues(pa))
    b = data.draw(hvalues(pb))
    sign = -1.0 if (pa is Parity.ODD and pb is Parity.ODD) else 1.0
    assert (a * b - b * a * sign).is_zero()


def nonfinite_body(body):
    """``body`` plus a finite soul of up to three terms."""
    return gvalues().map(lambda a: a.soul() + body)


NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NONEMPTY = gvalues().filter(lambda b: not b.is_zero())


@given(NONFINITE.flatmap(nonfinite_body), NONEMPTY)
@settings(max_examples=60, deadline=None)
def test_nonfinite_body_survives_products(a, b):
    # no coefficient of b is zero, so the body meets each one and leaves a
    # NaN or an infinity behind
    assert not math.isfinite((a * b).norm())
    assert not math.isfinite((b * a).norm())


@given(NONFINITE.flatmap(nonfinite_body), gvalues())
@settings(max_examples=60, deadline=None)
def test_nonfinite_body_survives_sums(a, b):
    for v in (a + b, b + a, a - b, b - a):
        assert not math.isfinite(v.norm())


def _soul_taylor_reference(f, a):
    """The value-only soul series as written before ``soul_derivs`` held the
    one loop, with powers from the unit and factorials accumulated; the
    reference that ``soul_taylor`` must match bit for bit."""
    s = a.soul()
    powers = [scalar(1.0)]
    while not (p := powers[-1] * s).is_zero():
        powers.append(p)
    ds = f.derivs(a.body, len(powers) - 1)
    out = GrassmannNumber(NGEN, {0: ds[0]})
    fact = 1.0
    for j in range(1, len(powers)):
        fact *= j
        out = out + powers[j] * (ds[j] / fact)
    return out


@given(st.one_of(gvalues(), NONFINITE.flatmap(nonfinite_body)),
       st.sampled_from([_Sin(), _Cos(), EXP, LOG]))
@settings(max_examples=150, deadline=None)
def test_soul_taylor_matches_the_value_only_series(a, f):
    want = exact(_soul_taylor_reference, f, a)
    assert exact(soul_taylor, f, a) == want
    assert exact(apply_analytic, f, a) == (want if a.is_even() else "ParityError")


# every float, plus a -0.0 body, both NaN signs, the infinities and a pair
# whose product underflows to zero
RAW = st.one_of(st.sampled_from([-0.0, math.nan, -math.nan, math.inf, -math.inf, 1e-200]),
                st.floats())


@given(RAW, st.dictionaries(st.integers(0, (1 << NGEN) - 1), RAW, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_body_only_product_matches_the_general_loop(body, terms):
    a = GrassmannNumber._make(NGEN, {0: body})
    b = GrassmannNumber._make(NGEN, terms)
    assert bits((a * b).terms) == bits(general_product(a.terms, b.terms))
    assert bits((b * a).terms) == bits(general_product(b.terms, a.terms))


@pytest.mark.parametrize("kmax", range(4))
def test_soul_free_series_is_the_body_derivatives(kmax):
    """Without a soul the series has no power to add, so each entry is the
    body derivative of ``f.derivs`` itself, a zero dropped from the terms."""
    args = [scalar(b) for b in (0.0, 0.3, -0.7, 1.5, math.nan, math.inf)]
    args.append(GrassmannNumber._make(NGEN, {0: -0.0}))
    for f in derivs_providers():
        for a in args:
            try:
                ds = f.derivs(a.body, kmax)
            except ValueError:
                with pytest.raises(ValueError):
                    soul_derivs(f, a, kmax)
                continue
            want = [bits({0: d} if d != 0.0 else {}) for d in ds]
            got = [bits(g.terms) for g in soul_derivs(f, a, kmax)]
            assert got == want, (type(f).__name__, a.terms)


def _apply_analytic_reference(f, a):
    """``apply_analytic`` as it was before the soul-free short path: the
    parity check, then the first entry of the one series loop."""
    if not a.is_even():
        raise ParityError("apply_analytic needs an even argument")
    return soul_derivs(f, a, 0)[0]


def _outcome(fn, f, a):
    try:
        return bits(fn(f, a).terms)
    except (ValueError, ArithmeticError) as e:  # both must raise the same type
        return type(e).__name__


def test_soul_free_argument_gives_the_series_value():
    args = [GrassmannNumber._make(NGEN, {0: b})
            for b in (0.0, -0.0, 0.3, -0.7, 1.5, math.inf, -math.inf, math.nan)]
    args.append(GrassmannNumber._make(NGEN, {}))
    for f in derivs_providers():
        for a in args:
            want = _outcome(_apply_analytic_reference, f, a)
            assert _outcome(apply_analytic, f, a) == want, (type(f).__name__, a.terms)


@pytest.mark.parametrize("f", [SIN, COS, RECIP], ids=["sin", "cos", "recip"])
def test_float_dispatch_gives_the_bits_of_apply_analytic(f):
    # lifted, the float's value has the bits apply_analytic gives the lifted
    # float: a zero of either sign lifts to the empty map
    for x in (0.0, -0.0, 5e-324, -5e-324, 0.7, 1e300, -1e300, math.nan):
        try:
            want = bits(apply_analytic(f, scalar(x)).terms)
        except DomainError:  # the reciprocal of zero, refused by both
            with pytest.raises(ZeroDivisionError):
                analytic_value(f, x)
            continue
        got = analytic_value(f, x)
        assert type(got) is float and bits(scalar(got).terms) == want, x
    assert bits(analytic_value(f, scalar(0.7)).terms) == bits(apply_analytic(f, scalar(0.7)).terms)


def test_float_operand_drops_an_underflowed_product():
    tiny = scalar(1e-200)
    for v in (tiny * 1e-200, 1e-200 * tiny, tiny / 1e200):
        assert v.terms == {} and v.is_zero() and v == 0
    assert (tiny * 1e-200).terms == (tiny * scalar(1e-200)).terms


# every float, both NaN signs, the infinities and -0.0, plus the smallest
# subnormals
COEFFS = st.one_of(RAW, st.sampled_from([5e-324, -5e-324]))
VALUES = st.dictionaries(st.integers(0, (1 << NGEN) - 1), COEFFS, max_size=6).map(
    lambda d: GrassmannNumber(NGEN, d))
OPS = (operator.mul, operator.add, operator.sub)


def _general(op, a, b):
    """``op(a, b)`` by the general loops, as bits in key order; a real
    enters as the supernumber ``scalar`` makes of it."""
    ta, tb = (x.terms if isinstance(x, GrassmannNumber) else scalar(x).terms for x in (a, b))
    return bits(general_product(ta, tb) if op is operator.mul else general_sum(ta, tb, op))


@given(VALUES, COEFFS)
@settings(max_examples=300, deadline=None)
def test_empty_operand_gives_the_bits_of_the_general_operations(a, r):
    e = GrassmannNumber(NGEN)
    for x in (a, r, e):
        for op in OPS:
            for left, right in ((e, x), (x, e)):
                got = op(left, right)
                assert type(got) is GrassmannNumber
                assert bits(got.terms) == _general(op, left, right), (op, left, right)
    if a.terms:
        # a sum is the other operand itself, a product the empty one
        assert a + e is a and e + a is a and a - e is a
        assert a * e is e and e * a is e


@given(VALUES, VALUES, st.data())
@settings(max_examples=300, deadline=None)
def test_add_terms_gives_the_bits_and_key_order_of_a_sum(a, b, data):
    # b also takes the negation of a drawn subset of a's terms, so sums that
    # cancel to 0.0, and keys that leave the map, are drawn too
    flip = data.draw(st.sets(st.sampled_from(sorted(a.terms)))) if a.terms else set()
    b = GrassmannNumber(NGEN, {**b.terms, **{m: -a.terms[m] for m in flip}})
    for x, y in ((a, b), (b, a), (a, a)):
        out = dict(x.terms)
        add_terms(out, y.terms)
        want = general_sum(x.terms, y.terms, operator.add)
        assert _sum_bits(x, y, out) == _sum_bits(x, y, (x + y).terms) == _sum_bits(x, y, want)


def _sum_bits(x, y, terms) -> list:
    """``bits(terms)`` with a mask where both ``x`` and ``y`` hold a NaN as one
    token: which NaN such a sum keeps is CPython's choice, and its
    specialised float addition keeps the other one than its generic form."""
    both = {m for m, c in y.terms.items() if c != c and x.terms.get(m, 0.0) != x.terms.get(m, 0.0)}
    return [(m, "nan" if m in both else b) for m, b in bits(terms)]


def test_empty_operand_keeps_the_operand_checks():
    other = AlgebraContext(6, {}).zero()
    for x in (GrassmannNumber(NGEN), gen(0)):
        for op in OPS:
            for left, right in ((x, other), (other, x)):
                with pytest.raises(ContextMismatch):
                    op(left, right)
            for left, right in ((x, "1"), ("1", x)):
                with pytest.raises(TypeError):
                    op(left, right)


def test_empty_operand_gives_the_exact_zero():
    bad = scalar(math.nan) + gen(0)
    assert (bad * scalar(0.0)).is_zero() and (scalar(0.0) * bad).is_zero()


@given(gvalues())
@settings(max_examples=60, deadline=None)
def test_soul_nilpotency(a):
    p = a.soul()
    for _ in range(NGEN):
        p = p * a.soul()
    assert p.is_zero()


def test_invert_two_sided_on_100_samples():
    for s in range(100):
        a = sample_random(Parity.EVEN, 4, s) + scalar(2.0)
        inv = invert(a)
        assert (a * inv - scalar(1)).norm() <= 1e-12
        assert (inv * a - scalar(1)).norm() <= 1e-12


def test_sin_cos_pythagoras_random_even():
    for s in range(50):
        a = sample_random(Parity.EVEN, 4, 1000 + s)
        si = apply_analytic(_Sin(), a)
        co = apply_analytic(_Cos(), a)
        assert (si * si + co * co - scalar(1)).norm() <= 1e-12


def test_exp_additivity_commuting_even():
    for s in range(25):
        a = sample_random(Parity.EVEN, 2, 2000 + s) * 0.3
        b = sample_random(Parity.EVEN, 2, 3000 + s) * 0.3
        lhs = apply_analytic(EXP, a + b)
        rhs = apply_analytic(EXP, a) * apply_analytic(EXP, b)
        assert (lhs - rhs).norm() <= 1e-12


# ------------------------------------------------------------ odd derivative


def test_gen_derivative_signs():
    x1, x2, x3 = gen(0), gen(1), gen(2)
    w = x1 * x2
    assert gen_derivative(w, 0) == x2
    assert gen_derivative(w, 1) == -x1
    v = x1 * x2 * x3
    assert gen_derivative(v, 2) == x1 * x2
    assert gen_derivative(gen_derivative(v, 0), 0).is_zero()
    # left derivatives anticommute
    d12 = gen_derivative(gen_derivative(v, 0), 1)
    d21 = gen_derivative(gen_derivative(v, 1), 0)
    assert d12 == -d21


def test_gen_derivative_is_an_antiderivation():
    for s in range(20):
        a = sample_random(Parity.ODD, 3, 4000 + s)
        b = sample_random(Parity.EVEN, 2, 5000 + s)
        for i in range(NGEN):
            lhs = gen_derivative(a * b, i)
            # d(ab) = (da)b + (-1)^|a| a (db) for homogeneous a
            rhs = gen_derivative(a, i) * b - a * gen_derivative(b, i)
            assert (lhs - rhs).norm() <= 1e-12


def test_drop_gens():
    v = scalar(2) + gen(0) * 3 + gen(0) * gen(1) + gen(2)
    kept = drop_gens(v, 0b01)
    assert kept == scalar(2) + gen(2)


# ---------------------------------------------------------------- context


def test_context_roles():
    ctx = DEFAULT_CONTEXT
    assert ctx.gen("theta1") == gen(0)
    assert ctx.gen("theta2") == gen(1)
    assert ctx.gen(5) == gen(5)
    ctx2 = AlgebraContext(8, {"theta1": 0, "theta2": 1, "nu0": 6})
    assert ctx2.gen("nu0") == gen(6)
    with pytest.raises(KeyError):
        ctx.gen("nu0")
    with pytest.raises(ValueError):
        AlgebraContext(8, {"a": 0, "b": 0})


def test_context_refuses_roles_it_cannot_hold():
    # repeated indices, an index past the generators, and free roles that
    # leave no second theta slot among four generators
    for roles, match in (
        ({"theta1": 0, "theta2": 1, "mu": 1}, "pairwise distinct"),
        ({"theta1": 0, "theta2": 1, "mu": 4}, "out of range"),
        ({"theta1": 0, "theta2": 1, "mu": -1}, "out of range"),
        ({"theta1": 0, "mu": 1, "nu": 2, "D1": 3}, "too small"),
    ):
        with pytest.raises(ValueError, match=match):
            AlgebraContext(4, roles)
    assert AlgebraContext(4, {"theta1": 0, "theta2": 1, "mu": 2, "nu": 3}).roles["nu"] == 3


def test_lift_keeps_a_supernumber_and_scalars_a_real():
    ctx = DEFAULT_CONTEXT
    v = scalar(0.5) + gen(3)
    assert ctx.lift(v) is v
    z = ctx.lift(-0.0)
    assert isinstance(z, GrassmannNumber) and z.terms == {}
    assert bits(ctx.lift(-1.25).terms) == bits(ctx.scalar(-1.25).terms)
    assert AlgebraContext(4, {}).lift(2).ngen == 4


def test_demote_gives_the_body_of_a_soul_free_number_only():
    ctx = DEFAULT_CONTEXT
    for x in (-1.25, 5e-324, math.inf):
        assert demote(ctx.lift(x)) == x and type(demote(ctx.lift(x))) is float
    assert bits({0: demote(ctx.lift(-0.0))}) == bits({0: 0.0})
    assert math.isnan(demote(ctx.lift(math.nan)))
    v = scalar(0.5) + gen(3) * gen(4)
    g = gen(3)
    assert demote(v) is v and demote(g) is g
    assert demote(0.75) == 0.75


def test_parity_classification():
    assert scalar(1).parity is Parity.EVEN
    assert gen(0).parity is Parity.ODD
    assert (scalar(1) + gen(0)).parity is Parity.MIXED
    assert scalar(0).parity is Parity.EVEN
    assert (gen(0) * gen(1)).parity is Parity.EVEN
