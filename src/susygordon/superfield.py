"""Even superfields on the (1,1|2) superspace and the operators acting on them.

A superfield is one handle ``jet(x, t, order) -> SuperJet``: the full jet
over seeds ("x", "t") of the theta-carrying value, with the two odd
coordinates realized as the reserved Grassmann generators of an
``AlgebraContext``:

    value = u/2 + th1*phi + th2*psi + th1*th2*F

The components are the theta slots of that one jet
(``theta_coefficients``).  ``theta_sum`` is the one expansion, for jets and
supernumbers alike: ``component_superfield`` builds a field from four
theta-free component handles by it, as ``reductions`` builds each ansatz,
and ``constant_superfield`` builds a constant one.  The whole calculus runs
on exact jets; no finite differencing anywhere.

Odd-coordinate derivatives are left derivatives: d_th1(th1 th2 F) = th2 F
and d_th2(th1 th2 F) = -th1 F.  A doubly-indexed entry applies the leftmost
subscript first, so value_th1th2 = d_th2(d_th1 value) and equals +F on the
pure th1 th2 term.

The covariant derivatives D = d_th + th d and the supersymmetry generators
Q = d_th - th d lower a jet by one order (``op_D``, ``op_Q``).  Their
``th d`` part multiplies by a single generator, so it is a mask shift, not
a general product: each term of a component without theta's bit gains it,
with the sign (-1)^(number of the term's generators below theta), and a term
that already holds it dies.  The shift keeps the general product's float
operations and drops zero products, and it inserts no empty product, so
the result's values and key order are bit for bit those of the general
product.

A random superfield (``random_superfield``) builds its jet in one pass.
Each component is a sum of terms ``monomial * f(x) * g(t)``, so the jet of
a term is the outer product of the derivative lists of f at x and g at t
(Taylor mode for a separable product, Griewank & Walther, *Evaluating
Derivatives*, ch. 13), with no coordinate jet, Faa di Bruno walk or Leibniz
table.  The monomial, a theta slot times an odd prefactor such as
``th1 k1``, is one product of distinct generators with coefficient +-1.
Multiplying by +-1 rounds nothing, so folding the two factors into one
before it meets the profile is exact: ``(th1 k1) * p`` has the bits of
``th1 * (k1 * p)``.

Both superspace jets, the random field's (``theta_sum``'s fast form) and a
lowered one, are assembled as term maps ``{mask: coeff}``, one per
component, and each surviving component becomes one supernumber at the
end.  ``grassmann.add_terms`` is the one sum rule: a supernumber sum is
``dict(a.terms)`` followed by it, so summing into a map the assembly owns
gives each mask the float operations, and each map the key order, of the
pairwise sums.  A component that a sum empties leaves the map, as in
``jet_add``.  So the random jet has the bits and key order that composing,
multiplying, scaling and summing the component jets gives, and a lowered
jet those of the general product and sum.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .analytic import SIN, TrigPoly
from .grassmann import (
    DEFAULT_CONTEXT,
    AlgebraContext,
    GrassmannNumber,
    ParityError,
    add_terms,
    demote,
    drop_gens,
    gen_derivative,
    soul_derivs,
    soul_taylor,
)
from .superjet import (
    SuperJet,
    add_into,
    jet_constant,
    jet_spec,
    jet_variable,
    nonzero,
)

# (x, t, order) -> SuperJet over ("x", "t")
JetHandle = Callable[[GrassmannNumber, GrassmannNumber, int], SuperJet]


class Superfield(NamedTuple):
    jet: JetHandle  # the full theta-carrying jet
    ctx: AlgebraContext = DEFAULT_CONTEXT


class SuperfieldValueBundle(NamedTuple):
    value: GrassmannNumber
    d_x: GrassmannNumber
    d_t: GrassmannNumber
    d_th1: GrassmannNumber
    d_th2: GrassmannNumber
    d_xt: GrassmannNumber
    d_xth2: GrassmannNumber
    d_tth1: GrassmannNumber
    d_th1th2: GrassmannNumber


def coordinate_jets(x, t, order: int, ctx: AlgebraContext = DEFAULT_CONTEXT):
    """The jets of the coordinates x and t at a point, over ``ctx``'s
    algebra; a real coordinate is lifted to a body-only supernumber."""
    spec = jet_spec(("x", "t"), order)
    return jet_variable(spec, "x", ctx.lift(x)), jet_variable(spec, "t", ctx.lift(t))


def superfield_jet(f: Superfield, x, t, order: int = 2) -> SuperJet:
    """The full theta-carrying jet of the superfield over ("x", "t")."""
    return f.jet(x, t, order)


def evaluate_bundle(f: Superfield, x, t) -> SuperfieldValueBundle:
    jet = superfield_jet(f, x, t, order=2)
    i1 = f.ctx.roles["theta1"]
    i2 = f.ctx.roles["theta2"]

    def dth1(v):
        return gen_derivative(v, i1)

    def dth2(v):
        return gen_derivative(v, i2)

    v = jet.value()
    return SuperfieldValueBundle(
        value=v,
        d_x=jet.d("x"),
        d_t=jet.d("t"),
        d_th1=dth1(v),
        d_th2=dth2(v),
        d_xt=jet.d("x", "t"),
        d_xth2=dth2(jet.d("x")),
        d_tth1=dth1(jet.d("t")),
        d_th1th2=dth2(dth1(v)),
    )


# ---------------------------------------------------- superspace derivations


def _op_theta(jet: SuperJet, ctx: AlgebraContext, which: str, sign: float) -> SuperJet:
    """d_theta + sign * theta * d_even as a jet-to-jet map (order drops 1).

    ``sign * theta * d_even`` is a mask shift, formed in one pass over the
    components that have a d_even slot inside the lower order.  A term
    ``c * xi^m`` whose mask lacks theta's bit becomes
    ``(sign * c) * s * xi^(m | theta)``, where ``s`` is -1.0 when an odd
    number of m's generators lie below theta, else 1.0: the general
    product's merge sign, in its float operations and their order, so NaN,
    -0.0 and underflow keep their bits.  A term holding theta's bit and a
    zero product are dropped.

    Each component is assembled as a term map, and only the finished maps
    become supernumbers.  An empty theta product is not inserted, so the
    keys keep the general product's order: the theta products in the
    input's order, then the theta derivatives of the components the lower
    order keeps, in the input's order.  The derivative's terms are
    ``gen_derivative``'s, ``c * s`` per term holding theta's bit, added into
    the shift's map by ``add_terms`` as the sum ``shift + derivative`` adds
    them; a component with no shift takes the derivative's map as it is.
    The shift's masks hold theta's bit and the derivative's do not, so no
    mask meets two addends.  ``SuperJet`` drops the components that end
    empty.
    """
    theta_role, seed = ("theta1", "x") if which == "x" else ("theta2", "t")
    bit = 1 << ctx.roles[theta_role]
    below = bit - 1
    spec = jet.spec
    ax = spec.axis(seed)
    sub = jet_spec(spec.seeds, spec.order - 1)
    comp = {}
    for J, v in jet.comp.items():
        if not J[ax] or sum(J) > spec.order:
            continue
        terms = {}
        for m, c in v.terms.items():
            if not m & bit:
                p = sign * c * (-1.0 if (m & below).bit_count() & 1 else 1.0)
                if p != 0.0:
                    terms[m | bit] = p
        if terms:
            comp[J[:ax] + (J[ax] - 1,) + J[ax + 1:]] = terms
    for J, v in jet.comp.items():
        if sum(J) <= sub.order:
            d = {m ^ bit: c * (-1.0 if (m & below).bit_count() & 1 else 1.0)
                 for m, c in v.terms.items() if m & bit}
            if J in comp:
                add_terms(comp[J], d)
            else:
                comp[J] = d
    ngen = jet.ngen
    return SuperJet(sub, ngen, {J: GrassmannNumber._make(ngen, t) for J, t in comp.items()})


def op_D(jet: SuperJet, ctx: AlgebraContext, which: str) -> SuperJet:
    return _op_theta(jet, ctx, which, 1.0)


def op_Q(jet: SuperJet, ctx: AlgebraContext, which: str) -> SuperJet:
    return _op_theta(jet, ctx, which, -1.0)


# ------------------------------------------------------------------ residuals


def ssg_residual(f: Superfield, x, t) -> GrassmannNumber:
    """th1 th2 value_xt - th2 value_tth1 + th1 value_xth2 - value_th1th2 - sin(value).

    Zero exactly when the point satisfies the superfield equation; this is
    the expanded form of (covariant x) (covariant t) value = sin(value).
    The sine goes through the bare Taylor core: a field whose odd slots
    carry even supernumber coefficients has a mixed-parity value, and the
    residual must still be able to judge it.
    """
    b = evaluate_bundle(f, x, t)
    th1, th2 = f.ctx.gen("theta1"), f.ctx.gen("theta2")
    return (
        th1 * th2 * b.d_xt
        - th2 * b.d_tth1
        + th1 * b.d_xth2
        - b.d_th1th2
        - soul_taylor(SIN, b.value)
    )


def theta_coefficients(v: GrassmannNumber, ctx: AlgebraContext):
    """Split v = c0 + th1 c1 + th2 c2 + th1 th2 c3 with theta-free c_i."""
    i1, i2 = ctx.roles["theta1"], ctx.roles["theta2"]
    mask = (1 << i1) | (1 << i2)
    c0 = drop_gens(v, mask)
    c1 = drop_gens(gen_derivative(v, i1), mask)
    c2 = drop_gens(gen_derivative(v, i2), mask)
    c3 = gen_derivative(gen_derivative(v, i1), i2)
    return c0, c1, c2, c3


# ------------------------------------------------------------------ builders


def theta_sum(value, *pairs):
    """``value + m1 * v1 + m2 * v2 + ...`` over ``(monomial, slot)`` pairs,
    summed in order, each monomial multiplying from the left: on a jet slot,
    a jet monomial by ``jet_multiply`` and a supernumber one by ``jet_scale``."""
    for monomial, slot in pairs:
        value = value + monomial * slot
    return value


def component_superfield(u_half: JetHandle, phi: JetHandle, psi: JetHandle, F: JetHandle,
                         ctx: AlgebraContext = DEFAULT_CONTEXT) -> Superfield:
    """value = u/2 + th1 phi + th2 psi + th1 th2 F from four theta-free
    component handles."""
    th1, th2 = ctx.gen("theta1"), ctx.gen("theta2")
    th12 = th1 * th2

    def jet(x, t, order):
        return theta_sum(u_half(x, t, order), (th1, phi(x, t, order)),
                         (th2, psi(x, t, order)), (th12, F(x, t, order)))

    return Superfield(jet, ctx)


def constant_component(value: GrassmannNumber) -> JetHandle:
    def handle(x, t, order):
        return jet_constant(jet_spec(("x", "t"), order), value)

    return handle


def constant_superfield(value: GrassmannNumber, ctx: AlgebraContext = DEFAULT_CONTEXT) -> Superfield:
    """The superfield whose value is ``value`` everywhere."""
    return Superfield(constant_component(value), ctx)


def profile_component(builder, ctx: AlgebraContext = DEFAULT_CONTEXT) -> JetHandle:
    """builder(jx, jt) -> SuperJet, with jx, jt the coordinate jets."""

    def handle(x, t, order):
        return builder(*coordinate_jets(x, t, order, ctx))

    return handle


def _derivative_list(fn, v, order: int) -> list:
    """``(k, fn^(k)(v))`` for k = 0..order in the arithmetic of ``v``, the
    entries a jet stores: a float's list from ``fn.derivs``, a supernumber's
    from ``soul_derivs``, the zeros dropped.  A supernumber must be even."""
    if isinstance(v, GrassmannNumber):
        if not v.is_even():
            raise ParityError("analytic composition needs an even jet")
        return [(k, d) for k, d in enumerate(soul_derivs(fn, v, order)) if d.terms]
    return [(k, d) for k, d in enumerate(fn.derivs(v, order)) if d != 0.0]


def _outer(fs: list, gs: list, order: int) -> dict:
    """``{(i, j): f_i * g_j}`` over two derivative lists for i + j <= order,
    the zero products dropped: the Leibniz product of a jet in x alone with
    one in t alone, whose every weight is 1."""
    out = {}
    for i, a in fs:
        for j, b in gs:
            if i + j > order:
                break
            p = a * b
            if nonzero(p):
                out[i, j] = p
    return out


def _times(monomial: GrassmannNumber, v) -> dict:
    """The term map of ``monomial * v``: for a float ``v`` the float branch
    of the product, ``c * v`` per term with the zeros dropped.  A nonzero
    ``v`` gives a product that shares no map with its operands."""
    if isinstance(v, GrassmannNumber):
        return (monomial * v).terms
    return {m: p for m, c in monomial.terms.items() if (p := c * v) != 0.0}


def _add_maps(acc: dict, other: dict) -> None:
    """Add the component term maps ``other`` into ``acc`` in place, as
    ``add_into`` adds supernumbers: a new key joins at the end with its map,
    a shared key's map takes ``add_terms``, and a map that ends empty leaves
    ``acc``.  Both sides own their maps, which ``acc`` keeps."""
    for J, t in other.items():
        w = acc.get(J)
        if w is None:
            acc[J] = t
            continue
        add_terms(w, t)
        if not w:
            del acc[J]


def random_superfield(rng_seed, ctx: AlgebraContext = DEFAULT_CONTEXT) -> Superfield:
    """Polynomial x trigonometric components with random odd prefactors.

    Deterministic in the seed.  Free odd generators (everything except the
    two theta slots) appear in the odd components both linearly and as a
    cubic product, so anticommutation bugs have something to bite on.

    Each theta slot is a sum of terms ``monomial * f(x) * g(t)``: u/2 has
    the monomial 1, F has th1 th2, and phi has ``th1 k1`` and ``th1 k3``
    (psi the same with th2), formed once per field.  Component (i, j) of a
    term's jet is ``f^(i)(x) * g^(j)(t)``; the products of one monomial are
    summed by ``add_into`` as ``jet_add`` forms it.  Then each component is
    a term map: a slot's map per component sums the terms of ``monomial *
    v`` over its monomials (for a float ``v`` the product's float branch,
    with no supernumber formed), and the field's map sums the slot maps in
    the order u/2, phi, psi, F, both by ``add_terms``.  At a point whose
    soul holds no theta generator this gives, bit for bit and in key order,
    the jet of composing, multiplying, scaling and summing the component
    jets.  Soul-free points and points with a soul take the same code: the
    derivative lists are floats at a soul-free point and supernumbers where
    either coordinate has a soul; an odd coordinate raises ``ParityError``.
    """
    rng = random.Random(rng_seed)
    i1, i2 = ctx.roles["theta1"], ctx.roles["theta2"]
    free = [i for i in range(ctx.generator_count) if i not in (i1, i2)]
    th1, th2 = ctx.gen("theta1"), ctx.gen("theta2")

    def trig():
        return TrigPoly(
            waves=[(rng.uniform(-1, 1), rng.uniform(0.4, 1.3), rng.uniform(-1, 1))],
            poly=[rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4)],
        )

    def even(monomial):
        fx, ft, gx, gt = trig(), trig(), trig(), trig()
        return ((monomial, ((fx, ft), (gx, gt))),)

    def odd(theta):
        k1 = ctx.gen(rng.choice(free))
        trip = rng.sample(free, 3)
        k3 = ctx.gen(trip[0]) * ctx.gen(trip[1]) * ctx.gen(trip[2])
        fx, ft, gx, gt = trig(), trig(), trig(), trig()
        return ((theta * k1, ((fx, ft),)), (theta * k3, ((gx, gt),)))

    # the slots u/2, phi, psi, F, drawn in that order: even, odd, odd, even
    slots = (even(ctx.one()), odd(th1), odd(th2), even(th1 * th2))

    def jet(x, t, order):
        X, T = demote(ctx.lift(x)), demote(ctx.lift(t))
        if isinstance(X, GrassmannNumber) or isinstance(T, GrassmannNumber):
            X, T = ctx.lift(X), ctx.lift(T)
        comp = {}
        for slot in slots:
            terms = {}
            for monomial, profiles in slot:
                part = {}
                for f, g in profiles:
                    fs = _derivative_list(f, X, order)
                    add_into(part, _outer(fs, _derivative_list(g, T, order), order))
                _add_maps(terms, {J: m for J, v in part.items() if (m := _times(monomial, v))})
            _add_maps(comp, terms)
        ngen = ctx.generator_count
        return SuperJet(jet_spec(("x", "t"), order), ngen,
                        {J: GrassmannNumber._make(ngen, t) for J, t in comp.items()})

    return Superfield(jet, ctx)
