"""Invariant ansatz construction for the reduced ODE systems.

Every subalgebra whose orbits fill out superspace minus one even direction
is catalogued as a :class:`ReductionCase`: one ``invariants`` function that
returns the invariant variable ``sigma`` and the two odd invariant monomials
as the paper writes them, and the four profile equations the ansatz

    value = alpha(sigma) + m1 * f1(sigma) + m2 * f2(sigma) + m1 m2 * beta(sigma)

must satisfy, its rows in ``odes.CASE_ROWS``.  ``build_ansatz`` turns four
one-variable profiles into a full superfield; ``reduction_consistency``
checks, off shell and with random profiles, that the superfield equation's
residual recombines exactly from the reduced rows.  The ansatz, the S5 obstruction's superfield and that
recombination are all the one expansion ``superfield.theta_sum``, and
``ansatz_invariance`` reads the generator's (xi, tau, rho, sigma) from
``prolongation.ssg_generator_constants``, the realization the prolongation
suite checks.

The component-level table (cases L1..L5 for u, phi, psi without the
auxiliary field) lives here too, with the slice map tying each of its rows
back to a superspace case.

Odd coefficients always multiply from the left, and the equations keep every
anticommuting product in the order written in their docstrings; swapping two
odd profile values flips a sign, so none of these expressions are symmetric
in their factors.
"""

import math
import random
from typing import Callable, NamedTuple, Optional

from .analytic import COS, SIN, Const, Power, TrigPoly
from .grassmann import (
    DEFAULT_CONTEXT,
    AlgebraContext,
    GrassmannNumber,
    Parity,
    ParityError,
    apply_analytic,
    gen_derivative,
    soul_derivs,
    worst_of,
)
from .odes import CASE_ROWS, OutOfDomain, SingularPoint, check_eps, sin_cos
from .prolongation import ssg_generator_constants
from .superalgebra import AlgebraElement, subalgebra
from .superfield import (
    Superfield,
    constant_superfield,
    coordinate_jets,
    ssg_residual,
    superfield_jet,
    theta_sum,
)
from .superjet import (
    SuperJet,
    jet_apply_analytic,
    jet_constant,
    jet_scale,
)


# --------------------------------------------------------------------------
# profiles


class Profile(NamedTuple):
    """Function of the invariant variable with supernumber coefficients.

    Stored as a sum of (coefficient, scalar function) terms, so exact
    derivatives of any order are available and a Taylor shift by the
    nilpotent part of the argument costs nothing extra.
    """

    ctx: AlgebraContext
    terms: tuple = ()

    @property
    def parity(self) -> Parity:
        seen = {c.parity for c, _ in self.terms if not c.is_zero()}
        if not seen:
            return Parity.EVEN
        if len(seen) > 1:
            return Parity.MIXED
        return seen.pop()

    def is_zero(self) -> bool:
        return all(c.is_zero() for c, _ in self.terms)

    def jet(self, sigma_jet: SuperJet) -> SuperJet:
        acc = jet_constant(sigma_jet.spec, self.ctx.zero())
        for coef, fn in self.terms:
            acc = acc + jet_scale(jet_apply_analytic(sigma_jet, fn), coef, from_left=True)
        return acc

    def derivs_at(self, sigma, order: int) -> list:
        """[f, f', ..., f^(order)] at sigma; soul in sigma is Taylor-expanded."""
        sg = self.ctx.lift(sigma)
        if self.terms and not sg.is_even():
            raise ParityError("a profile needs an even argument")
        out = [self.ctx.zero() for _ in range(order + 1)]
        for coef, fn in self.terms:
            for k, d in enumerate(soul_derivs(fn, sg, order)):
                out[k] = out[k] + coef * d
        return out

    def value_at(self, sigma) -> GrassmannNumber:
        return self.derivs_at(sigma, 0)[0]


def profile(ctx: AlgebraContext, *terms) -> Profile:
    """Build a Profile from (coefficient, AnalyticFn) pairs."""
    norm = []
    for coef, fn in terms:
        norm.append((ctx.lift(coef), fn))
    return Profile(ctx, tuple(norm))


def const_profile(value, ctx: AlgebraContext = DEFAULT_CONTEXT) -> Profile:
    return profile(ctx, (value, Const(1.0)))


def zero_profile(ctx: AlgebraContext = DEFAULT_CONTEXT) -> Profile:
    return Profile(ctx, ())


def _random_fn(rng: random.Random) -> TrigPoly:
    waves = [
        (rng.uniform(0.3, 1.0), rng.uniform(0.4, 1.2), rng.uniform(-1.5, 1.5))
        for _ in range(rng.randint(1, 2))
    ]
    poly = [rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2)]
    return TrigPoly(waves=waves, poly=poly)


def random_reduction_profiles(case, rng_seed, ctx: AlgebraContext = DEFAULT_CONTEXT) -> dict:
    """Smooth random profiles with the right parities for the case's slots.

    Odd slots get one linear generator plus one cubic product so that
    anticommutation mistakes in the equations cannot cancel silently; the
    even slots carry a nilpotent pair on top of an ordinary number.
    """
    case = reduction_case(case)
    rng = random.Random(rng_seed)
    g = [ctx.gen(r) for r in ("D1", "D2", "mu0", "lambda0")]
    pair = g[0] * g[1]
    triple1 = g[0] * g[1] * g[2]
    triple2 = g[1] * g[2] * g[3]
    odd_leads = [g[2], g[3], g[0], g[1]]
    out = {}
    for i, name in enumerate(case.profile_names):
        if i in (0, 3):
            out[name] = profile(
                ctx,
                (ctx.scalar(rng.uniform(0.6, 1.4)), _random_fn(rng)),
                (pair * rng.uniform(-0.8, 0.8), _random_fn(rng)),
            )
        else:
            lead = odd_leads[i] * rng.uniform(0.5, 1.2)
            deep = (triple1 if i == 1 else triple2) * rng.uniform(-0.9, 0.9)
            out[name] = profile(ctx, (lead, _random_fn(rng)), (deep, _random_fn(rng)))
    return out


# --------------------------------------------------------------------------
# the reduction cases


class ReductionCase(NamedTuple):
    """One invariant ansatz shape plus its reduced system.

    ``invariants(jx, jt, p, ctx)`` returns the jets of ``(sigma, m1, m2)``
    over the coordinate jets ``jx``, ``jt``, with the case's parameters
    ``p``; a case defined only on part of the plane raises
    :class:`OutOfDomain` there before any profile is evaluated.
    ``equations(pv, sigma, p)`` returns the four reduced rows.
    ``signs`` couples the residual of the full superfield equation to the
    reduced rows: residual = sum_i signs[i] * monomial_i * row_i with the
    monomials (1, m1, m2, m1*m2).  The tuples were fixed by evaluating both
    sides off shell on random profiles; flipping any entry breaks the
    consistency check at order one.
    """

    case_id: str
    profile_names: tuple
    param_names: tuple
    signs: tuple
    invariants: Callable
    equations: Callable


def _fill_params(case: ReductionCase, params, ctx: AlgebraContext) -> dict:
    given = dict(params or {})
    out = {}
    for name in case.param_names:
        if name == "eps":
            out["eps"] = check_eps(given.pop("eps", 1.0))
        else:
            v = given.pop(name, None)
            if v is None:
                v = ctx.gen(name)
            if not isinstance(v, GrassmannNumber) or not v.is_odd():
                raise ParityError(f"parameter {name} must be an odd supernumber")
            out[name] = v
    if given:
        raise ValueError(f"unknown parameters {sorted(given)} for {case.case_id}")
    return out


def _check_profiles(case: ReductionCase, profiles) -> None:
    for i, name in enumerate(case.profile_names):
        if name not in profiles:
            raise KeyError(f"{case.case_id} needs a profile named {name!r}")
        pr = profiles[name]
        if pr.is_zero():
            continue
        par = pr.parity
        if par is Parity.MIXED:
            raise ParityError(f"profile {name!r} mixes parities")
        want = Parity.EVEN if i in (0, 3) else Parity.ODD
        if par is not want:
            raise ParityError(f"profile {name!r} must be {want.name.lower()}")


# The invariants of each case, as the paper's table states them: the even
# variable sigma and the odd monomials m1, m2.  Each is a jet over the
# coordinates' spec, so products pick up the right x/t derivatives; a bare
# theta enters as a constant jet.

def _inv_s1(jx, jt, p, ctx):
    """sigma = x t, m1 = theta1 t^(1/2), m2 = theta2 t^(-1/2); needs t > 0."""
    tb = jt.value().body
    if tb <= 0.0:
        raise OutOfDomain(f"ansatz uses t**(1/2); needs t > 0, got body {tb}")
    return (
        jx * jt,
        ctx.gen("theta1") * jet_apply_analytic(jt, Power(0.5)),
        ctx.gen("theta2") * jet_apply_analytic(jt, Power(-0.5)),
    )


def _inv_s2(jx, jt, p, ctx):
    """sigma = t, m1 = theta1, m2 = theta2."""
    th1, th2 = ctx.gen("theta1"), ctx.gen("theta2")
    return jt, jet_constant(jx.spec, th1), jet_constant(jx.spec, th2)


def _inv_s3(jx, jt, p, ctx):
    """sigma = x, m1 = theta1, m2 = theta2."""
    th1, th2 = ctx.gen("theta1"), ctx.gen("theta2")
    return jx, jet_constant(jx.spec, th1), jet_constant(jx.spec, th2)


def _inv_s4(jx, jt, p, ctx):
    """sigma = x - eps t, m1 = theta1, m2 = theta2."""
    th1, th2 = ctx.gen("theta1"), ctx.gen("theta2")
    return jx + jt * -p["eps"], jet_constant(jx.spec, th1), jet_constant(jx.spec, th2)


def _inv_s6(jx, jt, p, ctx):
    """sigma = t, m1 = theta1 - mu x, m2 = theta2."""
    th1, th2 = ctx.gen("theta1"), ctx.gen("theta2")
    return jt, jet_constant(jx.spec, th1) - p["mu"] * jx, jet_constant(jx.spec, th2)


def _inv_s7(jx, jt, p, ctx):
    """sigma = x + mu theta1 t, m1 = theta1 - mu t, m2 = theta2."""
    mu, th1, th2 = p["mu"], ctx.gen("theta1"), ctx.gen("theta2")
    return (
        jx + mu * th1 * jt,
        jet_constant(jx.spec, th1) - mu * jt,
        jet_constant(jx.spec, th2),
    )


def _inv_s8(jx, jt, p, ctx):
    """sigma = eps x - t + mu theta1 t, m1 = theta1 - mu eps t, m2 = theta2."""
    mu, e, th1, th2 = p["mu"], p["eps"], ctx.gen("theta1"), ctx.gen("theta2")
    return (
        jx * e - jt + mu * th1 * jt,
        jet_constant(jx.spec, th1) - mu * e * jt,
        jet_constant(jx.spec, th2),
    )


def _inv_s10(jx, jt, p, ctx):
    """sigma = t + nu theta2 x, m1 = theta2 - nu x, m2 = theta1."""
    nu, th1, th2 = p["nu"], ctx.gen("theta1"), ctx.gen("theta2")
    return (
        jt + nu * th2 * jx,
        jet_constant(jx.spec, th2) - nu * jx,
        jet_constant(jx.spec, th1),
    )


def _inv_s11(jx, jt, p, ctx):
    """sigma = x, m1 = theta2 - nu t, m2 = theta1."""
    th1, th2 = ctx.gen("theta1"), ctx.gen("theta2")
    return jx, jet_constant(jx.spec, th2) - p["nu"] * jt, jet_constant(jx.spec, th1)


def _inv_s12(jx, jt, p, ctx):
    """sigma = t - eps x + nu theta2 x, m1 = theta2 - nu x, m2 = theta1."""
    nu, e, th1, th2 = p["nu"], p["eps"], ctx.gen("theta1"), ctx.gen("theta2")
    return (
        jt - jx * e + nu * th2 * jx,
        jet_constant(jx.spec, th2) - nu * jx,
        jet_constant(jx.spec, th1),
    )


_SUPER_NAMES = ("alpha", "mu", "nu", "beta")
_ODD_NAMES = ("alpha", "eta", "lambda", "beta")

# a case's parameters are the slots of its subalgebra template
CASES = {
    case_id: ReductionCase(case_id, names, subalgebra(case_id).slots, signs, invariants,
                           CASE_ROWS[case_id])
    for case_id, names, signs, invariants in (
        ("S1", _SUPER_NAMES, (-1.0, 1.0, -1.0, 1.0), _inv_s1),
        ("S2", _SUPER_NAMES, (-1.0, -1.0, -1.0, -1.0), _inv_s2),
        ("S3", _SUPER_NAMES, (-1.0, 1.0, -1.0, -1.0), _inv_s3),
        ("S4", _SUPER_NAMES, (-1.0, 1.0, 1.0, -1.0), _inv_s4),
        ("S6", _ODD_NAMES, (-1.0, 1.0, -1.0, -1.0), _inv_s6),
        ("S7", _ODD_NAMES, (-1.0, 1.0, 1.0, -1.0), _inv_s7),
        ("S8", _ODD_NAMES, (-1.0, 1.0, 1.0, -1.0), _inv_s8),
        ("S10", _ODD_NAMES, (1.0, -1.0, -1.0, 1.0), _inv_s10),
        ("S11", _ODD_NAMES, (1.0, -1.0, 1.0, 1.0), _inv_s11),
        ("S12", _ODD_NAMES, (1.0, -1.0, -1.0, 1.0), _inv_s12),
    )
}


def reduction_case(case) -> ReductionCase:
    if isinstance(case, ReductionCase):
        return case
    try:
        return CASES[case]
    except KeyError:
        raise KeyError(f"no reduction case {case!r}; have {sorted(CASES)}") from None


def reduction_case_ids() -> tuple:
    return tuple(sorted(CASES, key=lambda s: int(s[1:])))


# --------------------------------------------------------------------------
# ansatz assembly and the consistency checks


def _phi_jet(case, profiles, p, ctx, jx, jt) -> SuperJet:
    sj, m1, m2 = case.invariants(jx, jt, p, ctx)
    a, f1, f2, b = (profiles[name].jet(sj) for name in case.profile_names)
    return theta_sum(a, (m1, f1), (m2, f2), (m1 * m2, b))


def build_ansatz(case, profiles, params=None, ctx: AlgebraContext = DEFAULT_CONTEXT) -> Superfield:
    """Superfield whose value is the invariant ansatz of the case."""
    case = reduction_case(case)
    p = _fill_params(case, params, ctx)
    _check_profiles(case, profiles)

    def jet(x, t, order):
        return _phi_jet(case, profiles, p, ctx, *coordinate_jets(x, t, order, ctx))

    return Superfield(jet, ctx)


def reduction_consistency(case, profiles, points, params=None,
                          ctx: AlgebraContext = DEFAULT_CONTEXT) -> float:
    """Worst gap between the full residual and the recombined reduced rows.

    Entirely off shell: profiles are arbitrary, so this checks the algebra
    of the reduction (chain rule through sigma, the odd monomial products,
    the sign table) rather than any particular solution.
    """
    case = reduction_case(case)
    p = _fill_params(case, params, ctx)
    sf = build_ansatz(case, profiles, params, ctx)

    def gap(x, t):
        xg, tg = ctx.lift(x), ctx.lift(t)
        full = ssg_residual(sf, xg, tg)
        jx, jt = coordinate_jets(xg, tg, 0, ctx)
        sig, m1, m2 = (j.value() for j in case.invariants(jx, jt, p, ctx))
        pv = {name: profiles[name].derivs_at(sig, 2) for name in case.profile_names}
        r0, r1, r2, r3 = (row * sign for row, sign in zip(case.equations(pv, sig, p), case.signs))
        return (full - theta_sum(r0, (m1, r1), (m2, r2), (m1 * m2, r3))).norm()

    return worst_of(gap(x, t) for x, t in points)


def case_generator(case, params=None, ctx: AlgebraContext = DEFAULT_CONTEXT) -> AlgebraElement:
    """The algebra element whose invariants the case's ansatz is built from."""
    case = reduction_case(case)
    return subalgebra(case.case_id).element(ctx, **_fill_params(case, params, ctx))


def _coefficient_values(X: AlgebraElement, x, t, ctx: AlgebraContext):
    """(xi, tau, rho, sigma) of the realized vector field at a literal point."""
    x_rate, x_shift, t_rate, t_shift, rho, sv = ssg_generator_constants(
        X.c_L, X.c_Px, X.c_Pt, X.c_Qx, X.c_Qt, ctx)
    return ctx.lift(x) * x_rate + x_shift, ctx.lift(t) * t_rate + t_shift, rho, sv


def ansatz_invariance(case, profiles, points, params=None,
                      ctx: AlgebraContext = DEFAULT_CONTEXT) -> float:
    """Worst norm of the generator's first-order action on the built ansatz.

    Zero (to rounding) certifies that the ansatz really is constant along
    the generator's flow, independently of any equation of motion.  The
    action reads first derivatives only, so the ansatz's jet is built to
    order 1.
    """
    sf = build_ansatz(case, profiles, params, ctx)
    X = case_generator(case, params, ctx)
    i1, i2 = ctx.roles["theta1"], ctx.roles["theta2"]

    def action(x, t):
        jet = superfield_jet(sf, x, t, order=1)
        v = jet.value()
        xi, tau, rho, sv = _coefficient_values(X, x, t, ctx)
        return (xi * jet.d("x") + tau * jet.d("t") + rho * gen_derivative(v, i1)
                + sv * gen_derivative(v, i2)).norm()

    return worst_of(action(x, t) for x, t in points)


def reduction_constant(case, profiles, sigma, ctx: AlgebraContext = DEFAULT_CONTEXT) -> GrassmannNumber:
    """The conserved nilpotent product of the odd profiles at sigma."""
    case = reduction_case(case)
    if case.case_id not in ("S1", "S4"):
        raise ValueError("only the scaling and traveling cases carry this constant")
    sg = ctx.lift(sigma)
    m = profiles["mu"].value_at(sg)
    n = profiles["nu"].value_at(sg)
    if case.case_id == "S4":
        return m * n
    if sg.body <= 0.0:
        raise SingularPoint("sigma**(1/2) needs sigma > 0")
    return apply_analytic(Power(0.5), sg) * m * n


def constant_drift(case, profiles, sigmas, ctx: AlgebraContext = DEFAULT_CONTEXT) -> float:
    vals = [reduction_constant(case, profiles, s, ctx) for s in sigmas]
    return worst_of((v - vals[0]).norm() for v in vals)


# --------------------------------------------------------------------------
# component-level reductions (u, phi, psi; no auxiliary field)

_L_IDS = ("L1", "L2", "L3", "L4", "L5")

# slice factors: component row i equals factor[i] * superspace row (3, 2, 1)
_L_TO_S = {
    "L1": ("S1", None, (2.0, 1.0, 1.0)),
    "L2": ("S2", None, (2.0, 1.0, 1.0)),
    "L3": ("S3", None, (2.0, 1.0, 1.0)),
    "L4": ("S4", 1.0, (-2.0, 1.0, 1.0)),
    "L5": ("S4", -1.0, (-2.0, -1.0, 1.0)),
}


def component_reduced_residual(l_id, profiles, sigma,
                               ctx: AlgebraContext = DEFAULT_CONTEXT) -> list:
    """Rows of the component reduction table at one sigma.

    Profiles are keyed u, phi, psi; for the scaling case phi and psi are the
    stripped profiles (the t powers live in the ansatz, not here).
    """
    if l_id not in _L_IDS:
        raise KeyError(f"no component case {l_id!r}; have {_L_IDS}")
    sg = ctx.lift(sigma)
    u = profiles["u"].derivs_at(sg, 2)
    f = profiles["phi"].derivs_at(sg, 2)
    s = profiles["psi"].derivs_at(sg, 2)
    sin_u = apply_analytic(SIN, u[0])
    sin_h = apply_analytic(SIN, u[0] * 0.5)
    cos_h = apply_analytic(COS, u[0] * 0.5)
    pair = sin_h * f[0] * s[0] * 2.0
    if l_id == "L1":
        return [
            sg * u[2] + u[1] + sin_u - pair,
            f[0] * 0.5 + sg * f[1] + cos_h * s[0],
            s[1] - cos_h * f[0],
        ]
    if l_id == "L2":
        return [-sin_u + pair, f[1] + cos_h * s[0], cos_h * f[0]]
    if l_id == "L3":
        return [-sin_u + pair, cos_h * s[0], s[1] - cos_h * f[0]]
    if l_id == "L4":
        return [-u[2] + sin_u - pair, f[1] - cos_h * s[0], s[1] - cos_h * f[0]]
    return [u[2] + sin_u - pair, f[1] + cos_h * s[0], s[1] - cos_h * f[0]]


def component_slice_check(l_id, profiles, sigmas,
                          ctx: AlgebraContext = DEFAULT_CONTEXT) -> float:
    """Each component row against its superspace row, beta eliminated.

    The algebraic row beta = -sin(alpha) is substituted into the superspace
    system with u = 2 alpha, phi = mu, psi = nu; the remaining three rows
    must match the component table up to the fixed factors recorded in the
    slice map.
    """
    s_id, eps, fac = _L_TO_S[l_id]
    case = CASES[s_id]
    p = {"eps": eps} if eps is not None else None
    pp = _fill_params(case, p, ctx)

    def dev(sigma):
        sg = ctx.lift(sigma)
        rows_l = component_reduced_residual(l_id, profiles, sg, ctx)
        u = profiles["u"].derivs_at(sg, 2)
        a = [u[0] * 0.5, u[1] * 0.5, u[2] * 0.5]
        sin_a, cos_a = sin_cos(a[0])
        pv = {
            "alpha": a,
            "mu": profiles["phi"].derivs_at(sg, 2),
            "nu": profiles["psi"].derivs_at(sg, 2),
            "beta": [
                -sin_a,
                -cos_a * a[1],
                sin_a * a[1] * a[1] - cos_a * a[2],
            ],
        }
        rows_s = case.equations(pv, sg, pp)
        return worst_of((
            (rows_l[0] - rows_s[3] * fac[0]).norm(),
            (rows_l[1] - rows_s[2] * fac[1]).norm(),
            (rows_l[2] - rows_s[1] * fac[2]).norm(),
        ))

    return worst_of(dev(sigma) for sigma in sigmas)


def component_case_ids() -> tuple:
    return _L_IDS


# --------------------------------------------------------------------------
# subalgebras with no standard reduction


class ObstructionRecord(NamedTuple):
    subalgebra: str
    invariant_form: str
    reducible: bool
    details: dict  # ahead of the defaulted fields, which a NamedTuple puts last
    x_gap: Optional[float] = None
    solution_set: Optional[str] = None


_NONSTANDARD_FORMS = {
    "S5": "mu * f(x, t, theta1, theta2, value)",
    "S9": "nu * f(x, t, theta1, theta2, value)",
    "S13": "mu*nu * f(x, t, theta1, theta2, value)",
    "S14": "mu*nu * f(t, theta1, theta2, value)",
    "S15": "mu*nu * f(x, theta1, theta2, value)",
    "S16": "mu*nu * f(theta1, theta2, value)",
}


def _s5_superfield(profiles, mu, ctx):
    """value = a(t) + tau h(t) + th2 l(t) + tau th2 b(t) with tau = mu x th1.

    tau is even (a product of two odd factors) and squares to zero, so h is
    an even profile while l and b are odd; the opposite of the standard
    cases, where the odd invariant is theta-like.
    """
    th1, th2 = ctx.gen("theta1"), ctx.gen("theta2")

    def jet(x, t, order):
        jx, jt = coordinate_jets(x, t, order, ctx)
        tau = jet_scale(jx, mu * th1, from_left=True)
        jth2 = jet_constant(jx.spec, th2)
        a, h, l, b = (profiles[name].jet(jt) for name in ("a", "h", "l", "b"))
        return theta_sum(a, (tau, h), (jth2, l), (tau * jth2, b))

    return Superfield(jet, ctx)


def nonstandard_obstruction(sub_id, ctx: AlgebraContext = DEFAULT_CONTEXT,
                            rng_seed=0) -> ObstructionRecord:
    """Why the listed subalgebras admit no standard invariant ansatz.

    Their odd invariant is nilpotent-valued (tau = mu * f or mu*nu * f), so
    it cannot serve as a coordinate.  For S5 the record carries the worked
    demonstration: substituting value = A(t, tau, theta2) with tau = mu x
    theta1 leaves x explicit in the would-be reduced equation, and the
    honest reduction by the even part {Q_x, P_x} forces value = k pi.
    """
    if sub_id not in _NONSTANDARD_FORMS:
        raise KeyError(f"no nonstandard record for {sub_id!r}; have {sorted(_NONSTANDARD_FORMS)}")
    form = _NONSTANDARD_FORMS[sub_id]
    if sub_id != "S5":
        return ObstructionRecord(sub_id, form, reducible=False,
                                 details={"reason": "nilpotent odd invariant"})

    rng = random.Random(rng_seed)
    mu = ctx.gen("mu")
    t0 = 0.7 + rng.uniform(0.0, 0.6)
    profiles = {
        "a": profile(ctx, (ctx.scalar(rng.uniform(0.6, 1.3)), _random_fn(rng))),
        "h": profile(ctx, (ctx.scalar(rng.uniform(0.5, 1.2)), _random_fn(rng))),
        "l": profile(ctx, (ctx.gen("D1"), _random_fn(rng))),
        "b": profile(ctx, (ctx.gen("D2"), _random_fn(rng))),
    }
    sf = _s5_superfield(profiles, mu, ctx)
    r1 = ssg_residual(sf, 1.0, t0)
    r2 = ssg_residual(sf, 2.0, t0)
    x_gap = (r2 - r1).norm()

    # the residual is affine in x, so the gap above is exactly the
    # coefficient that no choice of profiles can remove
    r3 = ssg_residual(sf, 3.0, t0)
    affine = ((r3 - r2) - (r2 - r1)).norm()

    # even-part reduction: value depends on t and theta2 only; the residual
    # collapses to -sin(value), so constants k pi pass and nothing else does
    kpi = {
        k: ssg_residual(constant_superfield(ctx.scalar(k * math.pi), ctx), 0.3, -0.8).norm()
        for k in (-1, 0, 1, 2)
    }
    off = constant_superfield(ctx.scalar(0.4), ctx)
    off_norm = ssg_residual(off, 0.3, -0.8).norm()
    probe = constant_superfield(ctx.scalar(math.pi) + ctx.gen("theta2") * ctx.gen("D1"), ctx)
    probe_norm = ssg_residual(probe, 0.3, -0.8).norm()

    return ObstructionRecord(
        "S5", form, reducible=False, x_gap=x_gap,
        solution_set="value = k*pi",
        details={
            "affine_defect": affine,
            "kpi_residuals": kpi,
            "offset_body_residual": off_norm,
            "odd_probe_residual": probe_norm,
        },
    )


def nonstandard_ids() -> tuple:
    return tuple(sorted(_NONSTANDARD_FORMS, key=lambda s: int(s[1:])))
