"""Reduced profile equations integrated as explicit second-order ODEs.

Each system is y'' = f(sigma, y, y') for one profile along the real
reduction variable, stepped with classical RK4.  The march keeps the type
of its data, in its state and in its samples: real data march on Python
floats and leave it as floats, and supernumber data march as Grassmann
numbers of their own algebra, so a nilpotent constant in the initial data
propagates exactly alongside the float body.  A nilpotent constant in the
equation (the rebp coupling K0) lifts a real state into the algebra at its
first rhs call, so the first sample of such a march keeps a float value
and d1 beside a supernumber d2.  Every sample keeps the second derivative
evaluated from the equation itself, which gives order-2 jet data at the
nodes without any differencing.

Four systems, by selector id:

  rebp    even profile of the traveling reduction,
          y'' = eps*(sin y cos y - K0 sin y), with conserved
          E = eps*y'^2/2 + cos(2y)/4 - K0 cos y
  ginv12  linear odd-sector profile over the elliptic background,
          y'' = -tan(a) a' y' + eps cos^2(a) y + eps cos(a) a'
  ginv17  same background, opposite forcing sign
  d16nu   damped odd profile of the scaling reduction over the
          background a = 0, y'' = -y'/(2s) - y/s

The reduced rows of each reduction case (``CASE_ROWS``, which
``reductions.CASES`` refers to, and ``traveling_rewrite_rows``) live here,
beside ``solve_profile``, which is ``solve`` itself: it marches one reduced
equation, evaluates its rows at every node and judges the run.  The rows
compute in the arithmetic of their inputs, so real inputs give float rows.

``step_count`` is the one rule for the range a march may take, and
``_march`` the one march loop, of ``integrate_profile_ode`` and
``solve_profile`` alike: the first marches a whole range at once, the second
takes its whole range with ``step_count`` once and marches it one step per
leg, so a leg far from the origin is never judged by its own rounded width.
``REDUCED_ODES`` holds what the rest of the program knows of each system,
its ``ReducedOde``.  The background a = arcsin(k sn) solves the reduced even
rows at eps = -1 only, so a ginv system refuses eps = +1 with
``OutOfDomain``.  A ginv system carries its background, which keeps the
values of the last sigma it was asked for: one RK4 step evaluates ``jacobi``
at its midpoint and its endpoint only, and a caller that reads the node just
marched is answered from the memo.  The float march and the Grassmann march
of the same real data give the same bits once the float samples are lifted:
every sum and product happens in the same order.  That holds while the state
is finite.  At a non-finite state the two can part: a Grassmann product with
an exact zero drops an inf or NaN that float arithmetic turns into NaN
(ginv12 at sigma = 0 from data (inf, inf) has d2 = -inf in the algebra and
NaN on floats).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .analytic import COS, RECIP, SIN
from .elliptic import jacobi
from .grassmann import (
    DEFAULT_ROLES, GrassmannNumber, analytic_value, demote, scalar, worst_count, worst_of,
)


class ReducedOde(NamedTuple):
    """One reduced equation's place among the reductions: its case, the
    (lo, hi, step) a solve marches when given no range, the generator that
    carries its odd profile in a node row, and, over the elliptic background
    only, the mirror sign of its forcing term, of beta = mirror*k*sn and of
    the catalog grid's sigma."""

    case: str
    span: tuple
    role: str | None = None
    mirror: float | None = None


REDUCED_ODES = {
    "rebp": ReducedOde("S4", (0.0, 3.0, 1.0 / 256)),
    "ginv12": ReducedOde("S12", (0.0, 2.0, 1.0 / 64), "nu", 1.0),
    "ginv17": ReducedOde("S8", (0.0, 2.0, 1.0 / 64), "mu", -1.0),
    "d16nu": ReducedOde("S1", (0.25, 2.25, 1.0 / 64), "D1"),
}

# |cos(alpha)| = |dn| below which the elliptic background counts as singular:
# tan(alpha) and the quotient partner g'/dn blow up there
NEAR_SINGULAR_COS = 1e-3


class NearSingular(RuntimeError):
    """A coefficient of the equation blows up inside the requested range."""


class OutOfDomain(ValueError):
    """The construction is not defined at the requested point or parameters."""


class SingularPoint(ValueError):
    """A reduced equation was evaluated where one of its terms blows up."""


# a profile value, derivative or rhs: a float on a real march, else a supernumber
Value = float | GrassmannNumber
Rhs = Callable[[float, Value, Value], Value]


@dataclass(frozen=True)
class OdeSystem:
    name: str
    rhs: Rhs
    energy: Rhs | None = None
    background: Callable[[float], dict] | None = None  # what the rhs reads


class OdeSample(NamedTuple):
    """What the march holds at one node, in the type it marched in."""

    sigma: float
    value: Value
    d1: Value
    d2: Value


class Trajectory(NamedTuple):
    system: OdeSystem
    samples: list

    def grid(self):
        return [s.sigma for s in self.samples]

    def at(self, sigma: float) -> OdeSample:
        sigmas = self.grid()
        i = bisect_left(sigmas, sigma)
        best = min(
            (j for j in (i - 1, i, i + 1) if 0 <= j < len(sigmas)),
            key=lambda j: abs(sigmas[j] - sigma),
        )
        if abs(sigmas[best] - sigma) > 1e-9:
            raise KeyError(f"no trajectory node near sigma={sigma}")
        return self.samples[best]


def check_eps(eps) -> float:
    eps = float(eps)
    if eps not in (-1.0, 1.0):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    return eps


# ------------------------------------------------------------------- systems


def traveling_profile_system(eps, coupling=0.0) -> OdeSystem:
    """y'' = eps*(sin y cos y - K0 sin y); K0 may be a nilpotent even constant.

    A soul-free K0 is held as a float, a zero of either sign as 0.0.  A
    nilpotent K0 takes a float y into its algebra first, so the rhs has its
    terms in the order a supernumber state gives them.
    """
    eps = check_eps(eps)
    if isinstance(coupling, GrassmannNumber):
        if not coupling.is_even():
            raise ValueError("the coupling constant must be even")
        k0 = demote(coupling)
    else:
        k0 = float(coupling) + 0.0
    lift = None if isinstance(k0, float) else k0.ngen

    def rhs(sig, y, d1):
        if lift is not None and isinstance(y, float):
            y = scalar(y, lift)
        s = analytic_value(SIN, y)
        c = analytic_value(COS, y)
        return (s * c - k0 * s) * eps

    def energy(sig, y, d1):
        return (
            d1 * d1 * (0.5 * eps)
            + analytic_value(COS, y * 2.0) * 0.25
            - k0 * analytic_value(COS, y)
        )

    return OdeSystem("rebp", rhs, energy=energy)


def elliptic_background(modulus: float) -> Callable[[float], dict]:
    """Background a(s) = arcsin(k sn(s, k)), so cos a = dn and a' = k cn.

    The values of the last sigma asked for are kept: RK4's k2 and k3 share
    the midpoint, and k4, the node's rhs and the next leg's start share the
    endpoint.  The key is the exact float, the sign of a zero included, and
    the slot is replaced as one tuple, so threads sharing a system never
    read a torn pair.  A sigma that raises ``NearSingular`` is not kept.
    The values hold the raw ``jacobi`` triple too, for callers that form
    their own products of sn, cn and dn.
    """
    k = float(modulus)
    if not abs(k) < 1.0:
        raise ValueError(f"modulus must satisfy |k| < 1, got {k}")
    m = k * k
    last = (None, 0.0, None)  # (sigma, sign of sigma, values)

    def bg(sig: float) -> dict:
        nonlocal last
        key, sign, values = last
        if sig == key and math.copysign(1.0, sig) == sign:
            return values
        trip = jacobi(sig, m)
        cos_a = trip.dn
        if abs(cos_a) < NEAR_SINGULAR_COS:
            raise NearSingular(f"cos(alpha) = {cos_a} at sigma = {sig}")
        values = {
            "alpha_d1": k * trip.cn,
            "cos_alpha": cos_a,
            "sin_alpha": k * trip.sn,
            "jacobi": trip,
        }
        last = (sig, math.copysign(1.0, sig), values)
        return values

    return bg


def odd_profile_system(name: str, eps, modulus) -> OdeSystem:
    """The two linear odd-sector equations over the elliptic background.

    They differ only in the sign of the inhomogeneous term, the record's
    mirror: "ginv12" drives with +eps cos(a) a', "ginv17" with -eps cos(a) a'.
    The background a = arcsin(k sn) has a'' = -sin a cos a while the reduced
    even rows ask a'' = eps sin a cos a, so eps = +1 is out of its domain.
    """
    mirror = REDUCED_ODES[name].mirror if name in REDUCED_ODES else None
    if mirror is None:
        raise ValueError(f"unknown odd-profile system {name!r}")
    eps = check_eps(eps)
    if eps != -1.0:
        raise OutOfDomain(
            f"the background arcsin(k sn) solves the reduced rows at eps = -1 only, got {eps}"
        )
    bg = elliptic_background(modulus)

    def rhs(sig, y, d1):
        b = bg(sig)
        c = b["cos_alpha"]
        fric = b["sin_alpha"] * b["alpha_d1"] / c
        drive = mirror * eps * c * b["alpha_d1"]
        return d1 * (-fric) + y * (eps * c * c) + drive

    return OdeSystem(name, rhs, background=bg)


def scaling_odd_system() -> OdeSystem:
    """y'' = -y'/(2s) - y/s, the scaling equation over the background a = 0."""

    def rhs(sig, y, d1):
        if abs(sig) < 1e-9:
            raise NearSingular("the scaling reduction has a pole at sigma = 0")
        return d1 * (-0.5 / sig) + y * (-1.0 / sig)

    return OdeSystem("d16nu", rhs)


def make_system(name: str, *, eps=-1.0, coupling=0.0, modulus=0.7) -> OdeSystem:
    """The system ``name``; each builder ignores the keywords it does not take,
    and is looked up as a module global, so a wrapper bound over it sees
    every system made here."""
    if name not in REDUCED_ODES:
        raise ValueError(f"unknown system {name!r}; have {tuple(REDUCED_ODES)}")
    if REDUCED_ODES[name].mirror is not None:
        return odd_profile_system(name, eps, modulus)
    if name == "rebp":
        return traveling_profile_system(eps, coupling)
    return scaling_odd_system()


# --------------------------------------------------------------- integration


def _rk4_step(system: OdeSystem, sig: float, y, d, h: float):
    k1d = system.rhs(sig, y, d)
    y2 = y + d * (h / 2)
    d2 = d + k1d * (h / 2)
    k2d = system.rhs(sig + h / 2, y2, d2)
    y3 = y + d2 * (h / 2)
    d3 = d + k2d * (h / 2)
    k3d = system.rhs(sig + h / 2, y3, d3)
    y4 = y + d3 * h
    d4 = d + k3d * h
    k4d = system.rhs(sig + h, y4, d4)
    ynew = y + (d + d2 * 2.0 + d3 * 2.0 + d4) * (h / 6)
    dnew = d + (k1d + k2d * 2.0 + k3d * 2.0 + k4d) * (h / 6)
    return ynew, dnew


# a march of more steps would not end in useful time; the longest march that
# the program's commands and tests take today has 7,680 steps
MAX_STEPS = 10**7


def step_count(lo: float, hi: float, step: float) -> int:
    """The number of steps of size ``step`` from lo to hi in either direction,
    the one range rule of every march.  A step that is not positive, a step
    count that is not finite or above ``MAX_STEPS``, or a range that is empty
    or not a whole number of steps (to 1e-9 relative) raises ``ValueError``."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    width = abs(hi - lo)
    count = width / step
    if not math.isfinite(count):
        raise ValueError(f"range {lo}:{hi}:{step} has no finite step count")
    if count > MAX_STEPS:
        raise ValueError(f"range {lo}:{hi}:{step} takes more than {MAX_STEPS} steps")
    n = round(count)
    if n < 1 or abs(width - n * step) > 1e-9 * max(1.0, width):
        raise ValueError(f"range {lo}:{hi}:{step} is empty or not a whole number of steps")
    return n


def _march(system: OdeSystem, y, d, sigma0: float, h: float, n: int) -> list:
    """The n + 1 samples of ``n`` RK4 steps of signed size ``h`` from (y, d)
    at sigma0, the one march loop of the module.

    The start sample gets its rhs, then step i starts at ``sigma0 + i*h`` and
    its node sits at ``sigma0 + (i+1)*h``.  It checks nothing and types
    nothing: the caller has taken the range with ``step_count`` and given the
    data the type they march in.
    """
    rhs = system.rhs
    samples = [OdeSample(sigma0, y, d, rhs(sigma0, y, d))]
    for i in range(n):
        y, d = _rk4_step(system, sigma0 + i * h, y, d, h)
        sig = sigma0 + (i + 1) * h
        samples.append(OdeSample(sig, y, d, rhs(sig, y, d)))
    return samples


def integrate_profile_ode(
    system: OdeSystem, ics, sigma0: float, sigma1: float, step: float
) -> Trajectory:
    """Classical RK4 from sigma0 to sigma1 (either direction) at fixed step,
    over a range that ``step_count`` takes.

    ics = (value, first derivative) at sigma0.  Real data march on floats,
    and data with a ``GrassmannNumber`` entry march in that number's
    algebra, a real partner lifted to it.  Each sample holds the state the
    march holds at its node and the rhs there.  The steps are ``_march``'s,
    and a downward range's samples are reversed, so they run lo to hi.
    """
    n = step_count(sigma0, sigma1, step)
    h = step if sigma1 > sigma0 else -step
    sup = [v for v in ics if isinstance(v, GrassmannNumber)]
    if sup:
        y, d = (v if isinstance(v, GrassmannNumber) else scalar(v, sup[0].ngen) for v in ics)
    else:
        y, d = float(ics[0]), float(ics[1])
    samples = _march(system, y, d, sigma0, h, n)
    if h < 0:
        samples.reverse()
    return Trajectory(system, samples)


def integrate_two_sided(system: OdeSystem, ics, lo: float, hi: float, step: float) -> Trajectory:
    """One trajectory over [lo, hi] with the initial data posed at 0."""
    if not lo <= 0.0 <= hi:
        raise ValueError(f"origin 0 outside [{lo}, {hi}]")
    parts = []
    if lo < 0.0:
        parts.append(integrate_profile_ode(system, ics, 0.0, lo, step).samples[:-1])
    if 0.0 < hi:
        parts.append(integrate_profile_ode(system, ics, 0.0, hi, step).samples)
    if not parts:
        raise ValueError("empty integration range")
    samples = [s for chunk in parts for s in chunk]
    return Trajectory(system, samples)


def first_integral_check(traj: Trajectory) -> float:
    """Max norm of E(sigma) - E(start) along the trajectory."""
    return worst_of(energy_drifts(traj))


def energy_drifts(traj: Trajectory):
    """Norm of E(sigma) - E(start) at every sample, the start included.

    A float sample gives the energy a float, and the drift of a float
    energy is its absolute value: the norm of the same body.
    """
    energy = traj.system.energy
    if energy is None:
        raise ValueError(f"system {traj.system.name!r} has no first integral")
    e0 = None
    for s in traj.samples:
        e = energy(s.sigma, s.value, s.d1)
        if e0 is None:
            e0 = e
        drift = e - e0
        yield abs(drift) if isinstance(drift, float) else drift.norm()


def drift_ratio(system, ics, sigma0, sigma1, step) -> float:
    """First-integral drift at step h over drift at h/2; ~16 for RK4."""
    a = first_integral_check(integrate_profile_ode(system, ics, sigma0, sigma1, step))
    b = first_integral_check(integrate_profile_ode(system, ics, sigma0, sigma1, step / 2))
    if b == 0.0:
        raise ValueError("zero drift at the halved step; nothing to compare")
    return a / b


# ------------------------------------------------------------ reduced rows
# One function per case.  pv maps profile name to the list [f, f', f''] at
# sigma; rows are stated left to right exactly as solved.


def sin_cos(a0):
    return analytic_value(SIN, a0), analytic_value(COS, a0)


def _rows_s1(pv, sig, p):
    a, m, n, b = pv["alpha"], pv["mu"], pv["nu"], pv["beta"]
    sin_a, cos_a = sin_cos(a[0])
    return (
        b[0] + sin_a,
        n[1] - m[0] * cos_a,
        sig * m[1] + m[0] * 0.5 + n[0] * cos_a,
        a[1] + sig * a[2] - b[0] * cos_a - m[0] * n[0] * sin_a,
    )


def _rows_s2(pv, sig, p):
    a, m, n, b = pv["alpha"], pv["mu"], pv["nu"], pv["beta"]
    sin_a, cos_a = sin_cos(a[0])
    return (
        b[0] + sin_a,
        m[0] * cos_a,
        m[1] + n[0] * cos_a,
        b[0] * cos_a + m[0] * n[0] * sin_a,
    )


def _rows_s3(pv, sig, p):
    a, m, n, b = pv["alpha"], pv["mu"], pv["nu"], pv["beta"]
    sin_a, cos_a = sin_cos(a[0])
    return (
        b[0] + sin_a,
        n[1] - m[0] * cos_a,
        n[0] * cos_a,
        b[0] * cos_a + m[0] * n[0] * sin_a,
    )


def _rows_s4(pv, sig, p):
    a, m, n, b = pv["alpha"], pv["mu"], pv["nu"], pv["beta"]
    e = p["eps"]
    sin_a, cos_a = sin_cos(a[0])
    return (
        b[0] + sin_a,
        n[1] - m[0] * cos_a,
        m[1] * e - n[0] * cos_a,
        a[2] * e + b[0] * cos_a + m[0] * n[0] * sin_a,
    )


def _rows_s6(pv, sig, p):
    a, h, l, b = pv["alpha"], pv["eta"], pv["lambda"], pv["beta"]
    mu = p["mu"]
    sin_a, cos_a = sin_cos(a[0])
    return (
        b[0] + sin_a,
        mu * b[0] - h[0] * cos_a,
        h[1] + l[0] * cos_a,
        mu * h[1] + b[0] * cos_a + h[0] * l[0] * sin_a,
    )


def _rows_s7(pv, sig, p):
    a, h, l, b = pv["alpha"], pv["eta"], pv["lambda"], pv["beta"]
    mu = p["mu"]
    sin_a, cos_a = sin_cos(a[0])
    return (
        b[0] + sin_a,
        l[1] - h[0] * cos_a,
        mu * a[1] - l[0] * cos_a,
        mu * h[1] + b[0] * cos_a + h[0] * l[0] * sin_a,
    )


def _rows_s8(pv, sig, p):
    a, h, l, b = pv["alpha"], pv["eta"], pv["lambda"], pv["beta"]
    mu, e = p["mu"], p["eps"]
    sin_a, cos_a = sin_cos(a[0])
    return (
        b[0] + sin_a,
        l[1] * e - h[0] * cos_a,
        h[1] + mu * a[1] - l[0] * cos_a,
        a[2] * e + mu * h[1] + b[0] * cos_a + h[0] * l[0] * sin_a,
    )


def _rows_s10(pv, sig, p):
    a, h, l, b = pv["alpha"], pv["eta"], pv["lambda"], pv["beta"]
    nu = p["nu"]
    sin_a, cos_a = sin_cos(a[0])
    return (
        b[0] - sin_a,
        l[1] + h[0] * cos_a,
        nu * a[1] + l[0] * cos_a,
        nu * h[1] - b[0] * cos_a - h[0] * l[0] * sin_a,
    )


def _rows_s11(pv, sig, p):
    a, h, l, b = pv["alpha"], pv["eta"], pv["lambda"], pv["beta"]
    nu = p["nu"]
    sin_a, cos_a = sin_cos(a[0])
    return (
        b[0] - sin_a,
        nu * b[0] + h[0] * cos_a,
        h[1] - l[0] * cos_a,
        nu * h[1] - b[0] * cos_a - h[0] * l[0] * sin_a,
    )


def _rows_s12(pv, sig, p):
    a, h, l, b = pv["alpha"], pv["eta"], pv["lambda"], pv["beta"]
    nu, e = p["nu"], p["eps"]
    sin_a, cos_a = sin_cos(a[0])
    return (
        b[0] - sin_a,
        l[1] + h[0] * cos_a,
        nu * a[1] + h[1] * e + l[0] * cos_a,
        a[2] * e + nu * h[1] - b[0] * cos_a - h[0] * l[0] * sin_a,
    )


CASE_ROWS = {
    "S1": _rows_s1, "S2": _rows_s2, "S3": _rows_s3, "S4": _rows_s4, "S6": _rows_s6,
    "S7": _rows_s7, "S8": _rows_s8, "S10": _rows_s10, "S11": _rows_s11, "S12": _rows_s12,
}


def traveling_rewrite_rows(pv, eps: float, constant=None):
    """Second-order form of the traveling reduction; constant defaults to mu nu."""
    a, m, n, b = pv["alpha"], pv["mu"], pv["nu"], pv["beta"]
    sin_a, cos_a = sin_cos(a[0])
    if abs(cos_a if isinstance(cos_a, float) else cos_a.body) < 1e-12:
        raise SingularPoint("cos(alpha) vanishes; tan(alpha) row undefined")
    inv_cos = analytic_value(RECIP, cos_a)
    tan_a = sin_a * inv_cos
    k0 = constant if constant is not None else m[0] * n[0]
    return (
        a[2] * eps - sin_a * cos_a + k0 * sin_a,
        n[2] + tan_a * n[1] * a[1] - cos_a * cos_a * n[0] * eps,
        m[0] - inv_cos * n[1],
        b[0] + sin_a,
        m[1] * n[0] + m[0] * n[1],
    )


# ------------------------------------------------------------------- solve


def _ginv_node_row(system, sample, eps, k, ctx):
    """Reduced-row values at one trajectory node.

    The integrated profile rides the third expansion slot; its quotient
    partner (scaled derivative over dn) rides the second.  Derivatives of
    the quotient come from the product and quotient rules over the same
    elliptic data, so every number in the rows shares one source: the
    ``jacobi`` triple of the system's background at the node.  Called right
    after the node is marched, the background answers from its memo.
    """
    rec = REDUCED_ODES[system.name]
    m = k * k
    tr = system.background(sample.sigma)["jacobi"]
    g_ = ctx.gen(rec.role)
    dn1 = -m * tr.sn * tr.cn
    f0 = (sample.d1 * eps) * (1.0 / tr.dn)
    f1 = (sample.d2 * tr.dn - sample.d1 * dn1) * (eps / tr.dn ** 2)
    alpha = math.asin(k * tr.sn)
    pv = {
        "alpha": [alpha, k * tr.cn, -k * tr.sn * tr.dn],
        "eta": [g_ * f0, g_ * f1, 0.0],
        "lambda": [g_ * sample.value, g_ * sample.d1, g_ * sample.d2],
        "beta": [rec.mirror * k * tr.sn, 0.0, 0.0],
    }
    rows = CASE_ROWS[rec.case](pv, sample.sigma, {"eps": eps, rec.role: g_})
    return rows, alpha, sample.value + 0.0, f0 + 0.0


def _d16_node_row(sample, ctx):
    rec = REDUCED_ODES["d16nu"]
    g_ = ctx.gen(rec.role)
    pv = {
        "alpha": [0.0, 0.0, 0.0],
        "mu": [g_ * sample.d1, g_ * sample.d2, 0.0],
        "nu": [g_ * sample.value, g_ * sample.d1, 0.0],
        "beta": [0.0, 0.0, 0.0],
    }
    rows = CASE_ROWS[rec.case](pv, sample.sigma, {})
    return rows, 0.0, sample.value + 0.0, sample.d1 + 0.0


def _rebp_node_row(sample, eps, k0):
    alpha = [sample.value, sample.d1, sample.d2]
    pv = {
        "alpha": alpha,
        "mu": [0.0, 0.0, 0.0],
        "nu": [0.0, 0.0, 0.0],
        "beta": [analytic_value(SIN, alpha[0]) * -1.0, 0.0, 0.0],
    }
    rows = traveling_rewrite_rows(pv, eps, constant=k0)
    return rows, sample.value + 0.0, None, None


def _node_row(system, sample, ctx, eps, coupling, modulus):
    """(rows, alpha, g, f) at one node of a real march.

    The rows compute on the node's floats, and a ginv or d16nu row becomes a
    supernumber only through ``ctx.gen(role)``, the generator of its odd
    profile.  A cell of the marched profile adds 0.0, so a zero of either
    sign prints as 0.0, the bytes solve reports have always had; a ginv
    row's alpha is the background's own and keeps its sign.
    """
    if system.background is not None:
        return _ginv_node_row(system, sample, eps, modulus, ctx)
    if system.name == "rebp":
        return _rebp_node_row(sample, eps, coupling)
    return _d16_node_row(sample, ctx)


def solve_profile(ode, span, ics, *, ctx, tol, eps, coupling, modulus):
    """``(nodes, summary)`` of ``ode`` marched over ``span`` = (lo, hi, step)
    from ``ics`` = (value, derivative) at lo; input it cannot take raises
    ``ValueError`` before the march: a context without the ode's generator
    role, a range that ``step_count`` refuses, or one that runs downward.

    A node is (sigma, alpha, g, f, residual body, residual soul norm), None
    where a cell has no value.  The march goes one node at a time, a
    one-step ``_march`` from the last node at ``lo + i*step``, so a
    singularity flags the rest of the range and an overflow ends the march;
    both keep the nodes marched so far.  A leg takes 6 rhs calls, its start
    sample's included, so n steps take 6n + 1.  Each node's residuals are
    its rows' worst |body| and worst soul coefficient, found in one pass by
    ``worst_count``'s rule.  The run passes only when every node of the
    range has its rows, no range is flagged, the worst residual is within
    ``tol`` and the drift, where there is one, is finite.
    """
    role = REDUCED_ODES[ode].role
    if role is not None and ctx.generator_count <= DEFAULT_ROLES[role]:
        raise ValueError(
            f"ode {ode!r} needs at least {DEFAULT_ROLES[role] + 1} generators, "
            f"have {ctx.generator_count}"
        )
    if role is not None and role not in ctx.roles:
        raise ValueError(f"ode {ode!r} needs the generator role {role!r}, which the context lacks")
    lo, hi, step = span
    n_steps = step_count(lo, hi, step)
    if hi < lo:
        raise ValueError(f"range {lo}:{hi}:{step} runs downward; a solve needs lo < hi")
    system = make_system(ode, eps=eps, coupling=coupling, modulus=modulus)

    # each leg marches on floats from the previous node, and each node's row
    # is taken at once, while the ginv memo holds its sigma
    samples, nodes, flagged = [], [], []

    def take(node):
        samples.append(node)
        try:
            rows, alpha, gval, fval = _node_row(system, node, ctx, eps, coupling, modulus)
        except SingularPoint:
            flagged.append([node.sigma, node.sigma])
            nodes.append((node.sigma, None, None, None, None, None))
            return
        # the worst |body| of every row and the worst |c| of every soul term,
        # by worst_count's rule, so a NaN anywhere stays NaN
        body = soul = 0.0
        for r in rows:
            if isinstance(r, float):
                v = abs(r)
            else:
                v = 0.0
                for mask, c in r.terms.items():
                    if mask:
                        c = abs(c)
                        if c > soul or c != c:
                            soul = c
                    else:
                        v = abs(c)
            if v > body or v != v:
                body = v
        nodes.append((node.sigma, alpha, gval, fval, body, soul))

    y, d = float(ics[0]), float(ics[1])
    s0 = lo
    try:
        node = OdeSample(lo, y, d, system.rhs(lo, y, d))
        take(node)
        for i in range(n_steps):
            s0 = lo + i * step
            node = _march(system, node.value, node.d1, s0, step, 1)[-1]
            take(node)
    except NearSingular:
        flagged.append([s0, hi])
    except ValueError:  # the range was checked once, so only a number the march made raises
        pass

    rowed = [n for n in nodes if n[4] is not None]
    worst_body, emitted = worst_count(n[4] for n in rowed)
    worst_soul = worst_of(n[5] for n in rowed)
    drift = None
    if system.energy is not None and len(samples) >= 2:
        try:
            drift = first_integral_check(Trajectory(system, samples))
        except ValueError:  # cos(2y) of a finite y whose double overflows
            drift = math.nan
    # a drift that overflowed is no measurement; its JSON null reads as none
    passed = (
        emitted == n_steps + 1
        and not flagged
        and worst_of((worst_body, worst_soul)) <= tol
        and (drift is None or math.isfinite(drift))
    )
    summary = {
        "ode": ode,
        "case": REDUCED_ODES[ode].case,
        "range": [lo, hi, step],
        "samples": emitted,
        "max_residual_body": worst_body,
        "max_residual_soul_norm": worst_soul,
        "tolerance": tol,
        "drift": drift,
        "flagged": flagged,
        "status": "pass" if passed else "fail",
    }
    return nodes, summary
