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

``step_count`` is the one rule for the range a march may take:
``integrate_profile_ode`` and ``reductions.solve_profile`` count steps by it,
and it refuses a march of more than ``MAX_STEPS`` steps.

``REDUCED_ODES`` holds what the rest of the program knows of each system:
its reduction case, the default ``(lo, hi, step)`` span of a ``solve``
run, the generator of its odd profile, and the mirror sign of ginv12 (+1)
and ginv17 (-1).  The background a = arcsin(k sn) solves the reduced even
rows at eps = -1 only, so a ginv system refuses eps = +1 with
``OutOfDomain``.  A ginv system carries its background, which keeps the
values of the last sigma it was asked for: one RK4 step evaluates
``jacobi`` at its midpoint and its endpoint only, and a caller that reads
the node just marched is answered from the memo.  The float march and the
Grassmann march of the same real data give the same bits once the float
samples are lifted: every sum and product happens in the same order.  That
holds while the state is finite.  At a non-finite state the two can part:
a Grassmann product with an exact zero drops an inf or NaN that float
arithmetic turns into NaN (ginv12 at sigma = 0 from data (inf, inf) has
d2 = -inf in the algebra and NaN on floats).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .analytic import COS, SIN
from .elliptic import jacobi
from .grassmann import GrassmannNumber, analytic_value, demote, scalar, worst_of


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


def integrate_profile_ode(
    system: OdeSystem, ics, sigma0: float, sigma1: float, step: float
) -> Trajectory:
    """Classical RK4 from sigma0 to sigma1 (either direction) at fixed step,
    over a range that ``step_count`` takes.

    ics = (value, first derivative) at sigma0.  Real data march on floats,
    and data with a ``GrassmannNumber`` entry march in that number's
    algebra, a real partner lifted to it.  Each sample holds the state the
    march holds at its node and the rhs there.
    """
    n = step_count(sigma0, sigma1, step)
    h = step if sigma1 > sigma0 else -step
    sup = [v for v in ics if isinstance(v, GrassmannNumber)]
    if sup:
        y, d = (v if isinstance(v, GrassmannNumber) else scalar(v, sup[0].ngen) for v in ics)
    else:
        y, d = float(ics[0]), float(ics[1])
    rhs = system.rhs

    def sample(sig, y, d):
        return OdeSample(sig, y, d, rhs(sig, y, d))

    samples = [sample(sigma0, y, d)]
    for i in range(n):
        sig = sigma0 + i * h
        y, d = _rk4_step(system, sig, y, d, h)
        samples.append(sample(sigma0 + (i + 1) * h, y, d))
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
