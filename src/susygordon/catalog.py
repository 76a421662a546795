"""Catalog of exact solutions of the supersymmetric sine-Gordon equation.

Every entry couples a recipe for the full superfield with the sampling
domain the construction is certified on and the residual tolerance it is
known to meet there.  Three tiers:

* vacuum towers and their odd dressings: closed forms, machine precision;
* kink, scaling and elliptic profiles: closed forms through analytic
  derivative ladders, near machine precision;
* odd sectors riding on an elliptic background: the even part is closed
  form, the odd part comes from an integrated linear equation whose node
  data closes all higher derivatives through the equation itself.

Entry names are stable catalog keys; the command line layer exposes them
verbatim.  Builders take a parameter dict (defaults per entry) and an
algebra context, and return a ``Superfield`` whose residual can be checked
pointwise with ``ssg_residual``.
"""

import math
from typing import Callable, NamedTuple

from .analytic import (
    ARCCOS,
    ARCSIN,
    COS,
    SECH,
    SIN,
    TANH,
    Poly,
    Power,
    TaylorFn,
    TaylorQ,
)
from .elliptic import JacobiCn, JacobiDn, JacobiSn
from .grassmann import (
    DEFAULT_CONTEXT,
    TIER_DEFAULTS,
    AlgebraContext,
    GrassmannNumber,
    ParityError,
    worst_of,
)
from .odes import NEAR_SINGULAR_COS, REDUCED_ODES, NearSingular, integrate_two_sided, make_system
from .reductions import build_ansatz, const_profile, profile, zero_profile
from .superfield import (
    Superfield,
    component_superfield,
    constant_component,
    constant_superfield,
    profile_component,
    ssg_residual,
)
from .superjet import (
    jet_add,
    jet_apply_analytic,
    jet_constant,
    jet_scale,
)


def _odd_param(value, name: str, ctx: AlgebraContext, role: str | None = None) -> GrassmannNumber:
    # role: which context generator backs the default; names the parameter
    # keeps for error messages even when the slot rides another generator
    if value is None:
        return ctx.gen(role or name)
    if not isinstance(value, GrassmannNumber):
        raise TypeError(f"{name} must be an odd supernumber")
    if not value.is_odd():
        raise ParityError(f"{name} must be odd")
    return value


def _whole(v) -> int:
    if v != int(v):
        raise ValueError(f"k must be a whole number, got {v}")
    return int(v)


class SolutionEntry(NamedTuple):
    """One catalog row: how to build the field and where it is certified."""

    name: str
    subalgebra: str
    tier: str  # a key of TIER_DEFAULTS
    summary: str
    domain: str
    defaults: dict
    builder: Callable
    grid_fn: Callable
    notes: str = ""

    @property
    def tolerance(self) -> float:
        return TIER_DEFAULTS[self.tier]


class EntryCheck(NamedTuple):
    name: str
    subalgebra: str
    max_residual: float
    tolerance: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


# -------------------------------------------------------- vacuum towers


def _vacuum_builder(p, ctx):
    k = _whole(p["k"])
    return constant_superfield(ctx.scalar(k * math.pi), ctx)


def _half_weight(k: int) -> float:
    # theta1 theta2 coefficient that balances sin((k + 1/2) pi) = (-1)^k
    return -1.0 if k % 2 == 0 else 1.0


def _dressed_vacuum(case: str, name: str, slot: str):
    """Builder of the shifted vacuum on ``case`` dressed by the odd constant
    ``name`` (by default the mu0 generator): both odd slots hold it, and
    ``slot`` holds it times the entry's profile."""

    def build(p, ctx):
        k = _whole(p["k"])
        c = _odd_param(p[name], name, ctx, role="mu0")
        bare = const_profile(c, ctx)
        profiles = {
            "alpha": const_profile((k + 0.5) * math.pi, ctx),
            "mu": bare,
            "nu": bare,
            "beta": const_profile(_half_weight(k), ctx),
            slot: profile(ctx, (c, p["profile"])),
        }
        return build_ansatz(case, profiles, ctx=ctx)

    return build


def _mirrored_dressing(name: str, profiled: str):
    """Builder of the shifted vacuum dressed by the odd constants c =
    ``name`` and lambda0: gian1E is ("mu", "phi") and gian1G ("nu", "psi").

    ``profiled`` selects the mirror.  That component is c lambda0 times the
    profile of its own coordinate (x for phi, t for psi); the other is
    lambda0 plus c times its coordinate, weighted by the theta1 theta2 weight
    w in gian1E's psi and by -w in gian1G's phi.  Products of two odd
    constants are even, a shape the reduction builder refuses, so the field
    is assembled from its components.
    """

    def build(p, ctx):
        k = _whole(p["k"])
        c = _odd_param(p[name], name, ctx)
        lam = _odd_param(p["lambda0"], "lambda0", ctx)
        fn = p["profile"]
        w = _half_weight(k)
        slope = w if profiled == "phi" else -w

        def dressed(jet):
            return jet_scale(jet_apply_analytic(jet, fn), c * lam, from_left=True)

        def affine(jet):
            return jet_add(jet_constant(jet.spec, lam), jet_scale(jet, c * slope, from_left=True))

        phi, psi = (dressed, affine) if profiled == "phi" else (affine, dressed)
        return component_superfield(
            constant_component(ctx.scalar((k + 0.5) * math.pi)),
            profile_component(lambda jx, jt: phi(jx), ctx),
            profile_component(lambda jx, jt: psi(jt), ctx),
            constant_component(ctx.scalar(w)),
            ctx,
        )

    return build


# ------------------------------------------- closed-form profile entries


def _build_d5(p, ctx):
    d1 = _odd_param(p["D1"], "D1", ctx)
    profiles = {
        "alpha": profile(ctx, (1.0, TaylorFn(lambda s: s.apply(TANH).apply(ARCSIN)))),
        "mu": profile(ctx, (d1, SECH)),
        "nu": profile(ctx, (d1, TANH)),
        "beta": profile(ctx, (-1.0, TANH)),
    }
    return build_ansatz("S4", profiles, params={"eps": -1.0}, ctx=ctx)


_COS_TWO_ROOT = TaylorFn(lambda s: (s.apply(Power(0.5)) * 2.0).apply(COS))
_SIN_TWO_ROOT = TaylorFn(lambda s: (s.apply(Power(0.5)) * 2.0).apply(SIN))
_DAMPED_COS = TaylorFn(lambda s: s.apply(Power(-0.5)) * _COS_TWO_ROOT.builder(s))
_DAMPED_SIN = TaylorFn(lambda s: s.apply(Power(-0.5)) * _SIN_TWO_ROOT.builder(s))


def oscillatory_pair_profiles(d1, d2, ctx: AlgebraContext = DEFAULT_CONTEXT) -> dict:
    """The scaling case's purely odd oscillatory pair with odd amplitudes
    d1, d2; its nilpotent invariant is d1 d2 exactly."""
    return {
        "alpha": zero_profile(ctx),
        "mu": profile(ctx, (d1, _DAMPED_COS), (d2 * -1.0, _DAMPED_SIN)),
        "nu": profile(ctx, (d1, _SIN_TWO_ROOT), (d2, _COS_TWO_ROOT)),
        "beta": zero_profile(ctx),
    }


def _build_d18(p, ctx):
    d1 = _odd_param(p["D1"], "D1", ctx)
    d2 = _odd_param(p["D2"], "D2", ctx)
    return build_ansatz("S1", oscillatory_pair_profiles(d1, d2, ctx), ctx=ctx)


def _d3_pq(s: TaylorQ):
    sn = s.apply(JacobiSn(-1.0))
    dn = s.apply(JacobiDn(-1.0))
    w = sn / (dn + 1.0)
    return 1.0 - w * w, (w + 1.0) ** 2


def _build_d3(p, ctx):
    d1 = _odd_param(p["D1"], "D1", ctx)

    def mu_series(s):
        ps, qs = _d3_pq(s)
        return ps / qs + qs / ps

    def nu_series(s):
        ps, qs = _d3_pq(s)
        return qs / ps - ps / qs

    profiles = {
        "alpha": profile(ctx, (1.0, TaylorFn(lambda s: s.apply(JacobiCn(-1.0)).apply(ARCCOS)))),
        "mu": profile(ctx, (d1, TaylorFn(mu_series))),
        "nu": profile(ctx, (d1, TaylorFn(nu_series))),
        "beta": profile(ctx, (-1.0, JacobiSn(-1.0))),
    }
    return build_ansatz("S4", profiles, params={"eps": 1.0}, ctx=ctx)


# ------------------------------------- quadrature-backed odd dressings


class _OdeBackedFn:
    """g(sigma) read off trajectory nodes; derivatives 3 and 4 are closed
    through the equation g'' = -F g' + eps D g + C with elliptic F, D, C.

    The coefficient series are built once per sigma and order: the lambda
    profile and the eta quotient ask for the same ones at every grid point.
    A zero's sign can move a series' bits, and a lower order's series need
    not be a bit prefix of a higher one's, so both stay in the key.
    """

    def __init__(self, traj, eps: float, force: float, modulus: float):
        self.traj = traj
        self.eps = eps
        self.force = force
        self.k = modulus
        self.m = modulus * modulus
        self._series = {}

    def _coeff_series(self, x: float, order: int):
        s = TaylorQ.var(x, order)
        snq = s.apply(JacobiSn(self.m))
        cnq = s.apply(JacobiCn(self.m))
        dnq = s.apply(JacobiDn(self.m))
        fric = snq * cnq * self.m / dnq
        dn2 = dnq * dnq
        drive = cnq * dnq * (self.force * self.eps * self.k)
        return fric.derivs(), dn2.derivs(), drive.derivs()

    def derivs(self, x, n):
        if n > 4:
            raise ValueError("the equation closes derivatives up to order 4 only")
        s = self.traj.at(x)
        out = [s.value, s.d1, s.d2]
        if n <= 2:
            return out[: n + 1]
        key = (x, math.copysign(1.0, x), n - 2)
        series = self._series.get(key)
        if series is None:
            # a concurrent first fill only builds an equal value
            series = self._series[key] = self._coeff_series(x, n - 2)
        fd, dd, cd = series
        g0, g1, g2 = out
        g3 = -fd[1] * g1 - fd[0] * g2 + self.eps * (dd[1] * g0 + dd[0] * g1) + cd[1]
        out.append(g3)
        if n == 4:
            g4 = (
                -fd[2] * g1
                - 2.0 * fd[1] * g2
                - fd[0] * g3
                + self.eps * (dd[2] * g0 + 2.0 * dd[1] * g1 + dd[0] * g2)
                + cd[2]
            )
            out.append(g4)
        return out


class _OddQuotientFn:
    """The partner profile f = scale * g' / dn through series division."""

    def __init__(self, gfn: _OdeBackedFn, scale: float, m: float):
        self.gfn = gfn
        self.scale = scale
        self.m = m

    def derivs(self, x, n):
        if n > 3:
            raise ValueError("quotient derivatives stop at order 3")
        gd = self.gfn.derivs(x, n + 1)
        num = TaylorQ([gd[1 + j] / math.factorial(j) for j in range(n + 1)])
        den = TaylorQ.var(x, n).apply(JacobiDn(self.m))
        if abs(den.c[0]) < NEAR_SINGULAR_COS:
            raise NearSingular(f"cos(alpha) = {den.c[0]} at sigma = {x}")
        return ((num / den) * self.scale).derivs()


# the reduced equation each integrated entry rides
_GINV_ODES = {"ginv9": "ginv12", "ginv14": "ginv17"}


def _ginv_parts(name: str, p, ctx):
    """(case id, reduced profiles, case parameters) of the integrated entry
    ``name``; the ODE layer refuses an eps or a modulus its background does
    not take."""
    ode = _GINV_ODES[name]
    rec = REDUCED_ODES[ode]
    k = float(p["modulus"])
    m = k * k
    half = float(p["halfwidth"])
    step = float(p["step"])
    system = make_system(ode, eps=p["eps"], modulus=k)
    eps = float(p["eps"])
    traj = integrate_two_sided(system, (float(p["g0"]), float(p["g1"])), -half, half, step)
    gfn = _OdeBackedFn(traj, eps, rec.mirror, k)
    ffn = _OddQuotientFn(gfn, eps, m)
    g = _odd_param(p[rec.role], rec.role, ctx)
    alpha_fn = TaylorFn(lambda s: (s.apply(JacobiSn(m)) * k).apply(ARCSIN))
    profiles = {
        "alpha": profile(ctx, (1.0, alpha_fn)),
        "eta": profile(ctx, (g, ffn)),
        "lambda": profile(ctx, (g, gfn)),
        "beta": profile(ctx, (rec.mirror * k, JacobiSn(m))),
    }
    return rec.case, profiles, {"eps": eps, rec.role: g}


# ------------------------------------------------------- default grids


_ANY_GRID = ((0.5, 0.5), (1.25, -0.75), (2.0, 1.5), (-1.0, 0.8), (0.0, 2.0), (1.7, 0.3))


def _grid_anywhere(p, ctx):
    return _ANY_GRID


def _grid_square(p, ctx):
    xs = (0.5, 1.125, 1.75, 2.375, 3.0)
    return tuple((x, t) for x in xs for t in xs)


def _grid_d3(p, ctx):
    sigmas = (0.3, 0.7, 1.1, 1.5, 1.9, 2.3)
    return tuple((s + t, t) for s in sigmas for t in (0.25, 1.0))


_GINV_SIGMAS = (-2.0, -1.5, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0)


def _grid_ginv(sign: float):
    """Grid of an integrated entry whose sigma body is ``sign * (x + t)`` on
    the eps = -1 branch, over the sigmas its trajectory covers;
    quarter-aligned points land exactly on trajectory nodes."""

    def grid(p, ctx):
        half = float(p["halfwidth"])
        sigmas = [s for s in _GINV_SIGMAS if abs(s) <= half]
        return tuple((sign * s - t, t) for s in sigmas for t in (0.25, 0.75))

    return grid


# ----------------------------------------------------------- registry


# defaults of the two integrated entries, besides their odd constant
_GINV_DEFAULTS = {
    "eps": -1.0,
    "modulus": 0.7,
    "g0": 0.0,
    "g1": 1.0,
    "halfwidth": 2.25,
    "step": 1.0 / 64.0,
}


def _vacuum_entry(name: str, subalgebra: str,
                  summary: str = "constant vacuum, value = k*pi") -> SolutionEntry:
    return SolutionEntry(
        name=name,
        subalgebra=subalgebra,
        tier="exact",
        summary=summary,
        domain="all of superspace",
        defaults={"k": 1},
        builder=_vacuum_builder,
        grid_fn=_grid_anywhere,
    )


def _ginv_entry(name: str, summary: str, notes: str) -> SolutionEntry:
    """An integrated entry; its subalgebra, odd constant and grid sign come
    from the record of the equation it rides."""
    rec = REDUCED_ODES[_GINV_ODES[name]]

    def build(p, ctx):
        case, profiles, params = _ginv_parts(name, p, ctx)
        return build_ansatz(case, profiles, params=params, ctx=ctx)

    return SolutionEntry(
        name=name,
        subalgebra=rec.case,
        tier="ode",
        summary=summary,
        domain="sigma in [-halfwidth, halfwidth], eps = -1 only",
        defaults={**_GINV_DEFAULTS, rec.role: None},
        builder=build,
        grid_fn=_grid_ginv(rec.mirror),
        notes=notes,
    )


_REGISTRY = {}


def _register(entry: SolutionEntry) -> None:
    _REGISTRY[entry.name] = entry


_register(_vacuum_entry("gian1", "S2"))
_register(
    SolutionEntry(
        name="gian1A",
        subalgebra="S2",
        tier="exact",
        summary="shifted vacuum (k + 1/2)*pi dressed by one odd constant and "
        "an arbitrary time profile",
        domain="all of superspace",
        defaults={"k": 0, "mu0": None, "profile": Poly((0.0, 0.0, 1.0))},
        builder=_dressed_vacuum("S2", "mu0", "nu"),
        grid_fn=_grid_anywhere,
        notes="the residual vanishes for every profile choice; the default is t**2",
    )
)
_register(_vacuum_entry("gian1B", "S3"))
_register(
    SolutionEntry(
        name="gian1C",
        subalgebra="S3",
        tier="exact",
        summary="shifted vacuum (k + 1/2)*pi dressed by one odd constant and "
        "an arbitrary space profile",
        domain="all of superspace",
        defaults={"k": 0, "nu0": None, "profile": Poly((0.0, 0.0, 1.0))},
        builder=_dressed_vacuum("S3", "nu0", "mu"),
        grid_fn=_grid_anywhere,
        notes="the default odd constant rides the mu0 generator slot",
    )
)
_register(_vacuum_entry("gian1D", "S7"))
_register(
    SolutionEntry(
        name="gian1E",
        subalgebra="S7",
        tier="exact",
        summary="shifted vacuum with a two-odd-constant dressing and a free "
        "profile of the invariant variable",
        domain="all of superspace",
        defaults={"k": 0, "mu": None, "lambda0": None, "profile": SIN},
        builder=_mirrored_dressing("mu", "phi"),
        grid_fn=_grid_anywhere,
        notes="the odd invariant collapses the profile argument to x",
    )
)
_register(_vacuum_entry("gian1F", "S10"))
_register(
    SolutionEntry(
        name="gian1G",
        subalgebra="S10",
        tier="exact",
        summary="mirror of gian1E built on the second odd translation",
        domain="all of superspace",
        defaults={"k": 0, "nu": None, "lambda0": None, "profile": SIN},
        builder=_mirrored_dressing("nu", "psi"),
        grid_fn=_grid_anywhere,
        notes="the display's reversed product order hides a sign; the "
        "theta1 theta2 weight used here is the one with vanishing residual",
    )
)
_register(
    _vacuum_entry("gian2", "S6, S11",
                  summary="constant vacuum shared by both mixed translation families")
)
_register(
    SolutionEntry(
        name="d3",
        subalgebra="S4",
        tier="elliptic",
        summary="elliptic traveling wave at parameter -1 with an odd doublet "
        "built from quarter-angle quotients",
        domain="sigma = x - t inside (0.25, 2.35), half the fundamental cell",
        defaults={"D1": None},
        builder=_build_d3,
        grid_fn=_grid_d3,
        notes="eps = +1; the background degenerates at the cell edges where "
        "cn hits +-1",
    )
)
_register(
    SolutionEntry(
        name="d5",
        subalgebra="S4",
        tier="trig",
        summary="kink arcsin(tanh) with sech/tanh odd dressing",
        domain="checked on [0.5, 3] x [0.5, 3]; defined everywhere",
        defaults={"D1": None},
        builder=_build_d5,
        grid_fn=_grid_square,
    )
)
_register(
    SolutionEntry(
        name="d18",
        subalgebra="S1",
        tier="trig",
        summary="purely odd oscillatory pair over the scaling invariant x*t",
        domain="x > 0 and t > 0",
        defaults={"D1": None, "D2": None},
        builder=_build_d18,
        grid_fn=_grid_square,
    )
)
_register(
    _ginv_entry(
        "ginv9",
        summary="elliptic background with an integrated odd sector over the "
        "mixed traveling invariant",
        notes="g integrates the damped linear equation; f is its cos-quotient "
        "partner, so both reduced odd rows hold identically at the nodes",
    )
)
_register(
    _ginv_entry(
        "ginv14",
        summary="mirror entry on the first odd traveling family",
        notes="the forcing term carries the background slope; dropping it "
        "breaks the first-order odd row and the residual check catches that",
    )
)


# ---------------------------------------------------------------- API


def catalog_names() -> tuple:
    return tuple(_REGISTRY)


def catalog_entry(name: str) -> SolutionEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog entry {name!r}; have {', '.join(_REGISTRY)}"
        ) from None


def _merged(entry: SolutionEntry, params) -> dict:
    p = dict(entry.defaults)
    if params:
        unknown = set(params) - set(p)
        if unknown:
            raise ValueError(
                f"unknown parameters {sorted(unknown)} for {entry.name}; "
                f"have {sorted(p)}"
            )
        p.update(params)
    return p


def catalog_solution(name: str, params=None, ctx: AlgebraContext = DEFAULT_CONTEXT) -> Superfield:
    entry = catalog_entry(name)
    return entry.builder(_merged(entry, params), ctx)


def default_grid(name: str, params=None, ctx: AlgebraContext = DEFAULT_CONTEXT) -> tuple:
    entry = catalog_entry(name)
    return tuple(entry.grid_fn(_merged(entry, params), ctx))


def verify_entry(name: str, params=None, ctx: AlgebraContext = DEFAULT_CONTEXT) -> EntryCheck:
    """Worst superfield-equation residual of one entry over its default grid."""
    entry = catalog_entry(name)
    f = catalog_solution(name, params, ctx)
    pts = default_grid(name, params, ctx)
    worst = worst_of(ssg_residual(f, x, t).norm() for x, t in pts)
    return EntryCheck(entry.name, entry.subalgebra, worst, entry.tolerance, len(pts))
