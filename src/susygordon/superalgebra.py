"""The five-generator symmetry superalgebra and its adjoint action.

Basis L, P_x, P_t (even), Q_x, Q_t (odd).  Elements live in the even
part of the superalgebra: every coefficient matches the parity of its
generator, so scalars stay even and odd generators always arrive with an
odd prefactor.  The bracket is the bilinear extension of the structure
table with the graded sign from commuting a coefficient past a
generator, [a E, b F] = (-1)^(E~ b~) a b [E, F].
"""

from __future__ import annotations

from typing import NamedTuple

from .analytic import EXP, EXP_RATIO
from .grassmann import (
    DEFAULT_CONTEXT,
    AlgebraContext,
    GrassmannNumber,
    ParityError,
    apply_analytic,
    worst_of,
)
from .prolongation import (
    COMPONENT_SIGNATURE,
    SSG_SIGNATURE,
    JetPoint,
    VectorFieldSpec,
    component_named_generators,
    component_symmetry_spec,
    evaluate_spec,
    random_jet_point,
    ssg_symmetry_spec,
)


class OutOfIdeal(ValueError):
    """Closed-form adjoint action needs an argument without an L part."""


_BASIS = ("L", "Px", "Pt", "Qx", "Qt")
_BASIS_PARITY = {"L": 0, "Px": 0, "Pt": 0, "Qx": 1, "Qt": 1}

# nonzero rows of the supercommutation table, [row, column] -> {basis: weight}
STRUCTURE_TABLE = {
    ("L", "Px"): {"Px": 2.0},
    ("L", "Pt"): {"Pt": -2.0},
    ("L", "Qx"): {"Qx": 1.0},
    ("L", "Qt"): {"Qt": -1.0},
    ("Px", "L"): {"Px": -2.0},
    ("Pt", "L"): {"Pt": 2.0},
    ("Qx", "L"): {"Qx": -1.0},
    ("Qt", "L"): {"Qt": 1.0},
    ("Qx", "Qx"): {"Px": -2.0},
    ("Qt", "Qt"): {"Pt": -2.0},
}


class AlgebraElement:
    """c_L L + c_Px P_x + c_Pt P_t + c_Qx Q_x + c_Qt Q_t, with even
    coefficients on the even basis elements and odd ones on the odd."""

    __slots__ = ("c_L", "c_Px", "c_Pt", "c_Qx", "c_Qt")

    def __init__(self, c_L: GrassmannNumber, c_Px: GrassmannNumber, c_Pt: GrassmannNumber,
                 c_Qx: GrassmannNumber, c_Qt: GrassmannNumber):
        for name, v in (("c_L", c_L), ("c_Px", c_Px), ("c_Pt", c_Pt)):
            if not (v.is_zero() or v.is_even()):
                raise ParityError(f"{name} must be even")
        for name, v in (("c_Qx", c_Qx), ("c_Qt", c_Qt)):
            if not (v.is_zero() or v.is_odd()):
                raise ParityError(f"{name} must be odd")
        self.c_L, self.c_Px, self.c_Pt, self.c_Qx, self.c_Qt = c_L, c_Px, c_Pt, c_Qx, c_Qt

    def coeff(self, basis: str) -> GrassmannNumber:
        return getattr(self, "c_" + basis)

    @classmethod
    def from_coeffs(cls, ctx: AlgebraContext, **kw) -> "AlgebraElement":
        return cls(**{"c_" + b: ctx.lift(kw.get(b, 0.0)) for b in _BASIS})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            self.c_L + other.c_L,
            self.c_Px + other.c_Px,
            self.c_Pt + other.c_Pt,
            self.c_Qx + other.c_Qx,
            self.c_Qt + other.c_Qt,
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (other * -1.0)

    def __mul__(self, a) -> "AlgebraElement":
        # even weights only, so left and right module actions agree
        if isinstance(a, GrassmannNumber) and not (a.is_zero() or a.is_even()):
            raise ParityError("algebra elements scale by even weights")
        return AlgebraElement(
            self.c_L * a, self.c_Px * a, self.c_Pt * a, self.c_Qx * a, self.c_Qt * a
        )

    __rmul__ = __mul__

    def norm(self) -> float:
        return worst_of(self.coeff(b).norm() for b in _BASIS)

    def is_zero(self) -> bool:
        return all(self.coeff(b).is_zero() for b in _BASIS)


def basis_element(name: str, ctx: AlgebraContext = DEFAULT_CONTEXT) -> AlgebraElement:
    if name not in _BASIS:
        raise KeyError(name)
    one = ctx.one() if _BASIS_PARITY[name] == 0 else None
    if one is None:
        raise ParityError(f"{name} is odd; build it with an odd prefactor instead")
    return AlgebraElement.from_coeffs(ctx, **{name: one})


def bracket(X: AlgebraElement, Y: AlgebraElement) -> AlgebraElement:
    """Graded bracket, extended bilinearly over supernumber coefficients."""
    ngen = X.c_L.ngen
    acc = {b: GrassmannNumber(ngen) for b in _BASIS}
    for i in _BASIS:
        a = X.coeff(i)
        if a.is_zero():
            continue
        for j in _BASIS:
            b = Y.coeff(j)
            if b.is_zero():
                continue
            row = STRUCTURE_TABLE.get((i, j))
            if not row:
                continue
            sign = -1.0 if (_BASIS_PARITY[i] & _BASIS_PARITY[j]) else 1.0
            ab = a * b * sign
            for k, w in row.items():
                acc[k] = acc[k] + ab * w
    return AlgebraElement(acc["L"], acc["Px"], acc["Pt"], acc["Qx"], acc["Qt"])


def adjoint_exp(Y: AlgebraElement, X: AlgebraElement, series_terms: int = 16) -> AlgebraElement:
    """Ad_exp(Y) X as the truncated iterated-bracket series."""
    if series_terms < 1:
        raise ValueError("series_terms must be at least 1")
    acc = X
    term = X
    for n in range(1, series_terms):
        term = bracket(Y, term) * (1.0 / n)
        acc = acc + term
    return acc


def adjoint_closed_form(Y: AlgebraElement, X: AlgebraElement) -> AlgebraElement:
    """Exact adjoint action on the translation-supertranslation ideal.

    Only the L part and the odd parts of Y enter; its translation parts
    commute with the ideal.  The (e^k - 1)/k factor is evaluated through
    its entire function, so bodiless k works without special cases.
    """
    if not X.c_L.is_zero():
        raise OutOfIdeal("closed form acts on the ideal spanned by P and Q slots")
    k = Y.c_L
    eta, lam = Y.c_Qx, Y.c_Qt
    alpha, beta = X.c_Px, X.c_Pt
    mu, nu = X.c_Qx, X.c_Qt
    ek = apply_analytic(EXP, k)
    e2k = apply_analytic(EXP, k * 2.0)
    em2k = apply_analytic(EXP, k * -2.0)
    ratio = apply_analytic(EXP_RATIO, k)
    new_Px = e2k * alpha + (eta * mu) * ek * ratio * 2.0
    new_Pt = em2k * beta + (lam * nu) * em2k * ratio * 2.0
    new_Qx = ek * mu
    new_Qt = apply_analytic(EXP, k * -1.0) * nu
    zero = GrassmannNumber(X.c_L.ngen)
    return AlgebraElement(zero, new_Px, new_Pt, new_Qx, new_Qt)


def solve_conjugation_to_L(V: AlgebraElement) -> tuple[AlgebraElement, float]:
    """Find Y in the ideal with Ad_exp(Y) V proportional to L.

    Newton iteration on the four ideal slots of the adjoint image, with
    the diagonal of the linearized system ([Y, L] shifts m, n, eta, lam
    by -2m, 2n, -eta, lam).  Converges in a couple of steps because the
    remaining couplings are nilpotent; it stops once the residual falls
    below 1e-12, or after 12 steps with the residual reached.
    """
    ctx_zero = GrassmannNumber(V.c_L.ngen)
    Y = AlgebraElement(ctx_zero, ctx_zero, ctx_zero, ctx_zero, ctx_zero)
    res = float("inf")
    for _ in range(12):
        img = adjoint_exp(Y, V)
        res = max(img.c_Px.norm(), img.c_Pt.norm(), img.c_Qx.norm(), img.c_Qt.norm())
        if res < 1e-12:
            break
        Y = AlgebraElement(
            ctx_zero,
            Y.c_Px + img.c_Px * 0.5,
            Y.c_Pt - img.c_Pt * 0.5,
            Y.c_Qx + img.c_Qx,
            Y.c_Qt - img.c_Qt,
        )
    return Y, res


# ------------------------------------------------------- realized generators


def realize(X: AlgebraElement, ctx: AlgebraContext = DEFAULT_CONTEXT) -> VectorFieldSpec:
    """The element as a concrete vector field on superspace."""
    return ssg_symmetry_spec(
        C1=X.c_L, C2=X.c_Px, C3=X.c_Pt, D1=X.c_Qx, D2=X.c_Qt, ctx=ctx
    )


def realized_bracket_coefficients(
    X: VectorFieldSpec, Y: VectorFieldSpec, p: JetPoint
) -> dict:
    """[X, Y] as a vector field, coefficient by coefficient at a point.

    Both fields are even, so the bracket is the plain commutator of their
    first-order actions on the coordinate functions.
    """
    names = [n for n, _ in p.sig.independents] + [n for n, _ in p.sig.dependents]
    ex, ey = evaluate_spec(X, p), evaluate_spec(Y, p)
    out = {}
    for a_target in names:
        left = p.ctx.zero()
        for a in names:
            left = left + ex[a].partial(()) * ey[a_target].partial((a,))
        right = p.ctx.zero()
        for a in names:
            right = right + ey[a].partial(()) * ex[a_target].partial((a,))
        out[a_target] = left - right
    return out


def _structure_specs(realization: str, ctx: AlgebraContext):
    """(X, Y, expected [X, Y]) vector-field triples, with the jet signature
    and point seed offset of the realization.  The component picture's D,
    P_x and P_t are ``prolongation.component_named_generators``, the fields
    the prolongation suite checks."""
    if realization == "superspace":
        mu, nu = ctx.gen("mu"), ctx.gen("nu")
        mu2, nu2 = ctx.gen("D1"), ctx.gen("D2")
        elements = [
            AlgebraElement.from_coeffs(ctx, L=1.0),
            AlgebraElement.from_coeffs(ctx, Px=1.0),
            AlgebraElement.from_coeffs(ctx, Pt=1.0),
            AlgebraElement.from_coeffs(ctx, Qx=mu),
            AlgebraElement.from_coeffs(ctx, Qx=mu2),
            AlgebraElement.from_coeffs(ctx, Qt=nu),
            AlgebraElement.from_coeffs(ctx, Qt=nu2),
        ]
        fields = [realize(A, ctx) for A in elements]
        specs = [
            (fields[i], fields[j], realize(bracket(elements[i], elements[j]), ctx))
            for i in range(len(elements))
            for j in range(i, len(elements))
        ]
        return SSG_SIGNATURE, 9000, specs
    if realization == "component":
        gens = component_named_generators(ctx)
        D, Px, Pt = gens["D"], gens["P_x"], gens["P_t"]
        # nonzero relations: [Px, D] = 2 Px and [Pt, D] = -2 Pt
        specs = [
            (Px, D, component_symmetry_spec(C2=2.0, ctx=ctx)),
            (Pt, D, component_symmetry_spec(C3=-2.0, ctx=ctx)),
            (Px, Pt, component_symmetry_spec(ctx=ctx)),
            (D, D, component_symmetry_spec(ctx=ctx)),
        ]
        return COMPONENT_SIGNATURE, 9500, specs
    raise ValueError(f"unknown realization {realization!r}")


def verify_structure(
    realization: str = "superspace",
    n_points: int = 4,
    seed: int = 0,
    ctx: AlgebraContext = DEFAULT_CONTEXT,
) -> float:
    """Max deviation between realized commutators and the abstract table."""
    sig, offset, specs = _structure_specs(realization, ctx)

    def deviations():
        for s in range(n_points):
            p = random_jet_point(sig, offset + seed + s, ctx)
            for X, Y, expect in specs:
                got = realized_bracket_coefficients(X, Y, p)
                want = evaluate_spec(expect, p)
                for name, val in got.items():
                    yield (val - want[name].partial(())).norm()

    return worst_of(deviations())


# ---------------------------------------------------------- subalgebra data


_SHOWN = {"L": "L", "Px": "P_x", "Pt": "P_t", "Qx": "Q_x", "Qt": "Q_t", "D": "D"}


class SubalgebraTemplate(NamedTuple):
    """A spanning element as (basis, weight) terms; a weight is 1, -1 or the
    name of a parameter slot."""

    name: str
    terms: tuple
    picture: str  # "superspace" or "component"

    @property
    def expression(self) -> str:
        out = ""
        for basis, w in self.terms:
            term = _SHOWN[basis] if w in (1, -1) else f"{w}*{_SHOWN[basis]}"
            out += ((" - " if w == -1 else " + ") + term) if out else term
        return out

    @property
    def slots(self) -> tuple[str, ...]:
        return tuple(w for _, w in self.terms if isinstance(w, str))

    def element(self, ctx: AlgebraContext = DEFAULT_CONTEXT, **params) -> AlgebraElement:
        """The algebra element with every slot filled from ``params``."""
        if self.picture != "superspace":
            raise ValueError("only superspace templates instantiate to algebra elements")
        coeffs = {b: params[w] if isinstance(w, str) else float(w) for b, w in self.terms}
        return AlgebraElement.from_coeffs(ctx, **coeffs)

    def payload(self) -> dict:
        return {
            "name": self.name,
            "expression": self.expression,
            "slots": list(self.slots),
            "picture": self.picture,
        }


_PX, _PT, _EPS_PT = ("Px", 1), ("Pt", 1), ("Pt", "eps")
_MU_QX, _NU_QT = ("Qx", "mu"), ("Qt", "nu")
# parameters are nonvanishing; eps is +1 or -1
_SUPERSPACE = {
    "S1": (("L", 1),),
    "S2": (_PX,),
    "S3": (_PT,),
    "S4": (_PX, _EPS_PT),
    "S5": (_MU_QX,),
    "S6": (_PX, _MU_QX),
    "S7": (_PT, _MU_QX),
    "S8": (_PX, _EPS_PT, _MU_QX),
    "S9": (_NU_QT,),
    "S10": (_PX, _NU_QT),
    "S11": (_PT, _NU_QT),
    "S12": (_PX, _EPS_PT, _NU_QT),
    "S13": (_MU_QX, _NU_QT),
    "S14": (_PX, _MU_QX, _NU_QT),
    "S15": (_PT, _MU_QX, _NU_QT),
    "S16": (_PX, _EPS_PT, _MU_QX, _NU_QT),
}
_COMPONENT = {
    "L1": (("D", 1),), "L2": (_PX,), "L3": (_PT,), "L4": (_PX, _PT), "L5": (_PX, ("Pt", -1)),
}


def subalgebra(name: str) -> SubalgebraTemplate:
    """The superspace template ``name``, S1 to S16."""
    return SubalgebraTemplate(name, _SUPERSPACE[name], "superspace")


def subalgebra_catalog() -> list[SubalgebraTemplate]:
    """The sixteen superspace one-dimensional subalgebra templates plus the
    five component ones."""
    return [subalgebra(n) for n in _SUPERSPACE] + [
        SubalgebraTemplate(n, t, "component") for n, t in _COMPONENT.items()
    ]
