"""Exact arithmetic in a real Grassmann algebra with finitely many generators.

A supernumber is stored sparsely as a map from a generator subset (encoded as
a bitmask, bit i for generator xi, canonically ordered by ascending index) to
a double-precision coefficient.  The empty subset is the body, everything
else is the nilpotent soul.  Products carry the transposition sign that
arises from merging the two ascending index lists.

Analytic functions of even arguments reduce to finite Taylor sums because the
soul is nilpotent.  ``soul_derivs`` is the one loop that sums them, given an
object that can evaluate derivative lists of the scalar function (see
``analytic``); ``apply_analytic`` and ``soul_taylor`` are its value-only
entries, and analytic jets and profiles read whole derivative lists from it.
A soul-free argument takes the same loop.  ``analytic_value`` keeps a float
a float, as every number of a real ``solve`` is, and hands a supernumber to
``apply_analytic``.  A supernumber divides by a real only; ``invert`` has no
caller in the program.

An empty operand ``e`` is answered here, once for every caller: ``x + e``,
``e + x`` and ``x - e`` are ``x`` itself, and a product with ``e`` is ``e``.
``e - x`` keeps the general ``0.0 - c``, which keeps a NaN's sign.  These are
the general loops' values and key order, bit for bit (a signalling NaN,
which no arithmetic makes, is not quieted).  A result may share its term map
with an operand: no operation mutates ``.terms``, and ``_make`` takes only
zero-free maps.

``add_terms`` is the one sum rule: ``__add__`` runs it on a copy of its left
operand's map, and a caller that assembles a value from many term maps runs
it on a map of its own, so only the finished value becomes a supernumber.
"""

from __future__ import annotations

import math
from enum import Enum
from types import MappingProxyType

from .analytic import COS, RECIP, SIN
from .analytic import DomainError as DomainError  # re-exported


class Parity(Enum):
    EVEN = 0
    ODD = 1
    MIXED = 2


class ContextMismatch(ValueError):
    """Operands built over algebras with different generator counts."""


class NonInvertible(ZeroDivisionError):
    """Inversion of a (numerically) bodiless supernumber."""


class ParityError(ValueError):
    """A parity-checked operation received the wrong homogeneity."""


_BODY_EPS = 1e-300

MAX_GENERATORS = 32

_SIGN_CACHE: dict[int, float] = {}


def check_generator_count(ngen: int) -> int:
    """``ngen`` if it is in 1..MAX_GENERATORS, else ValueError.

    The sign cache packs two masks into one key of 2 * MAX_GENERATORS bits,
    so a wider algebra would make different mask pairs share a sign.
    """
    if ngen < 1 or ngen > MAX_GENERATORS:
        raise ValueError(f"generator count must be in 1..{MAX_GENERATORS}, got {ngen}")
    return ngen


def _mismatch(a, b) -> ContextMismatch:
    return ContextMismatch(f"mixing algebras with {a.ngen} and {b.ngen} generators")


def _merge_sign(a: int, b: int) -> float:
    # Parity of the transposition count for merging two ascending generator
    # words: each generator of b hops over every generator of a with a
    # strictly larger index.
    key = (a << MAX_GENERATORS) | b
    s = _SIGN_CACHE.get(key)
    if s is None:
        n = 0
        bb = b
        while bb:
            low = bb & -bb
            n ^= (a >> low.bit_length()).bit_count() & 1
            bb ^= low
        s = -1.0 if n else 1.0
        _SIGN_CACHE[key] = s
    return s


class GrassmannNumber:
    """Element of the real Grassmann algebra on ``ngen`` generators."""

    __slots__ = ("ngen", "terms")
    __hash__ = None

    def __init__(self, ngen: int, terms: dict[int, float] | None = None):
        self.ngen = check_generator_count(ngen)
        limit = 1 << ngen
        clean: dict[int, float] = {}
        if terms:
            for mask, coeff in terms.items():
                if mask < 0 or mask >= limit:
                    raise ValueError(f"mask {mask:#x} out of range for {ngen} generators")
                c = float(coeff)
                if c != 0.0:
                    clean[mask] = c
        self.terms = clean

    @classmethod
    def _make(cls, ngen: int, terms: dict[int, float]) -> "GrassmannNumber":
        # internal fast path: terms already validated and zero-free, and
        # not mutated afterwards
        obj = object.__new__(cls)
        obj.ngen = ngen
        obj.terms = terms
        return obj

    # ------------------------------------------------------------------ body/soul

    @property
    def body(self) -> float:
        return self.terms.get(0, 0.0)

    def soul(self) -> "GrassmannNumber":
        return GrassmannNumber._make(
            self.ngen, {m: c for m, c in self.terms.items() if m != 0}
        )

    @property
    def parity(self) -> Parity:
        has_even = has_odd = False
        for m in self.terms:
            if m.bit_count() & 1:
                has_odd = True
            else:
                has_even = True
        if has_odd and has_even:
            return Parity.MIXED
        if has_odd:
            return Parity.ODD
        return Parity.EVEN

    def is_even(self) -> bool:
        return all((m.bit_count() & 1) == 0 for m in self.terms)

    def is_odd(self) -> bool:
        return all(m.bit_count() & 1 for m in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def norm(self) -> float:
        """Max-abs coefficient; the norm used by every tolerance check."""
        return worst_of(abs(c) for c in self.terms.values())

    # ------------------------------------------------------------------ arithmetic

    def _coerce(self, other):
        if isinstance(other, GrassmannNumber):
            if other.ngen != self.ngen:
                raise _mismatch(self, other)
            return other
        if isinstance(other, (int, float)):
            c = float(other)
            return GrassmannNumber._make(self.ngen, {0: c} if c != 0.0 else {})
        return None

    def __add__(self, other):
        # an exact type test, so a supernumber operand takes no helper call
        if type(other) is not GrassmannNumber:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        elif other.ngen != self.ngen:
            raise _mismatch(self, other)
        tb = other.terms
        if not tb:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        add_terms(out, tb)
        return GrassmannNumber._make(self.ngen, out)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GrassmannNumber:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        elif other.ngen != self.ngen:
            raise _mismatch(self, other)
        tb = other.terms
        if not tb:
            return self
        # an empty self takes the loop: 0.0 - c keeps a NaN's sign
        out = dict(self.terms)
        for m, c in tb.items():
            v = out.get(m, 0.0) - c
            if v == 0.0:
                out.pop(m, None)
            else:
                out[m] = v
        return GrassmannNumber._make(self.ngen, out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return GrassmannNumber._make(self.ngen, {m: -c for m, c in self.terms.items()})

    def __pos__(self):
        return self

    def __mul__(self, other):
        ta = self.terms
        if type(other) is not GrassmannNumber:
            if isinstance(other, (int, float)):
                c = float(other)
                if not ta:
                    return self
                if c == 0.0:
                    return GrassmannNumber._make(self.ngen, {})
                return GrassmannNumber._make(
                    self.ngen, {m: p for m, v in ta.items() if (p := v * c) != 0.0}
                )
            if not isinstance(other, GrassmannNumber):
                return NotImplemented
        if other.ngen != self.ngen:
            raise _mismatch(self, other)
        if not ta:
            return self
        tb = other.terms
        if not tb:
            return other
        # A body-only operand scales the other's terms in their own order and
        # drops exact zeros, which is what the loop below does bit for bit:
        # its merge sign is 1.0 and (a * b) * 1.0 == a * b.
        if len(ta) == 1 and 0 in ta:
            b = ta[0]
            return GrassmannNumber._make(
                self.ngen, {m: v for m, c in tb.items() if (v := b * c) != 0.0}
            )
        if len(tb) == 1 and 0 in tb:
            b = tb[0]
            return GrassmannNumber._make(
                self.ngen, {m: v for m, c in ta.items() if (v := c * b) != 0.0}
            )
        out: dict[int, float] = {}
        for ma, ca in ta.items():
            for mb, cb in tb.items():
                if ma & mb:
                    continue
                m = ma | mb
                v = ca * cb * _merge_sign(ma, mb)
                prev = out.get(m)
                out[m] = v if prev is None else prev + v
        return GrassmannNumber._make(
            self.ngen, {m: v for m, v in out.items() if v != 0.0}
        )

    def __rmul__(self, other):
        # reals are central, so scalar*G == G*scalar
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(1.0 / float(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        acc = GrassmannNumber._make(self.ngen, {0: 1.0})
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __repr__(self):
        return to_text(self)

    __str__ = __repr__


def add_terms(out: dict, terms: dict) -> None:
    """Add the term map ``terms`` into ``out``, a map the caller owns, in
    place: ``out.get(m, 0.0) + c`` per term in ``terms``' order, a new mask
    joining at the end and a sum that is exactly zero leaving the map.

    This is the loop of every supernumber sum, which is ``dict(a.terms)``
    followed by it, so summing into one map gives each mask the float
    operations, and the map the key order, of the pairwise sums.
    """
    for m, c in terms.items():
        v = out.get(m, 0.0) + c
        if v == 0.0:
            out.pop(m, None)
        else:
            out[m] = v


# ---------------------------------------------------------------------- [OP]s


def invert(a: GrassmannNumber) -> GrassmannNumber:
    """Two-sided inverse via the terminating geometric series.

    a = b(1 + n) with nilpotent n = soul/b, so 1/a = (1/b) sum_j (-n)^j and
    the sum stops as soon as a power of n vanishes.
    """
    b = a.body
    if abs(b) <= _BODY_EPS:
        raise NonInvertible("bodiless (or numerically bodiless) supernumber")
    n = a.soul() * (1.0 / b)
    acc = GrassmannNumber._make(a.ngen, {0: 1.0})
    p = GrassmannNumber._make(a.ngen, {0: 1.0})
    for j in range(1, a.ngen + 1):
        p = p * n
        if p.is_zero():
            break
        acc = acc + p if j % 2 == 0 else acc - p
    return acc * (1.0 / b)


def apply_analytic(f, a: GrassmannNumber) -> GrassmannNumber:
    """f(a) for even a: Taylor expansion around the body, cut off by nilpotency.

    ``f`` must expose ``derivs(x, n) -> [f(x), f'(x), ..., f^(n)(x)]``.
    """
    if not a.is_even():
        raise ParityError("apply_analytic needs an even argument")
    return soul_taylor(f, a)


# the float value of each function a reduced equation applies to reals
_FLOAT_FNS = {SIN: math.sin, COS: math.cos, RECIP: lambda x: 1.0 / x}


def analytic_value(f, y):
    """f(y) in the arithmetic of y: the math function on a float, whose lift
    has the bits ``apply_analytic`` gives the lifted float, and
    ``apply_analytic`` on a supernumber."""
    return _FLOAT_FNS[f](y) if isinstance(y, float) else apply_analytic(f, y)


def soul_taylor(f, a: GrassmannNumber) -> GrassmannNumber:
    """Taylor of f around the body with no parity demanded of the argument.

    Any supernumber commutes with its own powers, so the expansion is
    well-defined even for mixed arguments; ``apply_analytic`` is the
    parity-checked front door, this is the bare core.  Needed for residuals
    of fields whose odd components carry even supernumber coefficients.
    """
    return soul_derivs(f, a, 0)[0]


def soul_derivs(f, a: GrassmannNumber, kmax: int) -> list:
    """[f(a), f'(a), ..., f^(kmax)(a)], each a Taylor sum in the soul.

    f^(k)(b + s) = sum_j f^(k+j)(b) s^j / j!, cut off at the first power of
    the nilpotent soul s that vanishes.  Without a soul each entry is the
    body derivative itself, bit for bit, NaN and -0.0 included.  No parity
    is demanded, as in ``soul_taylor``.
    """
    s = a.soul()
    powers = []
    p = s
    while p.terms:
        powers.append(p)
        p = p * s
    ds = f.derivs(a.body, kmax + len(powers))
    out = []
    for k in range(kmax + 1):
        acc = GrassmannNumber._make(a.ngen, {0: ds[k]} if ds[k] != 0.0 else {})
        fact = 1.0
        for j, pw in enumerate(powers, 1):
            fact *= j
            acc = acc + pw * (ds[k + j] / fact)
        out.append(acc)
    return out


# ------------------------------------------------------------- odd derivatives


def gen_derivative(a: GrassmannNumber, i: int) -> GrassmannNumber:
    """Left derivative with respect to generator xi.

    Terms not containing the generator die; in the others the generator is
    moved to the front (sign = parity of the number of lower-index
    generators present) and stripped.
    """
    bit = 1 << i
    below = bit - 1
    out: dict[int, float] = {}
    for m, c in a.terms.items():
        if m & bit:
            sign = -1.0 if ((m & below).bit_count() & 1) else 1.0
            out[m ^ bit] = c * sign
    return GrassmannNumber._make(a.ngen, out)


def drop_gens(a: GrassmannNumber, gens_mask: int) -> GrassmannNumber:
    """Keep only the terms that involve none of the masked generators."""
    return GrassmannNumber._make(
        a.ngen, {m: c for m, c in a.terms.items() if not (m & gens_mask)}
    )


# ------------------------------------------------------------------ text form


def _fmt_coeff(c: float) -> str:
    # the bound comes first: it is false for nan and inf, which int() refuses
    if abs(c) < 1e15 and c == int(c):
        return str(int(c))
    return repr(c)


def to_text(a: GrassmannNumber) -> str:
    """Canonical rendering, e.g. ``3 + 7*x1^x2``; inverse of ``parse``."""
    if not a.terms:
        return "0"
    parts = []
    for mask in sorted(a.terms):
        c = a.terms[mask]
        if mask == 0:
            mono = None
        else:
            gens = []
            m = mask
            while m:
                low = m & -m
                gens.append(f"x{low.bit_length()}")
                m ^= low
            mono = "^".join(gens)
        if not parts:
            lead = _fmt_coeff(c)
            parts.append(lead if mono is None else f"{lead}*{mono}")
        else:
            op = " + " if c > 0 else " - "
            lead = _fmt_coeff(abs(c))
            parts.append(op + (lead if mono is None else f"{lead}*{mono}"))
    return "".join(parts)


def parse(text: str, ngen: int = 8) -> GrassmannNumber:
    """Parse the ``to_text`` grammar (signs, ``coef*xi^xj`` terms)."""
    check_generator_count(ngen)
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty supernumber text")
    # split into signed terms
    out = GrassmannNumber._make(ngen, {})
    i = 0
    sign = 1.0
    if s[0] in "+-":
        sign = -1.0 if s[0] == "-" else 1.0
        i = 1
    term = ""
    pieces: list[tuple[float, str]] = []
    while i <= len(s):
        ch = s[i] if i < len(s) else None
        # a sign right after an exponent's e belongs to the coefficient
        if ch is None or (ch in "+-" and not term.endswith(("e", "E"))):
            if not term:
                raise ValueError(f"dangling sign in {text!r}")
            pieces.append((sign, term))
            if ch is not None:
                sign = -1.0 if ch == "-" else 1.0
            term = ""
        else:
            term += ch
        i += 1
    for sgn, t in pieces:
        if "*" in t:
            coef_s, _, mono = t.partition("*")
            coef = float(coef_s)
        elif t.startswith("x"):
            coef, mono = 1.0, t
        else:
            coef, mono = float(t), ""
        c = sgn * coef
        val = GrassmannNumber._make(ngen, {0: c} if c != 0.0 else {})
        if mono:
            for g in mono.split("^"):
                if not g.startswith("x"):
                    raise ValueError(f"bad generator {g!r} in {text!r}")
                idx = int(g[1:]) - 1
                if idx < 0 or idx >= ngen:
                    raise ValueError(f"generator {g} out of range for {ngen} generators")
                val = val * GrassmannNumber._make(ngen, {1 << idx: 1.0})
        out = out + val
    return out


# ------------------------------------------------------------------- context

DEFAULT_ROLES = MappingProxyType(
    {
        "theta1": 0,
        "theta2": 1,
        "mu": 2,
        "nu": 3,
        "D1": 4,
        "D2": 5,
        "mu0": 6,
        "lambda0": 7,
    }
)


class AlgebraContext:
    """Generator count plus the naming convention for reserved indices.

    theta1/theta2 are the superspace coordinates; the rest are the free odd
    parameters a computation may use.  Arithmetic itself only cares about
    the generator count; the roles exist so call sites never hard-code
    indices.
    """

    __slots__ = ("generator_count", "roles")

    def __init__(self, generator_count: int = 8, roles: MappingProxyType = DEFAULT_ROLES):
        check_generator_count(generator_count)
        idx = list(roles.values())
        if len(set(idx)) != len(idx):
            raise ValueError("reserved role indices must be pairwise distinct")
        if any(i < 0 or i >= generator_count for i in idx):
            raise ValueError("reserved role index out of range")
        if generator_count < 2 + sum(
            1 for name in roles if name not in ("theta1", "theta2")
        ) and ("theta1" in roles):
            # two theta slots plus one generator per free odd parameter
            raise ValueError("generator count too small for the reserved roles")
        self.generator_count = generator_count
        self.roles = roles

    def gen(self, which) -> GrassmannNumber:
        """Generator by role name or raw index."""
        idx = self.roles[which] if isinstance(which, str) else which
        if idx < 0 or idx >= self.generator_count:
            raise ValueError(f"generator index {idx} out of range")
        return GrassmannNumber._make(self.generator_count, {1 << idx: 1.0})

    def scalar(self, x: float) -> GrassmannNumber:
        c = float(x)
        return GrassmannNumber._make(
            self.generator_count, {0: c} if c != 0.0 else {}
        )

    def lift(self, v) -> GrassmannNumber:
        """``v`` as a supernumber: a supernumber unchanged, a real as
        ``scalar(v)``."""
        return v if isinstance(v, GrassmannNumber) else self.scalar(v)

    def zero(self) -> GrassmannNumber:
        return GrassmannNumber._make(self.generator_count, {})

    def one(self) -> GrassmannNumber:
        return GrassmannNumber._make(self.generator_count, {0: 1.0})


def demote(v):
    """The body of a soul-free supernumber as a float, anything else as is.

    It undoes ``AlgebraContext.lift`` of a real, except that a zero of
    either sign comes back as 0.0.
    """
    if isinstance(v, GrassmannNumber):
        t = v.terms
        if not t or (len(t) == 1 and 0 in t):
            return t.get(0, 0.0)
    return v


DEFAULT_CONTEXT = AlgebraContext()


def scalar(x: float, ngen: int = 8) -> GrassmannNumber:
    c = float(x)
    return GrassmannNumber._make(check_generator_count(ngen), {0: c} if c != 0.0 else {})


# ------------------------------------------------------ residuals and tiers

# named tolerance tiers: round-off, trigonometric identity chains,
# special-function accuracy and RK4 truncation
TIER_DEFAULTS = {"exact": 1e-12, "trig": 1e-10, "elliptic": 1e-8, "ode": 1e-6}


def worst_count(values) -> tuple:
    """The largest of ``values`` (0.0 when there are none) and their count.

    Unlike ``max``, a NaN anywhere makes the result NaN, so a residual that
    is not a number can never pass a tolerance test.
    """
    worst, n = 0.0, 0
    for v in values:
        n += 1
        if v > worst or v != v:
            worst = v
    return worst, n


def worst_of(values) -> float:
    """The largest of ``values`` as :func:`worst_count` finds it."""
    return worst_count(values)[0]
