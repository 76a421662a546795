"""Scalar analytic functions as derivative-list providers.

Everything that gets applied to an even supernumber or composed through a
jet goes through one protocol: ``derivs(x, n)`` returns the list
``[f(x), f'(x), ..., f^(n)(x)]``.  Closed recurrences are used throughout,
no finite differencing.

``TaylorQ`` is a small truncated-Taylor-series scalar: with it, profile
functions like arcsin(tanh(s)) get exact derivative lists by composition
instead of hand-coded chain rules (``TaylorFn``).
"""

from __future__ import annotations

import math
from typing import Protocol


class DomainError(ValueError):
    """Scalar-function domain violated by the body (e.g. arcsin of |body| >= 1)."""


class AnalyticFn(Protocol):
    def derivs(self, x: float, n: int) -> list[float]: ...


class Sin:
    def derivs(self, x, n):
        s, c = math.sin(x), math.cos(x)
        cyc = (s, c, -s, -c)
        return [cyc[j & 3] for j in range(n + 1)]


class Cos:
    def derivs(self, x, n):
        s, c = math.sin(x), math.cos(x)
        cyc = (c, -s, -c, s)
        return [cyc[j & 3] for j in range(n + 1)]


class Exp:
    def derivs(self, x, n):
        e = math.exp(x)
        return [e] * (n + 1)


class Reciprocal:
    def derivs(self, x, n):
        if x == 0.0:
            raise DomainError("reciprocal at zero body")
        out = []
        fact = 1.0
        for j in range(n + 1):
            out.append(fact / x ** (j + 1))
            fact *= -(j + 1)
        return out


class Power:
    """x**p with real exponent; non-integer exponents need x > 0."""

    def __init__(self, p: float):
        self.p = float(p)

    def derivs(self, x, n):
        p = self.p
        integral = p == int(p)
        if x < 0.0 and not integral:
            raise DomainError(f"x**{p} needs a positive argument body")
        out = []
        coef = 1.0
        for j in range(n + 1):
            e = p - j
            if x == 0.0:
                if coef == 0.0:
                    out.append(0.0)
                elif e > 0:
                    out.append(0.0)
                elif e == 0:
                    out.append(coef)
                else:
                    raise DomainError(f"x**{p} derivative {j} singular at zero body")
            else:
                out.append(coef * x**e)
            coef *= p - j
        return out


class Arcsin:
    # (1-x^2) y^(n+2) = (2n+1) x y^(n+1) + n^2 y^(n)
    def derivs(self, x, n):
        if abs(x) >= 1.0:
            raise DomainError(f"arcsin needs |x| < 1, got {x}")
        r = 1.0 - x * x
        out = [math.asin(x)]
        if n >= 1:
            out.append(r**-0.5)
        for k in range(n - 1):
            out.append(((2 * k + 1) * x * out[k + 1] + k * k * out[k]) / r)
        return out[: n + 1]


class Arccos:
    def derivs(self, x, n):
        ds = Arcsin().derivs(x, n)
        return [math.acos(x)] + [-d for d in ds[1:]]


def _tanh_polys(n: int) -> list[list[float]]:
    # d^k/dx^k tanh = p_k(T) with T = tanh x, p_0 = T, p' chain-ruled by (1-T^2)
    polys = [[0.0, 1.0]]
    while len(polys) <= n:
        p = polys[-1]
        dp = [p[i] * i for i in range(1, len(p))]
        # multiply dp by (1 - T^2)
        nxt = [0.0] * (len(dp) + 2)
        for i, c in enumerate(dp):
            nxt[i] += c
            nxt[i + 2] -= c
        polys.append(nxt)
    return polys


def _polyval(p: list[float], t: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * t + c
    return acc


class Tanh:
    def derivs(self, x, n):
        t = math.tanh(x)
        return [_polyval(p, t) for p in _tanh_polys(n)[: n + 1]]


def _sech_polys(n: int) -> list[list[float]]:
    # d^k/dx^k sech = S * q_k(T); q_{k+1} = (1-T^2) q_k' - T q_k
    polys = [[1.0]]
    while len(polys) <= n:
        q = polys[-1]
        dq = [q[i] * i for i in range(1, len(q))]
        nxt = [0.0] * (len(q) + 1)
        for i, c in enumerate(dq):
            nxt[i] += c
            nxt[i + 2] -= c
        for i, c in enumerate(q):
            nxt[i + 1] -= c
        polys.append(nxt)
    return polys


class Sech:
    def derivs(self, x, n):
        t = math.tanh(x)
        s = 1.0 / math.cosh(x)
        return [s * _polyval(q, t) for q in _sech_polys(n)[: n + 1]]


class ExpRatio:
    """E(z) = (exp(z) - 1)/z, extended by E(0) = 1.

    Near zero the series sum_i z^i (i+j)! / (i! (i+j+1)!) is used for every
    derivative; away from zero the recurrence E^(j) = (exp(z) - j E^(j-1))/z.
    """

    def derivs(self, x, n):
        if abs(x) <= 0.5:
            # E(z) = sum z^m/(m+1)!  =>  E^(j)(z) = sum_i (i+j)!/(i! (i+j+1)!) z^i
            out = []
            for j in range(n + 1):
                acc = 0.0
                for i in range(40):
                    m = i + j
                    c = math.factorial(m) / (math.factorial(i) * math.factorial(m + 1))
                    acc += c * x**i
                out.append(acc)
            return out
        e = math.exp(x)
        out = [(e - 1.0) / x]
        for j in range(1, n + 1):
            out.append((e - j * out[j - 1]) / x)
        return out


def _derivative_coeffs(coeffs: list[float]) -> list[list[float]]:
    """The ascending coefficient lists of p, p', p'', ...: ``len(coeffs) + 1``
    lists, the last one empty."""
    lists = [coeffs]
    while coeffs:
        coeffs = [coeffs[i] * i for i in range(1, len(coeffs))]
        lists.append(coeffs)
    return lists


class Poly:
    """Polynomial with coefficients in ascending order.

    The coefficient lists of its derivatives are built once, here; every
    derivative past the degree is ``_polyval([], x)``, which is 0.0.
    """

    def __init__(self, coeffs):
        self.lists = _derivative_coeffs([float(c) for c in coeffs])

    def derivs(self, x, n):
        out = [_polyval(c, x) for c in self.lists[: n + 1]]
        out.extend([0.0] * (n + 1 - len(out)))
        return out


class Const:
    def __init__(self, value: float):
        self.value = float(value)

    def derivs(self, x, n):
        return [self.value] + [0.0] * n


class TrigPoly:
    """sum_i a_i sin(w_i x + p_i) plus a polynomial; all derivatives exact.

    Compact way to make random smooth profiles with unlimited exact
    derivative lists for the consistency tests.
    """

    def __init__(self, waves=(), poly=()):
        self.waves = [(float(a), float(w), float(p)) for a, w, p in waves]
        self.poly = Poly(poly) if poly else None

    def derivs(self, x, n):
        out = [0.0] * (n + 1)
        for a, w, p in self.waves:
            for j in range(n + 1):
                out[j] += a * w**j * math.sin(w * x + p + j * math.pi / 2.0)
        if self.poly is not None:
            for j, v in enumerate(self.poly.derivs(x, n)):
                out[j] += v
        return out


SIN = Sin()
COS = Cos()
EXP = Exp()
RECIP = Reciprocal()
ARCSIN = Arcsin()
ARCCOS = Arccos()
TANH = Tanh()
SECH = Sech()
EXP_RATIO = ExpRatio()


# ------------------------------------------------------- truncated Taylor jets


class TaylorQ:
    """Truncated univariate Taylor series (normalized coefficients)."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = tuple(float(v) for v in coeffs)

    @classmethod
    def var(cls, x0: float, order: int) -> "TaylorQ":
        """The series variable x0 + h, ``order + 1`` coefficients long."""
        return cls(((float(x0), 1.0) + (0.0,) * (order - 1))[: order + 1])

    @classmethod
    def const(cls, v: float, order: int) -> "TaylorQ":
        return cls((float(v),) + (0.0,) * order)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return TaylorQ((self.c[0] + other,) + self.c[1:])
        return TaylorQ(a + b for a, b in zip(self.c, other.c))

    __radd__ = __add__

    def __neg__(self):
        return TaylorQ(-a for a in self.c)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return TaylorQ((self.c[0] - other,) + self.c[1:])
        return TaylorQ(a - b for a, b in zip(self.c, other.c))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TaylorQ(a * other for a in self.c)
        n = len(self.c)
        out = [0.0] * n
        for i, a in enumerate(self.c):
            if a == 0.0:
                continue
            for j in range(n - i):
                out[i + j] += a * other.c[j]
        return TaylorQ(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        return self * other.apply(RECIP)

    def __pow__(self, n: int):
        acc = TaylorQ.const(1.0, self.order)
        for _ in range(n):
            acc = acc * self
        return acc

    def apply(self, fn: AnalyticFn) -> "TaylorQ":
        """Compose fn on top of this series (Horner on the nilpotent part)."""
        n = self.order
        ds = fn.derivs(self.c[0], n)
        g = TaylorQ((0.0,) + self.c[1:])
        acc = TaylorQ.const(ds[n] / math.factorial(n), n)
        for k in range(n - 1, -1, -1):
            acc = acc * g + ds[k] / math.factorial(k)
        return acc

    def derivs(self) -> list[float]:
        return [c * math.factorial(k) for k, c in enumerate(self.c)]


class TaylorFn:
    """AnalyticFn built from a TaylorQ expression.

    ``builder`` maps the series variable to the series of the function, e.g.
    ``TaylorFn(lambda s: s.apply(TANH).apply(ARCSIN))``.
    """

    def __init__(self, builder):
        self.builder = builder

    def derivs(self, x, n):
        return self.builder(TaylorQ.var(x, n)).derivs()
