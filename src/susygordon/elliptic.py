"""Jacobi elliptic functions sn, cn, dn on the real line.

Parameter convention: everything is indexed by m = k^2, never by the
modulus itself, so the m < 0 cases stay in real arithmetic.  m in (0, 1)
goes through descending arithmetic-geometric-mean steps, m < 0 through
the negative-parameter map onto (0, 1), and m in {0, 1} through the
trigonometric / hyperbolic limits.  m > 1 is out of scope.  The AGM
ladder of each m is computed once and kept (``_agm_ladder``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .grassmann import GrassmannNumber, ParityError


class UnsupportedParameter(ValueError):
    """m > 1 would need the reciprocal-modulus map, which is out of scope."""


class EllipticTriple(NamedTuple):
    sn: float
    cn: float
    dn: float
    u: float
    m: float


class EllipticJet(NamedTuple):
    """sn, cn, dn of an even supernumber argument, soul absorbed by Taylor."""

    sn: GrassmannNumber
    cn: GrassmannNumber
    dn: GrassmannNumber
    u: GrassmannNumber
    m: float


_AGM_DEPTH = 24
_AGM_CUT = 1e-15


def _check_parameter(m: float) -> float:
    m = float(m)
    if m > 1.0:
        raise UnsupportedParameter(f"parameter m={m} is above 1")
    return m


def ellipk(m: float) -> float:
    """Complete integral of the first kind, any m <= 1."""
    m = _check_parameter(m)
    if m == 1.0:
        return math.inf
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(_AGM_DEPTH):
        if abs(a - b) <= _AGM_CUT * abs(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


@lru_cache(maxsize=64)
def _agm_ladder(m: float):
    # a_n and c_n = (a_{n-1} - b_{n-1})/2, stopping once c is negligible;
    # a pure function of m, so it is kept per m, as tuples
    a, b = 1.0, math.sqrt(1.0 - m)
    avals, cvals = [a], [math.sqrt(m)]
    for _ in range(_AGM_DEPTH):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        avals.append(a)
        cvals.append(c)
        if abs(c) <= _AGM_CUT * a:
            break
    return tuple(avals), tuple(cvals)


def jacobi(u: float, m: float) -> EllipticTriple:
    u, m = float(u), _check_parameter(m)
    if m == 0.0:
        return EllipticTriple(math.sin(u), math.cos(u), 1.0, u, m)
    if m == 1.0:
        sech = 1.0 / math.cosh(u)
        return EllipticTriple(math.tanh(u), sech, sech, u, m)
    if m < 0.0:
        # map onto the parameter mu/(1+mu) in (0, 1)
        mu = -m
        g = math.sqrt(1.0 + mu)
        inner = jacobi(u * g, mu / (1.0 + mu))
        dn = 1.0 / inner.dn
        return EllipticTriple(inner.sn * dn / g, inner.cn * dn, dn, u, m)
    avals, cvals = _agm_ladder(m)
    n = len(avals) - 1
    phi = math.ldexp(avals[n] * u, n)
    while n > 0:
        t = cvals[n] * math.sin(phi) / avals[n]
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, t))))
        n -= 1
    sn = math.sin(phi)
    dn = math.sqrt(1.0 - m * sn * sn)
    return EllipticTriple(sn, math.cos(phi), dn, u, m)


def _derivative_ladder(x: float, m: float, n: int):
    """Lists of sn/cn/dn derivatives at x up to order n, by Leibniz steps
    through sn' = cn dn, cn' = -sn dn, dn' = -m sn cn."""
    t = jacobi(x, m)
    S, C, D = [t.sn], [t.cn], [t.dn]
    for j in range(n):
        S.append(sum(math.comb(j, i) * C[i] * D[j - i] for i in range(j + 1)))
        C.append(-sum(math.comb(j, i) * S[i] * D[j - i] for i in range(j + 1)))
        D.append(-m * sum(math.comb(j, i) * S[i] * C[j - i] for i in range(j + 1)))
    return S, C, D


class JacobiSn:
    def __init__(self, m: float):
        self.m = _check_parameter(m)

    def derivs(self, x: float, n: int):
        return _derivative_ladder(x, self.m, n)[0]


class JacobiCn:
    def __init__(self, m: float):
        self.m = _check_parameter(m)

    def derivs(self, x: float, n: int):
        return _derivative_ladder(x, self.m, n)[1]


class JacobiDn:
    def __init__(self, m: float):
        self.m = _check_parameter(m)

    def derivs(self, x: float, n: int):
        return _derivative_ladder(x, self.m, n)[2]


def jacobi_jet(u: GrassmannNumber, m: float, order: int = 3) -> EllipticJet:
    """Triple at an even supernumber argument.

    The Taylor expansion around the body is cut at ``order`` powers of
    the soul (or earlier, once the powers vanish).
    """
    if order < 0 or order > 3:
        raise ValueError(f"order must be in 0..3, got {order}")
    if not u.is_even():
        raise ParityError("jacobi_jet needs an even argument")
    m = _check_parameter(m)
    S, C, D = _derivative_ladder(u.body, m, order)
    soul = u.soul()
    out = [GrassmannNumber(u.ngen, {0: v} if v != 0.0 else {}) for v in (S[0], C[0], D[0])]
    p = GrassmannNumber(u.ngen, {0: 1.0})
    fact = 1.0
    for j in range(1, order + 1):
        p = p * soul
        if p.is_zero():
            break
        fact *= j
        for slot, ladder in enumerate((S, C, D)):
            out[slot] = out[slot] + p * (ladder[j] / fact)
    return EllipticJet(out[0], out[1], out[2], u, m)
