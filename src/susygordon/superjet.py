"""Jets of supernumber-valued functions of commuting coordinates.

A ``SuperJet`` stores raw partial derivatives (not normalized Taylor
coefficients) up to a total order against a fixed tuple of even seed
names.  Its components are Grassmann numbers, so a single jet carries a
whole superspace expansion; the seeds themselves always commute, which
keeps the Leibniz bookkeeping sign-free as long as factor order is
preserved.  A soul-free point's jets hold body-only supernumbers and take
the same walk: Taylor-mode propagation on one number type.

Composition with an analytic function uses Faa di Bruno in its set
partition form over index positions.  The base component must be even.

The index bookkeeping is done once per ``JetSpec``, not once per call: the
Faa di Bruno plan (every set partition of every multi-index, as the blocks'
multi-indices) and the Leibniz table (index pair to sum and binomial
weight) are built on first use and cached per frozen spec.  A Faa di Bruno
term with an absent component is skipped before any product is formed.  The
derivatives of the analytic function at the base come from
``grassmann.soul_derivs``.  Every value stays bit for bit what multiplying
every term through gives: an absent component is the empty number, whose
product is empty, and the surviving terms keep the same partition order and
the same left-to-right factor order.

The specs themselves are cached too: ``jet_spec`` returns one frozen
``JetSpec`` per shape (seeds, order), so lowering a jet or building the
coordinate jets of a point validates a shape once, not once per call.  The
cache keeps no exception, so an invalid shape raises on every request, and
a concurrent first fill only builds an equal value.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import product
from types import MappingProxyType
from typing import Callable

from .analytic import AnalyticFn
from .grassmann import GrassmannNumber, ParityError, soul_derivs


class JetSpec:
    """The seed names and the order of a jet; specs compare and hash by value."""

    __slots__ = ("seeds", "order")

    def __init__(self, seeds: tuple[str, ...], order: int = 2):
        if not seeds or len(set(seeds)) != len(seeds):
            raise ValueError(f"seed names must be distinct and nonempty: {seeds}")
        if order < 0:
            raise ValueError("negative jet order")
        self.seeds = seeds
        self.order = order

    def __eq__(self, other):
        return type(other) is JetSpec and self.seeds == other.seeds and self.order == other.order

    def __hash__(self):
        return hash((self.seeds, self.order))

    def __repr__(self):
        return f"JetSpec(seeds={self.seeds!r}, order={self.order!r})"

    def axis(self, seed: str) -> int:
        try:
            return self.seeds.index(seed)
        except ValueError:
            raise KeyError(f"unknown seed {seed!r}; have {self.seeds}") from None

    def indices(self):
        """All multi-indices with total degree <= order."""
        ranges = [range(self.order + 1)] * len(self.seeds)
        for J in product(*ranges):
            if sum(J) <= self.order:
                yield J


@cache
def jet_spec(seeds: tuple[str, ...], order: int) -> JetSpec:
    """The one ``JetSpec`` of a shape; an invalid shape raises every time."""
    return JetSpec(seeds, order)


class SuperJet:
    __slots__ = ("spec", "ngen", "comp")

    def __init__(self, spec: JetSpec, ngen: int, comp: dict):
        self.spec = spec
        self.ngen = ngen
        self.comp = {J: v for J, v in comp.items() if not v.is_zero()}

    def get(self, J) -> GrassmannNumber:
        v = self.comp.get(tuple(J))
        return v if v is not None else GrassmannNumber._make(self.ngen, {})

    def value(self) -> GrassmannNumber:
        return self.get((0,) * len(self.spec.seeds))

    def d(self, *seeds: str) -> GrassmannNumber:
        """Raw derivative component by seed names, e.g. jet.d('x', 'x', 't')."""
        J = [0] * len(self.spec.seeds)
        for s in seeds:
            J[self.spec.axis(s)] += 1
        return self.get(tuple(J))

    def __add__(self, other):
        return jet_add(self, other)

    def __sub__(self, other):
        return jet_add(self, jet_scale(other, -1.0))

    def __neg__(self):
        return jet_scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, SuperJet):
            return jet_multiply(self, other)
        return jet_scale(self, other)

    def __rmul__(self, other):
        # scalar/Grassmann prefactor from the left
        return jet_scale(self, other, from_left=True)

    def __repr__(self):
        parts = ", ".join(f"{J}: {v}" for J, v in sorted(self.comp.items()))
        return f"SuperJet({self.spec.seeds}, order={self.spec.order}, {{{parts}}})"


def _check_same(a: SuperJet, b: SuperJet):
    if a.spec != b.spec:
        raise ValueError(f"jet spec mismatch: {a.spec} vs {b.spec}")
    if a.ngen != b.ngen:
        raise ValueError("jets over different Grassmann algebras")


def jet_constant(spec: JetSpec, value: GrassmannNumber) -> SuperJet:
    return SuperJet(spec, value.ngen, {(0,) * len(spec.seeds): value})


def jet_variable(spec: JetSpec, seed: str, value: GrassmannNumber) -> SuperJet:
    """The jet of the coordinate ``seed`` at ``value``, with unit slope,
    over ``value``'s algebra."""
    ax = spec.axis(seed)
    comp = {(0,) * len(spec.seeds): value}
    if spec.order >= 1:
        e = [0] * len(spec.seeds)
        e[ax] = 1
        comp[tuple(e)] = GrassmannNumber._make(value.ngen, {0: 1.0})
    return SuperJet(spec, value.ngen, comp)


def nonzero(v) -> bool:
    """Whether a jet keeps the component ``v``: a float other than 0.0, or
    a supernumber with terms."""
    return bool(v.terms) if isinstance(v, GrassmannNumber) else v != 0.0


def add_into(acc: dict, other: dict) -> None:
    """Add the component map ``other`` into ``acc`` in place, as ``jet_add``
    sums: a new key joins at the end, and a sum that vanishes leaves the
    map, so a later entry of its key joins at the end too."""
    if not acc:
        acc.update(other)
        return
    for J, v in other.items():
        w = acc.get(J)
        if w is None:
            acc[J] = v
            continue
        s = w + v
        if nonzero(s):
            acc[J] = s
        else:
            del acc[J]


def jet_add(a: SuperJet, b: SuperJet) -> SuperJet:
    _check_same(a, b)
    comp = dict(a.comp)
    add_into(comp, b.comp)
    return SuperJet(a.spec, a.ngen, comp)


def jet_scale(a: SuperJet, c, from_left: bool = False) -> SuperJet:
    """``a`` scaled by a real or a supernumber ``c``.

    An empty supernumber of ``a``'s algebra gives the empty jet without
    forming a product: every product with it is empty, whatever the
    component, NaN and inf included.  A float 0.0 empties every component
    by the algebra's product rule.
    """
    if isinstance(c, GrassmannNumber):
        if not c.terms and c.ngen == a.ngen:
            return SuperJet(a.spec, a.ngen, {})
        if from_left:
            return SuperJet(a.spec, a.ngen, {J: c * v for J, v in a.comp.items()})
    return SuperJet(a.spec, a.ngen, {J: v * c for J, v in a.comp.items()})


def _binom_multi(J, I) -> float:
    out = 1.0
    for j, i in zip(J, I):
        out *= math.comb(j, i)
    return out


@cache
def _leibniz_plan(spec: JetSpec) -> MappingProxyType:
    """``(I, K) -> (I + K, binomial weight)`` for every pair within the order.

    The table is read-only, so a concurrent first fill only builds an equal
    value.
    """
    idx = list(spec.indices())
    table = {}
    for I in idx:
        for K in idx:
            J = tuple(i + k for i, k in zip(I, K))
            if sum(J) <= spec.order:
                table[I, K] = (J, _binom_multi(J, I))
    return MappingProxyType(table)


def jet_multiply(a: SuperJet, b: SuperJet) -> SuperJet:
    """Componentwise Leibniz product; factor order a*b is preserved."""
    _check_same(a, b)
    plan = _leibniz_plan(a.spec)
    comp: dict = {}
    for I, av in a.comp.items():
        for K, bv in b.comp.items():
            hit = plan.get((I, K))
            if hit is None:
                continue
            J, w = hit
            term = av * bv
            term = term * w if w != 1.0 else term
            comp[J] = comp[J] + term if J in comp else term
    return SuperJet(a.spec, a.ngen, comp)


def jet_partial(a: SuperJet, seed: str) -> SuperJet:
    """Shift one derivative slot down; the result is one order lower."""
    ax = a.spec.axis(seed)
    sub = jet_spec(a.spec.seeds, a.spec.order - 1)
    comp = {}
    for J, v in a.comp.items():
        if J[ax] == 0:
            continue
        K = list(J)
        K[ax] -= 1
        if sum(K) <= sub.order:
            comp[tuple(K)] = v
    return SuperJet(sub, a.ngen, comp)


def _set_partitions_of(items):
    if not items:
        yield []
        return
    head, tail = items[0], items[1:]
    for rest in _set_partitions_of(tail):
        for i in range(len(rest)):
            yield [rest[j] + ([head] if j == i else []) for j in range(len(rest))]
        yield [[head]] + rest


@cache
def _faa_plan(spec: JetSpec) -> tuple:
    """Faa di Bruno terms of every component of degree >= 1.

    One ``(J, terms)`` entry per multi-index ``J`` in ``spec.indices()``
    order; ``terms`` holds ``(block_count, (K_1, ..., K_b))`` for every set
    partition of the index positions of ``J``, in ``_set_partitions_of``
    order, where ``K_i`` is the multi-index that block ``i`` collects.  The
    plan is an immutable tuple, so a concurrent first fill only builds an
    equal value.
    """
    n = len(spec.seeds)
    plan = []
    for J in spec.indices():
        d = sum(J)
        if d == 0:
            continue
        positions = [ax for ax, cnt in enumerate(J) for _ in range(cnt)]
        terms = []
        for part in _set_partitions_of(list(range(d))):
            blocks = []
            for block in part:
                K = [0] * n
                for pos in block:
                    K[positions[pos]] += 1
                blocks.append(tuple(K))
            terms.append((len(part), tuple(blocks)))
        plan.append((J, tuple(terms)))
    return tuple(plan)


def jet_apply_analytic(a: SuperJet, fn: AnalyticFn) -> SuperJet:
    """fn composed onto an even jet.

    Each component of total degree d expands over set partitions of the d
    index positions, walked from the spec's cached plan.  A term is dropped
    at its first absent component; the others are multiplied left to right
    from ``f^(b)`` and summed in plan order.  Every component must be even:
    the composition only makes sense for an even-valued function, and
    evenness is what lets the chain rule factors commute without sign
    tracking.
    """
    have = a.comp
    for v in have.values():
        if not v.is_even():
            raise ParityError("analytic composition needs an even jet")
    fs = soul_derivs(fn, a.value(), a.spec.order)
    zero = GrassmannNumber._make(a.ngen, {})
    comp = {(0,) * len(a.spec.seeds): fs[0]}
    for J, terms in _faa_plan(a.spec):
        acc = zero
        for b, blocks in terms:
            factors = []
            for K in blocks:
                v = have.get(K)
                if v is None:
                    break
                factors.append(v)
            else:
                term = fs[b]
                for v in factors:
                    term = term * v
                acc = acc + term
        comp[J] = acc
    return SuperJet(a.spec, a.ngen, comp)


def jet_map(a: SuperJet, f: Callable[[GrassmannNumber], GrassmannNumber]) -> SuperJet:
    return SuperJet(a.spec, a.ngen, {J: f(v) for J, v in a.comp.items()})
