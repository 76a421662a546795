"""Graded jet space, total derivatives, and vector-field prolongation.

One generic engine instantiated twice: once on the superspace picture
(independents x, t, theta1, theta2; one even dependent) and once on the
component picture (independents x, t; dependents u even, phi/psi odd).

Jet coordinates are stored in a canonical form: even derivative counts
plus an ascending tuple of odd directions, where a coordinate subscript
list is read left to right as successive applications (the leftmost
derivative acts first).  Appending an odd direction that must bubble left
past k higher-indexed odd entries costs a sign (-1)^k; a repeated odd
direction kills the coordinate.

Prolonged coefficients come from the graded recursion

    P^A  = D_A P - sum_B (D_A zeta^B) u_B
    P^AB = D_B P^A - sum_C (D_B zeta^C) u_AC

with every product kept in exactly this order, built symbolically by
``prolonged_expr`` (one step per direction, once per signature, parities and
declarations) and then evaluated at sampled points.  Each coefficient
function declares the variables it reads, and each step of the recursion
drops the terms that a declaration makes zero.  The long-hand closed forms
live in prolong_expanded as an independent transcription, whose text stays
as written.

What depends only on a jet point is built once per point: a ``JetPoint``
keeps its on-shell restriction, its seed jets, the coordinate values that
``prolong_expanded`` reads and the generator-free factors of the symmetry
criterion after the first read, so the generators checked at one point share
them.  This is safe because a point's base values and coordinates are
read-only copies, which no caller can change under a kept value; a
concurrent first read only builds an equal value.  What depends on a
(field, point) pair, the frozen coefficients of ``evaluate_spec``, is built
once per check and handed to both prolongation routes, and each field's
constants and table key are formed once, when it is built.
"""

from __future__ import annotations

import random
from functools import cache, cached_property
from itertools import combinations, product
from types import MappingProxyType
from typing import Callable, NamedTuple

from .analytic import COS, SIN
from .grassmann import (
    DEFAULT_CONTEXT,
    AlgebraContext,
    GrassmannNumber,
    Parity,
    _merge_sign,
    add_terms,
    apply_analytic,
    gen_derivative,
)
from .superjet import (
    SuperJet,
    jet_constant,
    jet_map,
    jet_partial,
    jet_spec,
    jet_variable,
)


class IncompleteJetPoint(KeyError):
    """A required jet coordinate is missing from the point."""


EVEN = Parity.EVEN
ODD = Parity.ODD


class ProblemSignature:
    """Named independents and dependents with their parities.

    The name tables are pure functions of the fields, so they are built
    with the signature.  Signatures compare and hash by their fields; the
    hash is formed once, because every table lookup hashes the signature.
    """

    def __init__(self, independents: tuple[tuple[str, Parity], ...],
                 dependents: tuple[tuple[str, Parity], ...], order: int = 2):
        names = [n for n, _ in independents] + [n for n, _ in dependents]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.independents = independents
        self.dependents = dependents
        self.order = order
        self._hash = hash(self._key())
        # name -> (direction index, parity), independents first
        self._variables = {n: (i, p) for i, (n, p) in enumerate(independents + dependents)}
        self._coordinate_keys = {}  # memo of coordinate_key, filled on use
        self.even_independents = tuple(n for n, p in independents if p is EVEN)
        self.odd_independents = tuple(n for n, p in independents if p is ODD)
        self.even_dependents = tuple(n for n, p in dependents if p is EVEN)
        self.odd_dependents = tuple(n for n, p in dependents if p is ODD)

    def __eq__(self, other):
        return type(other) is ProblemSignature and self._key() == other._key()

    def __hash__(self):
        return self._hash

    def _key(self) -> tuple:
        return self.independents, self.dependents, self.order

    def parity_of(self, name: str) -> Parity:
        return self._variables[name][1]

    def dir_index(self, name: str) -> int:
        return self._variables[name][0]

    def coordinate_parity(self, dep: str, jodd) -> Parity:
        flips = len(jodd) & 1
        base = self.parity_of(dep)
        if flips == 0:
            return base
        return ODD if base is EVEN else EVEN


SSG_SIGNATURE = ProblemSignature(
    independents=(("x", EVEN), ("t", EVEN), ("theta1", ODD), ("theta2", ODD)),
    dependents=(("Phi", EVEN),),
)

COMPONENT_SIGNATURE = ProblemSignature(
    independents=(("x", EVEN), ("t", EVEN)),
    dependents=(("u", EVEN), ("phi", ODD), ("psi", ODD)),
)


def coordinate_key(sig: ProblemSignature, dep: str, dirs=()):
    """(sign, key) for the coordinate reached by successive derivatives."""
    dirs = tuple(dirs)
    memo = sig._coordinate_keys
    hit = memo.get((dep, dirs))
    if hit is None:
        hit = memo[dep, dirs] = _coordinate_key(sig, dep, dirs)
    return hit


def _coordinate_key(sig: ProblemSignature, dep: str, dirs: tuple):
    jeven = [0] * len(sig.even_independents)
    jodd: tuple = ()
    sign = 1.0
    for d in dirs:
        if d in sig.even_independents:
            jeven[sig.even_independents.index(d)] += 1
        else:
            s, jodd = append_fn_deriv(sig, jodd, d)
            sign *= s
            if sign == 0.0:
                return 0.0, None
    return sign, (dep, tuple(jeven), jodd)


class JetPoint:
    """Read-only copies of base values and jet coordinates; the on-shell
    restriction ``onshell``, the ``seed_jets``, the ``coordinate_reads`` of
    ``prolong_expanded`` and the generator-free ``criterion_values`` are
    kept after the first read, as the module docstring says."""

    def __init__(self, sig: ProblemSignature, ctx: AlgebraContext, base: dict, coords: dict):
        self.sig = sig
        self.ctx = ctx
        self.base = MappingProxyType(dict(base))
        self.coords = MappingProxyType(dict(coords))

    @cached_property
    def onshell(self) -> "JetPoint":
        return onshell_substitute(self)

    @cached_property
    def seed_jets(self) -> MappingProxyType:
        return MappingProxyType(_seed_jets(self))

    @cached_property
    def coordinate_reads(self) -> dict:
        """``{(dep, dirs): coordinate(dep, *dirs)}``, filled as read."""
        return {}

    @cached_property
    def criterion_values(self) -> tuple:
        return _criterion_values(self)

    def get(self, key) -> GrassmannNumber:
        try:
            return self.coords[key]
        except KeyError:
            raise IncompleteJetPoint(f"jet coordinate {key} missing") from None

    def coordinate(self, dep: str, *dirs) -> GrassmannNumber:
        sign, key = coordinate_key(self.sig, dep, dirs)
        if key is None:
            return self.ctx.zero()
        v = self.get(key)
        return v if sign == 1.0 else v * sign

    def base_value(self, name: str) -> GrassmannNumber:
        try:
            return self.base[name]
        except KeyError:
            raise IncompleteJetPoint(f"base variable {name} missing") from None

    def replace_coords(self, updates: dict) -> "JetPoint":
        return JetPoint(self.sig, self.ctx, self.base, {**self.coords, **updates})


def all_coordinate_keys(sig: ProblemSignature, order: int | None = None):
    """Canonical jet coordinate keys up to the given order."""
    ne = len(sig.even_independents)
    keys = []
    for dep, _ in sig.dependents:
        for total in range((sig.order if order is None else order) + 1):
            for odd_count in range(min(total, len(sig.odd_independents)) + 1):
                for jodd in combinations(sig.odd_independents, odd_count):
                    rem = total - odd_count
                    for jeven in product(range(rem + 1), repeat=ne):
                        if sum(jeven) == rem:
                            keys.append((dep, jeven, jodd))
    return keys


def random_jet_point(
    sig: ProblemSignature,
    rng_seed,
    ctx: AlgebraContext = DEFAULT_CONTEXT,
    order: int | None = None,
) -> JetPoint:
    """Point with theta-free supernumber entries of the right parity.

    Odd values are capped at Grassmann degree 3 and even souls at degree
    2, drawn sparsely from the generators that are not reserved for the
    odd coordinates, so that products through the prolongation formulas
    stay nontrivial without saturating the algebra.  ``order`` deepens
    the point past the signature's order; total derivatives of top-order
    expressions reference those extra slots.

    Each value is ``body + g_i g_j w + g_k g_l w'`` (even) or
    ``g_a u + g_i g_j g_k w`` (odd), written straight into its term map:
    a product of distinct generators is one mask with its merge sign, so
    the map holds the bits, and the key order, that forming those products
    and sums through the general operations gives.
    """
    rng = random.Random(rng_seed)
    reserved = {ctx.roles["theta1"], ctx.roles["theta2"]}
    free = [i for i in range(ctx.generator_count) if i not in reserved]

    def even_value():
        terms: dict = {}
        add_terms(terms, {0: rng.uniform(-1.2, 1.2)})
        for _ in range(2):
            i, j = rng.sample(free, 2)
            sign = _merge_sign(1 << i, 1 << j)
            add_terms(terms, {1 << i | 1 << j: sign * rng.uniform(-0.5, 0.5)})
        return terms

    def odd_value():
        terms: dict = {}
        add_terms(terms, {1 << rng.choice(free): rng.uniform(-1.0, 1.0)})
        i, j, k = rng.sample(free, 3)
        sign = _merge_sign(1 << i, 1 << j) * _merge_sign(1 << i | 1 << j, 1 << k)
        add_terms(terms, {1 << i | 1 << j | 1 << k: sign * rng.uniform(-0.5, 0.5)})
        return terms

    base = {}
    for name in sig.even_independents:
        base[name] = ctx.scalar(rng.uniform(-1.5, 1.5))
    for name in sig.odd_independents:
        base[name] = ctx.gen(name)
    ngen = ctx.generator_count
    coords = {key: GrassmannNumber._make(ngen, even_value() if even else odd_value())
              for key, even in _sample_layout(sig, order)}
    return JetPoint(sig, ctx, base, coords)


@cache
def _sample_layout(sig: ProblemSignature, order: int | None) -> tuple:
    """``(key, is_even)`` for each coordinate ``random_jet_point`` draws."""
    return tuple((key, sig.coordinate_parity(key[0], key[2]) is EVEN)
                 for key in all_coordinate_keys(sig, order))


# ------------------------------------------------------- symbolic expressions


class FnF(NamedTuple):
    """Partial derivative of a vector-field coefficient function."""

    target: str
    derivs: tuple[str, ...]


class CoordF(NamedTuple):
    dep: str
    jeven: tuple[int, ...]
    jodd: tuple[str, ...]


JetExpr = list


def factor_parity(sig: ProblemSignature, coef_parity: dict, f) -> int:
    if isinstance(f, CoordF):
        return 1 if sig.coordinate_parity(f.dep, f.jodd) is ODD else 0
    p = coef_parity[f.target]
    flips = sum(1 for d in f.derivs if sig.parity_of(d) is ODD)
    return (p + flips) & 1


def append_fn_deriv(sig: ProblemSignature, derivs: tuple, direction: str):
    """Outermost derivative in canonical order, on the directions of a jet
    coordinate or the partials of a coefficient function alike."""
    if sig.parity_of(direction) is ODD:
        if direction in derivs:
            return 0.0, derivs
        hops = sum(
            1
            for d in derivs
            if sig.parity_of(d) is ODD and sig.dir_index(d) > sig.dir_index(direction)
        )
        sign = (-1.0) ** hops
    else:
        sign = 1.0
    out = tuple(sorted(derivs + (direction,), key=sig.dir_index))
    return sign, out


def collect(expr: JetExpr) -> JetExpr:
    acc: dict = {}
    for c, fs in expr:
        if c != 0.0:
            acc[fs] = acc.get(fs, 0.0) + c
    return [(c, fs) for fs, c in acc.items() if c != 0.0]


def total_derivative_expr(
    sig: ProblemSignature, coef_parity: dict, expr: JetExpr, direction: str
) -> JetExpr:
    """D_direction of a symbolic expression, graded Leibniz throughout."""
    dpar = 1 if sig.parity_of(direction) is ODD else 0
    out: JetExpr = []

    def d_factor(f):
        """D of a single factor as a list of (coeff, factor tuple)."""
        if isinstance(f, CoordF):
            if direction in sig.even_independents:
                je = list(f.jeven)
                je[sig.even_independents.index(direction)] += 1
                return [(1.0, (CoordF(f.dep, tuple(je), f.jodd),))]
            s, jodd = append_fn_deriv(sig, f.jodd, direction)
            if s == 0.0:
                return []
            return [(s, (CoordF(f.dep, f.jeven, jodd),))]
        # coefficient function: explicit partial plus chain rule through
        # every dependent, first-order coordinate to the left
        pieces = []
        s, dv = append_fn_deriv(sig, f.derivs, direction)
        if s != 0.0:
            pieces.append((s, (FnF(f.target, dv),)))
        for dep, _ in sig.dependents:
            sc, key = coordinate_key(sig, dep, (direction,))
            if key is None:
                continue
            s2, dv2 = append_fn_deriv(sig, f.derivs, dep)
            if s2 == 0.0:
                continue
            pieces.append((sc * s2, (CoordF(*key), FnF(f.target, dv2))))
        return pieces

    for c, fs in expr:
        left_par = 0
        for i, f in enumerate(fs):
            sign = (-1.0) ** (dpar * left_par)
            for dc, dfs in d_factor(f):
                out.append((c * sign * dc, fs[:i] + dfs + fs[i + 1 :]))
            left_par = (left_par + factor_parity(sig, coef_parity, f)) & 1
    return collect(out)


def expr_sub(a: JetExpr, b: JetExpr) -> JetExpr:
    return collect(a + [(-c, fs) for c, fs in b])


# ------------------------------------------------ vector field coefficients


class CoefficientFn:
    """One coefficient of a vector field, decomposed over odd dependents.

    ``sectors`` maps an ascending tuple of odd dependent names to a
    builder; the function is the sum over sectors of (odd monomial from
    the left) times (builder value).  Builders receive a dict of jets
    seeded with the even independents and even dependents and must return
    a SuperJet over those seeds of the requested order.  Dependence on
    odd independents lives inside the returned components as reserved
    Grassmann generators.

    ``reads`` declares the variables (independents and dependents, by
    name) that the function depends on; ``None`` means any of them.  A
    declaration is a promise that every partial along an undeclared
    direction is the empty number at every point.  Prolongation relies on
    it: ``prolonged_expr`` drops the table terms with such a partial at
    each step of its recursion, and ``EvaluatedCoefficient.partial``
    answers such a partial without jet work.  Declaring too much is safe;
    declaring too little gives wrong prolongations.
    """

    __slots__ = ("parity", "sectors", "reads")

    def __init__(self, parity: Parity, sectors: dict[tuple[str, ...], Callable], reads=None):
        self.parity = parity
        self.sectors = sectors
        self.reads = None if reads is None else frozenset(reads)

    @classmethod
    def plain(cls, parity: Parity, builder: Callable, reads=None) -> "CoefficientFn":
        return cls(parity, {(): builder}, reads)

    @classmethod
    def zero(cls, parity: Parity = EVEN) -> "CoefficientFn":
        return cls(parity, {}, frozenset())


class VectorFieldSpec:
    __slots__ = ("sig", "coefficients", "table_key")

    def __init__(self, sig: ProblemSignature, coefficients: dict):
        # an even geometric field: each coefficient's parity matches the
        # parity of the variable it multiplies
        for name, c in coefficients.items():
            if c.parity is not sig.parity_of(name):
                raise ValueError(f"coefficient of {name} must be {sig.parity_of(name)}")
            for S in c.sectors:
                if tuple(sorted(S, key=sig.dir_index)) != S:
                    raise ValueError(f"sector {S} not in canonical order")
                if any(n not in sig.odd_dependents for n in S):
                    raise ValueError(f"sector {S} may only list odd dependents")
            if c.reads is not None and not c.reads <= sig._variables.keys():
                raise ValueError(f"coefficient of {name} reads unknown variables")
        self.sig = sig
        self.coefficients = coefficients
        # the key of the field's tables in ``prolonged_expr``
        reads = tuple(sorted((name, c.reads) for name, c in coefficients.items()))
        self.table_key = (sig, self.parity_table(), reads)

    def parity_table(self) -> tuple:
        """Sorted ``(name, 1 if odd else 0)`` pairs of the coefficients."""
        return tuple(sorted(
            (name, 1 if c.parity is ODD else 0) for name, c in self.coefficients.items()
        ))


class EvaluatedCoefficient:
    """A coefficient function frozen at a point, answering partials.

    Even partials come from the stored jets, partials along odd
    independents from generator derivatives of the jet components, and
    partials along odd dependents from sector bookkeeping.  A query lists
    derivative directions leftmost-first.  ``jets`` are the point's seed
    jets, shared by every coefficient evaluated at the point.
    """

    def __init__(self, fn: CoefficientFn, point: JetPoint, jets: dict):
        self.sig, self.ctx = point.sig, point.ctx
        self.point = point
        self.reads = fn.reads
        # per direction prefix, the jet of each sector (a tuple of odd dependents)
        self._states: dict[tuple, dict[tuple, SuperJet]] = {
            (): {S: builder(jets) for S, builder in fn.sectors.items()}
        }
        self._memo: dict = {}

    def _state_of(self, dirs: tuple) -> dict:
        """Sector state after the partials ``dirs``, extending the cached
        state of ``dirs[:-1]`` by one direction."""
        state = self._states.get(dirs)
        if state is not None:
            return state
        state = self._state_of(dirs[:-1])
        d = dirs[-1]
        sig, ctx = self.sig, self.ctx
        if d in sig.even_independents or d in sig.even_dependents:
            state = {S: jet_partial(j, d) for S, j in state.items()}
        elif d in sig.odd_independents:
            idx = ctx.roles[d]
            new = {}
            for S, j in state.items():
                sgn = (-1.0) ** len(S)
                nj = jet_map(j, lambda v: gen_derivative(v, idx))
                new[S] = nj if sgn == 1.0 else jet_map(nj, lambda v: v * sgn)
            state = new
        else:
            new = {}
            for S, j in state.items():
                if d not in S:
                    continue
                pos = S.index(d)
                rest = S[:pos] + S[pos + 1 :]
                sgn = (-1.0) ** pos
                nj = j if sgn == 1.0 else jet_map(j, lambda v: v * sgn)
                if rest in new:
                    new[rest] = new[rest] + nj
                else:
                    new[rest] = nj
            state = new
        self._states[dirs] = state
        return state

    def partial(self, dirs: tuple = ()) -> GrassmannNumber:
        """The partial along the tuple ``dirs``, memoised in ``_memo``; a
        memo hit is answered first.

        A partial along a direction the function does not declare in
        ``reads`` is the empty number by the declaration's contract, so it
        is answered at once, without building any sector state.
        """
        hit = self._memo.get(dirs)
        if hit is not None:
            return hit
        sig, ctx = self.sig, self.ctx
        acc = ctx.zero()
        if self.reads is not None and not self.reads.issuperset(dirs):
            self._memo[dirs] = acc
            return acc
        state = self._state_of(dirs)
        for S, j in state.items():
            term = j.value()
            for name in reversed(S):
                sgn, key = coordinate_key(sig, name, ())
                term = self.point.get(key) * term
            acc = acc + term
        self._memo[dirs] = acc
        return acc


def _seed_jets(p: JetPoint) -> dict:
    """The point's jets of the even independents and even dependents."""
    sig = p.sig
    spec = jet_spec(sig.even_independents + sig.even_dependents, sig.order)
    jets = {name: jet_variable(spec, name, p.base_value(name)) for name in sig.even_independents}
    for name in sig.even_dependents:
        _, key = coordinate_key(sig, name, ())
        jets[name] = jet_variable(spec, name, p.get(key))
    return jets


def evaluate_spec(v: VectorFieldSpec, p: JetPoint) -> dict:
    """Every coefficient of the field frozen at the point, over the point's
    seed jets."""
    jets = p.seed_jets
    return {name: EvaluatedCoefficient(fn, p, jets) for name, fn in v.coefficients.items()}


def evaluate_expr(expr: JetExpr, coefvals: dict, p: JetPoint) -> GrassmannNumber:
    """The sum over the terms ``(c, (f1, f2, ...))`` of ``c * f1 * f2 * ...``.

    ``prolong`` passes tables of ``prolonged_expr``, from which the terms
    with a partial that a ``CoefficientFn.reads`` declaration rules out are
    already gone.  A term that is zero only at some points is dropped here,
    at its first empty factor, before any product is formed; the factors
    after that one are not looked up.  A surviving term is multiplied left
    to right from ``scalar(c)`` and the terms are summed in table order.
    That order keeps every value, and so every report, bit for bit the same
    as multiplying every term of the full table through.
    """
    acc = p.ctx.zero()
    for c, fs in expr:
        values = []
        for f in fs:
            if isinstance(f, CoordF):
                v = p.get((f.dep, f.jeven, f.jodd))
            else:
                v = coefvals[f.target].partial(f.derivs)
            if not v.terms:
                break
            values.append(v)
        else:
            term = p.ctx.scalar(c)
            for v in values:
                term = term * v
            acc = acc + term
    return acc


# ----------------------------------------------------- prolongation recursion


@cache
def prolonged_expr(sig: ProblemSignature, parities: tuple, reads: tuple, dep: str,
                   dirs: tuple) -> tuple:
    """Terms of the prolonged coefficient of ``dep`` along ``dirs``.

    One step of the graded recursion per direction, the last one B:

        P^{..B} = D_B P^{..} - sum_C (D_B zeta^C) u_{..C}

    starting from the coefficient function of ``dep`` itself, with every
    product kept in the order written.  ``sig``, ``parities`` and ``reads``
    are a field's ``VectorFieldSpec.table_key``.  Each step drops the terms
    with a partial along a direction that its target's ``reads``
    declaration leaves out; a total derivative of such a term has only such
    terms, so no other term is lost, and the others keep their order and
    coefficients.  A field with no declarations (every ``reads`` ``None``)
    gets the whole table.  The terms are an immutable tuple, so a
    concurrent first fill only builds an equal value.
    """
    coef_parity = dict(parities)
    head, b = dirs[:-1], dirs[-1]
    prev = prolonged_expr(sig, parities, reads, dep, head) if head else [(1.0, (FnF(dep, ()),))]
    e = total_derivative_expr(sig, coef_parity, prev, b)
    for c_, _ in sig.independents:
        dz = total_derivative_expr(sig, coef_parity, [(1.0, (FnF(c_, ()),))], b)
        sc, ckey = coordinate_key(sig, dep, head + (c_,))
        if ckey is None:
            continue
        e = expr_sub(e, [(cc * sc, fs + (CoordF(*ckey),)) for cc, fs in dz])
    declared = dict(reads)
    return tuple((c, fs) for c, fs in collect(e)
                 if all(declared[f.target] is None or declared[f.target].issuperset(f.derivs)
                        for f in fs if isinstance(f, FnF)))


SSG_PAIRS = (("x", "t"), ("t", "theta1"), ("x", "theta2"), ("theta1", "theta2"))


def _slots(sig: ProblemSignature) -> list:
    """The (dependent, directions) coefficients ``prolong`` evaluates; the
    symmetry criterion reads some of them."""
    if sig.odd_independents:
        dep = sig.dependents[0][0]
        return [(dep, (a,)) for a, _ in sig.independents] + [(dep, ab) for ab in SSG_PAIRS]
    return [(dep, (a,)) for dep in ("u", "phi", "psi") for a in ("x", "t")] + [("u", ("x", "t"))]


def prolong(v: VectorFieldSpec, p: JetPoint, coefvals: dict | None = None,
            slots=None) -> dict:
    """The prolonged coefficients via the graded recursion, as
    ``{(dependent, directions): value}``: every slot of ``_slots``, or only
    the given ``slots`` in their order.  Each slot's table is
    ``prolonged_expr`` under the field's ``table_key``.

    ``coefvals`` is ``evaluate_spec(v, p)``, evaluated here when not given.
    """
    if coefvals is None:
        coefvals = evaluate_spec(v, p)
    key = v.table_key
    return {slot: evaluate_expr(prolonged_expr(*key, *slot), coefvals, p)
            for slot in (_slots(v.sig) if slots is None else slots)}


# ------------------------------------------------- expanded closed-form route


def prolong_expanded(v: VectorFieldSpec, p: JetPoint, coefvals: dict | None = None) -> dict:
    """Term-by-term transcription of the fully expanded coefficient formulas,
    keyed as ``prolong`` keys its coefficients.

    The formula text is left as written, as the independent reference for
    ``prolong``; ``c`` reads each coordinate, and forms its sign, once per
    point, keeping it in the point's ``coordinate_reads`` for every field
    checked there.  ``coefvals`` is ``evaluate_spec(v, p)``, evaluated here
    when not given; handing ``prolong`` and this route the same one shares
    their partials, not their formulas.
    """
    if coefvals is None:
        coefvals = evaluate_spec(v, p)
    coords = p.coordinate_reads

    def f(target, *dirs):
        return coefvals[target].partial(dirs)

    def c(dep, *dirs):
        value = coords.get((dep, dirs))
        if value is None:
            value = coords[dep, dirs] = p.coordinate(dep, *dirs)
        return value

    expanded = _ssg_expanded if v.sig.odd_independents else _component_expanded
    return expanded(f, c)


def _ssg_expanded(f, c):
    x, t, o1, o2, P = "x", "t", "theta1", "theta2", "Phi"
    Px = (
        f(P, x) + f(P, P) * c(P, x)
        - f(x, x) * c(P, x) - f(x, P) * c(P, x) * c(P, x)
        - f(t, x) * c(P, t) - f(t, P) * c(P, x) * c(P, t)
        - f(o1, x) * c(P, o1) - f(o1, P) * c(P, x) * c(P, o1)
        - f(o2, x) * c(P, o2) - f(o2, P) * c(P, x) * c(P, o2)
    )
    Pt = (
        f(P, t) + f(P, P) * c(P, t)
        - f(x, t) * c(P, x) - f(x, P) * c(P, x) * c(P, t)
        - f(t, t) * c(P, t) - f(t, P) * c(P, t) * c(P, t)
        - f(o1, t) * c(P, o1) - f(o1, P) * c(P, t) * c(P, o1)
        - f(o2, t) * c(P, o2) - f(o2, P) * c(P, t) * c(P, o2)
    )
    Po1 = (
        f(P, o1) + f(P, P) * c(P, o1)
        - f(x, o1) * c(P, x) - f(x, P) * c(P, x) * c(P, o1)
        - f(t, o1) * c(P, t) - f(t, P) * c(P, t) * c(P, o1)
        - f(o1, o1) * c(P, o1)
        - f(o2, o1) * c(P, o2) + f(o2, P) * c(P, o1) * c(P, o2)
    )
    Po2 = (
        f(P, o2) + f(P, P) * c(P, o2)
        - f(x, o2) * c(P, x) - f(x, P) * c(P, x) * c(P, o2)
        - f(t, o2) * c(P, t) - f(t, P) * c(P, t) * c(P, o2)
        - f(o1, o2) * c(P, o1) - f(o1, P) * c(P, o1) * c(P, o2)
        - f(o2, o2) * c(P, o2)
    )
    Pxt = (
        f(P, x, t) + f(P, x, P) * c(P, t) + f(P, t, P) * c(P, x)
        + f(P, P, P) * c(P, x) * c(P, t) + f(P, P) * c(P, x, t)
        - f(x, x, t) * c(P, x) - f(x, x, P) * c(P, x) * c(P, t) - f(x, x) * c(P, x, t)
        - f(x, t, P) * c(P, x) * c(P, x) - f(x, P, P) * c(P, x) * c(P, x) * c(P, t)
        - 2.0 * f(x, P) * c(P, x) * c(P, x, t) - f(x, t) * c(P, x, x)
        - f(x, P) * c(P, t) * c(P, x, x)
        - f(t, x, t) * c(P, t) - f(t, t, P) * c(P, x) * c(P, t) - f(t, t) * c(P, x, t)
        - f(t, x, P) * c(P, t) * c(P, t) - f(t, P, P) * c(P, t) * c(P, t) * c(P, x)
        - 2.0 * f(t, P) * c(P, t) * c(P, x, t) - f(t, x) * c(P, t, t)
        - f(t, P) * c(P, x) * c(P, t, t)
        - f(o1, x, t) * c(P, o1) - f(o1, x, P) * c(P, t) * c(P, o1)
        - f(o1, t, P) * c(P, x) * c(P, o1) - f(o1, x) * c(P, t, o1)
        - f(o1, t) * c(P, x, o1) - f(o1, P, P) * c(P, x) * c(P, t) * c(P, o1)
        - f(o1, P) * c(P, x, t) * c(P, o1) - f(o1, P) * c(P, t, o1) * c(P, x)
        - f(o1, P) * c(P, x, o1) * c(P, t)
        - f(o2, x, t) * c(P, o2) - f(o2, x, P) * c(P, t) * c(P, o2)
        - f(o2, t, P) * c(P, x) * c(P, o2) - f(o2, x) * c(P, t, o2)
        - f(o2, t) * c(P, x, o2) - f(o2, P, P) * c(P, x) * c(P, t) * c(P, o2)
        - f(o2, P) * c(P, x, t) * c(P, o2) - f(o2, P) * c(P, t, o2) * c(P, x)
        - f(o2, P) * c(P, x, o2) * c(P, t)
    )
    Pto1 = (
        f(P, t, o1) + f(P, t, P) * c(P, o1) + f(P, o1, P) * c(P, t)
        + f(P, P, P) * c(P, t) * c(P, o1) + f(P, P) * c(P, t, o1)
        - f(x, t, o1) * c(P, x) - f(x, t, P) * c(P, x) * c(P, o1)
        - f(x, t) * c(P, x, o1) - f(x, o1, P) * c(P, x) * c(P, t)
        - f(x, P, P) * c(P, x) * c(P, t) * c(P, o1) - f(x, P) * c(P, t) * c(P, x, o1)
        - f(x, P) * c(P, x) * c(P, t, o1) - f(x, o1) * c(P, x, t)
        - f(x, P) * c(P, x, t) * c(P, o1)
        - f(t, t, o1) * c(P, t) - f(t, t, P) * c(P, t) * c(P, o1)
        - f(t, t) * c(P, t, o1) - f(t, o1, P) * c(P, t) * c(P, t)
        - f(t, P, P) * c(P, t) * c(P, t) * c(P, o1) - 2.0 * f(t, P) * c(P, t) * c(P, t, o1)
        - f(t, o1) * c(P, t, t) - f(t, P) * c(P, t, t) * c(P, o1)
        - f(o1, t, o1) * c(P, o1) - f(o1, o1, P) * c(P, t) * c(P, o1)
        - f(o1, o1) * c(P, t, o1)
        - f(o2, t, o1) * c(P, o2) + f(o2, t, P) * c(P, o1) * c(P, o2)
        - f(o2, t) * c(P, o1, o2) - f(o2, o1, P) * c(P, t) * c(P, o2)
        + f(o2, P, P) * c(P, t) * c(P, o1) * c(P, o2) + f(o2, P) * c(P, t, o1) * c(P, o2)
        - f(o2, P) * c(P, t) * c(P, o1, o2) - f(o2, o1) * c(P, t, o2)
        + f(o2, P) * c(P, o1) * c(P, t, o2)
    )
    Pxo2 = (
        f(P, x, o2) + f(P, x, P) * c(P, o2) + f(P, o2, P) * c(P, x)
        + f(P, P, P) * c(P, x) * c(P, o2) + f(P, P) * c(P, x, o2)
        - f(x, x, o2) * c(P, x) - f(x, x, P) * c(P, x) * c(P, o2)
        - f(x, x) * c(P, x, o2) - f(x, o2, P) * c(P, x) * c(P, x)
        - f(x, P, P) * c(P, x) * c(P, x) * c(P, o2) - 2.0 * f(x, P) * c(P, x) * c(P, x, o2)
        - f(x, o2) * c(P, x, x) - f(x, P) * c(P, x, x) * c(P, o2)
        - f(t, x, o2) * c(P, t) - f(t, x, P) * c(P, t) * c(P, o2)
        - f(t, x) * c(P, t, o2) - f(t, o2, P) * c(P, x) * c(P, t)
        - f(t, P, P) * c(P, x) * c(P, t) * c(P, o2) - f(t, P) * c(P, x) * c(P, t, o2)
        - f(t, P) * c(P, t) * c(P, x, o2) - f(t, o2) * c(P, x, t)
        - f(t, P) * c(P, x, t) * c(P, o2)
        - f(o1, x, o2) * c(P, o1) + f(o1, x, P) * c(P, o2) * c(P, o1)
        + f(o1, x) * c(P, o1, o2) - f(o1, o2, P) * c(P, x) * c(P, o1)
        + f(o1, P, P) * c(P, x) * c(P, o2) * c(P, o1) + f(o1, P) * c(P, x, o2) * c(P, o1)
        + f(o1, P) * c(P, x) * c(P, o1, o2) - f(o1, o2) * c(P, x, o1)
        + f(o1, P) * c(P, o2) * c(P, x, o1)
        - f(o2, x, o2) * c(P, o2) - f(o2, o2, P) * c(P, x) * c(P, o2)
        - f(o2, o2) * c(P, x, o2)
    )
    Po1o2 = (
        f(P, o1, o2) - f(P, o1, P) * c(P, o2) + f(P, o2, P) * c(P, o1)
        - f(P, P, P) * c(P, o1) * c(P, o2) + f(P, P) * c(P, o1, o2)
        - f(x, o1, o2) * c(P, x) + f(x, o1, P) * c(P, x) * c(P, o2)
        + f(x, o1) * c(P, x, o2) - f(x, o2, P) * c(P, x) * c(P, o1)
        + f(x, P, P) * c(P, x) * c(P, o1) * c(P, o2) + f(x, P) * c(P, o1) * c(P, x, o2)
        - f(x, P) * c(P, x) * c(P, o1, o2) - f(x, o2) * c(P, x, o1)
        - f(x, P) * c(P, o2) * c(P, x, o1)
        - f(t, o1, o2) * c(P, t) + f(t, o1, P) * c(P, t) * c(P, o2)
        + f(t, o1) * c(P, t, o2) - f(t, o2, P) * c(P, t) * c(P, o1)
        + f(t, P, P) * c(P, t) * c(P, o1) * c(P, o2) + f(t, P) * c(P, o1) * c(P, t, o2)
        - f(t, P) * c(P, t) * c(P, o1, o2) - f(t, o2) * c(P, t, o1)
        - f(t, P) * c(P, o2) * c(P, t, o1)
        - f(o1, o1, o2) * c(P, o1) + f(o1, o1, P) * c(P, o1) * c(P, o2)
        - f(o1, o1) * c(P, o1, o2)
        - f(o2, o1, o2) * c(P, o2) + f(o2, o2, P) * c(P, o1) * c(P, o2)
        - f(o2, o2) * c(P, o1, o2)
    )
    return {
        ("Phi", (x,)): Px,
        ("Phi", (t,)): Pt,
        ("Phi", (o1,)): Po1,
        ("Phi", (o2,)): Po2,
        ("Phi", (x, t)): Pxt,
        ("Phi", (t, o1)): Pto1,
        ("Phi", (x, o2)): Pxo2,
        ("Phi", (o1, o2)): Po1o2,
    }


def _component_expanded(f, c):
    # first-order coefficients for the phi_t and psi_x slots
    St = (
        f("phi", "t") + f("phi", "u") * c("u", "t")
        + f("phi", "phi") * c("phi", "t") + f("phi", "psi") * c("psi", "t")
        - f("x", "t") * c("phi", "x") - f("x", "u") * c("u", "t") * c("phi", "x")
        - f("x", "phi") * c("phi", "x") * c("phi", "t")
        - f("x", "psi") * c("phi", "x") * c("psi", "t")
        - f("t", "t") * c("phi", "t") - f("t", "u") * c("u", "t") * c("phi", "t")
        - f("t", "psi") * c("phi", "t") * c("psi", "t")
    )
    Px_ = (
        f("psi", "x") + f("psi", "u") * c("u", "x")
        + f("psi", "phi") * c("phi", "x") + f("psi", "psi") * c("psi", "x")
        - f("x", "x") * c("psi", "x") - f("x", "u") * c("u", "x") * c("psi", "x")
        + f("x", "phi") * c("phi", "x") * c("psi", "x")
        - f("t", "x") * c("psi", "t") - f("t", "u") * c("u", "x") * c("psi", "t")
        + f("t", "phi") * c("phi", "x") * c("psi", "t")
        + f("t", "psi") * c("psi", "x") * c("psi", "t")
    )
    return {("phi", ("t",)): St, ("psi", ("x",)): Px_}


# ----------------------------------------------------- on-shell substitution


def onshell_substitute(p: JetPoint) -> JetPoint:
    """Constrain the point to the solution manifold of its signature."""
    ctx = p.ctx
    if p.sig.odd_independents:
        th1 = p.base_value("theta1")
        th2 = p.base_value("theta2")
        sub = (
            th1 * th2 * p.coordinate("Phi", "x", "t")
            - th2 * p.coordinate("Phi", "t", "theta1")
            + th1 * p.coordinate("Phi", "x", "theta2")
            - apply_analytic(SIN, p.coordinate("Phi"))
        )
        _, key = coordinate_key(p.sig, "Phi", ("theta1", "theta2"))
        return p.replace_coords({key: sub})
    u = p.coordinate("u")
    phi, psi = p.coordinate("phi"), p.coordinate("psi")
    ux, ut = p.coordinate("u", "x"), p.coordinate("u", "t")
    phx, pst = p.coordinate("phi", "x"), p.coordinate("psi", "t")
    sh = apply_analytic(SIN, u * 0.5)
    ch = apply_analytic(COS, u * 0.5)
    sin_u = sh * ch * 2.0
    upd = {}

    def put(dep, dirs, val):
        _, key = coordinate_key(p.sig, dep, dirs)
        upd[key] = val

    put("u", ("x", "t"), -sin_u + phi * psi * sh * 2.0)
    put("phi", ("t",), -(psi * ch))
    put("psi", ("x",), phi * ch)
    # induced constraints on the stored second derivatives of the equations
    put("phi", ("x", "t"), -(phi * ch * ch) + psi * ux * sh * 0.5)
    put("psi", ("x", "t"), -(psi * ch * ch) - phi * ut * sh * 0.5)
    put("phi", ("t", "t"), -(pst * ch) + psi * ut * sh * 0.5)
    put("psi", ("x", "x"), phx * ch - phi * ux * sh * 0.5)
    return p.replace_coords(upd)


# ----------------------------------------------------------- symmetry checks


def _criterion_values(q: JetPoint) -> tuple:
    """The factors of the symmetry criterion that no generator enters, at an
    on-shell point, each in the association ``symmetry_residual`` reads.

    Superspace: ``th2 Phi_xt + Phi_x theta2``, ``th1 Phi_xt + Phi_t theta1``,
    ``cos Phi`` and ``th1 th2``.  Component: ``-cos u + ch phi psi``,
    ``sh 2``, ``sh (-2)``, ``sh`` and ``ch``, with sh and ch the sine and
    cosine of u/2.
    """
    if q.sig.odd_independents:
        th1 = q.base_value("theta1")
        th2 = q.base_value("theta2")
        phi_xt = q.coordinate("Phi", "x", "t")
        return (
            th2 * phi_xt + q.coordinate("Phi", "x", "theta2"),
            th1 * phi_xt + q.coordinate("Phi", "t", "theta1"),
            apply_analytic(COS, q.coordinate("Phi")),
            th1 * th2,
        )
    u = q.coordinate("u")
    phi, psi = q.coordinate("phi"), q.coordinate("psi")
    sh = apply_analytic(SIN, u * 0.5)
    ch = apply_analytic(COS, u * 0.5)
    cos_u = ch * ch - sh * sh
    return -cos_u + ch * phi * psi, sh * 2.0, sh * -2.0, sh, ch


def symmetry_residual(v: VectorFieldSpec, p: JetPoint):
    """Criterion value(s) at the on-shell restriction of the point.

    Superspace instance: one even supernumber, zero for true symmetries.
    Component instance: the triple of slot conditions.  Only the slots of
    the derivatives the equations contain enter (Olver 1993, Thm. 2.31), so
    ``prolong`` evaluates those alone.  The factors no generator enters are
    read from the point's ``criterion_values``.
    """
    q = p.onshell
    coefvals = evaluate_spec(v, q)
    if v.sig.odd_independents:
        pro = prolong(v, q, coefvals, [("Phi", ab) for ab in SSG_PAIRS])
        th1 = q.base_value("theta1")
        th2 = q.base_value("theta2")
        a, b, cosP, th12 = q.criterion_values
        rho = coefvals["theta1"].partial(())
        sig_ = coefvals["theta2"].partial(())
        Pi = coefvals["Phi"].partial(())
        return (
            rho * a
            - sig_ * b
            - Pi * cosP
            + pro["Phi", ("x", "t")] * th12
            + pro["Phi", ("t", "theta1")] * th2
            - pro["Phi", ("x", "theta2")] * th1
            - pro["Phi", ("theta1", "theta2")]
        )
    pro = prolong(v, q, coefvals, (("u", ("x", "t")), ("phi", ("t",)), ("psi", ("x",))))
    phi, psi = q.coordinate("phi"), q.coordinate("psi")
    w, sh2, shm2, sh, ch = q.criterion_values
    U = coefvals["u"].partial(())
    S = coefvals["phi"].partial(())
    Ps = coefvals["psi"].partial(())
    r1 = pro["u", ("x", "t")] - (U * w + S * sh2 * psi + Ps * shm2 * phi)
    r2 = pro["phi", ("t",)] - (U * 0.5 * sh * psi - Ps * ch)
    r3 = pro["psi", ("x",)] - (U * -0.5 * sh * phi + S * ch)
    return r1, r2, r3


# ------------------------------------------------------------ field builders


def _const_builder(value: GrassmannNumber):
    def build(jets):
        spec = next(iter(jets.values())).spec
        return jet_constant(spec, value)

    return build


def _affine_builder(seed: str, rate: GrassmannNumber, shift: GrassmannNumber):
    """The coefficient ``seed * rate + shift`` of the coordinate ``seed``,
    its constants formed once per spec."""

    def build(jets):
        return jets[seed] * rate + jet_constant(jets[seed].spec, shift)

    return build


def ssg_generator_constants(C1, C2, C3, D1, D2, ctx: AlgebraContext) -> tuple:
    """``(x_rate, x_shift, t_rate, t_shift, rho, sigma)``, the superspace
    realization of the symmetry superalgebra: xi = x x_rate + x_shift =
    x (-2 C1) + (C2 - D1 theta1), tau = t (2 C1) + (C3 - D2 theta2),
    rho = -C1 theta1 + D1, sigma = C1 theta2 + D2, C's even and D's odd."""
    th1, th2 = ctx.gen("theta1"), ctx.gen("theta2")
    return (C1 * -2.0, C2 - D1 * th1, C1 * 2.0, C3 - D2 * th2,
            C1 * -1.0 * th1 + D1, C1 * th2 + D2)


def ssg_symmetry_spec(C1=0.0, C2=0.0, C3=0.0, D1=None, D2=None, ctx=DEFAULT_CONTEXT):
    """The general solved symmetry of the superspace equation: Pi = 0 and
    the coefficients of ``ssg_generator_constants``."""
    zero = ctx.zero()
    D1 = D1 if D1 is not None else zero
    D2 = D2 if D2 is not None else zero
    C1, C2, C3 = ctx.lift(C1), ctx.lift(C2), ctx.lift(C3)
    x_rate, x_shift, t_rate, t_shift, rho, sigma = ssg_generator_constants(C1, C2, C3, D1, D2, ctx)
    xi = _affine_builder("x", x_rate, x_shift)
    tau = _affine_builder("t", t_rate, t_shift)
    # a constant that carries a theta generator makes every coefficient read it
    extra = {n for n in ("theta1", "theta2")
             if any(m >> ctx.roles[n] & 1 for c in (C1, C2, C3, D1, D2) for m in c.terms)}
    return VectorFieldSpec(
        SSG_SIGNATURE,
        {
            "x": CoefficientFn.plain(EVEN, xi, {"x", "theta1", *extra}),
            "t": CoefficientFn.plain(EVEN, tau, {"t", "theta2", *extra}),
            "theta1": CoefficientFn.plain(ODD, _const_builder(rho), {"theta1", *extra}),
            "theta2": CoefficientFn.plain(ODD, _const_builder(sigma), {"theta2", *extra}),
            "Phi": CoefficientFn.zero(EVEN),
        },
    )


def ssg_named_generators(ctx: AlgebraContext = DEFAULT_CONTEXT) -> dict:
    """The five basis symmetries; odd ones carry their odd prefactor."""
    return {
        "L": ssg_symmetry_spec(C1=1.0, ctx=ctx),
        "P_x": ssg_symmetry_spec(C2=1.0, ctx=ctx),
        "P_t": ssg_symmetry_spec(C3=1.0, ctx=ctx),
        "mu*Q_x": ssg_symmetry_spec(D1=ctx.gen("mu"), ctx=ctx),
        "nu*Q_t": ssg_symmetry_spec(D2=ctx.gen("nu"), ctx=ctx),
    }


def ssg_shift_spec(ctx: AlgebraContext = DEFAULT_CONTEXT) -> VectorFieldSpec:
    """Pi = 1 and nothing else: not a symmetry (negative control)."""
    return VectorFieldSpec(
        SSG_SIGNATURE,
        {
            "x": CoefficientFn.zero(EVEN),
            "t": CoefficientFn.zero(EVEN),
            "theta1": CoefficientFn.zero(ODD),
            "theta2": CoefficientFn.zero(ODD),
            "Phi": CoefficientFn.plain(EVEN, _const_builder(ctx.one()), ()),
        },
    )


def component_symmetry_spec(C1=0.0, C2=0.0, C3=0.0, ctx=DEFAULT_CONTEXT) -> VectorFieldSpec:
    """xi = C1 x + C2, tau = -C1 t + C3, U = 0, Sigma = -C1 phi/2, Psi = C1 psi/2."""
    C1f = float(C1)
    xi = _affine_builder("x", ctx.scalar(C1f), ctx.scalar(float(C2)))
    tau = _affine_builder("t", ctx.scalar(-C1f), ctx.scalar(float(C3)))
    return VectorFieldSpec(
        COMPONENT_SIGNATURE,
        {
            "x": CoefficientFn.plain(EVEN, xi, {"x"}),
            "t": CoefficientFn.plain(EVEN, tau, {"t"}),
            "u": CoefficientFn.zero(EVEN),
            "phi": CoefficientFn(ODD, {("phi",): _const_builder(ctx.scalar(-0.5 * C1f))}, {"phi"}),
            "psi": CoefficientFn(ODD, {("psi",): _const_builder(ctx.scalar(0.5 * C1f))}, {"psi"}),
        },
    )


def component_named_generators(ctx: AlgebraContext = DEFAULT_CONTEXT) -> dict:
    return {
        "P_x": component_symmetry_spec(C2=1.0, ctx=ctx),
        "P_t": component_symmetry_spec(C3=1.0, ctx=ctx),
        "D": component_symmetry_spec(C1=2.0, ctx=ctx),
    }


def component_shift_spec(ctx: AlgebraContext = DEFAULT_CONTEXT) -> VectorFieldSpec:
    return VectorFieldSpec(
        COMPONENT_SIGNATURE,
        {
            "x": CoefficientFn.zero(EVEN),
            "t": CoefficientFn.zero(EVEN),
            "u": CoefficientFn.plain(EVEN, _const_builder(ctx.one()), ()),
            "phi": CoefficientFn.zero(ODD),
            "psi": CoefficientFn.zero(ODD),
        },
    )
