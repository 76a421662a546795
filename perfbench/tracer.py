"""Outside-in tracing of the susygordon CLI for the benchmark's traced runs.

Run as ``python3 perfbench/tracer.py <susygordon argv>`` with the program's
``src`` directory on ``PYTHONPATH`` and ``PERFBENCH_TRACE_OUT`` naming an
output stem.  The script wraps the public functions of each module at every
module binding (``cli``, ``odes``, ``catalog`` and ``reductions`` import
names directly, so a wrapper on the defining module alone would miss their
calls), runs ``susygordon.cli.main`` on the argv, and writes what it
recorded when the run ends.  Nothing under ``src/`` changes.

Two kinds of record are kept in memory:

* spans, one per call of a wrapped layer function: name, parent, start,
  end, and the time spent in Grassmann arithmetic directly inside it;
* tallies for the hot leaf operations (Grassmann product and sum, about
  2 M calls in ``verify --suite all``), which add their count and time to
  the enclosing span instead of allocating a span per call.

``<stem>.json`` holds the span names, leaf tallies and counters;
``<stem>.spans`` holds the span arrays.  ``load`` reads both back and
``reduce_tallies`` turns them into per-layer calls and self times, where a
span's self time is its duration minus the time covered by its child spans
and leaf operations.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from array import array
from collections import Counter

# span layer name -> dotted paths of the functions it covers (module:qualname)
SPAN_LAYERS = {
    "grassmann.soul_taylor": ("grassmann:apply_analytic", "grassmann:soul_taylor"),
    "grassmann.invert": ("grassmann:invert",),
    "superjet.apply_analytic": ("superjet:jet_apply_analytic",),
    "superjet.multiply": ("superjet:jet_multiply",),
    "superjet.partial": ("superjet:jet_partial",),
    "superfield.jet": ("superfield:superfield_jet",),
    "superfield.bundle": ("superfield:evaluate_bundle",),
    "superfield.op_theta": ("superfield:op_D", "superfield:op_Q"),
    "superfield.residual": ("superfield:ssg_residual",),
    "prolongation.prolong": ("prolongation:prolong",),
    "prolongation.prolong_expanded": ("prolongation:prolong_expanded",),
    "prolongation.symmetry_residual": ("prolongation:symmetry_residual",),
    "prolongation.evaluate_expr": ("prolongation:evaluate_expr",),
    "prolongation.coefficient_partial": ("prolongation:EvaluatedCoefficient.partial",),
    "prolongation.evaluate_spec": ("prolongation:evaluate_spec",),
    "prolongation.random_jet_point": ("prolongation:random_jet_point",),
    "superalgebra.bracket": ("superalgebra:bracket",),
    "superalgebra.adjoint": ("superalgebra:adjoint_exp", "superalgebra:adjoint_closed_form"),
    "superalgebra.verify_structure": ("superalgebra:verify_structure",),
    "reductions.consistency": ("reductions:reduction_consistency",),
    "reductions.ansatz_invariance": ("reductions:ansatz_invariance",),
    "reductions.component_slice": ("reductions:component_slice_check",),
    "reductions.obstruction": ("reductions:nonstandard_obstruction",),
    "catalog.verify_entry": ("catalog:verify_entry",),
    "elliptic.jacobi": ("elliptic:jacobi",),
    "elliptic.ladder": (
        "elliptic:JacobiSn.derivs",
        "elliptic:JacobiCn.derivs",
        "elliptic:JacobiDn.derivs",
        "elliptic:jacobi_jet",
    ),
    "odes.integrate": ("odes:integrate_profile_ode",),
    "cli": ("cli:main",),
    "cli.render": ("cli:_render_json", "cli:_render_csv", "cli:_render_md", "cli:_emit"),
}
# every ``derivs`` defined on a class of the analytic module joins this layer
ANALYTIC_LAYER = "analytic.derivs"
# builders of ODE systems; the rhs and energy of what they return are wrapped
ODE_BUILDERS = ("traveling_profile_system", "odd_profile_system", "scaling_odd_system")

# tallies of the Grassmann product, in slot order
MUL_TALLIES = (
    "grassmann.mul.calls",
    "grassmann.mul.self_s",
    "grassmann.mul.super_calls",  # supernumber x supernumber
    "grassmann.mul.empty",  # ... of which one operand has no terms
    "grassmann.mul.scalar",  # one operand is a real or has only a body term
    "grassmann.mul.calls_by_size.0",  # by the smaller operand's term count
    "grassmann.mul.calls_by_size.1",
    "grassmann.mul.calls_by_size.2-3",
    "grassmann.mul.calls_by_size.ge4",
    "grassmann.mul.term_pairs",  # sum of the product of the term counts
)
_CALLS, _TIME, _SUPER, _EMPTY, _SCALAR, _S0, _S1, _S23, _S4, _PAIRS = range(len(MUL_TALLIES))
ADDSUB_TALLIES = ("grassmann.addsub.calls", "grassmann.addsub.self_s")
PROBE_COUNTERS = (
    "superfield.jet.repeats",
    "superjet.apply_analytic.real_only",
    "prolongation.evaluate_expr.factors",
    "prolongation.coefficient_partial.memo_hits",
)


class Recorder:
    """Spans and tallies of one traced process."""

    def __init__(self):
        self.names = ["process"]
        self._ids = {"process": 0}
        self.span_name = array("i", [0])
        self.span_parent = array("i", [-1])
        self.span_start = array("d", [time.perf_counter()])
        self.span_end = array("d", [0.0])
        self.span_leaf = array("d", [0.0])
        self.stack = [0]
        self.mul = [0] * len(MUL_TALLIES)
        self.addsub = [0, 0.0]
        self.counters = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, probe=None):
        """``fn`` recording one span per call; an alias of the same layer
        called directly inside it joins the enclosing span."""
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, leaf, stack = self.span_start, self.span_end, self.span_leaf, self.stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            top = stack[-1]
            if names[top] == nid:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(top)
            ends.append(0.0)
            leaf.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapped

    def leaf_addsub(self, fn):
        tally, leaf, stack = self.addsub, self.span_leaf, self.stack
        clock = time.perf_counter

        def wrapped(a, b):
            t0 = clock()
            out = fn(a, b)
            dt = clock() - t0
            if out is NotImplemented:
                return out
            leaf[stack[-1]] += dt
            tally[0] += 1
            tally[1] += dt
            return out

        return wrapped

    def leaf_mul(self, fn, number_type):
        c, leaf, stack = self.mul, self.span_leaf, self.stack
        clock = time.perf_counter

        def wrapped(a, b):
            t0 = clock()
            out = fn(a, b)
            dt = clock() - t0
            if out is NotImplemented:
                return out
            leaf[stack[-1]] += dt
            c[_CALLS] += 1
            c[_TIME] += dt
            ta = a.terms
            na = len(ta)
            if b.__class__ is number_type:
                tb = b.terms
                nb = len(tb)
                c[_SUPER] += 1
                if not na or not nb:
                    c[_EMPTY] += 1
                if (na == 1 and 0 in ta) or (nb == 1 and 0 in tb):
                    c[_SCALAR] += 1
            else:  # a real factor is body-only by definition
                nb = 1 if b else 0
                c[_SCALAR] += 1
            small = na if na < nb else nb
            c[_S0 if small == 0 else _S1 if small == 1 else _S23 if small < 4 else _S4] += 1
            c[_PAIRS] += na * nb
            return out

        return wrapped

    def finish(self, stem: str) -> None:
        self.span_end[0] = time.perf_counter()
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "mul": self.mul,
            "addsub": self.addsub,
            "counters": dict(self.counters),
        }
        with open(stem + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end, self.span_leaf):
                arr.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def _rebind(modules, old, new) -> None:
    """Point every module-level name bound to ``old`` at ``new``."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def _resolve(modules_by_short, path):
    short, qual = path.split(":")
    mod = modules_by_short[short]
    owner_name, _, attr = qual.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    return owner, attr


def _terms_key(v):
    terms = getattr(v, "terms", None)
    return v if terms is None else tuple(sorted(terms.items()))


def install(rec: Recorder) -> None:
    """Wrap the layer functions of an imported susygordon in place."""
    import susygordon.cli  # noqa: F401  (imports every module it wraps)
    from susygordon import analytic, grassmann

    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "susygordon" or n.startswith("susygordon."))]
    by_short = {m.__name__.rpartition(".")[2]: m for m in modules}
    cli = by_short["cli"]
    counters = rec.counters

    # probes: counts measured where the work happens
    seen_jets: set = set()
    kept_fields: list = []

    def probe_jet(f, x, t, order=2):
        key = (id(f), _terms_key(x), _terms_key(t), order)
        if key in seen_jets:
            counters["superfield.jet.repeats"] += 1
        else:
            seen_jets.add(key)
            kept_fields.append(f)  # keeps id(f) unique within the check

    def probe_apply_analytic(a, fn):
        if all(v.terms.keys() <= {0} for v in a.comp.values()):
            counters["superjet.apply_analytic.real_only"] += 1

    def probe_evaluate_expr(expr, coefvals, p):
        counters["prolongation.evaluate_expr.factors"] += sum(len(fs) for _, fs in expr)

    def probe_partial(coef, dirs=()):
        if tuple(dirs) in coef._memo:
            counters["prolongation.coefficient_partial.memo_hits"] += 1

    probes = {
        "superfield.jet": probe_jet,
        "superjet.apply_analytic": probe_apply_analytic,
        "prolongation.evaluate_expr": probe_evaluate_expr,
        "prolongation.coefficient_partial": probe_partial,
    }

    for layer, paths in SPAN_LAYERS.items():
        for path in paths:
            owner, attr = _resolve(by_short, path)
            old = getattr(owner, attr)
            new = rec.span(layer, old, probes.get(layer))
            if isinstance(owner, type):
                setattr(owner, attr, new)
            else:
                _rebind(modules, old, new)
                if layer == "cli.render":
                    renderers = cli._RENDERERS
                    for fmt, fn in list(renderers.items()):
                        if fn is old:
                            renderers[fmt] = new

    for obj in list(vars(analytic).values()):
        if (isinstance(obj, type) and obj.__module__ == analytic.__name__
                and "derivs" in vars(obj) and obj is not analytic.AnalyticFn):
            obj.derivs = rec.span(ANALYTIC_LAYER, vars(obj)["derivs"])

    gn = grassmann.GrassmannNumber
    gn.__mul__ = rec.leaf_mul(vars(gn)["__mul__"], gn)
    for attr in ("__add__", "__radd__", "__sub__"):
        setattr(gn, attr, rec.leaf_addsub(vars(gn)[attr]))

    odes = by_short["odes"]
    for builder in ODE_BUILDERS:
        old = getattr(odes, builder)

        def build(*args, _old=old, **kwargs):
            system = _old(*args, **kwargs)
            energy = system.energy
            return dataclasses.replace(
                system,
                rhs=rec.span("odes.rhs", system.rhs),
                energy=None if energy is None else rec.span("odes.energy", energy),
            )

        _rebind(modules, old, build)

    # a superfield jet counts as repeated only within one check
    run_checks = cli._run_checks

    def check_scope(fn):
        def scoped(cfg, ctx):
            seen_jets.clear()
            kept_fields.clear()
            return fn(cfg, ctx)
        return scoped

    def run_checks_scoped(specs, cfg):
        specs = [dataclasses.replace(s, fn=check_scope(s.fn)) for s in specs]
        return run_checks(specs, cfg)

    _rebind(modules, run_checks, run_checks_scoped)


def load(stem: str):
    """The header and span arrays one traced process wrote."""
    with open(stem + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    n = header["spans"]
    arrays = []
    with open(stem + ".spans", "rb") as fh:
        for code in "iiddd":
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def reduce_tallies(header, arrays) -> dict:
    """Raw per-layer tallies of one process: ``<layer>.calls``,
    ``<layer>.self_s`` and the probe counters, all summable across
    processes."""
    names, parents, starts, ends, leaf = arrays
    n = len(names)
    dur = [ends[i] - starts[i] for i in range(n)]
    covered = list(leaf)
    for i in range(1, n):
        covered[parents[i]] += dur[i]
    out = Counter()
    labels = header["names"]
    for i in range(1, n):
        label = labels[names[i]]
        out[label + ".calls"] += 1
        out[label + ".self_s"] += dur[i] - covered[i]
    out.update(dict(zip(MUL_TALLIES, header["mul"])))
    out.update(dict(zip(ADDSUB_TALLIES, header["addsub"])))
    out.update(header["counters"])
    return out


def tally_names() -> set:
    """Every name ``reduce_tallies`` can produce."""
    layers = [*SPAN_LAYERS, ANALYTIC_LAYER, "odes.rhs", "odes.energy"]
    names = {f"{layer}.{kind}" for layer in layers for kind in ("calls", "self_s")}
    return names | set(MUL_TALLIES) | set(ADDSUB_TALLIES) | set(PROBE_COUNTERS)


def main(argv) -> int:
    stem = os.environ["PERFBENCH_TRACE_OUT"]
    rec = Recorder()
    install(rec)
    from susygordon import cli

    try:
        return cli.main(argv)
    finally:
        rec.finish(stem)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
