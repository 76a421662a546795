"""Helpers that only tests call.

``exact`` makes results comparable bit for bit, and ``bits`` does so for
the coefficients of a term map, the sign of a zero or a NaN included.
``general_sum`` and ``general_product`` are the general loops of
``GrassmannNumber``'s sums and products on term maps, with no operand
answered on its own: the reference for the operations' short paths.
``LOG`` and ``ARCTAN`` are derivative-list providers that only tests
compose, for instance into the kink 2·arctan(exp(x - t)).
``derivs_providers`` gives one instance of every derivative-list provider.
``sample_random`` draws a dense random supernumber of one parity.
``component_jets`` splits a superfield jet into the jets of its four
components.  ``reduced_residual`` evaluates the reduced rows of a case at one
value of the invariant variable and appends the rewritten second-order rows
of the scaling case (``scaling_rewrite_rows``) and of the traveling case.
``clear_memos`` empties every memo of ``src/`` that lives as long as its
module, the ones ``MEMOS`` names; ``test_surface`` finds any it misses.
``assert_reports_alike_from_three_threads`` runs a suite from those cold
memos in three threads at once and compares each report with a serial run.
``DYADIC`` holds the weights of the exact-input twins: small dyadic
rationals k/4, whose products and sums in the identities are exact in double
precision, so a correct identity reads exactly 0.0.
"""

import importlib
import itertools
import math
import random
import struct
import sys
import threading

from susygordon import analytic, elliptic
from susygordon.analytic import ARCSIN, RECIP, TANH, DomainError, Power
from susygordon.cli import main
from susygordon.grassmann import (
    DEFAULT_CONTEXT,
    AlgebraContext,
    GrassmannNumber,
    Parity,
    ParityError,
    _merge_sign,
    apply_analytic,
    check_generator_count,
    scalar,
)
from susygordon.odes import SingularPoint, sin_cos, traveling_rewrite_rows
from susygordon.reductions import _check_profiles, _fill_params, reduction_case
from susygordon.superfield import theta_coefficients
from susygordon.superjet import SuperJet


DYADIC = tuple(k / 4 for k in range(-8, 9))


# every memo of src/ that lives as long as its module: "module.function" for
# a cache or lru_cache, "module.NAME" for a dict, "module.INSTANCE.attribute"
# for a dict a module-level instance keeps
MEMOS = (
    "elliptic._agm_ladder",
    "grassmann._SIGN_CACHE",
    "prolongation.COMPONENT_SIGNATURE._coordinate_keys",
    "prolongation.SSG_SIGNATURE._coordinate_keys",
    "prolongation._sample_layout",
    "prolongation.prolonged_expr",
    "superjet._faa_plan",
    "superjet._leibniz_plan",
    "superjet.jet_spec",
)


def clear_memos():
    """Empty every memo of ``MEMOS``: a cache by its ``cache_clear``, a dict
    by its ``clear``."""
    for path in MEMOS:
        module, *attrs = path.split(".")
        memo = importlib.import_module(f"susygordon.{module}")
        for attr in attrs:
            memo = getattr(memo, attr)
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()
        else:
            memo.clear()


def assert_reports_alike_from_three_threads(suite, tmp_path):
    """``verify --suite SUITE --seed 0`` run serially, then, from cold memos,
    in three threads at once with a tiny switch interval (restored after):
    every worker exits 0 and writes the serial report byte for byte."""
    args = ["verify", "--suite", suite, "--seed", "0", "--out"]
    assert main(args + [str(tmp_path / "serial.json")]) == 0
    want = (tmp_path / "serial.json").read_bytes()
    clear_memos()
    codes, errors = [], []

    def work(i):
        try:
            codes.append(main(args + [str(tmp_path / f"worker{i}.json")]))
        except BaseException as e:
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and codes == [0, 0, 0]
    for i in range(3):
        assert (tmp_path / f"worker{i}.json").read_bytes() == want, i


def exact(f, *args):
    """``f(*args)`` as the coefficients of each returned supernumber in their
    stored order, any NaN as one token, or the type of the error raised."""
    try:
        v = f(*args)
    except ValueError as e:
        return type(e).__name__
    return [[(m, c if c == c else "nan") for m, c in x.terms.items()]
            for x in (v if isinstance(v, list) else [v])]


def bits(terms: dict) -> list:
    """``(mask, IEEE bits of the coefficient)`` in the map's key order."""
    return [(m, struct.pack("<d", c).hex()) for m, c in terms.items()]


def general_sum(ta: dict, tb: dict, op) -> dict:
    """``op(ta, tb)`` for ``op`` ``operator.add`` or ``operator.sub``: every
    term of ``tb`` meets ``ta``'s, even when either map is empty."""
    out = dict(ta)
    for m, c in tb.items():
        v = op(out.get(m, 0.0), c)
        if v == 0.0:
            out.pop(m, None)
        else:
            out[m] = v
    return out


def general_product(ta: dict, tb: dict) -> dict:
    """``ta`` times ``tb`` by the double loop over their terms."""
    out = {}
    for ma, ca in ta.items():
        for mb, cb in tb.items():
            if ma & mb:
                continue
            m = ma | mb
            v = ca * cb * _merge_sign(ma, mb)
            prev = out.get(m)
            out[m] = v if prev is None else prev + v
    return {m: v for m, v in out.items() if v != 0.0}


def sample_random(parity: Parity, max_degree: int, rng_seed, ngen: int = 8) -> GrassmannNumber:
    """Dense random supernumber of the requested parity.

    Coefficients are drawn uniformly from [-1, 1] for every generator subset
    of the requested parity with cardinality <= max_degree, in ascending
    combination order, so a fixed seed reproduces the value exactly.
    """
    if isinstance(parity, str):
        parity = Parity[parity.upper()]
    if parity is Parity.MIXED:
        raise ParityError("sample_random draws homogeneous values only")
    check_generator_count(ngen)
    if max_degree > ngen:
        raise ValueError("max_degree exceeds the generator count")
    rng = random.Random(rng_seed)
    start = 0 if parity is Parity.EVEN else 1
    terms: dict[int, float] = {}
    for deg in range(start, max_degree + 1, 2):
        for combo in itertools.combinations(range(ngen), deg):
            mask = 0
            for i in combo:
                mask |= 1 << i
            c = rng.uniform(-1.0, 1.0)
            if c != 0.0:
                terms[mask] = c
    return GrassmannNumber._make(ngen, terms)


class Log:
    def derivs(self, x, n):
        if x <= 0.0:
            raise DomainError(f"log needs a positive argument body, got {x}")
        out = [math.log(x)]
        for j in range(1, n + 1):
            out.append((-1.0) ** (j - 1) * math.factorial(j - 1) / x**j)
        return out


class Arctan:
    # (1+x^2) y^(n+2) + 2(n+1) x y^(n+1) + n(n+1) y^(n) = 0
    def derivs(self, x, n):
        r = 1.0 + x * x
        out = [math.atan(x)]
        if n >= 1:
            out.append(1.0 / r)
        for k in range(n - 1):
            out.append(-(2 * (k + 1) * x * out[k + 1] + k * (k + 1) * out[k]) / r)
        return out[: n + 1]


LOG = Log()
ARCTAN = Arctan()

# constructor arguments of the providers that take any
_PROVIDER_ARGS = {
    "Power": (0.5,),
    "Poly": ([0.3, -1.0, 0.5],),
    "Const": (2.0,),
    "TrigPoly": ([(0.7, 1.3, 0.2)], [0.1, 0.4]),
    "TaylorFn": (lambda s: s.apply(TANH).apply(ARCSIN),),
    "JacobiSn": (0.5,),
    "JacobiCn": (0.5,),
    "JacobiDn": (0.5,),
}


def derivs_providers():
    """One instance of every class of ``analytic`` and ``elliptic`` with a
    ``derivs(x, n)`` method, and ``LOG`` and ``ARCTAN``.  A new provider that
    takes arguments fails to build until it has an entry in
    ``_PROVIDER_ARGS``."""
    out = [LOG, ARCTAN]
    for mod in (analytic, elliptic):
        for name, cls in vars(mod).items():
            if (isinstance(cls, type) and cls.__module__ == mod.__name__
                    and "derivs" in vars(cls) and name not in ("AnalyticFn", "TaylorQ")):
                out.append(cls(*_PROVIDER_ARGS.get(name, ())))
    return out


def component_jets(jet: SuperJet, ctx: AlgebraContext):
    """The theta slots of a superfield jet as four theta-free jets
    (u/2, phi, psi, F); ``component_superfield`` glues them back exactly."""
    slots = {J: theta_coefficients(v, ctx) for J, v in jet.comp.items()}
    return tuple(
        SuperJet(jet.spec, jet.ngen, {J: c[i] for J, c in slots.items()}) for i in range(4)
    )


def scaling_rewrite_rows(pv, sigma, ngen: int, constant=None):
    """Second-order form of the scaling reduction, nu as the lead profile.

    Needs sigma > 0; the nilpotent constant defaults to sigma**(1/2) mu nu
    evaluated from the same profile values.
    """
    sg = sigma if isinstance(sigma, GrassmannNumber) else scalar(float(sigma), ngen)
    if sg.body <= 0.0:
        raise SingularPoint(f"rewritten scaling rows need sigma > 0, got body {sg.body}")
    a, m, n, b = pv["alpha"], pv["mu"], pv["nu"], pv["beta"]
    sin_a, cos_a = sin_cos(a[0])
    if abs(cos_a.body) < 1e-12:
        raise SingularPoint("cos(alpha) vanishes; tan(alpha) row undefined")
    inv_cos = apply_analytic(RECIP, cos_a)
    tan_a = sin_a * inv_cos
    root = apply_analytic(Power(0.5), sg)
    inv_root = apply_analytic(Power(-0.5), sg)
    inv_sig = apply_analytic(RECIP, sg)
    c0 = constant if constant is not None else root * m[0] * n[0]
    return (
        sg * a[2] + a[1] + sin_a * cos_a - c0 * inv_root * sin_a,
        n[2] + tan_a * a[1] * n[1] + inv_sig * n[1] * 0.5 + inv_sig * cos_a * cos_a * n[0],
        m[0] - inv_cos * n[1],
        b[0] + sin_a,
        root * (m[1] * n[0] + m[0] * n[1]) + inv_root * (m[0] * n[0]) * 0.5,
    )


def reduced_residual(case, profiles, sigma, params=None,
                     ctx: AlgebraContext = DEFAULT_CONTEXT, constant=None) -> list:
    """All reduced rows at one value of the invariant variable.

    Four rows for every case; the scaling and traveling cases return nine,
    the extra five being the rewritten second-order system (with its
    first-integral row last).
    """
    case = reduction_case(case)
    p = _fill_params(case, params, ctx)
    _check_profiles(case, profiles)
    sg = ctx.lift(sigma)
    pv = {name: profiles[name].derivs_at(sg, 2) for name in case.profile_names}
    rows = list(case.equations(pv, sg, p))
    if case.case_id == "S1":
        rows.extend(scaling_rewrite_rows(pv, sg, ctx.generator_count, constant))
    elif case.case_id == "S4":
        rows.extend(traveling_rewrite_rows(pv, p["eps"], constant))
    return rows
