"""RK4 trajectories checked against closed forms and conservation laws."""

import dataclasses
import math
import random
import sys
import threading

import pytest

from susygordon import odes
from susygordon.elliptic import ellipk, jacobi
from susygordon.grassmann import DEFAULT_CONTEXT as CTX
from susygordon.grassmann import AlgebraContext, GrassmannNumber
from susygordon.odes import (
    NearSingular,
    OutOfDomain,
    drift_ratio,
    elliptic_background,
    energy_drifts,
    first_integral_check,
    integrate_profile_ode,
    integrate_two_sided,
    make_system,
    odd_profile_system,
    scaling_odd_system,
    step_count,
    traveling_profile_system,
)

from helpers import DYADIC, bits


def test_kink_profile_matches_gudermannian():
    # alpha = arcsin(tanh s) solves the eps=-1, K0=0 traveling equation
    sys = traveling_profile_system(-1.0)
    traj = integrate_profile_ode(sys, (0.0, 1.0), 0.0, 2.0, 1.0 / 256)
    worst = max(
        abs(s.value - math.asin(math.tanh(s.sigma))) for s in traj.samples
    )
    assert worst <= 1e-8


def test_kink_profile_backward_and_two_sided():
    sys = traveling_profile_system(-1.0)
    traj = integrate_two_sided(sys, (0.0, 1.0), -2.0, 2.0, 1.0 / 256)
    sigmas = traj.grid()
    assert sigmas == sorted(sigmas)
    assert sigmas[0] == -2.0 and sigmas[-1] == 2.0
    worst = max(
        abs(s.value - math.asin(math.tanh(s.sigma))) for s in traj.samples
    )
    assert worst <= 1e-8


def test_pendulum_profile_matches_elliptic_closed_form():
    # eps=+1, K0=0: alpha'' = sin(alpha)cos(alpha), solved by arccos(cn(s, -1))
    sys = traveling_profile_system(1.0)
    traj = integrate_profile_ode(sys, (0.0, 1.0), 0.0, 2.25, 1.0 / 256)
    for s in traj.samples[1:]:
        assert abs(s.value - math.acos(jacobi(s.sigma, -1.0).cn)) <= 1e-8


def test_degenerate_linear_system_is_cosine():
    sys = odd_profile_system("ginv12", -1.0, 0.0)
    traj = integrate_profile_ode(sys, (1.0, 0.0), 0.0, 2.0, 1.0 / 128)
    worst = max(abs(s.value - math.cos(s.sigma)) for s in traj.samples)
    assert worst <= 1e-8


def test_odd_profile_forcing_signs_differ():
    z = CTX.scalar(0.0)
    lo = odd_profile_system("ginv12", -1.0, 0.7)
    hi = odd_profile_system("ginv17", -1.0, 0.7)
    at = 0.6
    trip = jacobi(at, 0.49)
    gap = lo.rhs(at, z, z) - hi.rhs(at, z, z)
    assert abs(gap.body - 2.0 * (-1.0) * trip.dn * 0.7 * trip.cn) <= 1e-14


def test_scaling_profile_matches_dispersive_closed_form():
    # with zero background the scaling equation is solved by sin(2 sqrt(s))
    sys = scaling_odd_system()
    ics = (math.sin(2.0), math.cos(2.0))
    traj = integrate_profile_ode(sys, ics, 1.0, 4.0, 1.0 / 256)
    worst = max(
        abs(s.value - math.sin(2.0 * math.sqrt(s.sigma))) for s in traj.samples
    )
    assert worst <= 1e-8


def test_scaling_profile_second_branch():
    sys = scaling_odd_system()
    ics = (math.cos(2.0), -math.sin(2.0))
    traj = integrate_profile_ode(sys, ics, 1.0, 3.0, 1.0 / 256)
    for s in traj.samples:
        assert abs(s.value - math.cos(2.0 * math.sqrt(s.sigma))) <= 1e-8


def test_scaling_profile_pole_raises():
    sys = scaling_odd_system()
    with pytest.raises(NearSingular):
        integrate_profile_ode(sys, (0.0, 1.0), -1.0, 1.0, 0.25)


def test_first_integral_drift_small():
    sys = traveling_profile_system(-1.0)
    traj = integrate_profile_ode(sys, (0.0, 1.0), 0.0, 3.0, 1.0 / 256)
    assert first_integral_check(traj) <= 1e-8


def test_first_integral_fourth_order_ratio():
    sys = traveling_profile_system(-1.0)
    r = drift_ratio(sys, (0.3, 0.9), 0.0, 3.0, 0.1)
    assert 16.0 * 0.8 <= r <= 16.0 * 1.2


def test_first_integral_constant_profile():
    sys = traveling_profile_system(1.0)
    traj = integrate_profile_ode(sys, (0.0, 0.0), 0.0, 1.0, 0.25)
    assert first_integral_check(traj) == 0.0
    assert all(s.value == 0.0 for s in traj.samples)


def test_zero_data_on_linear_system_stays_zero():
    sys = odd_profile_system("ginv17", -1.0, 0.6)
    traj = integrate_profile_ode(sys, (0.0, 0.0), 0.0, 1.0, 0.125)
    # the drive term makes this inhomogeneous, so zero data does not stay zero
    assert traj.samples[-1].value != 0.0
    quiet = scaling_odd_system()
    traj = integrate_profile_ode(quiet, (0.0, 0.0), 1.0, 2.0, 0.125)
    assert all(s.value == 0.0 and s.d1 == 0.0 for s in traj.samples)


def test_nilpotent_coupling_rides_along():
    pair = CTX.gen("mu0") * CTX.gen("lambda0")
    k0 = pair * 0.3
    sys = traveling_profile_system(-1.0, coupling=k0)
    traj = integrate_profile_ode(sys, (0.0, 1.0), 0.0, 2.0, 1.0 / 128)
    end = traj.samples[-1].value
    # body ignores the nilpotent coupling entirely
    assert abs(end.body - math.asin(math.tanh(2.0))) <= 1e-8
    # soul coefficient equals the K0-derivative of the real-coupling flow
    h = 1e-3
    up = integrate_profile_ode(
        traveling_profile_system(-1.0, coupling=h), (0.0, 1.0), 0.0, 2.0, 1.0 / 128
    ).samples[-1]
    dn = integrate_profile_ode(
        traveling_profile_system(-1.0, coupling=-h), (0.0, 1.0), 0.0, 2.0, 1.0 / 128
    ).samples[-1]
    fd = (up.value - dn.value) / (2 * h)
    soul = end.soul()
    assert (soul - pair * (0.3 * fd)).norm() <= 1e-5 * abs(fd) + 1e-12
    # and the first integral stays flat in every slot
    assert first_integral_check(traj) <= 1e-8


def _sample_bits(traj):
    return [
        (s.sigma, *(bits(CTX.lift(v).terms) for v in (s.value, s.d1, s.d2)))
        for s in traj.samples
    ]


def _grassmann_drifts(traj):
    # the first integral evaluated on the supernumber samples themselves
    energy = traj.system.energy
    e = [energy(s.sigma, s.value, s.d1) for s in traj.samples]
    return [(x - e[0]).norm() for x in e]


def _hex(values):
    return [float.hex(v) for v in values]


def _typed(system, seen):
    # the system with its rhs recording the type of each state it is given
    def rhs(sig, y, d1):
        seen.add((type(y), type(d1)))
        return system.rhs(sig, y, d1)

    return dataclasses.replace(system, rhs=rhs)


@pytest.mark.parametrize("ics", [(0.3, -0.7), (-0.0, -0.0), (-0.0, 0.0)])
@pytest.mark.parametrize("name,sigma0,sigma1", [
    ("rebp", 0.0, 1.5), ("ginv12", 0.0, 1.5), ("ginv17", 1.5, -0.5), ("d16nu", 1.0, 2.5),
])
def test_float_march_gives_the_bits_of_the_grassmann_march(name, sigma0, sigma1, ics):
    # real data march on floats and supernumber data in the algebra; every
    # sum and product keeps its order, and a float zero of either sign
    # lifts to the empty number
    system = make_system(name)
    seen_real, seen_super = set(), set()
    real = integrate_profile_ode(_typed(system, seen_real), ics, sigma0, sigma1, 1.0 / 64)
    lifted = tuple(CTX.scalar(v) for v in ics)
    sup = integrate_profile_ode(_typed(system, seen_super), lifted, sigma0, sigma1, 1.0 / 64)
    assert seen_real == {(float, float)}
    assert seen_super == {(GrassmannNumber, GrassmannNumber)}
    assert _sample_bits(real) == _sample_bits(sup)
    if system.energy is not None:
        assert _hex(energy_drifts(real)) == _hex(_grassmann_drifts(sup))


@pytest.mark.parametrize("body", [0.0, 0.25])
def test_nilpotent_coupling_lifts_a_float_march_to_the_same_bits(body):
    # the first rhs call returns a supernumber and lifts the real state;
    # from there the float march is the Grassmann march term for term
    k0 = CTX.gen("mu0") * CTX.gen("lambda0") * 0.3 + body
    system = traveling_profile_system(-1.0, coupling=k0)
    real = integrate_profile_ode(system, (0.2, 0.9), 0.0, 1.0, 1.0 / 32)
    sup = integrate_profile_ode(system, (CTX.scalar(0.2), CTX.scalar(0.9)), 0.0, 1.0, 1.0 / 32)
    assert not real.samples[-1].value.soul().is_zero()
    assert _sample_bits(real) == _sample_bits(sup)
    assert _hex(energy_drifts(real)) == _hex(_grassmann_drifts(sup))


_TYPE_RANGES = {"rebp": (0.0, 0.5), "ginv12": (0.0, 0.5), "ginv17": (0.5, -0.25),
                "d16nu": (1.0, 1.5)}


@pytest.mark.parametrize("name", list(_TYPE_RANGES))
def test_samples_keep_the_type_of_their_march(name):
    system = make_system(name)
    sigma0, sigma1 = _TYPE_RANGES[name]

    def values(ics):
        traj = integrate_profile_ode(system, ics, sigma0, sigma1, 0.125)
        return [v for s in traj.samples for v in (s.value, s.d1, s.d2)]

    assert all(type(v) is float for v in values((0.3, -0.7)))
    # a width other than the default context's: the data bring their algebra
    narrow = GrassmannNumber(3, {0: 0.3, 0b101: 0.5})
    for ics in ((narrow, narrow * -2.0), (narrow, -0.7), (0.3, narrow)):
        got = values(ics)
        assert all(isinstance(v, GrassmannNumber) and v.ngen == 3 for v in got), ics


def test_nilpotent_coupling_lifts_a_real_march_after_its_first_node():
    k0 = CTX.gen("mu0") * CTX.gen("lambda0") * 0.3
    system = traveling_profile_system(-1.0, coupling=k0)
    first, *rest = integrate_profile_ode(system, (0.2, 0.9), 0.0, 0.5, 0.125).samples
    # the first node holds the real data and the rhs the coupling lifted
    assert type(first.value) is float and type(first.d1) is float
    assert isinstance(first.d2, GrassmannNumber) and not first.d2.soul().is_zero()
    assert all(isinstance(v, GrassmannNumber) and v.ngen == CTX.generator_count
               for s in rest for v in (s.value, s.d1, s.d2))


def test_negative_zero_coupling_acts_as_zero():
    # -0.0 couples as 0.0, as the body of a supernumber would
    ics = (-0.0, -0.0)
    plain = integrate_profile_ode(traveling_profile_system(-1.0, 0.0), ics, 0.0, 0.5, 0.125)
    signed = integrate_profile_ode(traveling_profile_system(-1.0, -0.0), ics, 0.0, 0.5, 0.125)
    assert [_hex((s.value, s.d1, s.d2)) for s in plain.samples] == [
        _hex((s.value, s.d1, s.d2)) for s in signed.samples
    ]


def test_samples_carry_equation_second_derivative():
    sys = traveling_profile_system(-1.0)
    traj = integrate_profile_ode(sys, (0.2, 0.7), 0.0, 1.0, 0.125)
    for s in traj.samples:
        want = sys.rhs(s.sigma, s.value, s.d1)
        assert s.d2 - want == 0.0


def test_trajectory_lookup():
    sys = odd_profile_system("ginv12", -1.0, 0.5)
    traj = integrate_profile_ode(sys, (0.0, 1.0), 0.0, 2.0, 0.25)
    node = traj.at(1.25)
    assert node.sigma == 1.25
    with pytest.raises(KeyError):
        traj.at(1.3)


@pytest.mark.parametrize(
    "bad",
    [
        lambda s: integrate_profile_ode(s, (0, 1), 0.0, 1.0, -0.1),
        lambda s: integrate_profile_ode(s, (0, 1), 0.0, 0.0, 0.1),
        lambda s: integrate_profile_ode(s, (0, 1), 0.0, 1.0, 0.3),
        # step counts that are not finite
        lambda s: integrate_profile_ode(s, (0, 1), 0.0, 1e300, 1e-300),
        lambda s: integrate_profile_ode(s, (0, 1), 0.0, math.inf, 0.1),
    ],
)
def test_bad_ranges_rejected(bad):
    sys = traveling_profile_system(-1.0)
    with pytest.raises(ValueError):
        bad(sys)


@pytest.mark.parametrize("lo,hi,step", [(0.0, -2.25, 1e-300), (0.0, 1.0, 1e-8)])
def test_step_count_refuses_a_march_that_would_not_end(lo, hi, step):
    with pytest.raises(ValueError, match="more than"):
        step_count(lo, hi, step)


def test_system_registry_and_validation():
    assert make_system("rebp").name == "rebp"
    assert make_system("d16nu").energy is None
    with pytest.raises(ValueError):
        make_system("nope")
    with pytest.raises(ValueError):
        odd_profile_system("ginv12", -1.0, 1.0)
    with pytest.raises(ValueError):
        traveling_profile_system(0.5)
    with pytest.raises(ValueError):
        traveling_profile_system(-1.0, coupling=CTX.gen("mu0"))
    with pytest.raises(ValueError):
        first_integral_check(
            integrate_profile_ode(make_system("d16nu"), (0, 1), 1.0, 2.0, 0.5)
        )


@pytest.mark.parametrize("name,builder", [
    ("rebp", "traveling_profile_system"),
    ("ginv12", "odd_profile_system"),
    ("ginv17", "odd_profile_system"),
    ("d16nu", "scaling_odd_system"),
])
def test_make_system_reaches_its_builder_through_the_module_globals(name, builder, monkeypatch):
    # a wrapper bound over the module name sees every system make_system makes
    calls = []
    real = getattr(odes, builder)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(odes, builder, counted)
    assert make_system(name).name == name
    assert calls == [name]


@pytest.mark.parametrize("name", ["ginv12", "ginv17"])
def test_background_systems_take_eps_minus_one_only(name):
    # arcsin(k sn) solves the reduced even rows at eps = -1 only
    system = odd_profile_system(name, -1.0, 0.7)
    assert system.background is not None
    with pytest.raises(OutOfDomain, match="eps = -1"):
        odd_profile_system(name, 1.0, 0.7)
    with pytest.raises(OutOfDomain, match="eps = -1"):
        make_system(name, eps=1.0)
    assert make_system("rebp", eps=1.0).background is None
    assert make_system("d16nu", eps=1.0).background is None


def _background_bits(values):
    return bits(dict(enumerate(values[k] for k in ("alpha_d1", "cos_alpha", "sin_alpha"))))


def _fresh_background_bits(sig, k):
    t = jacobi(sig, k * k)
    return bits(dict(enumerate((k * t.cn, t.dn, k * t.sn))))


@pytest.mark.parametrize("sigmas", [
    (0.0, -0.0), (-0.0, 0.0), (0.3, 0.3, 0.3), (0.3, 0.0, 0.3), (-1.25, -1.25, 0.5),
])
def test_background_memo_gives_the_bits_of_a_fresh_jacobi_call(sigmas):
    k = 0.7
    bg = elliptic_background(k)
    for sig in sigmas:
        assert _background_bits(bg(sig)) == _fresh_background_bits(sig, k), sig
    # the sign of a zero reaches the background: -0.0 must not answer 0.0
    assert _fresh_background_bits(0.0, k) != _fresh_background_bits(-0.0, k)


def test_background_memo_keeps_no_singular_sigma():
    k = 0.9999999  # dn dips to sqrt(1 - k^2) < NEAR_SINGULAR_COS at sn = 1
    bg = elliptic_background(k)
    quarter = ellipk(k * k)
    bg(0.5)
    for _ in range(2):
        with pytest.raises(NearSingular):
            bg(quarter)
    assert _background_bits(bg(0.5)) == _fresh_background_bits(0.5, k)


def test_background_memo_is_coherent_across_threads():
    # threads sharing one system never read one sigma's values for another
    k = 0.7
    bg = elliptic_background(k)
    sigmas = (0.0, -0.0, 0.3, 1.1, -2.5)
    want = [_fresh_background_bits(sig, k) for sig in sigmas]
    bad = []

    def work(first):
        for j in range(5000):
            i = (first + j) % len(sigmas)
            if _background_bits(bg(sigmas[i])) != want[i]:
                bad.append(sigmas[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_solve_without_the_odes_role_is_refused_before_the_march(monkeypatch):
    # enough generators, but no "nu" role: the documented ValueError names
    # the role, and no system is built
    def unreachable(*args, **kwargs):
        raise AssertionError("the march started")

    monkeypatch.setattr(odes, "make_system", unreachable)
    ctx = AlgebraContext(generator_count=8, roles={"theta1": 0, "theta2": 1})
    with pytest.raises(ValueError, match="'nu'"):
        odes.solve_profile("ginv12", (0.0, 0.5, 0.25), (0.0, 1.0), ctx=ctx, tol=1e-6,
                           eps=-1.0, coupling=0.0, modulus=0.5)


def test_d16_node_rows_are_exactly_zero_at_dyadic_nodes():
    # an exact-input twin of the d16nu node rows: at sigma = +-2^k, with y
    # and y' small dyadics and y'' from the equation, every product and sum
    # the rhs and the rows form is exact, so a correct row reads exactly 0.0
    rng = random.Random(0)
    rhs = make_system("d16nu").rhs
    sigmas = [sign * 2.0 ** k for sign in (1.0, -1.0) for k in range(-3, 5)]
    residuals = []
    for _ in range(300):
        sig, y, d1 = rng.choice(sigmas), rng.choice(DYADIC), rng.choice(DYADIC)
        sample = odes.OdeSample(sig, y, d1, rhs(sig, y, d1))
        rows, *_ = odes._d16_node_row(sample, CTX)
        residuals += [abs(r) if isinstance(r, float) else r.norm() for r in rows]
    assert len(residuals) == 1200
    assert set(residuals) == {0.0}
