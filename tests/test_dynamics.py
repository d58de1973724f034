"""Spin-up by quadrature in Omega, its cross-check against a time-stepped
ODE, radiative heating, and the centrifugal break-up estimate."""

import hashlib
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from rotospin import (
    DriveField,
    OscillatorModel,
    RigidBodyParams,
    ThermalParams,
    UnreachableTargetError,
    absorption_cross_section,
    centrifugal_burst_frequency,
    equilibrium_temperature,
    spin_up_trajectory,
    time_to_target_by_quadrature,
    torque,
)
from rotospin import dynamics
from rotospin.validation import ode_spin_up_time

MODEL = OscillatorModel.normalized(0.1)
DRIVE = DriveField.lcp(0.5)


# ---------------------------------------------------------------------------
# rigid bodies


def test_solid_sphere_inertia():
    body = RigidBodyParams.solid_sphere(mass_density=3.0, radius=2.0)
    assert_allclose(body.moment_of_inertia,
                    8.0 * np.pi / 15.0 * 3.0 * 2.0**5, rtol=1e-15)


def test_thin_rod_inertia():
    body = RigidBodyParams.thin_rod(mass=6.0, length=2.0)
    assert_allclose(body.moment_of_inertia, 6.0 * 4.0 / 12.0, rtol=1e-15)


def test_body_validation():
    with pytest.raises(ValueError):
        RigidBodyParams(0.0)
    with pytest.raises(ValueError):
        RigidBodyParams(1.0, radius=-1.0)


def test_surface_tension_needs_a_radius():
    # without a radius the spin-up skipped the burst and reached its target
    with pytest.raises(ValueError, match="surface_tension needs a radius"):
        RigidBodyParams(1.0, surface_tension=1e-9)


# ---------------------------------------------------------------------------
# heating


@pytest.mark.parametrize("ambient", [np.nan, -1.0])
def test_thermal_params_reject_negative_or_nan_ambient(ambient):
    with pytest.raises(ValueError, match="ambient_temperature"):
        ThermalParams(ambient, 1.0)


@pytest.mark.parametrize("coefficient", [0.0, -1.0, np.nan])
def test_thermal_params_reject_non_positive_radiative_coefficient(
        coefficient):
    with pytest.raises(ValueError, match="radiative_coefficient must be "
                                         "positive"):
        ThermalParams(300.0, coefficient)


def test_equilibrium_temperature_zero_power_is_exact():
    th = ThermalParams(300.0, 2.5)
    assert equilibrium_temperature(th, 0.0) == 300.0


def test_equilibrium_temperature_reference_value():
    # P/C = T0^6 doubles the sixth power: T = 300 * 2^(1/6)
    th = ThermalParams(300.0, 2.0)
    assert_allclose(equilibrium_temperature(th, 2.0 * 300.0**6),
                    300.0 * 2.0 ** (1.0 / 6.0), rtol=1e-14)


def test_equilibrium_temperature_sixth_root_asymptote():
    th = ThermalParams(300.0, 1.0)
    powers = np.logspace(20.0, 26.0, 30)
    temps = equilibrium_temperature(th, powers)
    assert np.all(np.diff(temps) > 0.0)
    slope = np.polyfit(np.log(powers), np.log(temps), 1)[0]
    assert slope == pytest.approx(1.0 / 6.0, abs=1e-6)


def test_equilibrium_temperature_power_ratio_beyond_doubles():
    # P/C_rad overflows a double while (P/C_rad)^(1/6) is about 1.7e53;
    # the in-range entries keep the plain formula's bits, and zero power
    # keeps T0 exactly
    th = ThermalParams(3.0, 1e-320)
    powers = np.array([0.0, 1e-300, 1e-20, 0.25, 1e300])
    temps = equilibrium_temperature(th, powers)
    assert temps[0] == 3.0
    with np.errstate(over="ignore"):
        plain = (3.0**6 + powers[1:3] / 1e-320) ** (1.0 / 6.0)
    assert np.array_equal(temps[1:3], plain)
    for p, t in zip(powers[3:], temps[3:]):
        assert t == pytest.approx(p ** (1.0 / 6.0) / 1e-320 ** (1.0 / 6.0),
                                  rel=1e-14)
    assert equilibrium_temperature(th, 0.25) == temps[3]


@pytest.mark.parametrize("kind", [float, lambda p: np.array([p])],
                         ids=["point", "array"])
def test_equilibrium_temperature_tiny_power_is_not_below_ambient(kind):
    # P/C_rad = 1e-293 leaves T0^6 as it is, and (300^6)^(1/6) rounds to
    # one ulp below 300
    th = ThermalParams(300.0, 1e-22)
    assert (300.0**6) ** (1.0 / 6.0) < 300.0
    assert np.all(equilibrium_temperature(th, kind(1e-315)) == 300.0)


def test_equilibrium_temperature_rejects_negative_power():
    with pytest.raises(ValueError):
        equilibrium_temperature(ThermalParams(300.0, 1.0), -1.0)


@pytest.mark.parametrize("power", [np.nan, np.array([1.0, np.nan])],
                         ids=["point", "array"])
def test_equilibrium_temperature_rejects_nan_power(power):
    with pytest.raises(ValueError, match="absorbed_power"):
        equilibrium_temperature(ThermalParams(300.0, 1.0), power)


def test_equilibrium_temperature_infinite_power_is_infinite():
    th = ThermalParams(300.0, 1.0)
    assert equilibrium_temperature(th, np.inf) == np.inf
    assert equilibrium_temperature(th, np.array([np.inf]))[0] == np.inf


_POINT_KINDS = (float, np.float64, np.asarray)


def _check_point(th, power):
    """equilibrium_temperature at a point, given as each kind of scalar,
    is a float.  At zero power and where P/C_rad overflows it has the bits
    of the array route's element.  Elsewhere it is libm's sixth root, as
    the point always was, or T0 where that root rounds below T0, within
    an ulp of the array route, whose numpy pow may be vectorized and
    round the last bit otherwise."""
    element = equilibrium_temperature(th, np.array([power]))[0]
    t0, c_rad = th.ambient_temperature, th.radiative_coefficient
    ratio = power / c_rad
    if power == 0.0 or ratio == np.inf:
        expected = element
    else:
        expected = max((t0**6 + ratio) ** (1.0 / 6.0), t0)
        assert abs(expected - element) <= np.spacing(element)
    for kind in _POINT_KINDS:
        got = equilibrium_temperature(th, kind(power))
        assert type(got) is float
        assert got == expected, (kind, power, got, expected)


@settings(max_examples=300, deadline=None)
@given(ambient=st.floats(0.0, 1e4),
       coefficient_exp=st.floats(-320.0, 10.0),
       power=st.one_of(st.just(0.0), st.floats(0.0, 1e300),
                       st.floats(0.0, 1.0)))
def test_equilibrium_temperature_point_route(ambient, coefficient_exp,
                                             power):
    _check_point(ThermalParams(ambient, 10.0 ** coefficient_exp), power)


def test_equilibrium_temperature_point_keeps_its_bits():
    # the overflowing-ratio branch and zero power at a point
    th = ThermalParams(3.0, 1e-320)
    for power in (0.0, 1e-300, 0.25, 1e300):
        _check_point(th, power)
    # powers where Python's ** and numpy's pow ufunc round the sixth root
    # differently, on hosts whose numpy pow is vectorized: the point keeps
    # libm's bits
    th = ThermalParams(300.0, 1e-16)
    rng = random.Random(20)
    powers = [rng.uniform(0.0, 50.0) for _ in range(20000)]
    x = [th.ambient_temperature**6 + p / th.radiative_coefficient
         for p in powers]
    differ = [p for p, xi, u in zip(powers, x, np.power(x, 1.0 / 6.0))
              if xi ** (1.0 / 6.0) != u]
    for power in differ + powers[:100]:
        _check_point(th, power)


# ---------------------------------------------------------------------------
# burst estimate


def test_burst_frequency_two_routes():
    # energy criterion (1/2) I Omega^2 = 4 pi R^2 sigma against the
    # closed solid-sphere form sqrt(15 sigma / (rho R^3))
    body = RigidBodyParams.solid_sphere(17.3, 1e-6, surface_tension=1100.0)
    direct = centrifugal_burst_frequency(body)
    assert_allclose(direct, np.sqrt(15.0 * 1100.0 / (17.3 * 1e-18)),
                    rtol=1e-12)
    assert_allclose(direct, 3.0882960114e10, rtol=1e-9)


def test_burst_frequency_needs_surface_data():
    with pytest.raises(ValueError):
        centrifugal_burst_frequency(RigidBodyParams(1.0))


# ---------------------------------------------------------------------------
# spin-up trajectories


def test_trajectory_reaches_target():
    body = RigidBodyParams(2.0)
    traj = spin_up_trajectory(MODEL, DRIVE, body, 0.0, 1e-3)
    assert traj.outcome == "target"
    assert traj.terminal_rotation == pytest.approx(1e-3, rel=1e-6)
    assert np.all(np.diff(traj.rotation) >= 0.0)
    assert traj.times[0] == 0.0
    assert traj.terminal_time == pytest.approx(
        time_to_target_by_quadrature(MODEL, DRIVE, body, 1e-3), rel=1e-12)


def test_samples_invert_the_quadrature_time():
    # every sampled (t, Omega) lies on t(Omega) = integral of I dOmega / M
    body = RigidBodyParams(2.0)
    traj = spin_up_trajectory(MODEL, DRIVE, body, 0.0, 0.3, n_samples=9)
    for t, Om in zip(traj.times[1:], traj.rotation[1:]):
        assert time_to_target_by_quadrature(MODEL, DRIVE, body, Om) == \
            pytest.approx(t, rel=1e-8)


def test_ode_and_quadrature_agree():
    body = RigidBodyParams(2.0)
    t_ode = ode_spin_up_time(MODEL, DRIVE, body, 1e-3)
    t_quad = time_to_target_by_quadrature(MODEL, DRIVE, body, 1e-3)
    assert_allclose(t_ode, t_quad, rtol=1e-8)


def test_ode_reference_far_from_rest_and_past_the_stall():
    # RK4 at 64 steps per estimated time stays within 1e-9 of the
    # quadrature up to near the stall at Omega = 0.5; a target past the
    # stall is never reached
    body = RigidBodyParams(2.0)
    t_quad = time_to_target_by_quadrature(MODEL, DRIVE, body, 0.45)
    assert_allclose(ode_spin_up_time(MODEL, DRIVE, body, 0.45), t_quad,
                    rtol=1e-9)
    assert ode_spin_up_time(MODEL, DRIVE, body, 0.6) == np.inf


@pytest.mark.parametrize("drive", [DriveField.rcp(0.5),
                                   DriveField.linear(0.5)],
                         ids=["braking", "no-torque"])
def test_ode_reference_never_reaches_without_spin_up_torque(drive):
    # a torque at rest that brakes (rcp) or vanishes (linear) never spins
    # the body up to a positive target: no stepping backwards in time to a
    # negative time, and no division by zero
    assert ode_spin_up_time(MODEL, drive, RigidBodyParams(2.0), 0.1) == np.inf


def test_constant_torque_limit():
    # for a tiny target the torque is effectively constant and
    # t -> I * Omega_target / M(0)
    body = RigidBodyParams(2.0)
    t = spin_up_trajectory(MODEL, DRIVE, body, 0.0, 1e-5).terminal_time
    assert_allclose(t, 2.0 * 1e-5 / torque(MODEL, DRIVE, 0.0), rtol=1e-4)


def test_time_scales_inversely_with_intensity():
    # M scales with |E|^2, so doubling the amplitude quarters the time
    body = RigidBodyParams(2.0)
    t1, t2 = (spin_up_trajectory(MODEL, DriveField.lcp(0.5, e), body, 0.0,
                                 1e-3).terminal_time for e in (1.0, 2.0))
    assert_allclose(t1 / t2, 4.0, rtol=1e-8)


def test_sub_femtosecond_spin_up_is_not_zero():
    # amplitude 1e8 spins up in ~2.27e-18: a time-stepping integrator's
    # absolute tolerance would round this run to t = 0
    body = RigidBodyParams(2.0)
    traj = spin_up_trajectory(MODEL, DriveField.lcp(0.5, 1e8), body, 0.0,
                              1e-3)
    assert traj.outcome == "target"
    assert traj.terminal_rotation == 1e-3
    expected = quad(lambda Om: 2.0 / torque(MODEL, DriveField.lcp(0.5, 1e8),
                                            Om), 0.0, 1e-3,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert traj.terminal_time == pytest.approx(expected, rel=1e-9)
    assert traj.terminal_time == pytest.approx(2.27e-18, rel=1e-2)


def test_quadrature_matches_scipy_quad():
    # spin-ups drawn from the ranges of the library benchmark's scenarios
    rng = np.random.default_rng(14)
    for _ in range(200):
        model = OscillatorModel.normalized(np.exp(rng.uniform(np.log(0.05),
                                                              np.log(0.3))),
                                           rng.uniform(0.0, 1e-3))
        drive = DriveField.lcp(rng.choice([rng.uniform(0.3, 0.8),
                                           rng.uniform(1.5, 1.8)]))
        target = rng.uniform(0.1, 0.5) * drive.frequency
        Omega_init = rng.uniform(0.0, 0.2) * target
        body = RigidBodyParams.solid_sphere(rng.uniform(1.0, 20.0),
                                            rng.uniform(0.5, 1.5))
        expected = quad(lambda Om: body.moment_of_inertia
                        / torque(model, drive, Om), Omega_init, target,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert time_to_target_by_quadrature(
            model, drive, body, target, Omega_init) == pytest.approx(
                expected, rel=1e-12)


def test_zero_span_is_zero_time():
    body = RigidBodyParams(2.0)
    assert time_to_target_by_quadrature(MODEL, DRIVE, body, 0.3,
                                        Omega_init=0.3) == 0.0


def test_quadrature_failure_raises(monkeypatch):
    # a torque that oscillates faster than 200 subintervals resolve; the
    # panel limit also bounds the work done before the error
    calls = []

    def ragged(model, drive, Om):
        calls.append(np.size(Om))
        return 1.0 + 0.9 * np.sin(1e7 * np.asarray(Om))
    monkeypatch.setattr(dynamics, "torque", ragged)
    with pytest.raises(RuntimeError, match="quadrature failed: 200 panels"):
        spin_up_trajectory(MODEL, DRIVE, RigidBodyParams(1.0), 0.0, 1.0)
    assert len(calls) <= 200


def test_unreachable_target_raises():
    # rotation already past the drive frequency: the torque brakes
    body = RigidBodyParams(1.0)
    with pytest.raises(UnreachableTargetError):
        spin_up_trajectory(MODEL, DRIVE, body, 0.8, 0.9)


def test_spin_up_time_beyond_doubles_raises():
    # I / M is finite at every node, but the time sums past 1.8e308
    with pytest.raises(RuntimeError, match="time out of double range"):
        time_to_target_by_quadrature(MODEL, DRIVE, RigidBodyParams(1e308),
                                     0.1)


def test_target_beyond_torque_zero_raises():
    # with tau = 0 the LCP torque vanishes at Omega = omega = 0.5: the
    # spin-up stalls there and never reaches 0.6
    body = RigidBodyParams(1.0)
    stall = r"Omega = 0\.5\b"
    with pytest.raises(UnreachableTargetError, match=stall):
        spin_up_trajectory(MODEL, DRIVE, body, 0.0, 0.6)
    with pytest.raises(UnreachableTargetError, match=stall):
        time_to_target_by_quadrature(MODEL, DRIVE, body, 0.6)


@pytest.mark.parametrize("Omega_init, Omega_target", [(0.8, 0.9), (0.3, 0.2)])
def test_opposing_torque_at_the_start_names_omega_init(Omega_init,
                                                      Omega_target):
    # the torque is -0.407 at 0.8 and +0.026 at 0.3: it turns the rotation
    # away from the target at once, which is no stall
    body = RigidBodyParams(1.0)
    away = (rf"Omega_init = {Omega_init:g} turns the rotation away from "
            rf"Omega_target = {Omega_target:g}")
    with pytest.raises(UnreachableTargetError, match=away):
        time_to_target_by_quadrature(MODEL, DRIVE, body, Omega_target,
                                     Omega_init)
    if Omega_target > Omega_init:
        with pytest.raises(UnreachableTargetError, match=away):
            spin_up_trajectory(MODEL, DRIVE, body, Omega_init, Omega_target)


def test_zero_torque_at_the_start_is_a_stall():
    # with tau = 0 the LCP torque is exactly 0 at Omega = omega = 0.5
    assert torque(MODEL, DRIVE, 0.5) == 0.0
    with pytest.raises(UnreachableTargetError,
                       match=r"stalls the rotation at Omega = 0\.5\b"):
        time_to_target_by_quadrature(MODEL, DRIVE, RigidBodyParams(1.0), 0.6,
                                     Omega_init=0.5)


def test_target_order_validation():
    body = RigidBodyParams(1.0)
    with pytest.raises(ValueError):
        spin_up_trajectory(MODEL, DRIVE, body, 0.5, 0.5)


def test_max_time_outcome():
    body = RigidBodyParams(1.0)
    traj = spin_up_trajectory(MODEL, DRIVE, body, 0.0, 1e-2, max_time=1e-4)
    assert traj.outcome == "max-time"
    assert traj.terminal_time == pytest.approx(1e-4)
    assert traj.terminal_rotation < 1e-2
    # the run stops where the quadrature time reaches max_time
    assert time_to_target_by_quadrature(
        MODEL, DRIVE, body, traj.terminal_rotation) == pytest.approx(
            1e-4, rel=1e-8)


def test_target_near_the_stall_is_reached():
    # the torque vanishes only at Omega = 0.5, so 0.49999 is reachable and
    # the run must last the quadrature's time, uncapped
    body = RigidBodyParams(1.0)
    traj = spin_up_trajectory(MODEL, DRIVE, body, 0.0, 0.49999)
    assert traj.outcome == "target"
    assert traj.terminal_rotation == 0.49999
    assert traj.terminal_time == time_to_target_by_quadrature(
        MODEL, DRIVE, body, 0.49999)


def test_trajectory_near_the_stall_stays_below_the_target():
    # t(Omega) grows like -log(0.5 - Omega) here: every row must still lie
    # on the quadrature's t(Omega)
    body = RigidBodyParams(1.0)
    traj = spin_up_trajectory(MODEL, DRIVE, body, 0.0, 0.4999)
    assert np.all(np.diff(traj.rotation) >= 0.0)
    assert np.all(traj.rotation <= 0.4999)
    for t, Om in zip(traj.times, traj.rotation):
        assert time_to_target_by_quadrature(MODEL, DRIVE, body, Om) == \
            pytest.approx(t, rel=1e-8)


def test_near_stall_table_is_ordered():
    # 14 rounds of splits, each panel replaced by its halves where it
    # stands: the table is in span order, and the last edge's time is the
    # quadrature's
    body = RigidBodyParams(1.0)
    start, width, dt_dOmega, t = dynamics._time_table(
        MODEL, DRIVE, body, 0.49999, 0.0, 0.49999)
    assert start.size == width.size == dt_dOmega.shape[0] == t.size - 1 > 2
    assert start[0] == 0.0 and np.all(width > 0)
    assert_allclose(start[1:], start[:-1] + width[:-1], rtol=1e-15)
    assert_allclose(start[-1] + width[-1], 0.49999, rtol=1e-15)
    assert t[0] == 0.0 and np.all(np.diff(t) > 0)
    assert t[-1] == time_to_target_by_quadrature(MODEL, DRIVE, body, 0.49999)


def test_downward_near_stall_table_is_ordered():
    # from 0.8 down to just above the stall at 0.5: several rounds of
    # splits on a span of negative width, whose table runs downward
    start, width, dt_dOmega, t = dynamics._time_table(
        MODEL, DRIVE, RigidBodyParams(1.0), 0.50001, 0.8, 0.50001)
    assert start.size == width.size == dt_dOmega.shape[0] == t.size - 1 == 26
    assert start[0] == 0.8 and np.all(np.diff(start) < 0)
    assert np.all(width < 0)
    assert_allclose(start[1:], start[:-1] + width[:-1], rtol=1e-15)
    assert_allclose(start[-1] + width[-1], 0.50001, rtol=1e-15)
    assert t[0] == 0.0 and np.all(np.diff(t) > 0)
    assert t[-1].hex() == "0x1.a844a037e293bp+5"


# ends of either sign, and ends a few subnormals apart, where the step
# underflows to 0
_ENDS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.integers(-40, 40).map(lambda k: k * 5e-324))


@settings(max_examples=500, deadline=None)
@given(start=_ENDS, stop=_ENDS, num=st.integers(2, 2000))
@example(start=0.0, stop=1e-322, num=100)
@example(start=-1.7e308, stop=1.7e308, num=3)
def test_linspace_gives_numpys_bits(start, stop, num):
    with np.errstate(all="ignore"):
        expected = np.linspace(start, stop, num)
        got = dynamics._linspace(start, stop, num)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("Omega_target, Omega_init", [
    (np.nan, 0.0), (np.inf, 0.0), (0.3, np.nan), (0.3, -np.inf)])
def test_quadrature_rejects_non_finite_bounds(Omega_target, Omega_init):
    with pytest.raises(ValueError, match="must be finite"):
        time_to_target_by_quadrature(MODEL, DRIVE, RigidBodyParams(1.0),
                                     Omega_target, Omega_init)


@pytest.mark.parametrize("n_samples", [1, 0, -3])
def test_too_few_samples_rejected(n_samples):
    # a single sample is t = 0 alone, which would report Omega_init as the
    # end of a run that reached its target
    body = RigidBodyParams(2.0)
    with pytest.raises(ValueError, match="n_samples"):
        spin_up_trajectory(MODEL, DRIVE, body, 0.0, 1e-3,
                           n_samples=n_samples)


@pytest.mark.parametrize("max_time", [0.0, -5.0])
def test_non_positive_max_time_rejected(max_time):
    # a negative limit would integrate the rotation backwards in time
    body = RigidBodyParams(2.0)
    with pytest.raises(ValueError, match="max_time"):
        spin_up_trajectory(MODEL, DRIVE, body, 0.0, 1e-3, max_time=max_time)


def test_first_crossing_bisects_a_nan_step():
    # the false-position step from an infinite sample is inf/inf: the
    # search bisects instead, and still finds the crossing
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.3

    root = dynamics._first_crossing(f, np.array([0.0, 1.0]),
                                    np.array([-1.0, np.inf]))
    assert calls[0] == 0.5
    assert abs(root - 0.3) <= 1e-14


# ---------------------------------------------------------------------------
# melt and burst termination


def test_melt_stops_at_threshold_rotation():
    # drive below resonance: spinning up moves the minus channel toward
    # resonance, heating the particle; the melting point is set to the
    # temperature reached at Omega = 0.02 so the run must stop there
    m = OscillatorModel.normalized(0.1)
    d = DriveField.lcp(1.05)
    intensity = d.intensity(m.light_speed)
    th = ThermalParams(1.0, 1.0)
    t_melt = equilibrium_temperature(
        th, absorption_cross_section(m, d, 0.02) * intensity)
    body = RigidBodyParams(1.0, melting_temperature=t_melt)
    traj = spin_up_trajectory(m, d, body, 0.0, 0.2, thermal=th)
    assert traj.outcome == "melt"
    assert traj.terminal_rotation == pytest.approx(0.02, abs=1e-6)
    assert traj.terminal_time == pytest.approx(time_to_target_by_quadrature(
        m, d, body, traj.terminal_rotation), rel=1e-12)


def test_melt_detected_before_integration():
    # already above the melting point at rest: the run ends at t = 0
    m = OscillatorModel.normalized(0.1)
    d = DriveField.lcp(1.05)
    th = ThermalParams(1.0, 1.0)
    t0 = equilibrium_temperature(
        th, absorption_cross_section(m, d, 0.0) * d.intensity(m.light_speed))
    body = RigidBodyParams(1.0, melting_temperature=0.99 * t0)
    traj = spin_up_trajectory(m, d, body, 0.0, 0.2, thermal=th, n_samples=50)
    assert traj.outcome == "melt"
    # still n_samples samples, all at (0, Omega_init)
    assert traj.times.tolist() == traj.rotation.tolist() == [0.0] * 50


@pytest.mark.parametrize("light_speed, message", [
    (1e4, "the beam intensity c |E|^2 / 2 pi overflows a double"),
    (1.0, "the absorbed power sigma_abs * I overflows a double"),
], ids=["intensity", "power"])
def test_melt_search_rejects_overflowing_power(light_speed, message):
    # an infinite power would read as a melt at Omega_init
    m = OscillatorModel.normalized(0.001, light_speed=light_speed)
    d = DriveField.lcp(1.0, 1e153)
    body = RigidBodyParams(1.0, melting_temperature=1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as info:
            spin_up_trajectory(m, d, body, 0.0, 0.3,
                               thermal=ThermalParams(300.0, 1e-22))
    assert str(info.value) == message


def test_burst_stops_at_burst_frequency():
    sigma_surf = 0.05**2 / (8.0 * np.pi)   # puts the burst at Omega = 0.05
    body = RigidBodyParams(1.0, radius=1.0, surface_tension=sigma_surf)
    assert centrifugal_burst_frequency(body) == pytest.approx(0.05)
    traj = spin_up_trajectory(MODEL, DRIVE, body, 0.0, 0.4)
    assert traj.outcome == "burst"
    assert traj.terminal_rotation == pytest.approx(0.05, rel=1e-6)
    assert traj.terminal_time == pytest.approx(time_to_target_by_quadrature(
        MODEL, DRIVE, body, traj.terminal_rotation), rel=1e-12)


def test_burst_before_a_stall_ends_the_run():
    # the torque would stall the rotation at Omega = 0.5, short of 0.6,
    # but the particle bursts at 0.05 first
    sigma_surf = 0.05**2 / (8.0 * np.pi)
    body = RigidBodyParams(1.0, radius=1.0, surface_tension=sigma_surf)
    traj = spin_up_trajectory(MODEL, DRIVE, body, 0.0, 0.6)
    assert traj.outcome == "burst"
    assert traj.terminal_rotation == pytest.approx(0.05, rel=1e-12)


@pytest.mark.parametrize("Omega_init, Omega_target, burst_at, message", [
    (0.0, 0.6, 0.55, r"stalls the rotation at Omega = 0\.5\b"),
    (0.8, 0.9, 0.85, r"Omega_init = 0\.8 turns the rotation away"),
], ids=["stall", "away"])
def test_unreachable_target_under_burst_names_the_requested_target(
        Omega_init, Omega_target, burst_at, message):
    # the run would end by burst short of the requested target, but the
    # torque stalls it (or turns it away) first: the message names the
    # requested target, never the burst frequency, as Omega_target
    sigma_surf = 0.25 * burst_at**2 / (8.0 * np.pi)
    body = RigidBodyParams(0.25, radius=1.0, surface_tension=sigma_surf)
    assert centrifugal_burst_frequency(body) == pytest.approx(burst_at)
    with pytest.raises(UnreachableTargetError, match=message) as exc:
        spin_up_trajectory(MODEL, DRIVE, body, Omega_init, Omega_target)
    assert f"Omega_target = {Omega_target:g}" in str(exc.value)
    assert f"{burst_at:g}" not in str(exc.value)


def test_burst_detected_before_integration():
    sigma_surf = 0.05**2 / (8.0 * np.pi)
    body = RigidBodyParams(1.0, radius=1.0, surface_tension=sigma_surf)
    traj = spin_up_trajectory(MODEL, DRIVE, body, 0.06, 0.4, n_samples=50)
    assert traj.outcome == "burst"
    assert traj.times.tolist() == [0.0] * 50
    assert traj.rotation.tolist() == [0.06] * 50


# two melt runs of the library benchmark (seed 107 cycle 380 scenario 0,
# seed 203 cycle 150 scenario 2) on which a time-stepped trajectory's end
# time was off by 1.0e-6 and 6.8e-6:
# (gamma, tau, omega, I_mom, T_melt, T0, C_rad, Omega_init, Omega_target)
_BENCH_MELT_RUNS = [
    (0.09670377867823922, 0.0004527068815352855, 1.7915967135288982,
     8.93838604902154, 365.42260805529844, 306.85076268717,
     1.178472672029792e-16, 0.13888068784269128, 0.793204867985296),
    (0.2495317751036167, 0.000955305478922747, 1.7508386374304687,
     1.6864130670965651, 328.312065421087, 270.72279539350785,
     5.653429895766003e-16, 0.11997281814733483, 0.6922469859017218),
]


# terminal rotation and time of one run of each outcome, as they were
# before points of the melt search ran in plain floats; the melt search
# mixes the scalar overheat(Omega) with the sampled array
_PINNED_RUNS = {
    "melt": ("0x1.efc4d02c83fa9p-2", "0x1.2c630fee89023p+5"),
    "burst": ("0x1.9c32fc336ee45p-4", "0x1.1d0a73b3aef18p+4"),
    "target": ("0x1.3333333333333p-3", "0x1.1ffba1b478f5fp+2"),
    "max-time": ("0x1.28ef8f825b172p-17", "0x1.a36e2eb1c432dp-14"),
}


@pytest.mark.parametrize("outcome", sorted(_PINNED_RUNS))
def test_pinned_spin_up_ends(outcome):
    gamma, tau, omega, i_mom, t_melt, t0, c_rad, om_init, om_target = (
        _BENCH_MELT_RUNS[0])
    m = OscillatorModel.normalized(0.1, 1e-3)
    d = DriveField.lcp(0.5)
    if outcome == "melt":
        traj = spin_up_trajectory(
            OscillatorModel.normalized(gamma, tau), DriveField.lcp(omega),
            RigidBodyParams(i_mom, melting_temperature=t_melt), om_init,
            om_target, thermal=ThermalParams(t0, c_rad))
    elif outcome == "burst":
        body = RigidBodyParams.solid_sphere(3.0, 1.2, surface_tension=0.0035)
        traj = spin_up_trajectory(m, d, body, 0.0, 0.2)
    elif outcome == "max-time":
        traj = spin_up_trajectory(MODEL, DRIVE, RigidBodyParams(1.0), 0.0,
                                  1e-2, max_time=1e-4)
    else:
        traj = spin_up_trajectory(m, d, RigidBodyParams(2.0), 0.01, 0.15)
    assert traj.outcome == outcome
    rotation, time = _PINNED_RUNS[outcome]
    assert traj.terminal_rotation == float.fromhex(rotation)
    assert traj.terminal_time == float.fromhex(time)


# SHA-256 of the sampled times and rotations of one run per outcome and
# sample count, and float.hex of the quadrature time to where the run
# ends (to Omega_target after "max-time"), as the table was built before
# its one-round path: (model, drive, body, Omega_init, Omega_target,
# keywords, times, rotation, quadrature time)
_M3 = OscillatorModel.normalized(0.1, 1e-3)
_PINNED_BITS = {
    "target": (
        _M3, DriveField.lcp(0.5), RigidBodyParams(2.0), 0.01, 0.15, {},
        "e204c44f018fcb3c1ce4b98f042d3ac57a7dceffc666408d38a505e57dc7fec5",
        "1e42c3f7298a3a92511534dc9226f4301899ffaca4af1ad14e85c812b7fa4840",
        "0x1.1ffba1b478f5fp+2"),
    "burst": (
        _M3, DriveField.lcp(0.5),
        RigidBodyParams.solid_sphere(3.0, 1.2, surface_tension=0.0035),
        0.0, 0.2, {},
        "45faf7557cb66a2a664f356227c96f66c08134ff4cf1ae4dc92afb4f7a9d025f",
        "5a930d0a26eb930d297ca03864384e682b2e10bb57d831feb2edfe57bbc96ec7",
        "0x1.1d0a73b3aef18p+4"),
    "melt": (
        OscillatorModel.normalized(*_BENCH_MELT_RUNS[0][:2]),
        DriveField.lcp(_BENCH_MELT_RUNS[0][2]),
        RigidBodyParams(_BENCH_MELT_RUNS[0][3],
                        melting_temperature=_BENCH_MELT_RUNS[0][4]),
        *_BENCH_MELT_RUNS[0][7:],
        {"thermal": ThermalParams(*_BENCH_MELT_RUNS[0][5:7])},
        "d029e58e8d51867d1f7ec962f72dd5adca63ea6f33946c61906e097c387f223d",
        "fd3e7527170f8535c64932e32af48abbe59b9ae6ae12b2e531eb3dbcedfd2b6c",
        "0x1.2c630fee89023p+5"),
    "max-time": (
        MODEL, DRIVE, RigidBodyParams(1.0), 0.0, 1e-2, {"max_time": 1e-4},
        "aa084cf1fbfb7258ee6eb098ded54bf128917f5e11503645299a8bb114fc0b6c",
        "af491ff9bb034480b17b7a772a98645d8d87b0e2dc93f522fd9fc1bcdf5d633a",
        "0x1.d9ab360fbb6a0p-4"),
    "two-samples": (
        _M3, DriveField.lcp(0.5), RigidBodyParams(2.0), 0.01, 0.15,
        {"n_samples": 2},
        "617008f834a4260c7165a8c1772c9011ea8fd43619684d089f774ca0404a8918",
        "1f235a0f02ab05e56f4dca6f7b40ce2977ed40a84cdb09a6ec3d99b689f8e9b9",
        "0x1.1ffba1b478f5fp+2"),
    # 14 rounds of panel splits
    "near-stall": (
        MODEL, DRIVE, RigidBodyParams(1.0), 0.0, 0.49999, {},
        "015494ec78febbd6e8219e4b6d43347e3b045c130c5d91cc9e2df3929eef757b",
        "436bb3a15372c7313590130f885660ec59afea87cbf3736742153f38fe7860a7",
        "0x1.0353e7143d1f4p+6"),
}


def _sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("case", list(_PINNED_BITS))
def test_pinned_spin_up_bits(case):
    (model, drive, body, om_init, om_target, keywords, times, rotation,
     duration) = _PINNED_BITS[case]
    traj = spin_up_trajectory(model, drive, body, om_init, om_target,
                              **keywords)
    assert traj.outcome == (case if case in _PINNED_RUNS else "target")
    assert _sha256(traj.times) == times
    assert _sha256(traj.rotation) == rotation
    om_end = om_target if traj.outcome == "max-time" else \
        traj.terminal_rotation
    assert time_to_target_by_quadrature(
        model, drive, body, om_end, om_init).hex() == duration


def test_pinned_downward_quadrature():
    # the span runs from 0.8 down to 0.6, where the torque is negative
    assert time_to_target_by_quadrature(
        MODEL, DRIVE, RigidBodyParams(1.0), 0.6,
        Omega_init=0.8).hex() == (2.8103607904247836).hex()


def _count_torque_calls(monkeypatch, run):
    """(torque calls, np.argsort calls) made by run()."""
    calls, sorts = [], []
    real_torque, real_argsort = dynamics.torque, np.argsort

    def counted_torque(model, drive, Om):
        calls.append(np.size(Om))
        return real_torque(model, drive, Om)

    def counted_argsort(*args, **kwargs):
        sorts.append(1)
        return real_argsort(*args, **kwargs)
    monkeypatch.setattr(dynamics, "torque", counted_torque)
    monkeypatch.setattr(np, "argsort", counted_argsort)
    run()
    monkeypatch.undo()
    return calls, sorts


def test_one_round_table_makes_one_torque_call(monkeypatch):
    body = RigidBodyParams(2.0)
    m, d = _M3, DriveField.lcp(0.5)
    calls, sorts = _count_torque_calls(
        monkeypatch, lambda: spin_up_trajectory(m, d, body, 0.01, 0.15))
    # the stall search's samples and the panel's nodes and halves' nodes
    assert calls == [dynamics._SAMPLES + 60]
    assert not sorts
    calls, sorts = _count_torque_calls(
        monkeypatch, lambda: time_to_target_by_quadrature(m, d, body, 0.15,
                                                          0.01))
    assert calls == [dynamics._SAMPLES + 60]
    assert not sorts


def test_near_stall_table_splits_without_sorting(monkeypatch):
    calls, sorts = _count_torque_calls(
        monkeypatch, lambda: time_to_target_by_quadrature(
            MODEL, DRIVE, RigidBodyParams(1.0), 0.49999))
    assert len(calls) == 14
    assert all(n > 1 for n in calls)
    assert not sorts


@pytest.mark.parametrize("run", _BENCH_MELT_RUNS, ids=["s107-380", "s203-150"])
def test_melt_time_matches_fine_quadrature(run):
    gamma, tau, omega, i_mom, t_melt, t0, c_rad, om_init, om_target = run
    m = OscillatorModel.normalized(gamma, tau)
    d = DriveField.lcp(omega)
    body = RigidBodyParams(i_mom, melting_temperature=t_melt)
    traj = spin_up_trajectory(m, d, body, om_init, om_target,
                              thermal=ThermalParams(t0, c_rad))
    assert traj.outcome == "melt"
    fine = quad(lambda Om: i_mom / torque(m, d, Om), om_init,
                traj.terminal_rotation, epsabs=0.0, epsrel=1e-13,
                limit=200)[0]
    assert abs(traj.terminal_time - fine) <= 1e-9 * fine
