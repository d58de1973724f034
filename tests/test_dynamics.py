"""Spin-up by quadrature in Omega, its cross-check against a time-stepped
ODE, radiative heating, and the centrifugal break-up estimate."""

import numpy as np
import pytest
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


# ---------------------------------------------------------------------------
# heating


@pytest.mark.parametrize("ambient", [np.nan, -1.0])
def test_thermal_params_reject_negative_or_nan_ambient(ambient):
    with pytest.raises(ValueError, match="ambient_temperature"):
        ThermalParams(ambient, 1.0)


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


def test_equilibrium_temperature_rejects_negative_power():
    with pytest.raises(ValueError):
        equilibrium_temperature(ThermalParams(300.0, 1.0), -1.0)


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


def test_target_beyond_torque_zero_raises():
    # with tau = 0 the LCP torque vanishes at Omega = omega = 0.5: the
    # spin-up stalls there and never reaches 0.6
    body = RigidBodyParams(1.0)
    stall = r"Omega = 0\.5\b"
    with pytest.raises(UnreachableTargetError, match=stall):
        spin_up_trajectory(MODEL, DRIVE, body, 0.0, 0.6)
    with pytest.raises(UnreachableTargetError, match=stall):
        time_to_target_by_quadrature(MODEL, DRIVE, body, 0.6)


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
