"""Spin-up integration, its quadrature cross-check, radiative heating,
and the centrifugal break-up estimate."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

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
    time_to_target,
    time_to_target_by_quadrature,
    torque,
)

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


def test_ode_and_quadrature_agree():
    body = RigidBodyParams(2.0)
    t_ode = time_to_target(MODEL, DRIVE, body, 1e-3)
    t_quad = time_to_target_by_quadrature(MODEL, DRIVE, body, 1e-3)
    assert_allclose(t_ode, t_quad, rtol=1e-8)


def test_constant_torque_limit():
    # for a tiny target the torque is effectively constant and
    # t -> I * Omega_target / M(0)
    body = RigidBodyParams(2.0)
    t = time_to_target(MODEL, DRIVE, body, 1e-5)
    assert_allclose(t, 2.0 * 1e-5 / torque(MODEL, DRIVE, 0.0), rtol=1e-4)


def test_time_scales_inversely_with_intensity():
    # M scales with |E|^2, so doubling the amplitude quarters the time
    body = RigidBodyParams(2.0)
    t1 = time_to_target(MODEL, DriveField.lcp(0.5, 1.0), body, 1e-3)
    t2 = time_to_target(MODEL, DriveField.lcp(0.5, 2.0), body, 1e-3)
    assert_allclose(t1 / t2, 4.0, rtol=1e-8)


def test_zero_span_is_zero_time():
    body = RigidBodyParams(2.0)
    assert time_to_target(MODEL, DRIVE, body, 0.3, Omega_init=0.3) == 0.0


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


def test_melt_detected_before_integration():
    # already above the melting point at rest: no integration happens
    m = OscillatorModel.normalized(0.1)
    d = DriveField.lcp(1.05)
    th = ThermalParams(1.0, 1.0)
    t0 = equilibrium_temperature(
        th, absorption_cross_section(m, d, 0.0) * d.intensity(m.light_speed))
    body = RigidBodyParams(1.0, melting_temperature=0.99 * t0)
    traj = spin_up_trajectory(m, d, body, 0.0, 0.2, thermal=th)
    assert traj.outcome == "melt"
    assert traj.terminal_time == 0.0


def test_burst_stops_at_burst_frequency():
    sigma_surf = 0.05**2 / (8.0 * np.pi)   # puts the burst at Omega = 0.05
    body = RigidBodyParams(1.0, radius=1.0, surface_tension=sigma_surf)
    assert centrifugal_burst_frequency(body) == pytest.approx(0.05)
    traj = spin_up_trajectory(MODEL, DRIVE, body, 0.0, 0.4)
    assert traj.outcome == "burst"
    assert traj.terminal_rotation == pytest.approx(0.05, rel=1e-6)


def test_burst_detected_before_integration():
    sigma_surf = 0.05**2 / (8.0 * np.pi)
    body = RigidBodyParams(1.0, radius=1.0, surface_tension=sigma_surf)
    traj = spin_up_trajectory(MODEL, DRIVE, body, 0.06, 0.4)
    assert traj.outcome == "burst"
    assert traj.terminal_time == 0.0
