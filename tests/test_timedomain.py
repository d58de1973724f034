"""Direct force-law integration versus the closed-form torque and
absorbed power."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotospin import (
    DriveField,
    OscillatorModel,
    cross_section_set,
    torque,
)
from rotospin import timedomain, validation
from rotospin.timedomain import force_law_averages


def test_reference_point_matches_closed_forms():
    # gamma = 0.1, LCP omega = 0.5, Omega = 0.2: closed-form torque is
    # 50/1263; the integration reproduces it to integrator accuracy.
    # This and the elliptic point are the two `rotospin validate` cases.
    m = OscillatorModel.normalized(0.1)
    d = DriveField.lcp(0.5)
    avg = force_law_averages(m, d, 0.2)
    assert_allclose(avg.torque, 50.0 / 1263.0, rtol=1e-9)
    closed_power = (cross_section_set(m, d, 0.2).absorption
                    * d.intensity(m.light_speed))
    assert_allclose(avg.absorbed_power, closed_power, rtol=1e-9)


def test_elliptic_polarization_point():
    m = OscillatorModel.normalized(0.25)
    d = DriveField(1.2, 0.8 - 0.1j, 0.3 + 0.45j)
    avg = force_law_averages(m, d, 0.4)
    assert_allclose(avg.torque, torque(m, d, 0.4), rtol=1e-9)
    closed_power = (cross_section_set(m, d, 0.4).absorption
                    * d.intensity(m.light_speed))
    assert_allclose(avg.absorbed_power, closed_power, rtol=1e-9)


def test_repeated_calls_are_silent_and_identical():
    m = OscillatorModel.normalized(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = force_law_averages(m, DriveField.lcp(0.5), 0.2)
        second = force_law_averages(m, DriveField.lcp(0.5), 0.2)
    assert first == second


def test_integrator_failure_names_phase():
    # a field of 1e300 drives a state whose square, and so the averaged
    # torque and power, overflow: the pass from rest stops with
    # RuntimeError instead of returning a torque of nan
    m = OscillatorModel.normalized(0.1)
    with pytest.raises(RuntimeError,
                       match="from-rest integration failed: state or "
                             "averages not finite"):
        force_law_averages(m, DriveField.lcp(0.5, 1e300), 0.2)


def test_long_window_memory_is_flat():
    # omega/Omega = 1000/997 closes every beat only after W = 997 pi /
    # Omega, about 6283, or 25k steps per pass; the forcing is built in
    # blocks of steps, where one set of arrays per pass would take tens
    # of MB
    m = OscillatorModel.normalized(0.1)
    d = DriveField.lcp(0.5)
    tracemalloc.start()
    try:
        avg = force_law_averages(m, d, 0.4985)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert avg.window == pytest.approx(997.0 * np.pi / 0.4985, rel=1e-12)
    assert peak < 3e6
    assert_allclose(avg.torque, torque(m, d, 0.4985), rtol=1e-11)


@pytest.mark.parametrize("d, Om", [
    (DriveField.lcp(0.5), 0.2),
    (DriveField(1.2, 0.8 - 0.1j, 0.3 + 0.45j), 0.4),
], ids=["lcp", "elliptic"])
def test_small_damping_needs_no_transient(d, Om):
    # gamma = 1e-3 at both `rotospin validate` drives: free motion would
    # take thousands of time units to decay, and the steady state is
    # solved for instead, at the same precision as gamma = 0.1
    m = OscillatorModel.normalized(1e-3)
    avg = force_law_averages(m, d, Om)
    assert_allclose(avg.torque, torque(m, d, Om), rtol=1e-11)
    closed_power = (cross_section_set(m, d, Om).absorption
                    * d.intensity(m.light_speed))
    assert_allclose(avg.absorbed_power, closed_power, rtol=1e-11)


@pytest.mark.parametrize("error", [1e-6, 1e-10])
def test_time_domain_check_catches_uniform_torque_error(monkeypatch, error):
    # the oracle reaches about 3e-14, so a closed-form torque off by a
    # uniform 1e-10 fails the time-domain check
    assert validation.check_time_domain(None).passed
    monkeypatch.setattr(validation, "torque",
                        lambda *a: (1.0 + error) * torque(*a))
    assert not validation.check_time_domain(None).passed


def test_braking_regime_sign():
    # rotation faster than the drive: the averaged torque is negative,
    # matching the closed form including sign
    m = OscillatorModel.normalized(0.2)
    d = DriveField.lcp(0.2)
    avg = force_law_averages(m, d, 0.5)
    assert avg.torque < 0.0
    assert_allclose(avg.torque, torque(m, d, 0.5), rtol=1e-7)


def test_averaging_window_closes_all_beats():
    # omega/Omega = 5/2: the slowest quadratic harmonic is
    # 2*(omega - Omega) = 3*Omega/...; with g = Omega/2 the window pi/g
    # holds an integer count of every beat period
    avg = force_law_averages(OscillatorModel.normalized(0.1),
                             DriveField.lcp(0.5), 0.2)
    assert avg.window == pytest.approx(np.pi / 0.1, rel=1e-12)
    # over it the forcing changes sign, as (-1)**(p + q) says: 5/2 and
    # 0/1 (no drive frequency) flip it, 3/1 does not
    assert timedomain._averaging_window(0.5, 0.2)[1] == -1.0
    assert timedomain._averaging_window(0.0, 0.3) == (np.pi / 0.3, -1.0)
    assert timedomain._averaging_window(1.2, 0.4)[1] == 1.0


def test_static_rod_in_circular_light():
    # Omega = 0 averages over pi/omega, where the forcing flips sign
    m = OscillatorModel.normalized(0.1)
    d = DriveField.lcp(0.5)
    avg = force_law_averages(m, d, 0.0)
    assert avg.window == pytest.approx(np.pi / 0.5, rel=1e-12)
    assert_allclose(avg.torque, torque(m, d, 0.0), rtol=1e-12)


def test_rejects_a_static_drive_on_a_body_at_rest():
    # omega = Omega = 0: no harmonic sets a period to average over
    with pytest.raises(ValueError,
                       match="static drive: nothing to average over"):
        force_law_averages(OscillatorModel.normalized(0.1),
                           DriveField.lcp(0.0), 0.0)


@pytest.mark.parametrize("drive, Omega", [
    (DriveField(0.5, 0.3 + 0.1j, 0.2 - 0.4j), 0.0),
    (DriveField(0.0, 0.3 + 0.1j, 0.2 - 0.4j), 0.3),
    (DriveField.linear(0.5), 0.0),
], ids=["elliptic-static-rod", "elliptic-static-field", "linear-static-rod"])
def test_rejects_both_helicities_where_a_beat_is_static(drive, Omega):
    # the helicities beat at 2*omega and 2*Omega; a static beat keeps the
    # phase between rod and field, so the averages (torque 0.0283 against
    # -0.0248, power 0.00348 against 0.00401, power 0.0885 against 0.0442)
    # differ from the closed forms, which average that phase out
    with pytest.raises(ValueError, match="both helicities"):
        force_law_averages(OscillatorModel.normalized(0.1), drive, Omega)


@pytest.mark.parametrize("drive, Omega", [
    (DriveField.rcp(0.5), 0.0), (DriveField.lcp(0.0), 0.3),
    (DriveField.rcp(0.0), -0.3),
], ids=["rcp-static-rod", "lcp-static-field", "rcp-static-field"])
def test_one_helicity_where_a_beat_would_be_static(drive, Omega):
    m = OscillatorModel.normalized(0.1)
    avg = force_law_averages(m, drive, Omega)
    assert_allclose(avg.torque, torque(m, drive, Omega), rtol=1e-12)
    closed_power = (cross_section_set(m, drive, Omega).absorption
                    * drive.intensity(m.light_speed))
    assert_allclose(avg.absorbed_power, closed_power, rtol=1e-12)


def test_rejects_radiative_term():
    m = OscillatorModel.normalized(0.1, 1e-3)
    with pytest.raises(ValueError, match="tau"):
        force_law_averages(m, DriveField.lcp(0.5), 0.2)


def test_rejects_undamped_transient():
    m = OscillatorModel.normalized(0.0)
    with pytest.raises(ValueError, match="gamma"):
        force_law_averages(m, DriveField.lcp(0.5), 0.2)


def test_rejects_inverted_corotating_spring():
    # |Omega| >= omega0 makes the effective radial spring repulsive
    m = OscillatorModel.normalized(0.1)
    with pytest.raises(ValueError, match="Omega"):
        force_law_averages(m, DriveField.lcp(0.5), 1.0)


def test_rejects_incommensurate_frequencies():
    m = OscillatorModel.normalized(0.1)
    with pytest.raises(ValueError, match="commensurate"):
        force_law_averages(m, DriveField.lcp(np.sqrt(2.0)), 1e-2)
