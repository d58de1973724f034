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
    force_law_averages,
    torque,
)
from rotospin import validation


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
    # torque and power, overflow: the transient stops with RuntimeError
    # instead of returning a torque of nan
    m = OscillatorModel.normalized(0.1)
    with pytest.raises(RuntimeError,
                       match="transient integration failed: state or "
                             "averages not finite"):
        force_law_averages(m, DriveField.lcp(0.5, 1e300), 0.2)


def test_long_transient_memory_is_flat():
    # gamma = 1e-3 settles over 2e5 steps; the forcing is built in
    # blocks of steps, where one set of arrays per phase would take tens
    # of MB
    m = OscillatorModel.normalized(1e-3)
    d = DriveField.lcp(0.5)
    tracemalloc.start()
    try:
        avg = force_law_averages(m, d, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6
    assert_allclose(avg.torque, torque(m, d, 0.2), rtol=1e-8)


def test_time_domain_check_catches_uniform_torque_error(monkeypatch):
    # the oracle reaches about 2e-11, so a closed-form torque off by a
    # uniform 1e-6 fails the time-domain check
    assert validation.check_time_domain(None).passed
    monkeypatch.setattr(validation, "torque",
                        lambda *a: (1.0 + 1e-6) * torque(*a))
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
    assert avg.settle_time == pytest.approx(50.0 / 0.1, rel=1e-12)


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
