"""Direct force-law integration versus the closed-form torque and
absorbed power."""

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
    # each phase finishes its DOP853 run before the next one starts, so
    # back-to-back calls warn about nothing and repeat bit for bit
    m = OscillatorModel.normalized(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = force_law_averages(m, DriveField.lcp(0.5), 0.2)
        second = force_law_averages(m, DriveField.lcp(0.5), 0.2)
    assert first == second


@pytest.mark.filterwarnings("ignore:dop853")
def test_integrator_failure_names_phase_and_code():
    # a field of 1e300 overflows the step-size control: DOP853 returns
    # -3 (step size too small) and the failure surfaces as RuntimeError
    m = OscillatorModel.normalized(0.1)
    with pytest.raises(RuntimeError,
                       match="transient integration failed: dop853 "
                             "return code -3"):
        force_law_averages(m, DriveField.lcp(0.5, 1e300), 0.2)


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


@pytest.mark.parametrize("settle_factor", [-1.0, 0.0, np.nan, np.inf])
def test_rejects_bad_settle_factor(settle_factor):
    # a negative one integrated backwards and returned a wrong torque,
    # 0 skipped the transient and failed in the averaging phase, and NaN
    # or inf never finished
    m = OscillatorModel.normalized(0.1)
    with pytest.raises(ValueError, match="settle_factor"):
        force_law_averages(m, DriveField.lcp(0.5), 0.2,
                           settle_factor=settle_factor)
