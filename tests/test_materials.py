"""Drude mappings, and the particle at rest: its dipole torque and the
optical theorem, from the self-check's polarizability."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotospin import (
    SPEED_OF_LIGHT,
    DriveField,
    DrudeEllipsoid,
    DrudeSphere,
    OscillatorModel,
    from_drude_ellipsoid,
    from_drude_sphere,
    torque,
)
from rotospin.validation import static_polarizability


def test_sphere_mapping_normalized():
    m = from_drude_sphere(DrudeSphere(np.sqrt(3.0), 0.1, 1.0), light_speed=1.0)
    assert m.natural_frequency == pytest.approx(1.0)
    assert m.coupling == pytest.approx(1.0)
    assert m.damping_rate == 0.1
    assert m.radiative_time == pytest.approx(2.0 / 3.0)
    assert m.radiative_time == 2.0 * m.coupling / (3.0 * m.light_speed**3)


def test_sphere_mapping_gold_scale():
    # gold-like plasma frequency 1.37e16 rad/s, 10 nm sphere
    m = from_drude_sphere(DrudeSphere(1.37e16, 1.0e14, 1.0e-6))
    assert_allclose(m.natural_frequency, 7.91e15, rtol=1e-3)
    assert_allclose(m.coupling, m.natural_frequency**2 * 1e-18, rtol=1e-14)
    assert m.light_speed == SPEED_OF_LIGHT


@pytest.mark.parametrize("plasma_frequency, damping, message", [
    (0.0, 0.1, "plasma_frequency must be positive"),
    (-1.0, 0.1, "plasma_frequency must be positive"),
    (np.nan, 0.1, "plasma_frequency must be positive"),
    (1.0, -0.1, "damping must be non-negative"),
], ids=["zero-plasma", "negative-plasma", "nan-plasma", "negative-damping"])
def test_ellipsoid_rejects_bad_drude_data(plasma_frequency, damping,
                                          message):
    with pytest.raises(ValueError, match=message):
        DrudeEllipsoid(plasma_frequency, damping, 1.0, 1.0 / 3.0)


def test_ellipsoid_mapping():
    e = DrudeEllipsoid(plasma_frequency=2.0, damping=0.05, volume=3.0,
                       depolarization_factor=0.25)
    m = from_drude_ellipsoid(e, light_speed=1.0)
    assert m.natural_frequency == pytest.approx(2.0 * 0.5)
    assert m.coupling == pytest.approx(4.0 * 3.0 / (4.0 * np.pi))


def test_ellipsoid_reduces_to_sphere_at_third():
    # L = 1/3 with the sphere's volume reproduces the sphere mapping
    sphere = from_drude_sphere(DrudeSphere(np.sqrt(3.0), 0.1, 1.0),
                               light_speed=1.0)
    ell = from_drude_ellipsoid(
        DrudeEllipsoid(np.sqrt(3.0), 0.1, 4.0 * np.pi / 3.0, 1.0 / 3.0),
        light_speed=1.0)
    assert_allclose(ell.natural_frequency, sphere.natural_frequency,
                    rtol=1e-14)
    assert_allclose(ell.coupling, sphere.coupling, rtol=1e-14)
    assert_allclose(ell.radiative_time, sphere.radiative_time, rtol=1e-14)


def test_ellipsoid_static_polarizability():
    # alpha(0) = K/omega0^2 = V / (4 pi L)
    e = DrudeEllipsoid(plasma_frequency=5.0, damping=0.0, volume=2.0,
                       depolarization_factor=0.1)
    m = from_drude_ellipsoid(e, light_speed=1.0)
    assert static_polarizability(m, 0.0).real == pytest.approx(
        2.0 / (4.0 * np.pi * 0.1), rel=1e-13)


def test_mapping_validation():
    with pytest.raises(ValueError):
        DrudeSphere(0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        DrudeSphere(1.0, -0.1, 1.0)
    with pytest.raises(ValueError, match="radius must be positive"):
        DrudeSphere(1.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        DrudeEllipsoid(1.0, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        DrudeEllipsoid(1.0, 0.1, -1.0, 0.3)


def test_dipole_torque_matches_rotating_frame_at_rest():
    # the rod has polarizability only along its axis; at Omega = 0 the
    # full torque must agree with the dipole torque |E|^2 Im(alpha)
    for gamma, tau in ((0.2, 0.0), (0.1, 0.05), (0.0, 0.1)):
        m = OscillatorModel.normalized(gamma, tau)
        for w in (0.3, 0.9, 1.4):
            d = DriveField.lcp(w, amplitude=1.3)
            dip = d.field_norm_sq * static_polarizability(m, w).imag
            assert_allclose(torque(m, d, 0.0), dip, rtol=1e-13)


def test_lossless_sphere_feels_no_torque():
    # isotropic lossless particle: the torque of LCP light is
    # |E|^2 (2 Im(alpha) - (4 w^3 / 3c^3) |alpha|^2), and Im(alpha) is
    # purely radiative, (2 w^3 / 3c^3) |alpha|^2, so the recoil term
    # cancels it exactly
    m = OscillatorModel.physical(0.8, 1.0, 0.0, light_speed=1.0)
    w = 0.6
    alpha = static_polarizability(m, w)
    mz = 2.0 * alpha.imag - 4.0 * w**3 / 3.0 * abs(alpha) ** 2
    assert abs(mz) <= 1e-14 * abs(2.0 * alpha.imag)


def test_radiationless_rod_still_spins_up():
    # even without friction the radiative width gives Im(alpha) > 0:
    # photons carry spin, so absorptionless particles still feel torque
    m = OscillatorModel.physical(0.8, 1.0, 0.0, light_speed=1.0)
    assert torque(m, DriveField.lcp(0.6), 0.0) > 0.0


def _optical_theorem_residual(m, w):
    """Im(-1/alpha) minus its radiative and friction parts."""
    return ((-1.0 / static_polarizability(m, w)).imag
            - 2.0 * w**3 / (3.0 * m.light_speed**3)
            - m.damping_rate * w / m.coupling)


def test_optical_theorem_linked_model():
    for coupling in (0.3, 1.0, 2.5):
        m = OscillatorModel.physical(coupling, 1.0, 0.15, light_speed=1.0)
        for w in (0.2, 0.8, 1.7):
            ref = abs((-1.0 / static_polarizability(m, w)).imag)
            assert abs(_optical_theorem_residual(m, w)) <= 1e-13 * ref


def test_optical_theorem_free_tau_mismatch():
    # a normalized model with free tau misses the link by exactly
    # tau*w^3 - 2 w^3 / (3 c^3)
    m = OscillatorModel.normalized(0.1, 0.2)
    w = 0.9
    expected = 0.2 * w**3 - 2.0 * w**3 / 3.0
    assert_allclose(_optical_theorem_residual(m, w), expected, rtol=1e-12)
