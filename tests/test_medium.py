"""Ensemble averaging, Beer-Lambert propagation, and the pump budget."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rotospin import (
    DriveField,
    EnsembleExtinction,
    MediumMember,
    MediumSpec,
    OscillatorModel,
    SingularResonanceError,
    ensemble_extinction,
    extinction_cross_section,
    gain_coefficient,
    intensity_profile,
    propagate_intensity,
    sustaining_power,
    torque,
)

MODEL = OscillatorModel.normalized(0.1, 1e-4)
DRIVE = DriveField.lcp(1.0)


def _medium(rotations_weights, n=1.0, L=1.0):
    members = tuple(MediumMember(MODEL, Om, w) for Om, w in rotations_weights)
    return MediumSpec(n, L, members)


# ---------------------------------------------------------------------------
# spec validation


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        _medium([(0.1, 0.5), (0.2, 0.6)])


def test_negative_weight_rejected():
    for weight in (-0.2, np.nan):
        with pytest.raises(ValueError, match="weight must be non-negative"):
            MediumMember(MODEL, 0.1, weight)


@pytest.mark.parametrize("rotation", [np.nan, np.inf, -np.inf])
def test_non_finite_rotation_rejected(rotation):
    with pytest.raises(ValueError, match="rotation must be finite"):
        MediumMember(MODEL, rotation, 1.0)


@pytest.mark.parametrize("n, L, message", [
    (np.nan, 1.0, "number_density"), (1.0, np.nan, "path_length")])
def test_nan_density_or_length_rejected(n, L, message):
    with pytest.raises(ValueError, match=f"{message} must be non-negative"):
        _medium([(2.0, 1.0)], n, L)


def test_empty_ensemble_rejected():
    with pytest.raises(ValueError):
        MediumSpec(1.0, 1.0, ())


# ---------------------------------------------------------------------------
# ensemble mean


def test_weighted_mean_matches_manual_sum():
    pairs = [(0.0, 0.2), (0.5, 0.3), (2.0, 0.5)]
    result = ensemble_extinction(_medium(pairs), DRIVE)
    manual = sum(w * extinction_cross_section(MODEL, DRIVE, Om)
                 for Om, w in pairs)
    assert result.excluded == ()
    assert_allclose(result.value, manual, rtol=1e-15)


def test_singular_member_excluded_and_renormalized():
    # rotation = drive frequency = omega0 is singular for any damping;
    # the survivors' weights are renormalized to 1
    pairs = [(0.2, 0.25), (1.0, 0.5), (0.6, 0.25)]
    with pytest.warns(RuntimeWarning, match="indices \\(1,\\)"):
        result = ensemble_extinction(_medium(pairs), DRIVE)
    assert result.excluded == (1,)
    survivors = 0.5 * (extinction_cross_section(MODEL, DRIVE, 0.2)
                       + extinction_cross_section(MODEL, DRIVE, 0.6))
    assert_allclose(result.value, survivors, rtol=1e-15)


def test_all_singular_raises():
    with pytest.raises(SingularResonanceError):
        with pytest.warns(RuntimeWarning):
            ensemble_extinction(_medium([(1.0, 1.0)]), DRIVE)


# ---------------------------------------------------------------------------
# gain and propagation


def test_fast_rotors_amplify():
    # every member spins faster than the light frequency, so the mean
    # extinction is negative and the gain coefficient positive
    medium = _medium([(2.0, 0.5), (2.5, 0.5)], n=3.0)
    assert ensemble_extinction(medium, DRIVE).value < 0.0
    assert gain_coefficient(medium, DRIVE) > 0.0


def test_static_ensemble_attenuates():
    medium = _medium([(0.0, 1.0)], n=3.0)
    assert gain_coefficient(medium, DRIVE) < 0.0


@given(st.floats(0.0, 10.0), st.floats(-2.0, 2.0),
       st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_propagation_is_multiplicative(i0, g, z1, z2):
    direct = propagate_intensity(i0, g, z1 + z2)
    staged = propagate_intensity(propagate_intensity(i0, g, z1), g, z2)
    assert_allclose(staged, direct, rtol=1e-12, atol=1e-300)


def test_negative_intensity_rejected():
    for intensity in (-1.0, np.float64(-1.0), np.array([1.0, -1.0])):
        with pytest.raises(ValueError, match="^intensity must be non-neg"):
            propagate_intensity(intensity, 0.1, 1.0)


def test_array_intensity_broadcasts():
    # a float I0 is checked in Python; an array one still broadcasts
    i0 = np.array([0.0, 1.0, 2.5])
    got = propagate_intensity(i0, 0.1, 2.0)
    assert [v.hex() for v in got] == [
        propagate_intensity(float(v), 0.1, 2.0).hex() for v in i0]
    with pytest.raises(ValueError, match="^intensity must not be NaN$"):
        propagate_intensity(np.array([1.0, np.nan]), 0.1, 2.0)


@pytest.mark.parametrize("intensity, gain, z, name", [
    (np.nan, 0.1, 1.0, "intensity"),
    (np.nan, 0.1, np.array([0.0, 1.0]), "intensity"),
    (1.0, np.nan, 1.0, "gain"),
    (1.0, 0.1, np.nan, "z"),
    (1.0, 0.1, np.array([0.0, np.nan]), "z"),
], ids=["intensity", "intensity-profile", "gain", "z", "z-profile"])
def test_nan_input_is_no_overflow(intensity, gain, z, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
            propagate_intensity(intensity, gain, z)


@pytest.mark.parametrize("gain, z", [
    (1e3, 1e3),                         # exp(g z) overflows
    (12.4, np.linspace(0.0, 1e6, 5)),
    (np.inf, np.array([0.0, 1.0])),     # inf * 0 is NaN at z = 0
], ids=["point", "profile", "infinite-gain"])
def test_propagation_beyond_doubles_raises(gain, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="I0 exp"):
            propagate_intensity(1.0, gain, z)


def test_intensity_profile_endpoints():
    medium = _medium([(2.0, 1.0)], n=3.0, L=2.5)
    g = gain_coefficient(medium, DRIVE)
    z, ivals = intensity_profile(medium, DRIVE, 1.5, n_samples=11)
    assert z[0] == 0.0 and z[-1] == 2.5
    assert ivals[0] == 1.5
    assert_allclose(ivals[-1], 1.5 * np.exp(g * 2.5), rtol=1e-15)
    with pytest.raises(ValueError):
        intensity_profile(medium, DRIVE, 1.0, n_samples=1)


# ---------------------------------------------------------------------------
# pump budget


def test_sustaining_power_is_torque_work():
    # the pump replaces exactly the rotational work the beam extracts
    member = MediumMember(MODEL, 2.0, 1.0)
    p = sustaining_power(member, DRIVE)
    assert_allclose(p, -torque(MODEL, DRIVE, 2.0) * 2.0, rtol=1e-13)
    assert p > 0.0


def test_slow_rotor_needs_no_pump():
    member = MediumMember(MODEL, 0.2, 1.0)
    assert sustaining_power(member, DRIVE) < 0.0


def test_overflowing_sustaining_power_raises():
    # I = 1.6e305 and sigma_mech = 1.5e4 are finite, their product is not
    member = MediumMember(OscillatorModel.normalized(1e-4, 0.0),
                          0.22583426132260587, 1.0)
    drive = DriveField.lcp(1.2, 1e153)
    assert math.isfinite(drive.intensity(1.0))
    with pytest.raises(OverflowError) as info:
        sustaining_power(member, drive)
    assert str(info.value) == ("the sustaining power -sigma_mech * I "
                               "overflows a double")
