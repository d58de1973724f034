"""Beam amplification by a dilute medium of rotating particles.

Each particle that spins faster than the light frequency feeds energy
into the beam (negative extinction), so a medium of externally sustained
rotors acts as a gain medium.  The closure here is single-scattering
Beer-Lambert: gain coefficient g = -n * mean(sigma_ext), intensity
I(z) = I0 * exp(g z).  Rotation is treated as externally maintained, so
g does not deplete along the path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .response import (DriveField, OscillatorModel, SingularResonanceError,
                       extinction_cross_section, mechanical_cross_section)

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class MediumMember:
    """One ensemble component: a particle model, its rotation, its weight."""

    model: OscillatorModel
    rotation: float
    weight: float

    def __post_init__(self):
        if not math.isfinite(self.rotation):
            raise ValueError("rotation must be finite")
        if not self.weight >= 0:
            raise ValueError("weight must be non-negative")


@dataclass(frozen=True)
class MediumSpec:
    """Dilute ensemble: number density (cm^-3), path length (cm), members."""

    number_density: float
    path_length: float
    members: tuple

    def __post_init__(self):
        if not self.number_density >= 0:
            raise ValueError("number_density must be non-negative")
        if not self.path_length >= 0:
            raise ValueError("path_length must be non-negative")
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        total = sum(m.weight for m in members)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"member weights sum to {total!r}, expected 1")


class EnsembleExtinction(NamedTuple):
    """Weighted mean extinction plus the indices of excluded members."""

    value: float
    excluded: tuple


def ensemble_extinction(medium: MediumSpec, drive: DriveField) -> EnsembleExtinction:
    """Weighted mean of sigma_ext over the ensemble.

    Members sitting exactly on a lossless resonance are excluded with a
    warning and the remaining weights renormalized; if every member is
    singular the error propagates.
    """
    sigmas = []
    weights = []
    excluded = []
    for idx, member in enumerate(medium.members):
        try:
            s = extinction_cross_section(member.model, drive, member.rotation)
        except SingularResonanceError:
            excluded.append(idx)
            continue
        sigmas.append(s)
        weights.append(member.weight)
    if excluded:
        warnings.warn(f"excluded {len(excluded)} singular ensemble "
                      f"member(s) at indices {tuple(excluded)}",
                      RuntimeWarning, stacklevel=2)
    total = sum(weights)
    if total == 0.0:
        raise SingularResonanceError(
            "every ensemble member sits on a lossless resonance")
    value = sum(w * s for w, s in zip(weights, sigmas)) / total
    return EnsembleExtinction(value=float(value), excluded=tuple(excluded))


def gain_coefficient(medium: MediumSpec, drive: DriveField) -> float:
    """g = -n * mean(sigma_ext); positive g means amplification."""
    mean = ensemble_extinction(medium, drive)
    return -medium.number_density * mean.value


def propagate_intensity(intensity_in, gain, z):
    """Beer-Lambert closure I(z) = I0 * exp(g z) of a gain g, at a point
    or an array I0 and z.  Raises ValueError where I0 is negative or an
    input is NaN, and OverflowError where I(z) is not finite otherwise
    (an infinite gain gives NaN at z = 0)."""
    # a float I0 is checked in Python, anything else through numpy
    if (intensity_in < 0 if type(intensity_in) is float
            else np.any(np.asarray(intensity_in) < 0)):
        raise ValueError("intensity must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        out = intensity_in * np.exp(gain * np.asarray(z, dtype=float))
    if not np.isfinite(out).all():
        for name, value in (("intensity", intensity_in), ("gain", gain),
                            ("z", z)):
            if np.isnan(value).any():
                raise ValueError(f"{name} must not be NaN")
        raise OverflowError("the propagated intensity I0 exp(g z) "
                            "overflows a double")
    return float(out) if np.ndim(out) == 0 else out


def intensity_profile(medium: MediumSpec, drive: DriveField, intensity_in,
                      n_samples=101):
    """(z, I(z)) sampled uniformly along the medium's path length."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    g = gain_coefficient(medium, drive)
    z = np.linspace(0.0, medium.path_length, n_samples)
    return z, propagate_intensity(intensity_in, g, z)


def sustaining_power(member: MediumMember, drive: DriveField) -> float:
    """Rotational power the external drive must supply to one particle.

    The beam exerts the braking power sigma_mech * I on the rotor; the
    pump must replace -sigma_mech * I when that is positive (energy
    flowing from rotation into the beam).  Raises OverflowError where
    that power is too large for a double.
    """
    s_mech = mechanical_cross_section(member.model, drive, member.rotation)
    power = -s_mech * drive.intensity(member.model.light_speed)
    if not (math.isfinite(power) if type(power) is float
            else np.isfinite(power).all()):
        raise OverflowError("the sustaining power -sigma_mech * I overflows "
                            "a double")
    return power
