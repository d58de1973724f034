"""Mappings from real-particle descriptions onto the oscillator model.

A small metal particle with Drude permittivity eps = 1 - wp^2/w(w+ig)
responds, in the dipole regime, like a bound charge with an effective
spring.  A sphere of radius R maps to omega0 = wp/sqrt(3) and coupling
Q^2/m = omega0^2 R^3; the general ellipsoid with depolarization factor
L maps to omega0 = wp*sqrt(L) and coupling wp^2 V / 4pi.  The radiative
time is always tied to the coupling, tau = 2(Q^2/m)/3c^3, since these
are physical particles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .response import SPEED_OF_LIGHT, OscillatorModel


@dataclass(frozen=True)
class DrudeSphere:
    """Metal sphere: plasma frequency (rad/s), damping (rad/s), radius (cm)."""

    plasma_frequency: float
    damping: float
    radius: float

    def __post_init__(self):
        if not self.plasma_frequency > 0:
            raise ValueError("plasma_frequency must be positive")
        if self.damping < 0:
            raise ValueError("damping must be non-negative")
        if not self.radius > 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class DrudeEllipsoid:
    """Metal ellipsoid driven along one principal axis.

    ``depolarization_factor`` is the usual electrostatic shape factor of
    that axis (1/3 for a sphere, small for a long rod).
    """

    plasma_frequency: float
    damping: float
    volume: float
    depolarization_factor: float

    def __post_init__(self):
        if not self.plasma_frequency > 0:
            raise ValueError("plasma_frequency must be positive")
        if self.damping < 0:
            raise ValueError("damping must be non-negative")
        if not self.volume > 0:
            raise ValueError("volume must be positive")
        if not 0 < self.depolarization_factor < 1:
            raise ValueError("depolarization_factor must lie in (0, 1)")


def _finite_coupling(coupling, formula):
    """The mapped coupling as a float, or a ValueError on overflow."""
    if not np.isfinite(coupling):
        raise ValueError(f"the coupling {formula} of the Drude inputs "
                         "overflows a double")
    return float(coupling)


def from_drude_sphere(sphere: DrudeSphere,
                      light_speed=SPEED_OF_LIGHT) -> OscillatorModel:
    """omega0 = wp/sqrt(3), coupling = omega0^2 R^3, gamma copied."""
    omega0 = sphere.plasma_frequency / math.sqrt(3.0)
    with np.errstate(over="ignore"):
        coupling = np.float64(omega0)**2 * np.float64(sphere.radius)**3
    coupling = _finite_coupling(coupling, "plasma_frequency^2 radius^3 / 3")
    return OscillatorModel.physical(coupling, omega0, sphere.damping,
                                    light_speed)


def from_drude_ellipsoid(ellipsoid: DrudeEllipsoid,
                         light_speed=SPEED_OF_LIGHT) -> OscillatorModel:
    """omega0 = wp*sqrt(L), coupling = wp^2 V / 4pi, gamma copied."""
    omega0 = ellipsoid.plasma_frequency * math.sqrt(
        ellipsoid.depolarization_factor)
    with np.errstate(over="ignore"):
        coupling = (np.float64(ellipsoid.plasma_frequency)**2
                    * ellipsoid.volume / (4.0 * np.pi))
    coupling = _finite_coupling(coupling, "plasma_frequency^2 volume / 4 pi")
    return OscillatorModel.physical(coupling, omega0, ellipsoid.damping,
                                    light_speed)
