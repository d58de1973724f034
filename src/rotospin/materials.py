"""Mappings from real-particle descriptions onto the oscillator model.

A small metal particle with Drude permittivity eps = 1 - wp^2/w(w+ig)
responds, in the dipole regime, like a bound charge with an effective
spring.  A sphere of radius R maps to omega0 = wp/sqrt(3) and coupling
Q^2/m = omega0^2 R^3; the general ellipsoid with depolarization factor
L maps to omega0 = wp*sqrt(L) and coupling wp^2 V / 4pi.  The radiative
time is always tied to the coupling, tau = 2(Q^2/m)/3c^3, since these
are physical particles.

Also provides the slow-rotation torque formula written directly in terms
of the rod's two polarizabilities, used as an independent cross-check of
the full rotating-frame result at Omega = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .response import SPEED_OF_LIGHT, OscillatorModel, static_polarizability


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


@dataclass(frozen=True)
class AnisotropicPolarizability:
    """Complex polarizabilities along and across the rod axis, cm^3."""

    parallel: complex
    perpendicular: complex


def from_drude_sphere(sphere: DrudeSphere,
                      light_speed=SPEED_OF_LIGHT) -> OscillatorModel:
    """omega0 = wp/sqrt(3), coupling = omega0^2 R^3, gamma copied."""
    omega0 = sphere.plasma_frequency / np.sqrt(3.0)
    coupling = omega0**2 * sphere.radius**3
    return OscillatorModel.physical(coupling, omega0, sphere.damping,
                                    light_speed)


def from_drude_ellipsoid(ellipsoid: DrudeEllipsoid,
                         light_speed=SPEED_OF_LIGHT) -> OscillatorModel:
    """omega0 = wp*sqrt(L), coupling = wp^2 V / 4pi, gamma copied."""
    omega0 = ellipsoid.plasma_frequency * np.sqrt(
        ellipsoid.depolarization_factor)
    coupling = ellipsoid.plasma_frequency**2 * ellipsoid.volume / (4.0 * np.pi)
    return OscillatorModel.physical(coupling, omega0, ellipsoid.damping,
                                    light_speed)


def dipole_torque_low_rotation(pol: AnisotropicPolarizability, omega,
                               field_norm_sq, light_speed=SPEED_OF_LIGHT):
    """Torque of LCP light on a slowly rotating anisotropic particle.

    M / |E|^2 = Im(a_par + a_perp) - (4 w^3 / 3 c^3) Re(a_par * conj(a_perp)).
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    a_par = complex(pol.parallel)
    a_perp = complex(pol.perpendicular)
    per_field = ((a_par + a_perp).imag
                 - 4.0 * omega**3 / (3.0 * light_speed**3)
                 * (a_par * a_perp.conjugate()).real)
    return field_norm_sq * per_field


def optical_theorem_residual(model: OscillatorModel, omega):
    """Im{-1/alpha} minus its lossless plus friction parts.

    Zero (to rounding) whenever the radiative time is physically linked
    to the coupling; a normalized model with a free tau will show the
    mismatch tau*w^3 - 2w^3/3c^3 instead.
    """
    alpha = static_polarizability(model, omega)
    return ((-1.0 / alpha).imag
            - 2.0 * omega**3 / (3.0 * model.light_speed**3)
            - model.damping_rate * omega / model.coupling)
