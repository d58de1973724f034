"""Spin-up of the particle under the optical torque, heating balance and
the centrifugal break-up estimate.

The rotational dynamics is the quasi-static rigid-body closure
dOmega/dt = M(Omega) / I_mom, separable, so a spin-up is solved in
Omega: its end is a root search and its duration a quadrature of
I_mom / M.  Thermal equilibrium follows the six-power radiation law
T_eq^6 = T0^6 + P_abs/C_rad, and the break-up frequency equates
rotational kinetic energy with the surface energy, (1/2) I_mom Omega^2
= 4 pi R^2 sigma_surf, an order-of-magnitude convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .response import DriveField, OscillatorModel, absorption_cross_section, torque


class UnreachableTargetError(ValueError):
    """The torque cannot push the rotation toward the requested target."""


#: samples of a crossing search, and panel edges of a sampled trajectory
_SAMPLES = 257


def _first_crossing(f, lo, hi):
    """First x on the way from lo to hi where f(x) >= 0, or None: one
    broadcast call samples f, and brentq refines the first sign change."""
    x = np.linspace(lo, hi, _SAMPLES)
    y = np.broadcast_to(f(x), x.shape)
    hits = np.flatnonzero(y >= 0)
    if not hits.size:
        return None
    i = hits[0]
    if i == 0 or y[i] == 0:
        return float(x[i])
    from scipy.optimize import brentq
    return brentq(f, x[i - 1], x[i], xtol=1e-14 * abs(hi - lo))


@dataclass(frozen=True)
class RigidBodyParams:
    """Mechanical data of the spinning particle.

    Only the moment of inertia is required; density/radius back the
    sphere helper, and melting temperature and surface tension switch on
    the melt and burst termination checks when present.
    """

    moment_of_inertia: float            # g cm^2
    mass_density: float | None = None   # g/cm^3
    radius: float | None = None         # cm
    melting_temperature: float | None = None  # K
    surface_tension: float | None = None      # erg/cm^2

    def __post_init__(self):
        if not self.moment_of_inertia > 0:
            raise ValueError("moment_of_inertia must be positive")
        for name in ("mass_density", "radius", "melting_temperature",
                     "surface_tension"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive when given")

    @classmethod
    def solid_sphere(cls, mass_density, radius, melting_temperature=None,
                     surface_tension=None):
        """Homogeneous sphere, I = (2/5) m R^2 = (8/15) pi rho R^5."""
        i_mom = 8.0 * np.pi / 15.0 * mass_density * radius**5
        return cls(i_mom, mass_density, radius, melting_temperature,
                   surface_tension)

    @classmethod
    def thin_rod(cls, mass, length, melting_temperature=None,
                 surface_tension=None):
        """Thin rod about its center, I = m L^2 / 12."""
        return cls(mass * length**2 / 12.0,
                   melting_temperature=melting_temperature,
                   surface_tension=surface_tension)


@dataclass(frozen=True)
class ThermalParams:
    """Six-power radiative cooling: P_rad = C_rad (T^6 - T0^6)."""

    ambient_temperature: float      # K
    radiative_coefficient: float    # erg/(s K^6)

    def __post_init__(self):
        if self.ambient_temperature < 0:
            raise ValueError("ambient_temperature must be non-negative")
        if not self.radiative_coefficient > 0:
            raise ValueError("radiative_coefficient must be positive")


@dataclass(frozen=True)
class SpinUpTrajectory:
    """Sampled (t, Omega) history plus how the run ended."""

    times: np.ndarray
    rotation: np.ndarray
    outcome: str    # "target" | "melt" | "burst" | "max-time"

    @property
    def terminal_time(self) -> float:
        return float(self.times[-1])

    @property
    def terminal_rotation(self) -> float:
        return float(self.rotation[-1])


def equilibrium_temperature(thermal: ThermalParams, absorbed_power):
    """T_eq = (T0^6 + P/C_rad)^(1/6); exactly T0 at zero power."""
    p = np.asarray(absorbed_power, dtype=float)
    if np.any(p < 0):
        raise ValueError("absorbed_power must be non-negative")
    t0 = thermal.ambient_temperature
    c_rad = thermal.radiative_coefficient
    with np.errstate(over="ignore"):
        ratio = p / c_rad
    # zero-power shortcut: (T0^6)^(1/6) would lose the last bit
    out = np.where(p == 0.0, t0, (t0**6 + ratio) ** (1.0 / 6.0))
    huge = np.isinf(ratio)
    if huge.any():
        # P/C_rad beyond a double: T = r (1 + (T0/r)^6)^(1/6) with
        # r = (P/C_rad)^(1/6) taken root by root
        r = p[huge] ** (1.0 / 6.0) / c_rad ** (1.0 / 6.0)
        out[huge] = r * (1.0 + (t0 / r) ** 6) ** (1.0 / 6.0)
    return float(out) if out.ndim == 0 else out


def centrifugal_burst_frequency(body: RigidBodyParams):
    """Omega at which rotational energy reaches the surface energy.

    (1/2) I Omega^2 = 4 pi R^2 sigma; for the solid-sphere inertia this
    is sqrt(15 sigma / (rho R^3)).  Order-of-magnitude by construction.
    """
    if body.surface_tension is None or body.radius is None:
        raise ValueError("burst estimate needs radius and surface_tension")
    surface_energy = 4.0 * np.pi * body.radius**2 * body.surface_tension
    return float(np.sqrt(2.0 * surface_energy / body.moment_of_inertia))


def spin_up_trajectory(model: OscillatorModel, drive: DriveField,
                       body: RigidBodyParams, Omega_init, Omega_target,
                       max_time=None, thermal: ThermalParams | None = None,
                       n_samples=200) -> SpinUpTrajectory:
    """Spin-up under dOmega/dt = M(Omega)/I from Omega_init toward
    Omega_target, sampled at ``n_samples`` evenly spaced times.

    The run ends at the first of the target, the melting point (given
    ``thermal`` and a melting temperature) and the burst (given surface
    data), after ``time_to_target_by_quadrature``; or at ``max_time``
    (default: 10x the constant-torque estimate) as "max-time"; one that
    ends at once holds ``n_samples`` samples of (0, Omega_init).  Raises
    ``UnreachableTargetError`` when the torque stalls the rotation first.
    """
    if not Omega_target > Omega_init:
        raise ValueError("Omega_target must exceed Omega_init")
    if Omega_init < 0:
        raise ValueError("Omega_init must be non-negative")
    if max_time is not None and not max_time > 0:
        raise ValueError("max_time must be positive")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")

    Omega_end, outcome = Omega_target, "target"
    if body.surface_tension is not None and body.radius is not None:
        burst_at = max(centrifugal_burst_frequency(body), Omega_init)
        if burst_at < Omega_end:
            Omega_end, outcome = burst_at, "burst"
    if thermal is not None and body.melting_temperature is not None:
        intensity = drive.intensity(model.light_speed)
        melt_at = _first_crossing(lambda Om: equilibrium_temperature(
            thermal, absorption_cross_section(model, drive, Om) * intensity)
            - body.melting_temperature, Omega_init, Omega_end)
        if melt_at is not None and melt_at < Omega_end:
            Omega_end, outcome = melt_at, "melt"
    if Omega_end == Omega_init:
        return SpinUpTrajectory(np.zeros(n_samples),
                                np.full(n_samples, float(Omega_init)), outcome)

    t_end = time_to_target_by_quadrature(model, drive, body, Omega_end,
                                         Omega_init)
    if max_time is None:
        # the quadrature's stall search has seen M(Omega_init) > 0
        max_time = (10.0 * body.moment_of_inertia * (Omega_target - Omega_init)
                    / torque(model, drive, Omega_init))
    t_stop = min(t_end, max_time)
    outcome = "max-time" if t_stop < t_end else outcome

    # Simpson's rule on 1/M, scaled to at most 1 against overflow, gives
    # t(Omega) at the panel edges as a fraction s of the run, inverted by
    # the cubic Hermite interpolant with the exact slopes dOmega/ds.
    Om = np.linspace(Omega_init, Omega_end, 2 * _SAMPLES - 1)
    w = torque(model, drive, Om)
    w = w.min() / w
    s = np.cumsum(w[:-2:2] + 4.0 * w[1::2] + w[2::2])
    from scipy.interpolate import CubicHermiteSpline
    inverse = CubicHermiteSpline(np.concatenate(([0.0], s / s[-1])), Om[::2],
                                 (Om[2] - Om[0]) / 6.0 * s[-1] / w[::2])
    rotation = inverse(np.linspace(0.0, t_stop / t_end, n_samples))
    if outcome != "max-time":
        rotation[-1] = Omega_end
    return SpinUpTrajectory(np.linspace(0.0, t_stop, n_samples), rotation,
                            outcome)


def time_to_target_by_quadrature(model, drive, body, Omega_target,
                                 Omega_init=0.0) -> float:
    """Spin-up time t = integral of I_mom dOmega / M(Omega), the duration
    of every ``spin_up_trajectory``; zero when already at the target.

    Raises ``UnreachableTargetError`` when the torque stalls the rotation
    on the way, and ``RuntimeError`` when the adaptive quadrature fails.
    """
    if Omega_target == Omega_init:
        return 0.0
    direction = np.sign(Omega_target - Omega_init)
    stall = _first_crossing(lambda Om: -direction * torque(model, drive, Om),
                            Omega_init, Omega_target)
    if stall is not None:
        raise UnreachableTargetError(
            f"the torque stalls the rotation at Omega = {stall:.6g}, short "
            f"of Omega_target = {Omega_target:.6g}")
    from scipy.integrate import quad
    val, _, _, *failure = quad(
        lambda Om: body.moment_of_inertia / torque(model, drive, Om),
        Omega_init, Omega_target, epsabs=0.0, epsrel=1e-10, limit=200,
        full_output=1)
    if failure or not 0 < val < np.inf:
        reason = failure[0] if failure else "time out of double range"
        raise RuntimeError("spin-up quadrature failed: "
                           + " ".join(reason.split()))
    return val
