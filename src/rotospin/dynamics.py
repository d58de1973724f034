"""Spin-up of the particle under the optical torque, heating balance and
the centrifugal break-up estimate.

The rotational dynamics is the quasi-static rigid-body closure
dOmega/dt = M(Omega) / I_mom with the torque evaluated at the
instantaneous rotation frequency.  Thermal equilibrium follows the
six-power radiation law T_eq^6 = T0^6 + P_abs/C_rad, and the break-up
frequency equates rotational kinetic energy with the surface energy,
(1/2) I_mom Omega^2 = 4 pi R^2 sigma_surf, an order-of-magnitude
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .response import DriveField, OscillatorModel, absorption_cross_section, torque


class UnreachableTargetError(ValueError):
    """The torque cannot push the rotation toward the requested target."""


#: torque samples per interval when looking for a stall before a spin-up
_STALL_SAMPLES = 257


def _require_no_stall(model, drive, Omega_init, Omega_target):
    """Raise UnreachableTargetError if the torque stops pushing the rotation
    toward Omega_target somewhere on the way from Omega_init.

    The rotation cannot cross a zero of the torque, so a run toward a
    target beyond one would only end at its time limit.
    """
    Om = np.linspace(Omega_init, Omega_target, _STALL_SAMPLES)
    direction = np.sign(Omega_target - Omega_init)
    push = direction * np.broadcast_to(torque(model, drive, Om), Om.shape)
    stalled = np.flatnonzero(push <= 0)
    if not stalled.size:
        return
    i = stalled[0]
    from scipy.optimize import brentq
    stall = Om[i] if i == 0 or push[i] == 0 else brentq(
        lambda x: torque(model, drive, x), Om[i - 1], Om[i])
    raise UnreachableTargetError(
        f"the torque stalls the rotation at Omega = {stall:.6g}, short of "
        f"Omega_target = {Omega_target:.6g}")


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
    """Sampled (t, Omega) history plus how the integration ended."""

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
    t6 = t0**6 + p / thermal.radiative_coefficient
    # zero-power shortcut: (T0^6)^(1/6) would lose the last bit
    out = np.where(p == 0.0, t0, t6 ** (1.0 / 6.0))
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
                       rtol=1e-8, n_samples=200) -> SpinUpTrajectory:
    """Integrate dOmega/dt = M(Omega)/I from Omega_init toward Omega_target.

    Stops at the first of: target reached, melting (when ``thermal`` and
    the body's melting temperature are given), centrifugal burst (when
    the body carries surface data), or ``max_time`` (default: 10x the
    constant-torque estimate).  Raises ``UnreachableTargetError`` when
    the torque does not point toward the target all the way there.
    """
    if not Omega_target > Omega_init:
        raise ValueError("Omega_target must exceed Omega_init")
    if Omega_init < 0:
        raise ValueError("Omega_init must be non-negative")
    if max_time is not None and not max_time > 0:
        raise ValueError("max_time must be positive")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    from scipy.integrate import solve_ivp

    i_mom = body.moment_of_inertia
    m0 = torque(model, drive, Omega_init)
    # Omega_init is the stall search's first sample, so m0 > 0 past it
    _require_no_stall(model, drive, Omega_init, Omega_target)

    if max_time is None:
        max_time = 10.0 * i_mom * (Omega_target - Omega_init) / m0

    intensity = drive.intensity(model.light_speed)

    def rhs(t, y):
        return [torque(model, drive, y[0]) / i_mom]

    events = []

    def hit_target(t, y):
        return y[0] - Omega_target
    hit_target.terminal = True
    hit_target.direction = 1.0
    events.append(("target", hit_target))

    if body.surface_tension is not None and body.radius is not None:
        burst_at = centrifugal_burst_frequency(body)
        if Omega_init >= burst_at:
            return SpinUpTrajectory(times=np.zeros(1),
                                    rotation=np.full(1, Omega_init),
                                    outcome="burst")

        def hit_burst(t, y):
            return y[0] - burst_at
        hit_burst.terminal = True
        hit_burst.direction = 1.0
        events.append(("burst", hit_burst))

    if thermal is not None and body.melting_temperature is not None:
        t_melt = body.melting_temperature

        def hit_melt(t, y):
            p_abs = absorption_cross_section(model, drive, y[0]) * intensity
            return equilibrium_temperature(thermal, p_abs) - t_melt
        # events only fire on sign changes; a condition violated from the
        # start has to be caught before integrating
        if hit_melt(0.0, [Omega_init]) >= 0:
            return SpinUpTrajectory(times=np.zeros(1),
                                    rotation=np.full(1, Omega_init),
                                    outcome="melt")
        hit_melt.terminal = True
        hit_melt.direction = 1.0
        events.append(("melt", hit_melt))

    scale = max(abs(Omega_init), abs(Omega_target))
    with np.errstate(over="ignore", invalid="ignore"):
        # a step the solver cannot control shows in sol.success; numpy's
        # overflow warnings from inside the solver add nothing to it
        sol = solve_ivp(rhs, (0.0, max_time), [Omega_init],
                        method="DOP853", rtol=rtol, atol=1e-12 * scale,
                        events=[e for _, e in events], dense_output=True)
    if not sol.success:
        raise RuntimeError(f"spin-up integration failed: {sol.message}")

    outcome = "max-time"
    t_end = max_time
    for (name, _), t_hits in zip(events, sol.t_events):
        if t_hits.size:
            outcome = name
            t_end = float(t_hits[0])
            break

    times = np.linspace(0.0, t_end, n_samples)
    rotation = sol.sol(times)[0]
    return SpinUpTrajectory(times=times, rotation=rotation, outcome=outcome)


def time_to_target(model, drive, body, Omega_target, Omega_init=0.0,
                   **kwargs) -> float:
    """Terminal time of the spin-up run; zero when already at target."""
    if Omega_target == Omega_init:
        return 0.0
    traj = spin_up_trajectory(model, drive, body, Omega_init, Omega_target,
                              **kwargs)
    if traj.outcome != "target":
        raise RuntimeError(f"target not reached: run ended with "
                           f"'{traj.outcome}' at t={traj.terminal_time:.3e}")
    return traj.terminal_time


def time_to_target_by_quadrature(model, drive, body, Omega_target,
                                 Omega_init=0.0) -> float:
    """Independent route: t = integral of I_mom dOmega / M(Omega).

    High-order adaptive quadrature of the separable dynamics; used to
    cross-check the trajectory integrator.  Raises
    ``UnreachableTargetError`` when the torque vanishes on the way.
    """
    if Omega_target == Omega_init:
        return 0.0
    _require_no_stall(model, drive, Omega_init, Omega_target)
    from scipy.integrate import quad
    i_mom = body.moment_of_inertia

    def inv_rate(Om):
        return i_mom / torque(model, drive, Om)

    val, _ = quad(inv_rate, Omega_init, Omega_target,
                  epsabs=0.0, epsrel=1e-10, limit=200)
    return val
