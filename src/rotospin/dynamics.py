"""Spin-up of the particle under the optical torque, heating balance and
the centrifugal break-up estimate.

The rotational dynamics is the quasi-static rigid-body closure
dOmega/dt = M(Omega) / I_mom, separable, so a spin-up is solved in
Omega: its end is a root search and its duration an adaptive
Gauss-Legendre quadrature of I_mom / M, whose panels also tabulate the
sampled trajectory.  Thermal equilibrium follows the six-power
radiation law T_eq^6 = T0^6 + P_abs/C_rad, and the break-up frequency
equates rotational kinetic energy with the surface energy, (1/2) I_mom
Omega^2 = 4 pi R^2 sigma_surf, an order-of-magnitude convention.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .response import (DriveField, OscillatorModel, _is_array,
                       absorption_cross_section, torque)


class UnreachableTargetError(ValueError):
    """The torque cannot push the rotation toward the requested target."""


#: samples of a crossing search, and table points per quadrature panel
#: of a sampled trajectory
_SAMPLES = 257

#: the spin-up quadrature's relative tolerance, and the most panels it
#: may split the span into
_EPSREL = 1e-10
_MAX_PANELS = 200
#: table points of a panel of a sampled trajectory, on [-1, 1], and
#: their distances from the panel's start in half widths
_GRID = np.linspace(-1.0, 1.0, _SAMPLES)
_GRID_FROM_START = 1.0 + _GRID


@functools.cache
def _rule():
    """The quadrature's 20-point Gauss-Legendre weights on [-1, 1]; its
    nodes as fractions of a panel, for the panel and for its first and
    second halves; and the matrices that map I/M at the nodes to the
    polynomial through them and to that polynomial's integral from -1,
    at each point of _GRID.  Built on first use: importing the package
    does not load numpy.polynomial."""
    from numpy.polynomial import legendre
    nodes, weights = legendre.leggauss(20)
    parts = np.stack([(1.0 + nodes) / 2, (1.0 + nodes) / 4,
                      (3.0 + nodes) / 4])
    to_legendre = np.linalg.inv(legendre.legvander(nodes, nodes.size - 1))
    interpolate = legendre.legvander(_GRID, nodes.size - 1) @ to_legendre
    integrate = legendre.legval(_GRID, legendre.legint(
        np.eye(nodes.size), lbnd=-1)).T @ to_legendre
    return weights, parts, interpolate, integrate


def _linspace(start, stop, num):
    """np.linspace(start, stop, num) for float ends and num >= 2, bit for
    bit, its tiny-step branch included, without its dispatch cost."""
    div = num - 1
    delta = stop - start
    y = np.arange(num, dtype=float)
    step = delta / div
    if step == 0:
        # a step that underflows: scale by the width after the division
        y /= div
        y *= delta
    else:
        y *= step
    y += start
    y[-1] = stop
    return y


def _first_crossing(f, x, y):
    """First point on the way along the even samples x, y = f(x) where
    f >= 0, or None: false position on plain floats refines the first
    sign change to 1e-14 of the sampled span."""
    hits = np.flatnonzero(y >= 0)
    if not hits.size:
        return None
    i = hits[0]
    if i == 0 or y[i] == 0:
        return float(x[i])
    a, b, fa, fb = float(x[i - 1]), float(x[i]), float(y[i - 1]), float(y[i])
    xtol = max(1e-14 * abs(x[-1] - x[0]),
               4.0 * math.ulp(max(abs(x[0]), abs(x[-1]))))
    kept = 0
    while abs(b - a) > xtol:
        # a step of at least xtol / 2 from either end, so that the bracket
        # closes once the secant has found the crossing
        lo, hi = min(a, b) + 0.5 * xtol, max(a, b) - 0.5 * xtol
        c = min(max(b - fb * (b - a) / (fb - fa), lo), hi)
        if c != c:      # a NaN sample: bisect
            c = 0.5 * (a + b)
        fc = f(c)
        # Illinois rule: an end kept twice in a row has its value halved,
        # so both ends close in
        if fc >= 0:
            b, fb = c, fc
            fa = 0.5 * fa if kept == 1 else fa
            kept = 1
        else:
            a, fa = c, fc
            fb = 0.5 * fb if kept == -1 else fb
            kept = -1
    return b


@dataclass(frozen=True)
class RigidBodyParams:
    """Mechanical data of the spinning particle.

    Only the moment of inertia is required; the surface tension, which
    needs the radius, switches on the burst termination check, and the
    melting temperature the melt check, when present.
    """

    moment_of_inertia: float            # g cm^2
    radius: float | None = None         # cm
    melting_temperature: float | None = None  # K
    surface_tension: float | None = None      # erg/cm^2

    def __post_init__(self):
        if not self.moment_of_inertia > 0:
            raise ValueError("moment_of_inertia must be positive")
        for name in ("radius", "melting_temperature", "surface_tension"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive when given")
        if self.surface_tension is not None and self.radius is None:
            raise ValueError("surface_tension needs a radius: the burst "
                             "estimate uses both")

    @classmethod
    def solid_sphere(cls, mass_density, radius, melting_temperature=None,
                     surface_tension=None):
        """Homogeneous sphere, I = (2/5) m R^2 = (8/15) pi rho R^5."""
        i_mom = 8.0 * np.pi / 15.0 * mass_density * radius**5
        return cls(i_mom, radius, melting_temperature, surface_tension)

    @classmethod
    def thin_rod(cls, mass, length, melting_temperature=None):
        """Thin rod about its center, I = m L^2 / 12."""
        return cls(mass * length**2 / 12.0,
                   melting_temperature=melting_temperature)


@dataclass(frozen=True)
class ThermalParams:
    """Six-power radiative cooling: P_rad = C_rad (T^6 - T0^6)."""

    ambient_temperature: float      # K
    radiative_coefficient: float    # erg/(s K^6)

    def __post_init__(self):
        if not self.ambient_temperature >= 0:
            raise ValueError("ambient_temperature must be non-negative")
        if not self.radiative_coefficient > 0:
            raise ValueError("radiative_coefficient must be positive")


class SpinUpTrajectory(NamedTuple):
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
    """T_eq = (T0^6 + P/C_rad)^(1/6); exactly T0 at zero power, and never
    below T0: a power too small to move T0^6 must not round the sixth
    root under it.

    Takes a point (a Python or numpy scalar, or a 0-d array), which
    returns a float, or an array, which returns an array.  Raises
    ValueError where a power is negative or NaN; an infinite power gives
    an infinite temperature.
    """
    t0 = thermal.ambient_temperature
    c_rad = thermal.radiative_coefficient
    if not _is_array(absorbed_power):
        p = float(absorbed_power)
        if p == 0.0:
            return float(t0)
        ratio = p / c_rad
        if p > 0.0 and ratio < math.inf:
            # libm's pow: numpy's pow of an array may round the last bit
            # apart from it
            return float(max((t0**6 + ratio) ** (1.0 / 6.0), t0))
        # a negative or NaN power raises, and an overflowing ratio takes
        # the array route's branch
        return float(equilibrium_temperature(thermal, np.array([p]))[0])
    p = np.asarray(absorbed_power, dtype=float)
    if not np.all(p >= 0):
        raise ValueError("absorbed_power must be non-negative, not NaN")
    with np.errstate(over="ignore"):
        ratio = p / c_rad
    # zero-power shortcut: (T0^6)^(1/6) would lose the last bit
    out = np.where(p == 0.0, t0, np.maximum((t0**6 + ratio) ** (1.0 / 6.0),
                                            t0))
    huge = np.isinf(ratio)
    if huge.any():
        # P/C_rad beyond a double: T = r (1 + (T0/r)^6)^(1/6) with
        # r = (P/C_rad)^(1/6) taken root by root
        r = p[huge] ** (1.0 / 6.0) / c_rad ** (1.0 / 6.0)
        out[huge] = r * (1.0 + (t0 / r) ** 6) ** (1.0 / 6.0)
    return out


def absorbed_power(sigma_abs, intensity):
    """P = sigma_abs * I at a point or an array of points; raises
    OverflowError where P is too large for a double."""
    if type(sigma_abs) is float and type(intensity) is float:
        power = sigma_abs * intensity
        overflow = math.isinf(power)
    else:
        with np.errstate(over="ignore"):
            power = sigma_abs * intensity
        overflow = np.isinf(power).any()
    if overflow:
        raise OverflowError("the absorbed power sigma_abs * I overflows a "
                            "double")
    return power


def centrifugal_burst_frequency(body: RigidBodyParams):
    """Omega at which rotational energy reaches the surface energy.

    (1/2) I Omega^2 = 4 pi R^2 sigma; for the solid-sphere inertia this
    is sqrt(15 sigma / (rho R^3)).  Order-of-magnitude by construction.
    """
    if body.surface_tension is None:     # a body with it has a radius
        raise ValueError("burst estimate needs radius and surface_tension")
    surface_energy = 4.0 * np.pi * body.radius**2 * body.surface_tension
    return math.sqrt(2.0 * surface_energy / body.moment_of_inertia)


def spin_up_trajectory(model: OscillatorModel, drive: DriveField,
                       body: RigidBodyParams, Omega_init, Omega_target,
                       max_time=None, thermal: ThermalParams | None = None,
                       n_samples=200) -> SpinUpTrajectory:
    """Spin-up under dOmega/dt = M(Omega)/I from Omega_init toward
    Omega_target, sampled at ``n_samples`` evenly spaced times.

    The run ends at the first of the target, the melting point (given
    ``thermal`` and a melting temperature) and the burst (given surface
    data), after ``time_to_target_by_quadrature``; or at ``max_time``
    (default: no cap) as "max-time"; one that ends at once holds
    ``n_samples`` samples of (0, Omega_init).  Raises
    ``UnreachableTargetError`` when the torque stalls the rotation first,
    or turns it away from the target at Omega_init.
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
    if body.surface_tension is not None:
        burst_at = max(centrifugal_burst_frequency(body), Omega_init)
        if burst_at < Omega_end:
            Omega_end, outcome = burst_at, "burst"
    if thermal is not None and body.melting_temperature is not None:
        intensity = drive.intensity(model.light_speed)

        def overheat(Om):
            return equilibrium_temperature(thermal, absorbed_power(
                absorption_cross_section(model, drive, Om), intensity)
            ) - body.melting_temperature
        samples = _linspace(Omega_init, Omega_end, _SAMPLES)
        melt_at = _first_crossing(overheat, samples, overheat(samples))
        if melt_at is not None and melt_at < Omega_end:
            Omega_end, outcome = melt_at, "melt"
    if Omega_end == Omega_init:
        return SpinUpTrajectory(np.zeros(n_samples),
                                np.full(n_samples, float(Omega_init)), outcome)

    start, width, dt_dOmega, t = _time_table(model, drive, body, Omega_end,
                                              Omega_init, Omega_target)
    t_end = t[-1]
    t_stop = t_end if max_time is None else min(t_end, max_time)
    outcome = "max-time" if t_stop < t_end else outcome

    # each panel's polynomial through I/M at its nodes gives t(Omega) and
    # the slope dOmega/dt at _SAMPLES points, inverted by the cubic
    # Hermite interpolant on that table; a panel's last point is the next
    # one's first
    _, _, interpolate, integrate = _rule()
    half = 0.5 * width[:, None]
    n = width.size * (_SAMPLES - 1) + 1
    knots, Om, slope = np.empty(n), np.empty(n), np.empty(n)
    rows = (width.size, _SAMPLES - 1)
    np.add(t[:-1, None], (half * (dt_dOmega @ integrate.T))[:, :-1],
           out=knots[:-1].reshape(rows))
    knots[-1] = t_end
    np.add(start[:, None], half * _GRID_FROM_START[:-1],
           out=Om[:-1].reshape(rows))
    Om[-1] = Omega_end
    slope[:-1].reshape(rows)[...] = (dt_dOmega @ interpolate.T)[:, :-1]
    slope[-1] = dt_dOmega[-1] @ interpolate[-1]
    np.divide(1.0, slope, out=slope)
    times = _linspace(0.0, t_stop, n_samples)
    # knots[0] is 0.0, integrate's first row being zeros, so only a time
    # at t_end needs the cap
    i = np.minimum(np.searchsorted(knots, times, "right") - 1, n - 2)
    j = i + 1
    k = knots[i]
    h = knots[j] - k
    s = (times - k) / h
    ss, rr = s * s, (1.0 - s) ** 2
    rotation = ((1.0 + 2.0 * s) * rr * Om[i]
                + s * rr * h * slope[i]
                + ss * (3.0 - 2.0 * s) * Om[j]
                + ss * (s - 1.0) * h * slope[j])
    if outcome != "max-time":
        rotation[-1] = Omega_end
    return SpinUpTrajectory(times, rotation, outcome)


def time_to_target_by_quadrature(model, drive, body, Omega_target,
                                 Omega_init=0.0) -> float:
    """Spin-up time t = integral of I_mom dOmega / M(Omega), the duration
    of every ``spin_up_trajectory``; zero when already at the target.

    Raises ``ValueError`` when a bound is not finite,
    ``UnreachableTargetError`` when the torque stalls the rotation on the
    way or turns it away from the target at Omega_init, and
    ``RuntimeError`` when the adaptive quadrature fails.
    """
    # (inf, inf) is no zero span: _time_table rejects it
    if Omega_target == Omega_init and math.isfinite(Omega_init):
        return 0.0
    return float(_time_table(model, drive, body, Omega_target,
                             Omega_init, Omega_target)[-1][-1])


def _time_table(model, drive, body, Omega_end, Omega_init, Omega_target):
    """Adaptive Gauss-Legendre quadrature of I_mom / M from Omega_init to a
    different Omega_end, where the run toward Omega_target ends (its
    errors name Omega_target): its panels' starts and widths in order,
    I_mom / M at their nodes, and the time at every panel edge, the last
    being the spin-up time.

    Each round evaluates every open panel and its two halves in one
    broadcast torque call, the first one also the stall search's
    samples, and their Gauss sums in one matmul.  Each open panel is
    replaced where it stands in the list of panels: by its two halves,
    done when their sum agrees with the whole within _EPSREL relative,
    open otherwise.  So the list stays in span order without a sort.
    That bookkeeping, the panel count and the running time sum run on
    Python floats, and the arrays are built once, at the end.
    """
    if not (math.isfinite(Omega_end) and math.isfinite(Omega_init)):
        raise ValueError("Omega_target and Omega_init must be finite")
    weights, parts, _, _ = _rule()
    lo, width = float(Omega_init), float(Omega_end - Omega_init)
    samples = _linspace(Omega_init, Omega_end, _SAMPLES)
    M = torque(model, drive, np.concatenate((samples,
                                             (lo + width * parts).ravel())))
    direction = 1.0 if width > 0 else -1.0
    if -direction * M[0] > 0:
        raise UnreachableTargetError(
            f"the torque at Omega_init = {Omega_init:.6g} turns the rotation "
            f"away from Omega_target = {Omega_target:.6g}")
    stall = _first_crossing(lambda Om: -direction * torque(model, drive, Om),
                            samples, -direction * M[:_SAMPLES])
    if stall is not None:
        raise UnreachableTargetError(
            f"the torque stalls the rotation at Omega = {stall:.6g}, short "
            f"of Omega_target = {Omega_target:.6g}")
    M = M[_SAMPLES:].reshape(1, *parts.shape)
    # the panels in span order: an open one as (start, width), a done half
    # as (start, width, I/M at its nodes as a 1 x 20 row, time)
    panels = [(lo, width)]
    while True:
        with np.errstate(all="ignore"):
            f = body.moment_of_inertia / M
            sums = zip(f, (f @ weights).tolist())
        table = []
        for panel in panels:
            if len(panel) == 4:
                table.append(panel)
                continue
            lo, width = panel
            row, (whole, first, second) = next(sums)
            half, quarter = 0.5 * width, width * 0.25
            first, second = first * quarter, second * quarter
            # a panel whose time is not finite is done too, and the range
            # check below rejects the sum
            if (abs(whole * half - first - second)
                    > _EPSREL * abs(first + second)):
                table += (lo, half), (lo + half, half)
            else:
                # + width * 0.0: a start at -0.0 reads +0.0 on the way up
                # and -0.0 on the way down
                table += ((lo + width * 0.0, half, row[1:2], first),
                          (lo + half, half, row[2:], second))
        panels = table
        opened = [panel for panel in panels if len(panel) == 2]
        if not opened:
            break
        if len(panels) > _MAX_PANELS:
            raise RuntimeError(
                f"spin-up quadrature failed: {_MAX_PANELS} panels do not "
                f"reach a relative error of {_EPSREL:g}")
        lo, width = np.array(opened).T
        M = torque(model, drive,
                   lo[:, None, None] + width[:, None, None] * parts)
    start, width, f, q = zip(*panels)
    t = [0.0, *itertools.accumulate(q)]
    if not 0 < t[-1] < math.inf:
        raise RuntimeError("spin-up quadrature failed: time out of double "
                           "range")
    return np.array(start), np.array(width), np.concatenate(f), np.array(t)
