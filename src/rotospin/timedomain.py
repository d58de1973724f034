"""Brute-force time-domain check of the closed-form response.

Integrates the radial equation of motion of the bead on its rotating rod
directly, from rest, with the radiation-reaction term switched off
(``tau`` must be zero: the third-derivative term turns the initial value
problem ill-posed).  After the transient has died the torque and the
dissipated power are averaged over a window commensurate with both beat
periods and compared against the closed forms by the callers.  The
equation is linear, ``y' = A y + f(t)`` in the state ``y = (u, u')``, so
both phases run on a 4-stage Gauss-Legendre collocation whose step is the
affine map ``y -> M y + g(f at the stages)``; the averages are the Gauss
sums over the stage states.

Everything here is deliberately independent of :mod:`rotospin.response`:
the forcing is written in the lab frame and projected onto the rotating
rod axis, and the torque is accumulated as the angular-momentum budget
``u*e_phi - 2*Omega*u*u'`` rather than through any helicity algebra.

Works in units where the charge-to-mass ratio is one; both reported
averages carry the coupling ``Q^2/m`` as an overall factor, which makes
them independent of that choice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: stages of the collocation, and steps whose forcing is built at once
_STAGES = 4
_BLOCK = 1024
#: the longest step, times the highest frequency in play
_STEP = 0.25
# the transient is skipped for this many 1/gamma: leftover amplitude exp(-25)
_SETTLE_FACTOR = 50.0
# largest denominator accepted for the ratio omega/Omega
_MAX_DENOMINATOR = 1000


@dataclass(frozen=True)
class TimeDomainAverages:
    """Period-averaged observables from direct integration."""

    torque: float            # erg
    absorbed_power: float    # erg/s
    settle_time: float       # s, transient skipped before averaging
    window: float            # s, averaging window (integer beat periods)


def _averaging_window(omega, Omega):
    """Half the common period of all product harmonics.

    The steady displacement oscillates at ``omega +/- Omega``; every
    quadratic observable therefore contains the harmonics 0, 2*Omega,
    2*omega and 2*(omega +/- Omega).  If omega/Omega = p/q (reduced),
    all of them are even multiples of g = Omega/q, and a window of
    pi/g integrates each oscillatory term to exactly zero.
    """
    if omega == 0 and Omega == 0:
        raise ValueError("static drive: nothing to average over")
    if Omega == 0:
        return np.pi / abs(omega)
    if omega == 0:
        return np.pi / abs(Omega)
    ratio = Fraction(abs(omega) / abs(Omega)).limit_denominator(
        _MAX_DENOMINATOR)
    approx = float(ratio) * abs(Omega)
    if abs(approx - abs(omega)) > 1e-9 * abs(omega):
        raise ValueError(
            "omega/Omega is not a small rational; pick commensurate "
            "frequencies for the time-domain check")
    g = abs(Omega) / ratio.denominator
    return np.pi / g


@functools.cache
def _tableau():
    """Nodes c, matrix a and weights b of the Gauss-Legendre collocation
    on the unit step.  Built on first use: importing the package does
    not load numpy.polynomial."""
    from numpy.polynomial import legendre
    x, w = legendre.leggauss(_STAGES)
    a = legendre.legval(x, legendre.legint(np.eye(_STAGES), lbnd=-1)).T
    return ((1.0 + x) / 2.0,
            a @ np.linalg.inv(legendre.legvander(x, _STAGES - 1)) / 2.0,
            w / 2.0)


def force_law_averages(model, drive, Omega) -> TimeDomainAverages:
    """Integrate the force law from rest and average torque and power.

    Requires ``tau == 0`` and ``gamma > 0`` (the transient must decay),
    and ``Omega**2 < omega0**2`` so the co-rotating effective spring
    stays stable.  The transient is skipped for 50/gamma seconds.
    """
    if model.radiative_time != 0:
        raise ValueError("time-domain route handles tau = 0 only")
    gamma = model.damping_rate
    if gamma <= 0:
        raise ValueError("gamma must be positive for the transient to decay")
    w0 = model.natural_frequency
    if Omega**2 >= w0**2:
        raise ValueError("|Omega| >= omega0: the co-rotating spring is "
                         "inverted and the motion from rest diverges")

    omega = float(drive.frequency)
    Omega = float(Omega)
    ex = complex(drive.amplitude_x)
    ey = complex(drive.amplitude_y)
    system = np.array([[0.0, 1.0], [Omega**2 - w0**2, -gamma]])
    h_max = _STEP / max(w0, abs(omega) + abs(Omega))
    nodes, a, b = _tableau()

    def advance(phase, y, t0, t1):
        # an integer count of steps, so that the phase ends exactly at t1.
        # With e the forcing at a step's stages, its stage states are
        # k_y y + k_e e, and its end state is M y + e forced, M = (m_ij)
        n = math.ceil((t1 - t0) / h_max)
        h = (t1 - t0) / n
        solve = np.linalg.inv(np.eye(2 * _STAGES) - h * np.kron(a, system))
        k_y = solve @ np.tile(np.eye(2), (_STAGES, 1))
        k_e = h * solve[:, 1::2] @ a
        rate = h * np.kron(b, system)
        (m00, m01), (m10, m11) = (np.eye(2) + rate @ k_y).tolist()
        forced = (rate @ k_e + h * np.outer([0.0, 1.0], b)).T
        u, v = y
        j_torque = j_power = 0.0
        for first in range(0, n, _BLOCK):
            t = t0 + h * (np.arange(first, min(first + _BLOCK, n))[:, None]
                          + nodes)
            # lab field projected on (rho_hat, phi_hat) of the rotating rod
            c, s = np.cos(Omega * t), np.sin(Omega * t)
            ph = np.exp(-1j * omega * t)
            e_rho = 2.0 * ((ex * c + ey * s) * ph).real
            starts = []
            for g0, g1 in (e_rho @ forced).tolist():
                starts.append((u, v))
                u, v = m00 * u + m01 * v + g0, m10 * u + m11 * v + g1
            if phase == "averaging":
                # Gauss sums of the torque budget and the dissipated power
                e_phi = 2.0 * ((-ex * s + ey * c) * ph).real
                stages = np.array(starts) @ k_y.T + e_rho @ k_e.T
                su, sv = stages[:, 0::2], stages[:, 1::2]
                j_torque += h * float(np.sum(
                    (su * e_phi - 2.0 * Omega * su * sv) @ b))
                j_power += h * gamma * float(np.sum((sv * sv) @ b))
            # the averages are quadratic in the state: its square must fit
            if not math.isfinite(u * u + v * v + j_torque + j_power):
                raise RuntimeError(
                    f"{phase} integration failed: state or averages not "
                    f"finite near t = {float(t[-1, -1]):.6g}")
        return (u, v), j_torque, j_power

    t_settle = _SETTLE_FACTOR / gamma
    window = _averaging_window(omega, Omega)
    y, _, _ = advance("transient", (0.0, 0.0), 0.0, t_settle)
    _, j_torque, j_power = advance("averaging", y, t_settle,
                                   t_settle + window)

    K = model.coupling
    return TimeDomainAverages(torque=K * j_torque / window,
                              absorbed_power=K * j_power / window,
                              settle_time=t_settle,
                              window=window)
