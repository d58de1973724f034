"""Brute-force time-domain check of the closed-form response.

Integrates the radial equation of motion of the bead on its rotating rod
directly, from rest, with the radiation-reaction term switched off
(``tau`` must be zero: the third-derivative term turns the initial value
problem ill-posed).  After the transient has died the torque and the
dissipated power are averaged over a window commensurate with both beat
periods and compared against the closed forms by the callers.

Everything here is deliberately independent of :mod:`rotospin.response`:
the forcing is written in the lab frame and projected onto the rotating
rod axis, and the torque is accumulated as the angular-momentum budget
``u*e_phi - 2*Omega*u*u'`` rather than through any helicity algebra.

Works in units where the charge-to-mass ratio is one; both reported
averages carry the coupling ``Q^2/m`` as an overall factor, which makes
them independent of that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class TimeDomainAverages:
    """Period-averaged observables from direct integration."""

    torque: float            # erg
    absorbed_power: float    # erg/s
    settle_time: float       # s, transient skipped before averaging
    window: float            # s, averaging window (integer beat periods)


def _averaging_window(omega, Omega, max_denominator=1000):
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
    ratio = Fraction(abs(omega) / abs(Omega)).limit_denominator(max_denominator)
    if ratio == 0:
        raise ValueError("drive and rotation frequencies are incommensurate "
                         "at the requested precision")
    approx = float(ratio) * abs(Omega)
    if abs(approx - abs(omega)) > 1e-9 * abs(omega):
        raise ValueError(
            "omega/Omega is not a small rational; pick commensurate "
            "frequencies for the time-domain check")
    g = abs(Omega) / ratio.denominator
    return np.pi / g


def force_law_averages(model, drive, Omega, settle_factor=50.0,
                       rtol=1e-11, atol=1e-13) -> TimeDomainAverages:
    """Integrate the force law from rest and average torque and power.

    Requires ``tau == 0`` and ``gamma > 0`` (the transient must decay),
    and ``Omega**2 < omega0**2`` so the co-rotating effective spring
    stays stable.  The transient is skipped for ``settle_factor/gamma``
    seconds; with the default 50 the leftover amplitude is exp(-25).
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

    omega = drive.frequency
    ex = complex(drive.amplitude_x)
    ey = complex(drive.amplitude_y)
    spring = Omega**2 - w0**2

    def rod_field(t):
        # lab field projected on (rho_hat, phi_hat) of the rotating rod
        c, s = np.cos(Omega * t), np.sin(Omega * t)
        ph = np.exp(-1j * omega * t)
        e_rho = 2.0 * ((ex * c + ey * s) * ph).real
        e_phi = 2.0 * ((-ex * s + ey * c) * ph).real
        return e_rho, e_phi

    def transient(t, y):
        u, v = y
        e_rho, _ = rod_field(t)
        return (v, spring * u - gamma * v + e_rho)

    def settled(t, y):
        u, v = y[0], y[1]
        e_rho, e_phi = rod_field(t)
        return (v,
                spring * u - gamma * v + e_rho,
                u * e_phi - 2.0 * Omega * u * v,
                gamma * v * v)

    t_settle = settle_factor / gamma
    window = _averaging_window(omega, Omega)
    from scipy.integrate import solve_ivp

    sol1 = solve_ivp(transient, (0.0, t_settle), [0.0, 0.0],
                     method="DOP853", rtol=rtol, atol=atol)
    if not sol1.success:
        raise RuntimeError(f"transient integration failed: {sol1.message}")
    u0, v0 = sol1.y[0, -1], sol1.y[1, -1]

    sol2 = solve_ivp(settled, (t_settle, t_settle + window),
                     [u0, v0, 0.0, 0.0],
                     method="DOP853", rtol=rtol, atol=atol)
    if not sol2.success:
        raise RuntimeError(f"averaging integration failed: {sol2.message}")
    j_torque, j_power = sol2.y[2, -1], sol2.y[3, -1]

    K = model.coupling
    return TimeDomainAverages(torque=K * j_torque / window,
                              absorbed_power=K * j_power / window,
                              settle_time=t_settle,
                              window=window)
