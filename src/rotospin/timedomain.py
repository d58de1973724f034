"""Brute-force time-domain check of the closed-form response.

Integrates the radial equation of motion of the bead on its rotating rod
directly, from rest, with the radiation-reaction term switched off
(``tau`` must be zero: the third-derivative term turns the initial value
problem ill-posed).  After the transient has died the torque and the
dissipated power are averaged over a window commensurate with both beat
periods and compared against the closed forms by the callers.  Both
phases run on Hairer's compiled DOP853 through ``scipy.integrate.ode``,
with a right-hand side in plain Python floats.

Everything here is deliberately independent of :mod:`rotospin.response`:
the forcing is written in the lab frame and projected onto the rotating
rod axis, and the torque is accumulated as the angular-momentum budget
``u*e_phi - 2*Omega*u*u'`` rather than through any helicity algebra.

Works in units where the charge-to-mass ratio is one; both reported
averages carry the coupling ``Q^2/m`` as an overall factor, which makes
them independent of that choice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# DOP853 steps allowed per phase: the transient of the gamma = 0.1
# reference case takes about 2300, and one at gamma = 1e-3 about 2e5
_MAX_STEPS = 10**7
_RTOL, _ATOL = 1e-11, 1e-13
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


def _dop853(phase, rhs, y0, t0, t1):
    """Integrate ``rhs`` from ``(t0, y0)`` to ``t1``; return the end state.

    Each call builds its own ``ode`` and finishes it before returning:
    SciPy's wrapped Fortran solvers are not promised to be re-entrant.
    """
    from scipy.integrate import ode

    r = ode(rhs).set_integrator("dop853", rtol=_RTOL, atol=_ATOL,
                                nsteps=_MAX_STEPS)
    r.set_initial_value(y0, t0)
    y = r.integrate(t1)
    if not r.successful():
        raise RuntimeError(f"{phase} integration failed: dop853 return "
                           f"code {r.get_return_code()}")
    return y.tolist()


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
    spring = Omega**2 - w0**2

    def rod_field(t):
        # lab field projected on (rho_hat, phi_hat) of the rotating rod
        c, s = math.cos(Omega * t), math.sin(Omega * t)
        ph = cmath.exp(-1j * omega * t)
        e_rho = 2.0 * ((ex * c + ey * s) * ph).real
        e_phi = 2.0 * ((-ex * s + ey * c) * ph).real
        return e_rho, e_phi

    def transient(t, y):
        u, v = y.tolist()
        e_rho, _ = rod_field(t)
        return [v, spring * u - gamma * v + e_rho]

    def settled(t, y):
        u, v, _, _ = y.tolist()
        e_rho, e_phi = rod_field(t)
        return [v,
                spring * u - gamma * v + e_rho,
                u * e_phi - 2.0 * Omega * u * v,
                gamma * v * v]

    t_settle = _SETTLE_FACTOR / gamma
    window = _averaging_window(omega, Omega)
    u0, v0 = _dop853("transient", transient, [0.0, 0.0],
                     0.0, t_settle)
    _, _, j_torque, j_power = _dop853("averaging", settled,
                                      [u0, v0, 0.0, 0.0], t_settle,
                                      t_settle + window)

    K = model.coupling
    return TimeDomainAverages(torque=K * j_torque / window,
                              absorbed_power=K * j_power / window,
                              settle_time=t_settle,
                              window=window)
