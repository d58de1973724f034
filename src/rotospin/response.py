"""Closed-form optical response of a harmonically bound charge spinning
about a transverse axis.

The particle is a damped oscillator of coupling strength ``Q^2/m``,
natural frequency ``omega0`` and friction rate ``gamma``, constrained to
oscillate along a rod axis that rotates with angular frequency ``Omega``
about z.  Monochromatic light enters as ``E(t) = (Ex, Ey) e^{-i w t} +
c.c.`` with intensity ``I = (c/2pi)|E|^2`` (Gaussian-CGS throughout).

Conventions worth pinning down, since they vary across texts:

* circular components are ``E_pm = Ex +/- i*Ey``; left circular
  polarization (LCP) means ``E_plus == 0``.  Use the ``DriveField``
  constructors rather than guessing signs.
* drive frequency ``w`` and rotation frequency ``Omega`` are signed;
  every formula below is well defined for negative values.
* radiation reaction enters through the damping time ``tau``.  In a
  physical model ``tau = 2*(Q^2/m)/(3 c^3)``; a normalized model
  (omega0 = c = Q^2/m = 1) treats ``tau`` as a free small parameter.
  All scattered-power prefactors are therefore written as
  ``(Q^2/mc)*(tau/2)`` instead of ``Q^4/(3 m^2 c^4)`` so that the power
  balance among the partial cross sections closes exactly in both modes.

The torque and the cross sections evaluate a point or arrays.  A point,
where ``Omega`` and the drive frequency are both scalars (Python or
numpy, or 0-d arrays), is evaluated in plain Python floats.  It raises
:class:`ValueError` for a non-finite ``Omega``,
:class:`SingularResonanceError` when a response denominator vanishes
exactly (see that class for when this happens), and
:class:`OverflowError` when a result is too large for a double.  A call
where either operand is an array broadcasts the two in numpy, a scalar
operand included, without warnings: singular cells carry NaN and
overflowing cells inf or NaN, and grid code is expected to mask them.
:func:`static_polarizability` takes a point or an array of drive
frequencies in the same way.  :func:`induced_dipole_spectrum` and
:func:`radial_ode_residual` take one point only: an array drive frequency
or ``Omega`` raises numpy's :class:`TypeError`.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

#: speed of light in vacuum, cm/s
SPEED_OF_LIGHT = 2.99792458e10


class SingularResonanceError(ValueError):
    """A response denominator is exactly zero: no bounded steady state.

    Happens in two situations.  With gamma = tau = 0 the denominators
    vanish anywhere on the resonance ellipse Omega^2 + (omega -/+
    Omega)^2 = omega0^2.  Independently of damping, the single point
    omega = +/-Omega with |Omega| = omega0 is singular too: there the
    co-rotating drive component is static in the rotating frame, every
    damping term carries a factor omega -/+ Omega, and the effective
    spring omega0^2 - Omega^2 is gone, so the displacement grows without
    bound.
    """


_SINGULAR_MSG = ("response denominator vanishes (gamma = tau = 0 on the "
                 "resonance ellipse, or omega = +/-Omega at |Omega| = "
                 "omega0); no bounded steady state exists there")


def _is_array(x):
    return isinstance(x, np.ndarray) and x.ndim > 0


@dataclass(frozen=True)
class OscillatorModel:
    """Effective spring parameters of the rotating particle.

    Attributes:
        coupling: Q^2/m (cm^3/s^2 in CGS).
        natural_frequency: omega0 (rad/s).
        damping_rate: intrinsic friction gamma (rad/s).
        radiative_time: radiation-reaction time tau (s).
        light_speed: c (cm/s); 1.0 in normalized mode.
    """

    coupling: float
    natural_frequency: float
    damping_rate: float
    radiative_time: float
    light_speed: float = SPEED_OF_LIGHT

    def __post_init__(self):
        for name in ("coupling", "natural_frequency", "damping_rate",
                     "radiative_time", "light_speed"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            # plain floats keep a point's arithmetic out of numpy
            object.__setattr__(self, name, float(getattr(self, name)))
        if not self.coupling > 0:
            raise ValueError("coupling must be positive")
        if not self.natural_frequency > 0:
            raise ValueError("natural_frequency must be positive")
        if self.damping_rate < 0:
            raise ValueError("damping_rate must be non-negative")
        if self.radiative_time < 0:
            raise ValueError("radiative_time must be non-negative")
        if not self.light_speed > 0:
            raise ValueError("light_speed must be positive")

    @classmethod
    def physical(cls, coupling, natural_frequency, damping_rate,
                 light_speed=SPEED_OF_LIGHT):
        """Model with the radiative time tied to the coupling,
        tau = (2/3) (Q^2/m) / c^3."""
        try:
            c3 = float(light_speed)**3
        except OverflowError:
            raise ValueError("light_speed is too large: its cube overflows "
                             "a double") from None
        if not c3 > 0:
            raise ValueError("light_speed must be positive, and its cube "
                             "must not underflow to 0")
        tau = 2.0 * coupling / (3.0 * c3)
        return cls(coupling, natural_frequency, damping_rate, tau, light_speed)

    @classmethod
    def normalized(cls, damping_rate, radiative_time=0.0,
                   natural_frequency=1.0, coupling=1.0, light_speed=1.0):
        """Dimensionless model (omega0 = c = Q^2/m = 1 by default) with a
        freely chosen radiative time."""
        return cls(coupling, natural_frequency, damping_rate,
                   radiative_time, light_speed)

    @property
    def scattering_prefactor(self) -> float:
        # pi*(Q^2/mc)*(tau/2); equals pi*Q^4/(3 m^2 c^4) when tau is linked
        return np.pi * self.coupling / self.light_speed * self.radiative_time / 2.0


@dataclass(frozen=True)
class DriveField:
    """Monochromatic plane-wave drive.

    ``frequency`` is the signed angular frequency (rad/s); amplitudes are
    the complex Cartesian components in statvolt/cm.  ``frequency`` may be
    an array for vectorized sweeps; the amplitudes stay scalar.
    """

    frequency: float
    amplitude_x: complex
    amplitude_y: complex

    def __post_init__(self):
        w = self.frequency
        if not ((np.isfinite(w).all() if isinstance(w, np.ndarray)
                 else math.isfinite(w))
                and cmath.isfinite(self.amplitude_x)
                and cmath.isfinite(self.amplitude_y)):
            raise ValueError("drive frequency and amplitudes must be finite")
        for name in ("amplitude_x", "amplitude_y"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @classmethod
    def lcp(cls, frequency, amplitude=1.0):
        """Left circular polarization: E_plus = 0."""
        a = amplitude / np.sqrt(2.0)
        return cls(frequency, complex(a), 1j * a)

    @classmethod
    def rcp(cls, frequency, amplitude=1.0):
        """Right circular polarization: E_minus = 0."""
        a = amplitude / np.sqrt(2.0)
        return cls(frequency, complex(a), -1j * a)

    @classmethod
    def linear(cls, frequency, amplitude=1.0, angle=0.0):
        """Linear polarization at ``angle`` from x, real amplitudes."""
        return cls(frequency, complex(amplitude * np.cos(angle)),
                   complex(amplitude * np.sin(angle)))

    @property
    def e_plus(self) -> complex:
        return self.amplitude_x + 1j * self.amplitude_y

    @property
    def e_minus(self) -> complex:
        return self.amplitude_x - 1j * self.amplitude_y

    @property
    def field_norm_sq(self) -> float:
        """|E|^2 = |Ex|^2 + |Ey|^2."""
        return abs(self.amplitude_x) ** 2 + abs(self.amplitude_y) ** 2

    def intensity(self, light_speed=SPEED_OF_LIGHT) -> float:
        """I = (c/2pi)|E|^2, erg/(s cm^2)."""
        return light_speed / (2.0 * np.pi) * self.field_norm_sq

    def mirrored(self) -> "DriveField":
        """Swap the two circular components (Ey -> -Ey)."""
        return dataclasses.replace(self, amplitude_y=-self.amplitude_y)


class _Shifted:
    """Rotation-shifted drive frequencies."""

    __slots__ = ("plus", "minus", "plus2", "minus2")

    def __init__(self, omega, Omega):
        twice = 2.0 * Omega
        self.plus = omega + Omega
        self.minus = omega - Omega
        self.plus2 = omega + twice
        self.minus2 = omega - twice


def _denominators(model, s, Omega):
    """(d_plus, d_minus) from the shifted frequencies ``s``:
    d_pm = omega0^2 - Omega^2 - w_pm(w_pm + i*gamma)
    - i*tau*w_pm*(w_pm^2 + 3*Omega^2) (rad^2/s^2)."""
    osq = Omega**2
    spring = model.natural_frequency**2 - osq
    osq3 = 3.0 * osq
    gamma = model.damping_rate
    tau = model.radiative_time
    wp, wm = s.plus, s.minus
    return (spring - wp * (wp + 1j * gamma) - 1j * tau * wp * (wp**2 + osq3),
            spring - wm * (wm + 1j * gamma) - 1j * tau * wm * (wm**2 + osq3))


@dataclass(frozen=True)
class CrossSectionSet:
    """The six areas at one (w, Omega) point (cm^2 in physical units)."""

    mechanical: float
    absorption: float
    elastic: float
    inelastic_plus: float    # emission at w + 2*Omega
    inelastic_minus: float   # emission at w - 2*Omega
    extinction: float

    @property
    def balance_residual(self):
        return self.extinction - (self.elastic + self.inelastic_plus
                                  + self.inelastic_minus + self.mechanical
                                  + self.absorption)

    @property
    def balance_scale(self):
        """Sum of the partial channels' magnitudes: the natural unit of
        the balance residual."""
        return (abs(self.elastic) + abs(self.inelastic_plus)
                + abs(self.inelastic_minus) + abs(self.mechanical)
                + abs(self.absorption))

    def as_dict(self) -> dict:
        return {
            "sigma_mech": self.mechanical,
            "sigma_abs": self.absorption,
            "sigma_elastic": self.elastic,
            "sigma_in_plus": self.inelastic_plus,
            "sigma_in_minus": self.inelastic_minus,
            "sigma_ext": self.extinction,
        }


def _weights(model, drive, Omega, e2=None, point=False):
    """(omega, Omega, s, t_plus, t_minus): the drive and rotation
    frequencies, the shifted frequencies ``s`` and the weighted inverse
    denominators t_pm = |E_pm/E|^2 / |d_pm|^2 (``e2`` = |E|^2, when the
    caller has it).  At a ``point``, where the drive frequency and Omega
    are both scalars, omega and Omega are Python floats and so is every
    result; otherwise both are numpy arrays, and numpy's warnings must be
    off.

    A channel the drive does not excite weighs 0 even on its resonance.
    A point is singular where an excited channel's weight is inf: its
    |d|^2 is zero, or so small that the quotient overflows.  A NaN weight
    is an overflow of the denominator itself, not a resonance.
    """
    if e2 is None:
        e2 = drive.field_norm_sq
    if e2 == 0:
        raise ValueError("drive field has zero amplitude")
    omega = drive.frequency
    if point:
        omega, Omega = float(omega), float(Omega)
        if not math.isfinite(Omega):
            raise ValueError("Omega must be finite")
    else:
        # a scalar operand too: Python's ** raises where numpy gives inf
        omega, Omega = np.asarray(omega, float), np.asarray(Omega, float)
    s = _Shifted(omega, Omega)
    weights = []
    for e, d in zip((drive.e_plus, drive.e_minus),
                    _denominators(model, s, Omega)):
        w = abs(e) ** 2 / e2
        if w == 0.0:
            weights.append(0.0)
            continue
        # re*re, not re**2, which raises at a point: an overflowing |d|^2
        # is inf, and its weight 0
        d2 = d.real * d.real + d.imag * d.imag
        weights.append(math.inf if point and d2 == 0.0 else w / d2)
    return omega, Omega, s, *weights


def _evaluate(formula, model, drive, Omega, e2=None):
    """``formula(model, omega, Omega, s, t_plus, t_minus)`` over the terms
    of ``_weights``.  A point raises at a singular point and where a
    result, or an element of a result tuple, is not finite.  Arrays run
    without warnings; a singular channel's weight becomes NaN, not inf,
    so every downstream product is NaN at singular cells."""
    if _is_array(drive.frequency) or _is_array(Omega):
        with np.errstate(all="ignore"):
            omega, Omega, s, tp, tm = _weights(model, drive, Omega, e2)
            tp, tm = (np.where(np.isinf(t), np.nan, t) for t in (tp, tm))
            return formula(model, omega, Omega, s, tp, tm)
    omega, Omega, s, tp, tm = _weights(model, drive, Omega, e2, point=True)
    if tp == math.inf or tm == math.inf:
        raise SingularResonanceError(_SINGULAR_MSG)
    out = formula(model, omega, Omega, s, tp, tm)
    if not (math.isfinite(out) if type(out) is float
            else all(map(math.isfinite, out))):
        raise OverflowError("a response value overflows a double")
    return out


def _brake(model, s, tp, tm):
    """Helicity sum shared by the torque and sigma_mech."""
    gamma = model.damping_rate
    tau = model.radiative_time
    return (-(gamma * s.plus + tau * s.plus2**3) * tp
            + (gamma * s.minus + tau * s.minus2**3) * tm)


def _torque(model, omega, Omega, s, tp, tm, e2):
    """Torque from the brake; ``e2`` = |E|^2 restores the field strength
    that the weights divide out."""
    return 0.5 * model.coupling * e2 * _brake(model, s, tp, tm)


def _mechanical(model, omega, Omega, s, tp, tm):
    return (np.pi * model.coupling * Omega / model.light_speed
            * _brake(model, s, tp, tm))


def _absorption(model, omega, Omega, s, tp, tm):
    return (np.pi * model.damping_rate * model.coupling / model.light_speed
            * (s.plus**2 * tp + s.minus**2 * tm))


def _elastic(model, omega, Omega, s, tp, tm):
    return model.scattering_prefactor * omega**4 * (tp + tm)


def _inelastic(model, omega, Omega, s, tp, tm):
    pref = model.scattering_prefactor
    return pref * s.plus2**4 * tp, pref * s.minus2**4 * tm


def _extinction(model, omega, Omega, s, tp, tm):
    gamma = model.damping_rate
    tau = model.radiative_time
    osq3 = 3.0 * Omega**2
    return np.pi * model.coupling * omega / model.light_speed * (
        s.plus * (gamma + tau * (s.plus**2 + osq3)) * tp
        + s.minus * (gamma + tau * (s.minus**2 + osq3)) * tm
    )


def _all_channels(*terms):
    return (_mechanical(*terms), _absorption(*terms), _elastic(*terms),
            *_inelastic(*terms), _extinction(*terms))


def torque(model: OscillatorModel, drive: DriveField, Omega):
    """Time-averaged torque about z, erg.

    Positive torque spins the particle up; it changes sign once the
    rotation outruns the drive (both gamma and tau channels contribute).
    """
    e2 = drive.field_norm_sq
    if e2 == 0:
        if _is_array(drive.frequency) or _is_array(Omega):
            return np.zeros(np.broadcast_shapes(np.shape(drive.frequency),
                                                np.shape(Omega)))
        if not math.isfinite(Omega):
            raise ValueError("Omega must be finite")
        return 0.0
    return _evaluate(functools.partial(_torque, e2=e2), model, drive, Omega,
                     e2)


def absorption_cross_section(model, drive, Omega):
    """sigma_abs: proportional to the friction rate gamma; >= 0."""
    return _evaluate(_absorption, model, drive, Omega)


def mechanical_cross_section(model, drive, Omega):
    """sigma_mech = M*Omega/I; sign-indefinite."""
    return _evaluate(_mechanical, model, drive, Omega)


def extinction_cross_section(model, drive, Omega):
    """Net power removed from the beam, as an area; negative extinction
    means the rotating particle amplifies the beam."""
    return _evaluate(_extinction, model, drive, Omega)


def cross_section_set(model, drive, Omega) -> CrossSectionSet:
    """All six cross sections at once, sharing intermediates."""
    return CrossSectionSet(*_evaluate(_all_channels, model, drive, Omega))


def _helicity_amplitudes(model, drive, Omega):
    """(omega, Omega, s, a_plus, a_minus) at one point: the drive and
    rotation frequencies as Python floats, the shifted frequencies ``s``
    and the complex amplitudes a_pm = E_pm/d_pm of the two helicity
    components, in units where Q/m = 1.

    An unexcited channel is 0j even on its resonance.  An excited one
    raises SingularResonanceError where d_pm is zero, or so small that
    E_pm/d_pm is not finite.  An array operand raises numpy's TypeError.
    """
    omega, Omega = float(drive.frequency), float(Omega)
    if not math.isfinite(Omega):
        raise ValueError("Omega must be finite")
    s = _Shifted(omega, Omega)
    amplitudes = []
    for e, d in zip((drive.e_plus, drive.e_minus),
                    _denominators(model, s, Omega)):
        if e == 0:
            amplitudes.append(0j)
        elif d == 0 or not cmath.isfinite(e / d):
            raise SingularResonanceError(_SINGULAR_MSG)
        else:
            amplitudes.append(e / d)
    return omega, Omega, s, *amplitudes


def radial_ode_residual(model, drive, Omega, t):
    """Relative residual of the closed-form displacement in the radial
    equation of motion

        omega0^2 rho - Omega^2 rho + rho'' + gamma rho'
            - tau rho''' + 3 tau Omega^2 rho'  =  (Q/m) E . rho_hat.

    Derivatives are taken analytically term by term (each helicity
    component is a single complex exponential), so this checks the
    algebra of the closed form, not an integrator.  The residual is
    normalized by the sum of the magnitudes of all contributions, making
    10^-16-level output the signature of a correct steady state; Q/m
    multiplies every term and cancels from it.  ``t`` may be an array,
    which returns an array, or a scalar, which runs in Python floats and
    complexes and returns a float; the drive frequency and ``Omega`` are
    one point (an array raises numpy's TypeError).
    """
    _, Omega, s, a_plus, a_minus = _helicity_amplitudes(model, drive, Omega)
    w0sq = model.natural_frequency**2
    gamma = model.damping_rate
    tau = model.radiative_time

    if _is_array(t):
        t, exp = np.asarray(t, dtype=float), np.exp
    else:
        t, exp = float(t), cmath.exp
    lhs = 0.0
    scale = 0.0
    for a, w in ((a_plus, s.plus), (a_minus, s.minus)):
        ph = exp(-1j * w * t)
        rho = (a * ph).real
        rho1 = (-1j * w * a * ph).real
        rho2 = ((-1j * w) ** 2 * a * ph).real
        rho3 = ((-1j * w) ** 3 * a * ph).real
        lhs = lhs + (w0sq * rho - Omega**2 * rho + rho2 + gamma * rho1
                     - tau * rho3 + 3.0 * tau * Omega**2 * rho1)
        scale = scale + abs(a) * (w0sq + Omega**2 + w**2 + gamma * abs(w)
                                  + tau * (abs(w) ** 3
                                           + 3.0 * Omega**2 * abs(w)))
    forcing = ((drive.e_plus * exp(-1j * s.plus * t)).real
               + (drive.e_minus * exp(-1j * s.minus * t)).real)
    scale = scale + (abs(drive.e_plus) + abs(drive.e_minus))
    if scale == 0:
        return 0.0 if type(t) is float else np.zeros_like(t)
    return abs(lhs - forcing) / scale


@dataclass(frozen=True)
class SpectralLine:
    """One emission line: frequency plus the complex (x, y) dipole
    amplitude, convention p(t) = p_tilde e^{-i nu t} + c.c."""

    frequency: float
    amplitude_x: complex
    amplitude_y: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.amplitude_x) ** 2 + abs(self.amplitude_y) ** 2


@dataclass(frozen=True)
class DipoleSpectrum:
    """Induced-dipole spectrum: carrier plus the two rotational sidebands."""

    carrier: SpectralLine        # at w
    upshifted: SpectralLine      # at w + 2*Omega
    downshifted: SpectralLine    # at w - 2*Omega

    def lines(self):
        return self.carrier, self.upshifted, self.downshifted


def induced_dipole_spectrum(model, drive, Omega) -> DipoleSpectrum:
    """Spectral decomposition of the induced dipole Q*rho*rho_hat.

    Rotation splits the response into a carrier at the drive frequency
    and two sidebands shifted by +/- 2*Omega; each sideband is fed by a
    single circular component of the drive.  Takes one (w, Omega) point:
    an array operand raises numpy's TypeError.
    """
    omega, _, s, a_plus, a_minus = _helicity_amplitudes(model, drive, Omega)
    q = model.coupling / 4.0
    carrier = SpectralLine(omega,
                           q * (a_plus + a_minus),
                           -1j * q * (a_plus - a_minus))
    up = SpectralLine(s.plus2, q * a_plus, 1j * q * a_plus)
    down = SpectralLine(s.minus2, q * a_minus, -1j * q * a_minus)
    return DipoleSpectrum(carrier, up, down)


def static_polarizability(model, omega) -> complex:
    """Complex polarizability of the non-rotating particle,
    alpha = (Q^2/m) / (omega0^2 - w(w + i*gamma) - i*tau*w^3).

    Arrays run without warnings: an overflowing cell is not finite.  A
    point, numpy scalars included, runs in Python floats and raises
    OverflowError where the denominator overflows."""
    if _is_array(omega):
        with np.errstate(all="ignore"):
            return model.coupling / _static_denominator(model, omega)
    d = _static_denominator(model, float(omega))
    if d == 0:
        raise SingularResonanceError(
            "lossless model driven exactly at its natural frequency")
    return model.coupling / d


def _static_denominator(model, omega):
    return (model.natural_frequency**2
            - omega * (omega + 1j * model.damping_rate)
            - 1j * model.radiative_time * omega**3)


def resonance_locus(omega0, branch="lower", n_points=256) -> np.ndarray:
    """Points (w, Omega) of the resonance ellipse
    Omega^2 + (w +/- Omega)^2 = omega0^2.

    ``branch`` picks the sign: "upper" for +, "lower" for - (the branch
    excited by LCP light).  Returns an (n_points, 2) array sampled
    uniformly in the ellipse parameter.
    """
    if branch not in ("upper", "lower"):
        raise ValueError("branch must be 'upper' or 'lower'")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    theta = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    Omega = omega0 * np.sin(theta)
    shift = Omega if branch == "lower" else -Omega
    omega = omega0 * np.cos(theta) + shift
    return np.column_stack([omega, Omega])
