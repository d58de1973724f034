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
  constructors rather than guessing signs.  A helicity is excited where
  its E_pm != 0.  Every route evaluates the excited helicities only: an
  unexcited one (E_plus under LCP light) adds no term to any formula and
  its sideband is 0, even on its own resonance or where its terms would
  overflow a double.
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
:func:`induced_dipole_spectrum` takes one point only: an array drive
frequency or ``Omega`` raises numpy's :class:`TypeError`.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    bound.  A point and an array agree there: both square omega0 and
    Omega by multiplication, so the spring is exactly 0 in each, the
    point raises and the array's cell is NaN.
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

    Construction also sets plain attributes, which are not dataclass
    fields, so equality, hashing and repr ignore them:

    * ``e_plus``, ``e_minus``: the circular components Ex +/- i*Ey;
    * ``excited``: (plus, E_pm) for each helicity with E_pm != 0, however
      small, E_plus's first;
    * ``field_norm_sq``: |E|^2 = |Ex|^2 + |Ey|^2, inf where that overflows
      a double;
    * ``shares``: (|E_plus|^2, |E_minus|^2) / |E|^2, the helicity weights
      the kernel divides by each |d_pm|^2 (they sum to 2), or None where
      |E|^2 is zero or a squared magnitude overflows.  The kernel raises
      on such a drive when it is called, not at construction.
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
        ex, ey = complex(self.amplitude_x), complex(self.amplitude_y)
        e_plus, e_minus = ex + 1j * ey, ex - 1j * ey
        try:
            e2 = abs(ex) ** 2 + abs(ey) ** 2
        except OverflowError:
            e2 = math.inf
        excited = (((True, e_plus),) if e_plus else ()) + (
            ((False, e_minus),) if e_minus else ())
        try:
            shares = abs(e_plus) ** 2 / e2, abs(e_minus) ** 2 / e2
        except (OverflowError, ZeroDivisionError):
            shares = None
        # frozen: write the instance's dict, as object.__setattr__ would
        vars(self).update(amplitude_x=ex, amplitude_y=ey, e_plus=e_plus,
                          e_minus=e_minus, excited=excited, field_norm_sq=e2,
                          shares=shares)

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

    def intensity(self, light_speed) -> float:
        """I = (c/2pi)|E|^2, erg/(s cm^2), for the model's light speed c;
        raises OverflowError where I is too large for a double."""
        out = light_speed / (2.0 * np.pi) * self.field_norm_sq
        if not math.isfinite(out):
            raise OverflowError("the beam intensity c |E|^2 / 2 pi "
                                "overflows a double")
        return out

    def mirrored(self) -> "DriveField":
        """Swap the two circular components (Ey -> -Ey)."""
        return dataclasses.replace(self, amplitude_y=-self.amplitude_y)


def _excited(model, drive, Omega, point):
    """(omega, Omega, helicities): the drive and rotation frequencies and
    one record (plus, e, w, w2, a, b) per helicity in the drive's
    ``excited``: its E_pm, its shifted frequencies w = omega +/- Omega and
    w2 = omega +/- 2*Omega, and the parts (A, B) of its denominator d =
    A - i*B = omega0^2 - Omega^2 - w(w + i*gamma) - i*tau*w(w^2 +
    3*Omega^2) (rad^2/s^2), d_plus at w = omega + Omega and d_minus at
    omega - Omega.  The operations are the complex product's, whose other
    terms are exact zeros: complex(A, 0.0 - B) is that product bit for
    bit wherever it is finite.  At a ``point`` omega and Omega are Python
    floats, and so is every result: a non-finite Omega raises ValueError,
    an array numpy's TypeError.  Otherwise both are numpy arrays, and
    numpy's warnings must be off."""
    omega = drive.frequency
    if point:
        omega, Omega = float(omega), float(Omega)
        if not math.isfinite(Omega):
            raise ValueError("Omega must be finite")
    else:
        # a scalar operand too: the formulas read the broadcast shape
        omega, Omega = np.asarray(omega, float), np.asarray(Omega, float)
    twice = 2.0 * Omega
    # every power in the kernel is a product: numpy's pow is slow at a
    # negative base and rounds apart from libm's, and a point must give
    # its array cell's bits, the spring its exact 0
    osq = Omega * Omega
    w0 = model.natural_frequency
    spring = w0 * w0 - osq
    osq3 = 3.0 * osq
    gamma = model.damping_rate
    tau = model.radiative_time
    helicities = []
    for plus, e in drive.excited:
        w, w2 = ((omega + Omega, omega + twice) if plus
                 else (omega - Omega, omega - twice))
        helicities.append((plus, e, w, w2, spring - w * w,
                           w * gamma + tau * w * (w * w + osq3)))
    return omega, Omega, helicities


class CrossSectionSet(NamedTuple):
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


_FIELD_OVERFLOW_MSG = "the field strength |E|^2 or |E+/-|^2 overflows a double"
_OVERFLOW_MSG = "a response value overflows a double"


def _weights(model, drive, Omega, point=False):
    """(omega, Omega, helicities): ``_excited``'s frequencies and, for each
    of its helicities, a tuple (plus, w, w2, t) with the weighted inverse
    denominator t = |E_pm/E|^2 / |d_pm|^2, the drive's share over A*A +
    B*B.  A point is singular where a weight is inf: its |d|^2 is zero, or
    so small that the quotient overflows.  A NaN weight is an overflow
    inside A or B (inf - inf or 0*inf), not a resonance, except in an
    array where a share that underflowed to 0.0 meets a zero |d|^2."""
    shares = drive.shares
    if shares is None:
        if drive.field_norm_sq == 0:
            raise ValueError("drive field has zero amplitude")
        raise OverflowError(_FIELD_OVERFLOW_MSG)
    omega, Omega, excited = _excited(model, drive, Omega, point)
    helicities = []
    for plus, _, w, w2, a, b in excited:
        # an overflowing |d|^2 is inf, and its weight 0: _evaluate
        # rescales it
        d2 = a * a + b * b
        share = shares[0] if plus else shares[1]
        helicities.append((plus, w, w2, math.inf if point and d2 == 0.0
                           else share / d2))
    return omega, Omega, helicities


def _evaluate(formula, model, drive, Omega):
    """``formula(model, omega, Omega, helicities)`` over the terms of
    ``_weights``, and again by ``_rescaled`` where a weight is 0.0.  A
    point raises at a singular point and where a result, or an element of
    a result tuple, is not finite.  Arrays run without warnings; a
    singular helicity's weight becomes NaN, not inf, so every downstream
    product is NaN at singular cells."""
    if _is_array(drive.frequency) or _is_array(Omega):
        with np.errstate(all="ignore"):
            omega, Omega, hs = _weights(model, drive, Omega)
            hs = [(plus, w, w2, np.where(np.isinf(t), np.nan, t))
                  for plus, w, w2, t in hs]
            out = formula(model, omega, Omega, hs)
            for *_, t in hs:
                if np.count_nonzero(t) < t.size:
                    return _rescaled(formula, model, drive, Omega, out,
                                     False)
            return out
    omega, Omega, hs = _weights(model, drive, Omega, point=True)
    for h in hs:
        if h[3] == math.inf:
            raise SingularResonanceError(_SINGULAR_MSG)
    out = formula(model, omega, Omega, hs)
    for h in hs:
        if h[3] == 0.0:
            with np.errstate(all="ignore"):
                out = _rescaled(formula, model, drive, Omega, out, True)
            break
    if not (math.isfinite(out) if type(out) is float
            else all(map(math.isfinite, out))):
        raise OverflowError(_OVERFLOW_MSG)
    return out


def _each(fn, *results):
    """fn over formula results, element by element where they are tuples."""
    if type(results[0]) is tuple:
        return tuple(map(fn, *results))
    return fn(*results)


def _rescaled(formula, model, drive, Omega, out, point):
    """``out``, the formula's result, evaluated again where an excited
    helicity's |d|^2 = A*A + B*B overflows a double though A and B do
    not: its weight share / |d|^2 underflows there, while a result that
    goes as 1/tau need not.  There each helicity's terms are taken on
    their own, A and B scaled by 2^-k to put the larger in [1/2, 1), the
    weight so times 2^k, and the result times 2^-k.  Points and arrays do
    the same numpy operations; a point's result is floats."""
    omega, Omega, excited = _excited(model, drive, Omega, point)
    scaled = huge = None
    for plus, _, w, w2, a, b in excited:
        big = np.maximum(np.abs(a), np.abs(b))
        k = np.where(np.isinf(a * a + b * b) & np.isfinite(big),
                     np.frexp(big)[1], 0)
        a, b = np.ldexp(a, -k), np.ldexp(b, -k)
        t = np.ldexp(drive.shares[0 if plus else 1] / (a * a + b * b), -k)
        part = _each(lambda x: np.ldexp(x, -k),
                     formula(model, omega, Omega, [(plus, w, w2, t)]))
        if scaled is None:
            scaled, huge = part, k
        else:
            scaled, huge = _each(np.add, scaled, part), np.maximum(huge, k)
    if point:
        return _each(float, scaled) if huge else out
    return _each(lambda x, y: np.where(huge > 0, x, y), scaled, out)


def _brake(model, hs):
    """Helicity sum shared by the torque and sigma_mech: each excited
    helicity's damping term, E_plus's with a minus sign."""
    gamma = model.damping_rate
    tau = model.radiative_time
    total = None
    for plus, w, w2, t in hs:
        term = (gamma * w + tau * (w2 * w2 * w2)) * t
        term = -term if plus else term
        total = term if total is None else total + term
    return total


def _torque(model, omega, Omega, hs, e2):
    """Torque from the brake; ``e2`` = |E|^2 restores the field strength
    that the weights divide out."""
    return 0.5 * model.coupling * e2 * _brake(model, hs)


def _mechanical(model, omega, Omega, hs):
    return (np.pi * model.coupling * Omega / model.light_speed
            * _brake(model, hs))


def _absorption(model, omega, Omega, hs):
    total = None
    for _, w, _, t in hs:
        term = w * w * t
        total = term if total is None else total + term
    return (np.pi * model.damping_rate * model.coupling / model.light_speed
            * total)


def _elastic(model, omega, Omega, hs):
    total = None
    for _, _, _, t in hs:
        total = t if total is None else total + t
    sq = omega * omega
    return model.scattering_prefactor * (sq * sq) * total


def _inelastic(model, omega, Omega, hs):
    """The sidebands at w + 2*Omega and w - 2*Omega; an unexcited
    helicity's is 0.0, or zeros in the broadcast shape."""
    pref = model.scattering_prefactor
    up = down = None
    for plus, _, w2, t in hs:
        sq = w2 * w2
        sideband = pref * (sq * sq) * t
        if plus:
            up = sideband
        else:
            down = sideband
    if up is None or down is None:
        zero = _zero(omega, Omega)
        return (zero if up is None else up), (zero if down is None else down)
    return up, down


def _zero(omega, Omega):
    """0.0 at a point, or zeros in the broadcast shape."""
    return (0.0 if type(omega) is float
            else np.zeros(np.broadcast_shapes(omega.shape, Omega.shape)))


def _extinction(model, omega, Omega, hs):
    gamma = model.damping_rate
    tau = model.radiative_time
    osq3 = 3.0 * (Omega * Omega)
    total = None
    for _, w, _, t in hs:
        term = w * (gamma + tau * (w * w + osq3)) * t
        total = term if total is None else total + term
    return np.pi * model.coupling * omega / model.light_speed * total


def _all_channels(*terms):
    return (_mechanical(*terms), _absorption(*terms), _elastic(*terms),
            *_inelastic(*terms), _extinction(*terms))


def torque(model: OscillatorModel, drive: DriveField, Omega):
    """Time-averaged torque about z, erg.

    Positive torque spins the particle up; it changes sign once the
    rotation outruns the drive (both gamma and tau channels contribute).
    """
    e2 = drive.field_norm_sq
    if e2 == 0:     # no field, no torque
        with np.errstate(all="ignore"):
            omega, Omega, _ = _excited(model, drive, Omega, not (
                _is_array(drive.frequency) or _is_array(Omega)))
        return _zero(omega, Omega)
    return _evaluate(functools.partial(_torque, e2=e2), model, drive, Omega)


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


class SpectralLine(NamedTuple):
    """One emission line: frequency plus the complex (x, y) dipole
    amplitude, convention p(t) = p_tilde e^{-i nu t} + c.c."""

    frequency: float
    amplitude_x: complex
    amplitude_y: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.amplitude_x) ** 2 + abs(self.amplitude_y) ** 2


class DipoleSpectrum(NamedTuple):
    """Induced-dipole spectrum: carrier plus the two rotational sidebands."""

    carrier: SpectralLine        # at w
    upshifted: SpectralLine      # at w + 2*Omega
    downshifted: SpectralLine    # at w - 2*Omega


def induced_dipole_spectrum(model, drive, Omega) -> DipoleSpectrum:
    """Spectral decomposition of the induced dipole Q*rho*rho_hat.

    Rotation splits the response into a carrier at the drive frequency
    and two sidebands shifted by +/- 2*Omega; each sideband is fed by a
    single circular component of the drive, and is a line of amplitude 0
    where that component is not excited.  Each excited sideband's x
    amplitude is (Q^2/m)/4 times the rotating-frame amplitude E_pm/d_pm
    (Q/m = 1).  Takes one (w, Omega) point: an array operand raises
    numpy's TypeError.  Raises SingularResonanceError where an excited
    d_pm is zero, or so small that E_pm/d_pm is not finite, and
    OverflowError where d_pm or a line's amplitude is not finite.
    """
    omega, Omega, excited = _excited(model, drive, Omega, point=True)
    q = model.coupling / 4.0
    twice = 2.0 * Omega
    # the sidebands, at w + 2*Omega and w - 2*Omega: 0 unless excited
    lines = [SpectralLine(omega + twice, 0j, 0j),
             SpectralLine(omega - twice, 0j, 0j)]
    total = diff = 0j
    for plus, e, _, w2, a, b in excited:
        # 0.0 - B keeps the complex product's +0.0 where B is -0.0
        d = complex(a, 0.0 - b)
        if d == 0 or not cmath.isfinite(e / d):
            if not cmath.isfinite(d):
                raise OverflowError("a response denominator overflows a "
                                    "double")
            raise SingularResonanceError(_SINGULAR_MSG)
        amp = e / d
        spin = 1j if plus else -1j
        lines[not plus] = SpectralLine(w2, q * amp, spin * q * amp)
        total, diff = total + amp, (diff + amp if plus else diff - amp)
    spectrum = DipoleSpectrum(
        SpectralLine(omega, q * total, -1j * q * diff), *lines)
    if not all(cmath.isfinite(a) for line in spectrum for a in line[1:]):
        raise OverflowError(_OVERFLOW_MSG)
    return spectrum
