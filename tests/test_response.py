"""Tests for the closed-form response: denominators, torque, the six
cross sections, the energy balance, the dipole spectrum and the
equation-of-motion residual that ``validate`` reads off it, the
singular-resonance handling, and the mutants that ``validate`` catches."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

import rotospin
from rotospin import (
    SPEED_OF_LIGHT,
    CrossSectionSet,
    DriveField,
    OscillatorModel,
    SingularResonanceError,
    absorption_cross_section,
    cross_section_set,
    extinction_cross_section,
    induced_dipole_spectrum,
    mechanical_cross_section,
    torque,
)
from rotospin import response, validation
from rotospin.response import _excited, _weights
from rotospin.validation import radial_ode_residual

# reference point used throughout: omega = 0.5, Omega = 0.2, gamma = 0.1,
# tau = 0, LCP drive with |E| = 1 (normalized units)
MODEL = OscillatorModel.normalized(0.1)
DRIVE = DriveField.lcp(0.5)
OMEGA_ROT = 0.2


# ---------------------------------------------------------------------------
# frequency bookkeeping and field conventions


def _shifted(omega, Omega):
    """(w_plus, w_minus, w2_plus, w2_minus) from ``_excited`` under a
    linear drive, which excites both helicities."""
    _, _, (plus, minus) = _excited(MODEL, DriveField.linear(omega), Omega,
                                   point=True)
    assert (plus[0], minus[0]) == (True, False)
    return plus[2], minus[2], plus[3], minus[3]


def test_shifted_frequencies():
    assert_allclose(_shifted(0.5, 0.2), [0.7, 0.3, 0.9, 0.1], rtol=1e-15)


def test_shifted_frequencies_signed():
    assert_allclose(_shifted(1.0, -0.3), [0.7, 1.3, 0.4, 1.6], rtol=1e-15)


def test_circular_components():
    d = DriveField(1.0, 1.0 + 0.0j, 0.0 + 2.0j)
    ep, em = d.e_plus, d.e_minus
    assert ep == d.amplitude_x + 1j * d.amplitude_y
    assert em == d.amplitude_x - 1j * d.amplitude_y
    assert ep == -1.0 + 0.0j
    assert em == 3.0 + 0.0j


def test_lcp_kills_plus_component():
    d = DriveField.lcp(0.5, amplitude=1.7)
    assert d.e_plus == 0.0
    assert abs(d.e_minus) == pytest.approx(1.7 * np.sqrt(2.0), rel=1e-15)
    assert d.field_norm_sq == pytest.approx(1.7**2, rel=1e-15)


def test_rcp_kills_minus_component():
    d = DriveField.rcp(0.5, amplitude=0.4)
    assert d.e_minus == 0.0
    assert d.field_norm_sq == pytest.approx(0.16, rel=1e-15)


def test_linear_polarization_angle():
    d = DriveField.linear(0.5, amplitude=2.0, angle=np.pi / 6.0)
    assert d.amplitude_x.real == pytest.approx(2.0 * np.cos(np.pi / 6.0))
    assert d.amplitude_y.real == pytest.approx(1.0)
    assert abs(d.e_plus) == pytest.approx(abs(d.e_minus), rel=1e-15)


def test_intensity_convention():
    # I = (c/2pi)|E|^2
    d = DriveField.lcp(0.5, amplitude=3.0)
    assert d.intensity(light_speed=1.0) == pytest.approx(9.0 / (2.0 * np.pi))


def test_intensity_takes_the_light_speed():
    # no default: a CGS light speed would be 3e10 times too large in a
    # normalized model
    d = DriveField.lcp(0.5, amplitude=1e150)
    with pytest.raises(TypeError):
        d.intensity()
    assert d.intensity(1.0) == pytest.approx(1e300 / (2.0 * np.pi))
    with pytest.raises(OverflowError, match="beam intensity"):
        d.intensity(SPEED_OF_LIGHT)


def test_mirrored_swaps_helicities():
    d = DriveField(0.5, 0.3 + 0.2j, -0.1 + 0.7j)
    md = d.mirrored()
    assert md.e_plus == d.e_minus
    assert md.e_minus == d.e_plus


def test_derived_attributes_follow_mirrored_and_replace():
    # |E|^2, E_pm, the excited helicities and their shares are set at
    # construction, and a copy with other fields derives its own
    d = DriveField(0.5, 0.3 + 0.2j, -0.1 + 0.7j)
    assert d.field_norm_sq == abs(d.amplitude_x) ** 2 + abs(d.amplitude_y) ** 2
    assert d.excited == ((True, d.e_plus), (False, d.e_minus))
    assert d.shares == (abs(d.e_plus) ** 2 / d.field_norm_sq,
                        abs(d.e_minus) ** 2 / d.field_norm_sq)
    md = d.mirrored()
    assert md.excited == ((True, d.e_minus), (False, d.e_plus))
    assert md.shares == d.shares[::-1]
    assert md.field_norm_sq == d.field_norm_sq
    x_only = dataclasses.replace(d, amplitude_y=0j)
    assert x_only.e_plus == x_only.e_minus == 0.3 + 0.2j
    assert x_only.field_norm_sq == abs(0.3 + 0.2j) ** 2
    assert x_only.shares == (1.0, 1.0)
    lcp = dataclasses.replace(d, amplitude_x=1.0, amplitude_y=1j)
    assert (lcp.e_plus, lcp.excited, lcp.shares) == (0j, ((False, 2 + 0j),),
                                                     (0.0, 2.0))
    # E_plus = 1e-170j is excited, though its share underflows to 0.0
    faint = dataclasses.replace(d, amplitude_x=1.0, amplitude_y=1j + 1e-170)
    assert faint.excited == ((True, 1e-170j), (False, 2 - 1e-170j))
    assert faint.shares == (0.0, 2.0)
    zero = dataclasses.replace(d, amplitude_x=0, amplitude_y=0)
    assert (zero.field_norm_sq, zero.excited, zero.shares) == (0.0, (), None)
    # not dataclass fields: equality, hashing and repr ignore them
    assert [f.name for f in dataclasses.fields(d)] == [
        "frequency", "amplitude_x", "amplitude_y"]
    assert d == DriveField(0.5, 0.3 + 0.2j, -0.1 + 0.7j)
    assert hash(d) == hash(DriveField(0.5, 0.3 + 0.2j, -0.1 + 0.7j))
    assert repr(d) == ("DriveField(frequency=0.5, amplitude_x=(0.3+0.2j), "
                       "amplitude_y=(-0.1+0.7j))")


_FIELD_ERR = "the field strength |E|^2 or |E+/-|^2 overflows a double"


@pytest.mark.parametrize("amplitude", [1e155, 1e154],
                         ids=["norm-overflows", "circular-part-overflows"])
def test_overflowing_field_raises_where_it_is_used(amplitude):
    # |E|^2 = 1e310, or |E|^2 = 1e308 with |E_minus|^2 = 2e308: the drive
    # is built, and the kernel names the field when it is called
    d = DriveField.lcp(0.5, amplitude)
    assert d.shares is None
    for drive in (d, DriveField.lcp(np.array([0.5, 1.0]), amplitude)):
        for view in _VIEWS:
            with pytest.raises(OverflowError) as info:
                view(MODEL, drive, 0.2)
            assert str(info.value) == _FIELD_ERR
    if amplitude == 1e155:
        assert d.field_norm_sq == math.inf
        with pytest.raises(OverflowError, match="beam intensity"):
            d.intensity(1.0)


# ---------------------------------------------------------------------------
# denominators


def _d_pm(model, omega, Omega):
    """(d_plus, d_minus) at one (omega, Omega) point, each A - i*B, from
    ``_excited`` under a linear drive, which excites both helicities."""
    _, _, helicities = _excited(model, DriveField.linear(omega), Omega,
                                point=True)
    return tuple(complex(a, 0.0 - b) for *_, a, b in helicities)


def test_denominator_reference_values():
    # hand substitution at (omega, Omega) = (0.5, 0.2), gamma = 0.1:
    # d- = 1 - 0.04 - 0.3*(0.3 + 0.1i) = 0.87 - 0.03i
    # d+ = 1 - 0.04 - 0.7*(0.7 + 0.1i) = 0.47 - 0.07i
    d_plus, d_minus = _d_pm(MODEL, 0.5, 0.2)
    assert_allclose([d_minus.real, d_minus.imag], [0.87, -0.03], atol=1e-15)
    assert_allclose([d_plus.real, d_plus.imag], [0.47, -0.07], atol=1e-15)


def test_denominator_radiative_terms():
    m = OscillatorModel.normalized(0.1, 0.2)
    _, d_minus = _d_pm(m, 0.5, 0.2)
    # extra term -i*tau*w_pm*(w_pm^2 + 3 Omega^2)
    extra_minus = -1j * 0.2 * 0.3 * (0.09 + 3.0 * 0.04)
    assert d_minus == pytest.approx((0.87 - 0.03j) + extra_minus, rel=1e-14)


def test_denominator_vanishes_at_corotation_corner_any_damping():
    # at omega = Omega = omega0 every term of d- carries a factor of
    # omega - Omega or omega0^2 - Omega^2, so losses do not regularize it
    m = OscillatorModel.normalized(0.3, 0.2)
    assert _d_pm(m, 1.0, 1.0)[1] == 0.0
    assert _d_pm(m, 0.9, 0.9)[1] != 0.0


# ---------------------------------------------------------------------------
# torque


def test_torque_reference_value():
    # (K/2)|E|^2 * gamma*(w-Omega) * (|E-|^2/|E|^2) / |d-|^2
    #   = 0.5 * 0.1 * 0.3 * 2 / 0.7578 = 50/1263
    assert_allclose(torque(MODEL, DRIVE, OMEGA_ROT), 50.0 / 1263.0, rtol=1e-14)


def test_torque_sign_flips_at_corotation():
    # friction-dominated: the particle is pushed while it lags the drive
    # and braked once it outruns it
    assert torque(MODEL, DRIVE, 0.4) > 0.0
    assert torque(MODEL, DRIVE, 0.5) == 0.0
    assert torque(MODEL, DRIVE, 0.6) < 0.0


def test_torque_sign_structure_tau_zero():
    omegas = np.linspace(0.0, 2.0, 41)
    for Om in np.linspace(0.0, 2.0, 21):
        mvals = torque(MODEL, DriveField.lcp(omegas), Om)
        # the corner omega = Omega = omega0 is singular (NaN), skip it
        regular = np.isfinite(mvals)
        assert np.all(np.sign(mvals[regular])
                      == np.sign(omegas[regular] - Om))
        assert np.count_nonzero(~regular) == (1 if Om == 1.0 else 0)


def test_torque_radiative_channel_at_corotation():
    # gamma plays no role at omega = Omega (it multiplies w - Omega = 0);
    # the sideband recoil at omega - 2*Omega survives:
    # M = 0.5 * tau*(omega - 2*Omega)^3 * 2 / (1 - Omega^2)^2 = -1/45
    m = OscillatorModel.normalized(0.0, 0.1)
    assert_allclose(torque(m, DriveField.lcp(0.5), 0.5), -1.0 / 45.0,
                    rtol=1e-14)
    m_fric = OscillatorModel.normalized(0.37, 0.1)
    assert_allclose(torque(m_fric, DriveField.lcp(0.5), 0.5), -1.0 / 45.0,
                    rtol=1e-14)


def test_torque_linear_polarization_static_rod():
    assert torque(MODEL, DriveField.linear(0.8), 0.0) == 0.0


def test_torque_zero_field():
    assert torque(MODEL, DriveField(0.5, 0.0, 0.0), 0.3) == 0.0


def test_torque_zero_field_keeps_broadcast_shape():
    m = OscillatorModel.normalized(0.1, 1e-3)
    out = torque(m, DriveField(np.array([0.5, 1.0]), 0, 0), 0.2)
    assert isinstance(out, np.ndarray)
    assert_allclose(out, [0.0, 0.0], atol=0)
    grid = torque(m, DriveField(np.array([[0.5], [1.0]]), 0, 0),
                  np.array([0.1, 0.2, 0.3]))
    assert grid.shape == (2, 3) and not grid.any()


def test_torque_scales_with_field_squared():
    weak = torque(MODEL, DriveField.lcp(0.5, 1.0), 0.2)
    strong = torque(MODEL, DriveField.lcp(0.5, 3.0), 0.2)
    assert_allclose(strong, 9.0 * weak, rtol=1e-14)


def test_rcp_mirror_of_lcp():
    m_l = torque(MODEL, DriveField.lcp(0.5), 0.2)
    m_r = torque(MODEL, DriveField.rcp(0.5), -0.2)
    assert_allclose(m_r, -m_l, rtol=1e-14)


# ---------------------------------------------------------------------------
# cross sections at the reference point


def test_cross_sections_reference_values():
    cs = cross_section_set(MODEL, DRIVE, OMEGA_ROT)
    assert_allclose(cs.mechanical, 0.04974810219461272, rtol=1e-13)
    assert_allclose(cs.absorption, 0.07462215329191907, rtol=1e-13)
    assert cs.elastic == 0.0 and cs.inelastic_plus == 0.0
    assert cs.inelastic_minus == 0.0
    assert_allclose(cs.extinction, 0.12437025548653179, rtol=1e-13)
    assert cs.balance_residual == pytest.approx(0.0, abs=1e-16)


def test_individual_functions_match_set():
    # a point, and a broadcast lattice whose corner omega = Omega =
    # omega0 is singular
    lattice = (DriveField.lcp(np.array([0.5, 1.0, 1.7])[:, None]),
               np.array([-0.3, 0.2, 1.0]))
    for drive, Omega in ((DRIVE, OMEGA_ROT), lattice):
        cs = cross_section_set(MODEL, drive, Omega)
        for got, expected in (
                (mechanical_cross_section(MODEL, drive, Omega), cs.mechanical),
                (absorption_cross_section(MODEL, drive, Omega), cs.absorption),
                (extinction_cross_section(MODEL, drive, Omega),
                 cs.extinction)):
            # bit for bit, NaN in the same cells
            np.testing.assert_array_equal(got, expected, strict=True)
    assert np.isnan(cs.extinction).sum() == 1


def test_mechanical_is_torque_power_over_intensity():
    # sigma_mech = M * Omega / I for several rotation speeds
    intensity = DRIVE.intensity(MODEL.light_speed)
    for Om in (0.05, 0.2, 0.45, 0.7):
        sm = mechanical_cross_section(MODEL, DRIVE, Om)
        assert_allclose(sm, torque(MODEL, DRIVE, Om) * Om / intensity,
                        rtol=1e-13)


def test_absorption_peak_value():
    # at omega = omega0, Omega = 0, tau = 0 the peak is exactly 2*pi*K/(c*gamma)
    peak = absorption_cross_section(MODEL, DriveField.lcp(1.0), 0.0)
    assert_allclose(peak, 2.0 * np.pi / 0.1, rtol=1e-14)


def test_elastic_fourth_power_scaling():
    # sigma_elastic ~ omega^4 at fixed denominators is exact only pointwise;
    # check the formula factorization instead at a tau-only model
    m = OscillatorModel.normalized(0.0, 0.05)
    d1 = DriveField.lcp(0.4)
    base = cross_section_set(m, d1, 2.0).elastic
    _, dmin = _d_pm(m, 0.4, 2.0)
    expected = (m.scattering_prefactor * 0.4**4 * 2.0 / abs(dmin) ** 2)
    assert_allclose(base, expected, rtol=1e-14)


def test_inelastic_sideband_assignment():
    # each helicity feeds one sideband: LCP emits only at omega - 2*Omega
    m = OscillatorModel.normalized(0.1, 1e-3)
    cs = cross_section_set(m, DriveField.lcp(0.5), 0.3)
    assert cs.inelastic_plus == 0.0
    assert cs.inelastic_minus > 0.0
    cs_r = cross_section_set(m, DriveField.rcp(0.5), 0.3)
    assert cs_r.inelastic_minus == 0.0
    assert cs_r.inelastic_plus > 0.0


def test_inelastic_sidebands_merge_at_rest():
    # at Omega = 0 all three scattering lines sit at omega, and the two
    # sidebands together carry exactly the elastic weight
    m = OscillatorModel.normalized(0.1, 0.02)
    d = DriveField(0.7, 0.4 + 0.2j, -0.3 + 0.5j)
    cs = cross_section_set(m, d, 0.0)
    assert_allclose(cs.inelastic_plus + cs.inelastic_minus, cs.elastic,
                    rtol=1e-14)


def test_negative_extinction_fast_rotor():
    # rotation faster than the light frequency amplifies the beam
    m = OscillatorModel.normalized(0.1, 1e-4)
    omegas = np.linspace(0.05, 1.95, 77)
    ext = extinction_cross_section(m, DriveField.lcp(omegas), 2.0)
    assert np.all(ext < 0.0)
    above = extinction_cross_section(m, DriveField.lcp(np.linspace(2.05, 3.0, 20)), 2.0)
    assert np.all(above > 0.0)


def test_each_view_guards_only_its_own_channel():
    # at omega = 1e80 only the scattering channels overflow (omega**4);
    # under LCP light the other views are finite and must not raise,
    # while the set, which holds the scattering channels, does.  |d|^2
    # ~ (tau w^3)^2 overflows, so each is 2/(tau w^3) = 2e-237 times its
    # factor: 1/2 in the torque, pi Omega in sigma_mech, pi omega in
    # sigma_ext and pi gamma w^2/(tau w^3) in sigma_abs
    m = OscillatorModel.normalized(0.1, 1e-3)
    d = DriveField.lcp(1e80)
    for view, expected in ((mechanical_cross_section, 0.5 * np.pi * 2e-237),
                           (absorption_cross_section, 0.2 * np.pi * 1e-314),
                           (extinction_cross_section, 2.0 * np.pi * 1e-157),
                           (torque, 1e-237)):
        assert view(m, d, 0.5) == pytest.approx(expected, rel=1e-8, abs=0.0)
    with pytest.raises(OverflowError):
        cross_section_set(m, d, 0.5)


@pytest.mark.parametrize("Omega", [np.nan, np.inf, -np.inf,
                                   np.float64(np.nan)])
def test_point_rejects_non_finite_rotation(Omega):
    # a message about overflow or resonance would be false here, and a
    # zero field's torque of 0 too
    for route in (torque, cross_section_set, induced_dipole_spectrum,
                  lambda m, d, Om: radial_ode_residual(m, d, Om, 0.0),
                  lambda m, d, Om: torque(m, DriveField(0.5, 0, 0), Om)):
        with pytest.raises(ValueError) as info:
            route(MODEL, DRIVE, Omega)
        assert type(info.value) is ValueError
        assert str(info.value) == "Omega must be finite"


def test_zero_field_cross_sections_raise():
    with pytest.raises(ValueError):
        absorption_cross_section(MODEL, DriveField(0.5, 0.0, 0.0), 0.2)


# ---------------------------------------------------------------------------
# energy balance and symmetry properties


finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
rates = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
amps = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def _drive(w, exr, exi, eyr, eyi):
    return DriveField(w, complex(exr, exi), complex(eyr, eyi))


@settings(max_examples=200, deadline=None)
@given(gamma=rates, tau=rates, w=finite, Om=finite,
       exr=amps, exi=amps, eyr=amps, eyi=amps)
def test_energy_balance_property(gamma, tau, w, Om, exr, exi, eyr, eyi):
    d = _drive(w, exr, exi, eyr, eyi)
    if d.field_norm_sq < 1e-12:
        return
    m = OscillatorModel.normalized(gamma, tau)
    try:
        cs = cross_section_set(m, d, Om)
    except SingularResonanceError:
        return
    scale = (abs(cs.elastic) + abs(cs.inelastic_plus)
             + abs(cs.inelastic_minus) + abs(cs.mechanical)
             + abs(cs.absorption))
    assert abs(cs.balance_residual) <= 1e-12 * max(scale, 1e-300)


@settings(max_examples=150, deadline=None)
@given(gamma=rates, tau=rates, w=finite, Om=finite,
       exr=amps, exi=amps, eyr=amps, eyi=amps)
def test_mirror_symmetry_property(gamma, tau, w, Om, exr, exi, eyr, eyi):
    d = _drive(w, exr, exi, eyr, eyi)
    if d.field_norm_sq < 1e-12:
        return
    m = OscillatorModel.normalized(gamma, tau)
    try:
        a = cross_section_set(m, d, Om)
        b = cross_section_set(m, d.mirrored(), -Om)
    except SingularResonanceError:
        return
    for x, y in ((a.absorption, b.absorption), (a.elastic, b.elastic),
                 (a.inelastic_plus, b.inelastic_minus),
                 (a.inelastic_minus, b.inelastic_plus),
                 (a.mechanical, b.mechanical), (a.extinction, b.extinction),
                 (torque(m, d, Om), -torque(m, d.mirrored(), -Om))):
        assert abs(x - y) <= 1e-11 * max(abs(x), abs(y), 1e-300)


@settings(max_examples=200, deadline=None)
@given(gamma=rates, tau=rates, w=finite, Om=finite,
       exr=amps, exi=amps, eyr=amps, eyi=amps)
def test_positivity_property(gamma, tau, w, Om, exr, exi, eyr, eyi):
    d = _drive(w, exr, exi, eyr, eyi)
    if d.field_norm_sq < 1e-12:
        return
    try:
        cs = cross_section_set(OscillatorModel.normalized(gamma, tau), d, Om)
    except SingularResonanceError:
        return
    assert cs.absorption >= 0.0
    assert cs.elastic >= 0.0
    assert cs.inelastic_plus >= 0.0
    assert cs.inelastic_minus >= 0.0


def test_balance_residual_helper():
    residual = cross_section_set(MODEL, DRIVE, OMEGA_ROT).balance_residual
    assert residual == pytest.approx(0.0, abs=1e-16)


def test_vectorized_frequency_matches_scalars():
    omegas = np.array([0.1, 0.5, 1.3, 2.4])
    m = OscillatorModel.normalized(0.2, 0.03)
    vec = cross_section_set(m, DriveField.lcp(omegas), 0.4)
    for k, w in enumerate(omegas):
        pt = cross_section_set(m, DriveField.lcp(float(w)), 0.4)
        assert vec.extinction[k] == pt.extinction
        assert vec.mechanical[k] == pt.mechanical
        assert vec.absorption[k] == pt.absorption


def test_vectorized_rotation_axis():
    Oms = np.array([-0.5, 0.0, 0.3, 1.1])
    m = OscillatorModel.normalized(0.2, 0.03)
    d = DriveField.lcp(0.7)
    mvals = torque(m, d, Oms)
    assert mvals.shape == Oms.shape
    for k, Om in enumerate(Oms):
        assert mvals[k] == torque(m, d, float(Om))


@pytest.mark.parametrize("omega, Omega", [(0.5, 1e155), (1e80, 0.5),
                                          (1e155, 0.3), (0.7, 0.2)])
def test_broadcast_cells_do_not_depend_on_which_operand_is_array(omega,
                                                                 Omega):
    # a huge scalar operand overflows like an array's cell: NaN or inf,
    # never an exception, and without a warning
    m = OscillatorModel.normalized(0.1, 1e-3)
    w, Om = np.array([omega]), np.array([Omega])
    for view in _VIEWS:
        expected = _values(view(m, DriveField.lcp(w), Om))
        for drive, rotation in ((DriveField.lcp(w), Omega),
                                (DriveField.lcp(omega), Om)):
            got = _values(view(m, drive, rotation))
            for g, e in zip(got, expected, strict=True):
                np.testing.assert_array_equal(g, e, strict=True)


# ---------------------------------------------------------------------------
# a point against the same point as a 1-element array


_VIEWS = (torque, absorption_cross_section, mechanical_cross_section,
          extinction_cross_section, cross_section_set)


def _values(result):
    """A view's result as a tuple of its values."""
    if isinstance(result, CrossSectionSet):
        return tuple(result.as_dict().values())
    return (result,)


def _cell(result):
    """The values of a view's result over a 1-element array."""
    return tuple(float(v[0]) for v in _values(result))


@st.composite
def _points(draw):
    """(model, omega, Omega): anywhere, on the lossless resonance ellipse,
    at a co-rotation corner omega = +/-Omega with |Omega| = omega0, or at
    a huge drive frequency."""
    w0 = draw(st.floats(0.25, 4.0))
    where = draw(st.sampled_from(["any", "ellipse", "corner", "huge"]))
    if where == "ellipse":
        # Omega^2 + (omega -/+ Omega)^2 = omega0^2 at one of 16 angles
        theta = draw(st.integers(0, 15)) * math.pi / 8.0
        Omega = w0 * math.sin(theta)
        shift = draw(st.sampled_from([Omega, -Omega]))
        return (OscillatorModel.normalized(0.0, 0.0, natural_frequency=w0),
                w0 * math.cos(theta) + shift, Omega)
    model = OscillatorModel.normalized(draw(rates), draw(rates),
                                       natural_frequency=w0)
    if where == "corner":
        Omega = draw(st.sampled_from([w0, -w0]))
        return model, draw(st.sampled_from([1.0, -1.0])) * Omega, Omega
    if where == "huge":
        return (model, draw(st.sampled_from([1e80, -1e80, 1e110, -1e110])),
                draw(finite))
    return model, draw(finite), draw(finite)


_KINDS = st.sampled_from([float, np.float64, np.asarray])


@settings(max_examples=300, deadline=None)
@given(point=_points(), pol=st.sampled_from(["lcp", "rcp", "linear", "any"]),
       exr=amps, exi=amps, eyr=amps, eyi=amps, w_kind=_KINDS, Om_kind=_KINDS)
# E_minus = 4.7e-277 is excited, though its share underflows to 0.0, on its
# lossless resonance: the cell's weight is 0/0, the point's singular
@example(point=(OscillatorModel.normalized(0.0, 0.0), 0.5411961001461969,
                0.3826834323650898), pol="any", exr=1.0, exi=0.0,
         eyr=4.65110334396459e-277, eyi=1.0, w_kind=float, Om_kind=float)
def test_point_matches_one_element_array(point, pol, exr, exi, eyr, eyi,
                                         w_kind, Om_kind):
    model, omega, Omega = point
    base = {"lcp": DriveField.lcp(omega), "rcp": DriveField.rcp(omega),
            "linear": DriveField.linear(omega, 1.0, exr),
            "any": _drive(omega, exr, exi, eyr, eyi)}[pol]
    assume(base.field_norm_sq > 1e-12)
    ex, ey = base.amplitude_x, base.amplitude_y
    drive = DriveField(w_kind(omega), ex, ey)
    cell = DriveField(np.array([omega]), ex, ey)
    with np.errstate(all="ignore"):
        records = _excited(model, cell, Omega, point=False)[2]
        helicities = _weights(model, cell, Omega)[2]
        # singular where |d|^2 is zero or so small that the weight
        # overflows; a share of 0.0 over a zero |d|^2 weighs 0/0 = NaN
        singular = any((np.isinf(t) | (a * a + b * b == 0)).any()
                       for (*_, a, b), (*_, t) in zip(records, helicities))
    for view in _VIEWS:
        expected = _cell(view(model, cell, Omega))
        if singular or not np.all(np.isfinite(expected)):
            error = SingularResonanceError if singular else OverflowError
            with pytest.raises(error) as info:
                view(model, drive, Om_kind(Omega))
            assert type(info.value) is error
            continue
        got = _values(view(model, drive, Om_kind(Omega)))
        assert all(type(v) is float for v in got)
        # both routes take every power as a product, so they do the same
        # IEEE operations: the same bits, signed zeros included
        assert [g.hex() for g in got] == [e.hex() for e in expected]


def _d_ref(model, omega, Omega):
    """(d_plus, d_minus) as one complex formula, each square taken by
    multiplication; points in Python complexes, arrays in numpy."""
    osq = Omega * Omega
    w0 = model.natural_frequency
    spring = w0 * w0 - osq
    osq3 = 3.0 * osq
    gamma = model.damping_rate
    tau = model.radiative_time
    return tuple(spring - w * (w + 1j * gamma) - 1j * tau * w * (w * w + osq3)
                 for w in (omega + Omega, omega - Omega))


def _by_helicity(terms):
    """[plus's, minus's] last element of each helicity tuple of
    ``_weights``: None for a helicity that was not evaluated."""
    pair = [None, None]
    for h in terms[2]:
        pair[0 if h[0] else 1] = h[-1]
    return pair


def _hex(z):
    return z.real.hex(), z.imag.hex()


@settings(max_examples=300, deadline=None)
@given(point=_points(), pol=st.sampled_from(["lcp", "rcp", "linear", "any"]),
       lossless=st.booleans(), exr=amps, exi=amps, eyr=amps, eyi=amps)
# E_minus = -0.0 + 0.5j and B = +0.0: the sign of d's zero imaginary part
# reaches the real part of the amplitude
@example(point=(MODEL, 0.5, 0.2), pol="any", lossless=True, exr=-0.0,
         exi=0.5, eyr=0.0, eyi=0.0)
# E_minus = 1e-300 is excited, though its share |E_minus|^2/|E|^2
# underflows to 0.0: its weight is 0.0, not absent
@example(point=(MODEL, 0.5, 0.2), pol="any", lossless=False, exr=0.0,
         exi=1.0, eyr=1.0, eyi=1e-300)
def test_real_parts_keep_the_complex_formula_bits(point, pol, lossless, exr,
                                                  exi, eyr, eyi):
    # the weights and amplitudes built from (A, B) are those of the
    # complex formula bit for bit, signed zeros included; a helicity is
    # evaluated where its E_pm != 0
    model, omega, Omega = point
    if lossless:
        model = dataclasses.replace(model, damping_rate=0.0,
                                    radiative_time=0.0)
    drive = {"lcp": DriveField.lcp(omega), "rcp": DriveField.rcp(omega),
             "linear": DriveField.linear(omega, 1.0, exr),
             "any": _drive(omega, exr, exi, eyr, eyi)}[pol]
    assume(drive.field_norm_sq > 1e-12)
    e2 = drive.field_norm_sq
    fields = drive.e_plus, drive.e_minus
    cell = DriveField(np.array([omega]), drive.amplitude_x, drive.amplitude_y)
    with np.errstate(all="ignore"):
        refs = _d_ref(model, omega, Omega)
        cell_refs = _d_ref(model, cell.frequency, np.asarray(Omega, float))
        cell_weights = _by_helicity(_weights(model, cell, Omega))
    weights = _by_helicity(_weights(model, drive, Omega, point=True))
    for e, d, cell_d, t, cell_t, parts in zip(
            fields, refs, cell_refs, weights, cell_weights,
            _d_pm(model, omega, Omega)):
        assert _hex(parts) == _hex(d)
        if e == 0:
            assert t is None and cell_t is None
            continue
        share = abs(e) ** 2 / e2
        d2 = d.real * d.real + d.imag * d.imag
        assert t.hex() == (math.inf if d2 == 0.0 else share / d2).hex()
        with np.errstate(all="ignore"):
            expected = share / (cell_d.real * cell_d.real
                                + cell_d.imag * cell_d.imag)
        assert cell_t.tobytes() == expected.tobytes()
    try:
        sp = induced_dipole_spectrum(model, drive, Omega)
    except (SingularResonanceError, OverflowError) as exc:
        assert any(e != 0 and (d == 0 or not cmath.isfinite(e / d))
                   for e, d in zip(fields, refs)), exc
        return
    q = model.coupling / 4.0
    for e, d, line in zip(fields, refs, (sp.upshifted, sp.downshifted)):
        if e == 0:
            assert _hex(line.amplitude_x) == _hex(0j)
        else:
            assert _hex(line.amplitude_x) == _hex(q * (e / d))


# repr of the torque and the six cross sections at six points, each power
# in the kernel taken as a product
_PINNED = {
    "lcp": (
        OscillatorModel.normalized(0.1, 0.02), DriveField.lcp(0.5), 0.2,
        "0.03961063941648056",
        "CrossSectionSet(mechanical=0.04977619751792386, "
        "absorption=0.07461455324139153, elastic=0.005181566197318857, "
        "inelastic_plus=0.0, inelastic_minus=8.290505915710162e-06, "
        "extinction=0.12958060746254996)"),
    "rcp": (
        OscillatorModel.normalized(0.05, 1e-3), DriveField.rcp(1.3, 2.0), -0.4,
        "-59.55448780330878",
        "CrossSectionSet(mechanical=37.41918827423557, "
        "absorption=83.95995152944823, elastic=2.960469352632804, "
        "inelastic_plus=0.06478391321716684, inelastic_minus=0.0, "
        "extinction=124.40439306953377)"),
    "linear": (
        OscillatorModel.normalized(0.2, 0.0, natural_frequency=1.5),
        DriveField.linear(0.9, 1.5, 0.3), 0.7,
        "-0.4697110904007451",
        "CrossSectionSet(mechanical=-0.9181765667900821, "
        "absorption=2.1751064141210206, elastic=0.0, inelastic_plus=0.0, "
        "inelastic_minus=0.0, extinction=1.2569298473309385)"),
    "explicit": (
        OscillatorModel.normalized(0.3, 0.1, coupling=2.0, light_speed=3.0),
        DriveField(-0.8, 0.3 - 0.4j, 1.1 + 0.2j), 1.2,
        "-0.9792601421957481",
        "CrossSectionSet(mechanical=-1.640766116626911, "
        "absorption=0.24318241694489243, elastic=0.03468467924191801, "
        "inelastic_plus=0.5089060998787526, inelastic_minus=0.7367802878709634, "
        "extinction=-0.11721263269038447)"),
    "physical": (
        OscillatorModel.physical(1e4, 3e15, 1e13), DriveField.lcp(2.9e15, 1e3),
        1e14,
        "2.1159478996846962e-22",
        "CrossSectionSet(mechanical=4.434698872263288e-24, "
        "absorption=1.2417156840177462e-22, elastic=1.3858452324038817e-32, "
        "inelastic_plus=0.0, inelastic_minus=1.0413046245466107e-32, "
        "extinction=1.286062672983094e-22)"),
    "physical_rcp": (
        OscillatorModel.physical(2.5e3, 1e15, 5e12),
        DriveField.rcp(1.2e15, 10.0), -3e14,
        "-1.1227264788835407e-25",
        "CrossSectionSet(mechanical=7.059182105344227e-23, "
        "absorption=2.1177546315969807e-22, elastic=3.353530390491414e-33, "
        "inelastic_plus=2.095956494057134e-34, inelastic_minus=0.0, "
        "extinction=2.8236728421670345e-22)"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pinned_point_values(name):
    model, drive, Omega, m_repr, cs_repr = _PINNED[name]
    assert repr(torque(model, drive, Omega)) == m_repr
    assert repr(cross_section_set(model, drive, Omega)) == cs_repr


def test_pinned_point_errors():
    huge = OscillatorModel.normalized(0.1, 1e-3), DriveField.lcp(1e80), 0.5
    assert repr(torque(*huge)) == "9.999999999999999e-238"
    with pytest.raises(OverflowError) as info:
        cross_section_set(*huge)
    assert str(info.value) == "a response value overflows a double"
    # sigma_ext itself stays finite at 1e80 but not at 1e110
    tough = (OscillatorModel.normalized(0.3, 0.2), DriveField.lcp(1e110), 0.2)
    with pytest.raises(OverflowError) as info:
        extinction_cross_section(*tough)
    assert str(info.value) == "a response value overflows a double"
    lossless = OscillatorModel.normalized(0.0, 0.0), DriveField.lcp(1.0), 1.0
    for view in (torque, cross_section_set):
        with pytest.raises(SingularResonanceError) as info:
            view(*lossless)
        assert type(info.value) is SingularResonanceError
        assert str(info.value) == (
            "response denominator vanishes (gamma = tau = 0 on the resonance "
            "ellipse, or omega = +/-Omega at |Omega| = omega0); no bounded "
            "steady state exists there")


def test_denominator_overflow_at_a_point_reads_as_the_kernels():
    # w*w of d_minus overflows to inf at 1e160, as in an array's cell
    m = OscillatorModel.normalized(0.1, 1e-3)
    for view in _VIEWS:
        with pytest.raises(OverflowError) as info:
            view(m, DriveField.lcp(1e160), 0.2)
        assert str(info.value) == "a response value overflows a double"


@pytest.mark.parametrize("call", [
    lambda m: induced_dipole_spectrum(m, DriveField.lcp(0.5), 1e155),
    lambda m: radial_ode_residual(m, DriveField.lcp(1e160), 0.2, 0.0),
], ids=["spectrum", "ode-residual"])
def test_amplitudes_route_overflow_names_the_denominator(call):
    # (omega - Omega)^2 of d_minus overflows a double: one line that says
    # so, not Python's own "Numerical result out of range"
    with pytest.raises(OverflowError) as info:
        call(OscillatorModel.normalized(0.1, 1e-3))
    assert str(info.value) == "a response denominator overflows a double"


@pytest.mark.parametrize("call", [
    induced_dipole_spectrum,
    lambda *args: radial_ode_residual(*args, 0.0),
], ids=["spectrum", "ode-residual"])
def test_overflowing_line_amplitude_raises_as_a_kernel_point(call):
    # E/d ~ 1e300 is finite, but (Q^2/m)/4 = 2.5e9 times it is not: the
    # sideband's amplitude was inf + 1.4e308j, and the residual NaN
    m = OscillatorModel.normalized(0.1, coupling=1e10)
    with pytest.raises(OverflowError) as info:
        call(m, DriveField.lcp(0.5, 1e300), 0.2)
    assert str(info.value) == "a response value overflows a double"


# ---------------------------------------------------------------------------
# only the excited helicities are evaluated


def test_unexcited_helicity_overflow_hides_no_finite_answer():
    # LCP at omega = Omega = 4.4e76: the E_plus sideband omega + 2*Omega
    # has a fourth power beyond a double, but E_plus is not excited; the
    # E_minus helicity is static in the rotating frame
    m = OscillatorModel.normalized(0.1, 1e-3)
    expected = {"sigma_mech": -2e-3 * np.pi, "sigma_abs": 0.0,
                "sigma_elastic": 1e-3 * np.pi, "sigma_in_plus": 0.0,
                "sigma_in_minus": 1e-3 * np.pi, "sigma_ext": 0.0}
    point = cross_section_set(m, DriveField.lcp(4.4e76), 4.4e76).as_dict()
    cell = cross_section_set(m, DriveField.lcp(np.array([4.4e76])),
                             4.4e76).as_dict()
    for key, value in expected.items():
        assert point[key] == pytest.approx(value, rel=1e-15, abs=0.0)
        assert cell[key].tobytes() == np.array([point[key]]).tobytes()


# E_plus = 1e-170j is excited, though |E_plus|^2 underflows to 0, and
# d_plus = 25 - 9 - 16 is exactly 0 at omega = 1, Omega = 3, omega0 = 5
_FAINT = (OscillatorModel.normalized(0.0, 0.0, natural_frequency=5.0),
          DriveField(1.0, 1.0, 1j + 1e-170), 3.0)


def test_faint_excited_helicity_is_singular_in_every_route():
    # every route evaluates the helicities with E_pm != 0, so the kernel
    # finds E_plus's resonance as the amplitudes route does
    model, drive, Omega = _FAINT
    assert drive.e_plus == 1e-170j and drive.shares == (0.0, 2.0)
    for route in (*_VIEWS, induced_dipole_spectrum,
                  lambda m, d, Om: radial_ode_residual(m, d, Om, 0.0)):
        with pytest.raises(SingularResonanceError) as info:
            route(model, drive, Omega)
        assert type(info.value) is SingularResonanceError
    # in a one-element array E_plus's weight is 0/0: NaN in every cell
    # that its terms enter, that is all but the E_minus sideband
    ex, ey = drive.amplitude_x, drive.amplitude_y
    for cell, rotation in ((DriveField(np.array([1.0]), ex, ey), Omega),
                           (drive, np.array([Omega]))):
        assert np.isnan(torque(model, cell, rotation)).all()
        values = cross_section_set(model, cell, rotation).as_dict()
        assert [k for k, v in values.items() if not np.isnan(v).all()] == [
            "sigma_in_minus"]


def _two_helicity_reference(model, drive, Omega):
    """(torque, the cross_section_set values) from both helicities' terms,
    an unexcited one (E_pm == 0) weighted 0.0: the kernel's formulas as
    they read when every helicity was evaluated, each power a product.
    Points in Python floats, arrays in numpy."""
    if np.ndim(drive.frequency) or np.ndim(Omega):
        omega, Omega = np.asarray(drive.frequency, float), np.asarray(Omega,
                                                                      float)
    else:
        omega, Omega = float(drive.frequency), float(Omega)
    e2 = drive.field_norm_sq
    gamma, tau = model.damping_rate, model.radiative_time
    osq = Omega * Omega
    w0 = model.natural_frequency
    spring = w0 * w0 - osq
    w_plus, w_minus = omega + Omega, omega - Omega
    plus2, minus2 = omega + 2.0 * Omega, omega - 2.0 * Omega
    tp, tm = abs(drive.e_plus) ** 2 / e2, abs(drive.e_minus) ** 2 / e2
    weights = []
    for e, share, w in ((drive.e_plus, tp, w_plus),
                        (drive.e_minus, tm, w_minus)):
        if e:
            a, b = spring - w * w, w * gamma + tau * w * (w * w + 3.0 * osq)
            d2 = a * a + b * b
            # NaN where |d|^2 overflows though A and B do not: these
            # formulas' weight underflows there, and the kernel's is
            # rescaled
            d2 = np.where(np.isinf(d2)
                          & np.isfinite(np.maximum(abs(a), abs(b))),
                          np.nan, d2)
            share = share / d2 if np.ndim(d2) or d2 else math.inf
        weights.append(share)
    tp, tm = weights
    brake = (-(gamma * w_plus + tau * (plus2 * plus2 * plus2)) * tp
             + (gamma * w_minus + tau * (minus2 * minus2 * minus2)) * tm)
    pref = model.scattering_prefactor
    osq3 = 3.0 * osq
    per_c = np.pi * model.coupling / model.light_speed

    def fourth(x):
        sq = x * x
        return sq * sq

    return (0.5 * model.coupling * e2 * brake, (
        per_c * Omega * brake,
        np.pi * gamma * model.coupling / model.light_speed
        * (w_plus * w_plus * tp + w_minus * w_minus * tm),
        pref * fourth(omega) * (tp + tm),
        pref * fourth(plus2) * tp,
        pref * fourth(minus2) * tm,
        np.pi * model.coupling * omega / model.light_speed * (
            w_plus * (gamma + tau * (w_plus * w_plus + osq3)) * tp
            + w_minus * (gamma + tau * (w_minus * w_minus + osq3)) * tm)))


@settings(max_examples=300, deadline=None)
@given(point=_points(), pol=st.sampled_from(["lcp", "rcp", "linear", "any"]),
       exr=amps, exi=amps, eyr=amps, eyi=amps,
       more=st.lists(finite, max_size=4),
       shape=st.sampled_from(["point", "omega", "Omega"]))
def test_kernel_matches_the_two_helicity_formulas(point, pol, exr, exi, eyr,
                                                  eyi, more, shape):
    # skipping the unexcited helicity changes no bits where the formulas
    # with both helicities are finite, except the sign of an exact zero
    model, omega, Omega = point
    base = {"lcp": DriveField.lcp(omega), "rcp": DriveField.rcp(omega),
            "linear": DriveField.linear(omega, 1.0, exr),
            "any": _drive(omega, exr, exi, eyr, eyi)}[pol]
    assume(base.field_norm_sq > 1e-12)
    if shape == "omega":
        drive = DriveField(np.array([omega, *more]), base.amplitude_x,
                           base.amplitude_y)
    else:
        drive = base
    if shape == "Omega":
        Omega = np.array([Omega, *more])
    with np.errstate(all="ignore"):
        ref_torque, ref_set = _two_helicity_reference(model, drive, Omega)
    for ref, view, pick in ((ref_torque, torque, lambda v: v),
                            (np.array(ref_set), cross_section_set,
                             lambda v: np.array(_values(v)))):
        finite_ref = np.isfinite(ref)
        if shape == "point" and not finite_ref.all():
            continue        # the point raises or not; nothing to compare
        got = pick(view(model, drive, Omega))
        # == tells -0.0 from nothing else: equal nonzero doubles are the
        # same bits
        np.testing.assert_array_equal(np.asarray(got)[finite_ref],
                                      np.asarray(ref)[finite_ref])


# ---------------------------------------------------------------------------
# the helicity amplitudes and the equation of motion


def test_hookes_law_statics():
    # static field along x: the dipole is Q^2/m * Ex / omega0^2 on the
    # frozen rod, linear in the coupling Q^2/m
    d = DriveField.linear(0.0, amplitude=0.7)
    for coupling in (1.0, 2.5):
        m = OscillatorModel.normalized(0.1, coupling=coupling)
        sp = induced_dipole_spectrum(m, d, 0.0)
        sx = sum(line.amplitude_x for line in sp)
        sy = sum(line.amplitude_y for line in sp)
        assert_allclose([sx.real, sx.imag], [coupling * 0.7 / 1.0**2, 0.0],
                        rtol=1e-14, atol=1e-15)
        assert abs(sy) < 1e-15


def test_ode_residual_reference_points():
    pts = [
        (OscillatorModel.normalized(0.1), DriveField.lcp(0.5), 0.2),
        (OscillatorModel.normalized(0.25, 0.1),
         DriveField(1.2, 0.8 - 0.1j, 0.3 + 0.45j), 0.4),
        (OscillatorModel.normalized(0.0, 0.3), DriveField.rcp(1.7), -0.9),
    ]
    for m, d, Om in pts:
        for t in (0.0, 1.3, 7.9):
            assert radial_ode_residual(m, d, Om, t) < 1e-12


@settings(max_examples=150, deadline=None)
@given(gamma=rates, tau=rates, w=finite, Om=finite,
       t=st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
def test_ode_residual_property(gamma, tau, w, Om, t):
    m = OscillatorModel.normalized(gamma, tau)
    d = DriveField(w, 0.6 + 0.2j, -0.4 + 0.3j)
    try:
        res = radial_ode_residual(m, d, Om, t)
    except SingularResonanceError:
        return
    assert res < 1e-10


@settings(max_examples=300, deadline=None)
@given(point=_points(), exr=amps, exi=amps, eyr=amps, eyi=amps,
       t=st.floats(min_value=0.0, max_value=30.0), t_kind=_KINDS)
def test_ode_residual_at_one_time_matches_an_array_of_times(
        point, exr, exi, eyr, eyi, t, t_kind):
    # a float, a numpy float and a 0-d array are the same one time
    model, omega, Omega = point
    drive = _drive(omega, exr, exi, eyr, eyi)
    try:
        expected = radial_ode_residual(model, drive, Omega, t)
    except (SingularResonanceError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            radial_ode_residual(model, drive, Omega, t_kind(t))
        return
    got = radial_ode_residual(model, drive, Omega, t_kind(t))
    assert type(got) is float
    assert got == expected


@pytest.mark.parametrize("t", [0.0, np.array(1.0)],
                         ids=["scalar", "array"])
def test_ode_residual_forms_no_power_beyond_its_terms(t):
    # w = 1e104: w**3 leaves the double range, but each derivative of the
    # amplitude E/d ~ 1e-208 stays finite; Python's complex power raised
    # "complex exponentiation" here
    res = radial_ode_residual(OscillatorModel.normalized(0.1, 0.0),
                              DriveField.lcp(1e104), 0.2, t)
    assert res <= 1e-15


def test_ode_residual_overflowing_amplitude_is_singular():
    # tau = 5e-324 on resonance: the denominator is not zero, but e/d
    # overflows, which is the lossless resonance to double precision
    m = OscillatorModel.normalized(0.0, 5e-324)
    d = DriveField(1.0, 0.6 + 0.2j, -0.4 + 0.3j)
    with pytest.raises(SingularResonanceError):
        radial_ode_residual(m, d, 0.0, 0.0)


def _rotation_even(formula, eps=1e-8):
    """``formula`` of the kernel times 1 + eps*Omega**2: exact at rest."""
    if formula is response._excited:   # B, which every route shares
        def excited(*args, **kwargs):
            omega, Omega, helicities = formula(*args, **kwargs)
            return omega, Omega, [(*h[:5], h[5] * (1 + eps * Omega**2))
                                  for h in helicities]
        return excited
    if formula is response._weights:       # |d|^2 = A*A + B*B
        def weights(*args, **kwargs):
            omega, Omega, helicities = formula(*args, **kwargs)
            scale = 1 + eps * Omega**2
            return omega, Omega, [(plus, w, w2, t / scale)
                                  for plus, w, w2, t in helicities]
        return weights
    if formula is response._brake:
        # the brake takes no Omega: each helicity's w - w2 is +/-Omega
        def brake(model, helicities):
            _, w, w2, _ = helicities[0]
            return formula(model, helicities) * (1 + eps * (w - w2)**2)
        return brake

    def perturbed(model, omega, Omega, helicities, **e2):   # torque: |E|^2
        out = formula(model, omega, Omega, helicities, **e2)
        if isinstance(out, tuple):          # the inelastic pair: plus only
            return out[0] * (1 + eps * Omega**2), out[1]
        return out * (1 + eps * Omega**2)
    return perturbed


def _sidebands_times(factor):
    """A mutant of the spectrum: both sidebands' amplitudes times
    ``factor``."""
    def mutant(spectrum):
        def scaled(*args):
            carrier, *sidebands = spectrum(*args)
            return response.DipoleSpectrum(carrier, *(
                line._replace(amplitude_x=factor * line.amplitude_x,
                              amplitude_y=factor * line.amplitude_y)
                for line in sidebands))
        return scaled
    return mutant


def _singular_cells_weighted(weights):
    """A mutant of ``_weights``: an array's singular weights are 1e300,
    not inf, so its singular cells come out finite instead of NaN."""
    def finite(*args, point=False):
        omega, Omega, helicities = weights(*args, point=point)
        if point:
            return omega, Omega, helicities
        return omega, Omega, [(plus, w, w2, np.where(np.isinf(t), 1e300, t))
                              for plus, w, w2, t in helicities]
    return finite


def _tau_doubled(model_class):
    """A mutant of the model class that both Drude mappings build: the
    radiative time of ``physical`` doubled."""
    class Doubled:
        @staticmethod
        def physical(*args):
            m = model_class.physical(*args)
            return dataclasses.replace(m,
                                       radiative_time=2 * m.radiative_time)
    return Doubled


def _mapped(change):
    """A mutant of a function: ``change`` applied to its result."""
    def mutant(function):
        return lambda *args, **kwargs: change(function(*args, **kwargs))
    return mutant


@pytest.mark.parametrize("target, mutant, caught_by", [
    ("response._brake", _rotation_even,
     {"balance-identity", "time-domain-oracle", "scan-roundtrip"}),
    ("response._elastic", _rotation_even,
     {"balance-identity", "scan-roundtrip"}),
    ("response._inelastic", _rotation_even,
     {"balance-identity", "mirror-symmetry"}),
    ("response._absorption", _rotation_even,
     {"balance-identity", "time-domain-oracle", "scan-roundtrip"}),
    ("response._torque", _rotation_even, {"time-domain-oracle"}),
    ("response._excited", _rotation_even,
     {"closed-form-solves-ode", "time-domain-oracle"}),
    # the Larmor powers of the lines come from the spectrum
    ("response._weights", _rotation_even,
     {"balance-identity", "time-domain-oracle"}),
    # the equation of motion reads the sidebands that users get; a phase
    # leaves the Larmor powers |p|^2 as they are
    ("validation.induced_dipole_spectrum", _sidebands_times(cmath.exp(0.1j)),
     {"closed-form-solves-ode"}),
    ("validation.induced_dipole_spectrum", _sidebands_times(1 + 1e-12),
     {"closed-form-solves-ode", "balance-identity"}),
    ("response._weights", _singular_cells_weighted, {"resonance-locus"}),
    # a defect that both Drude mappings share
    ("materials._finite_coupling", lambda f: lambda *a: 2.0 * f(*a),
     {"drude-mapping-consistency"}),
    ("materials.OscillatorModel", _tau_doubled,
     {"drude-mapping-consistency"}),
    # the sampled trajectory, and the last of its sample times
    ("dynamics.spin_up_trajectory", _mapped(
        lambda traj: traj._replace(rotation=traj.rotation * (1 + 1e-6))),
     {"spin-up-quadrature"}),
    ("dynamics._linspace",
     _mapped(lambda y: np.append(y[:-1], y[-1] * (1 + 1e-9))),
     {"spin-up-quadrature"}),
    ("dynamics.absorbed_power", _mapped(lambda p: 2 * p),
     {"time-domain-oracle"}),
    ("medium.sustaining_power", _mapped(lambda p: 2 * p), {"amplifier"}),
    ("medium.intensity_profile", _mapped(lambda zi: (zi[0], 2 * zi[1])),
     {"amplifier"}),
], ids=["brake", "elastic", "inelastic", "absorption", "torque",
        "denominator-B", "weights-norm", "sideband-phase",
        "sideband-amplitude", "singular-cells-finite", "drude-coupling",
        "drude-tau", "trajectory-rotation", "linspace-last-point",
        "absorbed-power", "sustaining-power", "intensity-profile"])
def test_validate_catches_rotation_dependent_formula_error(
        monkeypatch, target, mutant, caught_by):
    # one formula off, most by a relative 1e-8 * Omega**2, which vanishes
    # at rest: the checks named must fail, and every other check pass
    module, name = target.split(".")
    original = getattr(getattr(rotospin, module), name)
    monkeypatch.setattr(f"rotospin.{target}", mutant(original))
    failed = {r.name for r in validation.run_all(20260822) if not r.passed}
    assert failed == caught_by


def test_helicity_amplitudes_take_one_point():
    m = OscillatorModel.normalized(0.1, 1e-3)
    with pytest.raises(TypeError):
        induced_dipole_spectrum(m, DriveField.lcp(np.array([0.5, 1e155])),
                                0.2)
    with pytest.raises(TypeError):
        induced_dipole_spectrum(m, DriveField.lcp(0.5), np.array([0.2, 0.3]))
    # a huge scalar Omega, numpy's included, overflows like the kernel's
    # points: OverflowError, not a numpy RuntimeWarning
    for Omega in (1e155, np.float64(1e155)):
        with pytest.raises(OverflowError):
            induced_dipole_spectrum(m, DriveField.lcp(0.5), Omega)
        # co-rotating: w_minus = 0, but Omega*Omega is inf
        with pytest.raises(OverflowError):
            induced_dipole_spectrum(m, DriveField.lcp(Omega), Omega)
    # a numpy point comes back as Python floats and complexes, and
    # E_plus under LCP light gives a line of amplitude 0
    sp = induced_dipole_spectrum(m, DriveField.lcp(np.float64(0.5)),
                                 np.array(0.2))
    assert all(type(line.frequency) is float for line in sp)
    assert all(type(a) is complex for line in sp for a in line[1:])
    assert sp.upshifted[1:] == (0j, 0j) and sp.downshifted.norm_sq > 0


# ---------------------------------------------------------------------------
# dipole spectrum and its pairings with the cross sections


def test_spectrum_line_frequencies():
    sp = induced_dipole_spectrum(MODEL, DRIVE, OMEGA_ROT)
    assert sp.carrier.frequency == 0.5
    assert sp.upshifted.frequency == pytest.approx(0.9)
    assert sp.downshifted.frequency == pytest.approx(0.1)


def test_lcp_spectrum_has_no_upshifted_line():
    sp = induced_dipole_spectrum(MODEL, DRIVE, OMEGA_ROT)
    assert sp.upshifted.norm_sq == 0.0
    assert sp.downshifted.norm_sq > 0.0


def test_spectrum_collapses_to_single_line_at_rest():
    # at Omega = 0 the three lines coincide and sum coherently to the
    # static response K*Ex/d along x, with nothing along y
    m = OscillatorModel.physical(2.0, 1.0, 0.0, light_speed=1.0)
    d = DriveField.linear(0.3, 1.0, angle=0.4)
    sp = induced_dipole_spectrum(m, d, 0.0)
    sx = sum(line.amplitude_x for line in sp)
    sy = sum(line.amplitude_y for line in sp)
    expected = m.coupling * d.amplitude_x / (
        1.0 - 0.3 * 0.3 - 1j * m.radiative_time * 0.3**3)
    assert_allclose([sx.real, sx.imag], [expected.real, expected.imag],
                    rtol=1e-13)
    assert abs(sy) < 1e-15


def test_line_powers_reproduce_scattering_cross_sections():
    # independent route: Larmor power P = (4 nu^4 / 3 c^3)|p|^2 of each
    # spectral line, divided by the beam intensity, must equal the
    # corresponding cross section when tau is physically linked
    m = OscillatorModel.physical(0.9, 1.0, 0.2, light_speed=1.0)
    d = DriveField(0.7, 0.5 + 0.3j, -0.2 + 0.6j)
    Om = 0.3
    sp = induced_dipole_spectrum(m, d, Om)
    cs = cross_section_set(m, d, Om)
    intensity = d.intensity(m.light_speed)
    c3 = m.light_speed**3
    for line, sigma in ((sp.carrier, cs.elastic),
                        (sp.upshifted, cs.inelastic_plus),
                        (sp.downshifted, cs.inelastic_minus)):
        power = 4.0 * line.frequency**4 / (3.0 * c3) * line.norm_sq
        assert_allclose(power / intensity, sigma, rtol=1e-13)


def test_extinction_from_carrier_work():
    # sigma_ext * I = 2*omega*Im(p_carrier . conj(E)): the sidebands beat
    # against the drive at 2*Omega and average away for Omega != 0
    m = OscillatorModel.normalized(0.17, 0.05, coupling=1.3)
    d = DriveField(1.2, 0.8 - 0.1j, 0.3 + 0.45j)
    Om = 0.4
    p = induced_dipole_spectrum(m, d, Om).carrier
    pairing = (p.amplitude_x * np.conj(d.amplitude_x)
               + p.amplitude_y * np.conj(d.amplitude_y))
    sigma = 2.0 * d.frequency * pairing.imag / d.intensity(m.light_speed)
    assert_allclose(sigma, extinction_cross_section(m, d, Om), rtol=1e-13)


def test_static_rod_rayleigh_limit():
    # Omega = 0, gamma = 0, physically linked tau: the total scattering
    # equals half the textbook Rayleigh value (8pi/3)(w/c)^4 |alpha|^2;
    # the 1/2 is the orientation average of the drive projection on the
    # rod axis in the Omega -> 0 limit
    m = OscillatorModel.physical(2.0, 1.0, 0.0, light_speed=1.0)
    d = DriveField.linear(0.3, 1.0, angle=0.4)
    cs = cross_section_set(m, d, 0.0)
    total = cs.elastic + cs.inelastic_plus + cs.inelastic_minus
    alpha = validation.static_polarizability(m, 0.3)
    rayleigh = 8.0 * np.pi / 3.0 * 0.3**4 * abs(alpha) ** 2
    assert_allclose(total, 0.5 * rayleigh, rtol=1e-13)
    assert_allclose(cs.extinction, total, rtol=1e-13)  # nothing absorbed


def test_static_polarizability_basics():
    polarizability = validation.static_polarizability
    assert polarizability(MODEL, 0.0) == pytest.approx(1.0)  # K/w0^2
    m = OscillatorModel.normalized(0.0, 0.0, coupling=2.0)
    with pytest.raises(SingularResonanceError):
        polarizability(m, 1.0)


# ---------------------------------------------------------------------------
# singular resonances


def test_lossless_resonance_raises_scalar():
    lossless = OscillatorModel.normalized(0.0, 0.0)
    with pytest.raises(SingularResonanceError):
        torque(lossless, DriveField.lcp(1.0), 0.0)
    with pytest.raises(SingularResonanceError):
        cross_section_set(lossless, DriveField.lcp(1.0), 0.0)
    with pytest.raises(SingularResonanceError):
        induced_dipole_spectrum(lossless, DriveField.lcp(1.0), 0.0)


def test_lossless_resonance_locus_point():
    # (omega, Omega) = (1, 1) sits on the lower branch of the ellipse
    lossless = OscillatorModel.normalized(0.0, 0.0)
    with pytest.raises(SingularResonanceError):
        extinction_cross_section(lossless, DriveField.lcp(1.0), 1.0)


def test_corotation_corner_raises_for_damped_model():
    # omega = Omega = omega0 is singular for any gamma, tau: the rotating
    # frame sees a static force with no effective spring left
    m = OscillatorModel.normalized(0.3, 0.2)
    with pytest.raises(SingularResonanceError):
        torque(m, DriveField.lcp(1.0), 1.0)
    with pytest.raises(SingularResonanceError):
        absorption_cross_section(m, DriveField.lcp(1.0), 1.0)
    # nearby points are fine
    assert np.isfinite(torque(m, DriveField.lcp(1.0), 0.99))


@pytest.mark.parametrize("damping", [(0.0, 0.0), (0.3, 0.2)])
@pytest.mark.parametrize("pol, sign_w, sign_Om", [
    ("lcp", 1.0, 1.0), ("lcp", -1.0, -1.0),
    ("rcp", 1.0, -1.0), ("rcp", -1.0, 1.0)])
def test_corotation_corner_is_singular_in_both_routes(damping, pol, sign_w,
                                                      sign_Om):
    # libm's w0**2 is an ulp above w0*w0 here: both routes square by
    # multiplication, so the effective spring is exactly 0 in both, and
    # the point raises where the one-element arrays carry NaN (an
    # unexcited channel stays 0)
    w0 = 0.4020512460753265
    m = OscillatorModel.normalized(*damping, natural_frequency=w0)
    field = getattr(DriveField, pol)
    omega, Omega = sign_w * w0, sign_Om * w0
    for view in _VIEWS:
        with pytest.raises(SingularResonanceError):
            view(m, field(omega), Omega)
        for drive, rotation in ((field(np.array([omega])), Omega),
                                (field(omega), np.array([Omega]))):
            assert np.isnan(_values(view(m, drive, rotation))).any()


def test_equal_frequencies_below_resonance_are_regular():
    # omega = Omega by itself is harmless; only |Omega| = omega0 breaks it
    m = OscillatorModel.normalized(0.1)
    assert torque(m, DriveField.lcp(0.7), 0.7) == 0.0
    cs = cross_section_set(m, DriveField.lcp(0.7), 0.7)
    assert cs.mechanical == 0.0
    assert np.isfinite(cs.extinction)


@pytest.mark.parametrize("drive", [
    DriveField.lcp(0.5), DriveField.rcp(0.5), DriveField.linear(0.5)],
    ids=["lcp", "rcp", "linear"])
@pytest.mark.parametrize("Omega", [0.2, -0.2])
@pytest.mark.parametrize("tau", [1e155, 1e156, 1e300])
def test_huge_radiative_time_keeps_the_one_over_tau_channels(tau, Omega,
                                                             drive):
    # B ~ tau w^3 is finite, but |d|^2 = A*A + B*B overflows once |B|
    # passes 1.3e154: the weight share / |d|^2 underflows, while the
    # channels that go as 1/tau are far above the underflow limit.  At
    # tau = 1e155 that is so only in the helicity at |w +/- Omega| = 0.7,
    # the first or the second, and from tau = 1e156 in both.  At
    # tau = 1e150 |d|^2 is finite, and the rest of d is 1e-150 of B.
    near = OscillatorModel.normalized(0.1, 1e150)
    model = OscillatorModel.normalized(0.1, tau)
    expected = [v * 1e150 for v in _values(cross_section_set(
        near, drive, Omega))] + [torque(near, drive, Omega) * 1e150]
    cell = DriveField(np.array([0.5]), drive.amplitude_x, drive.amplitude_y)
    point = [*_values(cross_section_set(model, drive, Omega)),
             torque(model, drive, Omega)]
    array = [*_cell(cross_section_set(model, cell, Omega)),
             *_cell(torque(model, cell, Omega))]
    assert [v.hex() for v in point] == [v.hex() for v in array]
    names = [*CrossSectionSet._fields, "torque"]
    for name, got, want in zip(names, point, expected):
        if name == "absorption" or want == 0.0:     # 1/tau^2, or unexcited
            continue
        assert got != 0.0
        assert got * tau == pytest.approx(want, rel=1e-14, abs=0.0), name


def test_overflow_far_from_resonance_is_not_singular():
    # at Omega = 1e300 every denominator is far from zero, but its square
    # and the frequency powers leave the range of doubles
    for Om in (np.float64(1e300), 1e300):
        with pytest.raises(OverflowError):
            torque(MODEL, DRIVE, Om)
        with pytest.raises(OverflowError):
            cross_section_set(MODEL, DRIVE, Om)


def test_singular_points_propagate_nan_in_arrays():
    m = OscillatorModel.normalized(0.3, 0.2)
    omegas = np.array([0.5, 1.0, 1.5])
    cs = cross_section_set(m, DriveField.lcp(omegas), 1.0)
    assert np.isfinite(cs.extinction[0]) and np.isfinite(cs.extinction[2])
    assert np.isnan(cs.extinction[1])
    assert np.isnan(cs.absorption[1])
    assert np.isnan(cs.mechanical[1])
    mvals = torque(m, DriveField.lcp(omegas), 1.0)
    assert np.isnan(mvals[1]) and np.isfinite(mvals[0])


# ---------------------------------------------------------------------------
# resonance locus


def test_resonance_locus_on_ellipse():
    # the branch Omega^2 + (w - Omega)^2 = omega0^2 zeroes d_minus, the
    # branch Omega^2 + (w + Omega)^2 = omega0^2 zeroes d_plus
    lossless = OscillatorModel.normalized(0.0, 0.0, natural_frequency=2.0)
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    Om = 2.0 * np.sin(theta)
    for sign, which in ((-1.0, 1), (1.0, 0)):
        w = 2.0 * np.cos(theta) - sign * Om
        assert_allclose(Om**2 + (w + sign * Om) ** 2, 4.0, rtol=1e-12)
        for x, y in zip(w, Om):
            assert abs(_d_pm(lossless, x, y)[which]) <= 1e-13


def test_resonance_locus_hits_exact_zeros():
    lossless = OscillatorModel.normalized(0.0, 0.0)
    # lower branch: theta = pi/2 gives (omega, Omega) = (1, 1)
    assert _d_pm(lossless, 1.0, 1.0)[1] == 0.0
    # upper branch: (1, -1)
    assert _d_pm(lossless, 1.0, -1.0)[0] == 0.0
    # both branches pass through (omega0, 0)
    assert _d_pm(lossless, 1.0, 0.0)[1] == 0.0


# ---------------------------------------------------------------------------
# model construction


def test_model_validation():
    with pytest.raises(ValueError):
        OscillatorModel(0.0, 1.0, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        OscillatorModel(1.0, -1.0, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        OscillatorModel(1.0, 1.0, -0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        OscillatorModel(1.0, 1.0, 0.1, -1e-3, 1.0)
    with pytest.raises(ValueError, match="light_speed must be positive"):
        OscillatorModel(1, 1, 0, 0, light_speed=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            OscillatorModel(1.0, 1.0, bad, 0.0, 1.0)
        with pytest.raises(ValueError):
            OscillatorModel(1.0, 1.0, 0.1, bad, 1.0)


def test_drive_field_rejects_non_finite():
    for bad in (np.nan, np.inf):
        for args in ((bad, 1.0, 0.0), (np.array([0.5, bad]), 1.0, 0.0),
                     (0.5, complex(bad, 0.0), 0.0), (0.5, 1.0, 1j * bad)):
            with pytest.raises(ValueError, match="finite"):
                DriveField(*args)


def test_physical_link():
    m = OscillatorModel.physical(3.0, 2.0, 0.1, light_speed=2.0)
    assert m.radiative_time == pytest.approx(2.0 * 3.0 / (3.0 * 8.0))
    assert m.radiative_time == 2.0 * m.coupling / (3.0 * m.light_speed**3)


def test_scattering_prefactor_definition():
    m = OscillatorModel.normalized(0.1, 0.2, coupling=1.5, light_speed=2.0)
    assert m.scattering_prefactor == pytest.approx(
        np.pi * 1.5 / 2.0 * 0.2 / 2.0, rel=1e-15)
