"""Tests for the closed-form response: denominators, torque, the six
cross sections, the energy balance, the helicity amplitudes and the
dipole spectrum, and the singular-resonance handling."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from rotospin import (
    CrossSectionSet,
    DriveField,
    OscillatorModel,
    SingularResonanceError,
    absorption_cross_section,
    cross_section_set,
    extinction_cross_section,
    induced_dipole_spectrum,
    mechanical_cross_section,
    radial_ode_residual,
    resonance_locus,
    static_polarizability,
    torque,
)
from rotospin import response, validation
from rotospin.response import (_Shifted, _denominators, _helicity_amplitudes,
                               _weights)

# reference point used throughout: omega = 0.5, Omega = 0.2, gamma = 0.1,
# tau = 0, LCP drive with |E| = 1 (normalized units)
MODEL = OscillatorModel.normalized(0.1)
DRIVE = DriveField.lcp(0.5)
OMEGA_ROT = 0.2


# ---------------------------------------------------------------------------
# frequency bookkeeping and field conventions


def test_shifted_frequencies():
    s = _Shifted(0.5, 0.2)
    assert_allclose([s.plus, s.minus, s.plus2, s.minus2],
                    [0.7, 0.3, 0.9, 0.1], rtol=1e-15)


def test_shifted_frequencies_signed():
    s = _Shifted(1.0, -0.3)
    assert_allclose([s.plus, s.minus, s.plus2, s.minus2],
                    [0.7, 1.3, 0.4, 1.6], rtol=1e-15)


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


def test_mirrored_swaps_helicities():
    d = DriveField(0.5, 0.3 + 0.2j, -0.1 + 0.7j)
    md = d.mirrored()
    assert md.e_plus == d.e_minus
    assert md.e_minus == d.e_plus


# ---------------------------------------------------------------------------
# denominators


def _d_pm(model, omega, Omega):
    """(d_plus, d_minus) at one (omega, Omega) point."""
    return _denominators(model, _Shifted(omega, Omega), Omega)


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
    # under LCP light the other views are exactly 0.0 and must not raise,
    # while the set, which holds the scattering channels, does
    m = OscillatorModel.normalized(0.1, 1e-3)
    d = DriveField.lcp(1e80)
    for view in (mechanical_cross_section, absorption_cross_section,
                 extinction_cross_section, torque):
        assert view(m, d, 0.5) == 0.0
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


def _helicity_parts(drive):
    """The drive's E_plus-only and E_minus-only components, each a drive."""
    ep, em = drive.e_plus / 2.0, drive.e_minus / 2.0
    return (DriveField(drive.frequency, ep, -1j * ep),
            DriveField(drive.frequency, em, 1j * em))


@st.composite
def _points(draw):
    """(model, omega, Omega): anywhere, on the lossless resonance ellipse,
    at a co-rotation corner omega = +/-Omega with |Omega| = omega0, or at
    a huge drive frequency."""
    w0 = draw(st.floats(0.25, 4.0))
    where = draw(st.sampled_from(["any", "ellipse", "corner", "huge"]))
    if where == "ellipse":
        branch = draw(st.sampled_from(["lower", "upper"]))
        omega, Omega = resonance_locus(w0, branch, 16)[draw(st.integers(0, 15))]
        return (OscillatorModel.normalized(0.0, 0.0, natural_frequency=w0),
                float(omega), float(Omega))
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
        *_, tp, tm = _weights(model, cell, Omega)
    singular = bool(np.isinf(tp) | np.isinf(tm))
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
        # the two routes differ only in how numpy and libm round powers;
        # the scale bounds the helicity sum's cancellation
        scale = np.zeros(len(got))
        for part in _helicity_parts(base):
            share = part.field_norm_sq / base.field_norm_sq
            if share:
                scale += np.abs(_values(view(model, part, Omega))) * (
                    1.0 if view is torque else share)
        for g, e, s in zip(got, expected, scale):
            assert abs(g - e) <= 1e-14 * max(abs(g), abs(e), s)


# repr of the values and messages of the errors, as the kernel gave them
# before points were evaluated in plain floats
_PINNED = {
    "lcp": (
        OscillatorModel.normalized(0.1, 0.02), DriveField.lcp(0.5), 0.2,
        "0.03961063941648056",
        "CrossSectionSet(mechanical=0.04977619751792386, "
        "absorption=0.07461455324139153, elastic=0.005181566197318857, "
        "inelastic_plus=0.0, inelastic_minus=8.290505915710163e-06, "
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
        "absorption=0.24318241694489243, elastic=0.034684679241918, "
        "inelastic_plus=0.5089060998787526, inelastic_minus=0.7367802878709632, "
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
    assert repr(torque(*huge)) == "0.0"
    with pytest.raises(OverflowError) as info:
        cross_section_set(*huge)
    assert str(info.value) == "(34, 'Numerical result out of range')"
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


# ---------------------------------------------------------------------------
# the helicity amplitudes and the equation of motion


def test_hookes_law_statics():
    # static field along x: the dipole is Q^2/m * Ex / omega0^2 on the
    # frozen rod, linear in the coupling Q^2/m
    d = DriveField.linear(0.0, amplitude=0.7)
    for coupling in (1.0, 2.5):
        m = OscillatorModel.normalized(0.1, coupling=coupling)
        sp = induced_dipole_spectrum(m, d, 0.0)
        sx = sum(line.amplitude_x for line in sp.lines())
        sy = sum(line.amplitude_y for line in sp.lines())
        assert_allclose([sx.real, sx.imag], [coupling * 0.7 / 1.0**2, 0.0],
                        rtol=1e-14, atol=1e-15)
        assert abs(sy) < 1e-15


def test_displacement_is_real_array():
    # an array of times gives a real array of equation-of-motion residuals
    t = np.linspace(0.0, 20.0, 64)
    res = radial_ode_residual(MODEL, DRIVE, OMEGA_ROT, t)
    assert res.shape == t.shape
    assert res.dtype == np.float64
    assert np.all(res < 1e-12)


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
    model, omega, Omega = point
    drive = _drive(omega, exr, exi, eyr, eyi)
    try:
        element = radial_ode_residual(model, drive, Omega, np.array([t]))[0]
    except (SingularResonanceError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            radial_ode_residual(model, drive, Omega, t_kind(t))
        return
    got = radial_ode_residual(model, drive, Omega, t_kind(t))
    assert type(got) is float
    # numpy's complex product of arrays may round apart from the scalar
    # formula; the residual is in units of the sum of all the terms
    assert abs(got - element) <= 1e-15


def test_ode_residual_overflowing_amplitude_is_singular():
    # tau = 5e-324 on resonance: the denominator is not zero, but e/d
    # overflows, which is the lossless resonance to double precision
    m = OscillatorModel.normalized(0.0, 5e-324)
    d = DriveField(1.0, 0.6 + 0.2j, -0.4 + 0.3j)
    with pytest.raises(SingularResonanceError):
        radial_ode_residual(m, d, 0.0, 0.0)


def test_ode_check_catches_amplitude_error(monkeypatch):
    # the closed form solves the radial equation to about 1e-16, so both
    # helicity amplitudes off by a uniform 1e-12 fail the check
    rng = random.Random(0)
    assert validation.check_ode_residual(rng).passed

    def scaled(*args):
        omega, Omega, s, a_plus, a_minus = _helicity_amplitudes(*args)
        return omega, Omega, s, a_plus * (1 + 1e-12), a_minus * (1 + 1e-12)

    monkeypatch.setattr(response, "_helicity_amplitudes", scaled)
    assert not validation.check_ode_residual(rng).passed


def _rotation_even(formula, eps=1e-8):
    """``formula`` of the kernel times 1 + eps*Omega**2: exact at rest."""
    if formula is response._brake:
        # the brake takes no Omega: s.plus - s.minus = 2*Omega
        return lambda model, s, tp, tm: formula(model, s, tp, tm) * (
            1 + eps * ((s.plus - s.minus) / 2)**2)

    def perturbed(model, omega, Omega, s, tp, tm, **e2):   # torque: |E|^2
        out = formula(model, omega, Omega, s, tp, tm, **e2)
        if isinstance(out, tuple):          # the inelastic pair: plus only
            return out[0] * (1 + eps * Omega**2), out[1]
        return out * (1 + eps * Omega**2)
    return perturbed


@pytest.mark.parametrize("name, caught_by", [
    ("_brake", {"balance-identity", "time-domain-oracle", "scan-roundtrip"}),
    ("_elastic", {"balance-identity", "scan-roundtrip"}),
    ("_inelastic", {"balance-identity", "mirror-symmetry"}),
    ("_absorption", {"balance-identity", "time-domain-oracle",
                     "scan-roundtrip"}),
    ("_torque", {"time-domain-oracle"}),
], ids=["brake", "elastic", "inelastic", "absorption", "torque"])
def test_validate_catches_rotation_dependent_formula_error(monkeypatch, name,
                                                           caught_by):
    # one channel formula off by a relative 1e-8 * Omega**2, which vanishes
    # at rest: the checks named must fail, whatever the others read
    monkeypatch.setattr(response, name,
                        _rotation_even(getattr(response, name)))
    failed = {r.name for r in validation.run_all() if not r.passed}
    assert caught_by <= failed


def test_helicity_amplitudes_take_one_point():
    m = OscillatorModel.normalized(0.1, 1e-3)
    with pytest.raises(TypeError):
        _helicity_amplitudes(m, DriveField.lcp(np.array([0.5, 1e155])), 0.2)
    with pytest.raises(TypeError):
        induced_dipole_spectrum(m, DriveField.lcp(0.5), np.array([0.2, 0.3]))
    # a huge scalar Omega, numpy's included, overflows like the kernel's
    # points: OverflowError, not a numpy RuntimeWarning
    for Omega in (1e155, np.float64(1e155)):
        for route in (induced_dipole_spectrum, _helicity_amplitudes):
            with pytest.raises(OverflowError):
                route(m, DriveField.lcp(0.5), Omega)
    # a numpy point comes back as Python floats
    omega, Omega, s, a_plus, a_minus = _helicity_amplitudes(
        m, DriveField.lcp(np.float64(0.5)), np.array(0.2))
    assert all(type(v) is float for v in (omega, Omega, s.plus, s.minus2))
    assert a_plus == 0j and type(a_minus) is complex


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
    sx = sum(line.amplitude_x for line in sp.lines())
    sy = sum(line.amplitude_y for line in sp.lines())
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
    alpha = static_polarizability(m, 0.3)
    rayleigh = 8.0 * np.pi / 3.0 * 0.3**4 * abs(alpha) ** 2
    assert_allclose(total, 0.5 * rayleigh, rtol=1e-13)
    assert_allclose(cs.extinction, total, rtol=1e-13)  # nothing absorbed


def test_static_polarizability_basics():
    assert static_polarizability(MODEL, 0.0) == pytest.approx(1.0)  # K/w0^2
    m = OscillatorModel.normalized(0.0, 0.0, coupling=2.0)
    with pytest.raises(SingularResonanceError):
        static_polarizability(m, 1.0)


def test_static_polarizability_array_overflow_is_quiet():
    # an overflowing cell reads as a non-finite value, without a numpy
    # RuntimeWarning (which the test configuration turns into an error)
    m = OscillatorModel.normalized(0.1, 1e-3)
    alpha = static_polarizability(m, np.array([1e120, 0.5]))
    assert not np.isfinite(alpha[0])
    assert alpha[1] == static_polarizability(m, 0.5)
    # a numpy scalar is a point too, and overflows like a Python float
    for point in (1e120, np.float64(1e120)):
        with pytest.raises(OverflowError):
            static_polarizability(m, point)


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


def test_equal_frequencies_below_resonance_are_regular():
    # omega = Omega by itself is harmless; only |Omega| = omega0 breaks it
    m = OscillatorModel.normalized(0.1)
    assert torque(m, DriveField.lcp(0.7), 0.7) == 0.0
    cs = cross_section_set(m, DriveField.lcp(0.7), 0.7)
    assert cs.mechanical == 0.0
    assert np.isfinite(cs.extinction)


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
    for branch, sign in (("lower", -1.0), ("upper", 1.0)):
        pts = resonance_locus(2.0, branch, 64)
        assert pts.shape == (64, 2)
        w, Om = pts[:, 0], pts[:, 1]
        assert_allclose(Om**2 + (w + sign * Om) ** 2, 4.0, rtol=1e-12)


def test_resonance_locus_hits_exact_zeros():
    lossless = OscillatorModel.normalized(0.0, 0.0)
    # lower branch: theta = pi/2 gives (omega, Omega) = (1, 1)
    assert _d_pm(lossless, 1.0, 1.0)[1] == 0.0
    # upper branch: (1, -1)
    assert _d_pm(lossless, 1.0, -1.0)[0] == 0.0
    # both branches pass through (omega0, 0)
    assert _d_pm(lossless, 1.0, 0.0)[1] == 0.0


def test_resonance_locus_validation():
    with pytest.raises(ValueError):
        resonance_locus(1.0, branch="sideways")
    with pytest.raises(ValueError):
        resonance_locus(1.0, n_points=1)


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
