"""Self-check suite behind ``rotospin validate``.

Each check re-derives a property of the model along an independent route
(direct Newtonian integration, quadrature, re-parsed exports, symmetry
arguments) and compares against the closed forms.  The suite is seeded,
so two runs always test the same points: the checks draw them one value
at a time from a ``random.Random``.
"""

from __future__ import annotations

import cmath
import math
import os
import random
import tempfile
from typing import NamedTuple

import numpy as np

from . import dynamics, medium, scan, timedomain
from .materials import (DrudeEllipsoid, DrudeSphere, from_drude_ellipsoid,
                        from_drude_sphere)
from .response import (DriveField, OscillatorModel, SingularResonanceError,
                       absorption_cross_section, cross_section_set,
                       extinction_cross_section, induced_dipole_spectrum,
                       torque)

BALANCE_TOL = 1e-10
ODE_TOL = 1e-14
TIME_DOMAIN_TOL = 1e-12
QUADRATURE_TOL = 1e-10
RIDGE_TOL = 1e-6
CONSISTENCY_TOL = 1e-12
MAPPING_TOL = 1e-14
#: steps of the spin-up reference per estimated time to the target
_RK4_STEPS = 64
#: (density, radius, surface tension) of the spheres whose burst
#: frequency is checked: a unit sphere, a water droplet and a gold grain
_BURST_SPHERES = ((1.0, 1.0, 1.0), (1.0, 5e-4, 72.0), (19.3, 2e-5, 1.1e3))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _random_model(rng, linked):
    coupling = rng.uniform(0.1, 3.0)
    gamma = rng.uniform(0.0, 0.5)
    if linked:
        return OscillatorModel.physical(coupling, 1.0, gamma, light_speed=1.0)
    tau = rng.uniform(0.0, 0.2)
    return OscillatorModel.normalized(gamma, tau, coupling=coupling)


def _random_case(rng, linked):
    """A random model, elliptic drive and rotation frequency Omega."""
    m, u = _random_model(rng, linked), rng.uniform
    d = DriveField(u(-3.0, 3.0), complex(u(-1.0, 1.0), u(-1.0, 1.0)),
                   complex(u(-1.0, 1.0), u(-1.0, 1.0)))
    return m, d, u(-3.0, 3.0)


def check_balance_identity(rng) -> CheckResult:
    """The power balance, and each scattering cross section times I
    against the Larmor power 4 nu^4 |p|^2 / 3c^3 of its spectral line,
    which comes from the helicity amplitudes, not the weights."""
    worst = larmor = 0.0
    for _ in range(1000):
        m, d, Om = _random_case(rng, linked=True)
        cs = cross_section_set(m, d, Om)
        scale = cs.balance_scale
        if scale > 0:
            worst = max(worst, abs(cs.balance_residual) / scale)
        intensity = d.intensity(m.light_speed)
        for sigma, line in zip(
                (cs.elastic, cs.inelastic_plus, cs.inelastic_minus),
                induced_dipole_spectrum(m, d, Om)):
            x = sigma * intensity
            y = 4.0 * line.frequency**4 * line.norm_sq / (
                3.0 * m.light_speed**3)
            if x or y:
                larmor = max(larmor, abs(x - y) / max(x, y))
    return CheckResult("balance-identity", worst <= BALANCE_TOL
                       and larmor <= CONSISTENCY_TOL,
                       f"max relative residual {worst:.3e}, max relative "
                       f"Larmor deviation {larmor:.3e}, over 1000 tuples")


def check_polynomial_identity(rng) -> CheckResult:
    w = np.array([rng.uniform(-5.0, 5.0) for _ in range(500)])
    Om = np.array([rng.uniform(-5.0, 5.0) for _ in range(500)])
    wp = w + Om
    wpp = w + 2.0 * Om
    lhs = w * wp * (wp**2 + 3.0 * Om**2)
    rhs = (w**4 + wpp**4) / 2.0 - Om * wpp**3
    scale = np.maximum(np.abs(lhs) + np.abs(rhs), 1.0)
    worst = float(np.max(np.abs(lhs - rhs) / scale))
    return CheckResult("power-bookkeeping-polynomial", worst <= BALANCE_TOL,
                       f"max relative deviation {worst:.3e}")


def radial_ode_residual(model, drive, Omega, t) -> float:
    """Relative residual of the displacement that the dipole spectrum
    gives in the radial equation of motion

        omega0^2 rho - Omega^2 rho + rho'' + gamma rho'
            - tau rho''' + 3 tau Omega^2 rho'  =  (Q/m) E . rho_hat.

    Each excited helicity moves the bead as one complex exponential at
    w = omega +/- Omega, of amplitude its sideband's x amplitude over
    (Q^2/m)/4.  Derivatives are taken analytically term by term, so this
    checks the algebra of the closed form, not an integrator.  The
    residual is normalized by the sum of the magnitudes of all
    contributions, making 10^-16-level output the signature of a correct
    steady state; Q/m multiplies every term and cancels from it.  Takes
    one time ``t`` and one point, raises what ``induced_dipole_spectrum``
    raises there, runs in Python floats and complexes and returns a
    float.
    """
    spectrum = induced_dipole_spectrum(model, drive, Omega)
    omega, Omega = spectrum.carrier.frequency, float(Omega)
    q = model.coupling / 4.0
    w0 = model.natural_frequency
    w0sq, osq = w0 * w0, Omega * Omega
    gamma = model.damping_rate
    tau = model.radiative_time

    t = float(t)
    residual = scale = 0.0
    for plus, e in drive.excited:
        if plus:
            w, a = omega + Omega, spectrum.upshifted.amplitude_x / q
        else:
            w, a = omega - Omega, spectrum.downshifted.amplitude_x / q
        # each derivative is the previous one times -i*w, and each
        # magnitude the previous one times |w|: a term overflows only
        # where its own value does, never through a power of w alone
        iw = -1j * w
        ph = cmath.exp(iw * t)
        rho = a * ph
        rho1 = rho * iw
        rho2 = rho1 * iw
        rho3 = rho2 * iw
        residual += (w0sq * rho.real - osq * rho.real + rho2.real
                     + gamma * rho1.real - tau * rho3.real
                     + 3.0 * tau * osq * rho1.real - (e * ph).real)
        aw = abs(w)
        m1 = abs(a) * aw
        m2 = m1 * aw
        scale += ((w0sq + osq) * abs(a) + m2 + gamma * m1
                  + tau * (m2 * aw + 3.0 * osq * m1) + abs(e))
    if scale == 0:
        return 0.0
    return abs(residual) / scale


def check_ode_residual(rng) -> CheckResult:
    worst = 0.0
    for _ in range(1000):
        res = radial_ode_residual(*_random_case(rng, rng.random() < 0.5),
                                  rng.uniform(0.0, 20.0))
        worst = max(worst, res)
    return CheckResult("closed-form-solves-ode", worst <= ODE_TOL,
                       f"max relative residual {worst:.3e} over 1000 points")


def check_time_domain(rng) -> CheckResult:
    cases = [
        (OscillatorModel.normalized(0.1), DriveField.lcp(0.5), 0.2),
        (OscillatorModel.normalized(0.25),
         DriveField(1.2, 0.8 - 0.1j, 0.3 + 0.45j), 0.4),
    ]
    worst = 0.0
    for m, d, Om in cases:
        avg = timedomain.force_law_averages(m, d, Om)
        closed_m = torque(m, d, Om)
        closed_p = dynamics.absorbed_power(
            absorption_cross_section(m, d, Om), d.intensity(m.light_speed))
        worst = max(worst,
                    abs(avg.torque - closed_m) / abs(closed_m),
                    abs(avg.absorbed_power - closed_p) / abs(closed_p))
    return CheckResult("time-domain-oracle", worst <= TIME_DOMAIN_TOL,
                       f"max relative deviation {worst:.3e}")


def check_sign_structure(rng) -> CheckResult:
    omegas = np.linspace(1e-3, 3.0, 301)
    omegas = omegas[omegas != 2.0]
    ext = extinction_cross_section(OscillatorModel.normalized(0.1, 1e-4),
                                   DriveField.lcp(omegas), 2.0)
    w, Om = np.meshgrid(np.linspace(0.0, 2.0, 64), np.linspace(0.0, 2.0, 64))
    mval = torque(OscillatorModel.normalized(0.1), DriveField.lcp(w), Om)
    # a NaN counts as a wrong sign
    wrong = int(np.count_nonzero(np.sign(ext) != np.sign(omegas - 2.0))
                + np.count_nonzero(np.sign(mval) != np.sign(w - Om)))
    return CheckResult("sign-structure", wrong == 0,
                       f"{wrong} of {omegas.size + mval.size} cells off the "
                       "expected sign: extinction flips at omega = Omega, "
                       "torque follows sign(omega - Omega) at tau = 0")


def check_mirror_symmetry(rng) -> CheckResult:
    worst = 0.0
    for _ in range(200):
        m, d, Om = _random_case(rng, rng.random() < 0.5)
        a = cross_section_set(m, d, Om)
        b = cross_section_set(m, d.mirrored(), -Om)
        pairs = ((a.absorption, b.absorption), (a.elastic, b.elastic),
                 (a.inelastic_plus, b.inelastic_minus),
                 (a.inelastic_minus, b.inelastic_plus),
                 (torque(m, d, Om), -torque(m, d.mirrored(), -Om)))
        for x, y in pairs:
            scale = max(abs(x), abs(y), 1e-300)
            worst = max(worst, abs(x - y) / scale)
    return CheckResult("mirror-symmetry", worst <= BALANCE_TOL,
                       f"max relative asymmetry {worst:.3e}")


def static_polarizability(model, omega) -> complex:
    """Complex polarizability of the rod at rest at one drive frequency,
    alpha = (Q^2/m) / (omega0^2 - w(w + i*gamma) - i*tau*w^3)."""
    d = (model.natural_frequency**2 - omega * (omega + 1j * model.damping_rate)
         - 1j * model.radiative_time * omega**3)
    if d == 0:
        raise SingularResonanceError(
            "lossless model driven exactly at its natural frequency")
    return model.coupling / d


def check_optical_theorem(rng) -> CheckResult:
    """Im(-1/alpha) splits into its radiative part 2 w^3 / 3c^3 and its
    friction part gamma w / (Q^2/m) where tau is linked to the coupling."""
    worst = 0.0
    for _ in range(100):
        m = _random_model(rng, linked=True)
        w = rng.uniform(0.05, 3.0)
        ref = (-1.0 / static_polarizability(m, w)).imag
        res = (ref - 2.0 * w**3 / (3.0 * m.light_speed**3)
               - m.damping_rate * w / m.coupling)
        worst = max(worst, abs(res) / max(abs(ref), 1e-300))
    return CheckResult("optical-theorem", worst <= CONSISTENCY_TOL,
                       f"max relative residual {worst:.3e}")


def check_static_torque_consistency(rng) -> CheckResult:
    """At rest the rod, polarizable along its axis only, feels the dipole
    torque |E|^2 Im(alpha) under LCP light."""
    worst = 0.0
    for _ in range(100):
        m = _random_model(rng, linked=rng.random() < 0.5)
        w = rng.uniform(0.05, 3.0)
        amp = rng.uniform(0.1, 2.0)
        d = DriveField.lcp(w, amp)
        full = torque(m, d, 0.0)
        dip = d.field_norm_sq * static_polarizability(m, w).imag
        worst = max(worst, abs(full - dip) / max(abs(full), 1e-300))
    return CheckResult("static-limit-torque", worst <= CONSISTENCY_TOL,
                       f"max relative deviation {worst:.3e}")


def check_mapping_consistency(rng) -> CheckResult:
    """The sphere mapping against the L=1/3 ellipsoid of its volume, and
    against its closed form, which a defect of both mappings fails:
    omega0 = wp/sqrt(3) = 1, K = omega0^2 R^3 = 1, tau = 2K/3c^3 = 2/3
    and gamma copied."""
    sphere = DrudeSphere(plasma_frequency=np.sqrt(3.0), damping=0.1,
                         radius=1.0)
    as_sphere = from_drude_sphere(sphere, light_speed=1.0)
    as_ellipsoid = from_drude_ellipsoid(
        DrudeEllipsoid(plasma_frequency=np.sqrt(3.0), damping=0.1,
                       volume=4.0 * np.pi / 3.0, depolarization_factor=1/3),
        light_speed=1.0)
    fields = ("natural_frequency", "coupling", "damping_rate",
              "radiative_time")

    def off(reference):
        return max(abs(getattr(as_sphere, f) - y) / abs(y)
                   for f, y in zip(fields, reference))

    worst = off([getattr(as_ellipsoid, f) for f in fields])
    closed = off((1.0, 1.0, 0.1, 2.0 / 3.0))
    ok = (max(worst, closed) <= MAPPING_TOL
          and as_sphere.damping_rate == as_ellipsoid.damping_rate)
    return CheckResult("drude-mapping-consistency", ok,
                       f"max relative difference {worst:.3e} between the "
                       "sphere and L=1/3 ellipsoid mappings, "
                       f"{closed:.3e} off the sphere's closed form")


def ode_spin_up_time(model, drive, body, Omega_target) -> float:
    """Time from rest to Omega_target > 0 by stepping dOmega/dt = M/I
    in time (classical RK4 in 64 steps per estimated time
    I Omega_target / M(0), bisection on the cubic Hermite of the step that
    gets there), apart from the quadrature in Omega that ``dynamics``
    uses; inf when the run does not get there within ten estimated
    times."""
    def rate(Omega):
        return torque(model, drive, Omega) / body.moment_of_inertia

    x, k = 0.0, rate(0.0)
    if not k > 0.0:
        return np.inf   # the torque at rest does not spin the body up
    h = Omega_target / k / _RK4_STEPS
    for n in range(10 * _RK4_STEPS):
        k2 = rate(x + 0.5 * h * k)
        k3 = rate(x + 0.5 * h * k2)
        x_end = x + h / 6.0 * (k + 2.0 * k2 + 2.0 * k3 + rate(x + h * k3))
        k_end = rate(x_end)
        if x_end >= Omega_target:
            c2 = 3.0 * (x_end - x) - h * (2.0 * k + k_end)
            c3 = h * (k + k_end) - 2.0 * (x_end - x)
            lo, hi = 0.0, 1.0
            while hi - lo > 1e-15:
                s = 0.5 * (lo + hi)
                reached = x + s * (h * k + s * (c2 + s * c3)) >= Omega_target
                lo, hi = (lo, s) if reached else (s, hi)
            return (n + 0.5 * (lo + hi)) * h
        x, k = x_end, k_end
    return np.inf


def check_quadrature_equivalence(rng) -> CheckResult:
    worst = samples_off = 0.0
    for _ in range(5):
        m = OscillatorModel.normalized(rng.uniform(0.05, 0.3))
        d = DriveField.lcp(rng.uniform(0.2, 0.8))
        body = dynamics.RigidBodyParams(rng.uniform(0.5, 20.0))
        target = rng.uniform(1e-4, 1e-2)
        t_ode = ode_spin_up_time(m, d, body, target)
        t_quad = dynamics.time_to_target_by_quadrature(m, d, body, target)
        worst = max(worst, abs(t_ode - t_quad) / t_quad)
        # the sampled trajectory lies on the quadrature's t(Omega)
        traj = dynamics.spin_up_trajectory(m, d, body, 0.0, target,
                                           n_samples=9)
        for t, Om in zip(traj.times, traj.rotation):
            samples_off = max(samples_off, abs(
                dynamics.time_to_target_by_quadrature(m, d, body, Om) - t)
                / t_quad)
    # the burst estimate against its closed form draws nothing from rng
    burst_off = 0.0
    for rho, radius, sigma in _BURST_SPHERES:
        body = dynamics.RigidBodyParams.solid_sphere(
            rho, radius, surface_tension=sigma)
        exact = math.sqrt(15.0 * sigma / (rho * radius**3))
        burst_off = max(burst_off, abs(
            dynamics.centrifugal_burst_frequency(body) - exact) / exact)
    return CheckResult("spin-up-quadrature", worst <= QUADRATURE_TOL
                       and samples_off <= CONSISTENCY_TOL
                       and burst_off <= CONSISTENCY_TOL,
                       f"max relative deviation {worst:.3e} over 5 runs, "
                       f"their 9 trajectory samples {samples_off:.1e} off "
                       f"it, burst frequency {burst_off:.1e} off "
                       "sqrt(15 sigma / rho R^3)")


def check_thermal_law(rng) -> CheckResult:
    th = dynamics.ThermalParams(300.0, 2.5)
    exact = dynamics.equilibrium_temperature(th, 0.0) == 300.0
    powers = np.logspace(0.0, 9.0, 40) * 2.5 * 300.0**6
    temps = dynamics.equilibrium_temperature(th, powers)
    monotone = bool(np.all(np.diff(temps) > 0.0))
    top = powers >= powers[-1] / 1000.0
    slope = float(np.polyfit(np.log(powers[top]), np.log(temps[top]), 1)[0])
    ok = exact and monotone and abs(slope - 1.0 / 6.0) <= 0.01
    return CheckResult("thermal-law", ok,
                       f"T(0) exact: {exact}, monotone: {monotone}, "
                       f"top-decade slope {slope:.4f}")


def check_amplifier(rng) -> CheckResult:
    m = OscillatorModel.normalized(0.1, 1e-4)
    d = DriveField.lcp(0.5)
    members = tuple(medium.MediumMember(m, om, 0.25)
                    for om in (0.8, 1.3, 2.0, 2.6))
    spec = medium.MediumSpec(1e-3, 50.0, members)
    g = medium.gain_coefficient(spec, d)
    # the doubling length below is exact for any g, so g itself is checked
    # against the members' extinctions taken from the full cross-section set
    sets = [cross_section_set(mem.model, d, mem.rotation) for mem in members]
    g_ref = -spec.number_density * sum(
        mem.weight * s.extinction for mem, s in zip(members, sets))
    off = abs(g - g_ref) / abs(g_ref)
    z, profile = medium.intensity_profile(spec, d, 2.0)
    profile_off = float(np.max(np.abs(
        profile - medium.propagate_intensity(2.0, g, z)) / profile))
    intensity = d.intensity(m.light_speed)
    pump_off = max(abs(medium.sustaining_power(mem, d)
                       / (s.mechanical * intensity) + 1.0)
                   for mem, s in zip(members, sets))
    doubling = np.log(2.0) / g
    doubled = medium.propagate_intensity(1.0, g, doubling)
    split = (medium.propagate_intensity(
        medium.propagate_intensity(2.0, g, 11.0), g, 19.0)
        - medium.propagate_intensity(2.0, g, 30.0))
    ok = (g > 0.0 and off <= CONSISTENCY_TOL
          and abs(doubled - 2.0) <= 1e-12
          and abs(split) <= 1e-12 * medium.propagate_intensity(2.0, g, 30.0)
          and profile_off <= CONSISTENCY_TOL and pump_off <= CONSISTENCY_TOL)
    return CheckResult("amplifier", ok,
                       f"gain {g:.3e} per cm, {off:.1e} off the members' "
                       "sum, doubling length exact, propagation "
                       f"multiplicative, profile {profile_off:.1e} off "
                       f"I0 exp(g z), sustaining power {pump_off:.1e} off "
                       "-sigma_mech I")


def ridge_offset_along_ray(model, angle):
    """Distance between the absorption ridge and the resonance ellipse
    along the ray (omega, Omega) = r (cos a, sin a).  ``angle`` may be an
    array: each grid of the search then probes all its rays in one
    broadcast call, and the distances come back in its shape."""
    omega0 = model.natural_frequency
    rays = np.reshape(angle, (-1, 1))
    cos_a, sin_a = np.cos(rays), np.sin(rays)

    def peak(r):
        """Each ray's radius of highest absorption among the radii r."""
        d = DriveField.lcp(r * cos_a)
        absorption = absorption_cross_section(model, d, r * sin_a)
        best = np.argmax(absorption, axis=1, keepdims=True)
        return np.take_along_axis(np.broadcast_to(r, absorption.shape),
                                  best, axis=1)

    r_grid, step = np.linspace(1e-3, 2.0 * omega0, 800, retstep=True)
    ridge = peak(r_grid)
    # nested grids, the same rounds for every ray: 65 radii across the two
    # steps around each peak, 32 times finer, to a bracket of 1e-10 omega0
    while 2.0 * step >= 1e-10 * omega0:
        ridge = peak(ridge + step * np.linspace(-1.0, 1.0, 65))
        step /= 32.0
    r_locus = omega0 / np.sqrt(1.0 + sin_a**2 - 2.0 * sin_a * cos_a)
    offset = np.abs(ridge - r_locus).reshape(np.shape(angle))
    return float(offset) if offset.ndim == 0 else offset


def check_resonance_ridge(rng) -> CheckResult:
    model = OscillatorModel.normalized(0.01)
    worst = float(np.max(ridge_offset_along_ray(
        model, np.linspace(0.02, np.pi / 2.0, 16))))
    return CheckResult("resonance-ridge", worst <= RIDGE_TOL,
                       f"max ridge offset {worst:.3e} omega0 over 16 rays")


def check_locus_points(rng) -> CheckResult:
    # the lossless response is singular at the point (7, 3) of the
    # resonance ellipse Omega^2 + (w - Omega)^2 = omega0^2 of omega0 = 5,
    # where A = 25 - 9 - 16 is exactly 0, and regular inside it, at
    # (6.5, 3): a singular array cell is NaN.  Damping makes both finite
    ext = extinction_cross_section(
        OscillatorModel.normalized(0.0, natural_frequency=5.0),
        DriveField.lcp(np.array([7.0, 6.5])), 3.0)
    ok = bool(np.isnan(ext[0]) and np.isfinite(ext[1]))
    return CheckResult("resonance-locus", ok,
                       f"lossless extinction {ext[0]:.3e} at (7, 3) on the "
                       f"locus of omega0 = 5, {ext[1]:.3e} at (6.5, 3) "
                       "inside it")


def check_scan_roundtrip(rng) -> CheckResult:
    m = OscillatorModel.normalized(0.1, 1e-4)
    d = DriveField.lcp(0.0)
    req = scan.ScanRequest(model=m, amplitude_x=d.amplitude_x,
                           amplitude_y=d.amplitude_y,
                           omega_min=0.0, omega_max=2.0, omega_count=32,
                           Omega_min=0.0, Omega_max=2.0, Omega_count=32,
                           units="fig2", polarization_label="lcp")
    grid = scan.grid_scan(req)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "roundtrip.csv")
        scan.write_grid_csv(grid, path)
        worst, n_rows = scan.reparse_balance_check(path)
    return CheckResult("scan-roundtrip", worst <= BALANCE_TOL,
                       f"max re-parsed balance residual {worst:.3e} "
                       f"over {n_rows} rows")


def check_positivity(rng) -> CheckResult:
    lowest = math.inf
    for _ in range(500):
        cs = cross_section_set(*_random_case(rng, rng.random() < 0.5))
        lowest = min(lowest, cs.absorption, cs.elastic, cs.inelastic_plus,
                     cs.inelastic_minus)
    return CheckResult("positivity", lowest >= 0.0,
                       "lowest absorption or scattering channel "
                       f"{lowest:.3e} at 500 random points")


ALL_CHECKS = (
    check_balance_identity,
    check_polynomial_identity,
    check_ode_residual,
    check_time_domain,
    check_sign_structure,
    check_mirror_symmetry,
    check_optical_theorem,
    check_static_torque_consistency,
    check_mapping_consistency,
    check_quadrature_equivalence,
    check_thermal_law,
    check_amplifier,
    check_resonance_ridge,
    check_locus_points,
    check_scan_roundtrip,
    check_positivity,
)


def run_all(seed) -> list:
    rng = random.Random(seed)
    return [check(rng) for check in ALL_CHECKS]
