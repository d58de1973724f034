"""Self-check suite behind ``rotospin validate``.

Each check re-derives a property of the model along an independent route
(direct Newtonian integration, quadrature, re-parsed exports, symmetry
arguments) and compares against the closed forms.  The suite is seeded,
so two runs always test the same points: the checks draw them one value
at a time from a ``random.Random``.
"""

from __future__ import annotations

import math
import os
import random
import tempfile
from dataclasses import dataclass

import numpy as np

from . import dynamics, medium, scan, timedomain
from .materials import (DrudeEllipsoid, DrudeSphere,
                        dipole_torque_low_rotation, from_drude_ellipsoid,
                        from_drude_sphere, optical_theorem_residual)
from .response import (DriveField, OscillatorModel, cross_section_set,
                       radial_ode_residual, resonance_locus,
                       static_polarizability, torque)

BALANCE_TOL = 1e-10
ODE_TOL = 1e-14
TIME_DOMAIN_TOL = 1e-12
QUADRATURE_TOL = 1e-10
RIDGE_TOL = 1e-6
CONSISTENCY_TOL = 1e-12
MAPPING_TOL = 1e-14
#: steps of the spin-up reference per estimated time to the target
_RK4_STEPS = 64


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_model(rng, linked=True):
    coupling = rng.uniform(0.1, 3.0)
    gamma = rng.uniform(0.0, 0.5)
    if linked:
        return OscillatorModel.physical(coupling, 1.0, gamma, light_speed=1.0)
    tau = rng.uniform(0.0, 0.2)
    return OscillatorModel.normalized(gamma, tau, coupling=coupling)


def _random_drive(rng, omega):
    u = rng.uniform
    return DriveField(omega, complex(u(-1.0, 1.0), u(-1.0, 1.0)),
                      complex(u(-1.0, 1.0), u(-1.0, 1.0)))


def check_balance_identity(rng, n=1000) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        m = _random_model(rng, linked=True)
        d = _random_drive(rng, rng.uniform(-3.0, 3.0))
        cs = cross_section_set(m, d, rng.uniform(-3.0, 3.0))
        scale = cs.balance_scale
        if scale > 0:
            worst = max(worst, abs(cs.balance_residual) / scale)
    return CheckResult("balance-identity", worst <= BALANCE_TOL,
                       f"max relative residual {worst:.3e} over {n} tuples")


def check_polynomial_identity(rng, n=500) -> CheckResult:
    w = np.array([rng.uniform(-5.0, 5.0) for _ in range(n)])
    Om = np.array([rng.uniform(-5.0, 5.0) for _ in range(n)])
    wp = w + Om
    wpp = w + 2.0 * Om
    lhs = w * wp * (wp**2 + 3.0 * Om**2)
    rhs = (w**4 + wpp**4) / 2.0 - Om * wpp**3
    scale = np.maximum(np.abs(lhs) + np.abs(rhs), 1.0)
    worst = float(np.max(np.abs(lhs - rhs) / scale))
    return CheckResult("power-bookkeeping-polynomial", worst <= BALANCE_TOL,
                       f"max relative deviation {worst:.3e}")


def check_ode_residual(rng, n=1000) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        m = _random_model(rng, linked=rng.random() < 0.5)
        d = _random_drive(rng, rng.uniform(-3.0, 3.0))
        res = radial_ode_residual(m, d, rng.uniform(-3.0, 3.0),
                                  rng.uniform(0.0, 20.0))
        worst = max(worst, res)
    return CheckResult("closed-form-solves-ode", worst <= ODE_TOL,
                       f"max relative residual {worst:.3e} over {n} points")


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
        closed_p = (cross_section_set(m, d, Om).absorption
                    * d.intensity(m.light_speed))
        worst = max(worst,
                    abs(avg.torque - closed_m) / abs(closed_m),
                    abs(avg.absorbed_power - closed_p) / abs(closed_p))
    return CheckResult("time-domain-oracle", worst <= TIME_DOMAIN_TOL,
                       f"max relative deviation {worst:.3e}")


def check_sign_structure(rng) -> CheckResult:
    omegas = np.linspace(1e-3, 3.0, 301)
    omegas = omegas[omegas != 2.0]
    ext = cross_section_set(OscillatorModel.normalized(0.1, 1e-4),
                            DriveField.lcp(omegas), 2.0).extinction
    w, Om = np.meshgrid(np.linspace(0.0, 2.0, 64), np.linspace(0.0, 2.0, 64))
    mval = torque(OscillatorModel.normalized(0.1), DriveField.lcp(w), Om)
    # a NaN counts as a wrong sign
    wrong = (np.count_nonzero(np.sign(ext) != np.sign(omegas - 2.0))
             + np.count_nonzero(np.sign(mval) != np.sign(w - Om)))
    return CheckResult("sign-structure", wrong == 0,
                       f"{wrong} of {omegas.size + mval.size} cells off the "
                       "expected sign: extinction flips at omega = Omega, "
                       "torque follows sign(omega - Omega) at tau = 0")


def check_mirror_symmetry(rng, n=200) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        m = _random_model(rng, linked=rng.random() < 0.5)
        d = _random_drive(rng, rng.uniform(-3.0, 3.0))
        Om = rng.uniform(-3.0, 3.0)
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


def check_optical_theorem(rng, n=100) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        m = _random_model(rng, linked=True)
        w = rng.uniform(0.05, 3.0)
        res = optical_theorem_residual(m, w)
        ref = abs((-1.0 / static_polarizability(m, w)).imag)
        worst = max(worst, abs(res) / max(ref, 1e-300))
    return CheckResult("optical-theorem", worst <= CONSISTENCY_TOL,
                       f"max relative residual {worst:.3e}")


def check_static_torque_consistency(rng, n=100) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        m = _random_model(rng, linked=rng.random() < 0.5)
        w = rng.uniform(0.05, 3.0)
        amp = rng.uniform(0.1, 2.0)
        d = DriveField.lcp(w, amp)
        full = torque(m, d, 0.0)
        dip = dipole_torque_low_rotation(static_polarizability(m, w), 0.0,
                                         w, d.field_norm_sq, m.light_speed)
        worst = max(worst, abs(full - dip) / max(abs(full), 1e-300))
    return CheckResult("static-limit-torque", worst <= CONSISTENCY_TOL,
                       f"max relative deviation {worst:.3e}")


def check_mapping_consistency(rng) -> CheckResult:
    sphere = DrudeSphere(plasma_frequency=np.sqrt(3.0), damping=0.1,
                         radius=1.0)
    as_sphere = from_drude_sphere(sphere, light_speed=1.0)
    as_ellipsoid = from_drude_ellipsoid(
        DrudeEllipsoid(plasma_frequency=np.sqrt(3.0), damping=0.1,
                       volume=4.0 * np.pi / 3.0, depolarization_factor=1/3),
        light_speed=1.0)
    pairs = [(getattr(as_sphere, f), getattr(as_ellipsoid, f))
             for f in ("natural_frequency", "coupling", "damping_rate",
                       "radiative_time")]
    worst = max(abs(x - y) / abs(y) for x, y in pairs)
    ok = (worst <= MAPPING_TOL
          and as_sphere.damping_rate == as_ellipsoid.damping_rate)
    return CheckResult("drude-mapping-consistency", ok,
                       f"max relative difference {worst:.3e} between the "
                       "sphere and L=1/3 ellipsoid mappings")


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


def check_quadrature_equivalence(rng, n=5) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        m = OscillatorModel.normalized(rng.uniform(0.05, 0.3))
        d = DriveField.lcp(rng.uniform(0.2, 0.8))
        body = dynamics.RigidBodyParams(rng.uniform(0.5, 20.0))
        target = rng.uniform(1e-4, 1e-2)
        t_ode = ode_spin_up_time(m, d, body, target)
        t_quad = dynamics.time_to_target_by_quadrature(m, d, body, target)
        worst = max(worst, abs(t_ode - t_quad) / t_quad)
    return CheckResult("spin-up-quadrature", worst <= QUADRATURE_TOL,
                       f"max relative deviation {worst:.3e} over {n} runs")


def check_thermal_law(rng) -> CheckResult:
    th = dynamics.ThermalParams(300.0, 2.5)
    exact = dynamics.equilibrium_temperature(th, 0.0) == 300.0
    powers = np.logspace(0.0, 9.0, 40) * 2.5 * 300.0**6
    temps = dynamics.equilibrium_temperature(th, powers)
    monotone = bool(np.all(np.diff(temps) > 0.0))
    top = powers >= powers[-1] / 1000.0
    slope = np.polyfit(np.log(powers[top]), np.log(temps[top]), 1)[0]
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
    doubling = np.log(2.0) / g
    doubled = medium.propagate_intensity(1.0, g, doubling)
    split = (medium.propagate_intensity(
        medium.propagate_intensity(2.0, g, 11.0), g, 19.0)
        - medium.propagate_intensity(2.0, g, 30.0))
    ok = (g > 0.0 and abs(doubled - 2.0) <= 1e-12
          and abs(split) <= 1e-12 * medium.propagate_intensity(2.0, g, 30.0))
    return CheckResult("amplifier", ok,
                       f"gain {g:.3e} per cm, doubling length exact, "
                       "propagation multiplicative")


def ridge_offset_along_ray(model, angle):
    """Distance between the absorption ridge and the resonance ellipse
    along the ray (omega, Omega) = r (cos a, sin a).  ``angle`` may be an
    array: each round of the search then probes all its rays in one
    broadcast call, and the distances come back in its shape."""
    omega0 = model.natural_frequency
    rays = np.reshape(angle, (-1, 1))
    cos_a, sin_a = np.cos(rays), np.sin(rays)

    def neg_abs(r):
        d = DriveField.lcp(r * cos_a)
        return -cross_section_set(model, d, r * sin_a).absorption

    r_grid = np.linspace(1e-3, 2.0 * omega0, 800)
    coarse = r_grid[np.argmin(neg_abs(r_grid), axis=1, keepdims=True)]
    window = 3.0 * (r_grid[1] - r_grid[0])
    a, b = np.maximum(coarse - window, 1e-4), coarse + window
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - shrink * (b - a)
    fc = neg_abs(c)
    # golden-section search down to a bracket of 1e-10 on the widest ray:
    # each round keeps the inner point c with the lower neg_abs and probes
    # its mirror d
    for _ in range(math.ceil(math.log(1e-10 / np.max(b - a), shrink))):
        d = a + b - c
        fd = neg_abs(d)
        lower = fd < fc
        # the new end of the bracket: c if d did better, else d itself
        end = np.where(lower, c, d)
        moves_a = lower == (d > c)
        a, b = np.where(moves_a, end, a), np.where(moves_a, b, end)
        c, fc = np.where(lower, d, c), np.where(lower, fd, fc)
    r_locus = omega0 / np.sqrt(1.0 + sin_a**2 - 2.0 * sin_a * cos_a)
    offset = np.abs(0.5 * (a + b) - r_locus).reshape(np.shape(angle))
    return float(offset) if offset.ndim == 0 else offset


def check_resonance_ridge(rng, n_rays=16) -> CheckResult:
    model = OscillatorModel.normalized(0.01)
    worst = float(np.max(ridge_offset_along_ray(
        model, np.linspace(0.02, np.pi / 2.0, n_rays))))
    return CheckResult("resonance-ridge", worst <= RIDGE_TOL,
                       f"max ridge offset {worst:.3e} omega0 over "
                       f"{n_rays} rays")


def check_locus_points(rng) -> CheckResult:
    worst = 0.0
    for branch, sign in (("lower", -1.0), ("upper", 1.0)):
        pts = resonance_locus(1.0, branch, 128)
        w, Om = pts[:, 0], pts[:, 1]
        lhs = Om**2 + (w + sign * Om) ** 2
        worst = max(worst, float(np.max(np.abs(lhs - 1.0))))
    # the lossless response is singular at the locus point (1, 1) and
    # regular just inside the ellipse, at (0.9, 0.9)
    cells = np.array([1.0, 0.9])
    ext = cross_section_set(OscillatorModel.normalized(0.0),
                            DriveField.lcp(cells), cells).extinction
    on_locus = bool(np.isnan(ext[0]) and np.isfinite(ext[1]))
    return CheckResult("resonance-locus", worst <= 1e-12 and on_locus,
                       f"max ellipse deviation {worst:.3e}; lossless "
                       "denominator vanishes on the locus")


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


def check_positivity(rng, n=500) -> CheckResult:
    lowest = math.inf
    for _ in range(n):
        m = _random_model(rng, linked=rng.random() < 0.5)
        d = _random_drive(rng, rng.uniform(-3.0, 3.0))
        cs = cross_section_set(m, d, rng.uniform(-3.0, 3.0))
        lowest = min(lowest, cs.absorption, cs.elastic, cs.inelastic_plus,
                     cs.inelastic_minus)
    return CheckResult("positivity", lowest >= 0.0,
                       "lowest absorption or scattering channel "
                       f"{lowest:.3e} at {n} random points")


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


def run_all(seed=20260822) -> list:
    rng = random.Random(seed)
    return [check(rng) for check in ALL_CHECKS]
