"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see
them) and then asserts, so the suite doubles as a readable report.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotospin import (
    DriveField,
    DrudeSphere,
    MediumMember,
    MediumSpec,
    OscillatorModel,
    RigidBodyParams,
    ThermalParams,
    centrifugal_burst_frequency,
    cli,
    cross_section_set,
    equilibrium_temperature,
    extinction_cross_section,
    from_drude_sphere,
    gain_coefficient,
    propagate_intensity,
    time_to_target_by_quadrature,
    torque,
)
from rotospin.scan import reparse_balance_check
from rotospin.timedomain import force_law_averages
from rotospin.validation import (radial_ode_residual, ridge_offset_along_ray,
                                 static_polarizability)

SEED = 20260822


def _report(number, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: "
          f"{label}: {detail}")
    assert ok, f"criterion {number}: {label}: {detail}"


def _random_model(rng):
    return OscillatorModel.normalized(rng.uniform(0.01, 1.0),
                                      rng.uniform(0.0, 0.3))


def _random_drive(rng):
    return DriveField(rng.uniform(-3.0, 3.0),
                      complex(rng.normal(), rng.normal()),
                      complex(rng.normal(), rng.normal()))


def test_criterion_01_power_balance():
    # extinction equals the sum of the five partial channels for random
    # parameters, to 1e-10 relative, for 1000 tuples in under a second
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        cs = cross_section_set(_random_model(rng), _random_drive(rng),
                               rng.uniform(-3.0, 3.0))
        scale = (abs(cs.elastic) + abs(cs.inelastic_plus)
                 + abs(cs.inelastic_minus) + abs(cs.mechanical)
                 + abs(cs.absorption))
        if scale > 0.0:
            worst = max(worst, abs(cs.balance_residual) / scale)
    elapsed = time.perf_counter() - t0
    _report(1, "power balance", worst <= 1e-10 and elapsed < 1.0,
            f"max residual {worst:.3e}, {elapsed:.3f} s for 1000 tuples")


def test_criterion_02_equation_of_motion():
    # the closed-form amplitude solves the rotating-frame equation of
    # motion, and a direct time integration reproduces the averaged
    # torque and absorbed power
    rng = np.random.default_rng(SEED)
    worst_ode = 0.0
    for _ in range(1000):
        worst_ode = max(worst_ode, radial_ode_residual(
            _random_model(rng), _random_drive(rng),
            rng.uniform(-3.0, 3.0), rng.uniform(0.0, 20.0)))
    worst_td = 0.0
    for m, d, Om in [
        (OscillatorModel.normalized(0.1), DriveField.lcp(0.5), 0.2),
        (OscillatorModel.normalized(0.25),
         DriveField(1.2, 0.8 - 0.1j, 0.3 + 0.45j), 0.4),
    ]:
        avg = force_law_averages(m, d, Om)
        closed_m = torque(m, d, Om)
        closed_p = (cross_section_set(m, d, Om).absorption
                    * d.intensity(m.light_speed))
        worst_td = max(worst_td,
                       abs(avg.torque - closed_m) / abs(closed_m),
                       abs(avg.absorbed_power - closed_p) / abs(closed_p))
    _report(2, "equation of motion", worst_ode <= 1e-8 and worst_td <= 1e-4,
            f"ode residual {worst_ode:.3e}, time-domain {worst_td:.3e}")


def test_criterion_03_sign_structure():
    # a fast rotor amplifies every drive slower than itself (negative
    # extinction below omega = Omega) and, without radiation damping,
    # the torque sign follows sign(omega - Omega) everywhere
    m = OscillatorModel.normalized(0.1, 1e-4)
    w = np.linspace(0.0, 3.0, 601)
    ext = extinction_cross_section(m, DriveField.lcp(w), 2.0)
    inside = (w > 0.0) & (w < 2.0)
    ok_ext = bool(np.all(ext[inside] < 0.0)
                  and np.all(ext[w > 2.0] > 0.0))

    m0 = OscillatorModel.normalized(0.1)
    grid = np.linspace(0.0, 2.0, 256)
    ok_sign = True
    for Om in grid:
        mval = torque(m0, DriveField.lcp(grid), Om)
        ok_sign = ok_sign and bool(
            np.all(np.sign(mval) == np.sign(grid - Om)))
    _report(3, "sign structure", ok_ext and ok_sign,
            f"extinction flips at omega = Omega, torque sign correct on "
            f"a {grid.size}x{grid.size} grid")


def test_criterion_04_resonance_ridge():
    # the absorption ridge of a weakly damped particle traces the locus
    # Omega^2 + (omega - Omega)^2 = omega0^2 to within 0.01 omega0; the
    # omega0 = 2 model catches a search that assumes omega0 = 1
    worst = 0.0
    for omega0 in (1.0, 2.0):
        m = OscillatorModel.normalized(0.01, natural_frequency=omega0)
        offsets = ridge_offset_along_ray(m, np.linspace(0.02, np.pi / 2.0,
                                                        64))
        worst = max(worst, float(np.max(offsets)) / omega0)
    _report(4, "resonance ridge", worst <= 0.01,
            f"max offset {worst:.3e} omega0 over 64 rays at omega0 = 1, 2")


def test_criterion_05_sideband_dominance():
    # for a fast rotor the down-shifted scattering line dominates the
    # carrier, with the exact fourth-power frequency ratio for circular
    # polarization
    m = OscillatorModel.normalized(0.1, 1e-4)
    w = np.linspace(0.0, 1.0, 201)[1:-1]
    cs = cross_section_set(m, DriveField.lcp(w), 2.0)
    ok_dom = bool(np.all(cs.inelastic_minus > cs.elastic))

    cs1 = cross_section_set(m, DriveField.lcp(0.75), 2.0)
    ratio = cs1.inelastic_minus / cs1.elastic
    expect = (13.0 / 3.0) ** 4    # ((omega - 2 Omega) / omega)^4 at 0.75
    ok_ratio = (abs(ratio - expect) <= 1e-12 * expect
                and cs1.inelastic_plus == 0.0)
    _report(5, "sideband dominance", ok_dom and ok_ratio,
            f"down-shifted line exceeds carrier on (0, 1); "
            f"ratio {ratio:.12f} vs {expect:.12f}")


def test_criterion_06_static_limit():
    # at rest the rotating-frame torque reduces to the dipole torque
    # |E|^2 Im(alpha) of a rod, the optical theorem closes for physically
    # linked models, and a lossless isotropic sphere feels no torque at
    # all: its torque |E|^2 (2 Im(alpha) - (4 w^3 / 3c^3) |alpha|^2)
    # vanishes since Im(alpha) = (2 w^3 / 3c^3) |alpha|^2 at gamma = 0
    rng = np.random.default_rng(SEED)
    worst_dip = 0.0
    for _ in range(100):
        m = OscillatorModel.normalized(rng.uniform(0.01, 0.5),
                                       rng.uniform(0.0, 0.2))
        w = rng.uniform(0.05, 2.5)
        d = DriveField.lcp(w, amplitude=rng.uniform(0.5, 2.0))
        dip = d.field_norm_sq * static_polarizability(m, w).imag
        ref = torque(m, d, 0.0)
        worst_dip = max(worst_dip, abs(dip - ref) / abs(ref))

    worst_opt = 0.0
    for _ in range(100):
        m = OscillatorModel.physical(rng.uniform(0.2, 3.0),
                                     rng.uniform(0.5, 2.0),
                                     rng.uniform(0.0, 0.5), light_speed=1.0)
        w = rng.uniform(0.05, 2.5)
        inverse = (-1.0 / static_polarizability(m, w)).imag
        res = (inverse - 2.0 * w**3 / (3.0 * m.light_speed**3)
               - m.damping_rate * w / m.coupling)
        scale = abs(inverse) + w**3
        worst_opt = max(worst_opt, abs(res) / scale)

    ml = OscillatorModel.physical(0.8, 1.0, 0.0, light_speed=1.0)
    alpha = static_polarizability(ml, 0.6)
    sphere_off = alpha.imag - 2.0 * 0.6**3 / 3.0 * abs(alpha) ** 2
    ok_sphere = abs(sphere_off) <= 1e-14 * abs(alpha.imag)
    _report(6, "static limit",
            worst_dip <= 1e-12 and worst_opt <= 1e-12 and ok_sphere,
            f"dipole torque {worst_dip:.3e}, optical theorem "
            f"{worst_opt:.3e}, lossless sphere {sphere_off:.1e}")


def test_criterion_07_heating_law():
    # zero absorbed power returns the ambient temperature exactly, and
    # the hot end follows the sixth-root law over three decades
    th = ThermalParams(300.0, 1.0)
    ok_exact = equilibrium_temperature(th, 0.0) == 300.0
    power = np.logspace(18.0, 24.0, 40)
    temps = equilibrium_temperature(th, power)
    top = power >= power[-1] * 1e-3
    slope = np.polyfit(np.log(power[top]), np.log(temps[top]), 1)[0]
    _report(7, "heating law", ok_exact and abs(slope - 1.0 / 6.0) <= 0.01,
            f"T(0) exact, log-log slope {slope:.5f} over 3 decades")


def test_criterion_08_spin_up_scaling():
    # spin-up time scales as 1/intensity, as radius squared for a metal
    # sphere, and linearly in the target rotation, each over 3 decades
    body = RigidBodyParams(2.0)
    m = OscillatorModel.normalized(0.1)

    ivals = np.logspace(0.0, 3.0, 10)
    times = [time_to_target_by_quadrature(
        m, DriveField.lcp(0.5, amplitude=float(np.sqrt(2.0 * np.pi * iv))),
        body, 1e-3) for iv in ivals]
    s_int = np.polyfit(np.log(ivals), np.log(times), 1)[0]

    radii = np.logspace(-9.0, -6.0, 10)
    times = []
    for r in radii:
        mg = from_drude_sphere(DrudeSphere(1.37e16, 4.05e13, float(r)))
        bodyg = RigidBodyParams.solid_sphere(19.3, float(r))
        dg = DriveField.lcp(0.03 * mg.natural_frequency)
        times.append(time_to_target_by_quadrature(mg, dg, bodyg, 1.0))
    s_rad = np.polyfit(np.log(radii), np.log(times), 1)[0]

    targets = np.logspace(-6.0, -3.0, 10)
    d = DriveField.lcp(0.5)
    times = [time_to_target_by_quadrature(m, d, body, float(t))
             for t in targets]
    s_tgt = np.polyfit(np.log(targets), np.log(times), 1)[0]

    ok = (abs(s_int + 1.0) <= 0.02 and abs(s_rad - 2.0) <= 0.05
          and abs(s_tgt - 1.0) <= 0.02)
    _report(8, "spin-up scaling", ok,
            f"slopes: intensity {s_int:+.4f}, radius {s_rad:+.4f}, "
            f"target {s_tgt:+.4f}")


def test_criterion_09_amplifier_and_burst():
    # an ensemble of fast rotors has positive gain and doubles the beam
    # at z = ln2/g; a 10 nm molten gold droplet bursts at a rotation
    # rate of a few GHz
    m = OscillatorModel.normalized(0.1, 1e-4)
    spec = MediumSpec(3.0, 1.0, (MediumMember(m, 2.0, 0.5),
                                 MediumMember(m, 2.5, 0.5)))
    drive = DriveField.lcp(1.0)
    g = gain_coefficient(spec, drive)
    i0 = drive.intensity(m.light_speed)
    doubled = propagate_intensity(i0, g, float(np.log(2.0) / g))
    rel = abs(doubled - 2.0 * i0) / (2.0 * i0)

    gold = RigidBodyParams.solid_sphere(17.3, 1e-6, surface_tension=1100.0)
    f_burst = centrifugal_burst_frequency(gold) / (2.0 * np.pi)
    ok_burst = 1e9 <= f_burst <= 1e10 and 0.1 <= f_burst / 3e9 <= 10.0
    _report(9, "amplifier and burst", g > 0.0 and rel <= 1e-12 and ok_burst,
            f"gain {g:.4e}, doubling error {rel:.1e}, "
            f"burst {f_burst:.3e} Hz")


def test_criterion_10_figure_map_export(tmp_path):
    # the full 256x256 resonance-map export runs in under 5 s and the
    # written CSV re-verifies the power balance
    out = tmp_path / "map.csv"
    t0 = time.perf_counter()
    rc = cli.main(["scan", "--preset", "fig2", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    worst, checked = reparse_balance_check(out)
    ok = rc == 0 and elapsed < 5.0 and worst <= 1e-10 and checked >= 65000
    _report(10, "figure map export", ok,
            f"{elapsed:.2f} s, reparse residual {worst:.3e} over "
            f"{checked} rows")
