"""The self-check suite behind ``rotospin validate``: its seeding, the
ridge search over many rays at once, and FAIL lines that report what
they found."""

import dataclasses
import json
import random
import re

import numpy as np
import pytest

from rotospin import OscillatorModel, cli, response, validation


@pytest.mark.parametrize("seed", range(10))
def test_run_all_passes(seed):
    failed = [r for r in validation.run_all(seed) if not r.passed]
    assert not failed


def test_run_all_results_dump_as_json():
    # a run record holds each check as plain JSON: name, bool and detail
    results = validation.run_all(0)
    assert all(type(r.passed) is bool for r in results)
    json.dumps([r._asdict() for r in results])


def test_run_all_is_seeded():
    first = validation.run_all(3)
    assert validation.run_all(3) == first
    details = {r.name: r.detail for r in validation.run_all(4)}
    assert details["balance-identity"] != first[0].detail


def test_ridge_offsets_of_many_rays_match_one_ray_at_a_time():
    m = OscillatorModel.normalized(0.01, natural_frequency=2.0)
    angles = np.linspace(0.02, np.pi / 2.0, 16)
    offsets = validation.ridge_offset_along_ray(m, angles)
    one_by_one = [validation.ridge_offset_along_ray(m, float(a))
                  for a in angles]
    assert all(type(x) is float for x in one_by_one)
    assert offsets.shape == angles.shape
    assert np.array_equal(offsets, one_by_one)
    # the nested grids bracket each ridge to 1e-10 omega0, and the ridge
    # lies on the ellipse to about as much
    assert np.max(offsets) <= 1e-10 * m.natural_frequency
    assert np.array_equal(
        validation.ridge_offset_along_ray(m, angles.reshape(4, 4)),
        offsets.reshape(4, 4))


def test_positivity_fail_line_shows_the_negative_channel(monkeypatch,
                                                         capsys):
    absorption = response._absorption
    monkeypatch.setattr(response, "_absorption",
                        lambda *terms: -absorption(*terms))
    assert cli.main(["validate"]) == cli.EXIT_VALIDATION
    line, = [x for x in capsys.readouterr().out.splitlines()
             if x.startswith("[FAIL] positivity:")]
    assert ">= 0" not in line
    assert float(re.search(r"channel (\S+) at", line).group(1)) < 0.0


def test_sign_structure_counts_the_cells_off_sign(monkeypatch):
    # a negated torque is off sign everywhere but on the diagonal
    # omega = Omega of the 64 x 64 grid, where it is 0
    torque = validation.torque
    monkeypatch.setattr(validation, "torque", lambda *a: -torque(*a))
    result = validation.check_sign_structure(None)
    assert not result.passed
    assert result.detail.startswith(f"{64 * 64 - 64} of ")


def _mapping_check_with_coupling_off_by(monkeypatch, error):
    """check_mapping_consistency with the ellipsoid mapping's coupling
    scaled by 1 + error."""
    ellipsoid = validation.from_drude_ellipsoid

    def off(*args, **kwargs):
        m = ellipsoid(*args, **kwargs)
        return dataclasses.replace(m, coupling=m.coupling * (1 + error))

    assert validation.check_mapping_consistency(None).passed
    monkeypatch.setattr(validation, "from_drude_ellipsoid", off)
    return validation.check_mapping_consistency(None)


def test_mapping_consistency_reports_its_largest_difference(monkeypatch):
    result = _mapping_check_with_coupling_off_by(monkeypatch, 1e-6)
    assert not result.passed
    assert result.detail.startswith("max relative difference 1.000e-06")


def test_mapping_consistency_gates_the_relative_difference(monkeypatch):
    # 5e-9 is well inside an absolute 1e-8, but far above the 1e-14 gate
    result = _mapping_check_with_coupling_off_by(monkeypatch, 5e-9)
    assert result.detail.startswith("max relative difference 5.000e-09")
    assert not result.passed


@pytest.mark.parametrize("factor", [2.0, 1.0 + 1e-6])
def test_amplifier_check_catches_a_scaled_gain(monkeypatch, factor):
    # a doubling length derived from the g under test is exact for any g;
    # the members' own extinctions give the reference
    gain = validation.medium.gain_coefficient
    assert validation.check_amplifier(None).passed
    monkeypatch.setattr(validation.medium, "gain_coefficient",
                        lambda *a: factor * gain(*a))
    assert not validation.check_amplifier(None).passed


@pytest.mark.parametrize("factor", [2.0, 1.0 + 1e-6])
def test_quadrature_check_catches_a_scaled_burst_frequency(monkeypatch,
                                                           factor):
    # the spin-up runs of this check never reach a burst, so the check
    # holds the burst estimate against its solid-sphere closed form
    burst = validation.dynamics.centrifugal_burst_frequency
    assert validation.check_quadrature_equivalence(random.Random(0)).passed
    monkeypatch.setattr(validation.dynamics, "centrifugal_burst_frequency",
                        lambda body: factor * burst(body))
    assert not validation.check_quadrature_equivalence(
        random.Random(0)).passed


def test_quadrature_check_draws_only_its_spin_up_runs():
    # positivity, which draws after this check, keeps its points
    rng, reference = random.Random(5), random.Random(5)
    validation.check_quadrature_equivalence(rng)
    for _ in range(5):
        for _ in range(4):
            reference.random()
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("name, factor, check", [
    ("static_polarizability", 1.0 + 1e-6, validation.check_optical_theorem),
    ("static_polarizability", 1.0 + 1e-6,
     validation.check_static_torque_consistency),
    ("torque", 1.0 + 1e-8, validation.check_static_torque_consistency),
], ids=["polarizability-optical-theorem", "polarizability-static-torque",
        "torque-static-torque"])
def test_reference_checks_catch_a_scaled_formula(monkeypatch, name, factor,
                                                 check):
    # the particle at rest: its polarizability and the rotating-frame
    # torque are held against the dipole torque and the optical theorem
    assert check(random.Random(0)).passed
    scaled = getattr(validation, name)
    monkeypatch.setattr(validation, name, lambda *a: factor * scaled(*a))
    assert not check(random.Random(0)).passed


def test_resonance_locus_probe_is_regular_with_damping(monkeypatch):
    # the probe's cell (7, 3) is singular on the lossless ellipse of
    # omega0 = 5 only: with damping it is finite, so the check fails
    extinction = validation.extinction_cross_section

    def damped(model, drive, Omega):
        return extinction(dataclasses.replace(model, damping_rate=0.1),
                          drive, Omega)

    assert validation.check_locus_points(None).passed
    monkeypatch.setattr(validation, "extinction_cross_section", damped)
    result = validation.check_locus_points(None)
    assert not result.passed
    assert result.detail.startswith("lossless extinction 1.100e+02 at (7, 3)")
