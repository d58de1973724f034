"""The self-check suite behind ``rotospin validate``: its seeding, the
ridge search over many rays at once, and FAIL lines that report what
they found."""

import dataclasses
import re

import numpy as np
import pytest

from rotospin import OscillatorModel, cli, response, validation


@pytest.mark.parametrize("seed", range(10))
def test_run_all_passes(seed):
    failed = [r for r in validation.run_all(seed) if not r.passed]
    assert not failed


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
    # the search brackets each ridge to 1e-10
    assert np.max(offsets) < 1e-9
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
