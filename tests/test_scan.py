"""Grid evaluation, unit conversion, CSV export, and the re-parse check."""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotospin import (
    DriveField,
    OscillatorModel,
    ScanRequest,
    SingularResonanceError,
    cross_section_set,
    grid_scan,
    reparse_balance_check,
    write_grid_csv,
)
from rotospin.scan import CSV_HEADER, read_sidecar

MODEL = OscillatorModel.normalized(0.1, 1e-4)

#: a lattice of more rows than one block of the CSV writer and reader
_LONG = dict(omega_count=65, Omega_count=65)


def _request(units="physical", **overrides):
    lcp = DriveField.lcp(0.0)
    kw = dict(model=MODEL, amplitude_x=lcp.amplitude_x,
              amplitude_y=lcp.amplitude_y,
              omega_min=0.1, omega_max=1.9, omega_count=7,
              Omega_min=0.0, Omega_max=1.8, Omega_count=5,
              units=units, polarization_label="lcp")
    kw.update(overrides)
    return ScanRequest(**kw)


# ---------------------------------------------------------------------------
# request validation


def test_count_one_needs_degenerate_range():
    with pytest.raises(ValueError):
        _request(omega_count=1)
    _request(omega_min=0.5, omega_max=0.5, omega_count=1)


def test_range_must_increase():
    with pytest.raises(ValueError):
        _request(omega_min=2.0, omega_max=1.0)


@pytest.mark.parametrize("axis", ["omega", "Omega"])
def test_range_wider_than_a_double_rejected(axis):
    # both ends are finite, but max - min overflows, and linspace would
    # fill the axis with NaN
    with pytest.raises(ValueError, match="width must be finite"):
        _request(**{f"{axis}_min": -1e308, f"{axis}_max": 1.7e308})


def test_fig2_units_need_both_rates():
    lossless = OscillatorModel.normalized(0.1)
    with pytest.raises(ValueError):
        _request(units="fig2", model=lossless)


@pytest.mark.parametrize("model", [
    OscillatorModel.normalized(0.1, 1e-4, natural_frequency=1e-300),
    OscillatorModel.normalized(1e-300, 1e-4, coupling=1e-300),
    OscillatorModel.normalized(0.1, 1e300, coupling=1e300),
], ids=["c-omega0-squared-underflows", "friction-underflows",
        "scatter-overflows"])
def test_fig2_divisors_must_be_nonzero_and_finite(model):
    # a zero or infinite divisor leaves values that no sidecar restores
    with pytest.raises(ValueError, match="nonzero and finite"):
        _request(units="fig2", model=model)


def test_zero_amplitude_rejected():
    with pytest.raises(ValueError):
        _request(amplitude_x=0.0, amplitude_y=0.0)


def test_unknown_units_rejected():
    with pytest.raises(ValueError):
        _request(units="arb")


# ---------------------------------------------------------------------------
# evaluation


_DRIVES = (DriveField.lcp(0.0), DriveField.linear(0.0),
           DriveField(0.0, 0.3 + 0.1j, -0.2 + 0.5j))


def _assert_cells_match_direct(lattice, any_singular):
    for d in _DRIVES:
        ex, ey = d.amplitude_x, d.amplitude_y
        grid = grid_scan(_request(amplitude_x=ex, amplitude_y=ey, **lattice))
        assert grid.singular.shape == (lattice["Omega_count"],
                                       lattice["omega_count"])
        for i, Om in enumerate(grid.Omega):
            for j, om in enumerate(grid.omega):
                try:
                    direct = cross_section_set(MODEL, DriveField(om, ex, ey),
                                               Om)
                except SingularResonanceError:
                    assert grid.singular[i, j]
                    continue
                assert not grid.singular[i, j]
                cell = [grid.values[name][i, j] for name in CSV_HEADER[2:-1]]
                assert_allclose(cell, dataclasses.astuple(direct), rtol=1e-14,
                                atol=0.0)
        assert grid.singular.any() == any_singular


def test_single_cell_matches_direct_evaluation():
    # every cell of a small lattice equals the scalar evaluation; the map
    # holds both co-rotation corners, omega = +/-Omega at |Omega| =
    # omega0, so each drive also checks the singular mask
    _assert_cells_match_direct(dict(omega_min=0.0, omega_max=2.0,
                                    omega_count=5, Omega_min=-1.0,
                                    Omega_max=2.0, Omega_count=4), True)


def test_spectrum_sweep_matches_grid_cells():
    # the fixed-Omega spectrum that `rotospin spectrum` runs is one Omega
    # row of the lattice: each of its cells equals the scalar evaluation
    _assert_cells_match_direct(dict(omega_min=0.1, omega_max=2.9,
                                    omega_count=9, Omega_min=2.0,
                                    Omega_max=2.0, Omega_count=1), False)


def test_fig2_divisors_restore_physical_values():
    phys = grid_scan(_request("physical"))
    fig2 = grid_scan(_request("fig2"))
    div = fig2.metadata
    for name in CSV_HEADER[2:-1]:
        restored = fig2.values[name] * float(div[f"divisor_{name}"])
        assert_allclose(restored, phys.values[name], rtol=1e-13)


# ---------------------------------------------------------------------------
# singular cells


def test_undamped_resonance_is_masked():
    # gamma = tau = 0 and Omega = 0: the response diverges exactly at
    # omega = omega0, and nowhere else on this axis
    lossless = OscillatorModel.normalized(0.0)
    lcp = DriveField.lcp(0.0)
    req = ScanRequest(model=lossless, amplitude_x=lcp.amplitude_x,
                      amplitude_y=lcp.amplitude_y,
                      omega_min=0.0, omega_max=2.0, omega_count=3,
                      Omega_min=0.0, Omega_max=0.0, Omega_count=1)
    grid = grid_scan(req)
    assert grid.singular.tolist() == [[False, True, False]]
    assert np.isnan(grid.values["sigma_ext"][0, 1])
    assert grid.metadata["n_singular"] == "1"


def test_corotating_corner_is_masked_despite_damping():
    # omega = Omega = omega0 is singular for any damping: the minus
    # channel sits at zero shifted frequency on a resonant spring
    grid = grid_scan(_request(omega_min=0.0, omega_max=2.0, omega_count=3,
                              Omega_min=0.0, Omega_max=2.0, Omega_count=3))
    expect = np.zeros((3, 3), dtype=bool)
    expect[1, 1] = True
    assert np.array_equal(grid.singular, expect)


@pytest.mark.parametrize("lattice", [
    dict(omega_min=0.1, omega_max=1e80, omega_count=3),
    dict(Omega_min=0.0, Omega_max=1e300, Omega_count=2),
], ids=["omega-power", "Omega-square"])
def test_overflowing_cells_raise_rather_than_mask(lattice):
    # omega**4 or Omega**2 leaves the range of doubles far from any
    # resonance: the scalar route calls that an overflow, and so must the
    # grid, instead of flagging the cells singular
    with pytest.raises(OverflowError):
        grid_scan(_request(**lattice))


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_output_is_deterministic(tmp_path):
    req = _request()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_grid_csv(grid_scan(req), a)
    write_grid_csv(grid_scan(req), b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_bytes_match_per_cell_rendering(tmp_path):
    # the lattice holds both co-rotation corners (singular, exported as
    # nan) and sigma_mech = -0 on the Omega = 0 row where omega < 0
    grid = grid_scan(_request(omega_min=-2.0, omega_max=2.0, omega_count=5,
                              Omega_min=-1.0, Omega_max=2.0, Omega_count=4))
    lines = [",".join(CSV_HEADER)]
    for i, Om in enumerate(grid.Omega):
        for j, om in enumerate(grid.omega):
            cells = [om, Om] + [grid.values[name][i, j]
                                for name in CSV_HEADER[2:-1]]
            flag = "1" if grid.singular[i, j] else "0"
            lines.append(",".join(f"{x:.17g}" for x in cells) + "," + flag)
    expect = "\n".join(lines) + "\n"
    assert ",nan," in expect and ",-0," in expect
    assert expect.count(",1\n") == int(grid.metadata["n_singular"]) == 2
    path = tmp_path / "scan.csv"
    write_grid_csv(grid, path)
    assert path.read_text() == expect


def test_failed_write_leaves_existing_csv_intact(tmp_path, monkeypatch):
    path = tmp_path / "scan.csv"
    path.write_text("previous\n")
    # the write fails after its first block of rows
    grid = grid_scan(_request(**_LONG))
    savetxt = np.savetxt
    blocks = []

    def savetxt_one_block(*args, **kwargs):
        if blocks:
            raise RuntimeError("write failed")
        blocks.append(savetxt(*args, **kwargs))

    monkeypatch.setattr(np, "savetxt", savetxt_one_block)
    with pytest.raises(RuntimeError):
        write_grid_csv(grid, path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]


def test_sidecar_contents(tmp_path):
    grid = grid_scan(_request("fig2"))
    path = tmp_path / "scan.csv"
    sidecar = write_grid_csv(grid, path)
    assert sidecar == str(path) + ".meta"
    meta = read_sidecar(sidecar)
    assert meta["units"] == "fig2"
    assert meta["polarization"] == "lcp"
    for name in CSV_HEADER[2:-1]:
        assert f"divisor_{name}" in meta


def test_reparse_balance_after_unit_conversion(tmp_path):
    # stored fig2 columns use two different divisors, so the balance
    # only closes after the sidecar restores a common unit
    grid = grid_scan(_request("fig2"))
    path = tmp_path / "scan.csv"
    write_grid_csv(grid, path)
    worst, checked = reparse_balance_check(path)
    assert checked == 7 * 5 - int(grid.metadata["n_singular"])
    assert worst <= 1e-10


def test_reparse_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    meta = "".join(f"divisor_{name} = 1.0\n" for name in CSV_HEADER[2:-1])
    (tmp_path / "bad.csv.meta").write_text(meta)
    with pytest.raises(ValueError):
        reparse_balance_check(path)


def test_reparse_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(CSV_HEADER) + "\n")
    meta = "".join(f"divisor_{name} = 1.0\n" for name in CSV_HEADER[2:-1])
    (tmp_path / "empty.csv.meta").write_text(meta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reparse_balance_check(path) == (0.0, 0)


def _tamper(path, column, edit):
    """Apply ``edit`` to one column of the first non-singular data row."""
    lines = path.read_text().splitlines(keepends=True)
    k = CSV_HEADER.index(column)
    for n, line in enumerate(lines[1:], start=1):
        row = line.rstrip("\n").split(",")
        if row[-1] == "0" and float(row[k]) != 0.0:
            row[k] = edit(row[k])
            lines[n] = ",".join(row) + "\n"
            break
    path.write_text("".join(lines))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_reparse_flags_non_finite_regular_row(tmp_path, value):
    # a damaged value in a row not marked singular must fail the check
    path = tmp_path / "scan.csv"
    write_grid_csv(grid_scan(_request("fig2", **_LONG)), path)
    _tamper(path, "sigma_mech", lambda _: value)
    worst, _ = reparse_balance_check(path)
    assert not worst <= 1e-10


def test_reparse_reports_tampered_extinction(tmp_path):
    path = tmp_path / "scan.csv"
    grid = grid_scan(_request("fig2", **_LONG))
    write_grid_csv(grid, path)
    _tamper(path, "sigma_ext", lambda x: repr(float(x) * (1.0 + 1e-6)))
    worst, checked = reparse_balance_check(path)
    assert 1e-10 < worst < 1e-5
    assert checked == 65 * 65 - int(grid.metadata["n_singular"])
