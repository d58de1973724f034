"""Grid evaluation, unit conversion, CSV export, and the re-parse check."""

import decimal
import io
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
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
from rotospin import scan
from rotospin.scan import CSV_HEADER, ScanGrid, read_sidecar, write_columns

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
                assert_allclose(cell, tuple(direct), rtol=1e-14, atol=0.0)
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


#: row counts on both sides of multiples of 256 rows
_BLOCK_EDGE_ROWS = (0, 1, 255, 256, 257, 513)

#: doubles whose rendering is easiest to get wrong
_EDGE_VALUES = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                         2.225073858507201e-308, 1e300, -1e300, 1e-300,
                         -1e-300, 0.1, 1.0, np.nextafter(1.0, 2.0)])


def _savetxt_rendering(header, columns):
    """The CSV as ``np.savetxt`` rendered it, 256 rows per call: the
    reference for the writer's bytes."""
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), 256):
        np.savetxt(out, np.column_stack([c[start:start + 256]
                                         for c in columns]),
                   fmt="%.17g", delimiter=",")
    return out.getvalue()


def _edge_doubles(rng, n):
    """``n`` doubles from random bit patterns, a third of them replaced by
    nan, +-inf, -0, subnormals and +-1e+-300."""
    values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    edge = rng.random(n) < 1 / 3
    values[edge] = rng.choice(_EDGE_VALUES, int(edge.sum()))
    return values


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.sampled_from(_BLOCK_EDGE_ROWS), width=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_write_columns_bytes_match_savetxt(tmp_path, rows, width, seed):
    rng = np.random.default_rng(seed)
    columns = [_edge_doubles(rng, rows) for _ in range(width)]
    header = tuple(f"c{k}" for k in range(width))
    path = tmp_path / "columns.csv"
    write_columns(path, header, *columns)
    assert path.read_text() == _savetxt_rendering(header, columns)


def _bits(pattern):
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


def _ties(X):
    """Odd multiples of 2**(X - 17) of decimal exponent X: 18 significant
    digits ending in 5, an exact tie at the 17th."""
    lo, hi = 10**X * 2**(17 - X), 10**(X + 1) * 2**(17 - X)
    return st.integers(math.ceil(lo) // 2, int(hi) // 2 - 1).map(
        lambda m: (2 * m + 1) * 2.0**(X - 17))


def _neighbours(x):
    return st.sampled_from([np.nextafter(x, -np.inf), x,
                            np.nextafter(x, np.inf)]).map(float)


#: the inputs where the numpy formatting is easiest to get wrong
_HARD_DOUBLES = st.one_of(
    # NaN payloads, +-inf, +-0, subnormals and raw bit patterns
    st.integers(1, 2**52 - 1).flatmap(lambda m: st.sampled_from(
        [_bits(0x7FF << 52 | m), _bits(0xFFF << 52 | m), _bits(m),
         _bits(1 << 63 | m)])),
    st.sampled_from([math.inf, -math.inf, 0.0, -0.0]),
    st.integers(0, 2**64 - 1).map(_bits),
    # the ends of the numpy path and powers of ten inside it
    st.sampled_from([1e280, -1e280, 1e-280, -1e-280]).flatmap(_neighbours),
    st.integers(-279, 279).flatmap(lambda k: _neighbours(float(f"1e{k}"))),
    # 17 nines: a carry into an 18th digit
    st.integers(-300, 291).flatmap(
        lambda k: _neighbours(float(f"99999999999999999e{k}"))),
    st.integers(-3, 10).flatmap(_ties),
    st.tuples(st.floats(-1e6, 1e6), st.integers(0, 17)).map(
        lambda t: round(*t)),
    st.integers(-10**18, 10**18).map(float),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(_HARD_DOUBLES, min_size=1, max_size=40))
def test_write_columns_formats_each_value_as_percent_17g(tmp_path, values):
    path = tmp_path / "values.csv"
    write_columns(path, ("x",), np.array(values))
    assert path.read_text().splitlines() == ["x"] + [
        "%.17g" % x for x in values]


def test_write_columns_formats_every_power_of_ten(tmp_path):
    # the doubles nearest 1e-14 and 1e98, among others, lie within half a
    # unit of the 17th digit below the power: their digits carry into 1e+k
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    values = np.concatenate([np.nextafter(powers, 0), powers,
                             np.nextafter(powers, np.inf)])
    path = tmp_path / "powers.csv"
    write_columns(path, ("x", "minus_x"), values, -values)
    assert path.read_text().splitlines() == ["x,minus_x"] + [
        "%.17g,%.17g" % (x, -x) for x in values.tolist()]


def _digits_and_exponent(text):
    """The count of significant digits and the decimal exponent of a
    number's text, trailing zeros not counted."""
    value = decimal.Decimal(text).normalize()
    return len(value.as_tuple().digits), value.adjusted()


def _fixed_notation_value(X, k):
    """The first double from k-digit decimals 1234...e(X - k + 1) up whose
    ``"%.17g"`` shows k significant digits and the exponent X."""
    for n in range(int("12345678912345678"[:k]), 10**k):
        value = float(f"{n}e{X - k + 1}")
        if _digits_and_exponent("%.17g" % value) == (k, X):
            return value
    raise AssertionError(f"no double shows {k} digits at exponent {X}")


def test_write_columns_places_every_fixed_point(tmp_path):
    # every fixed-notation exponent -4 <= X <= 16 with 1 to 17 significant
    # digits, so the point falls in the prefix, after the first digit or
    # after digit X of the other 16: after digit 8 at the boundary of
    # words 1 and 2, and after digits 1..15 with the 16th moved into word 3
    values = np.array([_fixed_notation_value(X, k) for X in range(-4, 17)
                       for k in range(1, 18)])
    path = tmp_path / "fixed.csv"
    write_columns(path, ("x", "minus_x"), values, -values)
    assert path.read_text().splitlines() == ["x,minus_x"] + [
        "%.17g,%.17g" % (x, -x) for x in values.tolist()]


def test_exact_tie_rounds_to_even(tmp_path):
    # 131073/131072 = 1.00000762939453125: the 17th digit stays even
    path = tmp_path / "tie.csv"
    write_columns(path, ("x",), np.array([131073 / 131072]))
    assert path.read_text() == "x\n1.0000076293945312\n"


@pytest.mark.parametrize("extra", [-1, 0, 1, scan._BLOCK_ROWS + 1])
def test_write_columns_across_block_edges(tmp_path, extra):
    rows = scan._BLOCK_ROWS + extra
    rng = np.random.default_rng(rows)
    columns = [_edge_doubles(rng, rows), rng.standard_normal(rows)]
    path = tmp_path / "columns.csv"
    write_columns(path, ("a", "b"), *columns)
    assert path.read_text() == _savetxt_rendering(("a", "b"), columns)


def _grid_rendering(grid):
    """The grid rendered by ``np.savetxt``: tiled and repeated axes,
    raveled values and the flag as a float."""
    columns = [np.tile(grid.omega, len(grid.Omega)),
               np.repeat(grid.Omega, len(grid.omega))]
    columns += [grid.values[name].ravel() for name in CSV_HEADER[2:-1]]
    columns.append(grid.singular.ravel())
    return _savetxt_rendering(CSV_HEADER, columns)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.sampled_from([(1, 1), (1, 255), (1, 256), (1, 257),
                              (257, 1), (16, 16), (3, 171), (19, 27)]),
       seed=st.integers(0, 2**32 - 1))
def test_grid_csv_bytes_match_savetxt(tmp_path, shape, seed):
    # (1, n) is a spectrum: one Omega, n values of omega
    rng = np.random.default_rng(seed)
    singular = rng.random(shape) < 0.2
    values = {name: _edge_doubles(rng, singular.size).reshape(shape)
              for name in CSV_HEADER[2:-1]}
    for arr in values.values():
        arr[singular] = np.nan
    grid = ScanGrid(omega=_edge_doubles(rng, shape[1]),
                    Omega=_edge_doubles(rng, shape[0]), values=values,
                    singular=singular, metadata={})
    path = tmp_path / "scan.csv"
    write_grid_csv(grid, path)
    assert path.read_text() == _grid_rendering(grid)


@pytest.mark.parametrize("units", ["physical", "fig2"])
@pytest.mark.parametrize("lattice", [
    dict(omega_min=-2.0, omega_max=2.0, omega_count=5,
         Omega_min=-1.0, Omega_max=2.0, Omega_count=4),
    dict(omega_count=257, Omega_min=1.0, Omega_max=1.0, Omega_count=1),
    _LONG,
], ids=["co-rotation-corners", "spectrum", "long"])
def test_scan_csv_bytes_match_savetxt(tmp_path, units, lattice):
    grid = grid_scan(_request(units, **lattice))
    path = tmp_path / "scan.csv"
    write_grid_csv(grid, path)
    assert path.read_text() == _grid_rendering(grid)


def test_grid_csv_write_memory_is_flat(tmp_path):
    # the writer converts one block of rows at a time; converting the
    # whole 65 536-row table to Python objects would take about 12 MB
    grid = grid_scan(_request("fig2", omega_min=0.0, omega_max=3.0,
                              omega_count=256, Omega_min=0.0, Omega_max=3.0,
                              Omega_count=256))
    tracemalloc.start()
    try:
        write_grid_csv(grid, tmp_path / "scan.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_failed_write_leaves_existing_csv_intact(tmp_path, monkeypatch):
    path = tmp_path / "scan.csv"
    path.write_text("previous\n")
    grid = grid_scan(_request(**_LONG))

    def open_failing(*args, **kwargs):
        # the write fails after the header and the first block of rows
        fh = open(*args, **kwargs)
        write, writes = fh.write, []

        def write_twice(text):
            if len(writes) == 2:
                raise RuntimeError("write failed")
            writes.append(write(text))

        fh.write = write_twice
        return fh

    monkeypatch.setattr(scan, "open", open_failing, raising=False)
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
