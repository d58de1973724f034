"""Grid maps and spectra of the six cross sections, with CSV export.

A scan evaluates the whole (omega, Omega) lattice in one broadcast call
of the response kernel.  Cells with an exactly vanishing response
denominator (the lossless resonance ellipse, or omega = +/-Omega at
|Omega| = omega0) are flagged in a boolean mask and exported as NaN with
a ``singular`` marker column.  A cell whose value overflows a double
raises ``OverflowError``, as a scalar evaluation there does.

Two unit conventions are supported.  ``physical`` leaves the areas in
cm^2 (or the normalized-model equivalent).  ``fig2`` divides the
friction-driven quantities (mechanical, absorption, extinction) by
Q^2 gamma / m c omega0^2 and the scattering quantities by Q^2 tau / m c,
which are the natural color-scale units for resonance maps; the numeric
divisors are recorded in the sidecar metadata so exported rows can be
restored to a common unit.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .response import (CrossSectionSet, DriveField, OscillatorModel,
                       _weights, cross_section_set)

CSV_HEADER = ("omega", "Omega", "sigma_mech", "sigma_abs", "sigma_elastic",
              "sigma_in_plus", "sigma_in_minus", "sigma_ext", "singular")

#: columns scaled by each divisor in fig2 units
_FRICTION_COLUMNS = ("sigma_mech", "sigma_abs", "sigma_ext")
_SCATTER_COLUMNS = ("sigma_elastic", "sigma_in_plus", "sigma_in_minus")


@dataclass(frozen=True)
class ScanRequest:
    """A rectangular (omega, Omega) lattice to evaluate.

    For a fixed-Omega spectrum set ``Omega_min == Omega_max`` and
    ``Omega_count = 1`` (the one allowed count-1 axis).
    """

    model: OscillatorModel
    amplitude_x: complex
    amplitude_y: complex
    omega_min: float
    omega_max: float
    omega_count: int
    Omega_min: float
    Omega_max: float
    Omega_count: int
    units: str = "physical"            # "physical" | "fig2"
    polarization_label: str = "explicit"

    def __post_init__(self):
        for lo, hi, n, name in ((self.omega_min, self.omega_max,
                                 self.omega_count, "omega"),
                                (self.Omega_min, self.Omega_max,
                                 self.Omega_count, "Omega")):
            if not np.isfinite(hi - lo):
                raise ValueError(f"{name} range and its width must be finite")
            if n < 1 or (n == 1 and lo != hi):
                raise ValueError(f"{name}_count must be >= 2, or 1 with a "
                                 "degenerate range")
            if n > 1 and hi <= lo:
                raise ValueError(f"{name} range must be increasing")
        if self.units not in ("physical", "fig2"):
            raise ValueError("units must be 'physical' or 'fig2'")
        if self.units == "fig2" and not all(
                0 < d < np.inf for d in self.unit_divisors().values()):
            raise ValueError("fig2 units divide by Q^2 gamma / (m c omega0^2) "
                             "and Q^2 tau / (m c); both must be nonzero and "
                             "finite")
        if abs(self.amplitude_x) == 0 and abs(self.amplitude_y) == 0:
            raise ValueError("drive amplitude must be nonzero")

    @property
    def omega_axis(self) -> np.ndarray:
        # the steps of a finite width may overflow, not the points
        with np.errstate(over="ignore"):
            return np.linspace(self.omega_min, self.omega_max,
                               self.omega_count)

    @property
    def Omega_axis(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.linspace(self.Omega_min, self.Omega_max,
                               self.Omega_count)

    def unit_divisors(self) -> dict:
        """Per-column divisor applied to physical values on export; 0, inf
        or NaN where a fig2 divisor leaves the range of doubles."""
        if self.units == "physical":
            return {name: 1.0 for name in _FRICTION_COLUMNS + _SCATTER_COLUMNS}
        m = self.model
        coupling, c = np.float64(m.coupling), np.float64(m.light_speed)
        with np.errstate(all="ignore"):
            friction = float(coupling * m.damping_rate
                             / (c * np.float64(m.natural_frequency)**2))
            scatter = float(coupling * m.radiative_time / c)
        out = {name: friction for name in _FRICTION_COLUMNS}
        out.update({name: scatter for name in _SCATTER_COLUMNS})
        return out


@dataclass(frozen=True)
class ScanGrid:
    """Evaluated lattice: axes, six value arrays, singular mask, metadata.

    Value arrays have shape (Omega_count, omega_count) and are stored in
    the request's unit convention.
    """

    omega: np.ndarray
    Omega: np.ndarray
    values: dict                      # column name -> 2-D array
    singular: np.ndarray              # 2-D bool
    metadata: dict


def grid_scan(req: ScanRequest) -> ScanGrid:
    """Evaluate the full lattice in one broadcast call."""
    omega_axis = req.omega_axis
    Omega_axis = req.Omega_axis
    omega, Omega = np.meshgrid(omega_axis, Omega_axis)
    drive = DriveField(omega, req.amplitude_x, req.amplitude_y)
    values = cross_section_set(req.model, drive, Omega).as_dict()

    singular = np.zeros(omega.shape, dtype=bool)
    for arr in values.values():
        singular |= ~np.isfinite(arr)
    # the scalar route's verdict: a non-finite cell off a resonance is an
    # overflow, not a singular cell
    if singular.any():
        with np.errstate(all="ignore"):
            *_, tp, tm = _weights(
                req.model, DriveField(omega[singular], req.amplitude_x,
                                      req.amplitude_y), Omega[singular])
        if not (np.isinf(tp) | np.isinf(tm)).all():
            raise OverflowError("a response value overflows a double")
    for arr in values.values():
        arr[singular] = np.nan

    divisors = req.unit_divisors()
    for name, arr in values.items():
        d = divisors[name]
        if d != 1.0:
            arr /= d

    metadata = {
        "units": req.units,
        "polarization": req.polarization_label,
        "amplitude_x": str(req.amplitude_x),
        "amplitude_y": str(req.amplitude_y),
        "coupling": repr(req.model.coupling),
        "natural_frequency": repr(req.model.natural_frequency),
        "damping_rate": repr(req.model.damping_rate),
        "radiative_time": repr(req.model.radiative_time),
        "light_speed": repr(req.model.light_speed),
        "omega_count": str(req.omega_count),
        "Omega_count": str(req.Omega_count),
        "n_singular": str(int(singular.sum())),
    }
    for name in CSV_HEADER[2:-1]:
        metadata[f"divisor_{name}"] = repr(divisors[name])
    return ScanGrid(omega=omega_axis, Omega=Omega_axis, values=values,
                    singular=singular, metadata=metadata)


@contextlib.contextmanager
def _atomic_open(path):
    """Open a temp file beside ``path`` for writing and rename it over
    ``path`` on success, so a failed write leaves any existing file intact.
    An OSError names ``path``, not the temp file."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


#: rows formatted or parsed per block.  Small blocks keep peak memory
#: independent of the table, and let each block's objects reuse freed heap
#: space, so a long-lived process that re-parses many files does not grow.
_BLOCK_ROWS = 256


def _write_columns(fh, header, columns, fmt):
    """Write equal-length array or list columns to ``fh`` as CSV, a block
    of rows at a time.  Each row is one ``fmt % row`` on Python scalars
    (an array's block through ``.tolist()``): for ``"%.17g"`` the same
    bytes as ``np.savetxt``, with less work per value."""
    fh.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = (c[start:start + _BLOCK_ROWS] for c in columns)
        rows = zip(*(b if isinstance(b, list) else b.tolist() for b in block))
        fh.write("".join([fmt % row for row in rows]))


def write_columns(path, header, *columns):
    """Write equal-length columns as CSV with 17 significant digits,
    replacing ``path`` atomically."""
    with _atomic_open(path) as fh:
        _write_columns(fh, header, columns,
                       ",".join(["%.17g"] * len(columns)) + "\n")


def write_grid_csv(grid: ScanGrid, path) -> str:
    """Write the grid as CSV plus the key-value sidecar ``PATH.meta``;
    returns the sidecar path.

    Rows are emitted row-major, the Omega axis outermost.  Values use 17
    significant digits so a re-parse reproduces the doubles bit-exactly;
    each axis value is formatted once and its string repeated for every
    cell that shares it, and the singular flag is written as 1 or 0.
    Each file is replaced atomically.
    """
    sidecar_path = f"{path}.meta"
    omega, Omega = (["%.17g" % x for x in axis.tolist()]
                    for axis in (grid.omega, grid.Omega))
    columns = [omega * len(Omega), [x for x in Omega for _ in omega]]
    columns += [grid.values[name].ravel() for name in CSV_HEADER[2:-1]]
    columns.append(grid.singular.ravel())
    fmt = "%s,%s," + "%.17g," * len(CSV_HEADER[2:-1]) + "%d\n"
    with _atomic_open(path) as fh:
        _write_columns(fh, CSV_HEADER, columns, fmt)
    with _atomic_open(sidecar_path) as fh:
        for key in sorted(grid.metadata):
            fh.write(f"{key} = {grid.metadata[key]}\n")
    return sidecar_path


def read_sidecar(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def reparse_balance_check(csv_path):
    """Re-read an exported CSV and re-verify the power balance per row.

    Columns are first restored to a common unit with the divisors of the
    sidecar ``CSV_PATH.meta``.  Returns (max_relative_residual,
    n_rows_checked); singular rows and rows with no response are skipped.
    A non-finite value in any other row makes the residual NaN, which
    fails every tolerance.
    """
    meta = read_sidecar(f"{csv_path}.meta")
    div = [float(meta[f"divisor_{name}"]) for name in CSV_HEADER[2:-1]]

    worst, checked = 0.0, 0
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header}")
        while lines := list(itertools.islice(fh, _BLOCK_ROWS)):
            table = np.loadtxt(lines, delimiter=",", ndmin=2)
            sig = CrossSectionSet(*(table[:, 2:-1] * div).T)
            scale = sig.balance_scale
            keep = (table[:, -1] != 1) & (scale != 0)
            with np.errstate(invalid="ignore"):     # inf/inf in a damaged row
                residual = np.abs(sig.balance_residual[keep]) / scale[keep]
            worst = np.max(residual, initial=worst)
            checked += int(keep.sum())
    return float(worst), checked
