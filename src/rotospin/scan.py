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
import functools
import itertools
import os
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .response import (CrossSectionSet, DriveField, OscillatorModel,
                       SingularResonanceError, cross_section_set)

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


class ScanGrid(NamedTuple):
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
    # a non-finite cell is singular where its point raises
    # SingularResonanceError, and an overflow anywhere else
    if singular.any():
        for w, Om in zip(omega[singular].tolist(), Omega[singular].tolist()):
            try:
                cross_section_set(req.model, DriveField(
                    w, req.amplitude_x, req.amplitude_y), Om)
            except SingularResonanceError:
                continue
            except OverflowError:
                pass
            raise OverflowError("a response value overflows a double")

    divisors = req.unit_divisors()
    for name, arr in values.items():
        arr[singular] = np.nan
        if divisors[name] != 1.0:
            arr /= divisors[name]

    metadata = {
        "units": req.units,
        "polarization": req.polarization_label,
        "amplitude_x": str(req.amplitude_x),
        "amplitude_y": str(req.amplitude_y),
        **{f.name: repr(getattr(req.model, f.name))
           for f in fields(req.model)},
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
    """Open a temp file beside ``path`` for binary writing and rename it
    over ``path`` on success, so a failed write leaves any existing file
    intact.  An OSError names ``path``, not the temp file."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


#: rows formatted per block.  Writing a block of 9-column scan rows peaks
#: near 1.5 MB of arrays, however long the table, and a block is long
#: enough that the formatter's fixed cost per call (about 100 numpy
#: calls) stays small beside its cost per value.
_BLOCK_ROWS = 1024
#: rows parsed per block.  Small blocks keep peak memory independent of
#: the table, and let each block's objects reuse freed heap space, so a
#: long-lived process that re-parses many files does not grow.
_PARSE_ROWS = 256

# CSV values are formatted in numpy, byte for byte as Python's "%.17g".
# A double x != 0 prints its 17 significant digits N (10**16 <= N <
# 10**17) and its decimal exponent X, where N is |x| * 10**(16 - X)
# rounded to nearest.  That scale y is formed as a double-double: the
# exact (Dekker) product of |x| with the high part of 10**(16 - X), plus
# |x| times the low part, within 1e-13 of the exact y.  So N is exact
# unless y is within _TIE of a rounding tie.  Such values, non-finite
# ones and |x| outside [1/_FAST_LIMIT, _FAST_LIMIT], where a split could
# overflow or underflow, are formatted by Python instead.  A value takes
# _WORDS little-endian words: word 0 the sign, the "0." prefix of -4 <= X
# < 0 (up to "0.000"), the first digit and a slot for a point after it;
# words 1-2 the other 16 digits, a byte each; word 3 the exponent suffix
# ("e-123") and the ",".  NULs pad the 32 bytes and are deleted on write.

#: the range of |x| on the numpy path, and the distance from a tie below
#: which the numpy rounding is not trusted
_FAST_LIMIT = 1e280
_TIE = 1e-6
#: the tables cover decimal exponents -_X_LIMIT.._X_LIMIT; the numpy path
#: needs |X| <= 282
_X_LIMIT = 290
#: Veltkamp's splitter of a double into two 26-bit halves, 2**27 + 1
_SPLIT = 134217729.0
_WORDS = 4
_WORD = np.dtype("<u8")


def _pow10(k):
    """The double nearest 10**k, as Veltkamp halves (head, tail), and the
    double nearest the remainder: 10**k within a relative 2**-106."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    c = _SPLIT * hi
    head = c - (c - hi)
    return head, hi - head, (num * hi_den - hi_num * den) / (den * hi_den)


def _rounded(a, X):
    """y = a * 10**(16 - X) as N + d, for a in the fast range: the
    nearest integer N and the rest d, |d| <= 1/2."""
    table = _format_tables()[3]
    col = X + _X_LIMIT
    head, tail, lo = table.take(col, axis=1)
    if np.isnan(head.sum()):                # a new exponent among them
        for j in set(col[np.isnan(head)].tolist()):
            table[:, j] = _pow10(16 + _X_LIMIT - j)
        head, tail, lo = table.take(col, axis=1)
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    p = a * (head + tail)
    s = ((((a_head * head - p) + a_head * tail + a_tail * head)
          + a_tail * tail) + a * lo)
    r = np.rint(s)            # p > 2**53 is an integer: y rounds where s does
    return p.astype(np.int64) + r.astype(np.int64), s - r


def _decimal(x):
    """(N, X, slow) of a 1-D array of doubles: 17 significant digits and
    decimal exponent of each (0, 0 for a zero), and the mask Python formats."""
    a = np.abs(x)
    nonzero = a != 0
    fast = (a >= 1 / _FAST_LIMIT) & (a <= _FAST_LIMIT)      # False at NaN
    a = np.where(fast, a, 2.0)         # N inside (10**16, 10**17)
    X = np.floor(np.log10(a)).astype(np.int64)
    N, d = _rounded(a, X)
    # beside a power of ten log10 may miss X by one, and y leaves [1e16, 1e17)
    off = np.flatnonzero((N <= 10**16) | (N >= 10**17))
    if off.size:
        m = N[off] + (d[off] >= 0)
        X[off] += (m > 10**17).astype(np.int64) - (m <= 10**16)
        N[off], d[off] = _rounded(a[off], X[off])
        carry = off[N[off] == 10**17]         # 17 nines rounded up
        N[carry], X[carry] = 10**16, X[carry] + 1
    # Python formats values off the fast range, near-ties and, as a guard,
    # any N that one correction of X did not place
    slow = (nonzero > fast) | (np.abs(d) > 0.5 - _TIE)
    slow[off] |= (N[off] - 10**16).view(np.uint64) >= 9 * 10**16
    return N * nonzero, X, slow


@functools.cache
def _format_tables():
    """``digits``, per 4-digit group: its ASCII and, in byte 4, trailing
    zeros (16 for 0).  ``by_x``, in row X + _X_LIMIT: words 0 and 3 less
    sign and digits, and between them the most digits dropped (none up to
    a fixed point) and the trailing zeros below which a point is shifted
    in.  ``masks``, by digits dropped: the bytes kept in words 0-2.  Rows
    (head, tail, lo) of 10**(16 - X) by column X + _X_LIMIT, NaN until a
    value of exponent X is first formatted."""
    d = np.arange(100, dtype=_WORD)
    pairs = (d // 10 + 48) | (d % 10 + 48) << 8
    zeros = (d % 10 == 0) + 13 * (d == 0)   # 14 for 00, so 16 for 0000
    digits = (pairs[:, None] | pairs << 16 | np.where(
        d == 0, 2 + zeros[:, None], zeros).astype(_WORD) << 32).ravel()
    exponents = np.arange(-_X_LIMIT, _X_LIMIT + 1)
    # the point follows digit X of fixed notation, is in the prefix below
    # X = 0, and follows the first digit, in the slot, everywhere else
    words = [(b"\0" + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")
              ).ljust(7, b"\0") + (b"\0" if -4 <= x < 0 or 0 < x < 17
                                   else b".") for x in exponents.tolist()]
    words += [(b"" if -4 <= x < 17 else b"e%+03d" % x).ljust(7, b"\0") + b","
              for x in exponents.tolist()]
    head, tail = np.frombuffer(b"".join(words), _WORD).reshape(2, -1)
    point = (exponents * ((exponents >= 0) & (exponents < 17))).astype(_WORD)
    by_x = np.stack([head, 16 - point, (16 - point) * (point > 0), tail], 1)
    kept = range(16, -1, -1)
    masks = np.frombuffer(b"".join((b"\xff" * k).ljust(8, b"\0") for k in [
        7 + (n > 0) for n in kept] + [min(n, 8) for n in kept] + [
        max(n - 8, 0) for n in kept]), _WORD).reshape(3, -1)
    return digits, by_x, masks, np.full((3, 2 * _X_LIMIT + 1), np.nan)


def _fields(x):
    """``"%.17g," % v`` for each double v of ``x``, NUL-padded: an array
    of shape (x.size, _WORDS)."""
    flat = np.asarray(x, dtype=float).ravel()
    N, X, slow = _decimal(flat)
    digits, by_x, masks, _ = _format_tables()
    # words 0 and 3, and in words 1 and 2 until the digits, X's limits
    out = by_x.take(X + _X_LIMIT, axis=0)
    top = N // 10**8
    first = top // 10**8
    high, low = top - first * 10**8, N - top * 10**8
    g0, g2 = high // 10**4, low // 10**4
    groups = [digits.take(g) for g in (g0, high - g0 * 10**4,
                                       g2, low - g2 * 10**4)]
    # the last nonzero group's trailing zeros, plus 4 per zero group after it
    zeros = np.minimum(np.minimum(groups[0] + (12 << 32),
                                  groups[1] + (8 << 32)),
                       np.minimum(groups[2] + (4 << 32), groups[3])) >> 32
    shift = np.flatnonzero(zeros < out[:, 2])
    drop = np.minimum(zeros, out[:, 1]).view(np.int64)
    out[:, 0] &= masks[0].take(drop)
    out[:, 0] |= ((flat.view(np.uint64) >> 63) * 45
                  | ((first + 48) << 48).view(np.uint64))
    np.bitwise_and(groups[0] & 0xFFFFFFFF | groups[1] << 32,
                   masks[1].take(drop), out=out[:, 1])
    np.bitwise_and(groups[2] & 0xFFFFFFFF | groups[3] << 32,
                   masks[2].take(drop), out=out[:, 2])
    if shift.size:
        # a point after digit p, at bit b = 8p, moves the digits behind it
        # up a byte, the last into word 3 (shifts by 64 or more give 0)
        _, w1, w2, w3 = out.T
        b = X[shift].view(np.uint64) << 3
        move1 = w1[shift] & 2**64 - 1 << b
        move2 = w2[shift] & 2**64 - 1 << np.maximum(b, 64) - 64
        w1[shift] ^= move1 ^ move1 << 8 ^ 46 << b
        w2[shift] ^= move2 ^ move2 << 8 ^ move1 >> 56 ^ 46 << b - 64
        w3[shift] |= move2 >> 56
    if slow.any():
        out[slow] = np.frombuffer(b"".join(
            [(b"%.17g" % v).ljust(8 * _WORDS - 1, b"\0") + b","
             for v in flat[slow].tolist()]), _WORD).reshape(-1, _WORDS)
    return out


def _write_rows(path, header, count, block):
    """Write the CSV ``header`` and ``count`` rows, the words of rows
    start..stop from ``block(start, stop)``, replacing ``path`` atomically.
    A row's last byte, a "," or a free slot, becomes its "\n"."""
    with _atomic_open(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, count, _BLOCK_ROWS):
            rows = block(start, min(start + _BLOCK_ROWS, count)).astype(
                _WORD, copy=False)
            rows.view(np.uint8)[:, -1] = ord("\n")
            fh.write(rows.tobytes().translate(None, b"\0"))


def write_columns(path, header, *columns):
    """Write equal-length columns as CSV with 17 significant digits,
    replacing ``path`` atomically.

    Each value is exactly ``"%.17g" % x``, the bytes ``np.savetxt`` wrote.
    A block of rows is formatted in numpy by one call for all columns, a
    32-byte field a value.  Python formats only the values of the
    fallback: NaN, +-inf, |x| below 1e-280 or above 1e280, and the values
    within 1e-6 of a rounding tie at the 17th digit.  Those are about 2e-6
    of random doubles, more where doubles have few fraction bits (every
    x.5 in [1e15, 1e16) is a tie), and up to 1.5e-5 of a fig2 or figSI2
    map's values.
    """
    _write_rows(path, header, len(columns[0]), lambda start, stop: _fields(
        np.column_stack([c[start:stop] for c in columns])
    ).reshape(stop - start, -1))


def write_grid_csv(grid: ScanGrid, path) -> str:
    """Write the grid as CSV plus the key-value sidecar ``PATH.meta``;
    returns the sidecar path.

    Rows are emitted row-major, the Omega axis outermost.  Values are
    ``"%.17g" % x``, as in :func:`write_columns`, so a re-parse reproduces
    the doubles bit-exactly: the six value columns of a block in one call,
    each axis value once for the whole grid, and the singular cells' NaN
    by Python.  The singular flag is written as 1 or 0, in a word after
    the eight fields.  Each file is replaced atomically.
    """
    sidecar_path = f"{path}.meta"
    omega, Omega = _fields(grid.omega), _fields(grid.Omega)
    values = [grid.values[name].ravel() for name in CSV_HEADER[2:-1]]
    flags = grid.singular.ravel()

    def block(start, stop):
        row, col = np.divmod(np.arange(start, stop), len(omega))
        cells = _fields(np.column_stack([v[start:stop] for v in values]))
        return np.column_stack([omega.take(col, 0), Omega.take(row, 0),
                                cells.reshape(stop - start, -1),
                                flags[start:stop] + _WORD.type(ord("0"))])

    _write_rows(path, CSV_HEADER, flags.size, block)
    with _atomic_open(sidecar_path) as fh:
        fh.write("".join(f"{key} = {grid.metadata[key]}\n"
                         for key in sorted(grid.metadata)).encode())
    return sidecar_path


def read_sidecar(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
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
        while lines := list(itertools.islice(fh, _PARSE_ROWS)):
            table = np.loadtxt(lines, delimiter=",", ndmin=2)
            sig = CrossSectionSet(*(table[:, 2:-1] * div).T)
            scale = sig.balance_scale
            keep = (table[:, -1] != 1) & (scale != 0)
            with np.errstate(invalid="ignore"):     # inf/inf in a damaged row
                residual = np.abs(sig.balance_residual[keep]) / scale[keep]
            worst = np.max(residual, initial=worst)
            checked += int(keep.sum())
    return float(worst), checked
