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
#: near 2 MB of arrays, however long the table, and a block is long
#: enough that the formatter's fixed cost per call (about 60 numpy calls)
#: stays small beside its cost per value.
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
# overflow or underflow, are formatted by Python instead.

#: the range of |x| on the numpy path, and the distance from a tie below
#: which the numpy rounding is not trusted
_FAST_LIMIT = 1e280
_TIE = 1e-6
#: the tables cover decimal exponents -_X_LIMIT.._X_LIMIT; the numpy path
#: needs |X| <= 282
_X_LIMIT = 290
#: Veltkamp's splitter of a double into two 26-bit halves, 2**27 + 1
_SPLIT = 134217729.0
#: bytes per formatted value: six little-endian words.  Word 0 holds the
#: sign, the "0." prefix of -4 <= X < 0 (up to "0.000"), the first digit
#: and its dot slot; words 1-4 four digits each, each with a dot slot;
#: word 5 the exponent suffix ("e+17", "e-123") and the ",".  Unused
#: bytes are NUL and are deleted when a block is written.
_FIELD = 48
_WORD = np.dtype("<u8")


def _pow10(k):
    """The double nearest 10**k, as Veltkamp halves (head, tail), and the
    double nearest the remainder: 10**k within a relative 2**-106."""
    if k >= 0:
        exact = 10**k
        hi = float(exact)
        lo = float(exact - int(hi))
    else:
        den = 10**-k
        hi = 1 / den
        num, pow2 = hi.as_integer_ratio()
        lo = (pow2 - num * den) / (pow2 * den)
    c = _SPLIT * hi
    head = c - (c - hi)
    return head, hi - head, lo


@functools.cache
def _scale_table():
    """Rows (head, tail, lo) of 10**(16 - X) by column X + _X_LIMIT; NaN
    until a value of exponent X is first formatted."""
    return np.full((3, 2 * _X_LIMIT + 1), np.nan)


def _scaled(a, a_head, a_tail, X):
    """y = a * 10**(16 - X) as p + s: the rounded product p and the rest
    s, for a in the fast range split as a_head + a_tail."""
    table = _scale_table()
    col = X + _X_LIMIT
    head = table[0][col]
    new = np.isnan(head)
    if new.any():
        for j in set(col[new].tolist()):
            table[:, j] = _pow10(16 + _X_LIMIT - j)
        head = table[0][col]
    tail, lo = table[1][col], table[2][col]
    p = a * (head + tail)
    err = (((a_head * head - p) + a_head * tail + a_tail * head)
           + a_tail * tail)
    return p, err + a * lo


def _decimal(x):
    """(N, X, slow) for a 1-D array of doubles: the 17 significant digits
    and the decimal exponent of each value (both 0 for a zero), and the
    mask of the values Python formats."""
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1 / _FAST_LIMIT) & (a <= _FAST_LIMIT)      # False at NaN
    a = np.where(fast, a, 1.0)
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    X = np.floor(np.log10(a)).astype(np.int64)
    p, s = _scaled(a, a_head, a_tail, X)
    # log10 may miss X by one beside a power of ten.  p - 1e16 and
    # p - 1e17 are exact wherever the sign of y - 1e16 or y - 1e17 is close
    low, high = (p - 1e16) + s < 0, (p - 1e17) + s >= 0
    off = np.flatnonzero(low | high)
    if off.size:
        X[off] += high[off].astype(np.int64) - low[off]
        p[off], s[off] = _scaled(a[off], a_head[off], a_tail[off], X[off])
    # p > 2**53 is an integer: y rounds where s does
    whole = np.floor(s)
    frac = s - whole
    N = p.astype(np.int64) + (whole + (frac >= 0.5)).astype(np.int64)
    carry = N == 10**17
    N[carry] = 10**16
    X[carry] += 1
    # Python formats the rest: values off the fast range, near-ties, and,
    # as a guard, any value that one correction of X did not place
    slow = ((~fast & ~zero) | (np.abs(frac - 0.5) < _TIE)
            | (N < 10**16) | (N > 10**17))
    N[zero] = 0
    X[zero | slow] = 0
    return N, X, slow


@functools.cache
def _digit_tables():
    """Per 4-digit group 0..9999: a word of its ASCII digits, each with an
    empty dot slot, and its trailing zeros (unused for 0).  Per count
    0..4 of kept digits: a group word's mask.  Per exponent: words 0 and
    5 without the sign and the first digit."""
    d = np.arange(100, dtype=_WORD)
    pairs = (d // 10 + 48) | (d % 10 + 48) << 16
    digits = (pairs[:, None] | pairs << 32).ravel()
    zeros = np.zeros(10000, np.int8)
    for k in (10, 100, 1000):
        zeros[::k] += 1
    masks = np.array([(1 << 16 * j) - 1 for j in range(5)], _WORD)
    exponents = range(-_X_LIMIT, _X_LIMIT + 1)
    prefixes = [b"0." + b"0" * (-X - 1) if -4 <= X < 0 else b""
                for X in exponents]
    suffixes = [b"" if -4 <= X < 17 else b"e%+03d" % X for X in exponents]
    words = np.frombuffer(b"".join(
        [(b"\0" + p).ljust(8, b"\0") for p in prefixes]
        + [x.ljust(7, b"\0") + b"," for x in suffixes]), _WORD).reshape(2, -1)
    return digits, zeros, masks, words


def _fields(x):
    """``"%.17g," % v`` for each double v of ``x``, NUL-padded to _FIELD
    bytes: a uint8 array of shape ``x.shape + (_FIELD,)``."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    N, X, slow = _decimal(flat)
    digits, zeros, masks, words = _digit_tables()
    first, rest = np.divmod(N, 10**16)
    groups = [rest // 10**k % 10**4 for k in (12, 8, 4, 0)]
    # the last nonzero digit after the first, 0 if there is none
    last = np.zeros_like(N)
    for k, g in enumerate(groups):
        last = np.where(g != 0, 4 * k + 4 - zeros[g], last)
    # the digit the point follows: X in fixed notation, where -4 <= X < 17
    # (below 0, the prefix holds the point), and 0 in exponent notation
    point = np.where((X < -4) | (X >= 17), 0, X)
    keep = np.maximum(last, point)
    out = np.empty((flat.size, _FIELD // 8), _WORD)
    out[:, 0] = (words[0][X + _X_LIMIT] | np.signbit(flat) * _WORD.type(45)
                 | (first.astype(_WORD) + 48) << 48)
    for k, g in enumerate(groups):
        out[:, 1 + k] = digits[g] & masks[np.clip(keep - 4 * k, 0, 4)]
    out[:, 5] = words[1][X + _X_LIMIT]
    dotted = np.flatnonzero((point >= 0) & (last > point))
    out.view(np.uint8).reshape(-1)[
        dotted * _FIELD + 7 + 2 * point[dotted]] = ord(".")
    if slow.any():
        out[slow] = np.frombuffer(b"".join(
            [(b"%.17g" % v).ljust(_FIELD - 1, b"\0") + b","
             for v in flat[slow].tolist()]), _WORD).reshape(-1, _FIELD // 8)
    return out.view(np.uint8).reshape(x.shape + (_FIELD,))


def write_columns(path, header, *columns):
    """Write equal-length columns as CSV with 17 significant digits,
    replacing ``path`` atomically.

    Each value is exactly ``"%.17g" % x``, the bytes ``np.savetxt`` wrote.
    A block of rows is formatted in numpy by one call for all columns;
    Python formats only the values of the fallback: NaN, +-inf, |x| below
    1e-280 or above 1e280, and the values within 1e-6 of a rounding tie at
    the 17th digit.  Those are about 2e-6 of random doubles, more where
    doubles have few fraction bits (every x.5 in [1e15, 1e16) is a tie),
    and up to 1.5e-5 of the values of a fig2 or figSI2 map.
    """
    with _atomic_open(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            rows = _fields(np.column_stack(
                [c[start:start + _BLOCK_ROWS] for c in columns]))
            rows[:, -1, -1] = ord("\n")
            fh.write(rows.tobytes().translate(None, b"\0"))


def write_grid_csv(grid: ScanGrid, path) -> str:
    """Write the grid as CSV plus the key-value sidecar ``PATH.meta``;
    returns the sidecar path.

    Rows are emitted row-major, the Omega axis outermost.  Values are
    ``"%.17g" % x``, as in :func:`write_columns`, so a re-parse reproduces
    the doubles bit-exactly: the six value columns of a block in one
    numpy call, each axis value once for the whole grid.  Python formats
    the fallback of :func:`write_columns`, the singular cells' NaN among
    it.  The singular flag is written as 1 or 0.  Each file is replaced
    atomically.
    """
    sidecar_path = f"{path}.meta"
    n = len(grid.omega)
    omega, Omega = _fields(grid.omega), _fields(grid.Omega)
    values = [grid.values[name].ravel() for name in CSV_HEADER[2:-1]]
    flags = grid.singular.ravel()
    with _atomic_open(path) as fh:
        fh.write((",".join(CSV_HEADER) + "\n").encode())
        for start in range(0, flags.size, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, flags.size)
            cells = _fields(np.column_stack([v[start:stop] for v in values]))
            cell = np.arange(start, stop)
            rows = np.empty((cell.size, 8 * _FIELD + 2), np.uint8)
            rows[:, :_FIELD] = omega[cell % n]
            rows[:, _FIELD:2 * _FIELD] = Omega[cell // n]
            rows[:, 2 * _FIELD:-2] = cells.reshape(cell.size, -1)
            rows[:, -2] = np.where(flags[start:stop], ord("1"), ord("0"))
            rows[:, -1] = ord("\n")
            fh.write(rows.tobytes().translate(None, b"\0"))
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
