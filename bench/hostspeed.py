"""How fast the host runs right now, from a fixed piece of reference work.

The sandboxes this benchmark runs on change single-thread speed by up to
2x over seconds to minutes, and CPU time slows with the wall time, so
neither a longer run nor CPU time removes the swing.  The benchmark
therefore times `reference_work` between its operations (a *mark*) and
reports every bounded timing scaled to a host on which that work takes
`REFERENCE_S`:

    scaled = wall * REFERENCE_S / reference time around that interval

`reference_work` never touches rotospin, so a change to the program
cannot move it.  It mixes the two kinds of work the workloads do:
scalar complex arithmetic in the interpreter (the ODE right-hand sides
and scalar kernel calls) and array arithmetic plus float formatting (the
broadcast kernel and the CSV writer).
"""

import bisect
import statistics
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

#: the typical `reference_work` time on the 2-vCPU Xeon sandbox the
#: bounds were set on (10 ms on a fast vCPU, 17 ms on a slow one); it
#: only fixes the scale of the scaled figures
REFERENCE_S = 0.0135

_AXIS = np.linspace(0.1, 3.0, 256)


def reference_work():
    z = 0j
    for k in range(5000):
        w = complex(0.5 + 1e-4 * k, 0.05)
        z += w / (w * w - 1.0 + 0.1j * w)
    for _ in range(20):
        grid = np.abs(1.0 / (_AXIS[:, None] ** 2 - _AXIS[None, ::4] ** 2
                             + 0.05j))
    text = "\n".join(map(repr, grid.ravel()[:3500].tolist()))
    ode = solve_ivp(_pendulum, (0.0, 15.0), [1.0, 0.0], rtol=1e-8)
    return z, len(text), ode.t.size


def _pendulum(t, y):
    return np.array([y[1], -0.1 * y[1] - np.sin(y[0])])


class Meter:
    """Marks taken between pieces of timed work.  A mark is the mean of
    `reps` timings of `reference_work`, with the interval it took."""

    def __init__(self, reps):
        self.reps = reps
        self.marks = []         # (start, end, mean reference time)

    def mark(self):
        t0 = perf_counter()
        ts = [_timed() for _ in range(self.reps)]
        self.marks.append((t0, perf_counter(), statistics.fmean(ts)))

    def extend(self, marks):
        self.marks = sorted(self.marks + [tuple(m) for m in marks])

    def around(self, t0, t1):
        """Mean reference time of the last mark ending by `t0` and the
        first starting from `t1` (one of them at the ends of the run)."""
        starts = [m[0] for m in self.marks]
        after = bisect.bisect_left(starts, t1)
        before = bisect.bisect_right(starts, t0) - 1
        while before >= 0 and self.marks[before][1] > t0:
            before -= 1
        near = [self.marks[i][2] for i in (before, after)
                if 0 <= i < len(self.marks)]
        return statistics.fmean(near)

    def scaled(self, t0, t1):
        """Reference-host seconds of the interval [t0, t1], which holds
        no mark."""
        return (t1 - t0) * REFERENCE_S / self.around(t0, t1)

    def scaled_span(self, t0, t1):
        """Reference-host seconds of [t0, t1] less the marks inside it."""
        edges = [t0] + [e for m in self.marks if t0 <= m[0] and m[1] <= t1
                        for e in m[:2]] + [t1]
        return sum(self.scaled(a, b) for a, b in zip(edges[::2], edges[1::2]))

    def mean(self):
        return statistics.fmean(m[2] for m in self.marks)


def _timed():
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0
