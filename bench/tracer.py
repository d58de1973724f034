"""Layer spans recorded from outside the library.

`install()` replaces each layer's public functions with span-recording
wrappers in every ``rotospin`` module namespace that holds them, because
the modules import names directly (``from .response import torque``).
Spans are kept in memory as ``(name, parent, start, end, a, b)`` tuples;
``a`` and ``b`` carry a per-span count (cells, bytes, members).
`contributions()` turns a span list into the additive per-layer figures
of one operation, and `finish()` turns the per-cycle sums into the
reported per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from time import perf_counter

#: numpy, bound by `Tracer.install`; importing it here would let the
#: import figures miss it
np = None

LAYERS = ("cli", "config", "response", "scan", "dynamics", "medium",
          "timedomain", "materials", "validation")

#: private config helpers the CLI calls through ``cfgmod._get_float`` etc.
_EXTRA = {"config": ("_get_float", "_get_int", "_get_optional_float")}

CHECKS = ("balance_identity", "polynomial_identity", "ode_residual",
          "time_domain", "sign_structure", "mirror_symmetry",
          "optical_theorem", "static_torque_consistency",
          "mapping_consistency", "quadrature_equivalence", "thermal_law",
          "amplifier", "resonance_ridge", "locus_points", "scan_roundtrip",
          "positivity")
SUBCOMMANDS = ("point", "scan", "spectrum", "spinup", "thermal", "amplify",
               "validate")

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [("import.wall_s", "s"), ("import.modules", "count"),
     ("import.scipy_modules", "count"), ("cli.import_s", "s"),
     ("cli.parse.self_s", "s")]
    + [(f"cli.{c}.self_s", "s") for c in SUBCOMMANDS]
    + [("config.self_s", "s"), ("config.calls", "count"),
       ("response.array.calls", "count"), ("response.array.cells", "count"),
       ("response.array.self_s", "s"), ("response.scalar.calls", "count"),
       ("response.scalar.self_s", "s"),
       ("scan.grid_scan.self_s", "s"), ("scan.write_grid_csv.self_s", "s"),
       ("scan.write_grid_csv.bytes", "bytes"),
       ("scan.reparse_balance_check.self_s", "s"),
       ("scan.singular_ratio", "ratio"),
       ("dynamics.spin_up_trajectory.calls", "count"),
       ("dynamics.spin_up_trajectory.self_s", "s"),
       ("dynamics.torque_calls", "count"),
       ("dynamics.time_to_target_by_quadrature.self_s", "s"),
       ("medium.ensemble_extinction.calls", "count"),
       ("medium.ensemble_extinction.self_s", "s"),
       ("medium.members", "count"),
       ("timedomain.force_law_averages.calls", "count"),
       ("timedomain.force_law_averages.self_s", "s"),
       ("materials.self_s", "s")]
    + [(f"validation.{c}.self_s", "s") for c in CHECKS]
    + [("trace.overhead_ratio", "ratio")])

#: counts that must be identical between traced runs of one seed
EXACT_COUNTS = ("config.calls", "response.array.calls",
                "response.array.cells", "response.scalar.calls",
                "scan.write_grid_csv.bytes",
                "dynamics.spin_up_trajectory.calls", "dynamics.torque_calls",
                "medium.ensemble_extinction.calls", "medium.members",
                "timedomain.force_law_averages.calls", "scan.singular",
                "scan.cells")

_SPAN_SELF = {"cli.parse": "cli.parse.self_s",
              "scan.grid_scan": "scan.grid_scan.self_s",
              "scan.write_grid_csv": "scan.write_grid_csv.self_s",
              "scan.reparse_balance_check":
                  "scan.reparse_balance_check.self_s",
              "dynamics.spin_up_trajectory":
                  "dynamics.spin_up_trajectory.self_s",
              "dynamics.time_to_target_by_quadrature":
                  "dynamics.time_to_target_by_quadrature.self_s",
              "medium.ensemble_extinction":
                  "medium.ensemble_extinction.self_s",
              "timedomain.force_law_averages":
                  "timedomain.force_law_averages.self_s"}
_SPAN_SELF.update({f"cli.{c}": f"cli.{c}.self_s" for c in SUBCOMMANDS})
_SPAN_SELF.update({f"validation.check_{c}": f"validation.{c}.self_s"
                   for c in CHECKS})
_SPAN_CALLS = {"dynamics.spin_up_trajectory":
                   "dynamics.spin_up_trajectory.calls",
               "medium.ensemble_extinction":
                   "medium.ensemble_extinction.calls",
               "timedomain.force_law_averages":
                   "timedomain.force_law_averages.calls"}


def import_rotospin():
    """Import the package in a fresh process; returns the import figures."""
    before = set(sys.modules)
    t0 = perf_counter()
    import rotospin  # noqa: F401
    t1 = perf_counter()
    new = set(sys.modules) - before
    return {"import.wall_s": t1 - t0, "import.modules": len(new),
            "import.scipy_modules": sum(1 for m in new
                                        if m.split(".")[0] == "scipy")}


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.enabled = True

    def take(self):
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, before=None, after=None):
        """Span-recording wrapper; ``before(args, kwargs)`` gives a name
        suffix and a count, ``after(args, result)`` two counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name, a = name, 0
            if before is not None:
                suffix, a = before(args, kwargs)
                if suffix:
                    span_name = f"{name}.{suffix}"
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.spans[idx] = (span_name, parent, t0, t1, a, 0)
            if after is not None:
                self.spans[idx] = (span_name, parent, t0, t1,
                                   *after(args, out))
            return out
        return wrapper

    def install(self):
        """Wrap every layer's public functions wherever they are bound."""
        global np
        import numpy as np
        import rotospin.cli  # noqa: F401  (pulls in config and validation)

        mods = {layer: sys.modules[f"rotospin.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in _EXTRA.get(layer, ()):
                    continue
                if layer == "validation" and not attr.startswith("check_"):
                    continue    # helpers count as their check's own time
                if layer == "cli":
                    if attr == "build_parser":
                        wrapped[id(fn)] = self._parser_wrapper(fn)
                    elif attr.startswith("cmd_"):
                        wrapped[id(fn)] = self._wrap(f"cli.{attr[4:]}", fn)
                    continue
                hooks = _HOOKS.get((layer, attr), _HOOKS.get(layer, ()))
                wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn, *hooks)
        for name, mod in list(sys.modules.items()):
            if name != "rotospin" and not name.startswith("rotospin."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
                elif isinstance(value, tuple) and any(
                        id(v) in wrapped for v in value):
                    # validation.ALL_CHECKS holds the check functions
                    setattr(mod, attr, tuple(wrapped.get(id(v), v)
                                             for v in value))

    def _parser_wrapper(self, build_parser):
        timed_build = self._wrap("cli.parse", build_parser)

        def wrapper(*args, **kwargs):
            parser = timed_build(*args, **kwargs)
            parser.parse_args = self._wrap("cli.parse", parser.parse_args)
            return parser
        return wrapper


def _response_size(args, kwargs):
    """('array', cells) when any frequency argument is an array, else
    ('scalar', 1)."""
    arrays = []
    for value in args + tuple(kwargs.values()):
        value = getattr(value, "frequency", value)   # a DriveField
        if isinstance(value, np.ndarray) and value.ndim > 0:
            arrays.append(value)
    if not arrays:
        return "scalar", 1
    try:
        return "array", int(np.broadcast(*arrays).size)
    except ValueError:
        return "array", max(int(a.size) for a in arrays)


def _members(args, kwargs):
    medium = args[0] if args else kwargs["medium"]
    return "", len(medium.members)


def _csv_bytes(args, grid):
    return os.path.getsize(args[1]), 0


def _singular(args, grid):
    return int(grid.singular.sum()), int(grid.singular.size)


#: (before, after) hooks by (layer, function) or by layer
_HOOKS = {"response": (_response_size,),
          ("scan", "write_grid_csv"): (None, _csv_bytes),
          ("scan", "grid_scan"): (None, _singular),
          ("medium", "ensemble_extinction"): (_members,)}


def contributions(spans) -> dict:
    """Additive per-layer figures of one operation's spans."""
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for i, (name, parent, t0, t1, a, b) in enumerate(spans):
        self_s = (t1 - t0) - child_time[i]
        layer = name.split(".", 1)[0]
        parent_name = spans[parent][0] if parent >= 0 else ""
        entered = parent_name.split(".", 1)[0] != layer
        if layer in ("config", "materials"):
            add(f"{layer}.self_s", self_s)
            if entered and layer == "config":
                add("config.calls", 1)
        elif layer == "response":
            kind = name.rsplit(".", 1)[1]
            add(f"response.{kind}.self_s", self_s)
            if entered:
                add(f"response.{kind}.calls", 1)
                if kind == "array":
                    add("response.array.cells", a)
            if name.startswith("response.torque.") and \
                    parent_name.startswith("dynamics."):
                add("dynamics.torque_calls", a)
        if name in _SPAN_SELF:
            add(_SPAN_SELF[name], self_s)
        if name in _SPAN_CALLS:
            add(_SPAN_CALLS[name], 1)
        if name == "scan.write_grid_csv":
            add("scan.write_grid_csv.bytes", a)
        elif name == "scan.grid_scan":
            add("scan.singular", a)
            add("scan.cells", b)
        elif name == "medium.ensemble_extinction":
            add("medium.members", a)
    return out


def add_into(total: dict, part: dict):
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def finish(cycles, imports, cli_imports, traced_wall, untraced_wall):
    """Per-layer metrics from per-cycle sums and per-process import figures.

    Times are the median over cycles; counts come from the first cycle
    and every later cycle must repeat them.  Returns (metrics, problems).
    """
    problems = []
    for key in EXACT_COUNTS:
        seen = {c.get(key, 0) for c in cycles}
        if len(seen) > 1:
            problems.append(f"{key} differs between cycles: {sorted(seen)}")
    for key in ("import.modules", "import.scipy_modules"):
        seen = {i[key] for i in imports}
        if len(seen) > 1:
            problems.append(f"{key} differs between processes: "
                            f"{sorted(seen)}")
    metrics = {}
    for name, unit in PER_LAYER:
        if name.startswith("import."):
            values = [i[name] for i in imports]
            value = (statistics.median(values) if unit == "s"
                     else values[0])
        elif name == "cli.import_s":
            value = statistics.median(cli_imports) if cli_imports else 0.0
        elif name == "scan.singular_ratio":
            cells = cycles[0].get("scan.cells", 0)
            value = cycles[0].get("scan.singular", 0) / cells if cells else 0.0
        elif name == "trace.overhead_ratio":
            value = traced_wall / untraced_wall
        elif unit == "s":
            value = statistics.median(c.get(name, 0.0) for c in cycles)
        else:
            value = cycles[0].get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems
