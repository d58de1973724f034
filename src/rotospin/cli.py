"""Command-line front end.

Subcommands: point, scan, spectrum, spinup, thermal, amplify, validate.
Parameters come from presets, then an optional --config file, then
flags, each layer overriding the previous.  Exit codes: 0 success,
2 configuration error (an input too large to evaluate, a lattice too
large for memory or an unwritable output among them), 3 singular
lossless resonance, 4 validation or self-check failure.

``main(argv)`` is the in-process entry; ``run()`` is the process entry
of the ``rotospin`` command and of ``python -m rotospin.cli``.
"""

from __future__ import annotations

import argparse
import gc
import sys
import warnings

import numpy as np

from . import config as cfgmod
from . import dynamics, medium, scan, validation
from .response import (SingularResonanceError, absorption_cross_section,
                       cross_section_set, torque)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_VALIDATION = 4

def _add_flags(p, section):
    """Declare the flags of ``section`` in ``config.KEYS`` on ``p``, each
    with dest "section.key".  Argparse keeps each value as typed, and
    config parses it as it does a file's."""
    for key, (kind, flag, options) in cfgmod.KEYS[section].items():
        if flag:
            # the metavar argparse would show for choices or for the flag
            metavar = ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                       else flag[2:].replace("-", "_").upper())
            p.add_argument(flag, dest=f"{section}.{key}",
                           **{"metavar": metavar, **options})


def _seed(text):
    """--seed: a non-negative integer.  ``random.Random(-n)`` seeds the
    same stream as ``random.Random(n)``, so a negative seed would silently
    repeat a positive one."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return seed


def _layered(args) -> dict:
    """The preset, then the --config file, then the flags (dest
    "section.key"), each layer overriding the last."""
    flags = {}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            flags.setdefault(section, {})[key] = value
    preset = cfgmod.PRESETS.get(getattr(args, "preset", None), {})
    file = cfgmod.load_config(args.config) if args.config else {}
    return cfgmod.layer_configs(preset, file, flags)


def _print_kv(pairs):
    for key, value in pairs:
        if isinstance(value, float):
            print(f"{key} = {value:.17g}")
        else:
            print(f"{key} = {value}")


def cmd_point(cfg) -> int:
    model, drive, Omega = cfgmod.point_args(cfg)
    cs = cross_section_set(model, drive, Omega)
    m_val = torque(model, drive, Omega)
    scale = cs.balance_scale
    residual = cs.balance_residual
    rel = abs(residual) / scale if scale > 0 else 0.0

    print(f"# response at omega = {drive.frequency:g}, Omega = {Omega:g}")
    rows = [("torque", m_val)] + list(cs.as_dict().items())
    rows += [("balance_residual", residual)]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"  {key:<{width}}  {value:+.10e}")
    print()
    _print_kv([("omega", drive.frequency), ("Omega", Omega)] + rows)
    if rel > validation.BALANCE_TOL:
        print(f"self-check failed: balance residual {rel:.3e} exceeds "
              f"{validation.BALANCE_TOL:.0e}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _export_grid(cfg, section):
    """Scan the grid of ``section`` and write it to CSV: the request, the
    grid, the CSV's path and its sidecar's."""
    req = cfgmod.build_scan_request(cfg, section)
    grid = scan.grid_scan(req)
    out = cfgmod.build_output(cfg, f"{section}.csv")
    return req, grid, out, scan.write_grid_csv(grid, out)


def cmd_scan(cfg) -> int:
    _, grid, out, sidecar = _export_grid(cfg, "scan")
    print(f"wrote {out} ({grid.singular.size} cells, "
          f"{int(grid.singular.sum())} singular) and {sidecar}")
    return EXIT_OK


def cmd_spectrum(cfg) -> int:
    req, _, out, sidecar = _export_grid(cfg, "spectrum")
    print(f"wrote {out} ({req.omega_count} frequencies at Omega = "
          f"{req.Omega_min:g}) and {sidecar}")
    return EXIT_OK


def cmd_spinup(cfg) -> int:
    kwargs = cfgmod.spinup_args(cfg)
    with cfgmod.section_errors("spinup"):
        traj = dynamics.spin_up_trajectory(**kwargs)
    out = cfgmod.build_output(cfg, default="spinup.csv")
    scan.write_columns(out, ("t", "Omega"), traj.times, traj.rotation)
    _print_kv([("outcome", traj.outcome),
               ("terminal_time", traj.terminal_time),
               ("terminal_Omega", traj.terminal_rotation),
               ("samples", len(traj.times)), ("path", out)])
    return EXIT_OK


def cmd_thermal(cfg) -> int:
    model, drive, thermal, Omega = cfgmod.thermal_args(cfg)
    sigma = absorption_cross_section(model, drive, Omega)
    power = dynamics.absorbed_power(sigma, drive.intensity(model.light_speed))
    t_eq = dynamics.equilibrium_temperature(thermal, power)
    _print_kv([("sigma_abs", sigma), ("absorbed_power", power),
               ("T_eq", t_eq)])
    return EXIT_OK


def cmd_amplify(cfg) -> int:
    model, drive, spec, n_samples = cfgmod.amplify_args(cfg)
    mean = medium.ensemble_extinction(spec, drive)
    g = -spec.number_density * mean.value
    intensity_in = drive.intensity(model.light_speed)
    z = np.linspace(0.0, spec.path_length, n_samples)
    profile = medium.propagate_intensity(intensity_in, g, z)
    out = cfgmod.build_output(cfg, default="amplify.csv")
    scan.write_columns(out, ("z", "I"), z, profile)
    pairs = [("mean_sigma_ext", mean.value), ("gain_coefficient", g),
             ("excluded_members", len(mean.excluded)),
             ("I_in", intensity_in), ("I_out", float(profile[-1])),
             ("path", out)]
    if g > 0:
        pairs.insert(2, ("doubling_length", float(np.log(2.0) / g)))
    _print_kv(pairs)
    return EXIT_OK


def cmd_validate(seed) -> int:
    results = validation.run_all(seed=seed)
    n_pass = sum(r.passed for r in results)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    print(f"{n_pass}/{len(results)} checks passed")
    return EXIT_OK if n_pass == len(results) else EXIT_VALIDATION


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ``rotospin`` parser.  Every subcommand is registered with its
    summary, so the top-level help and usage errors do not depend on
    ``command``; given one, only that subcommand declares its flags, as
    a process parses one command line and the others' would only slow
    its start.  With no ``command`` every subcommand declares them."""
    parser = argparse.ArgumentParser(
        prog="rotospin",
        description="Optical response and rotation dynamics of spinning "
                    "oscillator particles")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, sections, preset=False):
        p = sub.add_parser(name, help=summary)
        if command not in (None, name):
            return
        p.add_argument("--config", metavar="PATH",
                       help="INI-style key-value config file")
        if preset:
            p.add_argument("--preset", choices=sorted(cfgmod.PRESETS),
                           help="parameter bundle for a known figure")
        model = p.add_argument_group("model")
        mode = model.add_mutually_exclusive_group()
        mode.add_argument(
            "--normalized", dest="model.mode", action="store_const",
            const="normalized",
            help="dimensionless model (omega0 = c = coupling = 1 by default)")
        mode.add_argument(
            "--physical", dest="model.mode", action="store_const",
            const="physical",
            help="CGS model; tau linked to the coupling unless --tau is given")
        _add_flags(model, "model")
        _add_flags(p.add_argument_group("drive"), "drive")
        for section in sections:
            _add_flags(p, section)
        p.set_defaults(func=lambda a: func(_layered(a)))

    add("point", cmd_point, "all cross sections at one (omega, Omega) point",
        ("point",))
    add("scan", cmd_scan, "(omega, Omega) grid map to CSV", ("scan", "output"),
        preset=True)
    add("spectrum", cmd_spectrum, "fixed-Omega frequency sweep to CSV",
        ("spectrum", "output"), preset=True)
    add("spinup", cmd_spinup, "solve the rotation spin-up",
        ("spinup", "output"))
    add("thermal", cmd_thermal, "radiative equilibrium temperature",
        ("thermal",))
    add("amplify", cmd_amplify, "beam gain through a rotating-particle medium",
        ("medium", "output"))

    p = sub.add_parser("validate", help="run the physics self-check suite")
    if command in (None, "validate"):
        p.add_argument("--seed", type=_seed, default=20260822)
        p.set_defaults(func=lambda a: cmd_validate(a.seed))

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    with warnings.catch_warnings():
        # one line, without the source path and line of the caller
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except cfgmod.ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except SingularResonanceError as exc:
            print(f"singular resonance: {exc}", file=sys.stderr)
            return EXIT_SINGULAR
        except dynamics.UnreachableTargetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OverflowError as exc:
            # every input is finite by now, so only its magnitude can overflow
            print(f"error: an input is too large: {exc.args[-1]}",
                  file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            # the output writers report the path they were asked to write
            print(f"error: cannot write {exc.filename}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_CONFIG
        except MemoryError as exc:
            # numpy names the array it could not allocate
            detail = f": {exc}" if exc.args else ""
            print(f"error: not enough memory{detail}", file=sys.stderr)
            return EXIT_CONFIG


def run() -> int:
    """Process entry: ``main()``, then ``gc.freeze()`` however ``main``
    ends (a return, ``SystemExit`` from ``--help`` or a usage error, or a
    traceback).  The interpreter's exit then runs no full collection over
    the objects numpy and the package made at import, which would free
    nothing the OS does not take back: about 17 ms a run.  Atexit
    handlers, stream flushes and module teardown still run; only the
    finalizers of objects in reference cycles do not, and every file a
    command writes is closed before ``main`` returns."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
