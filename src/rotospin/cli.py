"""Command-line front end.

Subcommands: point, scan, spectrum, spinup, thermal, amplify, validate.
Parameters come from presets, then an optional --config file, then
flags, each layer overriding the previous.  Exit codes: 0 success,
2 configuration error, 3 singular lossless resonance, 4 validation or
self-check failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import config as cfgmod
from . import dynamics, medium, scan, validation
from .config import ConfigError
from .response import SingularResonanceError, cross_section_set, torque

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_VALIDATION = 4

def _float(help=None):
    return {"type": float, "help": help}


_INT = {"type": int}
_UNITS = {"choices": ["physical", "fig2"]}
_OUT = ("--out", "output.path", {"metavar": "PATH"})

#: Every config flag, once: (flag, "section.key" it sets, argparse
#: options).  The model and drive flags are shared by every subcommand but
#: validate; a flag writes only the section its key names.
_FLAGS = {
    "model": (
        ("--normalized", "model.mode",
         {"action": "store_const", "const": "normalized",
          "help": "dimensionless model (omega0 = c = coupling = 1 by "
                  "default)"}),
        ("--physical", "model.mode",
         {"action": "store_const", "const": "physical",
          "help": "CGS model; tau linked to the coupling unless --tau is "
                  "given"}),
        ("--source", "model.source",
         {"choices": ["direct", "drude-sphere", "drude-ellipsoid"]}),
        ("--gamma", "model.gamma", _float("friction rate (rad/s)")),
        ("--tau", "model.tau", _float("radiative time (s)")),
        ("--omega0", "model.omega0", _float("natural frequency (rad/s)")),
        ("--coupling", "model.coupling", _float("Q^2/m (cm^3/s^2)")),
        ("--light-speed", "model.light_speed", _float()),
        ("--plasma-frequency", "model.plasma_frequency", _float()),
        ("--damping", "model.damping", _float("Drude damping (rad/s)")),
        ("--radius", "model.radius", _float("sphere radius (cm)")),
        ("--volume", "model.volume", _float("ellipsoid volume (cm^3)")),
        ("--depolarization-factor", "model.depolarization_factor", _float()),
    ),
    "drive": (
        ("--pol", "drive.polarization",
         {"choices": ["lcp", "rcp", "linear", "explicit"],
          "help": "polarization (LCP means E_x + i E_y = 0)"}),
        ("--omega", "drive.omega", _float("drive frequency (rad/s)")),
        ("--amplitude", "drive.amplitude", _float("|E| (statvolt/cm)")),
        ("--angle", "drive.angle",
         _float("linear-polarization angle from x (rad)")),
        ("--intensity", "drive.intensity",
         _float("beam intensity (erg/s/cm^2); overrides --amplitude")),
    ),
    "point": (("--Omega", "point.Omega",
               _float("rotation frequency (rad/s)")),),
    "scan": (
        ("--omega-min", "scan.omega_min", _float()),
        ("--omega-max", "scan.omega_max", _float()),
        ("--Omega-min", "scan.Omega_min", _float()),
        ("--Omega-max", "scan.Omega_max", _float()),
        ("--omega-count", "scan.omega_count", _INT),
        ("--Omega-count", "scan.Omega_count", _INT),
        ("--units", "scan.units", _UNITS),
        _OUT,
    ),
    "spectrum": (
        ("--Omega", "spectrum.Omega", _float()),
        ("--omega-min", "spectrum.omega_min", _float()),
        ("--omega-max", "spectrum.omega_max", _float()),
        ("--omega-count", "spectrum.omega_count", _INT),
        ("--units", "spectrum.units", _UNITS),
        _OUT,
    ),
    "spinup": (
        ("--Omega-init", "spinup.Omega_init", _float()),
        ("--Omega-target", "spinup.Omega_target", _float()),
        ("--max-time", "spinup.max_time", _float()),
        ("--samples", "spinup.samples", _INT),
        _OUT,
    ),
    "thermal": (("--Omega", "thermal.Omega", _float()),),
    "amplify": (("--samples", "medium.samples", _INT), _OUT),
}


def _add_flags(p, rows):
    """Declare table rows on ``p``, each with dest "section.key"."""
    mode = None
    for flag, dest, options in rows:
        if options.get("action") == "store_const":
            # --normalized and --physical set one key, so they exclude
            # each other
            mode = mode or p.add_mutually_exclusive_group()
            mode.add_argument(flag, dest=dest, **options)
            continue
        if "choices" not in options:
            # the metavar argparse would derive from the flag itself
            options = {"metavar": flag[2:].replace("-", "_").upper(),
                       **options}
        p.add_argument(flag, dest=dest, **options)


def _seed(text):
    """--seed: numpy's default_rng takes non-negative integers only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return seed


def _flag_overlay(args) -> dict:
    """Translate parsed flags into config-section form."""
    overlay = {}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            overlay.setdefault(section, {})[key] = (
                repr(value) if isinstance(value, float) else str(value))
    return overlay


def _layered(args) -> dict:
    layers = []
    preset = getattr(args, "preset", None)
    if preset:
        layers.append(cfgmod.PRESETS[preset])
    if getattr(args, "config", None):
        layers.append(cfgmod.load_config(args.config))
    layers.append(_flag_overlay(args))
    return cfgmod.layer_configs(*layers)


def _print_kv(pairs):
    for key, value in pairs:
        if isinstance(value, float):
            print(f"{key} = {value:.17g}")
        else:
            print(f"{key} = {value}")


def cmd_point(args) -> int:
    cfg = _layered(args)
    model = cfgmod.build_model(cfg)
    drive = cfgmod.build_drive(cfg, model)
    Omega = cfgmod._get_float(cfg, "point", "Omega")
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
    _print_kv([("omega", drive.frequency), ("Omega", Omega),
               ("torque", m_val)] + list(cs.as_dict().items())
              + [("balance_residual", residual)])
    if rel > validation.BALANCE_TOL:
        print(f"self-check failed: balance residual {rel:.3e} exceeds "
              f"{validation.BALANCE_TOL:.0e}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = _layered(args)
    model = cfgmod.build_model(cfg)
    req = cfgmod.build_scan_request(cfg, model, section="scan")
    grid = scan.grid_scan(req)
    out = cfgmod.build_output(cfg, default="scan.csv")
    sidecar = scan.write_grid_csv(grid, out)
    n_cells = grid.singular.size
    print(f"wrote {out} ({n_cells} cells, "
          f"{int(grid.singular.sum())} singular) and {sidecar}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _layered(args)
    model = cfgmod.build_model(cfg)
    req = cfgmod.build_scan_request(cfg, model, section="spectrum")
    grid = scan.grid_scan(req)
    out = cfgmod.build_output(cfg, default="spectrum.csv")
    sidecar = scan.write_grid_csv(grid, out)
    print(f"wrote {out} ({req.omega_count} frequencies at Omega = "
          f"{req.Omega_min:g}) and {sidecar}")
    return EXIT_OK


def cmd_spinup(args) -> int:
    cfg = _layered(args)
    model = cfgmod.build_model(cfg)
    drive = cfgmod.build_drive(cfg, model)
    body = cfgmod.build_body(cfg)
    thermal = (cfgmod.build_thermal(cfg) if "thermal" in cfg else None)
    Omega_init = cfgmod._get_float(cfg, "spinup", "Omega_init", 0.0)
    Omega_target = cfgmod._get_float(cfg, "spinup", "Omega_target")
    max_time = cfgmod._get_optional_float(cfg, "spinup", "max_time")
    n_samples = cfgmod._get_int(cfg, "spinup", "samples", 200, minimum=2)
    try:
        traj = dynamics.spin_up_trajectory(
            model, drive, body, Omega_init, Omega_target, max_time, thermal,
            n_samples=n_samples)
    except (dynamics.UnreachableTargetError, SingularResonanceError):
        raise
    except (ValueError, RuntimeError) as exc:
        # arguments out of range, or a quadrature that did not converge
        # or whose time overflows a double
        raise ConfigError(f"[spinup]: {exc}") from exc
    out = cfgmod.build_output(cfg, default="spinup.csv")
    scan.write_columns(out, ("t", "Omega"), traj.times, traj.rotation)
    _print_kv([("outcome", traj.outcome),
               ("terminal_time", traj.terminal_time),
               ("terminal_Omega", traj.terminal_rotation),
               ("samples", len(traj.times)), ("path", out)])
    return EXIT_OK


def cmd_thermal(args) -> int:
    cfg = _layered(args)
    model = cfgmod.build_model(cfg)
    drive = cfgmod.build_drive(cfg, model)
    thermal = cfgmod.build_thermal(cfg)
    Omega = cfgmod._get_float(cfg, "thermal", "Omega", 0.0)
    sigma = cross_section_set(model, drive, Omega).absorption
    power = sigma * drive.intensity(model.light_speed)
    t_eq = dynamics.equilibrium_temperature(thermal, power)
    _print_kv([("sigma_abs", sigma), ("absorbed_power", power),
               ("T_eq", t_eq)])
    return EXIT_OK


def cmd_amplify(args) -> int:
    cfg = _layered(args)
    model = cfgmod.build_model(cfg)
    drive = cfgmod.build_drive(cfg, model)
    spec = cfgmod.build_medium(cfg, model)
    mean = medium.ensemble_extinction(spec, drive)
    g = -spec.number_density * mean.value
    intensity_in = drive.intensity(model.light_speed)
    z = np.linspace(0.0, spec.path_length,
                    cfgmod._get_int(cfg, "medium", "samples", 101, minimum=2))
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


def cmd_validate(args) -> int:
    results = validation.run_all(seed=args.seed)
    n_pass = sum(r.passed for r in results)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    print(f"{n_pass}/{len(results)} checks passed")
    return EXIT_OK if n_pass == len(results) else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotospin",
        description="Optical response and rotation dynamics of spinning "
                    "oscillator particles")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, preset=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", metavar="PATH",
                       help="INI-style key-value config file")
        if preset:
            p.add_argument("--preset", choices=sorted(cfgmod.PRESETS),
                           help="parameter bundle for a known figure")
        for group in ("model", "drive"):
            _add_flags(p.add_argument_group(group), _FLAGS[group])
        _add_flags(p, _FLAGS[name])
        p.set_defaults(func=func)

    add("point", cmd_point, "all cross sections at one (omega, Omega) point")
    add("scan", cmd_scan, "(omega, Omega) grid map to CSV", preset=True)
    add("spectrum", cmd_spectrum, "fixed-Omega frequency sweep to CSV",
        preset=True)
    add("spinup", cmd_spinup, "solve the rotation spin-up")
    add("thermal", cmd_thermal, "radiative equilibrium temperature")
    add("amplify", cmd_amplify, "beam gain through a rotating-particle "
                                "medium")

    p = sub.add_parser("validate", help="run the physics self-check suite")
    p.add_argument("--seed", type=_seed, default=20260822)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
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


if __name__ == "__main__":
    sys.exit(main())
