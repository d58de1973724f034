"""Command-line front end.

Subcommands: point, scan, spectrum, spinup, thermal, amplify, validate.
Parameters come from presets, then an optional --config file, then
flags, each layer overriding the previous.  Exit codes: 0 success,
2 configuration error, 3 singular lossless resonance, 4 validation or
self-check failure.
"""

from __future__ import annotations

import argparse
import csv
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

_BALANCE_SELF_CHECK = 1e-10


def _add_model_flags(p):
    g = p.add_argument_group("model")
    mode = g.add_mutually_exclusive_group()
    mode.add_argument("--normalized", dest="mode", action="store_const",
                      const="normalized", help="dimensionless model "
                      "(omega0 = c = coupling = 1 by default)")
    mode.add_argument("--physical", dest="mode", action="store_const",
                      const="physical", help="CGS model; tau linked to the "
                      "coupling unless --tau is given")
    g.add_argument("--source", choices=["direct", "drude-sphere",
                                        "drude-ellipsoid"])
    g.add_argument("--gamma", type=float, help="friction rate (rad/s)")
    g.add_argument("--tau", type=float, help="radiative time (s)")
    g.add_argument("--omega0", type=float, help="natural frequency (rad/s)")
    g.add_argument("--coupling", type=float, help="Q^2/m (cm^3/s^2)")
    g.add_argument("--light-speed", type=float)
    g.add_argument("--plasma-frequency", type=float)
    g.add_argument("--damping", type=float, help="Drude damping (rad/s)")
    g.add_argument("--radius", type=float, help="sphere radius (cm)")
    g.add_argument("--volume", type=float, help="ellipsoid volume (cm^3)")
    g.add_argument("--depolarization-factor", type=float)


def _add_drive_flags(p):
    g = p.add_argument_group("drive")
    g.add_argument("--pol", choices=["lcp", "rcp", "linear", "explicit"],
                   help="polarization (LCP means E_x + i E_y = 0)")
    g.add_argument("--omega", type=float, help="drive frequency (rad/s)")
    g.add_argument("--amplitude", type=float, help="|E| (statvolt/cm)")
    g.add_argument("--angle", type=float,
                   help="linear-polarization angle from x (rad)")
    g.add_argument("--intensity", type=float,
                   help="beam intensity (erg/s/cm^2); overrides --amplitude")


def _flag_overlay(args) -> dict:
    """Translate parsed flags into config-section form."""
    model = {"mode": getattr(args, "mode", None),
             "source": getattr(args, "source", None),
             "gamma": _fmt(getattr(args, "gamma", None)),
             "tau": _fmt(getattr(args, "tau", None)),
             "omega0": _fmt(getattr(args, "omega0", None)),
             "coupling": _fmt(getattr(args, "coupling", None)),
             "light_speed": _fmt(getattr(args, "light_speed", None)),
             "plasma_frequency": _fmt(getattr(args, "plasma_frequency", None)),
             "damping": _fmt(getattr(args, "damping", None)),
             "radius": _fmt(getattr(args, "radius", None)),
             "volume": _fmt(getattr(args, "volume", None)),
             "depolarization_factor": _fmt(
                 getattr(args, "depolarization_factor", None))}
    drive = {"polarization": getattr(args, "pol", None),
             "omega": _fmt(getattr(args, "omega", None)),
             "amplitude": _fmt(getattr(args, "amplitude", None)),
             "angle": _fmt(getattr(args, "angle", None)),
             "intensity": _fmt(getattr(args, "intensity", None))}
    overlay = {"model": model, "drive": drive}

    def put(section, key, attr):
        value = getattr(args, attr, None)
        if value is not None:
            overlay.setdefault(section, {})[key] = _fmt(value)

    put("point", "Omega", "Omega")
    put("scan", "omega_min", "omega_min")
    put("scan", "omega_max", "omega_max")
    put("scan", "omega_count", "omega_count")
    put("scan", "Omega_min", "Omega_min")
    put("scan", "Omega_max", "Omega_max")
    put("scan", "Omega_count", "Omega_count")
    put("scan", "units", "units")
    put("spectrum", "Omega", "Omega")
    put("spectrum", "omega_min", "omega_min")
    put("spectrum", "omega_max", "omega_max")
    put("spectrum", "omega_count", "omega_count")
    put("spectrum", "units", "units")
    put("spinup", "Omega_init", "Omega_init")
    put("spinup", "Omega_target", "Omega_target")
    put("spinup", "max_time", "max_time")
    put("spinup", "samples", "samples")
    put("thermal", "Omega", "Omega")
    put("output", "path", "out")
    put("medium", "samples", "samples")
    return overlay


def _fmt(value):
    if value is None:
        return None
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _layered(args) -> dict:
    layers = []
    preset = getattr(args, "preset", None)
    if preset:
        if preset not in cfgmod.PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from "
                              f"{sorted(cfgmod.PRESETS)}")
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
    scale = (abs(cs.elastic) + abs(cs.inelastic_plus)
             + abs(cs.inelastic_minus) + abs(cs.mechanical)
             + abs(cs.absorption))
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
    if rel > _BALANCE_SELF_CHECK:
        print(f"self-check failed: balance residual {rel:.3e} exceeds "
              f"{_BALANCE_SELF_CHECK:.0e}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = _layered(args)
    model = cfgmod.build_model(cfg)
    req = cfgmod.build_scan_request(cfg, model, section="scan")
    grid = scan.grid_scan(req)
    out = cfgmod.build_output(cfg, default="scan.csv")
    sidecar = scan.write_grid_csv(grid, out.data, out.sidecar)
    n_cells = grid.singular.size
    print(f"wrote {out.data} ({n_cells} cells, "
          f"{int(grid.singular.sum())} singular) and {sidecar}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _layered(args)
    model = cfgmod.build_model(cfg)
    req = cfgmod.build_scan_request(cfg, model, section="spectrum")
    grid = scan.grid_scan(req)
    out = cfgmod.build_output(cfg, default="spectrum.csv")
    sidecar = scan.write_grid_csv(grid, out.data, out.sidecar)
    print(f"wrote {out.data} ({req.omega_count} frequencies at Omega = "
          f"{req.Omega_min:g}) and {sidecar}")
    return EXIT_OK


def cmd_spinup(args) -> int:
    cfg = _layered(args)
    model = cfgmod.build_model(cfg)
    drive = cfgmod.build_drive(cfg, model)
    body = cfgmod.build_body(cfg)
    thermal = (cfgmod.build_thermal(cfg) if "thermal" in cfg else None)
    traj = dynamics.spin_up_trajectory(
        model, drive, body,
        Omega_init=cfgmod._get_float(cfg, "spinup", "Omega_init", 0.0),
        Omega_target=cfgmod._get_float(cfg, "spinup", "Omega_target"),
        max_time=cfgmod._get_optional_float(cfg, "spinup", "max_time"),
        thermal=thermal,
        n_samples=cfgmod._get_int(cfg, "spinup", "samples", 200))
    out = cfgmod.build_output(cfg, default="spinup.csv")
    with open(out.data, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "Omega"])
        for t, om in zip(traj.times, traj.rotation):
            writer.writerow([f"{t:.17g}", f"{om:.17g}"])
    _print_kv([("outcome", traj.outcome),
               ("terminal_time", traj.terminal_time),
               ("terminal_Omega", traj.terminal_rotation),
               ("samples", len(traj.times)), ("path", out.data)])
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
                    cfgmod._get_int(cfg, "medium", "samples", 101))
    profile = medium.propagate_intensity(intensity_in, g, z)
    out = cfgmod.build_output(cfg, default="amplify.csv")
    with open(out.data, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["z", "I"])
        for zi, ii in zip(z, profile):
            writer.writerow([f"{zi:.17g}", f"{ii:.17g}"])
    pairs = [("mean_sigma_ext", mean.value), ("gain_coefficient", g),
             ("excluded_members", len(mean.excluded)),
             ("I_in", intensity_in), ("I_out", float(profile[-1])),
             ("path", out.data)]
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

    def common(p, preset=False):
        p.add_argument("--config", metavar="PATH",
                       help="INI-style key-value config file")
        if preset:
            p.add_argument("--preset", choices=sorted(cfgmod.PRESETS),
                           help="parameter bundle for a known figure")
        _add_model_flags(p)
        _add_drive_flags(p)

    p = sub.add_parser("point", help="all cross sections at one "
                                     "(omega, Omega) point")
    common(p)
    p.add_argument("--Omega", type=float, help="rotation frequency (rad/s)")
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("scan", help="(omega, Omega) grid map to CSV")
    common(p, preset=True)
    for flag in ("--omega-min", "--omega-max", "--Omega-min", "--Omega-max"):
        p.add_argument(flag, type=float)
    p.add_argument("--omega-count", type=int)
    p.add_argument("--Omega-count", type=int)
    p.add_argument("--units", choices=["physical", "fig2"])
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("spectrum", help="fixed-Omega frequency sweep to CSV")
    common(p, preset=True)
    p.add_argument("--Omega", type=float)
    p.add_argument("--omega-min", type=float)
    p.add_argument("--omega-max", type=float)
    p.add_argument("--omega-count", type=int)
    p.add_argument("--units", choices=["physical", "fig2"])
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("spinup", help="integrate the rotation spin-up")
    common(p)
    p.add_argument("--Omega-init", type=float)
    p.add_argument("--Omega-target", type=float)
    p.add_argument("--max-time", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_spinup)

    p = sub.add_parser("thermal", help="radiative equilibrium temperature")
    common(p)
    p.add_argument("--Omega", type=float)
    p.set_defaults(func=cmd_thermal)

    p = sub.add_parser("amplify", help="beam gain through a rotating-"
                                       "particle medium")
    common(p)
    p.add_argument("--samples", type=int)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_amplify)

    p = sub.add_parser("validate", help="run the physics self-check suite")
    p.add_argument("--seed", type=int, default=20260822)
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


if __name__ == "__main__":
    sys.exit(main())
