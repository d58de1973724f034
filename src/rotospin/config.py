"""Config-file ingestion and the builders shared by the CLI subcommands.

Configs are INI-style key-value text read with :mod:`configparser`:

    [model]
    mode = normalized
    gamma = 0.1
    tau = 0.0

    [drive]
    polarization = lcp
    omega = 0.5

    [point]
    Omega = 0.2

Every section and key is listed in :data:`KEYS` with its kind: a number,
a count, a choice, the ``members`` pairs or plain text.  Presets, then
files, then command-line flags layer into one dictionary, each layer
overriding the last, and layering parses each value once, by its kind,
whether or not the run reads it.  The builders read the parsed values.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

from .dynamics import RigidBodyParams, ThermalParams, UnreachableTargetError
from .materials import (DrudeEllipsoid, DrudeSphere, from_drude_ellipsoid,
                        from_drude_sphere)
from .medium import MediumMember, MediumSpec
from .response import (SPEED_OF_LIGHT, DriveField, OscillatorModel,
                       SingularResonanceError)
from .scan import ScanRequest


class ConfigError(ValueError):
    """Bad or missing configuration; the CLI maps this to exit code 2."""


#: configuration: section -> key -> text, or its parsed value once layered
Sections = dict

_NUMBER = (float, None, {})     # a number only a file sets

#: Every config key, by section: its kind, the flag that sets it (None
#: for a key only a file sets) and that flag's argparse options.  The
#: kind turns the key's text into its value (see ``_parse``).  A file may
#: hold the sections of several subcommands; any other key is rejected.
KEYS = {
    "model": {
        # set by the CLI's --normalized / --physical pair
        "mode": (("normalized", "physical"), None, {}),
        "source": (("direct", "drude-sphere", "drude-ellipsoid"),
                   "--source", {}),
        "gamma": (float, "--gamma", {"help": "friction rate (rad/s)"}),
        "tau": (float, "--tau", {"help": "radiative time (s)"}),
        "omega0": (float, "--omega0", {"help": "natural frequency (rad/s)"}),
        "coupling": (float, "--coupling", {"help": "Q^2/m (cm^3/s^2)"}),
        "light_speed": (float, "--light-speed", {}),
        "plasma_frequency": (float, "--plasma-frequency", {}),
        "damping": (float, "--damping", {"help": "Drude damping (rad/s)"}),
        "radius": (float, "--radius", {"help": "sphere radius (cm)"}),
        "volume": (float, "--volume", {"help": "ellipsoid volume (cm^3)"}),
        "depolarization_factor": (float, "--depolarization-factor", {}),
    },
    "drive": {
        "polarization": (("lcp", "rcp", "linear", "explicit"), "--pol", {
            "help": "polarization (LCP means E_x + i E_y = 0)"}),
        "omega": (float, "--omega", {"help": "drive frequency (rad/s)"}),
        "amplitude": (float, "--amplitude", {"help": "|E| (statvolt/cm)"}),
        "angle": (float, "--angle",
                  {"help": "linear-polarization angle from x (rad)"}),
        "intensity": (float, "--intensity", {
            "help": "beam intensity (erg/s/cm^2); overrides --amplitude"}),
        **dict.fromkeys(("ex_re", "ex_im", "ey_re", "ey_im"), _NUMBER),
    },
    "point": {"Omega": (float, "--Omega",
                        {"help": "rotation frequency (rad/s)"})},
    "scan": {
        "omega_min": (float, "--omega-min", {}),
        "omega_max": (float, "--omega-max", {}),
        "Omega_min": (float, "--Omega-min", {}),
        "Omega_max": (float, "--Omega-max", {}),
        "omega_count": (int, "--omega-count", {}),
        "Omega_count": (int, "--Omega-count", {}),
        "units": (("physical", "fig2"), "--units", {}),
    },
    "spectrum": {
        "Omega": (float, "--Omega", {}),
        "omega_min": (float, "--omega-min", {}),
        "omega_max": (float, "--omega-max", {}),
        "omega_count": (int, "--omega-count", {}),
        "units": (("physical", "fig2"), "--units", {}),
    },
    "spinup": {
        "Omega_init": (float, "--Omega-init", {}),
        "Omega_target": (float, "--Omega-target", {}),
        "max_time": (float, "--max-time", {}),
        "samples": (int, "--samples", {}),
    },
    "body": {
        "shape": (("direct", "sphere", "rod"), None, {}),
        **dict.fromkeys(("moment_of_inertia", "radius", "density", "mass",
                         "length", "melting_temperature", "surface_tension"),
                        _NUMBER)},
    "thermal": {"Omega": (float, "--Omega", {}),
                "ambient_temperature": _NUMBER,
                "radiative_coefficient": _NUMBER},
    "medium": {"members": (list, None, {}), "number_density": _NUMBER,
               "path_length": _NUMBER, "samples": (int, "--samples", {})},
    "output": {"path": (str, "--out", {"metavar": "PATH"})},
}

PRESETS = {
    # resonance maps of a dissipative rod under LCP light
    "fig2": {
        "model": {"mode": "normalized", "gamma": "0.1", "tau": "1e-4"},
        "drive": {"polarization": "lcp", "omega": "1.0"},
        "scan": {"omega_min": "0", "omega_max": "2", "omega_count": "256",
                 "Omega_min": "0", "Omega_max": "2", "Omega_count": "256",
                 "units": "fig2"},
    },
    # fixed fast rotation, dissipative regime (gamma >> tau*omega0^2)
    "fig3a": {
        "model": {"mode": "normalized", "gamma": "0.1", "tau": "1e-4"},
        "drive": {"polarization": "lcp", "omega": "1.0"},
        "spectrum": {"Omega": "2.0", "omega_min": "0", "omega_max": "3",
                     "omega_count": "601", "units": "fig2"},
    },
    # fixed fast rotation, radiation-dominated regime (gamma << tau*omega0^2)
    "fig3b": {
        "model": {"mode": "normalized", "gamma": "1e-4", "tau": "0.1"},
        "drive": {"polarization": "lcp", "omega": "1.0"},
        "spectrum": {"Omega": "2.0", "omega_min": "0", "omega_max": "3",
                     "omega_count": "601", "units": "fig2"},
    },
    # linear polarization, signed rotation axis: sideband mirror maps
    "figSI2": {
        "model": {"mode": "normalized", "gamma": "0.1", "tau": "1e-4"},
        "drive": {"polarization": "linear", "omega": "1.0"},
        "scan": {"omega_min": "0", "omega_max": "2", "omega_count": "256",
                 "Omega_min": "-2", "Omega_max": "2", "Omega_count": "257",
                 "units": "fig2"},
    },
}


def load_config(path) -> Sections:
    """Parse a UTF-8 INI file into plain nested dicts.

    Parse failures surface as ConfigError carrying configparser's
    line-numbered message, and a section or key missing from KEYS as one
    naming it.  A ``[DEFAULT]`` key is checked in every section it lands
    in, and a file with no other section is rejected.
    """
    # imported here: a run without a file does not load configparser
    import configparser
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str    # keys are case-sensitive (Omega vs omega)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config: {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if parser.defaults() and not parser.sections():
        raise ConfigError("[DEFAULT]: no other section for its keys to land "
                          "in")
    cfg = {name: dict(parser[name]) for name in parser.sections()}
    for name, values in cfg.items():
        if name not in KEYS:
            raise ConfigError(f"[{name}]: unknown section")
        for key in values:
            if key not in KEYS[name]:
                raise ConfigError(f"[{name}] {key}: unknown key")
    return cfg


def layer_configs(*layers) -> Sections:
    """Merge section dicts of text, later layers winning key by key, and
    parse each value by its key's kind in KEYS, whether or not the run
    reads it."""
    out: Sections = {}
    for layer in layers:
        for section, values in layer.items():
            out.setdefault(section, {}).update(
                {k: v for k, v in values.items() if v is not None})
    for section, values in out.items():
        for key, text in values.items():
            values[key] = _parse(KEYS[section][key][0], text,
                                 f"[{section}] {key}")
    return out


def _parse(kind, text, where):
    """``text`` as a value of ``kind``: a finite float, an int, the text
    itself (str), one of a tuple of choices, matched in lower case, or
    (list) the ``members`` pairs.  ``where`` names the key in errors."""
    if kind is str:
        return text
    if kind is list:
        return _members(text, where)
    if isinstance(kind, tuple):
        value = text.lower()
        if value not in kind:
            *rest, last = kind
            raise ConfigError(f"{where} must be {', '.join(rest)} or {last}, "
                              f"got {value!r}")
        return value
    try:
        value = kind(text)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"{where}: not {noun}: {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite, got {text!r}")
    return value


def _members(text, where):
    """Comma-separated ``Omega:weight`` pairs as (Omega, weight) tuples; a
    bare Omega weighs 1, and an empty value holds no pairs."""
    members = []
    for item in filter(None, map(str.strip, text.split(","))):
        rotation, sep, weight = item.partition(":")
        try:
            member = (float(rotation), float(weight) if sep else 1.0)
        except ValueError:
            raise ConfigError(f"{where}: bad entry {item!r}; expected "
                              "Omega:weight") from None
        if not all(map(math.isfinite, member)):
            raise ConfigError(f"{where}: entry {item!r} must be finite")
        members.append(member)
    if text and not members:
        raise ConfigError(f"{where} is empty")
    return tuple(members)


@contextlib.contextmanager
def section_errors(section):
    """Report a library ValueError or RuntimeError as a ConfigError
    naming ``section``.

    A ConfigError already names its section and key, and the CLI reports
    a singular resonance or an unreachable target in its own words, so
    these pass through unchanged.
    """
    try:
        yield
    except (ConfigError, SingularResonanceError, UnreachableTargetError):
        raise
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def _section(cfg: Sections, name) -> dict:
    return cfg.get(name, {})


# Readers of a parsed value: each applies its default or reports it missing

def _get_float(cfg, section, key, default=None):
    value = _section(cfg, section).get(key, default)
    if value is None:
        raise ConfigError(f"missing [{section}] {key}")
    return value


def _get_int(cfg, section, key, default=None, minimum=None):
    value = _get_float(cfg, section, key, default)
    if minimum is not None and value < minimum:
        raise ConfigError(f"[{section}] {key}: must be at least {minimum}, "
                          f"got '{value}'")
    return value


def _get_optional_float(cfg, section, key):
    return _section(cfg, section).get(key)


def build_model(cfg: Sections) -> OscillatorModel:
    sec = _section(cfg, "model")
    source = sec.get("source", "direct")
    with section_errors("model"):
        if source == "direct" and sec.get("mode") != "physical":
            return OscillatorModel.normalized(
                damping_rate=_get_float(cfg, "model", "gamma"),
                radiative_time=_get_float(cfg, "model", "tau", 0.0),
                natural_frequency=_get_float(cfg, "model", "omega0", 1.0),
                coupling=_get_float(cfg, "model", "coupling", 1.0),
                light_speed=_get_float(cfg, "model", "light_speed", 1.0))
        c = _get_float(cfg, "model", "light_speed", SPEED_OF_LIGHT)
        if source == "direct":
            coupling = _get_float(cfg, "model", "coupling")
            omega0 = _get_float(cfg, "model", "omega0")
            gamma = _get_float(cfg, "model", "gamma")
            tau = _get_optional_float(cfg, "model", "tau")
            if tau is None:
                return OscillatorModel.physical(coupling, omega0, gamma, c)
            return OscillatorModel(coupling, omega0, gamma, tau, c)
        if source == "drude-sphere":
            sphere = DrudeSphere(
                plasma_frequency=_get_float(cfg, "model", "plasma_frequency"),
                damping=_get_float(cfg, "model", "damping"),
                radius=_get_float(cfg, "model", "radius"))
            return from_drude_sphere(sphere, c)
        ell = DrudeEllipsoid(
            plasma_frequency=_get_float(cfg, "model", "plasma_frequency"),
            damping=_get_float(cfg, "model", "damping"),
            volume=_get_float(cfg, "model", "volume"),
            depolarization_factor=_get_float(cfg, "model",
                                             "depolarization_factor"))
        return from_drude_ellipsoid(ell, c)


def drive_amplitudes(cfg: Sections, model: OscillatorModel):
    """(Ex, Ey, label) from the [drive] section.

    ``polarization`` lcp, rcp or linear takes its amplitudes from the
    DriveField constructor of that name; explicit reads the ``ex_*`` and
    ``ey_*`` keys.
    """
    kind = _section(cfg, "drive").get("polarization", "lcp")
    amplitude = _get_float(cfg, "drive", "amplitude", 1.0)
    intensity = _get_optional_float(cfg, "drive", "intensity")
    if intensity is not None:
        if intensity < 0:
            raise ConfigError("[drive] intensity must be non-negative")
        amplitude = math.sqrt(2.0 * math.pi * intensity / model.light_speed)
        if not math.isfinite(amplitude):
            raise ConfigError("[drive] intensity is too large: the field "
                              "amplitude sqrt(2 pi I / c) overflows a double")
    angle = _get_float(cfg, "drive", "angle", 0.0)
    if kind == "explicit":
        parts = [_get_float(cfg, "drive", key, 0.0)
                 for key in ("ex_re", "ex_im", "ey_re", "ey_im")]
        d = DriveField(0.0, complex(*parts[:2]), complex(*parts[2:]))
    elif kind == "lcp":
        d = DriveField.lcp(0.0, amplitude)
    elif kind == "rcp":
        d = DriveField.rcp(0.0, amplitude)
    else:
        d = DriveField.linear(0.0, amplitude, angle)
    ex, ey = d.amplitude_x, d.amplitude_y
    if ex == 0 and ey == 0:
        raise ConfigError("[drive] the field has zero amplitude (Ex = Ey = 0)")
    if d.field_norm_sq == 0:
        # every cross section is normalized by |E|^2
        raise ConfigError("[drive] the field amplitude is too small: "
                          "|Ex|^2 + |Ey|^2 underflows to 0")
    return ex, ey, kind


def _model_and_drive(cfg: Sections):
    model = build_model(cfg)
    ex, ey, _ = drive_amplitudes(cfg, model)
    omega = _get_float(cfg, "drive", "omega")
    return model, DriveField(omega, ex, ey)


def build_scan_request(cfg: Sections, section="scan") -> ScanRequest:
    """The lattice of [scan] or [spectrum], with its [model] and [drive]."""
    model = build_model(cfg)
    ex, ey, label = drive_amplitudes(cfg, model)
    if section == "spectrum":
        Om = _get_float(cfg, "spectrum", "Omega")
        Om_min, Om_max, Om_count = Om, Om, 1
    else:
        Om_min = _get_float(cfg, section, "Omega_min")
        Om_max = _get_float(cfg, section, "Omega_max")
        Om_count = _get_int(cfg, section, "Omega_count")
    with section_errors(section):
        return ScanRequest(
            model=model, amplitude_x=ex, amplitude_y=ey,
            omega_min=_get_float(cfg, section, "omega_min"),
            omega_max=_get_float(cfg, section, "omega_max"),
            omega_count=_get_int(cfg, section, "omega_count"),
            Omega_min=Om_min, Omega_max=Om_max, Omega_count=Om_count,
            units=_section(cfg, section).get("units", "physical"),
            polarization_label=label)


def build_body(cfg: Sections) -> RigidBodyParams:
    sec = _section(cfg, "body")
    if not sec:
        raise ConfigError("missing [body] section")
    shape = sec.get("shape", "direct")
    melt = _get_optional_float(cfg, "body", "melting_temperature")
    surface = _get_optional_float(cfg, "body", "surface_tension")
    with section_errors("body"):
        if shape == "direct":
            return RigidBodyParams(
                moment_of_inertia=_get_float(cfg, "body", "moment_of_inertia"),
                radius=_get_optional_float(cfg, "body", "radius"),
                melting_temperature=melt, surface_tension=surface)
        if shape == "sphere":
            return RigidBodyParams.solid_sphere(
                mass_density=_get_float(cfg, "body", "density"),
                radius=_get_float(cfg, "body", "radius"),
                melting_temperature=melt, surface_tension=surface)
        # a rod has no radius: its surface tension raises, as a direct
        # body's does without one
        return dataclasses.replace(RigidBodyParams.thin_rod(
            mass=_get_float(cfg, "body", "mass"),
            length=_get_float(cfg, "body", "length"),
            melting_temperature=melt), surface_tension=surface)


def build_thermal(cfg: Sections) -> ThermalParams:
    if "thermal" not in cfg:
        raise ConfigError("missing [thermal] section")
    with section_errors("thermal"):
        return ThermalParams(
            ambient_temperature=_get_float(cfg, "thermal",
                                           "ambient_temperature"),
            radiative_coefficient=_get_float(cfg, "thermal",
                                             "radiative_coefficient"))


def build_medium(cfg: Sections, model: OscillatorModel) -> MediumSpec:
    """Ensemble from [medium]; members share the [model] particle.

    ``members`` is a comma-separated list of Omega:weight pairs, e.g.
    ``members = 2.0:0.5, 2.2:0.5``.  Weights are normalized to sum to 1.
    """
    sec = _section(cfg, "medium")
    if not sec:
        raise ConfigError("missing [medium] section")
    members = sec.get("members")
    if not members:
        raise ConfigError("missing [medium] members")
    weights = [w for _, w in members]
    if math.isinf(sum(weights)):
        # the sum overflows a double: scale by the largest weight first
        largest = max(map(abs, weights))
        weights = [w / largest for w in weights]
    total = sum(weights)
    if total <= 0:
        raise ConfigError("[medium] members: weights must sum to > 0")
    with section_errors("medium"):
        return MediumSpec(
            number_density=_get_float(cfg, "medium", "number_density"),
            path_length=_get_float(cfg, "medium", "path_length"),
            members=tuple(MediumMember(model, om, w / total)
                          for (om, _), w in zip(members, weights)))


def build_output(cfg: Sections, default) -> str:
    """The [output] path; a scan's sidecar goes beside it as PATH.meta."""
    return _section(cfg, "output").get("path", default)


# Per-subcommand builders: each returns the arguments of its subcommand's
# library call, reading the keys in the order the run uses them.

def point_args(cfg: Sections):
    """(model, drive, Omega) of ``point``."""
    return (*_model_and_drive(cfg), _get_float(cfg, "point", "Omega"))


def thermal_args(cfg: Sections):
    """(model, drive, thermal, Omega) of ``thermal``; Omega defaults to 0."""
    return (*_model_and_drive(cfg), build_thermal(cfg),
            _get_float(cfg, "thermal", "Omega", 0.0))


def spinup_args(cfg: Sections) -> dict:
    """Keyword arguments of ``dynamics.spin_up_trajectory``."""
    model, drive = _model_and_drive(cfg)
    return dict(
        model=model, drive=drive, body=build_body(cfg),
        thermal=build_thermal(cfg) if "thermal" in cfg else None,
        Omega_init=_get_float(cfg, "spinup", "Omega_init", 0.0),
        Omega_target=_get_float(cfg, "spinup", "Omega_target"),
        max_time=_get_optional_float(cfg, "spinup", "max_time"),
        n_samples=_get_int(cfg, "spinup", "samples", 200, minimum=2))


def amplify_args(cfg: Sections):
    """(model, drive, medium, samples) of ``amplify``: the ensemble and
    the number of depths its intensity profile is written at."""
    model, drive = _model_and_drive(cfg)
    return (model, drive, build_medium(cfg, model),
            _get_int(cfg, "medium", "samples", 101, minimum=2))
