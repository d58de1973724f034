"""Config parsing, layering, builders, and end-to-end CLI runs."""

import contextlib
import csv
import gc
import importlib
import io
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from rotospin import OscillatorModel, cli, extinction_cross_section, response
from rotospin import config as cfgmod
from rotospin.config import (
    KEYS,
    PRESETS,
    ConfigError,
    build_medium,
    build_model,
    build_scan_request,
    build_thermal,
    drive_amplitudes,
    layer_configs,
    load_config,
)
from rotospin.scan import reparse_balance_check

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _subprocess_env():
    """Environment for a child interpreter that imports this tree."""
    return {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}


def _write(tmp_path, text, name="conf.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def _kv(captured: str) -> dict:
    out = {}
    for line in captured.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# file parsing


def test_keys_are_case_sensitive(tmp_path):
    path = _write(tmp_path, """\
        [scan]
        omega_min = 0.1
        Omega_min = -2.0
        """)
    cfg = load_config(path)
    assert cfg["scan"]["omega_min"] == "0.1"
    assert cfg["scan"]["Omega_min"] == "-2.0"


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # read as UTF-8 whatever the locale; the error names the file
    path = tmp_path / "latin.ini"
    path.write_bytes(b"\xff\xfe[model]\n")
    assert cli.main(["point", "--config", str(path)]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: cannot read config: {path}: ")
    assert "can't decode byte 0xff in position 0" in err
    assert err.count("\n") == 1
    utf8 = tmp_path / "utf8.ini"
    utf8.write_bytes("[model]\n# ω₀ = 1\ngamma = 0.1\n".encode())
    assert load_config(utf8) == {"model": {"gamma": "0.1"}}


def test_parse_error_carries_line_info(tmp_path):
    path = _write(tmp_path, """\
        [model]
        gamma 0.1
        """)
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


_POINT_ARGV = ["point", "--gamma", "0.1", "--omega", "0.5", "--Omega", "0.2"]
_POINT_INI = textwrap.dedent("""\
    [model]
    gamma = 0.1
    tau = 1e-3

    [drive]
    omega = 0.5

    [point]
    Omega = 0.2
    """)


@pytest.mark.parametrize("ini, flags", [
    # one file may hold the sections of several subcommands
    (_POINT_INI + "[spinup]\nOmega_target = 1e-3\n"
     "[body]\nshape = sphere\ndensity = 1\nradius = 1\n", []),
    # a known key this run does not read
    (_POINT_INI, ["--source", "direct", "--radius", "3"]),
], ids=["other-subcommand-sections", "unread-flag"])
def test_known_keys_this_run_does_not_read_are_accepted(tmp_path, capsys,
                                                        ini, flags):
    assert cli.main(["point", "--config", _write(tmp_path, _POINT_INI)]) == 0
    plain = capsys.readouterr()
    conf = _write(tmp_path, ini, "extra.ini")
    assert cli.main(["point", "--config", conf, *flags]) == 0
    assert capsys.readouterr() == plain


def test_presets_and_bench_configs_use_known_keys(tmp_path, monkeypatch):
    for preset in PRESETS.values():
        for section, values in preset.items():
            assert values.keys() <= KEYS[section].keys(), section
    # every config file the cli-short benchmark writes loads
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    for seed in range(3):
        workloads.cli_pool("cli-short", seed, 2, str(tmp_path))
        paths = sorted(tmp_path.glob("*.ini"))
        assert len(paths) == 8
        for path in paths:
            assert load_config(path)


def test_layering_later_wins():
    merged = layer_configs(PRESETS["fig2"],
                           {"scan": {"omega_count": "16"}},
                           {"drive": {"omega": None}})
    assert merged["scan"]["omega_count"] == 16
    assert merged["scan"]["Omega_count"] == 256
    assert merged["drive"]["omega"] == 1.0   # None never overrides


# ---------------------------------------------------------------------------
# flag contract: every flag sets one [section] key

_CONFIG_SUBCOMMANDS = ("point", "scan", "spectrum", "spinup", "thermal",
                       "amplify")

# (subcommands, flag and value, section, key, expected value)
_FLAG_CONTRACT = [
    (_CONFIG_SUBCOMMANDS, ["--normalized"], "model", "mode", "normalized"),
    (_CONFIG_SUBCOMMANDS, ["--physical"], "model", "mode", "physical"),
    (_CONFIG_SUBCOMMANDS, ["--source", "drude-sphere"], "model", "source",
     "drude-sphere"),
    (_CONFIG_SUBCOMMANDS, ["--gamma", "0.25"], "model", "gamma", 0.25),
    (_CONFIG_SUBCOMMANDS, ["--tau", "0.003"], "model", "tau", 0.003),
    (_CONFIG_SUBCOMMANDS, ["--omega0", "1.5"], "model", "omega0", 1.5),
    (_CONFIG_SUBCOMMANDS, ["--coupling", "2.5"], "model", "coupling", 2.5),
    (_CONFIG_SUBCOMMANDS, ["--light-speed", "3.5"], "model", "light_speed",
     3.5),
    (_CONFIG_SUBCOMMANDS, ["--plasma-frequency", "1e+16"], "model",
     "plasma_frequency", 1e+16),
    (_CONFIG_SUBCOMMANDS, ["--damping", "4e+13"], "model", "damping",
     4e+13),
    (_CONFIG_SUBCOMMANDS, ["--radius", "5e-07"], "model", "radius", 5e-07),
    (_CONFIG_SUBCOMMANDS, ["--volume", "1e-18"], "model", "volume", 1e-18),
    (_CONFIG_SUBCOMMANDS, ["--depolarization-factor", "0.2"], "model",
     "depolarization_factor", 0.2),
    (_CONFIG_SUBCOMMANDS, ["--pol", "linear"], "drive", "polarization",
     "linear"),
    (_CONFIG_SUBCOMMANDS, ["--omega", "0.75"], "drive", "omega", 0.75),
    (_CONFIG_SUBCOMMANDS, ["--amplitude", "2.0"], "drive", "amplitude", 2.0),
    (_CONFIG_SUBCOMMANDS, ["--angle", "0.5"], "drive", "angle", 0.5),
    (_CONFIG_SUBCOMMANDS, ["--intensity", "7.0"], "drive", "intensity", 7.0),
    (("point",), ["--Omega", "0.25"], "point", "Omega", 0.25),
    (("scan",), ["--omega-min", "0.1"], "scan", "omega_min", 0.1),
    (("scan",), ["--omega-max", "1.9"], "scan", "omega_max", 1.9),
    (("scan",), ["--Omega-min", "-1.5"], "scan", "Omega_min", -1.5),
    (("scan",), ["--Omega-max", "1.5"], "scan", "Omega_max", 1.5),
    (("scan",), ["--omega-count", "12"], "scan", "omega_count", 12),
    (("scan",), ["--Omega-count", "8"], "scan", "Omega_count", 8),
    (("scan",), ["--units", "physical"], "scan", "units", "physical"),
    (("scan",), ["--out", "map.csv"], "output", "path", "map.csv"),
    (("spectrum",), ["--Omega", "2.5"], "spectrum", "Omega", 2.5),
    (("spectrum",), ["--omega-min", "0.2"], "spectrum", "omega_min", 0.2),
    (("spectrum",), ["--omega-max", "2.8"], "spectrum", "omega_max", 2.8),
    (("spectrum",), ["--omega-count", "21"], "spectrum", "omega_count", 21),
    (("spectrum",), ["--units", "fig2"], "spectrum", "units", "fig2"),
    (("spectrum",), ["--out", "s.csv"], "output", "path", "s.csv"),
    (("spinup",), ["--Omega-init", "0.01"], "spinup", "Omega_init", 0.01),
    (("spinup",), ["--Omega-target", "0.3"], "spinup", "Omega_target", 0.3),
    (("spinup",), ["--max-time", "50.0"], "spinup", "max_time", 50.0),
    (("spinup",), ["--samples", "40"], "spinup", "samples", 40),
    (("spinup",), ["--out", "t.csv"], "output", "path", "t.csv"),
    (("thermal",), ["--Omega", "0.125"], "thermal", "Omega", 0.125),
    (("amplify",), ["--samples", "11"], "medium", "samples", 11),
    (("amplify",), ["--out", "g.csv"], "output", "path", "g.csv"),
]


@pytest.mark.parametrize(
    "subs, argv, section, key, expected", _FLAG_CONTRACT,
    ids=[("all" if len(subs) > 1 else subs[0]) + argv[0]
         for subs, argv, *_ in _FLAG_CONTRACT])
def test_flag_sets_its_config_key(subs, argv, section, key, expected):
    # a flag's value reaches the config as the text that was typed, and
    # config parses it like a file's value
    parser = cli.build_parser()
    for sub in subs:
        value = cli._layered(parser.parse_args([sub, *argv]))[section][key]
        assert (value, type(value)) == (expected, type(expected)), sub


def test_flag_writes_only_its_own_section():
    parser = cli.build_parser()
    for argv, expected in ((["point", "--Omega", "0.25"],
                            {"point": {"Omega": 0.25}}),
                           (["spinup", "--samples", "7"],
                            {"spinup": {"samples": 7}})):
        cfg = cli._layered(parser.parse_args(argv))
        assert {sec: keys for sec, keys in cfg.items() if keys} == expected


# (argv, exit code) of command lines that end in argparse
_PARSE_EXITS = [
    *(([command, "--help"], 0)
      for command in (*_CONFIG_SUBCOMMANDS, "validate")),
    (["bogus"], 2), ([], 2), (["-h", "point"], 0), (["--help"], 0),
    (["validate", "--seed", "-1"], 2),
]


@pytest.mark.parametrize("argv, code", _PARSE_EXITS,
                         ids=[" ".join(argv) or "bare"
                              for argv, _ in _PARSE_EXITS])
def test_main_parses_as_the_all_flags_parser(monkeypatch, argv, code):
    # main declares only the flags of the subcommand it is given
    monkeypatch.setenv("COLUMNS", "80")     # argparse's help width
    declared = _in_process(argv)
    assert declared[0] == code
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command: build_parser())
    assert _in_process(argv) == declared


def test_help_lists_each_choice_flag_in_braces(monkeypatch):
    # config checks a choice flag's value, and --help still shows its set
    monkeypatch.setenv("COLUMNS", "80")
    for command in _CONFIG_SUBCOMMANDS:
        shown = [flag for flag in (
            "--source {direct,drude-sphere,drude-ellipsoid}",
            "--pol {lcp,rcp,linear,explicit}", "--units {physical,fig2}")
            if flag in _in_process([command, "--help"])[1]]
        assert len(shown) == 2 + (command in ("scan", "spectrum")), command


_SCAN_ARGV = ["scan", "--preset", "fig2", "--omega-count", "4",
              "--Omega-count", "3"]
_SPECTRUM_ARGV = ["spectrum", "--preset", "fig3a", "--omega-count", "5"]


@pytest.mark.parametrize("argv, ini", [
    (_POINT_ARGV + ["--pol", "{LCP}"], None),
    (_POINT_ARGV + ["--source", "{DIRECT}"], None),
    (_SCAN_ARGV + ["--units", "{FIG2}"], None),
    (_SPECTRUM_ARGV + ["--units", "{FIG2}"], None),
    (_SCAN_ARGV, "[scan]\nunits = {FIG2}\n"),
    (_SPECTRUM_ARGV, "[spectrum]\nunits = {FIG2}\n"),
    (_POINT_ARGV, "[drive]\npolarization = {LCP}\n"),
], ids=["pol-flag", "source-flag", "scan-units-flag", "spectrum-units-flag",
        "scan-units-file", "spectrum-units-file", "pol-file"])
def test_text_choices_ignore_case(tmp_path, argv, ini):
    # a flag and a file take a text choice in any case, as lower case
    runs = []
    for case in (str.lower, str.upper):
        out_dir = tmp_path / case.__name__
        out_dir.mkdir()
        words = {w: case(w) for w in ("LCP", "DIRECT", "FIG2")}
        run = [a.format(**words) for a in argv]
        if ini is not None:
            run += ["--config", _write(out_dir, ini.format(**words))]
        if run[0] != "point":
            run += ["--out", str(out_dir / "x.csv")]
        code, out, err = _in_process(run)
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()
                 if p.suffix != ".ini"}
        runs.append((code, out.replace(str(out_dir), "<out>"), err, files))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][2] == ""


# ---------------------------------------------------------------------------
# builders


def test_build_model_normalized():
    m = build_model(layer_configs({"model": {"gamma": "0.1", "tau": "1e-4"}}))
    assert m.damping_rate == 0.1
    assert m.radiative_time == 1e-4
    assert m.natural_frequency == 1.0
    assert m.light_speed == 1.0


def test_build_model_physical_links_tau_when_absent():
    cfg = {"model": {"mode": "physical", "coupling": "2.5e24",
                     "omega0": "1e15", "gamma": "1e13"}}
    m = build_model(layer_configs(cfg))
    assert m.coupling == 2.5e24
    assert m.radiative_time == 2.0 * 2.5e24 / (3.0 * m.light_speed**3)


def test_build_model_drude_sphere():
    cfg = {"model": {"source": "drude-sphere", "plasma_frequency": "1.37e16",
                     "damping": "4.05e13", "radius": "5e-6"}}
    m = build_model(layer_configs(cfg))
    assert_allclose(m.natural_frequency, 1.37e16 / np.sqrt(3.0), rtol=1e-12)
    assert m.radiative_time == 2.0 * m.coupling / (3.0 * m.light_speed**3)


def test_build_model_bad_number():
    with pytest.raises(ConfigError, match="not a number"):
        build_model(layer_configs({"model": {"gamma": "brisk"}}))


def test_build_model_unknown_source():
    with pytest.raises(ConfigError, match="source"):
        build_model(layer_configs({"model": {"source": "lorentz",
                                             "gamma": "0.1"}}))


def test_intensity_overrides_amplitude():
    m = OscillatorModel.normalized(0.1)
    cfg = {"drive": {"polarization": "linear", "amplitude": "5.0",
                     "intensity": "2.0"}}
    ex, ey, label = drive_amplitudes(layer_configs(cfg), m)
    assert label == "linear"
    assert abs(ex) == np.sqrt(2.0 * np.pi * 2.0 / m.light_speed)
    assert ey == 0.0


def test_negative_intensity_exits_2(capsys):
    rc = cli.main(["point", "--gamma", "0.1", "--omega", "0.5",
                   "--Omega", "0.2", "--intensity=-1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: [drive] intensity must be non-negative\n")


def test_drive_amplitudes_polarizations():
    m = OscillatorModel.normalized(0.1)
    r = 1.0 / np.sqrt(2.0)

    def amplitudes(**drive):
        return drive_amplitudes(layer_configs({"drive": drive}), m)

    assert amplitudes() == (r, 1j * r, "lcp")
    assert amplitudes(polarization="lcp") == (r, 1j * r, "lcp")
    assert amplitudes(polarization="RCP") == (r, -1j * r, "rcp")
    assert amplitudes(polarization="linear") == (1.0, 0.0, "linear")
    ex, ey, _ = amplitudes(polarization="linear", angle=repr(np.pi / 2.0))
    assert_allclose([abs(ex), abs(ey)], [0.0, 1.0], atol=1e-15)
    assert amplitudes(polarization="explicit", ex_re="0.3",
                      ey_im="0.4") == (0.3, 0.4j, "explicit")


def test_drive_amplitudes_unknown_polarization(tmp_path, capsys):
    message = ("[drive] polarization must be lcp, rcp, linear or explicit, "
               "got 'diagonal'")
    cfg = {"drive": {"polarization": "diagonal"}}
    with pytest.raises(ConfigError) as info:
        drive_amplitudes(layer_configs(cfg), OscillatorModel.normalized(0.1))
    assert str(info.value) == message
    conf = _write(tmp_path, """\
        [drive]
        polarization = diagonal
        """)
    rc = cli.main(["point", "--config", conf, "--gamma", "0.1",
                   "--omega", "0.5", "--Omega", "0.2"])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_build_scan_request_reports_section():
    cfg = {"model": {"gamma": "0.1"}, "drive": {},
           "scan": {"omega_min": "2", "omega_max": "1", "omega_count": "4",
                    "Omega_min": "0", "Omega_max": "1", "Omega_count": "4"}}
    with pytest.raises(ConfigError, match=r"\[scan\]"):
        build_scan_request(layer_configs(cfg))


def test_build_medium_normalizes_weights():
    m = OscillatorModel.normalized(0.1)
    cfg = {"medium": {"number_density": "3.0", "path_length": "1.0",
                      "members": "2.0:2, 2.5:2"}}
    spec = build_medium(layer_configs(cfg), m)
    assert [mem.weight for mem in spec.members] == [0.5, 0.5]
    assert [mem.rotation for mem in spec.members] == [2.0, 2.5]


def test_build_medium_bare_rotation_gets_unit_weight():
    m = OscillatorModel.normalized(0.1)
    cfg = {"medium": {"number_density": "1.0", "path_length": "1.0",
                      "members": "2.0"}}
    spec = build_medium(layer_configs(cfg), m)
    assert spec.members[0].weight == 1.0


def test_build_medium_bad_entry():
    m = OscillatorModel.normalized(0.1)
    cfg = {"medium": {"number_density": "1.0", "path_length": "1.0",
                      "members": "2.0:heavy"}}
    with pytest.raises(ConfigError, match="bad entry"):
        build_medium(layer_configs(cfg), m)


@pytest.mark.parametrize("members", ["nan:1", "inf:1", "2.0:nan", "2.0:inf"])
def test_build_medium_rejects_non_finite_member(members):
    m = OscillatorModel.normalized(0.1)
    cfg = {"medium": {"number_density": "1.0", "path_length": "1.0",
                      "members": members}}
    with pytest.raises(ConfigError, match="must be finite"):
        build_medium(layer_configs(cfg), m)


@pytest.mark.parametrize("build, cfg, message", [
    (build_thermal, {"thermal": {"radiative_coefficient": "1"}},
     "missing [thermal] ambient_temperature"),
    (build_thermal, {"thermal": {"ambient_temperature": "-1",
                                 "radiative_coefficient": "1"}},
     "[thermal]: ambient_temperature must be non-negative"),
    (lambda cfg: drive_amplitudes(cfg, OscillatorModel.normalized(0.1)),
     {"drive": {"polarization": "explicit", "ex_re": "x"}},
     "[drive] ex_re: not a number: 'x'"),
    (lambda cfg: build_model(cfg), {"model": {"gamma": "-1"}},
     "[model]: damping_rate must be non-negative"),
], ids=["missing-key", "library-error", "bad-number", "model"])
def test_config_error_names_its_section_once(build, cfg, message):
    with pytest.raises(ConfigError) as info:
        build(layer_configs(cfg))
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# CLI: point


def test_point_reports_balance(capsys):
    # the physical model with an explicit tau = 0 and c = Q^2/m = omega0
    # = 1 is the normalized one; a tau linked to the coupling would be 2/3
    physical = ["--physical", "--coupling", "1", "--omega0", "1",
                "--light-speed", "1", "--tau", "0"]
    for model in ([], physical):
        rc = cli.main(["point", *model, "--gamma", "0.1", "--omega", "0.5",
                       "--Omega", "0.2"])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert_allclose(float(kv["torque"]), 0.039588281868566895,
                        rtol=1e-12)
        assert_allclose(float(kv["sigma_mech"]), 0.04974810219461272,
                        rtol=1e-12)
        assert abs(float(kv["balance_residual"])) <= 1e-12


def test_point_failed_balance_self_check_exits_4(monkeypatch, capsys):
    # an absorption off by a relative 1e-6 breaks the power balance that
    # point checks before it exits
    absorption = response._absorption
    monkeypatch.setattr(response, "_absorption",
                        lambda *terms: (1.0 + 1e-6) * absorption(*terms))
    rc = cli.main(["point", "--gamma", "0.1", "--omega", "0.5",
                   "--Omega", "0.2"])
    assert rc == cli.EXIT_VALIDATION == 4
    captured = capsys.readouterr()
    assert "balance_residual = " in captured.out
    assert captured.err.startswith("self-check failed: balance residual ")
    assert captured.err.endswith(" exceeds 1e-10\n")


def test_point_singular_resonance_exits_3(capsys):
    rc = cli.main(["point", "--gamma", "0.1", "--omega", "1.0",
                   "--Omega", "1.0"])
    assert rc == 3
    assert "singular" in capsys.readouterr().err


def test_point_faint_excited_helicity_on_its_resonance_exits_3(tmp_path,
                                                               capsys):
    # E_plus = 1e-170j: |E_plus|^2 underflows to 0, but E_plus is excited,
    # and d_plus = 25 - 9 - 16 = 0 at omega = 1, Omega = 3
    conf = _write(tmp_path, """\
        [model]
        gamma = 0
        tau = 0
        omega0 = 5
        [drive]
        polarization = explicit
        ex_re = 1
        ey_re = 1e-170
        ey_im = 1
        omega = 1
        [point]
        Omega = 3
        """)
    rc = cli.main(["point", "--config", conf])
    assert rc == cli.EXIT_SINGULAR == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("singular resonance: ")


def test_point_corotating_zero_torque(capsys):
    # omega = Omega away from omega0: regular, and the torque vanishes
    # exactly when radiation damping is off
    rc = cli.main(["point", "--gamma", "0.1", "--tau", "0.0",
                   "--omega", "0.7", "--Omega", "0.7"])
    assert rc == 0
    kv = _kv(capsys.readouterr().out)
    assert float(kv["torque"]) == 0.0


@pytest.mark.parametrize("light_speed", ["0", "1e-300", "-1"])
def test_physical_model_light_speed_out_of_range_exits_2(capsys, light_speed):
    # the linked tau = 2 (Q^2/m) / (3 c^3) divides by c^3, which is zero
    # or underflows to zero here
    rc = cli.main(["point", "--physical", "--gamma", "1e13", "--omega0",
                   "3e15", "--coupling", "1e4", "--omega", "0.5", "--Omega",
                   "0.2", f"--light-speed={light_speed}"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: [model]: light_speed must be positive, and its cube "
        "must not underflow to 0\n")


def test_physical_model_light_speed_cube_overflow_exits_2(capsys):
    # c^3 leaves the double range above about 5.6e102: the error names
    # the input instead of a bare overflow
    rc = cli.main(["point", "--physical", "--gamma", "1e13", "--omega0",
                   "3e15", "--coupling", "1e4", "--omega", "0.5", "--Omega",
                   "0.2", "--light-speed=1e200"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [model]: light_speed")
    assert err.count("\n") == 1


def test_point_missing_gamma_exits_2(capsys):
    rc = cli.main(["point", "--omega", "0.5", "--Omega", "0.2"])
    assert rc == 2
    assert "gamma" in capsys.readouterr().err


def test_point_huge_frequency_exits_2(capsys):
    # omega**4 overflows a double: an input out of range, not a crash
    rc = cli.main(["point", "--normalized", "--gamma", "0.1", "--tau", "1e-3",
                   "--pol", "lcp", "--omega", "1e80", "--Omega", "0.5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "too large" in err


@pytest.mark.parametrize("argv", [
    ["scan", "--preset", "fig2", "--omega-max", "1e80", "--omega-count", "3",
     "--Omega-count", "2"],
    ["spectrum", "--normalized", "--gamma", "0.1", "--tau", "0.001",
     "--omega-min", "0.1", "--omega-max", "1", "--omega-count", "5",
     "--Omega", "1e300"],
], ids=["scan", "spectrum"])
def test_overflowing_map_exits_2(tmp_path, capsys, argv):
    # the same overflow as in `point`, not a lattice of singular cells
    rc = cli.main(argv + ["--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == ("error: an input is too large: a "
                                       "response value overflows a double\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("message, err", [
    ("Unable to allocate 128. TiB for an array with shape (4194304, "
     "4194304) and data type float64",
     "error: not enough memory: Unable to allocate 128. TiB for an array "
     "with shape (4194304, 4194304) and data type float64\n"),
    (None, "error: not enough memory\n"),
], ids=["numpy", "bare"])
def test_oversized_grid_exits_2(tmp_path, capsys, monkeypatch, message, err):
    # what numpy raises for a 2**22 x 2**22 lattice, without asking the OS
    # for 128 TiB
    def refuse(req):
        assert (req.omega_count, req.Omega_count) == (2**22, 2**22)
        raise MemoryError(message) if message else MemoryError()

    monkeypatch.setattr(cli.scan, "grid_scan", refuse)
    rc = cli.main(["scan", "--preset", "fig2", "--omega-count", "4194304",
                   "--Omega-count", "4194304",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == []


_DRUDE_SCAN = ["--units", "fig2", "--omega-min", "0", "--omega-max", "1",
               "--omega-count", "3", "--Omega-min", "0", "--Omega-max", "1",
               "--Omega-count", "3"]


@pytest.mark.parametrize("argv, err", [
    (["point", "--source", "drude-sphere", "--radius", "1e-6",
      "--plasma-frequency", "1e300", "--omega", "0.5", "--Omega", "0.2"],
     "config error: [model]: the coupling plasma_frequency^2 radius^3 / 3 "
     "of the Drude inputs overflows a double"),
    (["point", "--source", "drude-ellipsoid", "--volume", "1e-18",
      "--depolarization-factor", "0.2", "--plasma-frequency", "1e300",
      "--omega", "0.5", "--Omega", "0.2"],
     "config error: [model]: the coupling plasma_frequency^2 volume / 4 pi "
     "of the Drude inputs overflows a double"),
    (["scan", "--source", "drude-sphere", "--radius", "1e-6",
      "--plasma-frequency", "1e150", *_DRUDE_SCAN],
     "config error: [scan]: fig2 units divide by Q^2 gamma / (m c omega0^2) "
     "and Q^2 tau / (m c); both must be nonzero and finite"),
], ids=["sphere", "ellipsoid", "fig2-divisor"])
def test_overflowing_drude_input_exits_2(tmp_path, capsys, argv, err):
    # one line on stderr: no numpy overflow warning ahead of it
    out = ["--out", str(tmp_path / "x.csv")] if argv[0] == "scan" else []
    rc = cli.main(argv + ["--damping", "1e14"] + out)
    assert rc == 2
    assert capsys.readouterr().err == err + "\n"


def test_drude_fig2_scan_reparses(tmp_path):
    # the sidecar records the divisors as plain floats, which re-parse
    out = tmp_path / "x.csv"
    rc = cli.main(["scan", "--source", "drude-sphere", "--radius", "1e-6",
                   "--plasma-frequency", "1.4e16", "--damping", "1e14",
                   *_DRUDE_SCAN, "--omega-max", "1e16", "--Omega-max", "1e15",
                   "--out", str(out)])
    assert rc == 0
    worst, checked = reparse_balance_check(out)
    assert checked == 8 and worst <= 1e-10


@pytest.mark.parametrize("flag, value", [("--gamma", "nan"),
                                         ("--omega", "inf"),
                                         ("--Omega", "nan")])
def test_point_non_finite_input_exits_2(capsys, flag, value):
    flags = {"--gamma": "0.1", "--omega": "0.5", "--Omega": "0.2",
             flag: value}
    rc = cli.main(["point"] + [x for pair in flags.items() for x in pair])
    assert rc == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "singular" not in err


# ---------------------------------------------------------------------------
# CLI: scan and spectrum


def test_scan_preset_with_overrides(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = cli.main(["scan", "--preset", "fig2", "--omega-count", "12",
                   "--Omega-count", "8", "--out", str(out)])
    assert rc == 0
    assert f"wrote {out} (96 cells, 0 singular)" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 96 + 1
    # the omega = Omega = 0 cell is all zeros (static field, no motion)
    # and is skipped by the scale guard
    worst, checked = reparse_balance_check(out)
    assert checked == 95
    assert worst <= 1e-10


def test_spectrum_preset(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    rc = cli.main(["spectrum", "--preset", "fig3a", "--omega-count", "21",
                   "--out", str(out)])
    assert rc == 0
    assert "21 frequencies at Omega = 2" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 22
    assert all(row[1] == "2" for row in rows[1:])


def test_unknown_preset_exits_2(capsys):
    # argparse rejects the choice itself, also with status 2
    with pytest.raises(SystemExit) as info:
        cli.main(["scan", "--preset", "fig9"])
    assert info.value.code == 2
    assert "--preset" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: spinup


def test_spinup_from_config(tmp_path, capsys):
    # a body given by its inertia, and a rod with the same one, m L^2 / 12
    out = tmp_path / "traj.csv"
    times = []
    for body in ("moment_of_inertia = 2.0",
                 "shape = rod\n            mass = 24\n            length = 1"):
        conf = _write(tmp_path, f"""\
            [model]
            gamma = 0.1

            [drive]
            omega = 0.5

            [spinup]
            Omega_target = 1e-3
            samples = 40

            [body]
            {body}

            [output]
            path = {out}
            """)
        rc = cli.main(["spinup", "--config", conf])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert kv["outcome"] == "target"
        assert_allclose(float(kv["terminal_Omega"]), 1e-3, rtol=1e-6)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "Omega"]
        assert len(rows) == int(kv["samples"]) + 1
        times.append(kv["terminal_time"])
    assert times[0] == times[1]


def test_spinup_that_bursts_at_once_writes_all_samples(tmp_path, capsys):
    # the burst frequency of this sphere lies below Omega_init
    out = tmp_path / "traj.csv"
    conf = _write(tmp_path, f"""\
        [model]
        gamma = 0.1

        [drive]
        omega = 0.5

        [spinup]
        Omega_init = 0.1
        Omega_target = 0.2
        samples = 50

        [body]
        shape = sphere
        density = 1
        radius = 1
        surface_tension = 1e-6

        [output]
        path = {out}
        """)
    assert cli.main(["spinup", "--config", conf]) == 0
    kv = _kv(capsys.readouterr().out)
    assert kv["outcome"] == "burst"
    assert kv["samples"] == "50"
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [["0", "0.10000000000000001"]] * 50


def test_spinup_unreachable_exits_2(tmp_path, capsys):
    conf = _write(tmp_path, """\
        [model]
        gamma = 0.1

        [drive]
        omega = 0.5

        [spinup]
        Omega_init = 0.8
        Omega_target = 0.9

        [body]
        moment_of_inertia = 1.0
        """)
    rc = cli.main(["spinup", "--config", conf,
                   "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_spinup_opposing_torque_exits_2(tmp_path, capsys):
    # the LCP torque at Omega_init = 0.8 is -0.407: it brakes the rotation
    # from the start, so the message names Omega_init, not a stall
    conf = _write(tmp_path, """\
        [model]
        gamma = 0.1

        [drive]
        omega = 0.5

        [spinup]
        Omega_init = 0.8
        Omega_target = 0.9

        [body]
        moment_of_inertia = 1.0
        """)
    rc = cli.main(["spinup", "--config", conf,
                   "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("Omega_init = 0.8 turns the rotation away from Omega_target = "
            "0.9") in err
    assert "stalls" not in err
    assert not (tmp_path / "t.csv").exists()


def test_spinup_stalled_target_exits_2(tmp_path, capsys):
    # with tau = 0 the LCP torque vanishes at Omega = omega = 0.5, so the
    # rotation can never reach 0.6
    conf = _write(tmp_path, """\
        [model]
        gamma = 0.1
        tau = 0

        [drive]
        omega = 0.5

        [spinup]
        Omega_target = 0.6

        [body]
        moment_of_inertia = 1.0
        """)
    rc = cli.main(["spinup", "--config", conf,
                   "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "Omega = 0.5" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_spinup_stall_before_a_burst_names_the_requested_target(tmp_path,
                                                                capsys):
    # the body bursts at 0.55, past the stall at 0.5 and short of the
    # requested 0.6: the message calls 0.6 the target, not the burst
    conf = _write(tmp_path, f"""\
        [model]
        gamma = 0.1

        [drive]
        omega = 0.5

        [spinup]
        Omega_target = 0.6

        [body]
        moment_of_inertia = 0.25
        radius = 1.0
        surface_tension = {0.25 * 0.55**2 / (8.0 * np.pi)!r}
        """)
    rc = cli.main(["spinup", "--config", conf,
                   "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stalls the rotation at Omega = 0.5, short of Omega_target = 0.6" \
        in err
    assert "0.55" not in err
    assert not (tmp_path / "t.csv").exists()


def test_spinup_time_beyond_doubles_exits_2(tmp_path, capsys):
    # a moment of inertia of 1e308 makes the spin-up time overflow
    conf = _write(tmp_path, """\
        [model]
        gamma = 0.1

        [drive]
        omega = 0.5

        [spinup]
        Omega_target = 0.1

        [body]
        moment_of_inertia = 1e308
        """)
    rc = cli.main(["spinup", "--config", conf,
                   "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: [spinup]: spin-up quadrature failed: time out of "
        "double range\n")
    assert not (tmp_path / "t.csv").exists()


def test_spinup_quadrature_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a torque too ragged for the adaptive quadrature: one error line,
    # never a silent estimate
    monkeypatch.setattr(
        "rotospin.dynamics.torque",
        lambda model, drive, Om: 1.0 + 0.9 * np.sin(1e7 * np.asarray(Om)))
    rc = cli.main(["spinup", "--config", _write(tmp_path, _SPINUP_INI),
                   "--Omega-target", "1", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [spinup]: spin-up quadrature failed: "
                          "200 panels do not reach a relative error of "
                          "1e-10")
    assert err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


# ---------------------------------------------------------------------------
# CLI: thermal and amplify


def test_thermal_from_config(tmp_path, capsys):
    conf = _write(tmp_path, """\
        [model]
        gamma = 0.1

        [drive]
        omega = 1.05

        [thermal]
        ambient_temperature = 1.0
        radiative_coefficient = 1.0
        """)
    rc = cli.main(["thermal", "--config", conf, "--Omega", "0.0"])
    assert rc == 0
    kv = _kv(capsys.readouterr().out)
    assert float(kv["sigma_abs"]) > 0.0
    assert float(kv["T_eq"]) > 1.0


def test_thermal_evaluates_only_the_absorption(tmp_path, capsys):
    # at omega = 1e80 the elastic channel's omega**4 overflows a double,
    # but sigma_abs is gamma pi w^2 * 2/(tau w^3)^2 = 6.3e-315 and T_eq
    # is the ambient temperature
    conf = _write(tmp_path, """\
        [thermal]
        ambient_temperature = 300
        radiative_coefficient = 1e-22
        """)
    rc = cli.main(["thermal", "--config", conf, "--gamma", "0.1", "--tau",
                   "1e-3", "--omega", "1e80", "--Omega", "0.5"])
    assert rc == 0
    kv = _kv(capsys.readouterr().out)
    assert float(kv["sigma_abs"]) == pytest.approx(0.2 * np.pi * 1e-314,
                                                   rel=1e-8, abs=0.0)
    assert float(kv["T_eq"]) == 300.0


def test_thermal_power_ratio_beyond_doubles(tmp_path, capsys):
    # P/C_rad overflows a double, but T_eq = (P/C_rad)^(1/6) does not
    conf = _write(tmp_path, """\
        [model]
        gamma = 0.1

        [drive]
        omega = 1.05

        [thermal]
        ambient_temperature = 1.0
        radiative_coefficient = 1e-320
        """)
    rc = cli.main(["thermal", "--config", conf, "--Omega", "0.2"])
    assert rc == 0
    kv = _kv(capsys.readouterr().out)
    power = float(kv["absorbed_power"])
    assert float(kv["T_eq"]) == pytest.approx(
        power ** (1.0 / 6.0) / 1e-320 ** (1.0 / 6.0), rel=1e-14)
    assert 1e53 < float(kv["T_eq"]) < 1e54


def test_amplify_from_config(tmp_path, capsys):
    out = tmp_path / "gain.csv"
    conf = _write(tmp_path, f"""\
        [model]
        gamma = 0.1
        tau = 1e-4

        [drive]
        omega = 1.0

        [medium]
        number_density = 3.0
        path_length = 1.0
        members = 2.0:0.5, 2.5:0.5

        [output]
        path = {out}
        """)
    rc = cli.main(["amplify", "--config", conf])
    assert rc == 0
    kv = _kv(capsys.readouterr().out)
    m = OscillatorModel.normalized(0.1, 1e-4)
    from rotospin import DriveField
    drive = DriveField.lcp(1.0)
    expect = 0.5 * (extinction_cross_section(m, drive, 2.0)
                    + extinction_cross_section(m, drive, 2.5))
    assert_allclose(float(kv["mean_sigma_ext"]), expect, rtol=1e-12)
    g = float(kv["gain_coefficient"])
    assert g > 0.0
    assert_allclose(float(kv["doubling_length"]), np.log(2.0) / g, rtol=1e-12)
    assert float(kv["I_out"]) > float(kv["I_in"])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["z", "I"]
    assert len(rows) == 102


def test_amplify_non_finite_member_exits_2(tmp_path, capsys):
    conf = _write(tmp_path, """\
        [model]
        gamma = 0.1

        [drive]
        omega = 0.5

        [medium]
        number_density = 1.0
        path_length = 1.0
        members = nan:1
        """)
    rc = cli.main(["amplify", "--config", conf,
                   "--out", str(tmp_path / "g.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "singular" not in err


def test_amplify_weights_whose_sum_overflows_run_as_unit_weights(tmp_path):
    # 1e308 + 1e308 overflows a double: each weight over the sum was 0,
    # and the run exited 2 saying the weights sum to 0
    runs = []
    for weight in ("1", "1e308"):
        ini = _AMPLIFY_INI.replace("2.0:0.5, 2.5:0.5",
                                   f"2.0:{weight}, 2.2:{weight}")
        out = tmp_path / f"{weight}" / "g.csv"
        out.parent.mkdir()
        code, stdout, err = _in_process(["amplify", "--config",
                                         _write(tmp_path, ini),
                                         "--out", str(out)])
        runs.append((code, stdout.replace(str(out), "<out>"), err,
                     out.read_bytes() if out.exists() else None))
    assert runs[1] == runs[0]
    assert runs[0][0] == 0


def test_amplify_excluded_member_warns_on_one_line(tmp_path):
    # the member at Omega = omega sits on a lossless resonance; its warning
    # names no source path.  In a subprocess, since the suite turns an
    # in-process warning into an exception
    conf = _write(tmp_path, """\
        [model]
        gamma = 0.1

        [drive]
        omega = 1.0

        [medium]
        number_density = 1.0
        path_length = 1.0
        members = 1.0:0.5, 2.0:0.5
        """)
    runs = [subprocess.run(
        [sys.executable, *flags, "-m", "rotospin.cli", "amplify",
         "--config", conf, "--out", str(tmp_path / "g.csv")],
        env=_subprocess_env(), capture_output=True,
        text=True, timeout=60) for flags in ([], ["-W", "ignore"])]
    assert [proc.returncode for proc in runs] == [0, 0]
    assert runs[0].stderr == ("warning: excluded 1 singular ensemble "
                              "member(s) at indices (0,)\n")
    assert runs[1].stderr == ""
    assert runs[0].stdout == runs[1].stdout
    assert "\nexcluded_members = 1\n" in runs[0].stdout


# ---------------------------------------------------------------------------
# CLI: output paths


_SPINUP_INI = """\
    [model]
    gamma = 0.1

    [drive]
    omega = 0.5

    [spinup]
    Omega_target = 1e-3

    [body]
    moment_of_inertia = 2.0
    """

_AMPLIFY_INI = """\
    [model]
    gamma = 0.1
    tau = 1e-4

    [drive]
    omega = 1.0

    [medium]
    number_density = 3.0
    path_length = 1.0
    members = 2.0:0.5, 2.5:0.5
    """


@pytest.mark.parametrize("argv, ini", [
    (["scan", "--preset", "fig2", "--omega-count", "4",
      "--Omega-count", "4"], None),
    (["spectrum", "--preset", "fig3a", "--omega-count", "5"], None),
    (["spinup"], _SPINUP_INI),
    (["amplify"], _AMPLIFY_INI),
], ids=["scan", "spectrum", "spinup", "amplify"])
@pytest.mark.parametrize("target", ["missing/x.csv", "x.csv/"],
                         ids=["missing-dir", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, ini, target):
    if ini is not None:
        argv = argv + ["--config", _write(tmp_path, ini)]
    (tmp_path / "x.csv").mkdir()
    out = str(tmp_path / target).rstrip("/")
    rc = cli.main(argv + ["--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "x.csv" in err and ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()
                  if p.suffix != ".ini") == ["x.csv"]


_THERMAL_INI = """\
    [model]
    gamma = 0.1

    [drive]
    omega = 1.05

    [thermal]
    ambient_temperature = 1.0
    radiative_coefficient = 1.0
    """


@pytest.mark.parametrize("argv, ini", [
    (["point", "--gamma", "0.1", "--omega", "0.5", "--Omega", "0.2",
      "--pol", "explicit"], None),
    (["point", "--gamma", "0.1", "--omega", "0.5", "--Omega", "0.2",
      "--amplitude", "0"], None),
    (["point", "--gamma", "0.1", "--omega", "0.5", "--Omega", "0.2",
      "--intensity", "0"], None),
    (["thermal", "--amplitude", "0"], _THERMAL_INI),
    (["amplify", "--amplitude", "0"], _AMPLIFY_INI),
    (["spinup", "--amplitude", "0"], _SPINUP_INI),
    (["scan", "--preset", "fig2", "--amplitude", "0"], None),
    (["spectrum", "--preset", "fig3a", "--amplitude", "0"], None),
], ids=["point-explicit", "point", "point-intensity", "thermal", "amplify",
        "spinup", "scan", "spectrum"])
def test_zero_drive_amplitude_exits_2(tmp_path, capsys, argv, ini):
    if ini is not None:
        argv = argv + ["--config", _write(tmp_path, ini)]
    if argv[0] in ("scan", "spectrum", "spinup", "amplify"):
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    rc = cli.main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("config error: [drive] the field has zero amplitude "
                   "(Ex = Ey = 0)\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv, ini", [
    (["point", "--gamma", "0.1", "--omega", "0.5", "--Omega", "0.2"], None),
    (["thermal"], _THERMAL_INI),
    (["amplify"], _AMPLIFY_INI),
    (["scan", "--preset", "fig2"], None),
], ids=["point", "thermal", "amplify", "scan"])
def test_underflowing_drive_amplitude_exits_2(tmp_path, capsys, argv, ini):
    # |E| = 1e-200 is nonzero, but |E|^2 rounds to 0 and every cross
    # section divides by it
    if ini is not None:
        argv = argv + ["--config", _write(tmp_path, ini)]
    if argv[0] in ("scan", "amplify"):
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    rc = cli.main(argv + ["--amplitude", "1e-200"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: [drive] the field amplitude is too small: "
        "|Ex|^2 + |Ey|^2 underflows to 0\n")
    assert not (tmp_path / "x.csv").exists()


_HOT_INI = """\
    [thermal]
    ambient_temperature = 300
    radiative_coefficient = 1e-22

    [body]
    moment_of_inertia = 1
    melting_temperature = 1000

    [spinup]
    Omega_target = 0.3
    """
_CGS = ["--physical", "--coupling=1", "--omega0=1", "--gamma=0.1",
        "--omega=0.5"]
_BEAM_ERR = "the beam intensity c |E|^2 / 2 pi overflows a double"
_POWER_ERR = "the absorbed power sigma_abs * I overflows a double"


@pytest.mark.parametrize("argv, ini, err", [
    # c |E|^2 / 2 pi = 4.8e309
    (["thermal", *_CGS, "--Omega=0.2", "--amplitude=1e150"], _HOT_INI,
     _BEAM_ERR),
    (["spinup", *_CGS, "--amplitude=1e150"], _HOT_INI, _BEAM_ERR),
    # I = 1.6e305 is finite, sigma_abs * I = 1e309 is not
    (["thermal", "--gamma=0.001", "--omega=1", "--Omega=0",
      "--amplitude=1e153"], _HOT_INI, _POWER_ERR),
    (["spinup", "--gamma=0.001", "--omega=1", "--amplitude=1e153"],
     _HOT_INI, _POWER_ERR),
    # gain 12.4 per unit length over a path of 1e6
    (["amplify", "--gamma=0.1", "--tau=1e-4", "--omega=0.5"],
     "[medium]\nnumber_density = 1e3\npath_length = 1e6\n"
     "members = 2.0:0.5, 2.5:0.5\n",
     "the propagated intensity I0 exp(g z) overflows a double"),
    # |E|^2 = 1e310 itself
    (["thermal", "--gamma=0.1", "--omega=0.5", "--Omega=0.2",
      "--amplitude=1e155"], _HOT_INI,
     "the field strength |E|^2 or |E+/-|^2 overflows a double"),
], ids=["thermal-intensity", "spinup-intensity", "thermal-power",
        "spinup-power", "amplify-propagation", "thermal-field"])
def test_overflowing_power_exits_2(tmp_path, capsys, argv, ini, err):
    # an intensity or power beyond a double is an error, not an inf that
    # reads as a melt or a result
    argv = argv + ["--config", _write(tmp_path, ini)]
    if argv[0] != "thermal":
        argv += ["--out", str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: an input is too large: {err}\n"
    assert not (tmp_path / "x.csv").exists()


def test_point_overflow_reads_as_a_scan_cell(capsys):
    # omega**2 of a denominator overflows at a point, as in a scan's cell
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["point", "--gamma=0.1", "--tau=1e-3", "--omega=1e160",
                       "--Omega=0.2"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: an input is too large: a "
                                       "response value overflows a double\n")


def test_point_where_only_the_unexcited_helicity_overflows(capsys):
    # LCP at omega = Omega = 4.4e76: the E_plus sideband's fourth power
    # overflows, but LCP light does not excite it
    rc = cli.main(["point", "--gamma", "0.1", "--tau", "1e-3", "--omega",
                   "4.4e76", "--Omega", "4.4e76"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sigma_in_plus = 0\n" in out
    assert "sigma_elastic = 0.0031415926535897933\n" in out


# ---------------------------------------------------------------------------
# CLI: numeric input edges


_SAMPLES_ERR = "config error: [{}] samples: must be at least 2, got '{}'"
_BURST_RADIUS_ERR = ("config error: [body]: surface_tension needs a radius: "
                     "the burst estimate uses both")
_SPINUP_FLAGS = ["spinup", "--gamma=0.1", "--omega=0.5", "--Omega-target=1e-3"]
_AMPLIFY_FLAGS = ["amplify", "--gamma=0.1", "--omega=1"]


@pytest.mark.parametrize("argv, ini, err", [
    (["spinup", "--samples=1"], _SPINUP_INI, _SAMPLES_ERR.format("spinup", 1)),
    (["spinup", "--samples=0"], _SPINUP_INI, _SAMPLES_ERR.format("spinup", 0)),
    (["spinup", "--samples=-4"], _SPINUP_INI,
     _SAMPLES_ERR.format("spinup", -4)),
    (["amplify", "--samples=1"], _AMPLIFY_INI,
     _SAMPLES_ERR.format("medium", 1)),
    (["amplify", "--samples=0"], _AMPLIFY_INI,
     _SAMPLES_ERR.format("medium", 0)),
    (["amplify", "--samples=-4"], _AMPLIFY_INI,
     _SAMPLES_ERR.format("medium", -4)),
    (["spinup", "--Omega-init=1e-3"], _SPINUP_INI,
     "config error: [spinup]: Omega_target must exceed Omega_init"),
    (["spinup", "--Omega-init=0.5"], _SPINUP_INI,
     "config error: [spinup]: Omega_target must exceed Omega_init"),
    (["spinup", "--Omega-init=-0.1"], _SPINUP_INI,
     "config error: [spinup]: Omega_init must be non-negative"),
    (["spinup", "--max-time=-5"], _SPINUP_INI,
     "config error: [spinup]: max_time must be positive"),
    (["spinup", "--max-time=0"], _SPINUP_INI,
     "config error: [spinup]: max_time must be positive"),
    # c omega0^2 underflows to 0 in the fig2 friction divisor
    (["spectrum", "--preset=fig3a", "--omega0=1e-300"], "",
     "config error: [spectrum]: fig2 units divide by Q^2 gamma / (m c "
     "omega0^2) and Q^2 tau / (m c); both must be nonzero and finite"),
    # |E| = sqrt(2 pi I / c) overflows a double
    (["scan", "--preset=fig2", "--light-speed=1e-300", "--intensity=1e300"],
     "", "config error: [drive] intensity is too large: the field amplitude "
         "sqrt(2 pi I / c) overflows a double"),
    (["scan", "--preset=fig2", "--omega-min=-1e308", "--omega-max=1.7e308"],
     "", "config error: [scan]: omega range and its width must be finite"),
    # a finite width whose linspace steps overflow on the way; the axis
    # itself is finite, and the response at -1.8e308 overflows
    (["scan", "--preset=fig2", "--omega-min=-1.7976931348623157e308",
      "--omega-max=2", "--omega-count=4"], "",
     "error: an input is too large: a response value overflows a double"),
    (["scan", "--preset=fig2", "--Omega-min=-1.7976931348623157e308",
      "--Omega-max=2", "--Omega-count=4"], "",
     "error: an input is too large: a response value overflows a double"),
    # keys and sections that are malformed or missing
    (["scan", "--preset=fig2"], "[scan]\nomega_count = abc\n",
     "config error: [scan] omega_count: not an integer: 'abc'"),
    (["scan", "--gamma=0.1", "--omega=1"],
     "[scan]\nomega_min = 0\nomega_max = 2\nOmega_min = 0\nOmega_max = 2\n"
     "Omega_count = 4\n", "config error: missing [scan] omega_count"),
    # an empty value is no number: it neither means the default nor drops
    # an earlier layer's value
    (["scan", "--preset=fig2", "--tau="], "",
     "config error: [model] tau: not a number: ''"),
    (["scan", "--preset=fig2"], "[model]\ntau =\n",
     "config error: [model] tau: not a number: ''"),
    (["scan", "--preset=fig2"], "[model]\nmode = bogus\n",
     "config error: [model] mode must be normalized or physical, "
     "got 'bogus'"),
    (_SPINUP_FLAGS, "", "config error: missing [body] section"),
    (_SPINUP_FLAGS, "[body]\nshape = disk\n",
     "config error: [body] shape must be direct, sphere or rod, got 'disk'"),
    # a burst needs a radius: without one the run went on to its target
    (_SPINUP_FLAGS, "[body]\nshape = rod\nmass = 1\nlength = 1\n"
     "surface_tension = 1e-9\n", _BURST_RADIUS_ERR),
    (_SPINUP_FLAGS, "[body]\nmoment_of_inertia = 2\nsurface_tension = 1e-9\n",
     _BURST_RADIUS_ERR),
    (["thermal", "--gamma=0.1", "--omega=0.5"], "",
     "config error: missing [thermal] section"),
    (_AMPLIFY_FLAGS, "", "config error: missing [medium] section"),
    (_AMPLIFY_FLAGS, "[medium]\nnumber_density = 1\npath_length = 1\n",
     "config error: missing [medium] members"),
    (_AMPLIFY_FLAGS, "[medium]\nmembers = ,\n",
     "config error: [medium] members is empty"),
    (_AMPLIFY_FLAGS, "[medium]\nmembers = 1:0\n",
     "config error: [medium] members: weights must sum to > 0"),
    # negative weights whose sum overflows stay negative once scaled
    (_AMPLIFY_FLAGS, "[medium]\nmembers = 2.0:-1e308, 2.2:-1e308\n",
     "config error: [medium] members: weights must sum to > 0"),
    (_AMPLIFY_FLAGS, "[medium]\nmembers = 2.0:-1e308, 2.2:-1e308, 2.4:0\n",
     "config error: [medium] members: weights must sum to > 0"),
    # keys and sections that config.KEYS does not list: a misspelt tau
    # used to run at tau = 0 and exit 0
    (["scan", "--preset=fig2"], "[model]\ngamma = 0.1\ntua = 0.5\n",
     "config error: [model] tua: unknown key"),
    (["scan", "--preset=fig2"], "[model]\ngamma = 0.1\n[bogus]\nx = 1\n",
     "config error: [bogus]: unknown section"),
    # a [DEFAULT] key lands in every section and is checked in each: the
    # [point] key Omega is unknown to [model]
    (["scan", "--preset=fig2"], "[DEFAULT]\nOmega = 0.2\n[model]\n"
     "gamma = 0.1\n", "config error: [model] Omega: unknown key"),
    # with no other section, [DEFAULT] keys land nowhere: the file loaded
    # as empty and its misspelt gama passed
    (["scan", "--preset=fig2"], "[DEFAULT]\ngamma = 0.5\ngama = 3\n",
     "config error: [DEFAULT]: no other section for its keys to land in"),
    # a malformed value of a known key this run does not read
    (["scan", "--preset=fig2", "--radius=abc"], "",
     "config error: [model] radius: not a number: 'abc'"),
    (["scan", "--preset=fig2"], "[model]\nradius = abc\n",
     "config error: [model] radius: not a number: 'abc'"),
    (["scan", "--preset=fig2"], "[spinup]\nsamples = abc\n",
     "config error: [spinup] samples: not an integer: 'abc'"),
    # and a malformed choice or members list, read or not
    (_POINT_ARGV, "[body]\nshape = disk\n",
     "config error: [body] shape must be direct, sphere or rod, got 'disk'"),
    (["scan", "--preset=fig2"], "[spectrum]\nunits = bogus\n",
     "config error: [spectrum] units must be physical or fig2, got 'bogus'"),
    (_POINT_ARGV, "[medium]\nmembers = 2.0:heavy\n",
     "config error: [medium] members: bad entry '2.0:heavy'; expected "
     "Omega:weight"),
    # a flag's choice is checked as a file's is
    (["point", "--pol", "bogus"], "", "config error: [drive] polarization "
     "must be lcp, rcp, linear or explicit, got 'bogus'"),
], ids=["spinup-samples-1", "spinup-samples-0", "spinup-samples-negative",
        "amplify-samples-1", "amplify-samples-0", "amplify-samples-negative",
        "Omega-init-at-target", "Omega-init-beyond-target",
        "Omega-init-negative", "max-time-negative", "max-time-zero",
        "fig2-divisor-underflow",
        "intensity-overflow", "axis-width-overflow",
        "omega-axis-step-overflow", "Omega-axis-step-overflow",
        "omega-count-not-integer", "omega-count-missing", "tau-flag-empty",
        "tau-file-empty", "mode-unknown",
        "body-missing", "shape-unknown", "rod-surface-tension",
        "surface-tension-without-radius", "thermal-missing", "medium-missing",
        "members-missing", "members-empty", "members-zero-weight",
        "members-negative-overflow", "members-negative-overflow-zero",
        "key-unknown", "section-unknown", "default-key-unknown",
        "default-only", "unread-flag-not-a-number", "unread-key-not-a-number",
        "unread-count-not-an-integer", "unread-shape-unknown",
        "unread-units-unknown", "unread-members-bad-entry",
        "pol-flag-unknown"])
def test_bad_numeric_input_exits_2(tmp_path, capsys, argv, ini, err):
    out = tmp_path / "x.csv"
    argv = argv + ["--config", _write(tmp_path, ini)]
    if argv[0] not in ("point", "thermal"):
        argv += ["--out", str(out)]
    rc = cli.main(argv)
    assert rc == 2
    assert capsys.readouterr().err == err + "\n"
    assert not out.exists()


@pytest.mark.parametrize("amplitude, flags", [
    (8e54, ["--Omega-init=1e-300", "--max-time=1"]),
    (1e80, []),
], ids=["torque-overflow", "integrator-failure"])
def test_extreme_amplitude_spinup_exits_0(tmp_path, capsys, amplitude, flags):
    # |E|^2 = 6.4e109 and 1e160 are in range: the torque scales by |E|^2
    # and the time by 1/|E|^2, to 3.5e-112 and 2.3e-162 here.  A time
    # stepper failed on both, with a trial step to Omega ~ 1e102 where the
    # torque overflows, and with rates that overflow its error norm.
    conf = _write(tmp_path, _SPINUP_INI)
    times = []
    for amp in (amplitude, 1.0):
        rc = cli.main(["spinup", f"--amplitude={amp!r}", *flags, "--config",
                       conf, "--out", str(tmp_path / "x.csv")])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert kv["outcome"] == "target"
        assert float(kv["terminal_Omega"]) == 1e-3
        times.append(float(kv["terminal_time"]))
    assert_allclose(times[0] * amplitude**2, times[1], rtol=1e-10)


_EDGE_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -1.0,
                     -5.0, 1e300, -1e300, 1e-300]),
    st.floats())


def _main_in_tmpdir(argv, ini):
    """cli.main with ``ini`` as --config and, for a command that writes
    one, --out in a fresh directory; Hypothesis reruns a test body, so
    tmp_path cannot be shared."""
    with tempfile.TemporaryDirectory() as tmp:
        conf = os.path.join(tmp, "conf.ini")
        with open(conf, "w") as fh:
            fh.write(textwrap.dedent(ini))
        argv = argv + ["--config", conf]
        if argv[0] not in ("point", "thermal"):
            argv += ["--out", os.path.join(tmp, "out.csv")]
        return cli.main(argv)


@settings(max_examples=40, deadline=None)
@given(samples=st.integers(-3, 4), max_time=_EDGE_FLOATS,
       Omega_init=_EDGE_FLOATS, amplitude=_EDGE_FLOATS)
def test_spinup_numeric_inputs_exit_0_or_2(samples, max_time, Omega_init,
                                           amplitude):
    # "--flag=value" keeps argparse from reading "-inf" as a flag
    rc = _main_in_tmpdir(["spinup", f"--samples={samples}",
                          f"--max-time={max_time!r}",
                          f"--Omega-init={Omega_init!r}",
                          f"--amplitude={amplitude!r}"], _SPINUP_INI)
    assert rc in (0, 2)


@settings(max_examples=40, deadline=None)
@given(samples=st.integers(-3, 4), amplitude=_EDGE_FLOATS)
def test_amplify_numeric_inputs_exit_0_or_2(samples, amplitude):
    rc = _main_in_tmpdir(["amplify", f"--samples={samples}",
                          f"--amplitude={amplitude!r}"], _AMPLIFY_INI)
    assert rc in (0, 2)


_MODEL_INIS = st.sampled_from([
    "[model]\ngamma = 0.1\ntau = 1e-3\n",
    "[model]\nmode = physical\ngamma = 1e13\nomega0 = 3e15\ncoupling = 1e4\n",
    "[model]\nsource = drude-sphere\nplasma_frequency = 1.4e16\n"
    "damping = 1e14\nradius = 1e-6\n",
    "[model]\nsource = drude-ellipsoid\nplasma_frequency = 1.4e16\n"
    "damping = 1e14\nvolume = 1e-18\ndepolarization_factor = 0.2\n",
])

_COMMAND_INIS = {
    "point": "[point]\nOmega = 0.2\n",
    "thermal": "[thermal]\nOmega = 0.2\nambient_temperature = 1.0\n"
               "radiative_coefficient = 1.0\n",
    "scan": "[scan]\nomega_min = 0\nomega_max = 2\nomega_count = 4\n"
            "Omega_min = -1\nOmega_max = 2\nOmega_count = 3\n",
    "spectrum": "[spectrum]\nOmega = 2\nomega_min = 0\nomega_max = 3\n"
                "omega_count = 5\n",
}

#: small counts only: a drawn 10**9 would be a legitimate, huge lattice
_EDGE_COUNTS = st.one_of(st.integers(-3, 6),
                         st.sampled_from(["nan", "inf", "-inf", "1e300"]))


@pytest.mark.parametrize("command", sorted(_COMMAND_INIS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_numeric_inputs_exit_0_or_2(command, data):
    # up to three flags of the command without choices take float or count
    # edge values, or text that is no number, on top of a valid config;
    # every other key keeps its regular value.  Config parses every flag
    # value, so a rejected one reads like a bad file value.
    flags = {flag: (section, key)
             for section in ("model", "drive", command)
             for key, (kind, flag, _) in cfgmod.KEYS[section].items()
             if flag and kind in (float, int)}
    ini = (data.draw(_MODEL_INIS) + "[drive]\nomega = 0.5\npolarization = "
           + data.draw(st.sampled_from(["lcp", "rcp", "linear"])) + "\n"
           + _COMMAND_INIS[command])
    if command in ("scan", "spectrum"):
        ini += "units = " + data.draw(st.sampled_from(["physical", "fig2"]))
    argv = [command]
    drawn = data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True,
                               max_size=3))
    for flag in drawn:
        value = data.draw(st.one_of(_EDGE_FLOATS.map(repr),
                                    _EDGE_COUNTS.map(str), st.just("abc")))
        argv.append(f"{flag}={value}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = _main_in_tmpdir(argv, ini)
    # a single point may also sit on a singular resonance (omega = Omega =
    # -omega0, say), which exits 3; a map flags such cells instead
    assert rc in ((0, 2, 3) if command in ("point", "thermal") else (0, 2))
    err = err.getvalue()
    if rc == 2:
        assert err.count("\n") == 1 and "usage:" not in err, err
        if any(text in err for text in (": not a number: ",
                                         ": not an integer: ",
                                         ": must be finite, got ")):
            assert any(err.startswith(f"config error: [{section}] {key}: ")
                       for section, key in map(flags.get, drawn)), err


# ---------------------------------------------------------------------------
# CLI: validate


def test_validate_passes(capsys):
    rc = cli.main(["validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[FAIL]" not in out
    assert "16/16 checks passed" in out


def test_validate_negative_seed_rejected_at_parse(capsys):
    # random.Random(-n) seeds the stream of random.Random(n), so a negative
    # seed would silently repeat a positive one; a seed that is no integer
    # fails the same way
    for seed in ("-1", "abc"):
        with pytest.raises(SystemExit) as info:
            cli.main(["validate", "--seed", seed])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert ("argument --seed: must be a non-negative integer, "
                f"got '{seed}'") in err


# ---------------------------------------------------------------------------
# CLI: cold start


_COLD_START = """\
import sys
import numpy as np
import rotospin.cli as cli
from rotospin import scan

layers = ("cli", "config", "response", "scan", "dynamics", "medium",
          "timedomain", "materials", "validation")
missing = [m for m in layers if "rotospin." + m not in sys.modules]
assert not missing, f"not loaded by import rotospin.cli: {{missing}}"
try:
    cli.main(["--help"])
except SystemExit as exc:
    assert exc.code == 0
built = scan._format_tables.cache_info().currsize
assert built == 0, "import and --help built the formatter tables"
# validate's time-domain oracle loads fractions (and decimal), and a
# --config file configparser, each on first use
loaded = [m for m in ("fractions", "decimal", "configparser")
          if m in sys.modules]
assert not loaded, f"loaded by import rotospin.cli and --help: {{loaded}}"

# the spin-up and amplifier CSVs build the scales of their own exponents
# alone: each within one of a written value's estimate, or 0, where
# zeros take the numpy path
for argv in {writers!r}:
    assert cli.main(argv) == 0, argv
written = np.concatenate([np.loadtxt(argv[-1], delimiter=",", skiprows=1)
                          .ravel() for argv in {writers!r}])
estimate = np.floor(np.log10(np.abs(written[written != 0]))).astype(int)
allowed = {{0}} | {{int(x) + d for x in estimate for d in (-1, 0, 1)}}
scales = scan._format_tables()[3][0]
built = set((np.flatnonzero(~np.isnan(scales)) - scan._X_LIMIT).tolist())
assert built and built <= allowed, sorted(built - allowed)

for argv in {runs!r}:
    assert cli.main(argv) == 0, argv
scipy = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
assert not scipy, f"scipy loaded: {{scipy[:5]}}"
# validate draws its points from Python's random module
assert "numpy.random" not in sys.modules, "numpy.random loaded"
"""


_BURST_INI = """\
    [model]
    gamma = 0.1

    [drive]
    omega = 0.5

    [spinup]
    Omega_target = 0.4

    [body]
    moment_of_inertia = 1.0
    radius = 1.0
    surface_tension = 1e-4
    """

_MELT_INI = """\
    [model]
    gamma = 0.1

    [drive]
    omega = 1.05

    [spinup]
    Omega_target = 0.2

    [body]
    moment_of_inertia = 1.0
    melting_temperature = 1.4

    [thermal]
    ambient_temperature = 1.0
    radiative_coefficient = 1.0
    """


def test_every_command_imports_no_scipy(tmp_path):
    # scipy is for the test suite alone, validate's independent references
    # included, and no command needs numpy.random; the bench tracer needs
    # every layer bound once rotospin.cli is imported.  The CSV formatter's
    # tables are built on first use
    spinups = {"target": _SPINUP_INI, "burst": _BURST_INI,
               "melt": _MELT_INI}
    writers = [
        ["amplify", "--config", _write(tmp_path, _AMPLIFY_INI, "a.ini"),
         "--out", str(tmp_path / "gain.csv")],
    ] + [["spinup", "--config", _write(tmp_path, ini, f"{end}.ini"),
          "--out", str(tmp_path / f"{end}.csv")]
         for end, ini in spinups.items()]
    runs = [
        ["point", "--gamma", "0.1", "--omega", "0.5", "--Omega", "0.2"],
        ["scan", "--preset", "fig2", "--omega-count", "4",
         "--Omega-count", "3", "--out", str(tmp_path / "scan.csv")],
        ["spectrum", "--preset", "fig3a", "--omega-count", "5",
         "--out", str(tmp_path / "spectrum.csv")],
        ["thermal", "--config", _write(tmp_path, _THERMAL_INI, "t.ini")],
        ["validate"]]
    proc = subprocess.run([sys.executable, "-c",
                           _COLD_START.format(writers=writers, runs=runs)],
                          env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines()
            if line.startswith("outcome = ")] == [
                f"outcome = {end}" for end in spinups]
    assert "\n16/16 checks passed\n" in proc.stdout


# ---------------------------------------------------------------------------
# CLI: process entry


def test_run_leaves_the_heap_frozen():
    script = textwrap.dedent("""\
        import gc, sys
        import rotospin.cli as cli
        sys.argv = ["rotospin", "point", "--gamma", "0.1", "--omega", "0.5",
                    "--Omega", "0.2"]
        code = cli.run()
        print("frozen", code, gc.get_freeze_count())
        """)
    proc = subprocess.run([sys.executable, "-c", script],
                          env=_subprocess_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    tag, code, frozen = proc.stdout.splitlines()[-1].split()
    assert (tag, code) == ("frozen", "0")
    assert int(frozen) > 0


def _exit_4():
    return 4


def _usage_error():
    raise SystemExit(2)


def _traceback():
    raise RuntimeError("boom")


@pytest.mark.parametrize("main, outcome", [
    (_exit_4, 4), (_usage_error, SystemExit), (_traceback, RuntimeError)],
    ids=["return", "SystemExit", "traceback"])
def test_run_freezes_however_main_ends(monkeypatch, main, outcome):
    # gc.freeze stubbed: freezing the test process would keep every later
    # test's garbage from being collected
    calls = []

    def recorded():
        calls.append("main")
        return main()

    monkeypatch.setattr(cli, "main", recorded)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    if isinstance(outcome, int):
        assert cli.run() == outcome
    else:
        with pytest.raises(outcome):
            cli.run()
    assert calls == ["main", "freeze"]


def test_main_leaves_the_heap_unfrozen(capsys):
    # tests and library callers run main in-process and need a
    # collectable heap
    before = gc.get_freeze_count()
    assert cli.main(["point", "--gamma", "0.1", "--omega", "0.5",
                     "--Omega", "0.2"]) == 0
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert gc.get_freeze_count() == before


def _in_process(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _as_process(argv):
    proc = subprocess.run([sys.executable, "-m", "rotospin.cli", *argv],
                          env=_subprocess_env(), capture_output=True,
                          text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv, ini, code", [
    (["--help"], None, 0),
    (["point", "--bogus"], None, 2),
    (["point", "--config", "{tmp}/missing.ini"], None, 2),
    (["point"], _POINT_INI, 0),
    (["thermal"], _THERMAL_INI, 0),
    (["validate", "--seed", "0"], None, 0),
], ids=["help", "usage-error", "missing-config", "point", "thermal",
        "validate"])
def test_process_entry_prints_as_main_does(tmp_path, monkeypatch, argv, ini,
                                           code):
    monkeypatch.setenv("COLUMNS", "80")     # argparse's help width
    argv = [a.format(tmp=tmp_path) for a in argv]
    if ini is not None:
        argv += ["--config", _write(tmp_path, ini)]
    in_process = _in_process(argv)
    assert in_process[0] == code
    assert _as_process(argv) == in_process


@pytest.mark.parametrize("argv, ini", [
    (["scan", "--preset", "fig2"], None),
    (["spectrum", "--preset", "fig3a"], None),
    (["spinup"], _SPINUP_INI),
    (["amplify"], _AMPLIFY_INI),
], ids=["scan", "spectrum", "spinup", "amplify"])
def test_process_entry_writes_as_main_does(tmp_path, argv, ini):
    if ini is not None:
        argv = argv + ["--config", _write(tmp_path, ini)]
    runs, files = [], []
    for route, entry in (("main", _in_process), ("process", _as_process)):
        out_dir = tmp_path / route
        out_dir.mkdir()
        code, out, err = entry(argv + ["--out", str(out_dir / "x.csv")])
        runs.append((code, out.replace(str(out_dir), "<out>"), err))
        files.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert files[0] == files[1]
    assert "x.csv" in files[0]
