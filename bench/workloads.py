"""Seeded inputs, output checks and the closed loop of the four workloads.

Every workload runs in cycles.  A cycle is a short, fixed list of
operations whose kinds are the same in every cycle; the seed and the
cycle index pick the parameters.  Keeping the mix of each cycle fixed
keeps the work per run nearly independent of the seed, so run-to-run
spread measures the program and not the draw.

A run builds a pool of `POOL_CYCLES` cycles from its seed and runs the
pool at least once, so the inputs it checks depend on the seed alone and
not on how fast the host is (see `closed_loop`).

CLI operations are ``Op`` records: the ``rotospin`` arguments, the output
file, and what `verify_cli` expects.  Library operations are ``Scenario``
records run in-process by ``libworker.py``.
"""

from __future__ import annotations

import math
import os
import random
import re
from dataclasses import dataclass, field
from time import perf_counter

BALANCE_TOL = 1e-10
REL_TOL = 1e-6

#: cells per exported map; the seed varies the aspect ratio around it
MAP_CELLS = 256 * 256

#: cycles in an untraced run's pool.  On a 2-vCPU Xeon sandbox a CLI pool
#: runs in 12-15 s, well inside a 20 s run even on a slow host.  The
#: library pool takes about 22 s; it reaches cycle 380 of seed 107, the
#: known failure described in README.md.
POOL_CYCLES = {"map-export": 3, "cli-short": 2, "selfcheck": 2,
               "library-dynamics": 400}


@dataclass
class Op:
    kind: str
    argv: list
    out: str | None = None
    cells: int = 0
    expect: dict = field(default_factory=dict)


def cycle_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def closed_loop(pool, seconds, run_op, trace=False, meter=None,
                mark_every=1):
    """Run the operations of `pool`, a list of cycles, in order and start
    over at its end, until the whole pool has run once and `seconds` have
    passed.  One client, one operation at a time.

    Untraced, a repeat pass may stop after any operation, and `meter`
    (a ``hostspeed.Meter``) takes a mark at the start and after every
    `mark_every`-th operation.  Traced, each operation runs twice,
    untraced and traced, alternating which goes first, and the loop stops
    only at the end of a pass, so every cycle's figures cover the same
    work.  ``run_op(op, traced, totals)`` runs one operation and adds its
    layer figures to `totals`.  Returns the loop's (start, end) and one
    totals dict per completed cycle.
    """
    marking = meter is not None and not trace
    start = perf_counter()
    if marking:
        meter.mark()
    per_cycle = []
    done = passes = 0
    while True:
        for ops in pool:
            totals = {}
            for j, op in enumerate(ops):
                order = (False,)
                if trace:
                    order = (False, True) if j % 2 == 0 else (True, False)
                for traced in order:
                    run_op(op, traced, totals)
                done += 1
                if marking and done % mark_every == 0:
                    meter.mark()
                if passes and not trace and perf_counter() - start >= seconds:
                    return (start, perf_counter()), per_cycle
            per_cycle.append(totals)
        passes += 1
        if perf_counter() - start >= seconds:
            return (start, perf_counter()), per_cycle


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _write_ini(path, sections):
    with open(path, "w") as fh:
        for name, values in sections.items():
            fh.write(f"[{name}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")
    return path


def _sphere_inertia(density, radius):
    return 8.0 * math.pi / 15.0 * density * radius**5


def _surface_tension_for_burst(burst_at, density, radius):
    """Invert (1/2) I Omega^2 = 4 pi R^2 sigma for sigma."""
    return burst_at**2 * _sphere_inertia(density, radius) / (
        8.0 * math.pi * radius**2)


# --- map-export -----------------------------------------------------------

def map_export_cycle(rng, workdir, tag):
    """One fig2 and one figSI2 map, one in each unit convention."""
    presets = ["fig2", "figSI2"]
    units = ["fig2", "physical"]
    rng.shuffle(presets)
    rng.shuffle(units)
    ops = []
    for preset, unit in zip(presets, units):
        n_omega = rng.randint(176, 372)
        n_Omega = round(MAP_CELLS / n_omega)
        out = os.path.join(workdir, f"{tag}-{preset}.csv")
        argv = ["scan", "--preset", preset,
                "--gamma", repr(_log_uniform(rng, 0.03, 0.3)),
                "--tau", repr(_log_uniform(rng, 1e-5, 1e-3)),
                "--units", unit, "--omega-count", str(n_omega),
                "--Omega-count", str(n_Omega), "--out", out]
        ops.append(Op("scan", argv, out, n_omega * n_Omega))
    return ops


# --- cli-short ------------------------------------------------------------

def cli_short_cycle(rng, workdir, tag):
    """point, thermal, amplify, both spectra and a spin-up, shuffled."""
    def ini(name, sections):
        return _write_ini(os.path.join(workdir, f"{tag}-{name}.ini"),
                          sections)

    def model(gamma_lo, gamma_hi, tau_hi):
        return {"mode": "normalized",
                "gamma": repr(_log_uniform(rng, gamma_lo, gamma_hi)),
                "tau": repr(rng.uniform(0.0, tau_hi))}

    ops = []

    omega = rng.uniform(0.1, 3.0)
    path = ini("point", {
        "model": model(0.01, 0.5, 0.05),
        "drive": {"polarization": rng.choice(["lcp", "rcp", "linear"]),
                  "omega": repr(omega)},
        "point": {"Omega": repr(rng.uniform(-2.0, 2.0))}})
    ops.append(Op("point", ["point", "--config", path]))

    ambient = rng.uniform(250.0, 350.0)
    coefficient = _log_uniform(rng, 1e-18, 1e-16)
    omega = rng.uniform(0.3, 2.0)
    path = ini("thermal", {
        "model": model(0.05, 0.3, 1e-3),
        "drive": {"polarization": "lcp", "omega": repr(omega)},
        "thermal": {"ambient_temperature": repr(ambient),
                    "radiative_coefficient": repr(coefficient),
                    "Omega": repr(rng.uniform(0.0, 0.5 * omega))}})
    ops.append(Op("thermal", ["thermal", "--config", path],
                  expect={"ambient": ambient, "coefficient": coefficient}))

    omega = rng.uniform(0.3, 1.0)
    length = rng.uniform(1.0, 50.0)
    samples = rng.randint(51, 201)
    members = ", ".join(
        f"{rng.uniform(1.2, 3.0) * omega!r}:{rng.uniform(0.1, 1.0)!r}"
        for _ in range(rng.randint(4, 16)))
    out = os.path.join(workdir, f"{tag}-amplify.csv")
    path = ini("amplify", {
        "model": model(0.05, 0.3, 1e-3),
        "drive": {"polarization": "lcp", "omega": repr(omega)},
        "medium": {"number_density": repr(_log_uniform(rng, 1e-3, 1e-1)),
                   "path_length": repr(length), "members": members,
                   "samples": str(samples)},
        "output": {"path": out}})
    ops.append(Op("amplify", ["amplify", "--config", path], out,
                  expect={"length": length, "rows": samples}))

    for preset in ("fig3a", "fig3b"):
        n = rng.randint(401, 801)
        out = os.path.join(workdir, f"{tag}-{preset}.csv")
        ops.append(Op("spectrum", ["spectrum", "--preset", preset,
                                   "--Omega", repr(rng.uniform(1.5, 2.5)),
                                   "--omega-count", str(n), "--out", out],
                      out, n))

    ops.append(_spinup_op(rng, workdir, tag, ini))
    rng.shuffle(ops)
    return ops


def _spinup_op(rng, workdir, tag, ini):
    """A spin-up to a reachable target; half of them armed to burst first."""
    omega = rng.uniform(0.3, 0.8)
    target = rng.uniform(0.1, 0.5) * omega
    density, radius = rng.uniform(1.0, 20.0), rng.uniform(0.5, 1.5)
    body = {"shape": "sphere", "density": repr(density),
            "radius": repr(radius)}
    expect = {"outcome": "target", "terminal": target}
    if rng.random() < 0.5:
        burst_at = rng.uniform(0.4, 0.8) * target
        body["surface_tension"] = repr(
            _surface_tension_for_burst(burst_at, density, radius))
        expect = {"outcome": "burst", "terminal": burst_at}
    out = os.path.join(workdir, f"{tag}-spinup.csv")
    path = ini("spinup", {
        "model": {"mode": "normalized",
                  "gamma": repr(_log_uniform(rng, 0.05, 0.3)),
                  "tau": repr(rng.uniform(0.0, 1e-3))},
        "drive": {"polarization": "lcp", "omega": repr(omega)},
        "body": body,
        "spinup": {"Omega_target": repr(target)},
        "output": {"path": out}})
    return Op("spinup", ["spinup", "--config", path], out, expect=expect)


# --- selfcheck ------------------------------------------------------------

def selfcheck_cycle(rng, workdir, tag):
    return [Op("validate", ["validate", "--seed", str(rng.randrange(2**31))])
            for _ in range(2)]


CLI_CYCLES = {"map-export": map_export_cycle, "cli-short": cli_short_cycle,
              "selfcheck": selfcheck_cycle}


def cli_pool(workload, seed, cycles, workdir):
    """The first `cycles` cycles of a CLI workload, inputs written."""
    make = CLI_CYCLES[workload]
    return [make(cycle_rng(workload, seed, i), workdir, f"c{i}")
            for i in range(cycles)]


# --- output checks --------------------------------------------------------

def _key_values(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and not key.startswith(("#", " ")):
            out[key.strip()] = value.strip()
    return out


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _check_grid_csv(op, scan_module):
    """Row and singular counts against the sidecar, then the re-parsed
    power balance.  Returns (error or None, rows, singular rows)."""
    with open(op.out + ".meta") as fh:
        meta = _key_values(fh.read())
    expected = int(meta["omega_count"]) * int(meta["Omega_count"])
    with open(op.out, "rb") as fh:
        data = fh.read()
    rows = data.count(b"\n") - 1
    singular = data.count(b",1\n")
    if rows != expected or rows != op.cells:
        return f"{rows} rows, sidecar says {expected}, asked {op.cells}", \
            rows, singular
    if singular != int(meta["n_singular"]):
        return f"{singular} singular rows, sidecar says " \
               f"{meta['n_singular']}", rows, singular
    worst, _ = scan_module.reparse_balance_check(op.out)
    if not worst <= BALANCE_TOL:
        return f"re-parsed balance residual {worst:.3e}", rows, singular
    return None, rows, singular


def verify_cli(op, code, stdout, scan_module=None):
    """None when the operation's output is right, else the reason."""
    if code != 0:
        return f"exit code {code}"
    kv = _key_values(stdout)
    if op.kind == "scan":
        m = re.search(r"\((\d+) cells, (\d+) singular\)", stdout)
        if not m:
            return "no cell summary on stdout"
        err, rows, singular = _check_grid_csv(op, scan_module)
        if err:
            return err
        if (int(m.group(1)), int(m.group(2))) != (rows, singular):
            return f"stdout summary {m.group(0)} disagrees with the file"
    elif op.kind == "spectrum":
        return _check_grid_csv(op, scan_module)[0]
    elif op.kind == "point":
        names = ("sigma_elastic", "sigma_in_plus", "sigma_in_minus",
                 "sigma_mech", "sigma_abs")
        parts = [float(kv[n]) for n in names]
        scale = sum(abs(p) for p in parts)
        residual = abs(float(kv["sigma_ext"]) - sum(parts))
        if not (scale > 0 and residual / scale <= BALANCE_TOL):
            return f"point balance residual {residual:.3e} at scale {scale}"
    elif op.kind == "thermal":
        t_eq, t0 = float(kv["T_eq"]), op.expect["ambient"]
        t6 = t0**6 + float(kv["absorbed_power"]) / op.expect["coefficient"]
        if not (t_eq >= t0 and _rel(t_eq**6, t6) <= 1e-12):
            return f"T_eq = {t_eq} against ambient {t0}"
    elif op.kind == "amplify":
        g = float(kv["gain_coefficient"])
        i_in, i_out = float(kv["I_in"]), float(kv["I_out"])
        if not g > 0 or kv["excluded_members"] != "0":
            return f"gain {g}, excluded {kv['excluded_members']}"
        if _rel(i_out, i_in * math.exp(g * op.expect["length"])) > 1e-9:
            return f"I_out {i_out} is not I_in exp(g L)"
        with open(op.out) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != op.expect["rows"]:
            return f"{rows} profile rows, asked {op.expect['rows']}"
    elif op.kind == "spinup":
        if kv.get("outcome") != op.expect["outcome"]:
            return f"outcome {kv.get('outcome')}, expected " \
                   f"{op.expect['outcome']}"
        if _rel(float(kv["terminal_Omega"]), op.expect["terminal"]) > REL_TOL:
            return f"terminal Omega {kv['terminal_Omega']}, expected " \
                   f"{op.expect['terminal']}"
    elif op.kind == "validate":
        if "16/16 checks passed" not in stdout:
            return "validate did not pass 16/16 checks"
    return None


# --- library-dynamics -----------------------------------------------------

@dataclass
class Scenario:
    kind: str                 # expected outcome: target | burst | melt
    model: object
    drive: object
    body: object
    thermal: object
    Omega_init: float
    Omega_target: float
    spec: object
    intensity: float
    arm_melt: bool = False
    expect_terminal: float = 0.0    # Omega for target/burst, T for melt
    tag: str = ""                   # "<cycle>.<position>"


def library_pool(seed, cycles, rs):
    """The first `cycles` cycles of ``library-dynamics``."""
    return [library_cycle(cycle_rng("library-dynamics", seed, i), rs, i)
            for i in range(cycles)]


def library_cycle(rng, rs, index):
    """Two scenarios of each outcome kind, built with the public API."""
    kinds = ["target", "target", "burst", "burst", "melt", "melt"]
    rng.shuffle(kinds)
    return [_scenario(rng, rs, kind, f"{index}.{j}")
            for j, kind in enumerate(kinds)]


def _scenario(rng, rs, kind, tag):
    gamma = _log_uniform(rng, 0.05, 0.3)
    model = rs.OscillatorModel.normalized(gamma, rng.uniform(0.0, 1e-3))
    # above sqrt(2) omega0 the spin-up approaches the resonance ellipse
    # without crossing it, so absorption and temperature rise on the way
    omega = rng.uniform(1.5, 1.8) if kind == "melt" else rng.uniform(0.3, 0.8)
    drive = rs.DriveField.lcp(omega)
    intensity = drive.intensity(model.light_speed)
    target = rng.uniform(0.1, 0.5) * omega
    Omega_init = rng.uniform(0.0, 0.2) * target
    density, radius = rng.uniform(1.0, 20.0), rng.uniform(0.5, 1.5)
    members = [rs.MediumMember(model, rng.uniform(1.2, 3.0) * omega,
                               rng.uniform(0.1, 1.0))
               for _ in range(rng.randint(4, 16))]
    total = sum(m.weight for m in members)
    spec = rs.MediumSpec(
        _log_uniform(rng, 1e-3, 1e-1), rng.uniform(1.0, 50.0),
        tuple(rs.MediumMember(model, m.rotation, m.weight / total)
              for m in members))

    def temperature(Omega, thermal):
        power = rs.absorption_cross_section(model, drive, Omega) * intensity
        return rs.equilibrium_temperature(thermal, power)

    ambient = rng.uniform(250.0, 350.0)
    p_init = rs.absorption_cross_section(model, drive, Omega_init) * intensity
    thermal = rs.ThermalParams(ambient, p_init / (ambient**6
                                                  * rng.uniform(0.5, 3.0)))
    surface = melt = None
    expect_terminal = target
    if kind == "burst":
        expect_terminal = rng.uniform(0.4, 0.8) * target
        surface = _surface_tension_for_burst(expect_terminal, density, radius)
    elif kind == "melt":
        # melting point between the temperatures at the two ends of the
        # spin-up, so the melt event must fire on the way
        lo = temperature(Omega_init, thermal)
        hi = temperature(target, thermal)
        if not hi > lo:
            raise ValueError(f"temperature falls during spin-up at "
                             f"omega = {omega}")
        melt = lo + rng.uniform(0.3, 0.7) * (hi - lo)
        expect_terminal = melt
    body = rs.RigidBodyParams.solid_sphere(density, radius,
                                           melting_temperature=melt,
                                           surface_tension=surface)
    return Scenario(kind, model, drive, body, thermal, Omega_init, target,
                    spec, intensity, arm_melt=melt is not None,
                    expect_terminal=expect_terminal, tag=tag)


def run_scenario(rs, sc):
    """The timed library work of one scenario."""
    traj = rs.spin_up_trajectory(sc.model, sc.drive, sc.body, sc.Omega_init,
                                 sc.Omega_target,
                                 thermal=sc.thermal if sc.arm_melt else None)
    end = traj.terminal_rotation
    t_quad = rs.time_to_target_by_quadrature(sc.model, sc.drive, sc.body,
                                             end, sc.Omega_init)
    power = rs.absorption_cross_section(sc.model, sc.drive, end) * sc.intensity
    t_eq = rs.equilibrium_temperature(sc.thermal, power)
    gain = rs.gain_coefficient(sc.spec, sc.drive)
    z, profile = rs.intensity_profile(sc.spec, sc.drive, sc.intensity)
    pump = rs.sustaining_power(sc.spec.members[0], sc.drive)
    return {"traj": traj, "t_quad": t_quad, "t_eq": t_eq, "gain": gain,
            "profile": profile, "pump": pump}


def verify_scenario(sc, res):
    traj = res["traj"]
    if traj.outcome != sc.kind:
        return f"outcome {traj.outcome}, expected {sc.kind}"
    reached = res["t_eq"] if sc.kind == "melt" else traj.terminal_rotation
    if _rel(reached, sc.expect_terminal) > REL_TOL:
        return f"{sc.kind} at {reached}, expected {sc.expect_terminal}"
    if _rel(res["t_quad"], traj.terminal_time) > REL_TOL:
        return f"quadrature time {res['t_quad']} against trajectory " \
               f"{traj.terminal_time}"
    if not res["t_eq"] >= sc.thermal.ambient_temperature:
        return f"T_eq {res['t_eq']} below ambient"
    gain, profile = res["gain"], res["profile"]
    expected_out = sc.intensity * math.exp(gain * sc.spec.path_length)
    if not (gain > 0 and profile[0] == sc.intensity
            and _rel(float(profile[-1]), expected_out) <= 1e-12):
        return f"gain {gain} or intensity profile inconsistent"
    if not (res["pump"] > 0 and math.isfinite(res["pump"])):
        return f"sustaining power {res['pump']}"
    return None
