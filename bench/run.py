"""Benchmark of rotospin, driven from outside the way its users drive it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 1]

Workloads (see README.md in this directory for why each exists):

    map-export        ``rotospin scan`` maps, fig2 and figSI2 presets
    cli-short         point, thermal, amplify, spectrum and spinup runs
    selfcheck         ``rotospin validate --seed ...``
    library-dynamics  spin-up and amplifier scenarios through the API

Each CLI operation is one fresh ``python -m rotospin.cli`` process; the
library workload runs in one worker process.  Every loop is closed with
one client and runs the seed's pool of inputs at least once.  Everything
runs on one CPU, and timings are scaled to a reference host speed (see
hostspeed.py).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The full record, with the environment and every failure, goes to
``bench/out/results/``.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("map-export", "cli-short", "selfcheck", "library-dynamics")
SETUP_REPEATS = 5
#: reference timings per mark; a mark is taken before and after each
#: set-up and each CLI operation (libworker.py marks its own loop)
MARK_REPS = 3
CHILD_TIMEOUT_S = 150
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

#: timings are in reference-host seconds (see hostspeed.py)
END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
#: printed and recorded, but not in BENCHMARK.json: op_tail_s is the p50
#: on workloads of fewer than 20 operations a run, op_cpu_s follows the
#: wall time, cells_per_s is 0 off map-export, fail_ratio is 0 on a
#: healthy run, and the *_wall_s figures are the unscaled times, which
#: swing with the host's speed (reference_s)
RECORDED = (("op_tail_s", "s"), ("op_cpu_s", "s"), ("cells_per_s", "1/s"),
            ("fail_ratio", "ratio"), ("setup_wall_s", "s"),
            ("op_p50_wall_s", "s"), ("reference_s", "s"))


class SetupError(RuntimeError):
    """The benchmark cannot run here (no source tree, CLI will not start)."""


def child_env(home):
    """Inherited environment without interpreter or rotospin settings."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "ROTOSPIN_"))}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", HOME=str(home),
               LC_ALL="C.UTF-8")
    return env


@contextlib.contextmanager
def watchdog(proc):
    """Kill `proc` if the block takes longer than CHILD_TIMEOUT_S."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def reap(proc):
    """Wait for `proc`; returns its resource usage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(argv, workdir, tag):
    """Run one process to exit; returns (code, (start, end), cpu_s,
    maxrss_kb, out, err)."""
    out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=workdir,
                                env=child_env(workdir))
        with watchdog(proc):
            usage = reap(proc)
        t1 = perf_counter()
    out, err = out_path.read_text(), err_path.read_text()
    out_path.unlink()
    err_path.unlink()
    return (proc.returncode, (t0, t1), usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss, out, err)


def tail(values):
    """(value, percentile, samples beyond it) at the highest ladder
    percentile with at least ten samples beyond it; the median when no
    rung has ten."""
    xs = sorted(values)
    n = len(xs)
    pct = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= 10:
            pct = p
    rank = max(1, math.ceil(pct / 100 * n))
    return xs[rank - 1], pct, n - rank


class Record:
    """What one run measured."""

    def __init__(self):
        self.setup = []         # (start, end) of each set-up
        self.op_spans = []      # (start, end) of each verified operation
        self.op_cpus = []
        self.rss_kb = 0
        self.cells = 0
        self.attempted = 0      # distinct operations in the pool
        self.runs = 0           # operations run, repeats included
        self.failures = []      # one per failed pool operation
        self.loop = (0.0, 0.0)
        self.cycles = []
        self.imports = []
        self.cli_imports = []
        self.walls = {False: 0.0, True: 0.0}
        self.meter = hostspeed.Meter(MARK_REPS)

    def fail(self, argv, code, stderr):
        if all(f["argv"] != argv for f in self.failures):
            self.failures.append({"argv": argv, "code": code,
                                  "stderr": stderr[-2000:]})


def run_cli_workload(name, seed, seconds, trace, workdir, rec):
    scan_module = None
    if name != "selfcheck":
        import rotospin.scan as scan_module     # the map re-parse check
    spans = None
    if trace:
        spans = tracer.Tracer()
        spans.install()
        spans.enabled = False
    cli = [sys.executable, "-m", "rotospin.cli"]
    spans_path = workdir / "spans.json"
    traced_cli = [sys.executable, str(HERE / "trace_cli.py"), str(spans_path)]

    # set-up: write the pool's inputs, then start the CLI once so bytecode
    # and file caches are warm before the first timed operation
    cycles = 1 if trace else workloads.POOL_CYCLES[name]
    rec.meter.mark()
    for k in range(SETUP_REPEATS):
        t0 = perf_counter()
        pool_dir = workdir / f"setup{k}"
        pool_dir.mkdir()
        pool = workloads.cli_pool(name, seed, cycles, str(pool_dir))
        code, _, _, _, _, err = run_child(cli + ["--help"], workdir, "warmup")
        if code != 0:
            raise SetupError(f"rotospin --help exited {code}: {err[-500:]}")
        rec.setup.append((t0, perf_counter()))
        rec.meter.mark()
    rec.attempted = sum(map(len, pool))

    def run_op(op, traced, totals):
        argv = (traced_cli if traced else cli) + op.argv
        code, span, cpu, rss, out, err = run_child(argv, workdir, "op")
        rec.runs += 1
        rec.walls[traced] += span[1] - span[0]
        error = None
        if traced:
            try:
                dump = json.loads(spans_path.read_text())
                spans_path.unlink()
            except (OSError, ValueError) as exc:
                error = f"no spans written: {exc}"
            else:
                imports = dump["imports"]
                rec.cli_imports.append(imports.pop("cli.import_s"))
                rec.imports.append(imports)
                tracer.add_into(totals, tracer.contributions(dump["spans"]))
            spans.enabled = True
        error = error or workloads.verify_cli(op, code, out, scan_module)
        if traced:
            spans.enabled = False
            tracer.add_into(totals, tracer.contributions(spans.take()))
        if error is None:
            rec.op_spans.append(span)
            rec.op_cpus.append(cpu)
            rec.rss_kb = max(rec.rss_kb, rss)
            rec.cells += op.cells
        else:
            rec.fail(op.argv, code, f"{error}\n{err}")
        if op.out:
            Path(op.out).unlink(missing_ok=True)
            Path(op.out + ".meta").unlink(missing_ok=True)

    rec.loop, rec.cycles = workloads.closed_loop(
        pool, seconds, run_op, trace=bool(trace), meter=rec.meter)


def run_library_workload(seed, seconds, trace, workdir, rec):
    argv = [sys.executable, str(HERE / "libworker.py"), "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    rec.meter.mark()
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        with open(workdir / "worker.err", "wb") as fe:
            t0 = perf_counter()
            proc = subprocess.Popen(argv + ([] if last else ["--setup-only"]),
                                    stdout=subprocess.PIPE, stderr=fe,
                                    cwd=workdir, env=child_env(workdir))
            with watchdog(proc):
                ready = proc.stdout.readline()
                if ready:
                    rec.setup.append((t0, perf_counter()))
                rest = proc.stdout.read()
                proc.stdout.close()
                usage = reap(proc)
        rec.meter.mark()
        if proc.returncode != 0 or not ready:
            err = (workdir / "worker.err").read_text()
            raise SetupError(f"library worker exited {proc.returncode}: "
                             f"{err[-1500:]}")
    result = json.loads(rest)
    rec.rss_kb = usage.ru_maxrss
    rec.op_spans = result["op_spans"]
    rec.op_cpus = result["op_cpus"]
    rec.attempted = result["attempted"]
    rec.runs = result["runs"]
    rec.failures = result["failures"]
    rec.loop = result["loop"]
    rec.cycles = result["cycles"]
    rec.imports = [result["imports"]]
    rec.walls = {False: result["untraced_wall"], True: result["traced_wall"]}
    rec.meter.extend(result["marks"])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(name, seed, seconds, trace, rec):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "operations": rec.runs,
            "pool_operations": rec.attempted,
            "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": git_commit()}


def end_to_end(rec):
    meter = rec.meter
    walls = [t1 - t0 for t0, t1 in rec.op_spans]
    scaled = [meter.scaled(*span) for span in rec.op_spans]
    tail_value, tail_pct, beyond = tail(scaled)
    done = len(scaled)
    loop_scaled = meter.scaled_span(*rec.loop)
    values = {"setup_s": statistics.median(meter.scaled(*span)
                                           for span in rec.setup),
              "op_p50_s": statistics.median(scaled),
              "op_tail_s": tail_value,
              "op_cpu_s": statistics.median(
                  c * s / w for c, s, w in zip(rec.op_cpus, scaled, walls)),
              "ops_per_s": done / loop_scaled,
              "peak_rss_mb": rec.rss_kb / 1024.0,
              "cells_per_s": rec.cells / sum(scaled),
              "fail_ratio": len(rec.failures) / rec.attempted,
              "setup_wall_s": statistics.median(t1 - t0
                                                for t0, t1 in rec.setup),
              "op_p50_wall_s": statistics.median(walls),
              "reference_s": meter.mean()}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END + RECORDED}
    samples = {"setup_s": len(rec.setup), "op_p50_s": done,
               "op_tail_s": done, "op_cpu_s": done, "ops_per_s": done,
               "peak_rss_mb": done,
               "cells_per_s": done, "fail_ratio": rec.attempted,
               "setup_wall_s": len(rec.setup), "op_p50_wall_s": done,
               "reference_s": len(meter.marks)}
    return metrics, samples, {"op_tail_percentile": tail_pct,
                              "op_tail_samples_beyond": beyond}


def pin_to_one_cpu():
    """Run this process and every child on one CPU.  On the sandbox the
    bounds were set on, each vCPU swings between two speeds on its own,
    so the `hostspeed` marks only describe the operations when both run
    on the same CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (result line dict, full record dict)."""
    if not (SRC / "rotospin" / "__init__.py").is_file():
        raise SetupError(f"no rotospin source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    workdir = OUT / f"work-{name}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rec = Record()
    try:
        if name == "library-dynamics":
            run_library_workload(seed, seconds, trace, workdir, rec)
        else:
            run_cli_workload(name, seed, seconds, trace, workdir, rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = []
    extra = {}
    if not rec.op_spans:
        raise SetupError(f"no operation of {name} completed: "
                         f"{rec.failures[:3]}")
    if trace:
        metrics, problems = tracer.finish(rec.cycles, rec.imports,
                                          rec.cli_imports, rec.walls[True],
                                          rec.walls[False])
        samples = {"cycles": len(rec.cycles)}
        shown = list(metrics)
    else:
        metrics, samples, extra = end_to_end(rec)
        shown = [n for n, _ in END_TO_END]
    failed = len(rec.failures)
    line = {"correct": failed == 0 and not problems,
            "attempted": rec.attempted, "failed": failed,
            "metrics": {n: metrics[n] for n in shown}}
    record = {"environment": environment(name, seed, seconds, trace, rec),
              "result": line, "all_metrics": metrics, "samples": samples,
              **extra, "setup_samples": rec.setup, "problems": problems,
              "failures": rec.failures, "op_spans": rec.op_spans,
              "marks": rec.meter.marks, "loop": rec.loop}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{name}-s{seed}-t{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def describe(record):
    env = record["environment"]
    print(f"# {env['workload']} seed={env['seed']} trace={env['trace']} "
          f"ops={env['operations']} pool={env['pool_operations']} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} "
          f"python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} commit={env['commit']}")
    samples = record["samples"]
    for name, m in record["all_metrics"].items():
        n = (f"n={samples[name]}" if name in samples
             else f"cycles={samples['cycles']}")
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} {n}")
    if "op_tail_percentile" in record:
        print(f"  op_tail_s is p{record['op_tail_percentile']} "
              f"({record['op_tail_samples_beyond']} samples beyond)")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")
    for f in record["failures"]:
        print(f"  FAILED {f['argv']} code={f['code']}: "
              f"{f['stderr'].strip()[-300:]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" and args.trace else \
        (args.trace,)
    lines = {}
    try:
        for name in names:
            for trace in traces:
                line, record = run_workload(name, args.seed, args.seconds,
                                            trace)
                describe(record)
                lines[(name, trace)] = line
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
    else:
        print(json.dumps({
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{name}.{m}": v for (name, _), l in lines.items()
                        for m, v in l["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
