"""In-process library workload: seeded spin-up and amplifier scenarios.

    python bench/libworker.py --seed N --seconds S --trace 0|1 [--setup-only]

Set-up is ``import rotospin`` plus building the pool of scenarios; the
worker then prints one ``{"ready": ...}`` line, so the parent can time
set-up from process start.  With ``--setup-only`` it exits there.
Otherwise it runs the pool in a closed loop (`workloads.closed_loop`),
taking a one-timing `hostspeed` mark every `MARK_EVERY` scenarios (a
mark takes about 13 ms, a scenario 8 ms), and prints one JSON line with
the operation intervals, the marks, the failures and, when traced, the
per-cycle layer figures.

Untraced, the pool is the seed's first ``POOL_CYCLES`` cycles.  Traced, it
is the first cycle alone, repeated so its exact counts can be compared
between cycles, and each scenario runs once untraced and once traced for
the overhead ratio.
"""

import argparse
import json
import sys
from time import perf_counter, process_time

MARK_EVERY = 12


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import tracer
    imports = tracer.import_rotospin()
    import rotospin as rs
    import workloads

    cycles = 1 if args.trace else workloads.POOL_CYCLES["library-dynamics"]
    pool = workloads.library_pool(args.seed, cycles, rs)
    print(json.dumps({"ready": imports}), flush=True)
    if args.setup_only:
        return 0
    import hostspeed    # after set-up: it imports numpy and scipy

    trace = None
    if args.trace:
        trace = tracer.Tracer()
        trace.install()
        trace.enabled = False
    op_spans, op_cpus, failures = [], [], {}
    walls = {False: 0.0, True: 0.0}
    runs = 0

    def run_op(sc, traced, totals):
        nonlocal runs
        runs += 1
        if trace:
            trace.enabled = traced
        t0, c0 = perf_counter(), process_time()
        try:
            res = workloads.run_scenario(rs, sc)
            err = None
        except Exception as exc:  # a failed operation, recorded
            res, err = None, f"{type(exc).__name__}: {exc}"
        t1, cpu = perf_counter(), process_time() - c0
        wall = t1 - t0
        if trace:
            trace.enabled = False
            tracer.add_into(totals, tracer.contributions(trace.take()))
        walls[traced] += wall
        if err is None:
            err = workloads.verify_scenario(sc, res)
        if err is None:
            op_spans.append((t0, t1))
            op_cpus.append(cpu)
        else:
            failures.setdefault(sc.tag, {"argv": [f"scenario {sc.tag}",
                                                  sc.kind],
                                         "code": None, "stderr": err})

    meter = hostspeed.Meter(1)
    loop, per_cycle = workloads.closed_loop(
        pool, args.seconds, run_op, trace=bool(args.trace), meter=meter,
        mark_every=MARK_EVERY)
    print(json.dumps({"op_spans": op_spans, "op_cpus": op_cpus,
                      "runs": runs, "attempted": sum(map(len, pool)),
                      "failures": list(failures.values()),
                      "loop": loop, "cycles": per_cycle,
                      "marks": meter.marks,
                      "imports": imports, "traced_wall": walls[True],
                      "untraced_wall": walls[False]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
