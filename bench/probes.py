"""Single-layer probes, for comparison with the figures in ROADMAP.md.

    python3 bench/probes.py

Each figure is the median of REPEAT timings on a fig2 256x256 lattice
(or of REPEAT fresh processes for the import and the CLI runs).  These
are not part of the benchmark's metric set; they reproduce the layer
figures quoted in ROADMAP.md so the two can be reconciled.
"""

import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPEAT = 5


def timed(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def process(argv, repeat, cwd):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "ROTOSPIN_"))}
    env["PYTHONPATH"] = str(SRC)
    return timed(lambda: subprocess.run(argv, env=env, cwd=cwd, check=True,
                                        stdout=subprocess.DEVNULL), repeat)


def main():
    n = REPEAT
    sys.path.insert(0, str(SRC))
    py = sys.executable
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        rows = [("python -c 'import rotospin'",
                 process([py, "-c", "import rotospin"], n, tmp)),
                ("rotospin scan --preset fig2",
                 process([py, "-m", "rotospin.cli", "scan", "--preset", "fig2",
                          "--out", "map.csv"], n, tmp)),
                ("rotospin validate",
                 process([py, "-m", "rotospin.cli", "validate"], n, tmp))]

        import rotospin.config as config
        from rotospin import scan, validation
        import numpy as np

        cfg = config.PRESETS["fig2"]
        req = config.build_scan_request(cfg, config.build_model(cfg))
        rows.append(("grid_scan, 1 thread",
                     timed(lambda: scan.grid_scan(req, n_threads=1), n)))
        rows.append(("grid_scan, 2 threads",
                     timed(lambda: scan.grid_scan(req, n_threads=2), n)))
        grid = scan.grid_scan(req)
        path = os.path.join(tmp, "grid.csv")
        rows.append(("write_grid_csv",
                     timed(lambda: scan.write_grid_csv(grid, path), n)))
        rows.append(("reparse_balance_check",
                     timed(lambda: scan.reparse_balance_check(path), n)))
        rows.append(("validate check resonance-ridge",
                     timed(lambda: validation.check_resonance_ridge(
                         np.random.default_rng(0)), n)))
    for name, seconds in rows:
        print(f"{name:<36} {seconds * 1e3:9.1f} ms")


if __name__ == "__main__":
    main()
