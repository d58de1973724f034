"""Smoke test of the benchmark: every workload at minimal length.

    python3 -m pytest -q bench/tests

Takes a few minutes: each workload runs once untraced and twice traced.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7

sys.path.insert(0, str(BENCH))
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(workload, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=900)
    return done


def result(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    path = BENCH / "out" / "results" / f"{workload}-s{SEED}-t{trace}.json"
    return line, json.loads(path.read_text())


def test_spec_names_match_the_code():
    assert WORKLOADS == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(tracer.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload):
    line, record = result(workload, 0)
    assert line["correct"] and line["failed"] == 0, record["failures"]
    assert record["all_metrics"]["fail_ratio"]["value"] == 0
    expected = dict(run.END_TO_END + run.RECORDED)
    assert {k: v["unit"] for k, v in record["all_metrics"].items()} == \
        expected
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in line["metrics"].values())
    env = record["environment"]
    for key in ("nproc", "cpu", "python", "numpy", "scipy", "commit",
                "seed", "operations"):
        assert env[key] not in (None, "")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_exact_counts(workload):
    first, _ = result(workload, 1)
    second, _ = result(workload, 1)
    for line in (first, second):
        assert line["correct"] and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == \
            dict(tracer.PER_LAYER)
    for key in ("response.array.calls", "response.array.cells",
                "response.scalar.calls", "dynamics.torque_calls",
                "import.modules", "scan.write_grid_csv.bytes"):
        assert first["metrics"][key] == second["metrics"][key], key


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_tail_takes_the_highest_rung_with_ten_samples_beyond():
    assert run.tail(range(1, 11))[1] == 50
    assert run.tail(range(1, 41))[:2] == (30, 75)
    assert run.tail(range(1, 1001))[:2] == (990, 99)


def test_closed_loop_runs_the_whole_pool_however_short_the_run():
    pool = [["a", "b"], ["c"]]
    seen = []
    _, cycles = workloads.closed_loop(
        pool, 0, lambda op, traced, totals: seen.append(op))
    assert seen == ["a", "b", "c"]
    seen.clear()
    _, cycles = workloads.closed_loop(
        pool, 0, lambda op, traced, totals: seen.append((op, traced)),
        trace=True)
    assert seen == [("a", False), ("a", True), ("b", True), ("b", False),
                    ("c", False), ("c", True)]
    assert len(cycles) == 2


def test_meter_scales_an_interval_by_the_marks_around_it():
    ref = hostspeed.REFERENCE_S
    meter = hostspeed.Meter(1)
    meter.marks = [(0.0, 1.0, 2 * ref), (3.0, 4.0, ref)]
    assert meter.scaled(1.0, 3.0) == pytest.approx(2.0 / 1.5)
    assert meter.scaled(4.0, 5.0) == pytest.approx(1.0)
    # the mark inside the span is left out; the one over its start is not
    assert meter.scaled_span(0.5, 5.0) == pytest.approx(2.5 + 1.0)
