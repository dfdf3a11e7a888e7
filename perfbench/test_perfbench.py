"""Tests of the sweep benchmark itself.

Tiny runs of each workload (1-2 points, 1 trial, 4k shots) must emit every
metric ``BENCHMARK.json`` names, with its unit; a bad record (a NaN error,
an N/A on CMC, a missing cell, CMC losing to Bare) must fail the checks.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import ledger
import run as bench_run
import workloads
import repro.experiments.runner as suite_mod
from repro.backends.backend import SimulatedBackend
from repro.experiments.runner import MethodResult
from repro.pipeline import run_sweep

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    # grid-warm stays runnable but out of the measured set (see README)
    measured = [w["name"] for w in BENCHMARK["workloads"]]
    assert measured == [n for n in workloads.WORKLOADS if n != "grid-warm"]
    assert list(workloads.WORKLOADS) == list(bench_run.WORKLOAD_NAMES)
    assert _units("end_to_end") == dict(workloads.END_TO_END)
    assert _units("per_layer") == dict(ledger.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    result = workloads.run(name, seed=3, seconds=0, trace=False, tiny=True)
    assert result.correct, result.problems
    assert {m: u for m, (_, u) in result.metrics.items()} == _units("end_to_end")
    assert all(math.isfinite(v) and v > 0 for v, _ in result.metrics.values())
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] > 0 and line["failed"] == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run_emits_every_per_layer_metric(name, tmp_path):
    original = SimulatedBackend.run
    result = workloads.run(name, seed=3, seconds=0, trace=True, tiny=True)
    assert SimulatedBackend.run is original  # instrumentation restored
    assert result.correct, result.problems
    assert {m: u for m, (_, u) in result.metrics.items()} == _units("per_layer")
    value = {m: v for m, (v, _) in result.metrics.items()}
    assert value["trace.coverage"] >= 0.9
    assert value["pipeline.tasks"] == (1 if name == "table2-cold" else 2)
    if name == "table2-cold":
        assert value["simulator.trajectories_s"] > 0
    else:
        assert value["simulator.trajectories_s"] == 0
    if name == "grid-warm":
        assert value["cache.hit_ratio"] == 1
        for method in ("Full", "Linear", "CMC", "CMC-ERR"):
            assert value[f"mitigation.prepare_s.{method}"] == 0
    spans = result.spans[0]
    tasks = [s for s in spans if s["name"] == "pipeline.task"]
    assert all(s["trace"].startswith(spans[0]["trace"] + ".p") for s in tasks)
    path = tmp_path / "spans.jsonl"
    ledger.write_spans(path, result.meta, result.spans)
    summary = ledger.summarize(path)
    assert any(line.startswith("pipeline.task") for line in summary)
    assert summary[-1].startswith("coverage")


@pytest.fixture(scope="module")
def grid_records():
    spec = workloads.grid_spec(5, tiny=True)
    return spec, run_sweep(spec, workers=1).records


def _replace(records, method, **changes):
    index = next(i for i, r in enumerate(records) if r.method == method)
    out = list(records)
    out[index] = dataclasses.replace(records[index], **changes)
    return out


def test_clean_records_pass(grid_records):
    spec, records = grid_records
    report = checks.check_records(spec, records)
    assert report.attempted == len(records) == 2 * 8
    assert report.failed == 0, report.problems


@pytest.mark.parametrize(
    "changes",
    [
        {"error": float("nan")},
        {"error": None},
        {"not_applicable": True, "error": None, "failure": "injected"},
    ],
)
def test_a_bad_cmc_record_fails(grid_records, changes):
    spec, records = grid_records
    report = checks.check_records(spec, _replace(records, "CMC", **changes))
    assert report.failed == 1


def test_a_missing_record_fails(grid_records):
    spec, records = grid_records
    assert checks.check_records(spec, records[:-1]).failed == 1


def test_cmc_must_beat_bare(grid_records):
    spec, records = grid_records
    bare = next(r for r in records if r.method == "Bare")
    losing = _replace(records, "CMC-ERR", error=bare.error * 2)
    assert checks.check_records(spec, losing).failed == 1


def test_full_na_is_allowed_only_above_its_cap(grid_records):
    spec, records = grid_records  # points at 4 and 6 qubits
    na = dict(not_applicable=True, error=None, failure="too big")
    capped = spec.with_options(full_max_qubits=3)
    assert checks.check_records(capped, _replace(records, "Full", **na)).failed == 0
    assert checks.check_records(spec, _replace(records, "Full", **na)).failed == 1


def test_an_injected_crash_fails_the_run(monkeypatch):
    original = suite_mod.run_suite_cached

    def crashing(*args, **kwargs):
        out = original(*args, **kwargs)
        out["CMC"] = MethodResult("CMC", counts=None, not_applicable=True, failure="boom")
        return out

    monkeypatch.setattr(suite_mod, "run_suite_cached", crashing)
    result = workloads.run("grid-cold", seed=3, seconds=0, trace=False, tiny=True)
    assert not result.correct
    assert result.failed > 0
    assert json.loads(result.line())["correct"] is False


def test_tail_percentile_leaves_ten_samples_beyond_it():
    samples = [float(i) for i in range(24)]
    p = workloads.tail_percentile(len(samples))
    assert p == 100.0 * 14 / 24
    assert sum(s > workloads.percentile(samples, p) for s in samples) == 10
    assert workloads.tail_percentile(10) == 100.0
    assert workloads.percentile([3.0, 1.0, 2.0], 100.0) == 3.0
    assert workloads.percentile([3.0, 1.0, 2.0], 50.0) == 2.0


def test_host_speed_rescales_to_the_nominal_kernel_time():
    host = workloads.HostSpeed()
    host.sample(3)
    spent, samples = host.take()
    assert len(samples) == 3 and spent >= sum(samples)
    assert host.samples == [] and host.spent == 0
    assert workloads.speed([workloads.REF_NOMINAL_S] * 2) == 1.0
    assert workloads.speed([2 * workloads.REF_NOMINAL_S]) == 0.5
    host.samples = [1.0, 1.0, 9.0]  # a preempted sample counts as 2x the median
    assert host.take()[1] == [1.0, 1.0, 2.0]


def test_every_task_of_a_sweep_gets_its_own_speed_factor():
    bench = workloads.Bench(workloads.WORKLOADS["grid-cold"], seed=3, tiny=True)
    sweep = bench.sweep(0)
    assert len(sweep.task_speeds) == len(sweep.durations) == 2
    assert all(f > 0 for f in sweep.task_speeds) and sweep.speed > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
