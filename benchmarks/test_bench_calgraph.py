"""Calibration-DAG incremental recalibration benchmark (ISSUE 8 tentpole).

The headline claim of the calgraph subsystem, measured end-to-end on a
quadratic-edge device: a fully-connected 16-qubit register has 120 CMC
edge patches, and when **k** edges drift between calibration cycles an
incremental run executes exactly **k** nodes — while the assembled
calibration state, and the mitigated error it produces, are bit-identical
to throwing everything away and recalibrating the drifted device from
scratch.

Asserted invariants:

* the incremental run executes exactly the k drifted edge nodes (every
  other node restores from the store);
* shot savings are structural: full-from-scratch spends edges/k times the
  fresh shots of the incremental run (120/3 = 40x here, floor 3x);
* wall-clock savings meet the floor below (strict under ``run_bench.py``;
  relaxed in the tier-1 suite — perf never gates merges on noisy shared
  runners);
* ``assemble_calibration_state`` over the incremental report is
  ``deep_equal`` to the from-scratch report's, and a GHZ circuit mitigated
  through either calibration yields byte-identical counts.

A machine-readable blob goes to
``benchmarks/results/calgraph_incremental.bench.json``; ``run_bench.py``
folds it into ``BENCH_calgraph.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np

from repro.backends.backend import SimulatedBackend
from repro.backends.budget import ShotBudget
from repro.backends.profiles import ARCHITECTURES
from repro.calgraph import (
    CalibrationScheduler,
    assemble_calibration_state,
    build_calibration_graph,
)
from repro.circuits.library import ghz_bfs
from repro.core import CMCMitigator
from repro.noise.drift import drift_noise_model
from repro.noise.models import random_device_noise
from repro.pipeline.cache import CalibrationCache
from repro.store import ArtifactStore, deep_equal

from .conftest import RESULTS_DIR, run_once

NUM_QUBITS = 16
DRIFT_EDGES = 3
SHOTS_PER_NODE = 64
SEED = 29
STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"
REQUIRED_SPEEDUP = 3.0
RELAXED_SPEEDUP = 1.0  # catastrophic-regression floor: incremental never slower


def _scheduler(graph, root, device):
    return CalibrationScheduler(
        graph,
        CalibrationCache(ArtifactStore(root)),
        device=device,
        method="CMC",
        shots_per_node=SHOTS_PER_NODE,
        seed=SEED,
    )


def _mitigated_counts(cm, state, model):
    """GHZ counts mitigated through ``state`` on a fixed-seed backend."""
    mitigator = CMCMitigator(cm, k=1)
    mitigator.load_calibration_state(state)
    backend = SimulatedBackend(cm, model, rng=np.random.default_rng(SEED + 7))
    return mitigator.execute(ghz_bfs(cm), backend, ShotBudget(40_000))


def test_bench_calgraph_incremental(benchmark, emit, tmp_path):
    cm = ARCHITECTURES["fully_connected"](NUM_QUBITS)
    model = random_device_noise(
        cm,
        error_1q=0.0,
        error_2q=0.0,
        correlation_placement="coupling",
        num_correlated=6,
        rng=np.random.default_rng(SEED),
    )
    drift_edges = [tuple(e) for e in model.correlated_edges[:DRIFT_EDGES]]
    drifted = drift_noise_model(
        model, edges=drift_edges, rng=np.random.default_rng(SEED + 1)
    )
    graph = build_calibration_graph("CMC", cm)
    num_edges = len(graph)
    assert num_edges == NUM_QUBITS * (NUM_QUBITS - 1) // 2  # quadratic-edge

    # ---- warm the store under the base model, then the device drifts ----
    base_root = tmp_path / "base"
    base_report = _scheduler(graph, base_root, "fc16").run(
        SimulatedBackend(cm, model, rng=np.random.default_rng(0))
    )
    assert len(base_report.executed) == num_edges

    # Each timed repetition runs against a fresh clone of the warmed base
    # store: the true incremental workload (restore the clean subgraph,
    # execute the dirty frontier), not a second, fully-warm replay.
    def incremental_run(root):
        shutil.copytree(base_root, root)
        sched = _scheduler(graph, root, "fc16")
        return sched.run(SimulatedBackend(cm, drifted, rng=np.random.default_rng(1)))

    inc_report = run_once(
        benchmark, lambda: incremental_run(tmp_path / "inc0")
    )
    t_inc = float("inf")
    for i in range(2):  # best-of to damp shared-runner jitter
        root = tmp_path / f"inc{i + 1}"
        shutil.copytree(base_root, root)
        sched = _scheduler(graph, root, "fc16")
        t0 = time.perf_counter()
        rerun = sched.run(SimulatedBackend(cm, drifted, rng=np.random.default_rng(1)))
        t_inc = min(t_inc, time.perf_counter() - t0)
        assert rerun.executed == inc_report.executed

    # ---- from scratch: cold store, drifted model only --------------------
    full = _scheduler(graph, tmp_path / "full", "fc16")
    t0 = time.perf_counter()
    full_report = full.run(SimulatedBackend(cm, drifted, rng=np.random.default_rng(2)))
    t_full = time.perf_counter() - t0

    # --- acceptance: O(k) nodes, bit-identical states and mitigation ------
    expected_dirty = sorted(f"edge:{a}-{b}" for a, b in drift_edges)
    assert inc_report.executed == expected_dirty
    assert len(inc_report.restored) == num_edges - DRIFT_EDGES
    assert len(full_report.executed) == num_edges

    shots_ratio = full_report.fresh_shots / inc_report.fresh_shots
    assert shots_ratio >= num_edges / DRIFT_EDGES  # structural, not timed

    inc_state = assemble_calibration_state("CMC", inc_report.node_states())
    full_state = assemble_calibration_state("CMC", full_report.node_states())
    assert deep_equal(inc_state, full_state)
    inc_counts = _mitigated_counts(cm, inc_state, drifted)
    full_counts = _mitigated_counts(cm, full_state, drifted)
    assert inc_counts == full_counts  # byte-identical mitigated output

    speedup = t_full / t_inc if t_inc > 0 else float("inf")
    floor = REQUIRED_SPEEDUP if STRICT else RELAXED_SPEEDUP
    assert speedup >= floor, (
        f"incremental recalibration only {speedup:.2f}x vs from-scratch "
        f"(floor {floor}x)"
    )

    blob = {
        "name": "calgraph_incremental",
        "artifact": "BENCH_calgraph.json",
        "workload": {
            "architecture": "fully_connected",
            "qubits": NUM_QUBITS,
            "edge_nodes": num_edges,
            "drifted_edges": DRIFT_EDGES,
            "shots_per_node": SHOTS_PER_NODE,
            "method": "CMC",
        },
        "full_s": t_full,
        "incremental_s": t_inc,
        "speedup": speedup,
        "strict": STRICT,
        "nodes_executed": len(inc_report.executed),
        "nodes_restored": len(inc_report.restored),
        "fresh_shots": {
            "full": full_report.fresh_shots,
            "incremental": inc_report.fresh_shots,
        },
        "shots_ratio": shots_ratio,
        "states_bit_identical": True,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "calgraph_incremental.bench.json").write_text(
        json.dumps(blob, indent=2) + "\n"
    )
    emit(
        "calgraph_incremental",
        (
            f"from-scratch recalibration: {t_full:.2f}s "
            f"({num_edges} nodes, {full_report.fresh_shots} shots)\n"
            f"incremental after {DRIFT_EDGES}-edge drift: {t_inc:.2f}s "
            f"({len(inc_report.executed)} nodes, {inc_report.fresh_shots} shots)\n"
            f"speedup: {speedup:.2f}x wall-clock, {shots_ratio:.0f}x shots; "
            f"states and mitigated counts bit-identical"
        ),
    )
