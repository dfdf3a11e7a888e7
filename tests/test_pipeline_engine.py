"""Tests for the repro.pipeline sweep engine.

The two load-bearing guarantees (ISSUE acceptance criteria):

* a seeded SweepSpec produces **bit-identical** method errors whether it
  runs serially or over a process pool;
* CalibrationCache hits produce **bit-identical** method errors versus
  cold (re-measured) calibration, while demonstrably skipping device work.
"""

import json

import numpy as np
import pytest

from repro.backends import ShotBudget, SimulatedBackend
from repro.circuits import ghz_bfs
from repro.cli import main
from repro.core import CMCERRMitigator, CMCMitigator
from repro.mitigation import FullCalibrationMitigator, LinearCalibrationMitigator
from repro.noise import MeasurementErrorChannel, NoiseModel, ReadoutError
from repro.pipeline import (
    BackendSpec,
    CircuitSpec,
    SweepSpec,
    map_tasks,
    run_sweep,
)
from repro.topology import linear
from repro.utils.rng import stable_rng, stable_seed


def small_spec(**overrides):
    defaults = dict(
        backends=(BackendSpec(kind="device", name="quito", gate_noise=False),),
        circuits=(CircuitSpec(root=0), CircuitSpec(root=1)),
        shots=(4000,),
        methods=("Bare", "Linear", "CMC"),
        trials=2,
        seed=7,
        full_max_qubits=5,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def record_keys(result):
    return [
        (r.backend_label, r.trial, r.shots, r.circuit_label, r.method, r.error,
         r.shots_spent, r.circuits_executed, r.not_applicable)
        for r in result.records
    ]


class TestSpec:
    def test_grid_sizes(self):
        spec = small_spec()
        assert spec.num_tasks == 2  # 1 backend x 2 trials
        assert spec.num_runs == 4  # x 2 circuits x 1 budget
        assert spec.task_coordinates() == [(0, (0,)), (0, (1,))]

    def test_shared_backend_groups_trials_into_one_task(self):
        spec = small_spec(share_backend_across_trials=True)
        assert spec.num_tasks == 1
        assert spec.task_coordinates() == [(0, (0, 1))]
        assert spec.num_runs == 4  # unchanged: trials still all run

    def test_json_round_trip(self):
        spec = small_spec()
        clone = SweepSpec.from_json(spec.to_json())
        assert clone == spec

    def test_from_dict_rejects_unknown_fields(self):
        data = small_spec().to_dict()
        data["frobnicate"] = 1
        with pytest.raises(KeyError):
            SweepSpec.from_dict(data)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(backends=())
        with pytest.raises(ValueError):
            small_spec(trials=0)
        with pytest.raises(ValueError):
            small_spec(shots=(0,))
        with pytest.raises(ValueError):
            small_spec(shots=(4000, 4000))
        with pytest.raises(KeyError):
            small_spec(methods=("Bare", "Oracle"))
        with pytest.raises(TypeError):
            small_spec(seed=None)

    def test_backend_spec_validation(self):
        with pytest.raises(KeyError):
            BackendSpec(kind="device", name="atlantis")
        with pytest.raises(ValueError):
            # device profiles fix their noise recipe; silently ignoring the
            # override (while it perturbs the spec digest) would mislead
            BackendSpec(kind="device", name="quito", error_2q=0.05)
        with pytest.raises(KeyError):
            BackendSpec(kind="architecture", name="mobius", qubits=4)
        with pytest.raises(ValueError):
            BackendSpec(kind="architecture", name="grid")
        with pytest.raises(ValueError):
            BackendSpec(kind="warp", name="grid")

    def test_device_prefixes_normalised(self):
        # the spellings device_profile_backend accepts must work here too
        spec = BackendSpec(kind="device", name="ibm_nairobi")
        assert spec.name == "nairobi" and spec.label == "nairobi"
        assert BackendSpec(kind="device", name="ibmq_quito").name == "quito"

    def test_cache_without_scope_rejected(self):
        from repro.experiments.runner import default_method_suite, run_suite_cached
        from repro.pipeline import CalibrationCache

        backend = _measurement_backend()
        suite = default_method_suite(backend.coupling_map, rng=0, include=["Bare"])
        circuit = ghz_bfs(backend.coupling_map)
        with pytest.raises(ValueError):
            run_suite_cached(suite, circuit, backend, 1000, cache=CalibrationCache())
        # both scopes are required: a hit without an execution scope would
        # sample the target from an order-dependent stream position
        with pytest.raises(ValueError):
            run_suite_cached(
                suite, circuit, backend, 1000,
                cache=CalibrationCache(), calibration_scope=("s",),
            )

    def test_labels(self):
        assert BackendSpec(kind="device", name="Quito").label == "quito"
        assert BackendSpec(kind="architecture", name="grid", qubits=6).label == "grid-6q"
        assert CircuitSpec(root=2).label == "ghz@root2"


class TestStableSeeding:
    def test_stable_seed_deterministic_and_distinct(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("a", 1) != stable_seed("b", 1)

    def test_stable_rng_streams_reproducible(self):
        a = stable_rng("x", 3).integers(0, 1 << 30, size=4)
        b = stable_rng("x", 3).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)


class TestSerialParallelIdentity:
    def test_bit_identical_records(self):
        spec = small_spec()
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=2)
        assert record_keys(serial) == record_keys(parallel)
        assert serial.workers == 1 and parallel.workers == 2

    def test_bit_identical_with_gate_noise(self):
        # pins the trajectory-noise order-independence (backend._traj_root):
        # with gate noise on, cal/target circuits trigger stochastic
        # trajectory averaging, which must not depend on execution order,
        # worker count, or whether calibration came from the cache
        spec = small_spec(
            backends=(BackendSpec(kind="device", name="quito", gate_noise=True),),
            shots=(2000,),
        )
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=2)
        cold = run_sweep(spec.with_options(reuse_calibration=False))
        assert record_keys(serial) == record_keys(parallel)
        assert record_keys(serial) == record_keys(cold)

    def test_week_driver_parity_is_engine_feature(self):
        # map_tasks keeps input order under a pool
        assert map_tasks(_square, [3, 1, 2], workers=2) == [9, 1, 4]
        assert map_tasks(_square, [3, 1, 2]) == [9, 1, 4]


def _square(x):
    return x * x


_OPENBLAS_GET_THREADS = (
    "openblas_get_num_threads",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def _openblas_threads(_):
    """Thread count of every OpenBLAS mapped into the calling process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_GET_THREADS:
            getter = getattr(lib, name, None)
            if getter is not None:
                counts.append(getter())
                break
    return counts


class TestPoolBlasThreads:
    """Pool workers must not inherit the parent's multi-threaded BLAS:
    N workers x cores spinning BLAS threads oversubscribe the machine."""

    def test_workers_run_one_blas_thread(self):
        try:
            parent = _openblas_threads(None)
        except OSError:
            pytest.skip("no /proc/self/maps on this platform")
        if not parent:
            pytest.skip("numpy/scipy are not linked against OpenBLAS here")
        for counts in map_tasks(_openblas_threads, [0, 1], workers=2):
            assert counts and counts == [1] * len(counts)


class TestCalibrationCache:
    def test_cache_hits_do_not_change_errors(self):
        spec = small_spec()
        warm = run_sweep(spec)
        cold = run_sweep(spec.with_options(reuse_calibration=False))
        assert record_keys(warm) == record_keys(cold)

    def test_cache_saves_device_work(self):
        warm = run_sweep(small_spec())
        # 2 circuits share calibration per (trial, reusable method): Linear
        # and CMC hit on the second circuit of each trial.
        assert warm.cache_hits == 4
        # Bare carries no calibration state and must not log misses.
        assert warm.cache_misses == 4  # (Linear, CMC) x 2 trials
        assert warm.saved_circuits > 0
        assert warm.saved_shots > 0
        cold = run_sweep(small_spec(reuse_calibration=False))
        assert cold.cache_hits == 0 and cold.saved_circuits == 0

    def test_budget_ledger_identical_on_hits(self):
        warm = run_sweep(small_spec())
        cold = run_sweep(small_spec(reuse_calibration=False))
        for w, c in zip(warm.records, cold.records):
            assert w.shots_spent == c.shots_spent
            assert w.circuits_executed == c.circuits_executed

    def test_shared_backend_shares_calibration_across_trials(self):
        spec = small_spec(
            circuits=(CircuitSpec(root=0),), share_backend_across_trials=True
        )
        result = run_sweep(spec)  # serial: one process, one cache
        # trial 1 reuses trial 0's calibrations for both reusable methods
        assert result.cache_hits >= 2
        # and sharing must not change anything versus a pool that re-measures
        pooled = run_sweep(spec, workers=2)
        assert record_keys(result) == record_keys(pooled)


def _measurement_backend(seed=0):
    ch = MeasurementErrorChannel.from_readout_errors(
        [ReadoutError(0.02, 0.05)] * 4
    )
    return SimulatedBackend(linear(4), NoiseModel.measurement_only(ch), rng=seed)


class TestCalibrationStateRoundTrip:
    """load_calibration_state(calibration_state()) mitigates identically."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda cmap: FullCalibrationMitigator(max_qubits=4),
            lambda cmap: LinearCalibrationMitigator(),
            lambda cmap: CMCMitigator(cmap),
            lambda cmap: CMCERRMitigator(cmap, locality=3),
        ],
        ids=["Full", "Linear", "CMC", "CMC-ERR"],
    )
    def test_round_trip(self, make):
        backend = _measurement_backend(seed=3)
        cmap = backend.coupling_map
        cold = make(cmap)
        cold.prepare(backend, ShotBudget(16000))
        restored = make(cmap)
        restored.load_calibration_state(cold.calibration_state())
        counts = backend.run(ghz_bfs(cmap), 4000)
        a = cold.mitigate(counts).to_dense(normalized=True)
        b = restored.mitigate(counts).to_dense(normalized=True)
        assert np.array_equal(a, b)

    def test_unprepared_state_raises(self):
        with pytest.raises(RuntimeError):
            CMCMitigator(linear(3)).calibration_state()
        with pytest.raises(RuntimeError):
            FullCalibrationMitigator().calibration_state()

    def test_circuit_specific_methods_have_no_state(self):
        from repro.mitigation import SIMMitigator

        assert SIMMitigator().calibration_state() is None
        with pytest.raises(NotImplementedError):
            SIMMitigator().load_calibration_state({})


class TestBudgetReplay:
    def test_replay_matches_charge_ledger(self):
        a = ShotBudget(1000)
        a.charge(300, tag="calibration")
        a.charge(200, tag="calibration")
        b = ShotBudget(1000)
        b.replay(500, 2, tag="calibration")
        assert b.spent == a.spent
        assert b.circuits_executed == a.circuits_executed
        assert b.remaining == a.remaining
        assert b.by_tag() == a.by_tag()

    def test_replay_respects_cap(self):
        from repro.backends.budget import BudgetExceeded

        budget = ShotBudget(100)
        with pytest.raises(BudgetExceeded):
            budget.replay(101, 1)


class TestSweepResultAccessors:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep(small_spec())

    def test_methods_in_suite_order(self, result):
        assert result.methods() == ["Bare", "Linear", "CMC"]

    def test_error_samples(self, result):
        samples = result.error_samples(0, "CMC")
        assert len(samples) == 4  # 2 trials x 2 circuits
        assert all(s >= 0 for s in samples)

    def test_summary_rows(self, result):
        rows = result.summary_rows()
        assert set(rows) == {"Bare", "Linear", "CMC"}
        cell = rows["CMC"]["quito"]
        assert cell is not None and cell.num_samples == 4

    def test_to_json_round_trips(self, result):
        data = json.loads(result.to_json())
        assert len(data["records"]) == len(result.records)
        assert data["spec"]["trials"] == 2

    def test_duplicate_backend_points_get_distinct_columns(self):
        spec = small_spec(
            backends=(
                BackendSpec(kind="device", name="quito", gate_noise=False),
                BackendSpec(kind="device", name="quito", gate_noise=False),
            ),
            circuits=(CircuitSpec(),),
            trials=1,
        )
        result = run_sweep(spec)
        assert result.column_labels() == ["quito#0", "quito#1"]
        rows = result.summary_rows()
        assert set(rows["CMC"]) == {"quito#0", "quito#1"}

    def test_na_records(self):
        # Full on 7-qubit nairobi with a 5-qubit ceiling -> N/A record
        spec = small_spec(
            backends=(BackendSpec(kind="device", name="nairobi", gate_noise=False),),
            circuits=(CircuitSpec(),),
            methods=("Full", "CMC"),
            trials=1,
        )
        result = run_sweep(spec)
        full = next(result.iter_records(method="Full"))
        assert full.not_applicable and not full.available
        assert result.error_samples(0, "Full") == []


class TestSweepCLI:
    def test_inline_grid(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep",
                "--devices", "quito",
                "--methods", "Bare", "CMC",
                "--shots", "2000",
                "--trials", "1",
                "--quiet",
                "--json", str(out_file),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "CMC" in out and "quito" in out
        assert "calibration cache" in out
        data = json.loads(out_file.read_text())
        assert data["records"]

    def test_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            small_spec(circuits=(CircuitSpec(),), trials=1).to_json()
        )
        rc = main(["sweep", "--spec", str(spec_file), "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Linear" in out

    def test_spec_rejects_conflicting_inline_flags(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(small_spec(trials=1).to_json())
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--spec", str(spec_file), "--trials", "99", "--quiet"])
        assert exc.value.code == 2
        assert "--spec defines the whole grid" in capsys.readouterr().err

    def test_devices_reject_qubits_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--devices", "quito", "--qubits", "8", "--quiet"])
        assert exc.value.code == 2
        assert "--qubits only applies" in capsys.readouterr().err

    def test_architecture_grid(self, capsys):
        rc = main(
            [
                "sweep",
                "--architecture", "grid",
                "--qubits", "4",
                "--methods", "Bare", "Linear",
                "--shots", "1000",
                "--trials", "1",
                "--quiet",
            ]
        )
        assert rc == 0
        assert "grid-4q" in capsys.readouterr().out
