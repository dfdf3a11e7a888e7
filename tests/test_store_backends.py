"""Store backends wired through the whole stack (ISSUE 5 acceptance).

The conformance suite (``tests/backend_conformance.py``) certifies the
transport contract in isolation; this file certifies the *integration*:
the sweep engine, journal, planner, calibration cache and CLI running on
non-filesystem backends with the same numbers, bit for bit:

* a store round-trip + warm resume on ``mem://`` is **bit-identical** to
  ``dir://`` (``cache_misses == 0``, records exactly equal) — the
  acceptance criterion;
* the planner's warm-tier pre-scan and warm-first ordering work over any
  backend;
* ``ArtifactStore("s3://...", client=FakeObjectClient())`` carries a
  persistent calibration tier;
* the CLI (`--store mem://…`, ``repro store ls|inspect|gc``) accepts
  locators for every backend.
"""

import json

import pytest

from repro.cli import main
from repro.pipeline import BackendSpec, CircuitSpec, SweepSpec, run_sweep
from repro.pipeline.cache import CalibrationCache, calibration_key
from repro.service.planner import SweepPlanner
from repro.store import (
    ArtifactStore,
    FakeObjectClient,
    reset_memory_spaces,
)


@pytest.fixture(autouse=True)
def _clean_mem_spaces():
    reset_memory_spaces()
    yield
    reset_memory_spaces()


def small_spec(**overrides):
    defaults = dict(
        backends=(
            BackendSpec(kind="device", name="quito", gate_noise=False),
            BackendSpec(kind="device", name="lima", gate_noise=False),
        ),
        circuits=(CircuitSpec(root=0),),
        shots=(2000,),
        methods=("Bare", "Linear", "CMC"),
        trials=2,
        seed=11,
        full_max_qubits=5,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def record_keys(result):
    return [
        (r.backend_label, r.trial, r.shots, r.circuit_label, r.method,
         r.error, r.shots_spent, r.circuits_executed, r.not_applicable)
        for r in result.records
    ]


class TestMemEqualsDir:
    def test_cold_warm_resume_bit_identical_across_backends(self, tmp_path):
        """The acceptance criterion: the whole store lifecycle on
        ``mem://`` is indistinguishable — in every number — from the
        same lifecycle on a directory."""
        spec = small_spec()
        plain = run_sweep(spec)

        results = {}
        for locator in (str(tmp_path / "store"), "mem://acceptance"):
            cold = run_sweep(spec, store=locator)
            assert cold.cache_misses > 0  # actually measured
            warm = run_sweep(spec, store=locator)  # fresh run, warm tier
            assert warm.cache_misses == 0
            assert warm.cache_hits == cold.cache_hits + cold.cache_misses
            resumed = run_sweep(spec, store=locator, resume=True)
            results[locator] = (cold, warm, resumed)

        for cold, warm, resumed in results.values():
            assert record_keys(cold) == record_keys(plain)
            assert record_keys(warm) == record_keys(plain)
            assert record_keys(resumed) == record_keys(plain)
        (dir_cold, *_), (mem_cold, *_) = results.values()
        assert record_keys(dir_cold) == record_keys(mem_cold)

    def test_interrupted_mem_sweep_resumes_bit_identical(self):
        class KillAfter:
            def __init__(self, k):
                self.seen = 0
                self.k = k

            def __call__(self, done, total, outcome):
                self.seen += 1
                if self.seen >= self.k:
                    raise KeyboardInterrupt("simulated crash")

        spec = small_spec()
        reference = run_sweep(spec)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, store="mem://crashy", progress=KillAfter(2))
        resumed = run_sweep(spec, store="mem://crashy", resume=True)
        assert record_keys(resumed) == record_keys(reference)

    def test_mem_store_ignores_worker_pool(self):
        # a process pool cannot see a mem:// space: the engine keeps the
        # run in-process (results identical, store state not silently
        # split across processes)
        spec = small_spec(trials=1)
        reference = run_sweep(spec)
        result = run_sweep(spec, store="mem://poolguard", workers=4)
        assert result.workers == 1
        assert record_keys(result) == record_keys(reference)
        warm = run_sweep(spec, store="mem://poolguard", workers=4)
        assert warm.cache_misses == 0  # the store really accumulated


class TestPlannerOverBackends:
    def test_warm_split_and_ordering_on_mem(self):
        spec = small_spec()
        store = ArtifactStore("mem://plan")
        plan = SweepPlanner(store).plan(spec)
        assert plan.counts == {"journaled": 0, "warm": 0, "partial": 0,
                               "cold": spec.num_tasks}
        run_sweep(spec, store=store)
        plan = SweepPlanner(store).plan(spec)
        assert plan.counts == {"journaled": 0, "warm": spec.num_tasks,
                               "partial": 0, "cold": 0}
        plan = SweepPlanner(store).plan(spec, resume=True)
        assert plan.counts == {"journaled": spec.num_tasks, "warm": 0,
                               "partial": 0, "cold": 0}

    def test_plan_line_printed_for_mem_store(self, capsys):
        # CMC persists calibration state, so the second run can be warm
        # (a Bare-only grid never writes artifacts — nothing to pre-scan)
        argv = ["sweep", "--devices", "quito", "--methods", "Bare", "CMC",
                "--shots", "500", "--trials", "1",
                "--store", "mem://planline"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "plan: 0 journaled, 0 warm, 1 cold" in err
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "plan: 0 journaled, 1 warm, 0 cold" in err


class TestDriverStoresOverBackends:
    def test_err_stability_snapshots_on_mem_store(self):
        from repro.experiments import err_stability_experiment

        a = err_stability_experiment(
            "lima", weeks=2, shots_per_week=8000, seed=5,
            store="mem://err-snaps", workers=4,  # pool ignored: mem://
        )
        snaps = list(ArtifactStore("mem://err-snaps").entries())
        assert len(snaps) == 2
        assert all(i.kind == "err-week-snapshot" for i in snaps)
        # second run reuses the snapshots; plain run agrees bit for bit
        b = err_stability_experiment(
            "lima", weeks=2, shots_per_week=8000, seed=5,
            store="mem://err-snaps",
        )
        plain = err_stability_experiment(
            "lima", weeks=2, shots_per_week=8000, seed=5
        )
        maps = lambda r: [m.edges for m in r.weekly_maps]
        assert maps(a) == maps(b) == maps(plain)

    def test_err_stability_accepts_live_object_store(self):
        from repro.experiments import err_stability_experiment

        store = ArtifactStore("s3://snaps/err", client=FakeObjectClient())
        err_stability_experiment(
            "lima", weeks=2, shots_per_week=8000, seed=5, store=store
        )
        assert len(list(store.entries())) == 2


class TestObjectStoreIntegration:
    def test_persistent_cache_over_fake_s3(self):
        client = FakeObjectClient()
        store = ArtifactStore("s3://fleet/warm-tier", client=client)
        cache = CalibrationCache(store)
        key = calibration_key(("cal", 1, 0, "CMC", 2000))
        cache.store(key, {"x": (0, 1)}, 500, 2)
        # a different "process" (fresh cache, same bucket) sees the tier
        reborn = CalibrationCache(
            ArtifactStore("s3://fleet/warm-tier", client=client)
        )
        rec = reborn.lookup(key)
        assert rec is not None and rec.shots_spent == 500
        assert rec.state == {"x": (0, 1)}
        assert reborn.stats().hits == 1 and reborn.stats().misses == 0

    def test_sweep_on_fake_s3_matches_plain(self):
        client = FakeObjectClient()
        spec = small_spec(trials=1)
        plain = run_sweep(spec)
        store = ArtifactStore("s3://fleet/sweeps", client=client)
        cold = run_sweep(spec, store=store)
        warm = run_sweep(spec, store=store)
        resumed = run_sweep(spec, store=store, resume=True)
        assert record_keys(cold) == record_keys(plain)
        assert record_keys(warm) == record_keys(plain)
        assert record_keys(resumed) == record_keys(plain)
        assert warm.cache_misses == 0
        # packed single-object artifacts landed under the prefix
        packs = [k for k in client.list_objects("fleet", "sweeps/")
                 if k.endswith(".pack")]
        assert packs

    def test_s3_without_client_is_clean_error(self):
        with pytest.raises(ValueError, match="client"):
            ArtifactStore("s3://nowhere/prefix")


class TestCliOverBackends:
    def test_store_commands_on_mem_locator(self, capsys):
        argv = ["sweep", "--devices", "quito", "--methods", "Bare", "CMC",
                "--shots", "1000", "--trials", "1", "--quiet",
                "--store", "mem://cli"]
        assert main(argv) == 0
        capsys.readouterr()

        assert main(["store", "ls", "mem://cli"]) == 0
        out = capsys.readouterr().out
        assert "calibration" in out and "1 sweep journal(s)" in out

        digest = next(ArtifactStore("mem://cli").entries()).digest
        assert main(["store", "inspect", "mem://cli", digest[:10]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["digest"] == digest and data["kind"] == "calibration"

        assert main(["store", "gc", "mem://cli", "--dry-run"]) == 0
        assert "nothing deleted" in capsys.readouterr().out

    def test_serve_processes_over_mem_store_is_clean_error(self, capsys):
        # a process pool cannot share a process-local store; `repro serve`
        # must refuse the combination with advice, not a traceback
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--store", "mem://srv", "--processes",
                  "--port", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro serve: error:" in err and "process-local" in err
        assert "Traceback" not in err

    def test_serve_threads_over_mem_store_starts(self):
        # threads share the in-process backend: construction succeeds
        from repro.service.server import SweepServer

        server = SweepServer("mem://srv-ok", port=0, workers=2)
        assert server.coordinator.store.locator == "mem://srv-ok"

    def test_bad_locator_is_clean_cli_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["store", "ls", "redis://nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro store: error:" in err and "redis" in err
        assert "Traceback" not in err

    def test_s3_locator_without_client_is_clean_cli_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["store", "ls", "s3://bucket/prefix"])
        assert exc.value.code == 2
        assert "client" in capsys.readouterr().err

    def test_stability_bad_store_locator_is_clean_cli_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stability", "--weeks", "2", "--store", "s3://nope/x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro stability: error:" in err and "client" in err
        assert "Traceback" not in err

    def test_s3_locator_with_default_client_works(self, capsys):
        from repro.store import set_default_object_client

        client = FakeObjectClient()
        set_default_object_client(client)
        try:
            argv = ["sweep", "--devices", "quito", "--methods", "Bare", "CMC",
                    "--shots", "1000", "--trials", "1", "--quiet",
                    "--store", "s3://ci-bucket/tier"]
            assert main(argv) == 0
            capsys.readouterr()
            assert main(["store", "ls", "s3://ci-bucket/tier"]) == 0
            out = capsys.readouterr().out
            assert "calibration" in out and "1 sweep journal(s)" in out
        finally:
            set_default_object_client(None)
