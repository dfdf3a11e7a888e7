"""FaultyBackend satellite (ISSUE 5): crashes that must not corrupt.

The conformance suite certifies primitives; these tests pin the
*end-to-end* crash stories the store stack promises:

* a writer killed mid-``put_atomic`` never exposes a half-written
  artifact to the calibration cache — and the re-run repairs the store
  and stays bit-identical;
* a sweep whose journal append is torn by a crash resumes bit-identically
  (the fragment is withheld, the task re-executes);
* the injector itself is deterministic: scripted Nth-op faults fire
  exactly once where scripted, seeded storms replay exactly.
"""

import pytest

from repro.pipeline import BackendSpec, CircuitSpec, SweepSpec, run_sweep
from repro.pipeline.cache import CalibrationCache, calibration_key
from repro.store import (
    ArtifactStore,
    BackendCrash,
    Fault,
    FaultyBackend,
    MemoryBackend,
    TransientStoreError,
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
        methods=("Bare", "CMC"),
        trials=1,
        seed=7,
        full_max_qubits=5,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def record_keys(result):
    return [
        (r.backend_label, r.trial, r.shots, r.circuit_label, r.method,
         r.error, r.shots_spent, r.circuits_executed)
        for r in result.records
    ]


class TestInjectorSemantics:
    def test_nth_op_scripting_is_exact(self):
        backend = FaultyBackend(
            MemoryBackend("nth"),
            faults=(Fault(op="put_atomic", nth=3, kind="raise"),),
        )
        backend.put_atomic("k1", b"a")
        backend.put_atomic("k2", b"b")
        with pytest.raises(TransientStoreError):
            backend.put_atomic("k3", b"c")
        backend.put_atomic("k3", b"c")  # 4th call: past the script
        assert backend.get("k3") == b"c"

    def test_drop_is_a_silent_lost_write(self):
        backend = FaultyBackend(
            MemoryBackend("drop"),
            faults=(Fault(op="put_atomic", nth=1, kind="drop"),),
        )
        backend.put_atomic("k", b"lost")  # acked, never stored
        assert backend.get("k") is None
        backend.put_atomic("k", b"kept")
        assert backend.get("k") == b"kept"

    def test_duplicate_append_is_benign_for_replay(self):
        # at-least-once delivery duplicates a journal row; replay
        # collapses duplicates by coordinate, so content is unchanged
        backend = FaultyBackend(
            MemoryBackend("dup"),
            faults=(Fault(op="append_line", nth=1, kind="duplicate"),),
        )
        backend.append_line("j", b'{"n": 1}\n')
        data, _ = backend.read_from("j", 0)
        assert data == b'{"n": 1}\n{"n": 1}\n'

    def test_seeded_storms_replay_exactly(self):
        def storm(seed):
            backend = FaultyBackend(
                MemoryBackend(f"storm{seed}"), transient_rate=0.5, seed=seed
            )
            outcomes = []
            for i in range(40):
                try:
                    backend.put_atomic(f"k{i}", b"x")
                    outcomes.append("ok")
                except TransientStoreError:
                    outcomes.append("boom")
            return outcomes

        assert storm(3) == storm(3)  # same seed, same storm
        assert storm(3) != storm(4)  # different seed, different storm

    def test_partial_fraction_controls_the_tear(self):
        inner = MemoryBackend("frac")
        backend = FaultyBackend(
            inner,
            faults=(Fault(op="put_atomic", nth=1, kind="partial",
                          fraction=0.25),),
        )
        with pytest.raises(BackendCrash):
            backend.put_atomic("objects/aa/k.json", b"A" * 100)
        (debris,) = inner.partial_keys("objects/")
        assert inner.stat(debris).size == 25

    def test_latency_fault_only_delays(self):
        backend = FaultyBackend(
            MemoryBackend("slow"),
            faults=(Fault(op="put_atomic", nth=1, kind="latency",
                          delay=0.01),),
        )
        backend.put_atomic("k", b"x")  # slow but successful
        assert backend.get("k") == b"x"

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(op="put_atomic", nth=1, kind="explode")
        with pytest.raises(ValueError, match="1-based"):
            Fault(op="put_atomic", nth=0, kind="raise")


class TestFaultWrapperTransparency:
    def test_fault_wrapped_dir_store_drives_a_sweep(self, tmp_path):
        # "wraps any StoreBackend" includes the local one: the whole
        # engine path (locator derivation, planner, journal, cache) must
        # see through the wrapper — pinned with a no-fault wrapper, where
        # behaviour must equal the bare backend's
        from repro.store import LocalDirBackend

        spec = small_spec(trials=1)
        reference = run_sweep(spec)
        wrapped = FaultyBackend(LocalDirBackend(tmp_path / "store"))
        store = ArtifactStore(wrapped)
        assert store.root == tmp_path / "store"
        cold = run_sweep(spec, store=store)
        warm = run_sweep(spec, store=ArtifactStore(wrapped))
        assert record_keys(cold) == record_keys(reference)
        assert record_keys(warm) == record_keys(reference)
        assert warm.cache_misses == 0
        # the on-disk layout is the bare backend's: reopening WITHOUT the
        # wrapper sees everything
        resumed = run_sweep(
            spec, store=str(tmp_path / "store"), resume=True
        )
        assert record_keys(resumed) == record_keys(reference)


class TestKilledMidPut:
    def test_half_written_calibration_is_invisible(self):
        """A store killed mid-`put_atomic` never exposes a half-written
        artifact: the next process misses cleanly and re-measures."""
        inner = MemoryBackend("killcal")
        faulty = FaultyBackend(
            inner, faults=(Fault(op="put_atomic", nth=1, kind="partial"),)
        )
        cache = CalibrationCache(ArtifactStore(faulty))
        key = calibration_key(("cal", 1, 0, "CMC", 2000))
        with pytest.raises(BackendCrash):
            cache.store(key, {"m": (1, 2)}, 500, 2)
        # a fresh process over the *same* (crashed) store: clean miss
        survivor = CalibrationCache(ArtifactStore(inner))
        assert survivor.lookup(key) is None
        assert survivor.stats().hits == 0
        # debris exists, is aged out by gc, and the re-measure lands
        assert inner.partial_keys("objects/") != []
        survivor.store(key, {"m": (1, 2)}, 500, 2)
        rec = CalibrationCache(ArtifactStore(inner)).lookup(key)
        assert rec is not None and rec.state == {"m": (1, 2)}

    def test_sweep_killed_mid_artifact_put_resumes_bit_identical(self):
        """Crash the sweep inside its FIRST persistent calibration write;
        resume must reproduce the uninterrupted run bit for bit."""
        spec = small_spec()
        reference = run_sweep(spec)

        inner = MemoryBackend("killsweep")
        faulty = FaultyBackend(
            inner, faults=(Fault(op="put_atomic", nth=2, kind="partial"),)
        )  # nth=2: the journal header is put #1, the first artifact #2
        with pytest.raises(BackendCrash):
            run_sweep(spec, store=ArtifactStore(faulty))
        # nothing half-written became visible as an artifact
        assert list(ArtifactStore(inner).entries()) == []

        resumed = run_sweep(spec, store=ArtifactStore(inner), resume=True)
        assert record_keys(resumed) == record_keys(reference)
        # and a warm rerun over the repaired store is still exact
        warm = run_sweep(spec, store=ArtifactStore(inner))
        assert warm.cache_misses == 0
        assert record_keys(warm) == record_keys(reference)

    def test_sweep_killed_mid_journal_append_resumes_bit_identical(self):
        spec = small_spec()
        reference = run_sweep(spec)

        inner = MemoryBackend("killjournal")
        faulty = FaultyBackend(
            inner, faults=(Fault(op="append_line", nth=1, kind="partial"),)
        )
        with pytest.raises(BackendCrash):
            run_sweep(spec, store=ArtifactStore(faulty))
        # the torn fragment is withheld from replay: no task counts done
        from repro.store import SweepJournal

        journal = SweepJournal.for_spec(ArtifactStore(inner), spec)
        assert journal.completed_outcomes() == {}

        resumed = run_sweep(spec, store=ArtifactStore(inner), resume=True)
        assert record_keys(resumed) == record_keys(reference)
        # the repaired journal now carries every task exactly once
        journal = SweepJournal.for_spec(ArtifactStore(inner), spec)
        assert len(journal.completed_outcomes()) == spec.num_tasks
