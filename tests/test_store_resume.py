"""Resumable, warm-startable sweeps (the ISSUE 3 acceptance criteria).

Pinned here:

(a) a sweep interrupted after k tasks and resumed from its journal is
    **bit-identical** to an uninterrupted run — including when the
    "interruption" is a hard kill mid-write (torn journal line);
(b) a warm-store rerun of a whole grid performs **zero** calibration
    executions (``stats()`` hits only) with method errors exactly equal
    to the cold run.
"""

import json

import pytest

from repro._version import __version__
from repro.cli import main
from repro.pipeline import (
    BackendSpec,
    CircuitSpec,
    SweepRecord,
    SweepResult,
    SweepSpec,
    run_sweep,
)
from repro.pipeline.cache import CalibrationCache, calibration_key
from repro.store import ArtifactStore, SweepJournal


def small_spec(**overrides):
    defaults = dict(
        backends=(
            BackendSpec(kind="device", name="quito", gate_noise=False),
            BackendSpec(kind="device", name="lima", gate_noise=False),
        ),
        circuits=(CircuitSpec(root=0), CircuitSpec(root=1)),
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
        (r.backend_label, r.trial, r.shots, r.circuit_label, r.method, r.error,
         r.shots_spent, r.circuits_executed, r.not_applicable)
        for r in result.records
    ]



def open_journal(store, spec):
    """Open a journal for inspection and release its advisory lock.

    File-based reads (completed_outcomes, .path) remain valid after close;
    holding the lock would make a subsequent run_sweep in this process
    refuse the journal as in-use.
    """
    journal = SweepJournal.open(store, spec, resume=True)
    journal.close()
    return journal


class _KillAfter:
    """Progress callback that simulates a crash after k completed tasks."""

    def __init__(self, k: int):
        self.k = k
        self.seen = 0

    def __call__(self, done, total, outcome):
        self.seen += 1
        if self.seen >= self.k:
            raise KeyboardInterrupt("simulated crash")


class TestResumeEquivalence:
    def test_interrupted_then_resumed_is_bit_identical(self, tmp_path):
        spec = small_spec()
        reference = run_sweep(spec)  # uninterrupted, storeless

        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, store=store, progress=_KillAfter(2))
        # the journal durably holds exactly the completed tasks
        journal = open_journal(store, spec)
        assert len(journal.completed_outcomes()) == 2

        resumed = run_sweep(spec, store=store, resume=True)
        assert record_keys(resumed) == record_keys(reference)
        # aggregate accessors flow from records, so they agree too
        assert resumed.summary_rows().keys() == reference.summary_rows().keys()

    def test_resume_survives_torn_journal_tail(self, tmp_path):
        spec = small_spec()
        reference = run_sweep(spec)
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, store=store, progress=_KillAfter(3))
        # hard kill mid-append: the final line is torn
        journal = open_journal(store, spec)
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "task", "point": 1, "tri')
        resumed = run_sweep(spec, store=store, resume=True)
        assert record_keys(resumed) == record_keys(reference)
        # the resume appended *after* the torn fragment without fusing with
        # it, so the journal stays readable: a second resume replays all
        # tasks and executes nothing new
        again = run_sweep(spec, store=store, resume=True)
        assert record_keys(again) == record_keys(reference)
        journal = open_journal(store, spec)
        assert len(journal.completed_outcomes()) == spec.num_tasks

    def test_newline_less_complete_entry_is_kept_not_truncated(self, tmp_path):
        # a crash can cut the write exactly between the JSON and its \n;
        # replay counts that task as done, so an append afterwards must
        # preserve it (terminate the line), not silently un-journal it
        spec = small_spec()
        reference = run_sweep(spec)
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, store=store, progress=_KillAfter(2))
        journal = open_journal(store, spec)
        raw = journal.path.read_bytes()
        assert raw.endswith(b"\n")
        journal.path.write_bytes(raw[:-1])  # strip the final newline only
        assert len(journal.completed_outcomes()) == 2  # still replayable

        resumed = run_sweep(spec, store=store, resume=True)
        assert record_keys(resumed) == record_keys(reference)
        journal = open_journal(store, spec)
        # all tasks journaled exactly once: the de-newlined one survived
        assert len(journal.completed_outcomes()) == spec.num_tasks
        entries = [l for l in journal.path.read_text().splitlines() if l]
        assert len(entries) == 1 + spec.num_tasks  # header + each task once

    def test_torn_header_restarts_fresh_instead_of_raising(self, tmp_path):
        spec = small_spec(trials=1)
        reference = run_sweep(spec)
        store = ArtifactStore(tmp_path / "store")
        from repro.store.journal import journal_spec_digest

        path = store.journals_dir / f"{journal_spec_digest(spec)}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        for torn in (b"", b'{"kind": "header", "mag'):
            path.write_bytes(torn)  # crash during header creation
            resumed = run_sweep(spec, store=store, resume=True)
            assert record_keys(resumed) == record_keys(reference)

    def test_resume_of_complete_run_executes_nothing(self, tmp_path):
        spec = small_spec(trials=1)
        store = ArtifactStore(tmp_path / "store")
        first = run_sweep(spec, store=store)
        calls = []
        resumed = run_sweep(
            spec,
            store=store,
            resume=True,
            progress=lambda done, total, o: calls.append((done, total)),
        )
        assert record_keys(resumed) == record_keys(first)
        # every task (2 backends x 1 trial) replayed from the journal,
        # progress stays truthful
        assert calls == [(1, 2), (2, 2)]

    def test_resume_parallel_matches_serial(self, tmp_path):
        spec = small_spec(trials=1)
        reference = run_sweep(spec)
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, store=store, progress=_KillAfter(1))
        resumed = run_sweep(spec, store=store, resume=True, workers=2)
        assert record_keys(resumed) == record_keys(reference)

    def test_resume_needs_store(self):
        with pytest.raises(ValueError):
            run_sweep(small_spec(), resume=True)

    def test_journal_rejects_mismatched_spec(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = small_spec(trials=1)
        run_sweep(spec, store=store)
        other = small_spec(trials=1, seed=99)
        # different identity -> different journal file, no cross-talk
        assert open_journal(store, other)
        # but a forged journal at the right path with the wrong spec refuses
        from repro.store.journal import journal_spec_digest

        path = store.journals_dir / f"{journal_spec_digest(other)}.jsonl"
        good = store.journals_dir / f"{journal_spec_digest(spec)}.jsonl"
        path.write_text(good.read_text())
        with pytest.raises(ValueError):
            SweepJournal.open(store, other, resume=True)

    def test_concurrent_same_spec_journal_refused(self, tmp_path):
        # a live foreign process holding the journal lock must block both
        # fresh and resumed opens (interleaved writes / truncation of the
        # other run's durable progress); dead holders are reclaimed
        spec = small_spec(trials=1)
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)
        from repro.store.journal import journal_spec_digest

        lock = store.journals_dir / f"{journal_spec_digest(spec)}.lock"
        lock.write_text("1")  # pid 1: alive (init) and not us
        with pytest.raises(ValueError, match="in use"):
            run_sweep(spec, store=store)
        with pytest.raises(ValueError, match="in use"):
            run_sweep(spec, store=store, resume=True)
        lock.write_text("999999999")  # certainly-dead pid: stale, reclaimed
        result = run_sweep(spec, store=store, resume=True)
        assert len(result.records) == spec.num_runs * len(spec.methods)
        assert not lock.exists()  # released on close

    def test_resume_refuses_other_version_journal(self, tmp_path):
        # bit-identity only holds within one engine version; a journal from
        # another release must refuse rather than half-replay
        spec = small_spec(trials=1)
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)
        journal = open_journal(store, spec)
        lines = journal.path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = "0.0.1"
        journal.path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="0.0.1"):
            run_sweep(spec, store=store, resume=True)
        run_sweep(spec, store=store)  # fresh run (no --resume) still fine

    def test_same_process_second_writer_refused_until_closed(self, tmp_path):
        # a held lock protects the journal from a second writer in the
        # *same* process too (threads / nested calls would interleave)
        spec = small_spec(trials=1)
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)
        held = SweepJournal.open(store, spec, resume=True)
        try:
            with pytest.raises(ValueError, match="in use"):
                run_sweep(spec, store=store, resume=True)
        finally:
            held.close()
        run_sweep(spec, store=store, resume=True)  # released -> fine

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        spec = small_spec(trials=1)
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)
        journal = open_journal(store, spec)
        assert len(journal.completed_outcomes()) == 2
        run_sweep(spec, store=store)  # resume=False: starts over
        journal = open_journal(store, spec)
        assert len(journal.completed_outcomes()) == 2  # rewritten, complete


class TestWarmStore:
    def test_warm_rerun_zero_calibration_executions(self, tmp_path):
        spec = small_spec()
        store = ArtifactStore(tmp_path / "store")
        cold = run_sweep(spec, store=store)
        assert cold.cache_misses > 0  # it really measured calibrations

        warm = run_sweep(spec, store=store)  # fresh run, same store
        # (b): zero calibration executions — stats() hits only
        assert warm.cache_misses == 0
        assert warm.cache_hits == cold.cache_hits + cold.cache_misses
        assert warm.saved_circuits > cold.saved_circuits
        # method errors exactly equal to the cold run
        assert record_keys(warm) == record_keys(cold)

    def test_calibration_key_digest_is_stable(self):
        # stores written by earlier releases of this key layout stay warm
        from repro.pipeline.runner import task_calibration_scopes
        from repro.store import canonical_key_digest

        scope = task_calibration_scopes(small_spec(), 1, (0,))[0] + ("CMC", 2000)
        assert canonical_key_digest(calibration_key(scope)) == canonical_key_digest(
            {"kind": "calibration", "version": __version__, "key": tuple(scope)}
        )

    def test_warm_matches_storeless_and_parallel(self, tmp_path):
        spec = small_spec(trials=1)
        plain = run_sweep(spec)
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)
        warm_parallel = run_sweep(spec, store=store, workers=2)
        assert record_keys(warm_parallel) == record_keys(plain)
        assert warm_parallel.cache_misses == 0

    def test_persistent_cache_tiers(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        cache = CalibrationCache(store)
        key = calibration_key(("cal", 1, 0, "CMC", 2000))
        assert cache.lookup(key) is None
        cache.store(key, {"x": (0, 1)}, 500, 2)
        assert cache.stats().misses == 1

        # a brand-new process (fresh cache object) sees the artifact
        reborn = CalibrationCache(ArtifactStore(tmp_path / "store"))
        rec = reborn.lookup(key)
        assert rec is not None and rec.shots_spent == 500
        assert rec.state == {"x": (0, 1)}
        assert reborn.stats().hits == 1 and reborn.stats().misses == 0
        assert reborn.stats().saved_shots == 500
        # promoted to the memory tier: second lookup needs no disk
        assert reborn.lookup(key) is not None
        assert reborn.stats().hits == 2


class TestDriverStores:
    def test_err_stability_accepts_path_and_reuses_snapshots(self, tmp_path):
        from pathlib import Path

        from repro.experiments import err_stability_experiment

        # a pathlib.Path must root the store at that directory (Path.root
        # is the filesystem anchor — regression guard against duck-typing)
        store_dir = Path(tmp_path) / "snaps"
        a = err_stability_experiment(
            "lima", weeks=2, shots_per_week=8000, seed=5, store=store_dir
        )
        snapshots = list(ArtifactStore(store_dir).entries())
        assert len(snapshots) == 2
        assert all(i.kind == "err-week-snapshot" for i in snapshots)
        # the snapshot is the full profiling artifact: its weights decode
        # and cover (at least) every chosen error-map edge, so downstream
        # analysis passes can consume it without re-profiling
        payload = ArtifactStore(store_dir).get_by_digest(snapshots[0].digest)
        assert set(payload["error_map"].edges) <= set(payload["weights"])
        assert all(w >= 0.0 for w in payload["weights"].values())

        b = err_stability_experiment(
            "lima", weeks=2, shots_per_week=8000, seed=5, store=store_dir
        )
        plain = err_stability_experiment("lima", weeks=2, shots_per_week=8000, seed=5)
        maps = lambda r: [m.edges for m in r.weekly_maps]
        assert maps(a) == maps(b) == maps(plain)

    def test_device_table_store_round_trip(self, tmp_path):
        from repro.experiments import device_ghz_table

        kwargs = dict(
            devices=["quito"], shots=2000, trials=1, methods=["Bare", "CMC"],
            seed=4,
        )
        cold = device_ghz_table(**kwargs, store=tmp_path / "store")
        warm = device_ghz_table(
            **kwargs, store=tmp_path / "store", resume=True
        )
        plain = device_ghz_table(**kwargs)
        assert cold.errors == warm.errors == plain.errors


class TestRecordRoundTrip:
    """Satellite: pinned to_dict → from_dict inverses."""

    def test_sweep_record_round_trip(self):
        rec = SweepRecord(
            backend_index=1, backend_label="lima", trial=2, shots=4000,
            circuit_index=0, circuit_label="ghz@root0", method="CMC",
            error=0.12345678901234567, shots_spent=3999, circuits_executed=7,
            not_applicable=False, failure="",
        )
        clone = SweepRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert clone == rec  # frozen dataclass: exact field equality

    def test_sweep_record_na_round_trip(self):
        rec = SweepRecord(
            backend_index=0, backend_label="nairobi", trial=0, shots=100,
            circuit_index=1, circuit_label="ghz@root1", method="Full",
            error=None, shots_spent=0, circuits_executed=0,
            not_applicable=True, failure="needs 2^7 circuits",
        )
        assert SweepRecord.from_dict(rec.to_dict()) == rec

    def test_sweep_result_round_trip(self):
        result = run_sweep(small_spec(trials=1))
        clone = SweepResult.from_json(result.to_json())
        assert clone.spec == result.spec
        assert clone.records == result.records
        assert clone.workers == result.workers
        assert clone.cache_hits == result.cache_hits
        assert clone.cache_misses == result.cache_misses

    def test_result_json_carries_version(self):
        result = run_sweep(small_spec(trials=1))
        assert result.to_dict()["version"] == __version__

    def test_pre_store_json_fails_with_format_error(self):
        # v1.0.0 --json records had labels but no indices; rehydration
        # must explain the format gap, not KeyError
        result = run_sweep(small_spec(trials=1))
        data = result.to_dict()
        for rec in data["records"]:
            del rec["backend_index"], rec["circuit_index"]
        with pytest.raises(ValueError, match="repro < 1.1.0"):
            SweepResult.from_dict(data)

    def test_version_stamp_survives_rehydration(self):
        # loading an old result and re-serialising must not relabel which
        # library version produced the numbers
        result = run_sweep(small_spec(trials=1))
        data = result.to_dict()
        data["version"] = "0.9.9"
        clone = SweepResult.from_dict(data)
        assert clone.version == "0.9.9"
        assert clone.to_dict()["version"] == "0.9.9"


class TestStoreCLI:
    def test_sweep_store_resume_and_store_commands(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        argv = [
            "sweep", "--devices", "quito", "--methods", "Bare", "CMC",
            "--shots", "1000", "--trials", "1", "--quiet",
            "--store", str(store_dir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        # identical table, and the resumed run replayed the journal
        assert first.splitlines()[:4] == second.splitlines()[:4]

        assert main(["store", "ls", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "calibration" in out and "sweep journal(s)" in out

        digest = next(ArtifactStore(store_dir).entries()).digest
        assert main(["store", "inspect", str(store_dir), digest[:10]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["digest"] == digest and data["kind"] == "calibration"

        assert main(["store", "gc", str(store_dir)]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_ls_reports_journals_even_without_artifacts(self, capsys, tmp_path):
        # Bare-only sweeps journal tasks but persist no calibration state;
        # ls must still surface the resumable journal
        store_dir = tmp_path / "store"
        assert main([
            "sweep", "--devices", "quito", "--methods", "Bare",
            "--shots", "500", "--trials", "1", "--quiet",
            "--store", str(store_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["store", "ls", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 sweep journal(s)" in out
        assert "empty" not in out

    def test_journal_refusals_are_clean_cli_errors(self, capsys, tmp_path):
        # version mismatch / held lock reach the user as `repro ...: error:`
        # with the actionable message, not a traceback
        store_dir = tmp_path / "store"
        argv = [
            "sweep", "--devices", "quito", "--methods", "Bare",
            "--shots", "500", "--trials", "1", "--quiet",
            "--store", str(store_dir),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        journal_path = next((store_dir / "journals").glob("*.jsonl"))
        lines = journal_path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = "0.0.1"
        journal_path.write_text(
            "\n".join([json.dumps(header)] + lines[1:]) + "\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--resume"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro sweep: error:" in err and "0.0.1" in err

    def test_resume_without_store_is_flag_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--devices", "quito", "--resume", "--quiet"])
        assert exc.value.code == 2
        assert "--resume needs --store" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out
