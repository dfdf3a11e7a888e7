"""The sweep service (ISSUE 4): planner, coordinator, protocol, follow().

Pinned here, per the acceptance criteria:

(a) warm-first-scheduled and canonical-order runs of the same spec
    produce **bit-identical** ``SweepResult``s (the planner only
    reorders; the seed-derivation discipline makes order irrelevant);
(b) a ``watch`` subscriber on an in-flight sweep receives **every**
    journal row **exactly once** — whether it subscribed before the
    sweep started, mid-flight, or the sweep resumed from a journal.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.pipeline import (
    BackendSpec,
    CircuitSpec,
    SweepSpec,
    run_sweep,
)
from repro.pipeline.runner import (
    ParallelSweepRunner,
    execute_payload,
    task_payload,
)
from repro.service import (
    ServiceError,
    SweepClient,
    SweepCoordinator,
    SweepPlanner,
    SweepServer,
)
from repro.store import ArtifactStore
from repro.store.journal import SweepJournal, journal_spec_digest, task_entry


def small_spec(**overrides):
    defaults = dict(
        backends=(
            BackendSpec(kind="device", name="quito", gate_noise=False),
            BackendSpec(kind="device", name="lima", gate_noise=False),
        ),
        circuits=(CircuitSpec(root=0),),
        shots=(1000,),
        methods=("Bare", "CMC"),
        trials=2,
        seed=17,
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


def delete_point_calibrations(store, point: int) -> int:
    """Drop every calibration artifact belonging to one backend point."""
    deleted = 0
    for info in list(store.entries()):
        if info.kind != "calibration":
            continue
        # artifact key: {"kind", "version", "key": ("cal", digest, point,
        # [trial,] method, shots)} — position 2 is the backend point
        if int(info.key["key"][2]) == point:
            store.delete(info.digest)
            deleted += 1
    return deleted


class _KillAfter:
    """Progress callback simulating a crash after k completed tasks."""

    def __init__(self, k: int):
        self.k = k
        self.seen = 0

    def __call__(self, done, total, outcome):
        self.seen += 1
        if self.seen >= self.k:
            raise KeyboardInterrupt("simulated crash")


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_empty_store_plans_all_cold(self, tmp_path):
        spec = small_spec()
        plan = SweepPlanner(tmp_path / "store").plan(spec)
        assert plan.counts == {"journaled": 0, "warm": 0, "partial": 0, "cold": 4}
        assert list(plan.execution_order) == spec.task_coordinates()

    def test_completed_run_plans_warm_fresh_and_journaled_resumed(self, tmp_path):
        spec = small_spec()
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)

        fresh = SweepPlanner(store).plan(spec, resume=False)
        assert fresh.counts == {"journaled": 0, "warm": 4, "partial": 0, "cold": 0}

        resumed = SweepPlanner(store).plan(spec, resume=True)
        assert resumed.counts == {"journaled": 4, "warm": 0, "partial": 0, "cold": 0}
        assert resumed.execution_order == ()  # nothing left to execute

    def test_partial_store_splits_warm_cold(self, tmp_path):
        spec = small_spec()
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)
        assert delete_point_calibrations(store, 0) > 0

        plan = SweepPlanner(store).plan(spec, resume=False)
        assert plan.counts == {"journaled": 0, "warm": 2, "partial": 0, "cold": 2}
        # warm-first: every lima (point 1) task precedes every quito task
        assert [c[0] for c in plan.execution_order] == [1, 1, 0, 0]

    def test_interrupted_run_plans_journaled_then_warm(self, tmp_path):
        spec = small_spec()
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, store=store, progress=_KillAfter(2))
        plan = SweepPlanner(store).plan(spec, resume=True)
        # 2 tasks journaled; their calibrations are also on disk but
        # journaled wins (replay beats re-execution); the rest is cold
        assert plan.counts == {"journaled": 2, "warm": 0, "partial": 0, "cold": 2}
        # a fresh (non-resume) run would truncate the journal: the same
        # two tasks now count as warm instead
        fresh = SweepPlanner(store).plan(spec, resume=False)
        assert fresh.counts == {"journaled": 0, "warm": 2, "partial": 0, "cold": 2}

    def test_recommended_workers_sized_to_cold_remainder(self, tmp_path):
        spec = small_spec()
        store = ArtifactStore(tmp_path / "store")
        plan = SweepPlanner(store).plan(spec)
        assert plan.recommended_workers(8) == 4  # all cold, capped by tasks
        run_sweep(spec, store=store)
        delete_point_calibrations(store, 0)
        plan = SweepPlanner(store).plan(spec)
        assert plan.recommended_workers(8) == 2  # only the cold half
        delete_point_calibrations(store, 1)
        all_cold = SweepPlanner(store).plan(spec)
        assert all_cold.recommended_workers(3) == 3
        # all-warm plans run in-process: no pool spawn for disk reads
        run_sweep(spec, store=store)
        warm = SweepPlanner(store).plan(spec)
        assert warm.cold == () and warm.recommended_workers(8) == 1

    def test_large_warm_backlog_keeps_its_pool(self):
        # warm tasks skip calibration but still execute targets: a 50-task
        # warm rerun must not collapse to one worker (that would be a
        # wall-clock regression vs planless store runs)
        from repro.service.planner import TaskPlan

        warm = tuple((p, (0,)) for p in range(50))
        plan = TaskPlan(digest="x", journaled=(), warm=warm, cold=())
        assert plan.recommended_workers(4) == 4
        mixed = TaskPlan(
            digest="x", journaled=(), warm=warm[:8], cold=warm[48:]
        )
        # 2 cold + ceil(8/4) warm-share -> 2, capped by the request
        assert mixed.recommended_workers(8) == 2

    def test_summary_line(self, tmp_path):
        spec = small_spec()
        plan = SweepPlanner(tmp_path / "store").plan(spec)
        assert plan.summary() == "0 journaled, 0 warm, 4 cold"

    def test_planner_is_lock_free(self, tmp_path):
        # planning while a journal lock is held must not raise or block
        spec = small_spec()
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)
        held = SweepJournal.open(store, spec, resume=True)
        try:
            plan = SweepPlanner(store).plan(spec, resume=True)
            assert plan.counts["journaled"] == 4
        finally:
            held.close()


# ----------------------------------------------------------------------
# Acceptance (a): warm-first reordering is bit-identical
# ----------------------------------------------------------------------
class TestWarmFirstDeterminism:
    def test_warm_first_order_differs_but_result_is_bit_identical(self, tmp_path):
        spec = small_spec()
        reference = run_sweep(spec)  # canonical order, storeless
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)
        delete_point_calibrations(store, 0)

        executed = []
        plans = []
        result = run_sweep(
            spec,
            store=store,
            progress=lambda done, total, o: executed.append(o.backend_index),
            on_plan=plans.append,
        )
        # the engine really did run lima (warm) before quito (cold) —
        # serial completion order is execution order
        assert executed == [1, 1, 0, 0]
        assert [c[0] for c in plans[0].execution_order] == [1, 1, 0, 0]
        # ... and not one bit of the assembled result moved
        assert record_keys(result) == record_keys(reference)
        assert [r.to_dict() for r in result.records] == [
            r.to_dict() for r in reference.records
        ]

    def test_warm_first_resume_matches_reference(self, tmp_path):
        spec = small_spec()
        reference = run_sweep(spec)
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, store=store, progress=_KillAfter(2))
        resumed = run_sweep(spec, store=store, resume=True)
        assert record_keys(resumed) == record_keys(reference)

    def test_parallel_warm_first_matches_reference(self, tmp_path):
        spec = small_spec()
        reference = run_sweep(spec)
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)
        delete_point_calibrations(store, 0)
        result = run_sweep(spec, store=store, workers=2)
        assert record_keys(result) == record_keys(reference)

    def test_effective_workers_narrowed_by_plan(self, tmp_path):
        spec = small_spec()
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)  # fully warm store
        runner = ParallelSweepRunner(workers=4, store=store)
        session = runner.open_session(spec)
        try:
            assert session.workers == 1  # all warm: stay in-process
        finally:
            session.close()
        storeless = ParallelSweepRunner(workers=4)
        assert storeless.effective_workers(spec) == 4


# ----------------------------------------------------------------------
# Coordinator: streaming, exactly-once, concurrency, cancellation
# ----------------------------------------------------------------------
def run_async(coro_fn, *args, **kwargs):
    return asyncio.run(coro_fn(*args, **kwargs))


def event_coord(event: dict):
    return (int(event["point"]), tuple(int(t) for t in event["trials"]))


class TestCoordinator:
    def test_watchers_receive_every_row_exactly_once(self, tmp_path):
        spec = small_spec()

        async def body():
            coord = SweepCoordinator(tmp_path / "store", workers=1)
            job = await coord.submit(spec)
            early, late = [], []

            async def watch_into(sink):
                async for event in coord.watch(job.sweep_id):
                    sink.append(event)

            async def late_watcher():
                # subscribe strictly mid-flight: after the first row lands
                # and before the job finishes
                while not job.events and job.state in ("queued", "running"):
                    await asyncio.sleep(0.005)
                await watch_into(late)

            await asyncio.gather(watch_into(early), late_watcher())
            result = await coord.result(job.sweep_id)
            await coord.close()
            return early, late, result

        early, late, result = run_async(body)
        reference = run_sweep(spec)
        assert record_keys(result) == record_keys(reference)
        # acceptance (b): every journal row, exactly once, both watchers
        for rows in (early, late):
            assert sorted(event_coord(e) for e in rows) == sorted(
                spec.task_coordinates()
            )
            assert len(rows) == spec.num_tasks  # no duplicates

    def test_watch_on_resumed_sweep_replays_then_streams(self, tmp_path):
        spec = small_spec()
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, store=store, progress=_KillAfter(2))

        async def body():
            coord = SweepCoordinator(store, workers=1)
            job = await coord.submit(spec, resume=True)
            rows = [event async for event in coord.watch(job.sweep_id)]
            result = await coord.result(job.sweep_id)
            status = coord.status(job.sweep_id)
            await coord.close()
            return rows, result, status

        rows, result, status = run_async(body)
        assert record_keys(result) == record_keys(run_sweep(spec))
        assert sorted(event_coord(e) for e in rows) == sorted(
            spec.task_coordinates()
        )
        assert [e["replayed"] for e in rows] == [True, True, False, False]
        assert status["plan"] == {"journaled": 2, "warm": 0, "partial": 0, "cold": 2}
        assert status["state"] == "done"

    def test_concurrent_sweeps_share_one_store(self, tmp_path):
        spec_a = small_spec(seed=1, trials=1)
        spec_b = small_spec(seed=2, trials=1)

        async def body():
            coord = SweepCoordinator(tmp_path / "store", workers=2)
            job_a = await coord.submit(spec_a)
            job_b = await coord.submit(spec_b)
            res_a, res_b = await asyncio.gather(
                coord.result(job_a.sweep_id), coord.result(job_b.sweep_id)
            )
            await coord.close()
            return res_a, res_b

        res_a, res_b = run_async(body)
        assert record_keys(res_a) == record_keys(run_sweep(spec_a))
        assert record_keys(res_b) == record_keys(run_sweep(spec_b))

    def test_same_spec_twice_serialises_and_second_runs_warm(self, tmp_path):
        spec = small_spec(trials=1)

        async def body():
            coord = SweepCoordinator(tmp_path / "store", workers=2)
            first = await coord.submit(spec)
            second = await coord.submit(spec)  # same journal: must queue
            res1 = await coord.result(first.sweep_id)
            res2 = await coord.result(second.sweep_id)
            await coord.close()
            return res1, res2

        res1, res2 = run_async(body)
        assert record_keys(res1) == record_keys(res2)
        assert res1.cache_misses > 0
        # the second sweep reused every calibration the first measured —
        # through the store tier its per-task caches read, not a
        # re-measurement
        assert res2.cache_misses == 0
        assert res2.cache_hits == res1.cache_hits + res1.cache_misses

    def test_shared_cache_accounting_is_per_task(self, tmp_path):
        # two tasks of one sweep share calibrations? they cannot (keys
        # embed the trial) — but each task's outcome must report only its
        # own misses even though all tasks feed one shared store tier
        spec = small_spec()

        async def body():
            coord = SweepCoordinator(tmp_path / "store", workers=2)
            job = await coord.submit(spec)
            rows = [event async for event in coord.watch(job.sweep_id)]
            result = await coord.result(job.sweep_id)
            await coord.close()
            return rows, result

        rows, result = run_async(body)
        per_task_misses = [e["cache_misses"] for e in rows]
        assert sum(per_task_misses) == result.cache_misses
        assert all(m >= 1 for m in per_task_misses)  # CMC calibrates per task

    def test_cancel_preserves_journal_for_resume(self, tmp_path):
        spec = small_spec()
        store = ArtifactStore(tmp_path / "store")

        async def body():
            coord = SweepCoordinator(store, workers=1)
            job = await coord.submit(spec)
            watcher = coord.watch(job.sweep_id)
            first = await watcher.__anext__()  # at least one task landed
            status = await coord.cancel(job.sweep_id)
            with pytest.raises(RuntimeError, match="cancelled"):
                await coord.result(job.sweep_id)
            # the watch stream terminates rather than hanging
            tail = [event async for event in watcher]
            await coord.close()
            return first, status, tail

        first, status, tail = run_async(body)
        assert status["state"] == "cancelled"
        completed = 1 + len(tail)
        journal = SweepJournal(
            store.journals_dir / f"{journal_spec_digest(spec)}.jsonl", spec
        )
        assert len(journal.completed_outcomes()) == completed
        assert completed < spec.num_tasks  # it really was cut short

        # and the cancelled sweep resumes bit-identically
        resumed = run_sweep(spec, store=store, resume=True)
        assert record_keys(resumed) == record_keys(run_sweep(spec))

    def test_failed_job_reports_error(self, tmp_path):
        spec = small_spec(trials=1)
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)
        # hold the journal lock so the coordinator's open refuses
        held = SweepJournal.open(store, spec, resume=True)
        try:

            async def body():
                coord = SweepCoordinator(store, workers=1)
                job = await coord.submit(spec)
                with pytest.raises(RuntimeError, match="in use"):
                    await coord.result(job.sweep_id)
                status = coord.status(job.sweep_id)
                rows = [event async for event in coord.watch(job.sweep_id)]
                await coord.close()
                return status, rows

            status, rows = run_async(body)
        finally:
            held.close()
        assert status["state"] == "failed" and "in use" in status["error"]
        assert rows == []  # watch ends cleanly on a failed sweep

    def test_unknown_sweep_id(self, tmp_path):
        async def body():
            coord = SweepCoordinator(tmp_path / "store")
            with pytest.raises(KeyError, match="unknown sweep"):
                coord.status("nope-1")
            await coord.close()

        run_async(body)

    def test_cancel_during_open_does_not_leak_journal_lock(self, tmp_path):
        # a cancellation landing while open_session is still on the
        # executor thread must not abandon the session — its advisory
        # lock (held by our own pid) would block this spec forever
        spec = small_spec(trials=1)

        async def body():
            coord = SweepCoordinator(tmp_path / "store", workers=1)
            job = await coord.submit(spec)
            status = await coord.cancel(job.sweep_id)  # races the open
            assert status["state"] == "cancelled"
            await asyncio.sleep(0.05)  # let any abandoned open finish
            retry = await coord.submit(spec)
            result = await coord.result(retry.sweep_id)
            await coord.close()
            return result

        result = run_async(body)
        assert record_keys(result) == record_keys(run_sweep(spec))

    def test_finished_jobs_are_pruned_beyond_retention_cap(self, tmp_path):
        specs = [small_spec(trials=1, seed=40 + i) for i in range(3)]

        async def body():
            coord = SweepCoordinator(
                tmp_path / "store", workers=1, max_finished_jobs=2
            )
            ids = []
            for spec in specs:
                job = await coord.submit(spec)
                await coord.result(job.sweep_id)
                ids.append(job.sweep_id)
            remaining = [job.sweep_id for job in coord.jobs()]
            await coord.close()
            return ids, remaining

        ids, remaining = run_async(body)
        assert remaining == ids[1:]  # oldest terminal job evicted


# ----------------------------------------------------------------------
# journal.follow(): replay + live tail
# ----------------------------------------------------------------------
class TestJournalFollow:
    def test_follow_replays_completed_rows(self, tmp_path):
        spec = small_spec()
        store = ArtifactStore(tmp_path / "store")
        run_sweep(spec, store=store)
        journal = SweepJournal(
            store.journals_dir / f"{journal_spec_digest(spec)}.jsonl", spec
        )
        rows = list(journal.follow(stop=lambda: True))
        assert len(rows) == spec.num_tasks
        assert sorted(event_coord(e) for e in rows) == sorted(
            spec.task_coordinates()
        )

    def test_follow_tails_live_appends_exactly_once(self, tmp_path):
        spec = small_spec(trials=1)
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, store=store, progress=_KillAfter(1))
        journal = SweepJournal(
            store.journals_dir / f"{journal_spec_digest(spec)}.jsonl", spec
        )
        outcome = list(journal.completed_outcomes().values())[0]

        rows = []
        stopped = threading.Event()

        def consume():
            for entry in journal.follow(poll_interval=0.005, stop=stopped.is_set):
                rows.append(entry)

        thread = threading.Thread(target=consume)
        thread.start()
        try:
            deadline = time.time() + 5.0
            while len(rows) < 1 and time.time() < deadline:
                time.sleep(0.005)
            assert len(rows) == 1  # replayed the journaled task

            # a torn in-flight append must not surface...
            entry = task_entry(outcome)
            line = json.dumps(entry, sort_keys=True)
            with open(journal.path, "a", encoding="utf-8") as fh:
                fh.write(line[: len(line) // 2])
                fh.flush()
            time.sleep(0.05)
            assert len(rows) == 1
            # ...until the writer completes the line — then exactly once
            with open(journal.path, "a", encoding="utf-8") as fh:
                fh.write(line[len(line) // 2:] + "\n")
            deadline = time.time() + 5.0
            while len(rows) < 2 and time.time() < deadline:
                time.sleep(0.005)
            assert len(rows) == 2
        finally:
            stopped.set()
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(rows) == 2

    def test_follow_on_missing_journal_waits_not_raises(self, tmp_path):
        spec = small_spec(trials=1)
        store = ArtifactStore(tmp_path / "store")
        journal = SweepJournal(
            store.journals_dir / f"{journal_spec_digest(spec)}.jsonl", spec
        )
        assert list(journal.follow(stop=lambda: True)) == []


# ----------------------------------------------------------------------
# Wire protocol: server + client end to end
# ----------------------------------------------------------------------
class TestServerProtocol:
    def test_submit_watch_results_roundtrip_and_warm_resubmit(self, tmp_path):
        spec = small_spec()
        reference = run_sweep(spec)

        async def body():
            server = await SweepServer(
                tmp_path / "store", port=0, workers=2
            ).start()
            try:
                async with SweepClient(port=server.port) as client:
                    sweep_id = await client.submit(spec)
                    rows = [e async for e in client.watch(sweep_id)]
                    status = await client.status(sweep_id)
                    cold = await client.results(sweep_id)
                # a second client connection, warm resubmission
                async with SweepClient(port=server.port) as client:
                    sweep_id2 = await client.submit(spec)
                    rows2 = [e async for e in client.watch(sweep_id2)]
                    warm = await client.results(sweep_id2)
                return rows, status, cold, rows2, warm
            finally:
                await server.close()

        rows, status, cold, rows2, warm = asyncio.run(body())
        assert status["state"] == "done"
        assert status["plan"] == {"journaled": 0, "warm": 0, "partial": 0, "cold": 4}
        # the result reports the service's actual parallelism, not the
        # runner's unused internal pool
        assert cold.workers == 2
        # the stream IS the journal: every row exactly once, and the
        # assembled result survives the JSON wire bit-identically
        assert sorted(event_coord(e) for e in rows) == sorted(
            spec.task_coordinates()
        )
        assert record_keys(cold) == record_keys(reference)
        assert cold.to_dict()["records"] == reference.to_dict()["records"]
        # warm resubmission: zero calibration executions, same numbers
        assert len(rows2) == spec.num_tasks
        assert warm.cache_misses == 0
        assert record_keys(warm) == record_keys(reference)

    def test_protocol_error_handling_keeps_connection_alive(self, tmp_path):
        spec = small_spec(trials=1)

        async def body():
            server = await SweepServer(tmp_path / "store", port=0).start()
            try:
                async with SweepClient(port=server.port) as client:
                    # malformed line
                    client._writer.write(b"this is not json\n")
                    await client._writer.drain()
                    resp = await client._read()
                    assert not resp["ok"] and "malformed" in resp["error"]
                    # unknown op
                    with pytest.raises(ServiceError, match="unknown op"):
                        await client.request(op="frobnicate")
                    # unknown sweep id
                    with pytest.raises(ServiceError, match="unknown sweep"):
                        await client.status("nope-1")
                    # invalid spec payload
                    with pytest.raises(ServiceError, match="invalid spec"):
                        await client.request(
                            op="submit", spec={"backends": [], "seed": 0}
                        )
                    # missing sweep_id
                    with pytest.raises(ServiceError, match="sweep_id"):
                        await client.request(op="watch")
                    # ... and after all that abuse the connection still works
                    sweep_id = await client.submit(spec)
                    result = await client.results(sweep_id)
                    return result
            finally:
                await server.close()

        result = asyncio.run(body())
        assert record_keys(result) == record_keys(run_sweep(small_spec(trials=1)))

    def test_cancel_over_the_wire(self, tmp_path):
        spec = small_spec()

        async def body():
            server = await SweepServer(tmp_path / "store", port=0).start()
            try:
                async with SweepClient(port=server.port) as submitter:
                    sweep_id = await submitter.submit(spec)
                    async with SweepClient(port=server.port) as other:
                        status = await other.cancel(sweep_id)
                    final = await submitter.status(sweep_id)
                    return status, final
            finally:
                await server.close()

        status, final = asyncio.run(body())
        assert status["state"] == "cancelled"
        assert final["state"] == "cancelled"


# ----------------------------------------------------------------------
# Fleet worker verbs: structured errors, never dropped connections
# ----------------------------------------------------------------------
class TestFleetWireErrors:
    def test_malformed_worker_frames_answer_not_drop(self, tmp_path):
        """Every bad lease/complete frame gets a structured ``{"ok":
        false}`` answer and the connection keeps working afterwards."""

        async def body():
            server = await SweepServer(tmp_path / "store", port=0).start()
            try:
                async with SweepClient(port=server.port) as client:
                    # lease without a worker_id
                    with pytest.raises(ServiceError, match="worker_id"):
                        await client.request(op="lease")
                    # lease before attaching
                    with pytest.raises(ServiceError, match="unknown worker"):
                        await client.lease("w99")
                    # attach with a non-string name
                    with pytest.raises(ServiceError, match="name"):
                        await client.request(op="attach", name=7)
                    granted = await client.attach()
                    wid = granted["worker_id"]
                    # a worker's lease terms ride the grant
                    assert granted["lease_ttl"] > 0
                    assert granted["heartbeat_timeout"] > granted["lease_ttl"]
                    # complete without an entry object
                    with pytest.raises(ServiceError, match="'entry' object"):
                        await client.complete(wid, "sweep-1", None)
                    # complete with a nonsense entry
                    with pytest.raises(
                        ServiceError, match="malformed task entry"
                    ):
                        await client.complete(wid, "sweep-1", {"bogus": 1})
                    # a well-formed entry against a sweep that isn't there
                    spec = small_spec(trials=1)
                    coord = spec.task_coordinates()[0]
                    entry = task_entry(
                        execute_payload(task_payload(spec, coord, None))
                    )
                    with pytest.raises(ServiceError, match="unknown sweep"):
                        await client.complete(wid, "nope-1", entry)
                    # ...and after all that abuse the same connection still
                    # speaks every worker verb
                    assert await client.lease(wid) is None
                    beat = await client.heartbeat(wid)
                    assert beat["leases"] == 0
                    await client.detach(wid)
            finally:
                await server.close()

        asyncio.run(body())

    def test_attach_version_mismatch_is_structured_and_recoverable(
        self, tmp_path
    ):
        """A worker from another engine version is refused with a message
        naming both versions — the connection is not dropped, and a
        correct attach on the same socket succeeds."""

        async def body():
            server = await SweepServer(tmp_path / "store", port=0).start()
            try:
                async with SweepClient(port=server.port) as client:
                    with pytest.raises(
                        ServiceError, match="does not match server"
                    ):
                        await client.attach(version="0.0.1")
                    granted = await client.attach(name="current")
                    return granted
            finally:
                await server.close()

        granted = asyncio.run(body())
        assert granted["worker_id"].endswith("-current")

    def test_heartbeat_timeout_evicts_then_reattach_recovers(self, tmp_path):
        """A silent worker is evicted after the heartbeat timeout: its
        next lease is refused with the eviction explanation, and a fresh
        attach (what :class:`FleetWorker` does on eviction) gets a new
        identity."""

        async def body():
            server = await SweepServer(
                tmp_path / "store",
                port=0,
                lease_ttl=0.05,
                heartbeat_timeout=0.1,
            ).start()
            try:
                async with SweepClient(port=server.port) as client:
                    granted = await client.attach(name="sleepy")
                    wid = granted["worker_id"]
                    await asyncio.sleep(0.5)  # miss every heartbeat
                    with pytest.raises(ServiceError, match="unknown worker"):
                        await client.lease(wid)
                    again = await client.attach(name="sleepy")
                    assert again["worker_id"] != wid
            finally:
                await server.close()

        asyncio.run(body())

    def test_heartbeats_keep_a_worker_attached(self, tmp_path):
        """The inverse of eviction: a worker that beats on time survives
        many timeout windows."""

        async def body():
            server = await SweepServer(
                tmp_path / "store",
                port=0,
                lease_ttl=0.05,
                heartbeat_timeout=0.1,
            ).start()
            try:
                async with SweepClient(port=server.port) as client:
                    wid = (await client.attach())["worker_id"]
                    for _ in range(10):
                        await asyncio.sleep(0.04)
                        await client.heartbeat(wid)
                    assert await client.lease(wid) is None  # still known
                    assert server.coordinator.fleet()[0]["worker_id"] == wid
            finally:
                await server.close()

        asyncio.run(body())
