"""Asyncio sweep coordination: concurrent sweeps, streaming task events.

:class:`SweepCoordinator` is the service's engine room.  It drives the
pipeline's :class:`~repro.pipeline.runner.SweepSession` task dispatch off
an asyncio event loop instead of the blocking loop in
:meth:`~repro.pipeline.runner.ParallelSweepRunner.run` — the *same*
``task_args → execute_task → record`` code path, so everything the batch
engine guarantees (bit-identical results for any execution order, durable
journaling, warm-first planning) holds verbatim for the service.

What the event loop adds:

* **concurrent sweeps** — each :meth:`submit` schedules an independent
  job; tasks from all live jobs interleave on one shared executor.
  Same-spec submissions are serialised per journal digest (two live
  writers of one journal are forbidden by the store's advisory lock;
  queueing beats failing);
* **one shared calibration tier** — every task of every sweep runs
  exactly as under the sync runner: a fresh per-task
  :class:`~repro.pipeline.cache.CalibrationCache` over the (tenant's)
  store, whose write-through makes a calibration visible to the next task
  at once, while hit/miss accounting stays per task so each
  :class:`~repro.pipeline.runner.TaskOutcome` reports exactly the work it
  saved;
* **streaming** — the moment a task outcome lands in the journal it is
  published to every watcher as the journal-entry dict
  (:func:`~repro.store.journal.task_entry`).  :meth:`watch` replays the
  rows a subscriber missed and then streams new ones; delivery is
  exactly-once per watcher by construction (a monotone cursor over an
  append-only event list — pinned in ``tests/test_service.py``);
* **a worker fleet** — remote workers :meth:`attach` over the wire
  protocol and pull task coordinates with :meth:`lease`; every pending
  coordinate sits in one per-job :class:`_JobDispatch` pool that local
  executor slots and fleet workers drain *together*.  A remote claim is
  made crash-visible as a backend-held lease
  (:class:`~repro.service.queue.TaskQueue`); :meth:`heartbeat` renews it,
  and a reaper re-issues the coordinates of workers that died (connection
  drop, heartbeat timeout) or stalled past their lease.  Exactly-once
  journaling survives every re-issue: the session and the journal both
  dedup by coordinate, so a late original delivery answers
  ``duplicate: true`` instead of a second row — and because every task is
  a pure function of ``(spec, coordinates)``, the fleet's assembled
  result is bit-identical to a single-machine run (pinned in
  ``tests/fleet_conformance.py``).
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import time
from collections import deque
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import AsyncIterator, Deque, Dict, List, Optional, Set, Tuple

from repro import obs
from repro._version import __version__
from repro.pipeline.runner import (
    ParallelSweepRunner,
    StoreLike,
    SweepResult,
    execute_task,
    process_pool,
    task_payload,
)
from repro.pipeline.spec import SweepSpec
from repro.service.queue import TaskQueue
from repro.service.tenancy import (
    AdmissionError,
    TenantLedger,
    TenantQuota,
    tenant_backend,
    validate_tenant,
)
from repro.store.artifacts import ArtifactStore
from repro.store.faults import TransientStoreError
from repro.store.journal import journal_spec_digest, outcome_from_entry, task_entry

__all__ = ["SweepCoordinator", "SweepJob"]

#: Job lifecycle. ``queued`` → ``running`` → one of the terminal three.
ACTIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("done", "failed", "cancelled")

TaskCoord = Tuple[int, Tuple[int, ...]]

#: Bounded retries for transient store failures on the coordinator's own
#: store touches (open, journal append, close) — the same client
#: discipline TaskQueue applies internally, so a fleet over a flaky
#: transport degrades to latency, not to failed jobs.
_RETRIES = 50
_RETRY_SLEEP = 0.002


def _retrying(fn, *args):
    for _ in range(_RETRIES - 1):
        try:
            return fn(*args)
        except TransientStoreError:
            _count("repro_coordinator_op_retries_total",
                   "Coordinator store ops retried after a transient fault")
            time.sleep(_RETRY_SLEEP)
    return fn(*args)  # last attempt propagates


def _count(name: str, help_text: str, value: float = 1) -> None:
    telemetry = obs.active()
    if telemetry is not None:
        telemetry.counter(name, help_text).inc(value)


def _span(trace: str, span: str, **attrs) -> None:
    telemetry = obs.active()
    if telemetry is not None:
        telemetry.span(trace, span, **attrs)


def _purge_quiet(queue: "TaskQueue") -> None:
    """End-of-job lease cleanup; debris is harmless (claims on a finished
    sweep's digest can never be leased again), so never let it mask the
    job's real outcome."""
    try:
        queue.purge()
    except Exception:
        pass


def _close_abandoned_session(future) -> None:
    """Done-callback releasing a session whose job was cancelled while
    ``open_session`` was still running on the executor thread."""
    if future.cancelled() or future.exception() is not None:
        return  # open failed: open_session released the lock itself
    future.result().close()


class _WorkerState:
    """One attached fleet worker: identity, liveness, outstanding leases."""

    def __init__(self, worker_id: str, name: str, now: float) -> None:
        self.worker_id = worker_id
        self.name = name
        self.last_beat = now
        #: ``(sweep_id, coord)`` pairs this worker currently holds.
        self.leases: Set[Tuple[str, TaskCoord]] = set()


class _JobDispatch:
    """One running job's task pool, drained by locals and fleet alike.

    Pure event-loop state (every mutation happens on the coordinator's
    loop, under one condition): ``pending`` holds coordinates nobody is
    executing, ``out`` maps in-flight coordinates to their owner (``""``
    for a local executor slot, a worker id for a fleet claim).  A
    coordinate leaves the pool for good when the session records its
    outcome; a dead owner's coordinates :meth:`requeue` and wake every
    waiter — re-issue is just another checkout.
    """

    def __init__(self, session, queue: Optional[TaskQueue]) -> None:
        self.session = session
        self.queue = queue
        self.pending: Deque[TaskCoord] = deque(session.pending)
        self.out: Dict[TaskCoord, str] = {}
        self.out_since: Dict[TaskCoord, float] = {}
        self.error: Optional[str] = None
        self.closed = False
        #: Graceful-shutdown latch: no *new* checkouts (local slots or
        #: fleet leases), but in-flight tasks still deliver and journal.
        self.draining = False
        self.reissued = 0
        self.cond = asyncio.Condition()
        #: Serialises journal appends (locals + fleet completes share one
        #: journal writer) and orders the dedup check with the append.
        self.record_lock = asyncio.Lock()

    @property
    def finished(self) -> bool:
        return (
            self.error is not None
            or self.closed
            or len(self.session.outcomes) >= self.session.total
        )

    async def checkout(self, owner: str) -> Optional[TaskCoord]:
        """Pop a pending coordinate for ``owner`` (non-blocking)."""
        async with self.cond:
            if self.finished or self.draining or not self.pending:
                return None
            coord = self.pending.popleft()
            self.out[coord] = owner
            self.out_since[coord] = time.monotonic()
            return coord

    async def checkout_wait(self, owner: str) -> Optional[TaskCoord]:
        """Like :meth:`checkout`, but block until work exists or the job
        ends — the local puller loop's idle state."""
        async with self.cond:
            while not self.pending and not self.finished and not self.draining:
                await self.cond.wait()
            if self.finished or self.draining or not self.pending:
                return None
            coord = self.pending.popleft()
            self.out[coord] = owner
            self.out_since[coord] = time.monotonic()
            return coord

    async def forget(self, coord: TaskCoord) -> None:
        """Drop in-flight bookkeeping for a completed coordinate."""
        async with self.cond:
            self.out.pop(coord, None)
            self.out_since.pop(coord, None)
            self.cond.notify_all()

    async def requeue(
        self, coord: TaskCoord, owner: str, reissue: bool = True
    ) -> bool:
        """Return ``owner``'s in-flight coordinate to the pool (re-issue).

        Only the recorded owner may requeue — a slow worker whose task was
        already re-issued *and* completed by a successor must not push the
        coordinate back a second time.  ``reissue=False`` skips the
        re-issue counter (checkout backed out before work was assigned).
        """
        async with self.cond:
            if self.out.get(coord) != owner:
                return False
            del self.out[coord]
            self.out_since.pop(coord, None)
            if coord not in self.session.outcomes:
                self.pending.append(coord)
                if reissue:
                    self.reissued += 1
            self.cond.notify_all()
            return True

    async def fail(self, message: str) -> None:
        async with self.cond:
            if self.error is None:
                self.error = message
            self.cond.notify_all()

    async def wait_finished(self) -> None:
        async with self.cond:
            while not self.finished:
                await self.cond.wait()
        if self.error is not None:
            raise RuntimeError(self.error)


class SweepJob:
    """One submitted sweep's live state: events, status, result."""

    def __init__(
        self,
        sweep_id: str,
        spec: SweepSpec,
        resume: bool,
        tenant: Optional[str] = None,
        recovered: bool = False,
    ) -> None:
        self.sweep_id = sweep_id
        self.spec = spec
        self.resume = resume
        self.tenant = tenant
        #: True when this job was re-adopted from a crashed server's
        #: intent record rather than submitted by a client.
        self.recovered = recovered
        #: ``<tenant>:<digest>`` — the coordinator's journal-writer
        #: serialisation key (two tenants share a digest without sharing
        #: a journal, so the digest alone under-keys the lock).
        self.lock_key = ""
        self.state = "queued"
        self.total = spec.num_tasks
        self.plan_counts: Optional[Dict[str, int]] = None
        self.error = ""
        self.result: Optional[SweepResult] = None
        #: Journal-entry dicts in completion order (replayed rows first).
        #: Append-only — watcher cursors rely on it.
        self.events: List[dict] = []
        #: Live task pool while running (fleet lease/complete target).
        #: Kept after the job ends — the re-issue count outlives the run.
        self.dispatch: Optional[_JobDispatch] = None
        self._cond = asyncio.Condition()
        self._task: Optional[asyncio.Task] = None
        self._ledger_released = False

    @property
    def done(self) -> int:
        return len(self.events)

    @property
    def reissued(self) -> int:
        """Coordinates re-issued after a worker death / lease expiry."""
        return 0 if self.dispatch is None else self.dispatch.reissued

    def status(self) -> dict:
        """JSON-ready snapshot (what the wire protocol's ``status`` returns)."""
        return {
            "sweep_id": self.sweep_id,
            "state": self.state,
            "done": self.done,
            "total": self.total,
            "plan": self.plan_counts,
            "reissued": self.reissued,
            "tenant": self.tenant,
            "recovered": self.recovered,
            "error": self.error,
        }


class SweepCoordinator:
    """Runs sweeps for many clients over one store, streaming outcomes.

    Parameters
    ----------
    store:
        The shared :class:`~repro.store.artifacts.ArtifactStore` (or its
        root directory) every sweep journals into and calibrates from.
    workers:
        Concurrent *local* task executions across all live sweeps.  ``0``
        runs no tasks in-process: the coordinator becomes a pure fleet
        queue and every coordinate waits for an attached worker to lease
        it.
    lease_ttl:
        Fleet lease lifetime (seconds): how long a silent worker may hold
        a task before its claim expires and the coordinate is re-issued.
    heartbeat_timeout:
        How long an attached worker may go without any request before it
        is evicted and its leases re-issued (default ``2 * lease_ttl``).
    use_processes:
        ``False`` (default) executes tasks on a thread pool inside this
        process — cheap start-up.  ``True`` uses a process pool: full CPU
        parallelism for cold grids.  Either way calibrations are shared
        through the store's calibration tier.
    max_finished_jobs:
        Terminal (done/failed/cancelled) jobs kept queryable, oldest
        evicted first.  A long-running server would otherwise retain
        every submission's full event list and result forever; live
        watchers of an evicted job finish unharmed (they hold the job
        object), but ``status``/``results`` for its id then report
        unknown — re-submit the spec instead (warm, so nearly free).
    server_id:
        This coordinator's durable identity in the store.  Accepted
        sweeps are recorded as intent objects under
        ``server/<server_id>/sweeps/`` until they complete;
        :meth:`recover` re-adopts whatever a crashed instance with the
        same id left behind.
    max_pending_tasks:
        Admission threshold: a submission that would push the *backlog*
        (unfinished tasks across all active sweeps) past this cap is
        refused with a structured ``saturated`` error carrying a
        ``retry_after`` hint, instead of queued.  An idle coordinator
        always admits (a single over-sized spec must remain runnable).
        ``None`` disables the cap.
    tenant_quotas / default_quota:
        Per-tenant :class:`~repro.service.tenancy.TenantQuota` limits
        (and the fallback for tenants without an entry).  Enforced at
        admission by a :class:`~repro.service.tenancy.TenantLedger`.
    """

    def __init__(
        self,
        store: StoreLike,
        workers: int = 1,
        use_processes: bool = False,
        max_finished_jobs: int = 64,
        lease_ttl: float = 30.0,
        heartbeat_timeout: Optional[float] = None,
        server_id: str = "default",
        max_pending_tasks: Optional[int] = None,
        tenant_quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
    ) -> None:
        self.store = (
            store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        )
        self.workers = max(0, int(workers))
        self.lease_ttl = float(lease_ttl)
        self.heartbeat_timeout = (
            2.0 * self.lease_ttl
            if heartbeat_timeout is None
            else float(heartbeat_timeout)
        )
        self.use_processes = bool(use_processes)
        if self.use_processes and not self.store.backend.cross_process:
            # A pool worker reopening mem:// (or an injected-client s3://)
            # would see a different, empty store — warm reuse and the
            # shared calibration tier would silently vanish.  Threads
            # share the in-process backend; refuse the combination loudly.
            raise ValueError(
                f"store {self.store.locator} is process-local; "
                f"use threads (use_processes=False) to serve it"
            )
        self.max_finished_jobs = max(1, int(max_finished_jobs))
        self.server_id = validate_tenant(server_id)  # same key grammar
        self.max_pending_tasks = (
            None if max_pending_tasks is None else max(1, int(max_pending_tasks))
        )
        self._ledger = TenantLedger(tenant_quotas, default_quota)
        self._executor: Optional[Executor] = None
        #: Per-tenant ArtifactStore over the tenant's ``tenants/<id>/``
        #: prefix view; ``None`` → root store.
        self._tenant_stores: Dict[Optional[str], ArtifactStore] = {
            None: self.store
        }
        self._jobs: Dict[str, SweepJob] = {}
        self._digest_locks: Dict[str, asyncio.Lock] = {}
        self._next_id = 1
        self._fleet: Dict[str, _WorkerState] = {}
        self._worker_ids = itertools.count(1)
        self._reaper: Optional[asyncio.Task] = None
        self._draining = False
        self.recovered_count = 0
        #: EWMA seconds-per-journaled-row, feeding ``retry_after`` hints.
        self._rate_ema: Optional[float] = None
        self._last_publish: Optional[float] = None

    # ------------------------------------------------------------------
    # Submission / lifecycle
    # ------------------------------------------------------------------
    async def submit(
        self,
        spec: SweepSpec,
        resume: bool = False,
        tenant: Optional[str] = None,
        _sweep_id: Optional[str] = None,
        _recovered: bool = False,
    ) -> SweepJob:
        """Schedule a sweep; returns its job immediately (state ``queued``).

        ``tenant`` namespaces the sweep's journal, artifacts and queue
        leases under ``tenants/<id>/`` in the shared store and charges
        the tenant's quota ledger.  Over-quota or past-saturation
        submissions raise :class:`~repro.service.tenancy.AdmissionError`
        *before* anything is queued or written.
        """
        if tenant is not None:
            tenant = validate_tenant(tenant)
        if self._draining:
            raise AdmissionError(
                "shutdown", "server is draining and accepts no new sweeps"
            )
        self._admit(spec, tenant, force=_recovered)
        digest = journal_spec_digest(spec)
        if _sweep_id is None:
            sweep_id = f"{digest}-{self._next_id}"
            self._next_id += 1
        else:
            # recovery re-adopts under the *original* id so clients can
            # resume status()/watch(cursor) across the restart; keep the
            # id counter ahead of every adopted suffix
            sweep_id = _sweep_id
            try:
                suffix = int(sweep_id.rsplit("-", 1)[1])
            except (IndexError, ValueError):
                suffix = 0
            self._next_id = max(self._next_id, suffix + 1)
        job = SweepJob(sweep_id, spec, resume, tenant=tenant, recovered=_recovered)
        job.lock_key = f"{tenant or ''}:{digest}"
        loop = asyncio.get_running_loop()
        try:
            # durable intent *before* the job is visible: a crash from
            # here on leaves either nothing or a recoverable sweep
            await loop.run_in_executor(None, _retrying, self._write_intent, job)
        except Exception:
            self._ledger.release(tenant, spec.num_tasks)
            raise
        self._jobs[sweep_id] = job
        _count("repro_sweeps_submitted_total", "Sweeps accepted for execution")
        _span(
            digest,
            "submit",
            sweep_id=sweep_id,
            tenant=tenant or "",
            tasks=job.total,
            resume=bool(resume),
            recovered=bool(_recovered),
        )
        job._task = asyncio.create_task(self._run_job(job, digest))
        return job

    def _admit(
        self, spec: SweepSpec, tenant: Optional[str], force: bool = False
    ) -> None:
        """Admission gate: refuse (structured) rather than queue."""
        tasks = spec.num_tasks
        if not force and self.max_pending_tasks is not None:
            backlog = sum(
                max(0, j.total - j.done)
                for j in self._jobs.values()
                if j.state in ACTIVE_STATES
            )
            if backlog > 0 and backlog + tasks > self.max_pending_tasks:
                excess = backlog + tasks - self.max_pending_tasks
                raise AdmissionError(
                    "saturated",
                    f"executor backlog {backlog} + {tasks} new tasks "
                    f"exceeds the admission cap {self.max_pending_tasks}",
                    retry_after=self._retry_after(excess),
                )
        self._ledger.admit(tenant, tasks, force=force)

    def _retry_after(self, excess_tasks: int) -> float:
        """Hint (seconds) until ``excess_tasks`` of backlog likely drains,
        from the observed per-row delivery rate."""
        per_task = self._rate_ema if self._rate_ema is not None else 1.0
        hint = min(60.0, max(0.5, excess_tasks * per_task))
        telemetry = obs.active()
        if telemetry is not None:
            telemetry.gauge(
                "repro_retry_after_seconds",
                "Latest backpressure retry_after hint handed to a client",
            ).set(hint)
        return hint

    # -- durable intents + crash recovery ------------------------------
    def _intent_key(self, sweep_id: str) -> str:
        return f"server/{self.server_id}/sweeps/{sweep_id}.json"

    def _write_intent(self, job: SweepJob) -> None:
        payload = json.dumps(
            {
                "sweep_id": job.sweep_id,
                "tenant": job.tenant,
                "resume": job.resume,
                "spec": job.spec.to_dict(),
                "version": __version__,
            },
            sort_keys=True,
        ).encode("utf-8")
        self.store.backend.put_atomic(self._intent_key(job.sweep_id), payload)

    def _drop_intent(self, job: SweepJob) -> None:
        """Remove the recovery record; failure is survivable (a later
        :meth:`recover` would re-adopt via resume — pure replay, no
        re-execution, same bits)."""
        try:
            _retrying(self.store.backend.delete, self._intent_key(job.sweep_id))
        except Exception:
            pass

    async def recover(self) -> List[SweepJob]:
        """Re-adopt the sweeps a crashed instance of *this* server left
        interrupted.

        Scans ``server/<server_id>/sweeps/`` for intent records, then
        resubmits each through the journal resume path under its original
        sweep id: rows already journaled replay (bit-identical, zero
        duplicates — the journal's coordinate dedup plus the resume
        contract), only the remainder executes.  Stale journal advisory
        locks (the dead process's pid) are reclaimed by the journal layer
        on open; expired fleet leases are reclaimed per job as it starts.
        Call once, after :class:`SweepServer` binds but before serving.
        """
        loop = asyncio.get_running_loop()
        prefix = f"server/{self.server_id}/sweeps/"
        keys = await loop.run_in_executor(
            None, _retrying, self.store.backend.list_prefix, prefix
        )
        adopted: List[SweepJob] = []
        for key in sorted(keys):
            data = await loop.run_in_executor(
                None, _retrying, self.store.backend.get, key
            )
            if data is None:
                continue
            try:
                intent = json.loads(data.decode("utf-8"))
                sweep_id = str(intent["sweep_id"])
                spec = SweepSpec.from_dict(intent["spec"])
                tenant = intent.get("tenant")
            except Exception:
                # poison intent: unrecoverable by construction — drop it
                # rather than wedge every future restart
                await loop.run_in_executor(
                    None, _retrying, self.store.backend.delete, key
                )
                continue
            if sweep_id in self._jobs:
                continue
            job = await self.submit(
                spec,
                resume=True,
                tenant=tenant,
                _sweep_id=sweep_id,
                _recovered=True,
            )
            adopted.append(job)
        self.recovered_count += len(adopted)
        return adopted

    async def drain(self, grace: float = 10.0) -> None:
        """Graceful shutdown: stop admitting, let in-flight tasks journal,
        then stop.

        New submissions and fleet leases are refused immediately;
        coordinates already executing get up to ``grace`` seconds to
        deliver (each landing in the journal as usual).  Jobs still
        unfinished are then cancelled — their intent records *survive*,
        so the next :meth:`recover` resumes them exactly where the drain
        stopped.  Finishes by closing the fleet and the executor.
        """
        self._draining = True
        active = [j for j in self._jobs.values() if j.state in ACTIVE_STATES]
        for job in active:
            dispatch = job.dispatch
            if dispatch is not None:
                async with dispatch.cond:
                    dispatch.draining = True
                    dispatch.cond.notify_all()
        deadline = time.monotonic() + max(0.0, grace)
        for job in active:
            dispatch = job.dispatch
            while (
                job.state in ACTIVE_STATES
                and dispatch is not None
                and dispatch.out
                and not dispatch.finished
                and time.monotonic() < deadline
            ):
                await asyncio.sleep(0.02)
        for job in active:
            if job.state in ACTIVE_STATES and job._task is not None:
                job._task.cancel()
                try:
                    await job._task
                except asyncio.CancelledError:
                    pass
                if job.state in ACTIVE_STATES:
                    await self._set_state(job, "cancelled")
        await self.close()

    def job(self, sweep_id: str) -> SweepJob:
        try:
            return self._jobs[sweep_id]
        except KeyError:
            raise KeyError(f"unknown sweep {sweep_id!r}") from None

    def status(self, sweep_id: str) -> dict:
        return self.job(sweep_id).status()

    def jobs(self) -> List[SweepJob]:
        """All jobs this coordinator has seen, submission order."""
        return list(self._jobs.values())

    def trace_spans(self, sweep_id: str) -> List[dict]:
        """The live span chain for one sweep, in causal order.

        Served by the wire protocol's ``trace`` verb.  Returns ``[]``
        when telemetry is disabled — the journal-stitching fallback
        (:func:`repro.obs.spans_from_journal_rows`) still works offline.
        """
        telemetry = obs.active()
        if telemetry is None:
            return []
        return obs.sort_spans(telemetry.spans.sweep_events(sweep_id))

    async def cancel(self, sweep_id: str) -> dict:
        """Stop a sweep.  Completed tasks stay journaled, so a later
        ``submit(..., resume=True)`` of the same spec picks up exactly
        where the cancellation landed."""
        job = self.job(sweep_id)
        if job.state in ACTIVE_STATES and job._task is not None:
            job._task.cancel()
            try:
                await job._task
            except asyncio.CancelledError:
                pass
            if job.state in ACTIVE_STATES:
                # cancelled before the job coroutine ever ran: its own
                # cancellation handler never fired, so settle the state
                # here (watchers and result() waiters must not hang)
                await self._set_state(job, "cancelled")
        # an explicit cancel is a client decision: a restart must *not*
        # resurrect the sweep (unlike drain/crash, which keep the intent)
        await asyncio.get_running_loop().run_in_executor(
            None, self._drop_intent, job
        )
        return job.status()

    async def result(self, sweep_id: str) -> SweepResult:
        """Wait for a sweep to finish; its assembled result, or raise with
        the failure/cancellation story."""
        job = self.job(sweep_id)
        async with job._cond:
            while job.state in ACTIVE_STATES:
                await job._cond.wait()
        if job.state == "done":
            assert job.result is not None
            return job.result
        raise RuntimeError(
            f"sweep {sweep_id} {job.state}"
            + (f": {job.error}" if job.error else "")
        )

    def watch(self, sweep_id: str, cursor: int = 0) -> AsyncIterator[dict]:
        """Stream a sweep's task events: replay missed rows, then live.

        Resolves the job *eagerly* — an unknown sweep raises here, and
        the returned iterator holds the job object itself, so retention
        eviction (``max_finished_jobs``) between subscription and first
        iteration cannot lose a row (regression pinned in
        ``tests/service_resilience.py``).  ``cursor`` skips events
        already seen: event index == journal row index, so a reconnecting
        client passes the count of rows it holds and receives exactly the
        remainder.
        """
        return self.watch_job(self.job(sweep_id), cursor)

    async def watch_job(
        self, job: SweepJob, cursor: int = 0
    ) -> AsyncIterator[dict]:
        """Stream ``job``'s events from ``cursor``; see :meth:`watch`.

        Every watcher — whenever it subscribes — receives every journal
        row past its cursor exactly once, in the journal's (completion)
        order: the event list is append-only and each watcher holds a
        monotone cursor into it.  Ends when the job reaches a terminal
        state and the cursor has drained.
        """
        cursor = max(0, int(cursor))
        while True:
            async with job._cond:
                while cursor >= len(job.events) and job.state in ACTIVE_STATES:
                    await job._cond.wait()
                batch = list(job.events[cursor:])
                finished = job.state not in ACTIVE_STATES
            for event in batch:
                yield event
            cursor += len(batch)
            if finished and cursor >= len(job.events):
                return

    async def close(self) -> None:
        """Cancel live jobs, drop the fleet and release the executor."""
        for worker_id in list(self._fleet):
            await self.detach_worker(worker_id)
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        for job in list(self._jobs.values()):
            if job.state in ACTIVE_STATES:
                await self.cancel(job.sweep_id)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Fleet: attach / lease / complete / heartbeat
    # ------------------------------------------------------------------
    def attach_worker(self, name: str = "", version: Optional[str] = None) -> dict:
        """Register a fleet worker; returns its id and the lease terms.

        The worker's engine version must match the server's exactly —
        fleet outcomes splice into one journal, and the bit-identical
        promise only holds within one engine version (same refusal the
        journal itself makes on resume).
        """
        if version != __version__:
            raise ValueError(
                f"worker version {version!r} does not match server "
                f"{__version__}; fleet results are only bit-identical "
                f"within one engine version — upgrade the worker"
            )
        worker_id = f"w{next(self._worker_ids)}" + (f"-{name}" if name else "")
        self._fleet[worker_id] = _WorkerState(worker_id, name, time.monotonic())
        self._ensure_reaper()
        return {
            "worker_id": worker_id,
            "lease_ttl": self.lease_ttl,
            "heartbeat_timeout": self.heartbeat_timeout,
        }

    def _require_worker(self, worker_id) -> _WorkerState:
        if not isinstance(worker_id, str) or not worker_id:
            raise ValueError("a 'worker_id' string is required; attach first")
        worker = self._fleet.get(worker_id)
        if worker is None:
            raise ValueError(
                f"unknown worker {worker_id!r} — attach first (a worker "
                f"that misses heartbeats past the timeout is evicted and "
                f"must re-attach)"
            )
        worker.last_beat = time.monotonic()
        return worker

    async def lease_task(self, worker_id: str) -> Optional[dict]:
        """Claim one pending coordinate for ``worker_id``.

        Scans running jobs in submission order; the claim is published as
        a backend-held lease before the assignment leaves this method, so
        a coordinator crash cannot strand an invisible claim.  Returns
        the wire assignment (``task_payload`` + ``sweep_id``), or ``None``
        when no work is pending anywhere.
        """
        worker = self._require_worker(worker_id)
        if self._draining:
            return None
        loop = asyncio.get_running_loop()
        for job in list(self._jobs.values()):
            dispatch = job.dispatch
            if dispatch is None or job.state != "running" or dispatch.closed:
                continue
            coord = await dispatch.checkout(worker_id)
            if coord is None:
                continue
            if dispatch.queue is not None:
                claimed = await loop.run_in_executor(
                    None, dispatch.queue.claim, coord, worker_id
                )
                if not claimed:
                    # a live foreign lease (zombie claim not yet expired):
                    # put the coordinate back without counting a re-issue
                    await dispatch.requeue(coord, worker_id, reissue=False)
                    continue
            worker.leases.add((job.sweep_id, coord))
            store_root = (
                dispatch.session.store_root
                if dispatch.session.store is not None
                and dispatch.session.store.backend.cross_process
                else None
            )
            assignment = task_payload(
                job.spec,
                coord,
                store_root,
                store_options=(
                    dispatch.session.store_options if store_root is not None else None
                ),
            )
            assignment["sweep_id"] = job.sweep_id
            # The task's deterministic trace id rides the assignment so
            # the worker's spans and the coordinator's stitch together.
            trace = obs.task_trace_id(
                job.sweep_id.rsplit("-", 1)[0], coord[0], coord[1]
            )
            assignment["trace"] = trace
            _span(
                trace,
                "lease",
                sweep_id=job.sweep_id,
                worker=worker_id,
            )
            return assignment
        return None

    async def complete_task(
        self, worker_id: str, sweep_id: str, entry: dict
    ) -> dict:
        """Accept one remote task outcome; exactly-once by coordinate.

        The entry is the worker's :func:`~repro.store.journal.task_entry`
        dict.  A duplicate delivery — the task was re-issued after this
        worker's lease expired and the successor already landed — answers
        ``{"accepted": false, "duplicate": true}`` and journals nothing.
        Malformed entries raise ``ValueError`` (a structured wire error,
        not a dropped connection).
        """
        worker = self._require_worker(worker_id)
        if not isinstance(entry, dict):
            raise ValueError(
                "complete needs an 'entry' object (a journal task row)"
            )
        try:
            outcome = outcome_from_entry(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed task entry: {exc}") from None
        coord = (outcome.backend_index, outcome.trials)
        job = self._jobs.get(sweep_id)
        if job is None:
            raise ValueError(f"unknown sweep {sweep_id!r}")
        worker.leases.discard((sweep_id, coord))
        dispatch = job.dispatch
        loop = asyncio.get_running_loop()
        if dispatch is not None and dispatch.queue is not None:
            await loop.run_in_executor(
                None, dispatch.queue.release, coord, worker_id
            )
        if dispatch is None or job.state not in ACTIVE_STATES or dispatch.closed:
            return {
                "accepted": False,
                "duplicate": False,
                "reason": f"sweep {sweep_id} is {job.state}",
            }
        if coord not in dispatch.session.coords:
            raise ValueError(
                f"task ({coord[0]}, {list(coord[1])}) is not a coordinate "
                f"of sweep {sweep_id}"
            )
        accepted = await self._deliver(job, dispatch, coord, outcome)
        _span(
            outcome.trace
            or obs.task_trace_id(
                job.sweep_id.rsplit("-", 1)[0], coord[0], coord[1]
            ),
            "complete",
            sweep_id=sweep_id,
            worker=worker_id,
            accepted=accepted,
        )
        return {"accepted": accepted, "duplicate": not accepted}

    async def fail_task(
        self, worker_id: str, sweep_id: str, message: str
    ) -> dict:
        """A worker's task raised: fail the job (mirrors local behaviour,
        where a task exception fails the sweep rather than retrying a
        deterministic error forever)."""
        worker = self._require_worker(worker_id)
        job = self._jobs.get(sweep_id)
        if job is None:
            raise ValueError(f"unknown sweep {sweep_id!r}")
        dispatch = job.dispatch
        loop = asyncio.get_running_loop()
        for sid, coord in list(worker.leases):
            if sid != sweep_id:
                continue
            worker.leases.discard((sid, coord))
            if dispatch is not None and dispatch.queue is not None:
                await loop.run_in_executor(
                    None, dispatch.queue.release, coord, worker_id
                )
        if (
            dispatch is not None
            and job.state in ACTIVE_STATES
            and not dispatch.closed
        ):
            await dispatch.fail(f"fleet worker {worker_id}: {message}")
        return {"accepted": False, "duplicate": False, "failed": True}

    async def heartbeat_worker(self, worker_id: str) -> dict:
        """Refresh a worker's liveness and renew its store-held leases.

        A lease that fails to renew was reclaimed — its task is being
        re-issued; the worker's eventual ``complete`` will be answered as
        a duplicate, never double-journaled."""
        worker = self._require_worker(worker_id)
        loop = asyncio.get_running_loop()
        renewed = 0
        for sweep_id, coord in list(worker.leases):
            job = self._jobs.get(sweep_id)
            dispatch = job.dispatch if job is not None else None
            if dispatch is None or dispatch.queue is None or dispatch.closed:
                continue
            ok = await loop.run_in_executor(
                None, dispatch.queue.renew, coord, worker_id
            )
            if ok:
                renewed += 1
            else:
                worker.leases.discard((sweep_id, coord))
        return {"renewed": renewed, "leases": len(worker.leases)}

    async def detach_worker(self, worker_id: str) -> None:
        """Drop a worker (clean goodbye, connection drop, or eviction):
        its leases are released and its in-flight coordinates re-issued."""
        worker = self._fleet.pop(worker_id, None)
        if worker is None:
            return
        loop = asyncio.get_running_loop()
        for sweep_id, coord in list(worker.leases):
            job = self._jobs.get(sweep_id)
            dispatch = job.dispatch if job is not None else None
            if dispatch is None:
                continue
            if dispatch.queue is not None:
                await loop.run_in_executor(
                    None, dispatch.queue.release, coord, worker_id
                )
            await dispatch.requeue(coord, worker_id)

    def fleet(self) -> List[dict]:
        """Attached workers (id, name, outstanding leases) — monitoring."""
        return [
            {
                "worker_id": w.worker_id,
                "name": w.name,
                "leases": len(w.leases),
            }
            for w in self._fleet.values()
        ]

    def _ensure_reaper(self) -> None:
        if self._reaper is None or self._reaper.done():
            self._reaper = asyncio.create_task(self._reap_loop())

    async def _reap_loop(self) -> None:
        """Re-issue the work of dead or stalled workers.

        Two failure signals, one consequence: a worker that stops
        *talking* (heartbeat timeout — also covers abrupt connection
        drops, since the server detaches those immediately) is evicted
        wholesale; a worker that keeps talking but lets a task's
        *store lease* expire (stalled execution, renewal lost to a
        partition) has just that coordinate re-issued.  Either way the
        original outcome may still arrive later — the coordinate dedup in
        :meth:`_deliver` (and the journal's own) makes that a duplicate,
        not a double append.
        """
        loop = asyncio.get_running_loop()
        interval = max(
            0.01, min(self.lease_ttl, self.heartbeat_timeout) / 4.0
        )
        while self._fleet:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for worker in list(self._fleet.values()):
                if now - worker.last_beat > self.heartbeat_timeout:
                    await self.detach_worker(worker.worker_id)
            for job in list(self._jobs.values()):
                dispatch = job.dispatch
                if (
                    dispatch is None
                    or job.state != "running"
                    or dispatch.closed
                    or dispatch.queue is None
                ):
                    continue
                for coord, owner in list(dispatch.out.items()):
                    if not owner:
                        continue  # local slots cannot die silently
                    since = dispatch.out_since.get(coord, now)
                    if now - since < self.lease_ttl:
                        continue  # grace: the claim may still be in flight
                    expired = await loop.run_in_executor(
                        None, dispatch.queue.expired, coord
                    )
                    if expired:
                        holder = self._fleet.get(owner)
                        if holder is not None:
                            holder.leases.discard((job.sweep_id, coord))
                        await dispatch.requeue(coord, owner)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _get_executor(self) -> Executor:
        if self._executor is None:
            width = max(1, self.workers)  # only reached when pullers exist
            if self.use_processes:
                self._executor = process_pool(width)
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=width,
                    thread_name_prefix="repro-sweep",
                )
        return self._executor

    def _tenant_store(self, tenant: Optional[str]) -> ArtifactStore:
        """The store view a tenant runs against.

        One per tenant for the server's lifetime: calibrations are shared
        across a tenant's sweeps but never across tenants (their artifact
        namespaces are disjoint by construction).
        """
        store = self._tenant_stores.get(tenant)
        if store is None:
            store = ArtifactStore(
                tenant_backend(self.store.backend, tenant),
                options=self.store.options,
            )
            self._tenant_stores[tenant] = store
        return store

    async def _publish(self, job: SweepJob, entry: dict, replayed: bool) -> None:
        event = dict(entry)
        event["replayed"] = replayed
        async with job._cond:
            job.events.append(event)
            job._cond.notify_all()
        self._ledger.task_done(job.tenant)
        now = time.monotonic()
        if self._last_publish is not None:
            delta = now - self._last_publish
            self._rate_ema = (
                delta
                if self._rate_ema is None
                else 0.8 * self._rate_ema + 0.2 * delta
            )
        self._last_publish = now
        telemetry = obs.active()
        if telemetry is not None:
            if self._rate_ema is not None:
                telemetry.gauge(
                    "repro_delivery_rate_seconds_per_row",
                    "EWMA seconds per journaled row (retry_after's source)",
                ).set(self._rate_ema)
            telemetry.counter(
                "repro_task_events_published_total",
                "Task events fanned out to watch subscribers, by origin",
                ("origin",),
            ).labels(origin="replayed" if replayed else "live").inc()

    async def _set_state(self, job: SweepJob, state: str) -> None:
        async with job._cond:
            job.state = state
            job._cond.notify_all()
        if state in TERMINAL_STATES:
            if not job._ledger_released:
                job._ledger_released = True
                self._ledger.release(job.tenant, max(0, job.total - job.done))
            # prune before the first await below: a waiter woken by the
            # state flip must already see the post-eviction job table
            self._prune_finished(keep=job.sweep_id)
            if state in ("done", "failed"):
                # the sweep reached a verdict: retire the recovery intent
                # (cancellation keeps it — a drain or crash must resume)
                await asyncio.get_running_loop().run_in_executor(
                    None, self._drop_intent, job
                )

    def _prune_finished(self, keep: str) -> None:
        """Evict the oldest terminal jobs beyond the retention cap (the
        just-finished ``keep`` job always survives this round), then drop
        writer locks that no longer guard any registered job."""
        finished = [
            j for j in self._jobs.values()
            if j.state in TERMINAL_STATES and j.sweep_id != keep
        ]
        excess = len(finished) + 1 - self.max_finished_jobs
        for job in finished[:max(0, excess)]:  # insertion order = oldest first
            del self._jobs[job.sweep_id]
        live_keys = {job.lock_key for job in self._jobs.values()}
        for lock_key in list(self._digest_locks):
            lock = self._digest_locks[lock_key]
            if lock_key not in live_keys and not lock.locked():
                del self._digest_locks[lock_key]

    async def _deliver(
        self, job: SweepJob, dispatch: _JobDispatch, coord, outcome
    ) -> bool:
        """Record one outcome exactly once; ``False`` on a duplicate.

        One choke point for locals and fleet completes alike: the dedup
        check and the journal append happen under ``record_lock``, so two
        deliveries of one coordinate (original + re-issue) can never both
        append.  The journal's own coordinate dedup is the second belt —
        it holds even against an append that landed out-of-band.
        """
        loop = asyncio.get_running_loop()
        async with dispatch.record_lock:
            if dispatch.closed or dispatch.error is not None:
                return False
            if coord in dispatch.session.outcomes:
                await dispatch.forget(coord)
                return False
            # journal append (fsync) off the loop, with transient retry
            await loop.run_in_executor(
                None, _retrying, dispatch.session.record, coord, outcome
            )
            await self._publish(job, task_entry(outcome), replayed=False)
            _count("repro_tasks_completed_total",
                   "Task outcomes recorded (exactly once per coordinate)")
            trace = outcome.trace or obs.task_trace_id(
                job.sweep_id.rsplit("-", 1)[0], coord[0], coord[1]
            )
            _span(
                trace,
                "execute",
                sweep_id=job.sweep_id,
                dur=outcome.duration,
                cache_hits=outcome.cache_hits,
                cache_misses=outcome.cache_misses,
            )
            _span(
                trace,
                "journal_row",
                sweep_id=job.sweep_id,
                row=len(job.events) - 1,
            )
            # charge the tenant's shot allowance for the device work this
            # row represents (replayed rows were paid for pre-crash)
            self._ledger.charge_shots(
                job.tenant,
                sum(rec.shots_spent for rec in outcome.records),
            )
        async with dispatch.cond:
            dispatch.out.pop(coord, None)
            dispatch.out_since.pop(coord, None)
            try:
                # a re-issued coordinate whose *original* delivery just
                # landed may still sit in pending — retire it before a
                # puller wastes a slot re-executing it
                dispatch.pending.remove(coord)
            except ValueError:
                pass
            dispatch.cond.notify_all()
        return True

    async def _local_puller(self, job: SweepJob, dispatch: _JobDispatch) -> None:
        """One local executor slot draining the job's dispatch pool —
        the in-process twin of a fleet worker's lease/complete loop."""
        loop = asyncio.get_running_loop()
        while True:
            coord = await dispatch.checkout_wait("")
            if coord is None:
                return
            _span(
                obs.task_trace_id(
                    job.sweep_id.rsplit("-", 1)[0], coord[0], coord[1]
                ),
                "lease",
                sweep_id=job.sweep_id,
                worker="local",
            )
            session = dispatch.session
            try:
                # exactly the sync runner's dispatch
                outcome = await loop.run_in_executor(
                    self._get_executor(),
                    functools.partial(
                        execute_task,
                        *session.task_args(coord),
                        cache=session.task_cache(),
                        store_options=session.store_options,
                    ),
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                await dispatch.fail(str(exc))
                return
            await self._deliver(job, dispatch, coord, outcome)

    async def _run_job(self, job: SweepJob, digest: str) -> None:
        loop = asyncio.get_running_loop()
        lock = self._digest_locks.setdefault(job.lock_key, asyncio.Lock())
        store = self._tenant_store(job.tenant)
        try:
            async with lock:  # one live writer per journal (queue, don't fail)
                runner = ParallelSweepRunner(
                    workers=1, store=store, resume=job.resume
                )
                # open_session does file I/O (plan probes, journal fsync):
                # off the loop, like every other blocking step below.  The
                # executor thread cannot be interrupted, so a cancellation
                # landing mid-open must still close the session the thread
                # goes on to produce — an abandoned one would hold the
                # journal's advisory lock (our own pid!) and block this
                # spec until the server restarts.
                opening = loop.run_in_executor(
                    None, _retrying, runner.open_session, job.spec
                )
                try:
                    session = await asyncio.shield(opening)
                except asyncio.CancelledError:
                    opening.add_done_callback(_close_abandoned_session)
                    raise
                dispatch: Optional[_JobDispatch] = None
                try:
                    # tasks actually run on the coordinator's shared
                    # executor, not the runner's (unused) pool — report
                    # that width in the assembled result
                    session.workers = (
                        max(1, min(self.workers, len(session.pending)))
                        if session.pending and self.workers
                        else 1
                    )
                    job.plan_counts = (
                        session.plan.counts if session.plan else None
                    )
                    _span(
                        digest,
                        "plan",
                        sweep_id=job.sweep_id,
                        counts=job.plan_counts,
                        pending=len(session.pending),
                        replayed=len(session.outcomes),
                    )
                    dispatch = _JobDispatch(
                        session,
                        TaskQueue(
                            store.backend, digest, ttl=self.lease_ttl
                        ),
                    )
                    job.dispatch = dispatch  # visible before "running"
                    if job.recovered and dispatch.queue is not None:
                        # reconcile the dead instance's fleet leases: the
                        # expired ones are reclaimed now, live-looking
                        # ones (their holders died with the server) age
                        # out by TTL and block nothing but the queue
                        await loop.run_in_executor(
                            None, _retrying, dispatch.queue.reclaim_expired
                        )
                    await self._set_state(job, "running")
                    # Journal-replayed outcomes reach watchers through the
                    # same event channel as live ones, in *journal row
                    # order* (session.outcomes preserves it) — so event
                    # index == journal index, and a watch cursor from
                    # before a crash resumes exactly-once after recovery.
                    for outcome in list(session.outcomes.values()):
                        await self._publish(
                            job, task_entry(outcome), replayed=True
                        )
                    n_local = (
                        min(self.workers, len(session.pending))
                        if session.pending
                        else 0
                    )
                    pullers = [
                        asyncio.create_task(self._local_puller(job, dispatch))
                        for _ in range(n_local)
                    ]
                    waiter = asyncio.create_task(dispatch.wait_finished())
                    try:
                        await asyncio.gather(waiter, *pullers)
                    except BaseException:
                        waiter.cancel()
                        for t in pullers:
                            t.cancel()
                        raise
                finally:
                    if dispatch is not None:
                        # refuse further fleet completes before the journal
                        # closes (an append after close would be orphaned)
                        async with dispatch.record_lock:
                            dispatch.closed = True
                        async with dispatch.cond:
                            dispatch.cond.notify_all()
                        if dispatch.queue is not None:
                            await loop.run_in_executor(
                                None, _purge_quiet, dispatch.queue
                            )
                    await loop.run_in_executor(None, _retrying, session.close)
                job.result = session.assemble()
                await self._set_state(job, "done")
        except asyncio.CancelledError:
            # cancel() owns this path; completed tasks are journaled, so
            # the sweep is resumable from exactly here
            await self._set_state(job, "cancelled")
        except Exception as exc:  # journal refusals, worker crashes, ...
            job.error = str(exc)
            await self._set_state(job, "failed")
