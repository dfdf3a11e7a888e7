"""The fleet worker: a remote task-pulling peer of the sweep service.

:class:`FleetWorker` is the reference client for the wire protocol's
worker verbs (``attach``/``lease``/``complete``/``heartbeat`` — see
:mod:`repro.service.server`).  Its loop is deliberately tiny::

    attach -> [ lease -> execute -> complete ]* -> detach
                  \\-- heartbeat every interval, renewing held leases

Everything that makes the fleet *correct* lives elsewhere: tasks are pure
functions of ``(spec, coordinates)`` (:func:`~repro.pipeline.runner
.execute_task`), so a worker needs no state beyond the assignment payload;
claims are backend-held leases the coordinator manages
(:class:`~repro.service.queue.TaskQueue`); exactly-once journaling is the
coordinator's and the journal's coordinate dedup.  A worker can therefore
die at *any* point of its loop — before execute, after execute, mid-
complete — and the sweep still converges bit-identically: its lease
expires, the coordinate is re-issued, and a late original ``complete`` is
answered ``duplicate`` instead of journaled twice.  The chaos hooks
(``die_after_leases``, ``die_before_complete``) exist so
``tests/fleet_conformance.py`` can script exactly those deaths.

Stores: a worker may run **storeless** (the default) — outcomes are
bit-identical with or without calibration reuse; the store only saves
work.  Pass ``store=`` (an :class:`~repro.store.artifacts.ArtifactStore`
or a locator string) to reuse/persist calibrations locally; otherwise the
worker honours the ``store`` root the assignment carries, when the
server's store is reachable cross-process (the coordinator omits it when
it is not).
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional, Union

from repro import obs
from repro.pipeline.cache import CalibrationCache
from repro.pipeline.runner import execute_payload
from repro.service.client import ServiceError, SweepClient
from repro.service.server import DEFAULT_PORT
from repro.store.artifacts import ArtifactStore
from repro.store.journal import task_entry

__all__ = ["FleetWorker", "WorkerReport"]


def _is_eviction(exc: ServiceError) -> bool:
    """Was this refusal the server evicting us (heartbeat timeout)?

    Eviction is recoverable — the server already re-issued our leases and
    a fresh ``attach`` is always safe — unlike a version mismatch or a
    malformed frame, which would just repeat."""
    return "unknown worker" in str(exc)


class WorkerReport:
    """What one worker run did — the chaos harness's scoreboard."""

    def __init__(self) -> None:
        self.worker_id: Optional[str] = None
        self.leased = 0       #: assignments received
        self.completed = 0    #: completes the server accepted
        self.duplicates = 0   #: completes answered ``duplicate: true``
        self.rejected = 0     #: completes refused (job already terminal)
        self.died = False     #: a chaos hook killed this worker
        self.attaches = 0     #: connections that reached a grant

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerReport(worker_id={self.worker_id!r}, leased={self.leased}, "
            f"completed={self.completed}, duplicates={self.duplicates}, "
            f"rejected={self.rejected}, died={self.died}, "
            f"attaches={self.attaches})"
        )


class FleetWorker:
    """One remote worker process's lease/execute/complete loop.

    Parameters
    ----------
    host, port:
        The sweep server to attach to.
    name:
        Human label folded into the granted worker id (logs, ``fleet()``).
    store:
        Optional local calibration store: an
        :class:`~repro.store.artifacts.ArtifactStore` (in-process tests)
        or a locator string.  ``None`` uses the assignment's own ``store``
        root when present, else runs storeless.
    poll:
        Idle sleep (seconds) between ``lease`` calls answered ``None``.
    heartbeat_interval:
        Seconds between heartbeats; defaults to a third of the granted
        lease TTL (renew well before expiry).
    max_tasks:
        Detach cleanly after completing this many tasks (``None`` = run
        until ``stop`` fires).
    die_after_leases:
        Chaos hook: after receiving this many assignments, drop the
        connection abruptly — no complete, no detach (a mid-task crash).
    die_before_complete:
        Chaos hook: execute the Nth leased task fully, then die *without*
        reporting it (the partition window the lease TTL exists for).
    timeout:
        Per-exchange wire deadline (seconds) handed to the underlying
        :class:`~repro.service.client.SweepClient`; a stalled server
        surfaces as a dropped connection and the worker re-attaches
        instead of hanging mid-lease.  ``None`` disables deadlines.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        name: str = "",
        store: Optional[Union[ArtifactStore, str]] = None,
        poll: float = 0.2,
        heartbeat_interval: Optional[float] = None,
        max_tasks: Optional[int] = None,
        die_after_leases: Optional[int] = None,
        die_before_complete: Optional[int] = None,
        on_result: Optional[Callable[[dict, dict], None]] = None,
        timeout: Optional[float] = 60.0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.name = name
        self.timeout = timeout
        if store is None or isinstance(store, ArtifactStore):
            self._store = store
        else:
            self._store = ArtifactStore(str(store))
        self.poll = float(poll)
        self.heartbeat_interval = heartbeat_interval
        self.max_tasks = max_tasks
        self.die_after_leases = die_after_leases
        self.die_before_complete = die_before_complete
        #: called with ``(task, verdict)`` after every complete exchange
        #: (CLI progress lines; tests)
        self.on_result = on_result
        self.report = WorkerReport()

    # ------------------------------------------------------------------
    def _execute(self, task: dict) -> dict:
        """Run one assignment (blocking; called via ``to_thread``) and
        return its journal-entry dict — the ``complete`` frame's payload."""
        payload = dict(task)
        cache = None
        if self._store is not None:
            # a fresh per-task two-tier cache: same accounting as
            # execute_task's own construction, shared store tier
            payload["store"] = None
            cache = CalibrationCache(self._store)
        outcome = execute_payload(payload, cache=cache)
        telemetry = obs.active()
        if telemetry is not None:
            telemetry.counter(
                "repro_worker_tasks_executed_total",
                "Assignments this worker process executed to completion",
            ).inc()
            telemetry.span(
                outcome.trace or str(task.get("trace", "")),
                "execute",
                sweep_id=str(task.get("sweep_id", "")),
                worker=self.name or "fleet",
                dur=outcome.duration,
                cache_hits=outcome.cache_hits,
                cache_misses=outcome.cache_misses,
            )
        return task_entry(outcome)

    async def run(self, stop: Optional[Callable[[], bool]] = None) -> WorkerReport:
        """Attach and work until ``stop()`` is true, ``max_tasks`` is
        reached, or a chaos hook fires.  Returns the :class:`WorkerReport`.

        Reconnects (fresh attach, fresh worker id) if the server bounces
        mid-run; the first connection failure propagates — a worker
        pointed at nothing should say so, not spin.
        """
        report = self.report
        first = True
        while not (stop is not None and stop()) and not report.died:
            if not first:
                await asyncio.sleep(self.poll)
            try:
                # run() owns the retry loop, so the client gets no
                # connect retries of its own (they would just stack)
                client = await SweepClient(
                    self.host,
                    self.port,
                    timeout=self.timeout,
                    connect_retries=0,
                ).connect()
            except (ConnectionError, OSError):
                if first:
                    raise
                continue  # server bouncing: retry until stop()
            first = False
            try:
                granted = await client.attach(name=self.name)
                report.worker_id = granted["worker_id"]
                report.attaches += 1
                beat = self.heartbeat_interval
                if beat is None:
                    beat = max(0.01, float(granted["lease_ttl"]) / 3.0)
                done = await self._work(client, granted["worker_id"], beat, stop)
                if done:
                    return report
            except ServiceError as exc:
                if _is_eviction(exc):
                    # the server timed us out (e.g. heartbeats starved
                    # behind a long task) and re-issued our leases; a
                    # fresh attach is always safe — resume with a new id
                    continue
                raise  # version mismatch (attach) or a refused frame: fatal
            except (ConnectionError, OSError):
                continue  # dropped mid-loop: reconnect
            finally:
                await client.close()
        return report

    async def _work(
        self,
        client: SweepClient,
        worker_id: str,
        beat: float,
        stop: Optional[Callable[[], bool]],
    ) -> bool:
        """The inner loop on one live connection.  ``True`` = finished for
        good (stop/max_tasks/chaos death); ``False`` = reconnect."""
        report = self.report
        # One connection, strictly sequential frames: the heartbeat shares
        # the socket with lease/complete, so every exchange holds the lock.
        wire = asyncio.Lock()
        stopping = False

        async def heartbeats() -> None:
            while True:
                await asyncio.sleep(beat)
                async with wire:
                    if stopping:
                        return
                    try:
                        await client.heartbeat(worker_id)
                    except ServiceError as exc:
                        if _is_eviction(exc):
                            return  # main loop rediscovers it on next op
                        raise

        beater = asyncio.create_task(heartbeats())
        try:
            while not (stop is not None and stop()):
                async with wire:
                    task = await client.lease(worker_id)
                if task is None:
                    await asyncio.sleep(self.poll)
                    continue
                report.leased += 1
                if (
                    self.die_after_leases is not None
                    and report.leased >= self.die_after_leases
                ):
                    report.died = True  # crash before doing any work
                    return True
                try:
                    entry = await asyncio.to_thread(self._execute, task)
                except Exception as exc:
                    # a task that raises is deterministic — retrying it on
                    # another worker would raise again; fail the sweep like
                    # a local executor slot would
                    async with wire:
                        await client.fail(worker_id, task["sweep_id"], str(exc))
                    raise
                if (
                    self.die_before_complete is not None
                    and report.leased >= self.die_before_complete
                ):
                    report.died = True  # crash with the result in hand
                    return True
                async with wire:
                    verdict = await client.complete(
                        worker_id, task["sweep_id"], entry
                    )
                if verdict.get("accepted"):
                    report.completed += 1
                elif verdict.get("duplicate"):
                    report.duplicates += 1
                else:
                    report.rejected += 1
                if self.on_result is not None:
                    self.on_result(task, verdict)
                if (
                    self.max_tasks is not None
                    and report.completed >= self.max_tasks
                ):
                    break
            async with wire:
                stopping = True
                await client.detach(worker_id)
            return True
        finally:
            stopping = True
            beater.cancel()
            try:
                await beater
            except (
                asyncio.CancelledError,
                ConnectionError,
                OSError,
                ServiceError,
            ):
                pass  # the main path already decided this run's outcome

    def run_sync(self, stop: Optional[Callable[[], bool]] = None) -> WorkerReport:
        """Blocking wrapper (what ``repro worker`` and thread-pool test
        fleets call)."""
        return asyncio.run(self.run(stop))
