"""Sweep service: asyncio coordination, streaming results, warm-first plans.

The repo's fifth subsystem.  ``repro.pipeline`` executes one sweep per
process invocation and blocks until the grid finishes; this package turns
that batch engine into a **long-running, multi-client sweep service**
around one shared :class:`~repro.store.artifacts.ArtifactStore`:

* :class:`~repro.service.planner.SweepPlanner` — pre-scans the store's
  calibration artifact tier and the sweep journal for a spec, partitions
  task coordinates into *journaled* (replayable), *warm* (calibrations on
  disk) and *cold*, orders execution warm-first and sizes the worker pool
  to the cold remainder.  Scheduling only — the engine's coordinate-based
  seed derivation guarantees any order is bit-identical;
* :class:`~repro.service.coordinator.SweepCoordinator` — an asyncio
  coordinator driving the pipeline's :class:`~repro.pipeline.runner.SweepSession`
  task dispatch off the event loop: multiple sweeps run concurrently over
  one shared store, whose calibration tier every task reads and writes
  through a fresh per-task :class:`~repro.pipeline.cache.CalibrationCache`,
  and every completed :class:`~repro.pipeline.runner.TaskOutcome` is
  published to subscribers the moment it lands in the journal (each
  watcher sees every journal row exactly once);
* :class:`~repro.service.server.SweepServer` /
  :class:`~repro.service.client.SweepClient` — a stdlib-asyncio
  line-delimited-JSON protocol (``submit`` / ``status`` / ``watch`` /
  ``cancel`` / ``results``) hosting a store over TCP, so ``repro serve``
  runs the service and ``repro submit --follow`` streams a grid's journal
  rows live from another process or machine;
* :class:`~repro.service.queue.TaskQueue` /
  :class:`~repro.service.fleet.FleetWorker` — the remote worker fleet:
  workers ``attach`` over the same protocol and pull task coordinates
  (``lease`` / ``complete`` / ``heartbeat``); each claim is a
  backend-held lease in the shared store, so a worker that dies mid-task
  is detected by lease expiry and its coordinate re-issued, with
  exactly-once journaling and bit-identical results (``repro worker
  --connect`` joins a fleet from another machine; certified by
  ``tests/fleet_conformance.py``).

Quick start::

    # terminal 1 — host a store as a service
    #   repro serve --store ./sweep-store --port 7341

    # terminal 2 — submit a grid and stream rows as tasks land
    #   repro submit --devices quito lima --trials 3 --follow

    # same thing programmatically
    import asyncio
    from repro.pipeline import BackendSpec, SweepSpec
    from repro.service import SweepCoordinator

    async def main():
        coord = SweepCoordinator("./sweep-store", workers=2)
        spec = SweepSpec(backends=(BackendSpec(kind="device", name="quito"),),
                         trials=3, seed=0)
        job = await coord.submit(spec)
        async for event in coord.watch(job.sweep_id):
            print(event["point"], event["trials"], event["duration"])
        result = await coord.result(job.sweep_id)
        await coord.close()

    asyncio.run(main())
"""

from repro.service.client import ServiceError, SweepClient, submit_and_follow
from repro.service.coordinator import SweepCoordinator, SweepJob
from repro.service.fleet import FleetWorker, WorkerReport
from repro.service.planner import SweepPlanner, TaskPlan
from repro.service.queue import TaskQueue
from repro.service.server import SweepServer
from repro.service.tenancy import (
    AdmissionError,
    TenantLedger,
    TenantQuota,
    tenant_backend,
)

__all__ = [
    "SweepPlanner",
    "TaskPlan",
    "SweepCoordinator",
    "SweepJob",
    "SweepServer",
    "SweepClient",
    "ServiceError",
    "submit_and_follow",
    "TaskQueue",
    "FleetWorker",
    "WorkerReport",
    "AdmissionError",
    "TenantQuota",
    "TenantLedger",
    "tenant_backend",
]
