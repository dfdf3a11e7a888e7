"""Store-aware sweep planning: warm-first ordering, cold-sized pools.

Before this module, the engine discovered store state *inside* tasks: a
worker opened the calibration cache, probed the artifact tier per method
and either restored or re-measured.  That is correct (the cache is pure
memoization) but blind for scheduling — a pool of N processes spins up
even when every task would hit the warm tier, and cold tasks can queue
behind warm ones, delaying the first *new* measurement.

:class:`SweepPlanner` moves the probe ahead of execution.  For a
:class:`~repro.pipeline.spec.SweepSpec` it pre-scans, read-only:

* the **sweep journal** — task coordinates already journaled by a previous
  run of this spec (replayable verbatim under ``resume=True``);
* the **calibration artifact tier** — for each remaining coordinate, the
  exact artifact keys :func:`~repro.pipeline.runner.execute_task` would
  look up (same scope derivation, same key layout — see
  :func:`~repro.pipeline.runner.task_calibration_scopes`).

and partitions coordinates into ``journaled`` / ``warm`` / ``partial`` /
``cold``.  The resulting :class:`TaskPlan` orders execution **warm-first**
(persisted calibrations restore in milliseconds, so their rows stream out
first), partially-warm next, and recommends a worker-pool width covering
the cold remainder plus discounted shares of the rest.

Warmth is measured at *calibration-event granularity*: a coordinate is
warm when **every** calibration artifact its run would look up is present,
cold when none is, and **partially warm** in between — with
:meth:`TaskPlan.warmth_fraction` reporting exactly how much of the
calibration work is already banked (the node-granular sibling of this
idea, per-qubit/per-edge partial reuse, lives in :mod:`repro.calgraph`).
Before the partial tier, one missing method artifact out of eight landed
the whole task in cold and the pool was sized for full-cost re-measurement
it would never perform.

Planning is advisory, never semantic: the engine derives every stochastic
stream from ``(spec seed, grid coordinates)``, so executing tasks in any
order — or misclassifying a task entirely — cannot change one bit of the
assembled :class:`~repro.pipeline.runner.SweepResult` (pinned in
``tests/test_service.py``).  Warmth itself is a heuristic: methods that
never persist state (Bare, SIM, AIM, JIGSAW) are invisible to the probe,
and the expected-artifact set mirrors the engine's scalability caps (Full
and Linear go N/A above their qubit caps and persist nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple, Union

from repro import obs
from repro.pipeline.cache import calibration_key
from repro.pipeline.runner import (
    StoreLike,
    TaskCoord,
    task_calibration_scopes,
)
from repro.pipeline.spec import SweepSpec
from repro.store.artifacts import ArtifactStore
from repro.store.journal import SweepJournal, journal_spec_digest

__all__ = ["TaskPlan", "SweepPlanner"]


@dataclass(frozen=True)
class TaskPlan:
    """One spec's scheduling partition against one store.

    ``journaled`` coordinates replay from the journal (no execution at
    all), ``warm`` ones have every expected calibration artifact
    persisted, ``partial`` ones some, ``cold`` ones none.  All four are in
    canonical coordinate order; :attr:`execution_order` is what actually
    runs — warm, then partially warm, then cold.
    """

    digest: str
    journaled: Tuple[TaskCoord, ...]
    warm: Tuple[TaskCoord, ...]
    cold: Tuple[TaskCoord, ...]
    partial: Tuple[TaskCoord, ...] = ()
    #: ``{coord: fraction of expected calibration artifacts present}`` for
    #: every non-journaled coordinate the planner probed (1.0 = warm,
    #: 0.0 = cold; strictly between for the partial tier).
    warmth: Mapping[TaskCoord, float] = field(default_factory=dict)

    @property
    def execution_order(self) -> Tuple[TaskCoord, ...]:
        """Coordinates still to execute: warm, then partially warm, then
        cold.  Journaled coordinates are excluded — they are replayed, not
        executed (and on a fresh, non-resumed run the journal is truncated
        so :attr:`journaled` is empty by construction)."""
        return self.warm + self.partial + self.cold

    @property
    def counts(self) -> Dict[str, int]:
        """``{"journaled": j, "warm": w, "partial": p, "cold": c}``."""
        return {
            "journaled": len(self.journaled),
            "warm": len(self.warm),
            "partial": len(self.partial),
            "cold": len(self.cold),
        }

    def warmth_fraction(self, coord: TaskCoord) -> float:
        """Fraction of ``coord``'s expected calibration artifacts already
        persisted (0.0 for coordinates the planner never probed)."""
        return float(self.warmth.get(coord, 0.0))

    def estimated_cost(self, coord: TaskCoord) -> float:
        """Relative calibration cost still to pay for ``coord``: 0.0 for a
        fully warm task, 1.0 for a cold one, in between for the partial
        tier — the cost estimate that keeps partially-warm tasks out of
        the full-price cold pool."""
        return 1.0 - self.warmth_fraction(coord)

    #: Warm tasks count toward pool sizing at this discount.  They skip
    #: calibration but still execute their target circuits, so a large
    #: warm backlog must not serialise (gate-noise targets cost seconds);
    #: only when the warm tier is small does the pool collapse to the
    #: cold remainder — or to in-process, where spawning workers would
    #: cost more than the disk reads they would perform.
    WARM_TASKS_PER_WORKER = 4

    #: Partially-warm tasks re-measure some calibrations but restore the
    #: rest, so they pack denser than cold (one worker each) and sparser
    #: than warm.
    PARTIAL_TASKS_PER_WORKER = 2

    def recommended_workers(self, requested: int) -> int:
        """Pool width for this plan, capped at the request: wide enough
        for every cold task (the full-cost remainder) plus one worker per
        :attr:`WARM_TASKS_PER_WORKER` warm tasks and one per
        :attr:`PARTIAL_TASKS_PER_WORKER` partially-warm tasks.  Journaled
        coordinates execute nothing and count for nothing.  Never wider
        than the request, never narrower than 1 — and an all-warm *small*
        plan returns 1, keeping the run in-process."""
        if requested is None or requested <= 1:
            return 1
        warm_share = -(-len(self.warm) // self.WARM_TASKS_PER_WORKER)
        partial_share = -(-len(self.partial) // self.PARTIAL_TASKS_PER_WORKER)
        needed = max(len(self.cold), warm_share + partial_share)
        return max(1, min(int(requested), needed))

    def summary(self) -> str:
        """The progress line's split, e.g. ``40 journaled, 12 warm, 12
        cold`` — the partial tier only appears when it is populated, so
        fully-partitioned plans read exactly as before."""
        parts = [f"{len(self.journaled)} journaled", f"{len(self.warm)} warm"]
        if self.partial:
            parts.append(f"{len(self.partial)} partially warm")
        parts.append(f"{len(self.cold)} cold")
        return ", ".join(parts)


class SweepPlanner:
    """Pre-scans a store for a spec and emits a :class:`TaskPlan`.

    Read-only: planning touches no lock and writes nothing, so it is safe
    to run while a sweep on the same spec holds the journal (the runner
    plans *before* acquiring the advisory lock for exactly that reason).
    """

    def __init__(self, store: Union[StoreLike, ArtifactStore]) -> None:
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store

    # ------------------------------------------------------------------
    def plan(self, spec: SweepSpec, resume: bool = False) -> TaskPlan:
        """Partition ``spec``'s task coordinates against the store.

        ``resume=False`` models a fresh run: the journal will be truncated
        at open, so nothing counts as journaled — but calibrations from
        the abandoned run still make coordinates warm.
        """
        coords = spec.task_coordinates()
        journaled = (
            frozenset(self._journaled_coords(spec)) if resume else frozenset()
        )
        journaled_order = []
        warm = []
        partial = []
        cold = []
        warmth: Dict[TaskCoord, float] = {}
        for coord in coords:
            if coord in journaled:
                journaled_order.append(coord)
                continue
            fraction = self.warmth_fraction(spec, coord)
            warmth[coord] = fraction
            if fraction >= 1.0:
                warm.append(coord)
            elif fraction > 0.0:
                partial.append(coord)
            else:
                cold.append(coord)
        plan = TaskPlan(
            digest=journal_spec_digest(spec),
            journaled=tuple(journaled_order),
            warm=tuple(warm),
            partial=tuple(partial),
            cold=tuple(cold),
            warmth=warmth,
        )
        telemetry = obs.active()
        if telemetry is not None:
            counter = telemetry.counter(
                "repro_planner_tier_tasks_total",
                "Task coordinates partitioned by the planner, per tier",
                ("tier",),
            )
            for tier, count in plan.counts.items():
                if count:
                    counter.labels(tier=tier).inc(count)
        return plan

    # ------------------------------------------------------------------
    def expected_keys(self, spec: SweepSpec, coord: TaskCoord) -> Tuple[Tuple, ...]:
        """Every calibration cache key ``coord``'s run would persist.

        Probes the identical keys
        :func:`~repro.experiments.runner.run_suite_cached` derives — scope
        + (method, shots) wrapped by
        :func:`~repro.pipeline.cache.calibration_key` —
        so the planner and the engine cannot disagree about what a hit
        means.  Only state-bearing methods within their scalability caps
        appear: the rest never persist anything, and counting artifacts
        that cannot exist would make every task read as partially cold
        forever.
        """
        point, trials = coord
        methods = self._expected_methods(spec, point)
        return tuple(
            scope + (method, int(shots))
            for scope in task_calibration_scopes(spec, point, trials)
            for shots in spec.shots
            for method in methods
        )

    def warmth_fraction(self, spec: SweepSpec, coord: TaskCoord) -> float:
        """Fraction of ``coord``'s expected calibration artifacts present
        in the store (0.0 when nothing is expected at all)."""
        keys = self.expected_keys(spec, coord)
        if not keys:
            return 0.0
        present = sum(1 for key in keys if self.store.contains(calibration_key(key)))
        return present / len(keys)

    def is_warm(self, spec: SweepSpec, coord: TaskCoord) -> bool:
        """Every expected calibration artifact for ``coord`` is persisted."""
        return self.warmth_fraction(spec, coord) >= 1.0

    #: Methods whose mitigators snapshot reusable calibration state — the
    #: only ones :func:`~repro.experiments.runner.run_suite_cached` ever
    #: persists (Bare is reusable but snapshots nothing; SIM/AIM/JIGSAW
    #: are circuit-specific).
    CACHEABLE_METHODS = ("Full", "Linear", "CMC", "CMC-ERR")

    def _expected_methods(self, spec: SweepSpec, point: int) -> Tuple[str, ...]:
        methods = self._probe_methods(spec)
        n = self._backend_qubits(spec.backends[point])
        expected = []
        for method in methods:
            if method not in self.CACHEABLE_METHODS:
                continue
            if method == "Full" and n is not None and n > spec.full_max_qubits:
                continue  # goes N/A in the engine; persists nothing
            if method == "Linear":
                cap = (
                    spec.full_max_qubits
                    if spec.linear_max_qubits is None
                    else spec.linear_max_qubits
                )
                if n is not None and n > cap:
                    continue
            expected.append(method)
        return tuple(expected)

    @staticmethod
    def _backend_qubits(backend):
        """Device size for the scalability-cap filter (None if unknown)."""
        if backend.kind == "architecture":
            return backend.qubits
        try:
            from repro.topology.ibm_devices import named_device

            return named_device(backend.name).num_qubits
        except Exception:
            return None

    @staticmethod
    def _probe_methods(spec: SweepSpec) -> Tuple[str, ...]:
        if spec.methods is not None:
            return tuple(spec.methods)
        from repro.experiments.runner import METHOD_ORDER

        return tuple(METHOD_ORDER)

    # ------------------------------------------------------------------
    def _journaled_coords(self, spec: SweepSpec) -> Tuple[TaskCoord, ...]:
        """Task coordinates completed in the spec's journal (lock-free,
        tolerant read: a missing, foreign or corrupt journal plans as
        empty — the runner's own ``open`` is where refusals belong).
        Binds through the store's backend, so planning works identically
        over a directory, ``mem://`` space or object store."""
        journal = SweepJournal.for_spec(self.store, spec)
        try:
            journal._verify_header()
            return tuple(journal.completed_outcomes().keys())
        except (ValueError, OSError):
            return ()
