"""The parallel sweep engine.

Executes a :class:`~repro.pipeline.spec.SweepSpec` as independent *tasks*
(one per backend point x trial; one per backend point when the spec shares
the noise draw across trials) over a ``concurrent.futures`` process pool —
or serially in-process, which produces **bit-identical** results.  The
identity holds because a task touches no shared mutable state and every
stochastic stream it consumes derives from ``(spec seed, grid
coordinates)`` via :func:`repro.utils.rng.stable_seed`:

=====================  ==============================================
stream                 derivation tokens
=====================  ==============================================
backend noise draw     ``("backend", digest, point[, trial])``
suite rng (JIGSAW)     ``("suite", digest, point, trial, shots, ci)``
calibration sampling   ``("calibration", scope + (method, shots))``
target sampling        ``("execution", scope, method, shots)``
=====================  ==============================================

``digest`` is a stable hash of the spec's scientific fields, so two
different specs can never share streams (or cache entries) by accident.

Calibration reuse: each task owns a
:class:`~repro.pipeline.cache.CalibrationCache`, hit by the sweep cells
that share a calibration event (multiple circuits per trial; multiple
trials when the backend draw is shared).  Because calibration events are
pure functions of their key (see the cache module docs), reusing an entry
— or re-measuring it cold — cannot change any number, only the wall-clock
and the executed-circuit count.

:func:`map_tasks` exposes the same serial/pool switch as a generic ordered
map, used by the week-structured experiment drivers (ERR stability,
correlation maps) whose work units are not method suites.

Persistence (``store=`` / ``resume=``): pointing a sweep at a
:class:`~repro.store.artifacts.ArtifactStore` directory journals every
completed task (:class:`~repro.store.journal.SweepJournal`, fsynced per
entry) and gives the per-task calibration cache its store tier
(``CalibrationCache(store)``).  Because every
task is a pure function of ``(spec, coordinates)``, replaying journaled
tasks under ``resume=True`` — or restoring calibrations a previous process
measured — is bit-identical to recomputing them; a crashed sweep loses at
most the tasks that were in flight.

Scheduling (store-aware, warm-first): with a store attached, the runner
asks the :class:`~repro.service.planner.SweepPlanner` to pre-scan the
journal and the calibration artifact tier, executes warm tasks (those
with persisted calibrations) before cold ones, and narrows the process
pool to the cold remainder.  Reordering cannot change a single number —
every stream derives from grid coordinates, not execution order — so the
assembled result stays bit-identical to a canonical-order run (pinned in
``tests/test_service.py``); only the time-to-first-result and the pool
shape move.

Sessions: :meth:`ParallelSweepRunner.open_session` exposes the journal
open / replay / planning / reassembly machinery as a
:class:`SweepSession`, so the synchronous :meth:`ParallelSweepRunner.run`
loop and the asyncio :class:`~repro.service.coordinator.SweepCoordinator`
drive the *same* task dispatch (``session.task_args`` →
:func:`execute_task` → ``session.record``) rather than forking the engine.

Pool workers run one BLAS thread each (:func:`process_pool`): a worker
forked from a parent that loaded a multi-threaded OpenBLAS would otherwise
start one BLAS thread per core, and N workers x cores busy-waiting threads
on N cores made a 4-worker sweep several times *slower* than a serial one.
The thread count changes no number a task produces.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro._version import __version__
from repro.analysis.stats import QuantileSummary, summarize_quantiles
from repro.pipeline.cache import CalibrationCache
from repro.pipeline.spec import SweepSpec
from repro.utils.rng import stable_rng, stable_seed

if TYPE_CHECKING:  # runtime import is lazy (repro.store imports this module)
    from repro.service.planner import TaskPlan
    from repro.store.artifacts import ArtifactStore
    from repro.store.journal import SweepJournal

#: What callers may pass as ``store=``: a directory path, a URL-style
#: store locator (``dir:///path``, ``mem://name``, ``s3://bucket/prefix``
#: — see :mod:`repro.store.locator`) or a live store.
StoreLike = Union[str, os.PathLike, "ArtifactStore", None]

__all__ = [
    "SweepRecord",
    "SweepResult",
    "SweepSession",
    "ParallelSweepRunner",
    "run_sweep",
    "map_tasks",
    "execute_task",
    "task_payload",
    "execute_payload",
    "spec_digest",
]

ProgressCallback = Callable[[int, int, "TaskOutcome"], None]
PlanCallback = Callable[["TaskPlan"], None]

#: One task's grid coordinate: (backend point, trials co-located in it).
TaskCoord = Tuple[int, Tuple[int, ...]]


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRecord:
    """One (backend point, trial, budget, circuit, method) outcome."""

    backend_index: int
    backend_label: str
    trial: int
    shots: int
    circuit_index: int
    circuit_label: str
    method: str
    error: Optional[float]
    shots_spent: int
    circuits_executed: int
    not_applicable: bool
    failure: str

    @property
    def available(self) -> bool:
        return not self.not_applicable and self.error is not None

    def to_dict(self) -> dict:
        return {
            "backend": self.backend_label,
            "backend_index": self.backend_index,
            "trial": self.trial,
            "shots": self.shots,
            "circuit": self.circuit_label,
            "circuit_index": self.circuit_index,
            "method": self.method,
            "error": self.error,
            "shots_spent": self.shots_spent,
            "circuits_executed": self.circuits_executed,
            "not_applicable": self.not_applicable,
            "failure": self.failure,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepRecord":
        """Exact inverse of :meth:`to_dict` (pinned round-trip test).

        The store's sweep journal rides on this: a journaled record must
        reconstruct bit-identically, or resumed sweeps would drift from
        uninterrupted ones.
        """
        if "backend_index" not in data or "circuit_index" not in data:
            # repro < 1.1.0 --json output: labels only.  Indices cannot be
            # recovered unambiguously (duplicate backend points share a
            # label), so fail with the format story instead of a KeyError.
            raise ValueError(
                "record lacks backend_index/circuit_index — this JSON was "
                "written by repro < 1.1.0, before results were rehydratable; "
                "re-run the sweep to regenerate it"
            )
        return cls(
            backend_index=int(data["backend_index"]),
            backend_label=str(data["backend"]),
            trial=int(data["trial"]),
            shots=int(data["shots"]),
            circuit_index=int(data["circuit_index"]),
            circuit_label=str(data["circuit"]),
            method=str(data["method"]),
            error=None if data["error"] is None else float(data["error"]),
            shots_spent=int(data["shots_spent"]),
            circuits_executed=int(data["circuits_executed"]),
            not_applicable=bool(data["not_applicable"]),
            failure=str(data["failure"]),
        )


@dataclass
class TaskOutcome:
    """Everything one task ships back to the coordinator."""

    backend_index: int
    trials: Tuple[int, ...]
    records: List[SweepRecord]
    cache_hits: int = 0
    cache_misses: int = 0
    saved_shots: int = 0
    saved_circuits: int = 0
    duration: float = 0.0
    #: Correlation id for tracing (``{spec digest16}.p{point}.t{trials}``).
    #: Deterministic in (spec, coordinate) — never in telemetry state or
    #: execution venue — so it can live in journal rows and wire frames
    #: without perturbing bit-identity.  Empty on outcomes replayed from
    #: pre-1.7 journals.
    trace: str = ""


@dataclass
class SweepResult:
    """Assembled sweep outcome: flat records plus aggregate accessors."""

    spec: SweepSpec
    records: List[SweepRecord]
    wall_time: float = 0.0
    workers: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    saved_shots: int = 0
    saved_circuits: int = 0
    #: Library version that *produced* the records.  Survives JSON round
    #: trips, so rehydrating an old result and re-serialising it does not
    #: relabel which code generated the numbers.
    version: str = __version__

    # ------------------------------------------------------------------
    def iter_records(
        self,
        backend_index: Optional[int] = None,
        method: Optional[str] = None,
        shots: Optional[int] = None,
        circuit_index: Optional[int] = None,
        trial: Optional[int] = None,
    ) -> Iterator[SweepRecord]:
        """Records matching every given filter, in canonical order."""
        for rec in self.records:
            if backend_index is not None and rec.backend_index != backend_index:
                continue
            if method is not None and rec.method != method:
                continue
            if shots is not None and rec.shots != shots:
                continue
            if circuit_index is not None and rec.circuit_index != circuit_index:
                continue
            if trial is not None and rec.trial != trial:
                continue
            yield rec

    def methods(self) -> List[str]:
        """Methods present, in first-seen (suite) order."""
        out: List[str] = []
        for rec in self.records:
            if rec.method not in out:
                out.append(rec.method)
        return out

    def error_samples(
        self,
        backend_index: int,
        method: str,
        shots: Optional[int] = None,
        circuit_index: Optional[int] = None,
    ) -> List[float]:
        """Available per-trial (and per-circuit) errors for one cell."""
        return [
            rec.error
            for rec in self.iter_records(
                backend_index=backend_index,
                method=method,
                shots=shots,
                circuit_index=circuit_index,
            )
            if rec.available
        ]

    def errors_by_method(self) -> Dict[str, List[Optional[float]]]:
        """All errors per method in record order (``None`` where N/A)."""
        out: Dict[str, List[Optional[float]]] = {}
        for rec in self.records:
            out.setdefault(rec.method, []).append(
                rec.error if rec.available else None
            )
        return out

    def _point_labels(self) -> List[str]:
        """Per-point display labels, disambiguated when points repeat."""
        labels = [b.label for b in self.spec.backends]
        seen: Dict[str, int] = {}
        for label in labels:
            seen[label] = seen.get(label, 0) + 1
        return [
            f"{label}#{point}" if seen[label] > 1 else label
            for point, label in enumerate(labels)
        ]

    def summary_rows(
        self, lo: float = 0.1, hi: float = 0.9
    ) -> Dict[str, Dict[str, Optional[QuantileSummary]]]:
        """Table-II-style rows: method x backend-point cells.

        Cells aggregate over trials and circuits; when the spec sweeps
        several budgets the columns are ``label@shots``; duplicate backend
        points are disambiguated as ``label#point``.
        """
        multi_budget = len(self.spec.shots) > 1
        point_labels = self._point_labels()
        rows: Dict[str, Dict[str, Optional[QuantileSummary]]] = {}
        for method in self.methods():
            cells: Dict[str, Optional[QuantileSummary]] = {}
            for point, plabel in enumerate(point_labels):
                for shots in self.spec.shots:
                    label = f"{plabel}@{shots}" if multi_budget else plabel
                    samples = self.error_samples(point, method, shots=shots)
                    cells[label] = (
                        summarize_quantiles(samples, lo, hi) if samples else None
                    )
            rows[method] = cells
        return rows

    def column_labels(self) -> List[str]:
        multi_budget = len(self.spec.shots) > 1
        return [
            f"{label}@{s}" if multi_budget else label
            for label in self._point_labels()
            for s in self.spec.shots
        ]

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "spec": self.spec.to_dict(),
            "records": [rec.to_dict() for rec in self.records],
            "wall_time": self.wall_time,
            "workers": self.workers,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "saved_shots": self.saved_shots,
                "saved_circuits": self.saved_circuits,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        """Inverse of :meth:`to_dict`: rebuild a result from persisted JSON.

        ``version`` (stamped by the writer for artifact traceability) and
        ``cache`` are metadata, not identity — both are restored verbatim.
        The scientific content (spec + records) round-trips exactly.
        """
        cache = data.get("cache", {})
        return cls(
            spec=SweepSpec.from_dict(data["spec"]),
            records=[SweepRecord.from_dict(r) for r in data["records"]],
            wall_time=float(data.get("wall_time", 0.0)),
            workers=int(data.get("workers", 1)),
            cache_hits=int(cache.get("hits", 0)),
            cache_misses=int(cache.get("misses", 0)),
            saved_shots=int(cache.get("saved_shots", 0)),
            saved_circuits=int(cache.get("saved_circuits", 0)),
            version=str(data.get("version", "unknown")),
        )

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        import json

        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Task execution (runs inside worker processes)
# ----------------------------------------------------------------------
def spec_digest(spec: SweepSpec) -> int:
    """Stable hash of the scientific spec fields (stream/cache namespace).

    Public because the :mod:`repro.service.planner` derives calibration
    artifact keys from it when pre-scanning store availability — the
    planner must probe exactly the keys :func:`execute_task` will use.
    """
    data = spec.to_dict()
    data.pop("reuse_calibration", None)  # caching policy is not identity
    return stable_seed("spec", repr(sorted(data.items())))


def task_calibration_scopes(
    spec: SweepSpec, point: int, trials: Tuple[int, ...]
) -> List[Tuple]:
    """The calibration scope tuples one task's suite runs will key on.

    Mirrors :func:`execute_task`'s derivation exactly (one scope per task
    under shared backend draws, one per trial otherwise) so the planner's
    warm probes and the engine's cache lookups can never drift apart.
    """
    digest = spec_digest(spec)
    if spec.share_backend_across_trials:
        return [("cal", digest, point)]
    return [("cal", digest, point) + (trial,) for trial in trials]


def execute_task(
    spec: SweepSpec,
    point: int,
    trials: Tuple[int, ...],
    store_root: Optional[str] = None,
    cache: Optional[CalibrationCache] = None,
    store_options=None,
) -> TaskOutcome:
    """Run every (trial, budget, circuit, method) cell of one task.

    ``trials`` is a single trial normally, or all of a point's trials when
    the spec shares the backend draw across them (they then also share
    calibration, so co-locating them maximises cache reuse).

    ``store_root`` (a path or store locator string, so the task pickles
    into worker processes)
    upgrades the task's calibration cache to the persistent two-tier one:
    in-memory hits behave exactly as before, and calibrations measured by
    any earlier process running the same logical sweep are restored from
    disk instead of re-executed.  ``store_options`` (an
    :class:`~repro.store.codecs.EncodeOptions`, also picklable) carries
    the originating store's payload encoding into the reopen, so a
    sweep against a dense-mode store writes dense artifacts from pool
    workers too; ``None`` keeps the reopened store's own default.

    ``cache`` overrides cache construction entirely (in-process callers
    only — caches do not pickle into pool workers).  In-process dispatch
    of a process-local store (``mem://``) passes
    :meth:`SweepSession.task_cache` here: a fresh cache over the live
    store, so hit/miss accounting stays per task and write-through makes
    every calibration visible to the next task at once.
    """
    # Imported lazily: repro.experiments imports this package for its
    # drivers, so a module-level import here would be circular.
    from repro.experiments.runner import default_method_suite, run_suite_cached

    start = time.perf_counter()
    digest = spec_digest(spec)
    bspec = spec.backends[point]

    # One in-memory cache per task: the key structure makes cross-task
    # memory hits impossible (keys embed the trial, and shared-backend
    # trials are co-located in one task), so a longer-lived cache would
    # only retain dead state.  The store tier is what outlives the task.
    if cache is None and spec.reuse_calibration:
        if store_root is not None:
            from repro.store.artifacts import ArtifactStore

            cache = CalibrationCache(ArtifactStore(store_root, options=store_options))
        else:
            cache = CalibrationCache()
    if not spec.reuse_calibration:
        cache = None

    records: List[SweepRecord] = []
    backend = None
    for trial in trials:
        noise_tokens: Tuple = ("backend", digest, point)
        cal_scope: Tuple = ("cal", digest, point)
        if not spec.share_backend_across_trials:
            noise_tokens += (trial,)
            cal_scope += (trial,)
        if backend is None or not spec.share_backend_across_trials:
            backend = bspec.build(stable_rng(*noise_tokens))
        for shots in spec.shots:
            for ci, cspec in enumerate(spec.circuits):
                circuit = cspec.build(backend.coupling_map)
                ideal = cspec.ideal_distribution(circuit)
                suite = default_method_suite(
                    backend.coupling_map,
                    rng=stable_rng("suite", digest, point, trial, shots, ci),
                    include=spec.methods,
                    full_max_qubits=spec.full_max_qubits,
                    linear_max_qubits=spec.linear_max_qubits,
                    err_locality=spec.err_locality,
                    jigsaw_subsets=spec.jigsaw_subsets,
                    cmc_k=spec.cmc_k,
                )
                outcome = run_suite_cached(
                    suite,
                    circuit,
                    backend,
                    shots,
                    ideal=ideal,
                    cache=cache,
                    calibration_scope=cal_scope,
                    execution_scope=(digest, point, trial, shots, ci),
                )
                for name in suite.names():
                    res = outcome[name]
                    records.append(
                        SweepRecord(
                            backend_index=point,
                            backend_label=bspec.label,
                            trial=trial,
                            shots=shots,
                            circuit_index=ci,
                            circuit_label=cspec.label,
                            method=name,
                            error=res.error,
                            shots_spent=res.shots_spent,
                            circuits_executed=res.circuits_executed,
                            not_applicable=res.not_applicable,
                            failure=res.failure,
                        )
                    )

    result = TaskOutcome(
        backend_index=point,
        trials=tuple(trials),
        records=records,
        duration=time.perf_counter() - start,
        trace=obs.task_trace_id(obs.sweep_trace_id(spec), point, trials),
    )
    if cache is not None:
        s = cache.stats()
        result.cache_hits = s.hits
        result.cache_misses = s.misses
        result.saved_shots = s.saved_shots
        result.saved_circuits = s.saved_circuits
    return result


def task_payload(
    spec: SweepSpec,
    coord: TaskCoord,
    store_root: Optional[str] = None,
    store_options=None,
) -> dict:
    """One task as a JSON-ready wire assignment.

    This is how task execution decouples from the local pool: the fleet
    coordinator ships this dict over the line-JSON protocol and a remote
    worker rebuilds the exact :func:`execute_task` call with
    :func:`execute_payload`.  Because a task is a pure function of
    ``(spec, coordinates)``, *where* the payload executes — this process,
    a pool worker, a machine across the network — cannot change a single
    bit of its outcome.  ``store_options`` rides along under
    ``"encoding"`` (omitted when ``None``, so pre-1.8 consumers see the
    exact payload shape they always did) purely so remote writes land in
    the same payload encoding the submitting store uses — encodings never
    affect digests or decoded values, only bytes at rest.
    """
    point, trials = coord
    payload = {
        "spec": spec.to_dict(),
        "point": int(point),
        "trials": [int(t) for t in trials],
        "store": store_root,
    }
    if store_options is not None:
        payload["encoding"] = {
            "compact": bool(store_options.compact),
            "density_threshold": float(store_options.density_threshold),
            "compress": bool(store_options.compress),
        }
    return payload


def execute_payload(
    payload: dict, cache: Optional[CalibrationCache] = None
) -> TaskOutcome:
    """Exact inverse of :func:`task_payload` feeding :func:`execute_task`.

    ``cache`` overrides the payload's store-derived cache, exactly as in
    :func:`execute_task` — an in-process fleet worker points it at its own
    live store (process-local backends have no reopenable locator).
    Raises ``ValueError`` on malformed payloads so wire consumers can
    answer a structured error instead of dropping the connection.
    """
    try:
        spec = SweepSpec.from_dict(payload["spec"])
        point = int(payload["point"])
        trials = tuple(int(t) for t in payload["trials"])
        store_root = payload.get("store")
        encoding = payload.get("encoding")
        store_options = None
        if encoding is not None:
            from repro.store.codecs import EncodeOptions

            store_options = EncodeOptions(
                compact=bool(encoding["compact"]),
                density_threshold=float(encoding["density_threshold"]),
                compress=bool(encoding["compress"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed task payload: {exc}") from None
    return execute_task(
        spec, point, trials, store_root, cache=cache, store_options=store_options
    )


# ----------------------------------------------------------------------
# Sessions: opened sweep state shared by the sync and async drivers
# ----------------------------------------------------------------------
@dataclass
class SweepSession:
    """One sweep's opened execution state.

    Produced by :meth:`ParallelSweepRunner.open_session`; holds everything
    the task-dispatch loop needs — replayed outcomes, the pending
    coordinates in execution order (warm-first under a store), the open
    journal, and the reassembly logic.  Both the synchronous
    :meth:`ParallelSweepRunner.run` loop and the asyncio
    :class:`~repro.service.coordinator.SweepCoordinator` drive a session
    the same way: for each pending coordinate, call
    :func:`execute_task` with :meth:`task_args` and hand the outcome to
    :meth:`record`; when every coordinate has an outcome,
    :meth:`assemble` — always under a ``try/finally`` that
    :meth:`close`\\ s the session (releasing the journal's advisory lock).
    """

    spec: SweepSpec
    #: Every task coordinate, in canonical (reassembly) order.
    coords: List[TaskCoord]
    #: Pending coordinates in *execution* order — warm-first when planned.
    pending: List[TaskCoord]
    #: Completed outcomes (journal-replayed ones pre-populated).
    outcomes: Dict[TaskCoord, TaskOutcome]
    workers: int
    plan: Optional["TaskPlan"] = None
    journal: Optional["SweepJournal"] = None
    store_root: Optional[str] = None
    started: float = 0.0
    #: The live store (not just its locator) — what in-process dispatch
    #: hands to tasks when the backend cannot be reopened by locator in
    #: another context (``mem://`` spaces, injected-client ``s3://``).
    store: Optional["ArtifactStore"] = None

    @property
    def store_options(self):
        """The live store's payload-encoding options, for reopen paths.

        A task that reopens ``store_root`` by locator (pool workers, and
        in-process dispatch of cross-process backends) would otherwise
        fall back to the environment's default encoding — correct bytes
        either way, but not the encoding the caller asked this store
        for."""
        return None if self.store is None else self.store.options

    @property
    def total(self) -> int:
        return len(self.coords)

    def task_args(self, coord: TaskCoord) -> Tuple:
        """Positional arguments dispatching ``coord`` to :func:`execute_task`.

        Picklable, so the same tuple feeds an in-process call, a
        ``ProcessPoolExecutor.submit`` and an asyncio ``run_in_executor``.
        """
        point, trials = coord
        return (self.spec, point, trials, self.store_root)

    def task_cache(self) -> Optional[CalibrationCache]:
        """A fresh per-task two-tier cache over the session's *live*
        backend, for in-process dispatch of process-local stores.

        ``None`` on every path where :func:`execute_task` should build
        its own cache from the pickled ``store_root`` (no store, caching
        disabled, or a cross-process backend a worker can reopen).  A
        fresh cache per task keeps hit/miss accounting per-task — the
        same shape a worker-built cache has."""
        if self.store is None or not self.spec.reuse_calibration:
            return None
        if self.store.backend.cross_process:
            return None
        return CalibrationCache(self.store)

    def record(self, coord: TaskCoord, outcome: TaskOutcome) -> int:
        """Journal + retain one completed task; returns the done count.

        Idempotent per coordinate: a duplicate delivery (a fleet task
        re-issued after its worker's lease expired, whose original result
        still arrives) is dropped — first write wins, and by the seeding
        discipline both deliveries carry identical content anyway.  The
        journal append happens *before* the outcome is retained so that a
        transient store failure retried by the caller re-attempts the
        append instead of skipping it as a duplicate.
        """
        if coord in self.outcomes:
            return len(self.outcomes)
        if self.journal is not None:
            self.journal.append_task(outcome)
        self.outcomes[coord] = outcome
        return len(self.outcomes)

    def replay_progress(self, progress: ProgressCallback) -> None:
        """Deliver already-replayed outcomes through the progress channel
        (canonical order), so ``[k/n]`` counts stay truthful on resume."""
        done = 0
        for coord in self.coords:
            if coord in self.outcomes:
                done += 1
                progress(done, self.total, self.outcomes[coord])

    def assemble(self) -> SweepResult:
        """Reassemble the result in canonical task order.

        Execution order (pool completion, warm-first scheduling, async
        interleaving) can never leak into the record list — and hence into
        any downstream accessor — because reassembly always walks
        ``coords``.  Requires every coordinate to have an outcome.
        """
        records: List[SweepRecord] = []
        result = SweepResult(
            spec=self.spec, records=records, workers=self.workers
        )
        for coord in self.coords:
            outcome = self.outcomes[coord]
            records.extend(outcome.records)
            result.cache_hits += outcome.cache_hits
            result.cache_misses += outcome.cache_misses
            result.saved_shots += outcome.saved_shots
            result.saved_circuits += outcome.saved_circuits
        result.wall_time = time.perf_counter() - self.started
        return result

    def close(self) -> None:
        """Release the journal (file handle + advisory lock); idempotent."""
        if self.journal is not None:
            self.journal.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class ParallelSweepRunner:
    """Executes sweep specs, serially or over a process pool.

    Parameters
    ----------
    workers:
        ``None``/``0``/``1`` runs in-process (deterministic reference
        path); ``n > 1`` fans tasks out over ``n`` worker processes.
        Results are bit-identical either way — the pool only changes
        wall-clock time.
    progress:
        Optional ``callback(done, total, outcome)`` invoked as tasks
        complete (in completion order, which under a pool is not the
        canonical order; the assembled result always is).
    store:
        Optional :class:`~repro.store.artifacts.ArtifactStore` (or its
        root directory / locator string — ``dir:///path``, ``mem://name``,
        ``s3://bucket/prefix``).  Journals every completed task durably and gives
        each task a persistent second calibration-cache tier — neither of
        which changes any number, only what survives the process.
    resume:
        With ``store``: replay tasks already journaled for this spec
        instead of re-running them.  The assembled result is bit-identical
        to an uninterrupted run (the engine's per-task seed derivation is
        execution-order-free).  Without a store this is an error.
    on_plan:
        Optional callback receiving the store-aware
        :class:`~repro.service.planner.TaskPlan` once it is computed
        (store runs only) — how the CLI reports the
        journaled/warm/cold split without re-scanning the store.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        store: StoreLike = None,
        resume: bool = False,
        on_plan: Optional[PlanCallback] = None,
    ) -> None:
        if resume and store is None:
            raise ValueError("resume=True needs a store to resume from")
        self.workers = workers
        self.progress = progress
        self.store = self._coerce_store(store)
        self.resume = resume
        self.on_plan = on_plan

    @staticmethod
    def _coerce_store(store: StoreLike):
        if store is None:
            return None
        from repro.store.artifacts import ArtifactStore

        if isinstance(store, ArtifactStore):
            return store
        return ArtifactStore(store)

    def effective_workers(
        self, spec: SweepSpec, plan: Optional["TaskPlan"] = None
    ) -> int:
        if self.workers is None or self.workers <= 1:
            return 1
        if self.store is not None and not self.store.backend.cross_process:
            # A pool worker reopening this locator would see a *different*
            # store (an empty mem:// space, a missing injected client):
            # results would still be correct — every stream derives from
            # (seed, coordinates) — but journaling/warm reuse would
            # silently vanish.  Keep such sweeps in-process instead.
            return 1
        requested = max(1, min(int(self.workers), spec.num_tasks))
        if plan is not None:
            # Store-aware sizing: the pool covers the cold remainder in
            # full, warm tasks at a discount (they skip calibration but
            # still execute targets), journaled replay not at all — see
            # TaskPlan.recommended_workers for the policy.
            return plan.recommended_workers(requested)
        return requested

    def open_session(self, spec: SweepSpec) -> SweepSession:
        """Open (plan, journal, replay) a sweep without executing tasks.

        With a store attached this pre-scans artifact availability via the
        :class:`~repro.service.planner.SweepPlanner` (read-only, before
        the journal's advisory lock is taken), orders pending work
        warm-first and narrows the worker count to the cold remainder.
        The caller owns the session: execute its ``pending`` coordinates
        (any order, any executor), then ``assemble()``, and ``close()`` in
        a ``finally``.
        """
        started = time.perf_counter()
        coords = spec.task_coordinates()
        plan = None
        journal = None
        store_root: Optional[str] = None
        if self.store is not None:
            from repro.service.planner import SweepPlanner
            from repro.store.artifacts import store_locator
            from repro.store.journal import SweepJournal

            store_root = store_locator(self.store)
            plan = SweepPlanner(self.store).plan(spec, resume=self.resume)
            journal = SweepJournal.open(self.store, spec, resume=self.resume)
        session = SweepSession(
            spec=spec,
            coords=coords,
            pending=[],
            outcomes={},
            workers=self.effective_workers(spec, plan),
            plan=plan,
            journal=journal,
            store_root=store_root,
            started=started,
            store=self.store,
        )
        # Replay sits under a close() guard: a corrupt-journal ValueError
        # must not leak the advisory lock.
        try:
            if journal is not None and self.resume:
                replayed = journal.completed_outcomes()
                # Only coordinates this spec actually defines count: a
                # journal can hold more (e.g. written by a later version)
                # without poisoning the result.  Insertion order follows
                # the *journal* (not the canonical grid): live recording
                # also appends in journal order, so ``outcomes`` is the
                # row sequence — the service's watch cursors equate event
                # index with journal index on the strength of this.
                defined = set(coords)
                session.outcomes = {
                    c: o for c, o in replayed.items() if c in defined
                }
            order = coords if plan is None else list(plan.execution_order)
            session.pending = [c for c in order if c not in session.outcomes]
            if plan is not None and self.on_plan is not None:
                self.on_plan(plan)
        except BaseException:
            session.close()
            raise
        return session

    def run(self, spec: SweepSpec) -> SweepResult:
        session = self.open_session(spec)
        try:
            if self.progress is not None:
                session.replay_progress(self.progress)
            total = session.total
            if session.workers == 1:
                for coord in list(session.pending):
                    outcome = execute_task(
                        *session.task_args(coord),
                        cache=session.task_cache(),
                        store_options=session.store_options,
                    )
                    done = session.record(coord, outcome)
                    if self.progress is not None:
                        self.progress(done, total, outcome)
            elif session.pending:
                with process_pool(session.workers) as pool:
                    futures = {
                        pool.submit(
                            execute_task,
                            *session.task_args(coord),
                            store_options=session.store_options,
                        ): coord
                        for coord in session.pending
                    }
                    from concurrent.futures import as_completed

                    for future in as_completed(futures):
                        outcome = future.result()
                        done = session.record(futures[future], outcome)
                        if self.progress is not None:
                            self.progress(done, total, outcome)
        finally:
            session.close()
        return session.assemble()


def run_sweep(
    spec: SweepSpec,
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    store: StoreLike = None,
    resume: bool = False,
    on_plan: Optional[PlanCallback] = None,
) -> SweepResult:
    """One-call convenience: ``ParallelSweepRunner(...).run(spec)``.

    ``store`` (a directory, a ``dir://``/``mem://``/``s3://`` locator, or a
    :class:`~repro.store.artifacts.ArtifactStore`)
    makes the sweep durable: completed tasks are journaled and calibrations
    persist across processes; ``resume=True`` picks up a crashed run
    exactly where it stopped, bit-identical to an uninterrupted one.
    Store runs are scheduled warm-first (persisted calibrations execute
    before cold tasks — same numbers, faster first results); ``on_plan``
    observes the computed journaled/warm/cold split.
    """
    return ParallelSweepRunner(
        workers=workers,
        progress=progress,
        store=store,
        resume=resume,
        on_plan=on_plan,
    ).run(spec)


# ----------------------------------------------------------------------
# Process pools
# ----------------------------------------------------------------------
# set_num_threads symbol of each OpenBLAS build numpy/scipy wheels ship:
# reference, scipy-openblas (LP64) and scipy-openblas (ILP64).
_OPENBLAS_SET_THREADS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _single_blas_thread() -> None:
    """Pool-worker initializer: cap every loaded OpenBLAS at one thread.

    Worker processes inherit the parent's already-loaded BLAS libraries,
    so the usual ``OPENBLAS_NUM_THREADS`` environment variable (read once,
    at library load) cannot reach them.  Instead each OpenBLAS mapped into
    the worker — numpy and scipy wheels bundle separate copies — is found
    through ``/proc/self/maps`` and told to use one thread.  Elsewhere
    (no ``/proc``) this is a no-op.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)
                break


def process_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool of ``workers`` single-BLAS-thread workers."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_single_blas_thread)


# ----------------------------------------------------------------------
# Generic ordered parallel map (week-structured drivers)
# ----------------------------------------------------------------------
def map_tasks(
    fn: Callable,
    items: Sequence,
    workers: Optional[int] = None,
) -> List:
    """Apply ``fn`` to each item, serially or over a process pool.

    Results come back in input order regardless of completion order, so a
    driver's output cannot depend on scheduling.  ``fn`` and the items must
    be picklable when ``workers > 1`` (module-level functions + plain
    data).  Items should carry their own derived seeds — ``fn`` must not
    reach for shared randomness.
    """
    items = list(items)
    if workers is None or workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    n = max(1, min(int(workers), len(items)))
    with process_pool(n) as pool:
        return list(pool.map(fn, items))
