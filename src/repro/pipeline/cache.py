"""Calibration-state sharing: the one two-tier calibration cache.

Calibration dominates wall-clock for the matrix methods (Full, Linear,
CMC, CMC-ERR) at larger sizes: a Table-II-style sweep that evaluates the
same method on several target circuits re-measures an *identical*
calibration for every one of them.  :class:`CalibrationCache` removes that
waste while provably not changing any result, by exploiting the engine's
seeding discipline:

* every logical calibration event in a sweep has a stable key (spec seed,
  sweep point, trial, method, shot budget), and the backend is reseeded
  from that key before the calibration circuits run — so re-measuring a
  calibration with the same key yields bit-identical matrices;
* the cache is therefore *pure memoization* of a deterministic function:
  a hit returns exactly what a cold re-measurement would have produced;
* the equal-budget protocol (§V of the paper) is preserved on hits by
  replaying the recorded shot/circuit spend against the trial's
  :class:`~repro.backends.budget.ShotBudget`
  (:meth:`~repro.backends.budget.ShotBudget.replay`), so the target
  circuit executes with the same remaining shots as after a cold
  calibration.

The combination makes "cache on" vs "cache off" produce bit-identical
method errors — the property ``tests/test_pipeline_engine.py`` pins —
while skipping the repeated calibration executions (the saved work is
reported via :meth:`CalibrationCache.stats`).

Two tiers.  The memory tier is a dict keyed by the artifact key's
content digest.  Given an :class:`~repro.store.artifacts.ArtifactStore`,
the cache gains a durable second tier: reads fall through to the store
and promote into memory, writes go through to both, so calibration state
measured by one process is reusable by every later (or concurrent)
process — a warm rerun of a whole grid performs **zero** calibration
executions (pinned in ``tests/test_store_resume.py``).  Nothing in the
argument above depends on *which* tier produced a record.

Keys carry their namespace: the cache takes complete artifact keys
(``{"kind", "version", "key"}``) and knows no namespace itself.  Sweep
calibration events use :func:`calibration_key`; calibration-DAG nodes use
:func:`repro.calgraph.cache.node_key`.  Both share one store without
colliding, and the telemetry ``tier`` label is the key's ``kind``.

A memory-only cache is scoped to one sweep task (one backend noise draw):
keys embed the spec seed and sweep coordinates, so entries never leak
between unrelated sweeps, but the object itself is cheap and should not be
shared across specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs
from repro._version import __version__
from repro.store.artifacts import ArtifactStore, canonical_key_digest

__all__ = ["CalibrationRecord", "CalibrationCache", "calibration_key"]


def calibration_key(scope: Tuple) -> dict:
    """The artifact key of one sweep calibration event.

    ``scope`` is the event's RNG scope (spec digest, point, trial, method,
    budget).  The library version is part of the identity, mirroring the
    sweep journal's refusal policy: bit-identity only holds within one
    engine version (releases have changed numbers under identical seeds
    before), so an upgraded install misses cleanly and re-measures rather
    than silently restoring state the current code would never produce.
    """
    return {"kind": "calibration", "version": __version__, "key": tuple(scope)}


@dataclass
class CalibrationRecord:
    """One memoized calibration event.

    ``state`` is the method's :meth:`~repro.core.base.Mitigator.calibration_state`
    snapshot (or a :class:`~repro.calgraph.state.CalNodeState`);
    ``shots_spent`` / ``circuits_executed`` are the ledger entries the
    cold calibration charged, replayed verbatim on every hit.
    """

    state: object
    shots_spent: int
    circuits_executed: int


@dataclass
class CacheStats:
    """Hit/miss counters plus the device work the hits avoided."""

    hits: int = 0
    misses: int = 0
    saved_shots: int = 0
    saved_circuits: int = 0


def _lookups_counter(telemetry):
    return telemetry.counter(
        "repro_calcache_lookups_total",
        "Calibration cache lookups by tier and result",
        ("tier", "result"),
    )


class CalibrationCache:
    """Memoizes calibration state by artifact key: memory, then store.

    Payload encoding follows the store it wraps: a compact-mode
    :class:`ArtifactStore` persists states sparsely (see
    :mod:`repro.store.codecs`), a dense one writes the pre-1.8 bytes —
    either way restores are bit-exact and digests are identical, so warm
    tiers written under one encoding stay warm under the other.
    """

    def __init__(self, store: Optional[ArtifactStore] = None) -> None:
        self._store = store
        self._entries: Dict[str, CalibrationRecord] = {}
        self._stats = CacheStats()

    @property
    def artifact_store(self) -> Optional[ArtifactStore]:
        return self._store

    def __len__(self) -> int:
        return len(self._entries)

    def _fetch(self, key: dict) -> Optional[CalibrationRecord]:
        """Memory tier, then store tier (promoting into memory).

        No stats are touched here — promotion is not a miss (misses mean
        "cold calibrations actually performed") and whether the caller
        gets a hit credited is its own business (:meth:`lookup` vs
        :meth:`peek`)."""
        digest = canonical_key_digest(key)
        record = self._entries.get(digest)
        if record is not None or self._store is None:
            return record
        payload = self._store.get(key)
        if payload is None:
            return None
        record = CalibrationRecord(
            state=payload["state"],
            shots_spent=int(payload["shots_spent"]),
            circuits_executed=int(payload["circuits_executed"]),
        )
        self._entries[digest] = record
        telemetry = obs.active()
        if telemetry is not None:
            telemetry.counter(
                "repro_calcache_store_restores_total",
                "Calibration records restored from the artifact tier",
            ).inc()
        return record

    def peek(self, key: dict) -> Optional[CalibrationRecord]:
        """Return the record for ``key`` without touching the stats."""
        return self._fetch(key)

    def lookup(self, key: dict) -> Optional[CalibrationRecord]:
        """Return the record for ``key``, counting a hit when found.

        Misses are counted at :meth:`store` time instead, so the miss
        counter means "cold calibrations actually performed" — probes for
        entries that can never exist (methods with no state, N/A cells)
        do not inflate it.
        """
        record = self._fetch(key)
        if record is None:
            return None
        self._stats.hits += 1
        self._stats.saved_shots += record.shots_spent
        self._stats.saved_circuits += record.circuits_executed
        telemetry = obs.active()
        if telemetry is not None:
            _lookups_counter(telemetry).labels(
                tier=key["kind"], result="hit"
            ).inc()
            telemetry.counter(
                "repro_cache_saved_shots_total",
                "Device shots avoided by calibration cache hits",
            ).inc(record.shots_spent)
        return record

    def contains(self, key: dict) -> bool:
        """Key-presence probe that never deserializes the payload."""
        if canonical_key_digest(key) in self._entries:
            return True
        return self._store is not None and self._store.contains(key)

    def store(
        self,
        key: dict,
        state: object,
        shots_spent: int,
        circuits_executed: int,
    ) -> None:
        """Record a cold calibration's state and ledger spend (write-through)."""
        self._stats.misses += 1
        telemetry = obs.active()
        if telemetry is not None:
            _lookups_counter(telemetry).labels(
                tier=key["kind"], result="miss"
            ).inc()
        record = CalibrationRecord(
            state=state,
            shots_spent=int(shots_spent),
            circuits_executed=int(circuits_executed),
        )
        self._entries[canonical_key_digest(key)] = record
        if self._store is None:
            return
        if telemetry is not None:
            telemetry.counter(
                "repro_calcache_store_writes_total",
                "Calibration records written through to the artifact tier",
            ).inc()
        self._store.put(
            key,
            {
                "state": state,
                "shots_spent": record.shots_spent,
                "circuits_executed": record.circuits_executed,
            },
        )

    def stats(self) -> CacheStats:
        """Counters so far (live object; copy if you need a snapshot)."""
        return self._stats
