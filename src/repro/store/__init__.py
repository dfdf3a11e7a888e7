"""Persistent artifact store: durable calibrations, resumable sweeps.

The repo's fourth subsystem.  The paper's operational claim (§V, §VII-A)
is that calibration is the dominant *recurring* cost and stays valid for
hours — worth persisting across processes, not just memoizing within one.
This package makes everything the pipeline measures durable, over a
**pluggable transport**:

* :class:`~repro.store.backends.StoreBackend` — the transport contract
  (atomic puts, conditional put/delete, prefix listing, journal streams,
  crash-debris accounting), with three implementations selected by
  URL-style locator: ``dir:///path`` (or any plain path),
  ``mem://name`` and ``s3://bucket/prefix`` (injectable client — see
  :func:`~repro.store.backends.set_default_object_client`).  The
  contract is pinned by the backend-agnostic conformance suite in
  ``tests/backend_conformance.py``; new transports are certified by
  passing it, including under fault injection
  (:class:`~repro.store.faults.FaultyBackend`).
* :class:`~repro.store.artifacts.ArtifactStore` — a content-addressed
  store (canonical-JSON key → SHA-256 address; commit-marker writes;
  packed single-object artifacts on object stores) with bit-exact
  round-trip codecs for calibration matrices, mitigator states, coupling
  maps and sweep records (:mod:`repro.store.codecs`);
* :class:`~repro.store.journal.SweepJournal` — an append-only JSONL log of
  completed sweep tasks, so ``run_sweep(spec, store=..., resume=True)``
  restarts a crashed grid exactly where it stopped, bit-identical to an
  uninterrupted run; guarded by a backend-held lease;
* the store tier of :class:`~repro.pipeline.cache.CalibrationCache`
  (``CalibrationCache(store)``), making a warm grid rerun skip **every**
  calibration execution while provably reporting the same method errors.

Quick start::

    from repro import SweepSpec, BackendSpec, run_sweep

    spec = SweepSpec(backends=(BackendSpec(kind="device", name="quito"),),
                     trials=3, seed=0)
    # cold: measures + persists; interrupted runs resume with --resume
    run_sweep(spec, workers=4, store="sweep-store", resume=True)
    # warm: zero calibration executions, identical numbers
    run_sweep(spec, workers=4, store="sweep-store", resume=True)
    # the same, without touching disk (tests, ephemeral sweeps):
    run_sweep(spec, store="mem://scratch", resume=True)

The CLI surface is ``repro sweep --store LOCATOR [--resume]`` plus
``repro store ls|inspect|gc LOCATOR`` — every command accepts any
backend locator.
"""

from repro.store.artifacts import (
    ArtifactInfo,
    ArtifactStore,
    canonical_key_digest,
    store_locator,
    store_root,
)
from repro.store.backends import (
    FakeObjectClient,
    LocalDirBackend,
    MemoryBackend,
    ObjectStoreBackend,
    StoreBackend,
    open_backend,
    reset_memory_spaces,
    set_default_object_client,
)
from repro.store.codecs import (
    EncodeOptions,
    NonFiniteValueError,
    UnknownCodecTagError,
    decode,
    deep_equal,
    encode,
    strict_dumps,
)
from repro.store.faults import BackendCrash, Fault, FaultyBackend, TransientStoreError
from repro.store.journal import SweepJournal, journal_spec_digest
from repro.store.locator import StoreLocator, parse_store_locator

__all__ = [
    "ArtifactInfo",
    "ArtifactStore",
    "SweepJournal",
    "StoreBackend",
    "LocalDirBackend",
    "MemoryBackend",
    "ObjectStoreBackend",
    "FakeObjectClient",
    "FaultyBackend",
    "Fault",
    "BackendCrash",
    "TransientStoreError",
    "StoreLocator",
    "parse_store_locator",
    "open_backend",
    "set_default_object_client",
    "reset_memory_spaces",
    "canonical_key_digest",
    "journal_spec_digest",
    "store_locator",
    "store_root",
    "encode",
    "decode",
    "deep_equal",
    "strict_dumps",
    "EncodeOptions",
    "NonFiniteValueError",
    "UnknownCodecTagError",
]
