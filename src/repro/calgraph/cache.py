"""Node-granular calibration keys: ``node_key`` and ``node_digest``.

Where a sweep persists one monolithic blob per calibration event
(:func:`repro.pipeline.cache.calibration_key`), the calibration DAG
persists **one artifact per node**, keyed by

``(device, method, node, qubits, shots, seed, local-noise-fingerprint,
upstream-digests, params)``

so a drifted model invalidates exactly the nodes whose local fingerprint
changed — everything else remains addressable and restores as a warm hit.
Upstream digests chain: a derived node's key embeds the content digests of
its dependencies' keys, so re-measuring any upstream node automatically
re-keys (and therefore re-derives) everything downstream, without any
explicit invalidation pass.

Node states live in the same two-tier
:class:`~repro.pipeline.cache.CalibrationCache` as sweep calibrations,
under their own ``"calgraph-node"`` namespace, with the same
version-refusal policy — node states are bit-identity claims, which only
hold within one engine version.
"""

from __future__ import annotations

from typing import Mapping, Tuple

from repro._version import __version__
from repro.store.artifacts import canonical_key_digest

__all__ = ["node_key", "node_digest"]

#: Artifact namespace for calibration DAG node states.
KIND = "calgraph-node"


def node_key(
    *,
    device: str,
    method: str,
    node: str,
    qubits: Tuple[int, ...],
    shots: int,
    seed: int,
    fingerprint: str,
    deps: Mapping[str, str],
    params: Mapping[str, object] = (),
) -> dict:
    """The canonical artifact key of one calibration node's state.

    ``deps`` maps dependency node names to *their* key digests — the
    chaining that cascades invalidation downstream.  Everything in the key
    is a JSON primitive, so it digests through the store's canonical
    scheme.
    """
    return {
        "kind": KIND,
        "version": __version__,
        "key": {
            "device": str(device),
            "method": str(method),
            "node": str(node),
            "qubits": tuple(int(q) for q in qubits),
            "shots": int(shots),
            "seed": int(seed),
            "noise": str(fingerprint),
            "deps": {str(k): str(v) for k, v in sorted(dict(deps).items())},
            "params": {str(k): v for k, v in sorted(dict(params).items())},
        },
    }


def node_digest(key: dict) -> str:
    """Content digest of a node key — the token dependents embed."""
    return canonical_key_digest(key)

