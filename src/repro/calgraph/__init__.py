"""Calibration DAG subsystem: incremental, drift-driven recalibration.

Calibration steps (per-qubit readout matrices, CMC edge patches, CMC-ERR
pair profiles and their derived error map) are nodes in a
:class:`~repro.calgraph.graph.CalibrationDAG`, keyed into the artifact
store by ``(device, method, node, local-noise-fingerprint,
upstream-digests)`` and executed topologically by the
:class:`~repro.calgraph.scheduler.CalibrationScheduler`.  When a noise
model drifts on k qubits/edges, exactly the k affected measurement nodes
re-key and re-execute; every clean node restores from the store — partial
reuse that scales with drift locality, not device size.
"""

from repro.calgraph.cache import node_digest, node_key
from repro.calgraph.drift import (
    array_digest,
    dirty_closure,
    dirty_nodes,
    fingerprint_table,
    node_fingerprint,
)
from repro.calgraph.graph import (
    CalGraphError,
    CalibrationDAG,
    CalNode,
    CyclicGraphError,
    UnknownNodeError,
)
from repro.calgraph.plans import (
    GRAPH_METHODS,
    assemble_calibration_state,
    build_calibration_graph,
    decompose_calibration_state,
)
from repro.calgraph.scheduler import CalibrationScheduler, NodePlan, SchedulerReport
from repro.calgraph.state import CalNodeState

__all__ = [
    "CalGraphError",
    "CyclicGraphError",
    "UnknownNodeError",
    "CalNode",
    "CalNodeState",
    "CalibrationDAG",
    "CalibrationScheduler",
    "NodePlan",
    "SchedulerReport",
    "GRAPH_METHODS",
    "array_digest",
    "assemble_calibration_state",
    "build_calibration_graph",
    "decompose_calibration_state",
    "dirty_closure",
    "dirty_nodes",
    "fingerprint_table",
    "node_digest",
    "node_fingerprint",
    "node_key",
]
