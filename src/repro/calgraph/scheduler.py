"""Topological execution of a calibration DAG against a store-backed cache.

The scheduler walks the graph in (lexicographical) topological order and,
for every node, resolves its store key — device, method, node identity,
shots, seed, the node's *local noise fingerprint*, and the digests of its
dependencies' keys — then either

* **restores** a cached state (memory or store tier), replaying the
  recorded ledger spend through the :class:`~repro.backends.budget.ShotBudget`
  replay discipline so warm and cold runs charge identically, or
* **executes** the node cold: the backend is reseeded from the node key's
  digest (``stable_rng("calgraph", digest)``), so a node's measured state
  is a pure function of its key — the property that makes an incremental
  run after localised drift *bit-identical* to a from-scratch run of the
  whole graph under the drifted model, or
* **skips** the node because a predecessor failed (``on_failure="skip"``,
  the chipcalibration semantics) — or aborts the whole run when
  constructed with ``on_failure="abort"``.

Because fingerprints and dep digests fold into the key, "drift detection"
needs no explicit diffing pass at run time: k-edge-localised drift re-keys
exactly the k affected measurement nodes (plus their derived descendants,
which re-derive from restored-or-fresh payloads without spending shots),
and every other node resolves to its existing artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.calgraph.cache import node_digest, node_key
from repro.calgraph.drift import node_fingerprint
from repro.calgraph.graph import CalGraphError, CalibrationDAG
from repro.calgraph.state import CalNodeState
from repro.pipeline.cache import CalibrationCache
from repro.utils.rng import stable_rng

__all__ = ["CalibrationScheduler", "NodePlan", "SchedulerReport"]

#: Node outcomes a run can record.
EXECUTED = "executed"
RESTORED = "restored"
SKIPPED = "skipped"
FAILED = "failed"


def _count_node(outcome: str) -> None:
    """Per-outcome node counter, so DAG health is scrapeable (cache hits
    and misses are counted by the cache itself, under
    ``tier="calgraph-node"``)."""
    telemetry = obs.active()
    if telemetry is None:
        return
    telemetry.counter(
        "repro_calgraph_nodes_total",
        "Calibration DAG node outcomes",
        ("outcome",),
    ).labels(outcome=outcome).inc()


@dataclass(frozen=True)
class NodePlan:
    """One node's resolved identity and cache disposition."""

    name: str
    kind: str
    qubits: Tuple[int, ...]
    digest: str
    cached: bool
    deps: Tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "qubits": list(self.qubits),
            "digest": self.digest,
            "cached": self.cached,
            "deps": list(self.deps),
        }


@dataclass
class SchedulerReport:
    """What a :meth:`CalibrationScheduler.run` actually did."""

    outcomes: Dict[str, str] = field(default_factory=dict)
    states: Dict[str, CalNodeState] = field(default_factory=dict)
    fresh_shots: int = 0
    fresh_circuits: int = 0
    replayed_shots: int = 0
    replayed_circuits: int = 0
    errors: Dict[str, str] = field(default_factory=dict)

    def names(self, outcome: str) -> List[str]:
        return sorted(n for n, o in self.outcomes.items() if o == outcome)

    @property
    def executed(self) -> List[str]:
        return self.names(EXECUTED)

    @property
    def restored(self) -> List[str]:
        return self.names(RESTORED)

    @property
    def skipped(self) -> List[str]:
        return self.names(SKIPPED)

    @property
    def failed(self) -> List[str]:
        return self.names(FAILED)

    def node_states(self) -> Dict[str, Any]:
        """``{node name: payload}`` for every node with a state — the shape
        :func:`repro.calgraph.plans.assemble_calibration_state` consumes."""
        return {name: state.payload for name, state in self.states.items()}

    def to_dict(self) -> dict:
        return {
            "outcomes": dict(sorted(self.outcomes.items())),
            "executed": self.executed,
            "restored": self.restored,
            "skipped": self.skipped,
            "failed": self.failed,
            "fresh_shots": self.fresh_shots,
            "fresh_circuits": self.fresh_circuits,
            "replayed_shots": self.replayed_shots,
            "replayed_circuits": self.replayed_circuits,
            "errors": dict(sorted(self.errors.items())),
        }


class CalibrationScheduler:
    """Executes a :class:`~repro.calgraph.graph.CalibrationDAG` incrementally.

    Parameters
    ----------
    graph:
        The DAG to schedule (must carry executors on measure/derive nodes
        for :meth:`run`; :meth:`plan` works on any graph).
    cache:
        A store-backed :class:`~repro.pipeline.cache.CalibrationCache`;
        all reuse flows through it.
    device:
        Device identity token in every node key (profile name or an
        ``architecture:n`` label).
    method:
        Mitigation method the graph calibrates (part of every key).
    shots_per_node:
        Shots per calibration circuit within each measurement node.
    seed:
        Logical calibration seed; folded into node keys so distinct seeds
        never alias.
    on_failure:
        ``"skip"`` poisons a failed node's descendants and continues;
        ``"abort"`` re-raises the node's exception immediately.
    """

    def __init__(
        self,
        graph: CalibrationDAG,
        cache: CalibrationCache,
        *,
        device: str,
        method: str,
        shots_per_node: int,
        seed: int = 0,
        on_failure: str = "skip",
    ) -> None:
        if on_failure not in ("skip", "abort"):
            raise ValueError("on_failure must be 'skip' or 'abort'")
        if shots_per_node < 1:
            raise ValueError("shots_per_node must be positive")
        self._graph = graph
        self._cache = cache
        self._device = str(device)
        self._method = str(method)
        self._shots = int(shots_per_node)
        self._seed = int(seed)
        self._on_failure = on_failure

    @property
    def graph(self) -> CalibrationDAG:
        return self._graph

    # ------------------------------------------------------------------
    # Key resolution
    # ------------------------------------------------------------------
    def _resolve_keys(self, model) -> Dict[str, dict]:
        """Every node's store key, in topological order.

        Dep digests chain through the dict as it fills — topological order
        guarantees a node's dependencies are already resolved.
        """
        keys: Dict[str, dict] = {}
        digests: Dict[str, str] = {}
        for name in self._graph.topological():
            node = self._graph.node(name)
            fingerprint = (
                node_fingerprint(model, node.qubits)
                if node.kind == "measure"
                else ""
            )
            key = node_key(
                device=self._device,
                method=self._method,
                node=name,
                qubits=node.qubits,
                shots=self._shots if node.kind == "measure" else 0,
                seed=self._seed,
                fingerprint=fingerprint,
                deps={dep: digests[dep] for dep in self._graph.deps(name)},
                params=node.params,
            )
            keys[name] = key
            digests[name] = node_digest(key)
        return keys

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, model) -> List[NodePlan]:
        """Resolve every node's key against the cache, without executing.

        The ``cached=False`` measurement nodes are exactly the dirty
        frontier a :meth:`run` would execute; ``cached=False`` derived
        nodes are the descendants that would re-derive.
        """
        keys = self._resolve_keys(model)
        plans = []
        for name in self._graph.topological():
            node = self._graph.node(name)
            key = keys[name]
            plans.append(
                NodePlan(
                    name=name,
                    kind=node.kind,
                    qubits=node.qubits,
                    digest=node_digest(key),
                    cached=self._cache.contains(key),
                    deps=self._graph.deps(name),
                )
            )
        return plans

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, backend, model=None, budget=None) -> SchedulerReport:
        """Execute the graph: restore warm nodes, measure dirty ones.

        ``model`` defaults to ``backend.noise_model`` — pass it explicitly
        when planning against a model the backend does not carry.  A
        ``budget`` (any :class:`~repro.backends.budget.ShotBudget`) is
        charged for cold executions by the backend itself and *replayed*
        for warm restores, so the ledger is identical either way.
        """
        if model is None:
            model = backend.noise_model
        keys = self._resolve_keys(model)
        report = SchedulerReport()
        poisoned: set = set()

        for name in self._graph.topological():
            node = self._graph.node(name)
            key = keys[name]

            if any(dep in poisoned for dep in self._graph.deps(name)):
                report.outcomes[name] = SKIPPED
                _count_node(SKIPPED)
                poisoned.add(name)
                continue

            record = self._cache.lookup(key)
            if record is not None:
                if budget is not None:
                    budget.replay(record.shots_spent, record.circuits_executed)
                report.outcomes[name] = RESTORED
                _count_node(RESTORED)
                report.states[name] = record.state
                report.replayed_shots += record.shots_spent
                report.replayed_circuits += record.circuits_executed
                continue

            if node.run is None:
                raise CalGraphError(
                    f"node {name!r} has no executor (opaque graphs can be "
                    f"planned and rendered, not run)"
                )

            digest = node_digest(key)
            try:
                if node.kind == "measure":
                    # Reseed from the node key so the measured state is a
                    # pure function of the key — reuse is then provably
                    # bit-identical to re-measurement.
                    backend.reseed(stable_rng("calgraph", digest))
                    payload, shots_spent, circuits = node.run(
                        backend, self._shots, budget
                    )
                else:
                    dep_payloads = {
                        dep: report.states[dep].payload
                        for dep in self._graph.deps(name)
                    }
                    payload = node.run(dep_payloads)
                    shots_spent, circuits = 0, 0
            except Exception as exc:
                if self._on_failure == "abort":
                    raise
                report.outcomes[name] = FAILED
                _count_node(FAILED)
                report.errors[name] = f"{type(exc).__name__}: {exc}"
                poisoned.add(name)
                continue

            state = CalNodeState(
                name=name,
                kind=node.kind,
                qubits=node.qubits,
                payload=payload,
                fingerprint=key["key"]["noise"],
            )
            self._cache.store(key, state, shots_spent, circuits)
            report.outcomes[name] = EXECUTED
            _count_node(EXECUTED)
            report.states[name] = state
            report.fresh_shots += shots_spent
            report.fresh_circuits += circuits

        return report
