"""Calibration DAG subsystem: structure, drift, scheduling, persistence.

The load-bearing claims, each pinned here:

* **Graph refusals** — duplicate nodes, unknown deps, cycles are typed
  errors at construction, never hangs in the topological sort.
* **Locality fingerprints** — a node's fingerprint depends on exactly the
  noise content inside its qubit set, so k-local drift dirties exactly
  the k affected nodes.
* **Scheduler purity** — a node's state is a pure function of its store
  key (reseed-per-key), so warm restores are bit-identical to cold
  re-measurement, budgets replay identically, and an *incremental* run
  after localised drift equals a *from-scratch* run of the drifted model
  bit-for-bit.
* **Decompose/assemble bijection** — every graph-capable mitigator's
  ``calibration_plan()`` reassembles to its monolithic
  ``calibration_state()`` exactly.
* **Two-tier node cache** — ``peek`` is stat-free through both tiers,
  ``lookup`` counts saved work, node states codec-round-trip bit-exactly
  (hypothesis), on every store backend family (honours
  ``REPRO_CONFORMANCE_BACKEND`` like the conformance suites).
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro._version import __version__
from repro.backends.backend import SimulatedBackend
from repro.backends.budget import ShotBudget
from repro.backends.profiles import (
    ARCHITECTURES,
    architecture_backend,
    device_profile_backend,
)
from repro.calgraph import (
    CalGraphError,
    CalNode,
    CalNodeState,
    CalibrationDAG,
    CalibrationScheduler,
    CyclicGraphError,
    UnknownNodeError,
    assemble_calibration_state,
    build_calibration_graph,
    decompose_calibration_state,
    dirty_closure,
    dirty_nodes,
    node_digest,
    node_fingerprint,
    node_key,
)
from repro.core import CalibrationMatrix, CMCERRMitigator, CMCMitigator
from repro.mitigation import FullCalibrationMitigator, LinearCalibrationMitigator
from repro.noise.drift import drift_noise_model
from repro.noise.models import random_device_noise
from repro.pipeline.cache import CalibrationCache, calibration_key
from repro.store import (
    ArtifactStore,
    FakeObjectClient,
    LocalDirBackend,
    MemoryBackend,
    ObjectStoreBackend,
    canonical_key_digest,
    deep_equal,
    reset_memory_spaces,
)
from repro.store.codecs import decode, encode


# ----------------------------------------------------------------------
# Store backends (mirrors the conformance matrix selection)
# ----------------------------------------------------------------------
_FAMILIES = ("dir", "mem", "s3")
_ONLY = os.environ.get("REPRO_CONFORMANCE_BACKEND")
_PARAMS = _FAMILIES if _ONLY is None else (_ONLY,)


@pytest.fixture(params=_PARAMS)
def store(request, tmp_path):
    fam = request.param
    if fam == "dir":
        yield ArtifactStore(LocalDirBackend(tmp_path / "store"))
        return
    if fam == "mem":
        space = "calgraph-" + "".join(
            ch if ch.isalnum() or ch in "._-" else "-" for ch in request.node.name
        )
        reset_memory_spaces(space)
        yield ArtifactStore(MemoryBackend(space))
        reset_memory_spaces(space)
        return
    yield ArtifactStore(ObjectStoreBackend("bucket", "cal", client=FakeObjectClient()))


def quito_backend(seed=0, model=None):
    rng = np.random.default_rng(seed)
    backend = device_profile_backend("quito", rng=rng, gate_noise=False)
    if model is not None:
        backend = SimulatedBackend(backend.coupling_map, model, rng=rng)
    return backend


# ----------------------------------------------------------------------
# Graph structure
# ----------------------------------------------------------------------
class TestGraphStructure:
    def test_deps_must_exist_before_dependents(self):
        dag = CalibrationDAG()
        dag.add_node(CalNode("a", "opaque"))
        with pytest.raises(UnknownNodeError, match="unknown node 'ghost'"):
            dag.add_node(CalNode("b", "opaque"), deps=("ghost",))

    def test_duplicate_nodes_refused(self):
        dag = CalibrationDAG()
        dag.add_node(CalNode("a", "opaque"))
        with pytest.raises(CalGraphError, match="duplicate"):
            dag.add_node(CalNode("a", "opaque"))

    def test_from_spec_cycle_refused_with_path(self):
        spec = {"nodes": [{"name": "a", "deps": ["b"]}, {"name": "b", "deps": ["a"]}]}
        with pytest.raises(CyclicGraphError, match="cyclic"):
            CalibrationDAG.from_spec(spec)

    def test_from_spec_unknown_dep_refused(self):
        spec = {"nodes": [{"name": "a", "deps": ["nope"]}]}
        with pytest.raises(UnknownNodeError):
            CalibrationDAG.from_spec(spec)

    def test_from_spec_needs_nodes(self):
        with pytest.raises(CalGraphError):
            CalibrationDAG.from_spec({"nodes": []})

    def test_topological_is_deterministic_and_dep_respecting(self):
        dag = CalibrationDAG()
        for name in ("c", "a", "b"):
            dag.add_node(CalNode(name, "measure", (0,), lambda *a: None))
        dag.add_node(CalNode("z", "derive", (), lambda d: d), deps=("c", "a"))
        order = dag.topological()
        assert order == sorted(["a", "b", "c"]) + ["z"]
        assert dag.topological() == order  # stable across calls

    def test_descendants(self):
        dag = CalibrationDAG.from_spec(
            {
                "nodes": [
                    {"name": "a"},
                    {"name": "b", "deps": ["a"]},
                    {"name": "c", "deps": ["b"]},
                    {"name": "d"},
                ]
            }
        )
        assert dag.descendants(["a"]) == ["b", "c"]
        assert dag.descendants(["d"]) == []
        with pytest.raises(UnknownNodeError):
            dag.descendants(["nope"])

    def test_node_kind_validated(self):
        with pytest.raises(ValueError, match="unknown node kind"):
            CalNode("x", "banana")

    def test_to_dot_mentions_every_node_and_edge(self):
        graph = build_calibration_graph("CMC-ERR", quito_backend().coupling_map)
        dot = graph.to_dot()
        for name in graph.names():
            assert f'"{name}"' in dot
        assert '-> "errmap"' in dot


class TestMethodGraphs:
    def test_cmc_graph_has_one_node_per_edge(self):
        cm = quito_backend().coupling_map
        graph = build_calibration_graph("CMC", cm)
        assert sorted(graph.names()) == sorted(
            f"edge:{a}-{b}" for a, b in cm.edges
        )

    def test_cmc_isolated_qubits_get_qubit_nodes(self):
        cm = quito_backend().coupling_map
        graph = build_calibration_graph("CMC", cm, edges=[(0, 1)])
        names = set(graph.names())
        assert "edge:0-1" in names
        assert {"qubit:2", "qubit:3", "qubit:4"} <= names

    def test_linear_graph_is_per_qubit(self):
        cm = quito_backend().coupling_map
        graph = build_calibration_graph("Linear", cm)
        assert sorted(graph.names()) == [f"qubit:{q}" for q in range(5)]

    def test_full_graph_refuses_above_cap(self):
        cm = ARCHITECTURES["fully_connected"](6)
        with pytest.raises(CalGraphError, match="cap"):
            build_calibration_graph("Full", cm, full_max_qubits=4)

    def test_err_graph_derives_from_every_pair(self):
        cm = quito_backend().coupling_map
        graph = build_calibration_graph("CMC-ERR", cm, err_locality=1)
        assert "errmap" in graph
        pairs = [n for n in graph.names() if n.startswith("pair:")]
        assert graph.deps("errmap") == tuple(sorted(pairs))

    def test_unknown_method_refused(self):
        with pytest.raises(CalGraphError, match="no calibration graph"):
            build_calibration_graph("JIGSAW", quito_backend().coupling_map)


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------
class TestDriftDetection:
    def test_global_drift_dirties_everything(self):
        backend = quito_backend()
        graph = build_calibration_graph("CMC", backend.coupling_map)
        drifted = drift_noise_model(
            backend.noise_model, rng=np.random.default_rng(1)
        )
        assert dirty_nodes(graph, backend.noise_model, drifted) == sorted(
            graph.measure_nodes()
        )

    def test_localised_qubit_drift_dirties_only_touching_nodes(self):
        backend = quito_backend()
        model = backend.noise_model
        graph = build_calibration_graph("CMC", backend.coupling_map)
        drifted = drift_noise_model(model, qubits=[0], rng=np.random.default_rng(2))
        # quito's T topology: qubit 0 only appears in edge (0, 1)
        assert dirty_nodes(graph, model, drifted) == ["edge:0-1"]

    def test_localised_edge_drift_dirties_only_that_edge(self):
        cm = ARCHITECTURES["fully_connected"](8)
        model = random_device_noise(
            cm, error_1q=0.0, error_2q=0.0,
            correlation_placement="coupling", num_correlated=3,
            rng=np.random.default_rng(3),
        )
        target = model.correlated_edges[0]
        drifted = drift_noise_model(model, edges=[target], rng=np.random.default_rng(4))
        graph = build_calibration_graph("CMC", cm)
        assert dirty_nodes(graph, model, drifted) == [
            f"edge:{target[0]}-{target[1]}"
        ]

    def test_dirty_closure_includes_derived_descendants(self):
        backend = quito_backend()
        model = backend.noise_model
        graph = build_calibration_graph("CMC-ERR", backend.coupling_map, err_locality=1)
        drifted = drift_noise_model(model, qubits=[0], rng=np.random.default_rng(5))
        frontier, descendants = dirty_closure(
            graph, dirty_nodes(graph, model, drifted)
        )
        assert frontier == ["pair:0-1"]
        assert descendants == ["errmap"]

    def test_untouched_factors_carry_over_bit_identically(self):
        backend = quito_backend()
        model = backend.noise_model
        drifted = drift_noise_model(model, qubits=[0], rng=np.random.default_rng(6))
        for old, new in zip(
            model.measurement_channel.factors,
            drifted.measurement_channel.factors,
        ):
            assert old.qubits == new.qubits
            if 0 not in old.qubits:
                assert np.array_equal(old.matrix, new.matrix)
        # gate errors hold still under localised drift
        assert drifted.error_1q == model.error_1q
        assert drifted.error_2q == model.error_2q

    def test_fingerprint_ignores_outside_noise(self):
        backend = quito_backend()
        model = backend.noise_model
        drifted = drift_noise_model(model, qubits=[4], rng=np.random.default_rng(7))
        assert node_fingerprint(model, (0, 1)) == node_fingerprint(drifted, (0, 1))
        assert node_fingerprint(model, (3, 4)) != node_fingerprint(drifted, (3, 4))

    def test_out_of_range_selections_refused(self):
        model = quito_backend().noise_model
        with pytest.raises(ValueError, match="out of range"):
            drift_noise_model(model, qubits=[99], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="out of range|degenerate"):
            drift_noise_model(model, edges=[(0,)], rng=np.random.default_rng(0))

    def test_selection_touching_no_factor_refused(self):
        model = quito_backend().noise_model
        # (0, 4) is not an edge of quito's channel: no pair factor lives there
        missing = [(0, 4)]
        if tuple(sorted(missing[0])) in {
            tuple(sorted(f.qubits))
            for f in model.measurement_channel.factors
        }:  # pragma: no cover - depends on the profile draw
            pytest.skip("profile draw placed a factor on the probe edge")
        with pytest.raises(ValueError, match="match no"):
            drift_noise_model(model, edges=missing, rng=np.random.default_rng(0))


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
class TestScheduler:
    def _scheduler(self, store, method="CMC", seed=0):
        backend = quito_backend()
        graph = build_calibration_graph(method, backend.coupling_map)
        sched = CalibrationScheduler(
            graph,
            CalibrationCache(store),
            device="quito",
            method=method,
            shots_per_node=128,
            seed=seed,
        )
        return backend, sched

    def test_cold_then_warm_with_identical_budgets(self, store):
        backend, sched = self._scheduler(store)
        cold_budget = ShotBudget(100_000)
        cold = sched.run(backend, budget=cold_budget)
        assert cold.restored == [] and len(cold.executed) == 4
        assert cold_budget.spent == cold.fresh_shots > 0

        warm_budget = ShotBudget(100_000)
        warm = sched.run(backend, budget=warm_budget)
        assert warm.executed == [] and len(warm.restored) == 4
        # the replay discipline: warm runs charge the identical ledger
        assert warm_budget.spent == cold_budget.spent
        assert warm_budget.circuits_executed == cold_budget.circuits_executed
        assert deep_equal(
            {k: v.payload for k, v in warm.states.items()},
            {k: v.payload for k, v in cold.states.items()},
        )

    def test_warm_run_counts_each_restored_node_once(self, store):
        backend, cold_sched = self._scheduler(store)
        _, warm_sched = self._scheduler(store)  # fresh memory tier
        telemetry = obs.enable(obs.Telemetry())
        try:
            cold = cold_sched.run(backend)
            warm = warm_sched.run(backend)
            snap = telemetry.snapshot()
        finally:
            obs.disable()
        assert len(warm.restored) == 4
        lookups = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snap["repro_calcache_lookups_total"]["series"]
        }
        assert lookups == {
            (("result", "miss"), ("tier", "calgraph-node")): len(cold.executed),
            (("result", "hit"), ("tier", "calgraph-node")): len(warm.restored),
        }
        restores = snap["repro_calcache_store_restores_total"]["series"]
        assert restores[0]["value"] == len(warm.restored)
        saved = snap["repro_cache_saved_shots_total"]["series"][0]["value"]
        assert saved == warm.replayed_shots

    def test_distinct_seeds_never_alias(self, store):
        backend, sched_a = self._scheduler(store, seed=0)
        _, sched_b = self._scheduler(store, seed=1)
        a = sched_a.run(backend)
        b = sched_b.run(backend)
        assert b.restored == []  # different seed, different keys
        assert not deep_equal(
            a.states["edge:0-1"].payload, b.states["edge:0-1"].payload
        )

    def test_plan_reports_dirty_frontier(self, store):
        backend, sched = self._scheduler(store)
        assert all(not p.cached for p in sched.plan(backend.noise_model))
        sched.run(backend)
        plans = sched.plan(backend.noise_model)
        assert all(p.cached for p in plans)
        drifted = drift_noise_model(
            backend.noise_model, qubits=[0], rng=np.random.default_rng(8)
        )
        dirty = [p.name for p in sched.plan(drifted) if not p.cached]
        assert dirty == ["edge:0-1"]

    def test_skip_on_failed_predecessor(self, store):
        def boom(backend, shots, budget):
            raise RuntimeError("detuned")

        def ok(qubits):
            def run(backend, shots, budget):
                return {"cal": None}, 0, 0

            return run

        dag = CalibrationDAG()
        dag.add_node(CalNode("bad", "measure", (0,), boom))
        dag.add_node(CalNode("good", "measure", (1,), ok((1,))))
        dag.add_node(
            CalNode("derived", "derive", (), lambda deps: deps), deps=("bad",)
        )
        sched = CalibrationScheduler(
            dag, CalibrationCache(store),
            device="d", method="CMC", shots_per_node=8,
        )
        report = sched.run(quito_backend())
        assert report.failed == ["bad"]
        assert report.skipped == ["derived"]
        assert report.executed == ["good"]
        assert "RuntimeError: detuned" == report.errors["bad"]

    def test_abort_on_failure_raises(self, store):
        def boom(backend, shots, budget):
            raise RuntimeError("detuned")

        dag = CalibrationDAG()
        dag.add_node(CalNode("bad", "measure", (0,), boom))
        sched = CalibrationScheduler(
            dag, CalibrationCache(store),
            device="d", method="CMC", shots_per_node=8, on_failure="abort",
        )
        with pytest.raises(RuntimeError, match="detuned"):
            sched.run(quito_backend())

    def test_opaque_nodes_cannot_run(self, store):
        dag = CalibrationDAG.from_spec({"nodes": [{"name": "a"}]})
        sched = CalibrationScheduler(
            dag, CalibrationCache(store),
            device="d", method="CMC", shots_per_node=8,
        )
        with pytest.raises(CalGraphError, match="no executor"):
            sched.run(quito_backend())

    def test_constructor_validation(self, store):
        dag = CalibrationDAG()
        cache = CalibrationCache(store)
        with pytest.raises(ValueError, match="on_failure"):
            CalibrationScheduler(
                dag, cache, device="d", method="CMC",
                shots_per_node=8, on_failure="retry",
            )
        with pytest.raises(ValueError, match="shots_per_node"):
            CalibrationScheduler(
                dag, cache, device="d", method="CMC", shots_per_node=0
            )


class TestIncrementalEqualsFull:
    """The tentpole pin: incremental recalibration after localised drift
    is bit-identical to from-scratch calibration of the drifted model,
    while executing only the dirty frontier + descendants."""

    @pytest.mark.parametrize("method", ["CMC", "CMC-ERR"])
    def test_incremental_matches_from_scratch(self, tmp_path, method):
        cm = ARCHITECTURES["fully_connected"](8)
        model = random_device_noise(
            cm, error_1q=0.0, error_2q=0.0,
            correlation_placement="coupling", num_correlated=3,
            rng=np.random.default_rng(11),
        )
        drift_edges = model.correlated_edges[:2]
        drifted = drift_noise_model(
            model, edges=drift_edges, rng=np.random.default_rng(12)
        )
        graph = build_calibration_graph(method, cm, err_locality=1)

        def scheduler(root):
            return CalibrationScheduler(
                graph,
                CalibrationCache(ArtifactStore(LocalDirBackend(root))),
                device="fc8",
                method=method,
                shots_per_node=128,
                seed=0,
            )

        # incremental: warm the store under the base model, then drift
        inc = scheduler(tmp_path / "inc")
        inc.run(SimulatedBackend(cm, model, rng=np.random.default_rng(0)))
        inc_report = inc.run(SimulatedBackend(cm, drifted, rng=np.random.default_rng(1)))

        # from scratch: cold store, drifted model only
        full = scheduler(tmp_path / "full")
        full_report = full.run(
            SimulatedBackend(cm, drifted, rng=np.random.default_rng(2))
        )

        expected_dirty = sorted(
            ("pair:" if method == "CMC-ERR" else "edge:") + f"{a}-{b}"
            for a, b in drift_edges
        )
        executed_measure = [n for n in inc_report.executed if n != "errmap"]
        assert executed_measure == expected_dirty
        assert len(full_report.executed) == len(graph)

        inc_state = assemble_calibration_state(method, inc_report.node_states())
        full_state = assemble_calibration_state(method, full_report.node_states())
        assert deep_equal(inc_state, full_state)

        # and the savings are real: O(k) nodes, not O(edges)
        assert inc_report.fresh_shots * 3 <= full_report.fresh_shots


# ----------------------------------------------------------------------
# Decompose/assemble bijection per mitigator
# ----------------------------------------------------------------------
class TestCalibrationPlanBijection:
    def _prepared(self, mitigator, seed=0):
        backend = quito_backend(seed=seed)
        mitigator.prepare(backend, ShotBudget(200_000))
        return mitigator

    @pytest.mark.parametrize(
        "factory",
        [
            lambda cm: FullCalibrationMitigator(),
            lambda cm: LinearCalibrationMitigator(two_circuit=True),
            lambda cm: CMCMitigator(cm, k=1),
            lambda cm: CMCERRMitigator(cm, locality=2),
        ],
        ids=["Full", "Linear", "CMC", "CMC-ERR"],
    )
    def test_assemble_inverts_decompose_bit_identically(self, factory):
        cm = quito_backend().coupling_map
        mitigator = self._prepared(factory(cm))
        state = mitigator.calibration_state()
        plan = mitigator.calibration_plan()
        assert plan is not None
        assert deep_equal(
            assemble_calibration_state(mitigator.name, plan), state
        )
        # and decompose is plan: same node payloads
        assert deep_equal(plan, decompose_calibration_state(mitigator.name, state))

    def test_plan_is_none_for_stateless_methods(self):
        from repro.mitigation.bare import BareMitigator

        assert BareMitigator().calibration_plan() is None

    def test_graph_measured_state_loads_into_mitigator(self, tmp_path):
        backend = quito_backend()
        cm = backend.coupling_map
        graph = build_calibration_graph("CMC", cm)
        sched = CalibrationScheduler(
            graph,
            CalibrationCache(ArtifactStore(LocalDirBackend(tmp_path))),
            device="quito", method="CMC", shots_per_node=256,
        )
        report = sched.run(backend)
        assembled = assemble_calibration_state("CMC", report.node_states())
        mitigator = CMCMitigator(cm, k=1)
        mitigator.load_calibration_state(assembled)
        # the loaded state round-trips through the mitigator's own snapshot
        assert deep_equal(mitigator.calibration_state(), assembled)
        assert deep_equal(mitigator.calibration_plan(), report.node_states())


# ----------------------------------------------------------------------
# Node cache tiers
# ----------------------------------------------------------------------
class TestGraphCacheTiers:
    def _key(self, node="edge:0-1", fingerprint="f" * 16):
        return node_key(
            device="quito", method="CMC", node=node, qubits=(0, 1),
            shots=128, seed=0, fingerprint=fingerprint, deps={},
        )

    def _state(self):
        return CalNodeState("edge:0-1", "measure", (0, 1), {"x": 1}, "f" * 16)

    def test_peek_is_stat_free_through_both_tiers(self, store):
        writer = CalibrationCache(store)
        key = self._key()
        assert writer.peek(key) is None
        assert writer.stats().hits == writer.stats().misses == 0
        writer.store(key, self._state(), 128, 4)

        # a *fresh* cache over the same store: memory tier empty, so peek
        # must fall through to the artifact tier and promote
        reader = CalibrationCache(store)
        record = reader.peek(key)
        assert record is not None and record.shots_spent == 128
        assert reader.stats().hits == 0  # stat-free by contract
        assert len(reader) == 1  # promoted into the memory tier

    def test_lookup_counts_saved_work(self, store):
        writer = CalibrationCache(store)
        key = self._key()
        writer.store(key, self._state(), 128, 4)
        reader = CalibrationCache(store)
        assert reader.lookup(key) is not None
        stats = reader.stats()
        assert (stats.hits, stats.saved_shots, stats.saved_circuits) == (1, 128, 4)
        assert reader.lookup(self._key(fingerprint="0" * 16)) is None

    def test_contains_never_deserialises(self, store):
        cache = CalibrationCache(store)
        key = self._key()
        assert not cache.contains(key)
        cache.store(key, self._state(), 1, 1)
        assert CalibrationCache(store).contains(key)

    def test_graph_cache_rides_the_persistent_cache_store(self, store):
        """Sweep calibration keys and node keys coexist in one store (and
        one cache) without key collisions."""
        monolithic = CalibrationCache(store)
        mono_key = calibration_key(("cal", "digest", 0, 0, "CMC", 16000))
        assert monolithic.peek(mono_key) is None  # miss before anything

        nodes = CalibrationCache(store)
        assert nodes.artifact_store is store
        nkey = self._key()
        nodes.store(nkey, self._state(), 128, 4)

        assert node_digest(nkey) != canonical_key_digest(mono_key)
        # node-granular writes don't make the monolithic key appear...
        assert monolithic.peek(mono_key) is None
        monolithic.store(mono_key, {"patch_calibrations": {}}, 64, 2)
        # ...and both tiers now hit independently through fresh instances
        assert CalibrationCache(store).peek(mono_key) is not None
        assert CalibrationCache(store).peek(nkey) is not None

    def test_node_key_digest_is_stable(self):
        # the key layout every store written so far is addressed by
        key = self._key()
        literal = {
            "kind": "calgraph-node",
            "version": __version__,
            "key": {
                "device": "quito",
                "method": "CMC",
                "node": "edge:0-1",
                "qubits": (0, 1),
                "shots": 128,
                "seed": 0,
                "noise": "f" * 16,
                "deps": {},
                "params": {},
            },
        }
        assert node_digest(key) == canonical_key_digest(literal)

    def test_node_digest_changes_with_any_key_field(self):
        base = self._key()
        assert node_digest(base) == node_digest(self._key())
        assert node_digest(base) != node_digest(self._key(fingerprint="0" * 16))
        assert node_digest(base) != node_digest(self._key(node="edge:1-2"))


# ----------------------------------------------------------------------
# Codec round trips
# ----------------------------------------------------------------------
def _cal_matrix(seed, num_qubits):
    from repro.utils.linalg import column_normalize

    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    raw = rng.uniform(0.0, 1.0, size=(dim, dim)) + np.eye(dim)
    qubits = tuple(int(q) for q in rng.permutation(6)[:num_qubits])
    return CalibrationMatrix(qubits, column_normalize(raw))


node_payloads = st.one_of(
    st.builds(
        lambda cal: {"cal": cal},
        st.builds(_cal_matrix, st.integers(0, 1000), st.integers(1, 2)),
    ),
    st.dictionaries(
        st.text(max_size=8),
        st.one_of(st.integers(-100, 100), st.floats(allow_nan=False)),
        max_size=3,
    ),
)

node_states = st.builds(
    CalNodeState,
    st.text(min_size=1, max_size=12),
    st.sampled_from(["measure", "derive"]),
    st.lists(st.integers(0, 20), max_size=3, unique=True).map(tuple),
    node_payloads,
    st.text(alphabet="0123456789abcdef", min_size=0, max_size=16),
)


class TestNodeStateCodec:
    @given(node_states)
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_round_trip_bit_identical(self, state):
        arrays = {}
        structure = json.loads(json.dumps(encode(state, arrays)))
        clone = decode(structure, arrays)
        assert isinstance(clone, CalNodeState)
        assert deep_equal(clone, state)

    def test_store_round_trip(self, store):
        state = CalNodeState(
            "edge:0-1", "measure", (0, 1), {"cal": _cal_matrix(7, 2)}, "ab" * 8
        )
        key = {"kind": "probe", "version": "x", "key": ("roundtrip",)}
        store.put(key, {"state": state})
        clone = store.get(key)["state"]
        assert deep_equal(clone, state)
