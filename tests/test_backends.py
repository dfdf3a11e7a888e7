"""Tests for SimulatedBackend, ShotBudget and the preset profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backends.backend as backend_module
from repro.backends import (
    BudgetExceeded,
    DEVICE_PROFILES,
    ShotBudget,
    SimulatedBackend,
    architecture_backend,
    device_profile_backend,
)
from repro.circuits import Circuit, calibration_circuit, ghz_bfs
from repro.circuits.transpile import CouplingViolation
from repro.noise import (
    MeasurementErrorChannel,
    NoiseModel,
    ReadoutError,
    correlated_pair_channel,
)
from repro.simulator.statevector import simulate_statevector
from repro.simulator.trajectories import TrajectorySimulator
from repro.topology import grid, ibm_quito, linear


class TestShotBudget:
    def test_charge_and_remaining(self):
        b = ShotBudget(1000)
        b.charge(300, tag="calibration")
        assert b.spent == 300
        assert b.remaining == 700
        assert b.circuits_executed == 1

    def test_overdraw_raises(self):
        b = ShotBudget(100)
        with pytest.raises(BudgetExceeded):
            b.charge(101)

    def test_exact_spend_ok(self):
        b = ShotBudget(100)
        b.charge(100)
        assert b.remaining == 0

    def test_unlimited(self):
        b = ShotBudget()
        b.charge(10**9)
        assert b.remaining is None

    def test_by_tag(self):
        b = ShotBudget(100)
        b.charge(30, tag="calibration")
        b.charge(20, tag="calibration")
        b.charge(50, tag="target")
        assert b.by_tag() == {"calibration": 50, "target": 50}

    def test_split_evenly(self):
        b = ShotBudget(1000)
        assert b.split_evenly(4) == 250
        assert b.split_evenly(4, fraction=0.5) == 125

    def test_split_underflow_gives_zero(self):
        b = ShotBudget(10)
        assert b.split_evenly(100) == 0

    def test_split_unlimited_raises(self):
        with pytest.raises(ValueError):
            ShotBudget().split_evenly(4)

    def test_negative_charge(self):
        with pytest.raises(ValueError):
            ShotBudget(10).charge(-1)

    def test_zero_charge_not_a_circuit(self):
        b = ShotBudget(10)
        b.charge(0)
        assert b.circuits_executed == 0


class TestSimulatedBackendIdeal:
    def test_ghz_counts_bimodal(self):
        cmap = linear(4)
        backend = SimulatedBackend(cmap, rng=0)
        counts = backend.run(ghz_bfs(cmap), shots=4000)
        probs = counts.to_probabilities()
        assert set(probs) == {0, 0b1111}
        assert abs(probs[0] - 0.5) < 0.05

    def test_coupling_validation(self):
        backend = SimulatedBackend(linear(4), rng=0)
        bad = Circuit(4).cx(0, 3).measure_all()
        with pytest.raises(CouplingViolation):
            backend.run(bad, 10)

    def test_validation_can_be_disabled(self):
        backend = SimulatedBackend(linear(4), rng=0, validate_coupling=False)
        bad = Circuit(4).cx(0, 3).measure_all()
        assert backend.run(bad, 10).shots == 10

    def test_budget_charged(self):
        backend = SimulatedBackend(linear(3), rng=0)
        budget = ShotBudget(100)
        backend.run(ghz_bfs(linear(3)), 60, budget=budget, tag="target")
        assert budget.spent == 60
        with pytest.raises(BudgetExceeded):
            backend.run(ghz_bfs(linear(3)), 60, budget=budget)

    def test_run_batch(self):
        backend = SimulatedBackend(linear(3), rng=0)
        circs = [ghz_bfs(linear(3)), Circuit(3).x(0).measure_all()]
        results = backend.run_batch(circs, 50)
        assert len(results) == 2
        assert all(c.shots == 50 for c in results)

    def test_noise_model_size_mismatch(self):
        with pytest.raises(ValueError):
            SimulatedBackend(linear(3), NoiseModel.ideal(5))


class TestSimulatedBackendNoisy:
    def make_backend(self, p=0.2):
        ch = MeasurementErrorChannel(2)
        ch.add_readout(0, ReadoutError(p, p))
        model = NoiseModel.measurement_only(ch)
        return SimulatedBackend(linear(2), model, rng=1)

    def test_measurement_noise_applied(self):
        backend = self.make_backend(0.2)
        qc = Circuit(2).measure_all()  # |00>
        dist = backend.exact_distribution(qc)
        np.testing.assert_allclose(dist, [0.8, 0.2, 0, 0], atol=1e-12)

    def test_subset_measurement(self):
        backend = self.make_backend(0.3)
        qc = Circuit(2).measure([0])
        dist = backend.exact_distribution(qc)
        np.testing.assert_allclose(dist, [0.7, 0.3], atol=1e-12)

    def test_gate_noise_widens_distribution(self):
        cmap = linear(4)
        noisy = NoiseModel(num_qubits=4, error_1q=0.01, error_2q=0.05)
        backend = SimulatedBackend(cmap, noisy, rng=3)
        dist = backend.exact_distribution(ghz_bfs(cmap))
        # some probability leaks out of the two GHZ peaks
        assert dist[0] + dist[-1] < 0.999
        assert np.isclose(dist.sum(), 1.0)

    def test_distribution_cached_but_sampling_fresh(self):
        backend = self.make_backend()
        qc = Circuit(2).measure_all()
        a = backend.run(qc, 500)
        b = backend.run(qc, 500)
        # same distribution object cached; samples differ (new shot noise)
        assert dict(a) != dict(b) or a.shots == b.shots

    def test_clear_cache(self):
        backend = self.make_backend()
        qc = Circuit(2).measure_all()
        backend.run(qc, 10)
        backend.clear_cache()
        assert backend._dist_cache == {}


class TestBatchedDeterminism:
    """Pins for the batched trajectory engine's backend-facing guarantees.

    The trajectory noise stream has changed twice, both times deliberately
    (documented in :mod:`repro.backends.backend`): once when the batched
    engine began consuming the per-circuit stream in vectorised order, and
    once when the rejection loop for the ">= 1 gate error" conditioning was
    replaced by the exact inverse-CDF first-event sampler (same law, fewer
    and different draws).  This pin freezes the *current* values so any
    future drift is a deliberate, test-visible event.
    """

    # exact_distribution of ghz_bfs(linear(3)) under the model below, rng=1234.
    PINNED = [
        0.4451821687259673,
        0.027957444425582883,
        0.02362865976905822,
        0.028231727079391467,
        0.00785506853675842,
        0.024005318311691278,
        0.03833410296821593,
        0.40480551018333416,
    ]

    def make_backend(self):
        errs = (
            ReadoutError(0.02, 0.05),
            ReadoutError(0.03, 0.04),
            ReadoutError(0.01, 0.06),
        )
        model = NoiseModel(
            3,
            error_1q=0.01,
            error_2q=0.05,
            measurement_channel=MeasurementErrorChannel.from_readout_errors(errs),
            readout_errors=errs,
            name="pin",
        )
        return SimulatedBackend(linear(3), model, rng=1234, max_trajectories=32)

    def test_pinned_distribution(self):
        dist = self.make_backend().exact_distribution(ghz_bfs(linear(3)))
        np.testing.assert_allclose(dist, self.PINNED, rtol=0, atol=1e-15)

    def test_pure_function_of_seed_and_circuit(self):
        """Execution order must not perturb the trajectory average."""
        qc = ghz_bfs(linear(3))
        direct = self.make_backend().exact_distribution(qc)
        other_first = self.make_backend()
        other_first.exact_distribution(ghz_bfs(linear(3), num_qubits=2))
        np.testing.assert_array_equal(direct, other_first.exact_distribution(qc))

    def test_run_batch_matches_run(self):
        """Same distributions and same sampling draws either way."""
        qc = ghz_bfs(linear(3))
        a = self.make_backend().run_batch([qc], 200)[0]
        b = self.make_backend().run(qc, 200)
        assert dict(a) == dict(b)

    def test_run_batch_charges_budget_upfront(self):
        backend = self.make_backend()
        qc = ghz_bfs(linear(3))
        budget = ShotBudget(100)
        with pytest.raises(BudgetExceeded):
            backend.run_batch([qc, qc, qc], 60, budget=budget)
        # No partial charge may survive an overdrawn batch: the ledger must
        # still afford work the budget actually covers.
        assert budget.spent == 0
        backend.run(qc, 100, budget=budget)
        assert budget.spent == 100

    def test_batch_groups_measured_subsets(self):
        """Mixed measured signatures batch through the channel correctly."""
        backend = self.make_backend()
        full = ghz_bfs(linear(3))
        subset = ghz_bfs(linear(3), num_qubits=2)
        batch = backend.run_batch([full, subset, full], 100)
        fresh = self.make_backend()
        np.testing.assert_array_equal(
            backend.exact_distribution(full), fresh.exact_distribution(full)
        )
        np.testing.assert_array_equal(
            backend.exact_distribution(subset), fresh.exact_distribution(subset)
        )
        assert batch[0].measured_qubits == full.measured_qubits
        assert batch[1].measured_qubits == subset.measured_qubits

    def test_trajectory_memory_budget_forwarded(self):
        model = NoiseModel(3, error_1q=0.01, error_2q=0.05)
        tight = SimulatedBackend(
            linear(3),
            model,
            rng=9,
            max_trajectories=16,
            trajectory_memory_bytes=4 * (1 << 3) * 16,
        )
        roomy = SimulatedBackend(linear(3), model, rng=9, max_trajectories=16)
        qc = ghz_bfs(linear(3))
        np.testing.assert_allclose(
            tight.exact_distribution(qc), roomy.exact_distribution(qc), atol=1e-12
        )


@st.composite
def x_only_circuits(draw):
    """Random X-only circuit: repeated targets, any measured order."""
    n = draw(st.integers(2, 6))
    qc = Circuit(n)
    for q in draw(st.lists(st.integers(0, n - 1), max_size=10)):
        qc.x(q)
    if draw(st.booleans()):
        qc.measure_all()
    else:
        subset = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        qc.measure(draw(st.permutations(subset)))
    return qc


def correlated_channel(n):
    channel = MeasurementErrorChannel(n)
    for q in range(n):
        channel.add_readout(q, ReadoutError(0.01 + 0.01 * q, 0.05))
    channel.add_local((0, 1), correlated_pair_channel(0.1))
    return channel


class TestBasisStateShortcut:
    """X-only circuits skip the statevector when there is no gate noise."""

    @settings(max_examples=150, deadline=None)
    @given(qc=x_only_circuits())
    def test_one_hot_is_statevector_bitwise(self, qc):
        backend = SimulatedBackend(linear(qc.num_qubits))
        one_hot = backend._pre_channel_distribution(qc, qc.fingerprint())
        expected = simulate_statevector(qc)
        assert one_hot.dtype == expected.dtype
        assert one_hot.tobytes() == expected.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(qc=x_only_circuits())
    def test_noisy_distribution_matches_statevector_route(self, qc):
        channel = correlated_channel(qc.num_qubits)
        backend = SimulatedBackend(
            linear(qc.num_qubits), NoiseModel.measurement_only(channel)
        )
        expected = channel.apply_marginal(
            simulate_statevector(qc)[None, :], qc.measured_qubits
        )[0]
        assert backend.exact_distribution(qc).tobytes() == expected.tobytes()

    def test_statevector_not_run_for_basis_states(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("statevector simulated an X-only circuit")

        monkeypatch.setattr(backend_module.StatevectorSimulator, "run", refuse)
        backend = SimulatedBackend(linear(3))
        dist = backend.exact_distribution(Circuit(3).x(0).x(2).measure_all())
        assert dist.tolist() == [0, 0, 0, 0, 0, 1.0, 0, 0]

    def test_basis_state_circuits_still_validated(self):
        qc = Circuit(4).x(3).measure_all()
        with pytest.raises(ValueError, match="device has 3"):
            SimulatedBackend(linear(3)).run(qc, 10)
        unchecked = SimulatedBackend(linear(3), validate_coupling=False)
        with pytest.raises(ValueError, match="larger than device"):
            unchecked.run(qc, 10)

    def test_gate_noise_keeps_trajectories(self, monkeypatch):
        calls = []
        original = TrajectorySimulator.output_distribution

        def spy(self, circuit, *args, **kwargs):
            calls.append(circuit.fingerprint())
            return original(self, circuit, *args, **kwargs)

        monkeypatch.setattr(TrajectorySimulator, "output_distribution", spy)
        model = NoiseModel(3, error_1q=0.2, error_2q=0.0)
        backend = SimulatedBackend(linear(3), model, rng=5)
        qc = Circuit(3).x(1).measure_all()
        dist = backend.exact_distribution(qc)
        assert calls == [qc.fingerprint()]
        # the X gate's errors leak mass off the prepared state
        assert dist[0b010] < 1.0


class TestChannelStacking:
    """Same-register stacks are chunked under CHANNEL_STACK_BYTES."""

    def suite(self, n):
        circuits = [calibration_circuit(n, p) for p in range(1 << n)]
        circuits += [ghz_bfs(linear(n)), Circuit(n).h(0).h(2).measure([2, 0, 1])]
        return circuits

    def backend(self, n, seed=3):
        model = NoiseModel.measurement_only(correlated_channel(n))
        return SimulatedBackend(linear(n), model, rng=seed)

    def test_rows_independent_of_chunk_size(self, monkeypatch):
        n = 4
        stacked = self.backend(n)._noisy_distributions(self.suite(n))
        counts = self.backend(n).run_batch(self.suite(n), 300)
        monkeypatch.setattr(backend_module, "CHANNEL_STACK_BYTES", 1)
        single = self.backend(n)._noisy_distributions(self.suite(n))
        for a, b in zip(stacked, single):
            assert a.tobytes() == b.tobytes()
        assert [dict(c) for c in self.backend(n).run_batch(self.suite(n), 300)] == [
            dict(c) for c in counts
        ]

    @pytest.fixture
    def stacks(self, monkeypatch):
        """Shapes of every stack the measurement channel receives."""
        shapes = []
        original = MeasurementErrorChannel.apply_marginal

        def spy(self, probabilities, measured_qubits):
            shapes.append(np.shape(probabilities))
            return original(self, probabilities, measured_qubits)

        monkeypatch.setattr(MeasurementErrorChannel, "apply_marginal", spy)
        return shapes

    def test_no_stack_exceeds_ceiling(self, monkeypatch, stacks):
        n = 4
        ceiling = 5 * 8 * (1 << n)  # five full-register rows
        monkeypatch.setattr(backend_module, "CHANNEL_STACK_BYTES", ceiling)
        self.backend(n)._noisy_distributions(self.suite(n))
        assert all(8 * rows * width <= ceiling for rows, width in stacks)
        # 17 full-register rows -> 5 + 5 + 5 + 2; the 3-qubit subset alone
        assert sorted(stacks) == [(1, 8), (2, 16), (5, 16), (5, 16), (5, 16)]

    def test_default_ceiling_bounds_large_registers(self, stacks):
        n = 12
        channel = MeasurementErrorChannel.from_readout_errors(
            [ReadoutError(0.02, 0.05)] * n
        )
        backend = SimulatedBackend(linear(n), NoiseModel.measurement_only(channel))
        backend._noisy_distributions([calibration_circuit(n, p) for p in range(600)])
        rows = backend_module.CHANNEL_STACK_BYTES // (8 << n)
        assert rows == 128
        assert [shape[0] for shape in stacks] == [128] * 4 + [88]


class TestPresets:
    def test_architecture_backend_grid(self):
        backend = architecture_backend("grid", 9, rng=0)
        assert backend.num_qubits == 9
        assert backend.noise_model.measurement_channel.is_tensored()

    def test_architecture_backend_unknown(self):
        with pytest.raises(KeyError):
            architecture_backend("torus", 9)

    def test_all_device_profiles_build(self):
        for name in DEVICE_PROFILES:
            backend = device_profile_backend(name, rng=0)
            assert backend.num_qubits in (5, 7)

    def test_quito_profile_coupling_aligned(self):
        backend = device_profile_backend("quito", rng=1)
        cmap = ibm_quito()
        for e in backend.noise_model.correlated_edges:
            assert e in cmap

    def test_nairobi_profile_off_coupling(self):
        backend = device_profile_backend("nairobi", rng=1)
        for e in backend.noise_model.correlated_edges:
            assert e not in backend.coupling_map

    def test_gate_noise_flag(self):
        backend = device_profile_backend("lima", rng=2, gate_noise=False)
        assert not backend.noise_model.has_gate_noise

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            device_profile_backend("atlantis")

    def test_profile_name_prefix(self):
        assert device_profile_backend("ibmq_quito", rng=0).num_qubits == 5
