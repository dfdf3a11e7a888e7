"""Tests for the baseline mitigators: Bare, Full, Linear."""

import numpy as np
import pytest

from repro.analysis import one_norm_distance, success_probability
from repro.backends import BudgetExceeded, ShotBudget, SimulatedBackend
from repro.circuits import Circuit, calibration_circuit, ghz_bfs
from repro.core import CalibrationMatrix
from repro.mitigation import (
    BareMitigator,
    FullCalibrationMitigator,
    LinearCalibrationMitigator,
)
from repro.mitigation.full import NotScalableError
from repro.noise import (
    MeasurementErrorChannel,
    NoiseModel,
    ReadoutError,
    correlated_pair_channel,
)
from repro.topology import linear


def tensored_backend(n=3, seed=0, p=0.06):
    ch = MeasurementErrorChannel.from_readout_errors(
        [ReadoutError(p * 0.4, p) for _ in range(n)]
    )
    return SimulatedBackend(linear(n), NoiseModel.measurement_only(ch), rng=seed)


def correlated_backend(n=3, seed=0, p=0.12):
    ch = MeasurementErrorChannel(n)
    for q in range(n):
        ch.add_readout(q, ReadoutError(0.01, 0.03))
    ch.add_local((0, 1), correlated_pair_channel(p))
    return SimulatedBackend(linear(n), NoiseModel.measurement_only(ch), rng=seed)


def gate_noise_backend(n=3, seed=0):
    channel = correlated_backend(n).noise_model.measurement_channel
    model = NoiseModel(n, error_1q=0.01, measurement_channel=channel)
    return SimulatedBackend(linear(n), model, rng=seed)


def ghz_ideal(n):
    v = np.zeros(2**n)
    v[0] = v[-1] = 0.5
    return v


class TestBare:
    def test_spends_full_budget_on_target(self):
        backend = tensored_backend()
        budget = ShotBudget(5000)
        out = BareMitigator().execute(ghz_bfs(linear(3)), backend, budget)
        assert out.shots == 5000
        assert budget.by_tag() == {"target": 5000}

    def test_uncapped_budget_rejected(self):
        backend = tensored_backend()
        with pytest.raises(ValueError):
            BareMitigator().execute(ghz_bfs(linear(3)), backend, ShotBudget())


class TestFull:
    def test_recovers_from_tensored_noise(self):
        backend = tensored_backend(seed=1)
        mit = FullCalibrationMitigator()
        qc = ghz_bfs(linear(3))
        out = mit.run(qc, backend, total_shots=64000)
        bare = backend.run(qc, 32000)
        assert one_norm_distance(out, ghz_ideal(3)) < one_norm_distance(
            bare, ghz_ideal(3)
        )

    def test_recovers_from_correlated_noise(self):
        """Full calibration sees correlations — its accuracy advantage."""
        backend = correlated_backend(seed=2)
        mit = FullCalibrationMitigator()
        qc = ghz_bfs(linear(3))
        out = mit.run(qc, backend, total_shots=128000)
        assert one_norm_distance(out, ghz_ideal(3)) < 0.08

    def test_scaling_ceiling(self):
        backend = SimulatedBackend(linear(13), rng=0)
        mit = FullCalibrationMitigator(max_qubits=12)
        with pytest.raises(NotScalableError):
            mit.prepare(backend, ShotBudget(1000))

    def test_circuit_count_is_exponential(self):
        backend = tensored_backend(n=4, seed=3)
        budget = ShotBudget(32000)
        mit = FullCalibrationMitigator()
        mit.prepare(backend, budget)
        assert budget.circuits_executed == 16

    def test_low_budget_degrades(self):
        """The Fig. 12 sampling tail: starve Full of shots and its output
        gets worse than a well-fed run."""
        qc = ghz_bfs(linear(3))
        rich = FullCalibrationMitigator().run(
            qc, tensored_backend(seed=4), total_shots=64000
        )
        poor = FullCalibrationMitigator().run(
            qc, tensored_backend(seed=4), total_shots=160
        )
        assert one_norm_distance(poor, ghz_ideal(3)) > one_norm_distance(
            rich, ghz_ideal(3)
        )

    def test_execute_before_prepare(self):
        with pytest.raises(RuntimeError):
            FullCalibrationMitigator().execute(
                ghz_bfs(linear(3)), tensored_backend(), ShotBudget(10)
            )

    def test_mitigates_measured_subset(self):
        backend = tensored_backend(seed=5)
        mit = FullCalibrationMitigator()
        budget = ShotBudget(48000)
        mit.prepare(backend, budget)
        qc = Circuit(3).x(1).measure([1, 2])
        out = mit.execute(qc, backend, budget)
        assert out.measured_qubits == (1, 2)
        assert success_probability(out, 0b01) > 0.9


def sequential_full_calibration(backend, budget, fraction=0.5):
    """The suite as a loop of single ``run`` calls (oracle for ``prepare``)."""
    n = backend.num_qubits
    shots = budget.split_evenly(1 << n, fraction=fraction)
    counts = {
        prepared: backend.run(
            calibration_circuit(n, prepared), shots, budget=budget, tag="calibration"
        )
        for prepared in range(1 << n)
    }
    return CalibrationMatrix.from_counts(tuple(range(n)), counts)


class TestFullBatchedSuite:
    """``Full.prepare`` submits its 2^n circuits as one ``run_batch``."""

    @pytest.mark.parametrize(
        "make_backend",
        [
            lambda: tensored_backend(n=4, seed=11),
            lambda: correlated_backend(n=3, seed=12),
            lambda: gate_noise_backend(seed=13),
        ],
        ids=["tensored", "correlated", "gate-noise"],
    )
    def test_matches_sequential_run_loop_bitwise(self, make_backend):
        oracle_backend, oracle_budget = make_backend(), ShotBudget(40000)
        expected = sequential_full_calibration(oracle_backend, oracle_budget)
        backend, budget = make_backend(), ShotBudget(40000)
        mit = FullCalibrationMitigator()
        mit.prepare(backend, budget, calibration_fraction=0.5)
        assert mit.calibration.qubits == expected.qubits
        assert mit.calibration.matrix.tobytes() == expected.matrix.tobytes()
        assert budget.by_tag() == oracle_budget.by_tag()
        assert budget.circuits_executed == oracle_budget.circuits_executed
        # the sampling stream is left where the loop would leave it
        qc = ghz_bfs(linear(backend.num_qubits))
        assert dict(backend.run(qc, 500)) == dict(oracle_backend.run(qc, 500))

    def test_unaffordable_suite_charges_nothing(self, monkeypatch):
        backend = tensored_backend(n=3, seed=14)
        budget = ShotBudget(1000)
        # 8 circuits x 200 shots overdraws the 1000-shot budget
        monkeypatch.setattr(budget, "split_evenly", lambda *args, **kwargs: 200)
        mit = FullCalibrationMitigator()
        with pytest.raises(BudgetExceeded):
            mit.prepare(backend, budget)
        assert budget.spent == 0
        assert budget.circuits_executed == 0
        assert mit.calibration is None
        assert backend._dist_cache == {}


class TestLinear:
    def test_two_circuit_calibration(self):
        backend = tensored_backend(seed=6)
        budget = ShotBudget(32000)
        mit = LinearCalibrationMitigator(two_circuit=True)
        mit.prepare(backend, budget)
        assert budget.circuits_executed == 2
        assert set(mit.factors) == {0, 1, 2}

    def test_per_qubit_calibration(self):
        backend = tensored_backend(seed=7)
        budget = ShotBudget(32000)
        mit = LinearCalibrationMitigator(two_circuit=False)
        mit.prepare(backend, budget)
        assert budget.circuits_executed == 6

    def test_matches_full_on_tensored_noise(self):
        """Per-qubit noise is exactly Linear's model: near-Full accuracy."""
        qc = ghz_bfs(linear(3))
        lin = LinearCalibrationMitigator().run(
            qc, tensored_backend(seed=8), total_shots=64000
        )
        assert one_norm_distance(lin, ghz_ideal(3)) < 0.06

    def test_misses_correlated_noise(self):
        """Linear cannot represent correlations — CMC's raison d'etre."""
        backend = correlated_backend(seed=9, p=0.15)
        qc = ghz_bfs(linear(3))
        lin = LinearCalibrationMitigator().run(qc, backend, total_shots=64000)
        full = FullCalibrationMitigator().run(
            qc, correlated_backend(seed=9, p=0.15), total_shots=64000
        )
        assert one_norm_distance(full, ghz_ideal(3)) < one_norm_distance(
            lin, ghz_ideal(3)
        )

    def test_factor_estimates_match_truth(self):
        backend = tensored_backend(seed=10, p=0.05)
        mit = LinearCalibrationMitigator()
        mit.prepare(backend, ShotBudget(200000))
        truth = backend.noise_model.measurement_channel
        for q, cal in mit.factors.items():
            exact = CalibrationMatrix.exact_from_channel(truth, (q,))
            assert cal.distance_from(exact) < 0.03

    def test_set_factors_validation(self):
        mit = LinearCalibrationMitigator()
        with pytest.raises(ValueError):
            mit.set_factors({0: CalibrationMatrix.identity((0, 1))})

    def test_execute_before_prepare(self):
        with pytest.raises(RuntimeError):
            LinearCalibrationMitigator().execute(
                ghz_bfs(linear(3)), tensored_backend(), ShotBudget(10)
            )

    def test_subset_measurement(self):
        backend = tensored_backend(seed=11)
        mit = LinearCalibrationMitigator()
        budget = ShotBudget(32000)
        mit.prepare(backend, budget)
        qc = Circuit(3).x(0).measure([0])
        out = mit.execute(qc, backend, budget)
        assert success_probability(out, 1) > 0.95
