"""Tests for the Pauli-trajectory gate-noise simulator."""

import time

import numpy as np
import pytest
from scipy import stats

from repro.backends import SimulatedBackend
from repro.circuits import Circuit, ghz_bfs
from repro.noise import NoiseModel
from repro.simulator import (
    StatevectorSimulator,
    TrajectorySimulator,
    simulate_statevector,
)
from repro.topology import linear


class TestConstruction:
    def test_validates_probabilities(self):
        with pytest.raises(ValueError):
            TrajectorySimulator(error_1q=1.5)
        with pytest.raises(ValueError):
            TrajectorySimulator(error_2q=-0.1)

    def test_validates_trajectory_cap(self):
        with pytest.raises(ValueError):
            TrajectorySimulator(max_trajectories=0)


class TestErrorFreeProbability:
    def test_no_noise_is_one(self):
        sim = TrajectorySimulator()
        assert sim.error_free_probability(ghz_bfs(linear(4))) == 1.0

    def test_product_over_gates(self):
        sim = TrajectorySimulator(error_1q=0.1, error_2q=0.2)
        qc = Circuit(2).h(0).cx(0, 1)  # one 1q + one 2q gate
        assert sim.error_free_probability(qc) == pytest.approx(0.9 * 0.8)

    def test_empty_circuit(self):
        sim = TrajectorySimulator(error_1q=0.5)
        assert sim.error_free_probability(Circuit(1)) == 1.0


class TestOutputDistribution:
    def test_noiseless_matches_ideal(self):
        sim = TrajectorySimulator()
        qc = ghz_bfs(linear(3))
        dist = sim.output_distribution(qc, shots=1000, rng=0)
        np.testing.assert_allclose(dist, simulate_statevector(qc), atol=1e-12)

    def test_zero_shots_is_ideal(self):
        sim = TrajectorySimulator(error_1q=0.5)
        qc = ghz_bfs(linear(2))
        dist = sim.output_distribution(qc, shots=0, rng=0)
        np.testing.assert_allclose(dist, simulate_statevector(qc), atol=1e-12)

    def test_distribution_normalised(self):
        sim = TrajectorySimulator(error_1q=0.02, error_2q=0.05)
        dist = sim.output_distribution(ghz_bfs(linear(4)), shots=4000, rng=1)
        assert np.isclose(dist.sum(), 1.0)
        assert dist.min() >= 0

    def test_noise_leaks_probability(self):
        sim = TrajectorySimulator(error_1q=0.01, error_2q=0.05)
        qc = ghz_bfs(linear(4))
        dist = sim.output_distribution(qc, shots=8000, rng=2)
        assert dist[0] + dist[-1] < 0.999
        # but the GHZ peaks still dominate at these rates
        assert dist[0] + dist[-1] > 0.7

    def test_error_weight_scales_with_rate(self):
        qc = ghz_bfs(linear(4))
        lo = TrajectorySimulator(error_2q=0.01).output_distribution(qc, 16000, rng=3)
        hi = TrajectorySimulator(error_2q=0.10).output_distribution(qc, 16000, rng=3)
        assert (hi[0] + hi[-1]) < (lo[0] + lo[-1])

    def test_deterministic_given_seed(self):
        sim = TrajectorySimulator(error_1q=0.02, max_trajectories=16)
        qc = ghz_bfs(linear(3))
        a = sim.output_distribution(qc, 2000, rng=7)
        b = sim.output_distribution(qc, 2000, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_measured_subset(self):
        sim = TrajectorySimulator(error_1q=0.01)
        qc = ghz_bfs(linear(4), num_qubits=2)
        dist = sim.output_distribution(qc, 2000, rng=4)
        assert dist.size == 4

    def test_single_qubit_x_error_flips(self):
        """With error rate 1 on a single-gate circuit, every shot carries
        exactly one Pauli; X/Y errors flip the |1> into |0>."""
        sim = TrajectorySimulator(error_1q=1.0, max_trajectories=64)
        qc = Circuit(1).x(0).measure_all()
        dist = sim.output_distribution(qc, 4000, rng=5)
        # 2/3 of Paulis (X, Y) flip the state, 1/3 (Z) leaves it.
        assert 0.45 < dist[0] < 0.85

    def test_trajectory_cap_respected(self):
        sim = TrajectorySimulator(error_1q=0.5, max_trajectories=4)
        qc = Circuit(2).h(0).h(1).measure_all()
        dist = sim.output_distribution(qc, 10000, rng=6)
        assert np.isclose(dist.sum(), 1.0)

    def test_memory_budget_validated(self):
        with pytest.raises(ValueError):
            TrajectorySimulator(memory_budget_bytes=0)

    def test_chunked_matches_unchunked(self):
        """Forcing many small chunks must not change the average (1e-12)."""
        qc = ghz_bfs(linear(5))
        big = TrajectorySimulator(error_1q=0.02, error_2q=0.05, max_trajectories=32)
        small = TrajectorySimulator(
            error_1q=0.02,
            error_2q=0.05,
            max_trajectories=32,
            memory_budget_bytes=3 * (1 << 5) * 16,  # 3 rows per chunk
        )
        a = big.output_distribution(qc, 8000, rng=12)
        b = small.output_distribution(qc, 8000, rng=12)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestGateErrorProbsCache:
    def test_cached_per_fingerprint(self):
        sim = TrajectorySimulator(error_1q=0.1, error_2q=0.2)
        qc = Circuit(2).h(0).cx(0, 1)
        first = sim._gate_error_probs(qc)
        second = sim._gate_error_probs(qc.copy())
        assert first is second  # content-equal circuit hits the cache
        np.testing.assert_array_equal(first, [0.1, 0.2])

    def test_cache_is_read_only(self):
        sim = TrajectorySimulator(error_1q=0.1)
        probs = sim._gate_error_probs(Circuit(1).h(0))
        with pytest.raises(ValueError):
            probs[0] = 0.5

    def test_rate_mutation_does_not_serve_stale_entry(self):
        sim = TrajectorySimulator(error_1q=0.1)
        qc = Circuit(1).h(0)
        np.testing.assert_array_equal(sim._gate_error_probs(qc), [0.1])
        sim.error_1q = 0.3
        np.testing.assert_array_equal(sim._gate_error_probs(qc), [0.3])


class TestBatchedSerialEquivalence:
    """The acceptance pin: identical distributions for the same events."""

    def _equivalence(self, circuit, n_traj, seed, **kwargs):
        sim = TrajectorySimulator(**kwargs)
        batch = sim._sample_event_batch(circuit, n_traj, np.random.default_rng(seed))
        batched = sim._run_event_batch(circuit, batch, n_traj)
        ref = StatevectorSimulator(circuit.num_qubits)
        acc = np.zeros_like(batched)
        for row in range(n_traj):
            acc += sim._run_with_events(circuit, batch.events_for_row(row), ref)
        np.testing.assert_allclose(batched, acc / n_traj, atol=1e-12)

    def test_mixed_gate_circuit(self):
        qc = Circuit(3).h(0).cx(0, 1).t(1).cx(1, 2).rx(0.4, 0).measure_all()
        self._equivalence(qc, 24, seed=1, error_1q=0.1, error_2q=0.2)

    def test_ghz(self):
        self._equivalence(
            ghz_bfs(linear(6)), 32, seed=2, error_1q=0.001, error_2q=0.01
        )

    def test_measured_subset(self):
        qc = ghz_bfs(linear(5), num_qubits=3)
        self._equivalence(qc, 16, seed=3, error_1q=0.05, error_2q=0.1)

    def test_chunked(self):
        self._equivalence(
            ghz_bfs(linear(5)),
            16,
            seed=4,
            error_1q=0.05,
            error_2q=0.1,
            memory_budget_bytes=2 * (1 << 5) * 16,  # 2 rows per chunk
        )

    def test_serial_reference_unchanged(self):
        """serial_output_distribution keeps the historical stream semantics."""
        sim = TrajectorySimulator(error_1q=0.02, error_2q=0.05, max_trajectories=16)
        qc = ghz_bfs(linear(4))
        a = sim.serial_output_distribution(qc, 4000, rng=9)
        b = sim.serial_output_distribution(qc, 4000, rng=9)
        np.testing.assert_array_equal(a, b)
        assert np.isclose(a.sum(), 1.0)

    def test_batched_and_serial_same_statistics(self):
        """Different streams, same model: averages agree within Monte-Carlo
        tolerance on an aggregate statistic (GHZ-peak mass)."""
        sim = TrajectorySimulator(error_1q=0.01, error_2q=0.05, max_trajectories=256)
        qc = ghz_bfs(linear(4))
        batched = sim.output_distribution(qc, 16000, rng=21)
        serial = sim.serial_output_distribution(qc, 16000, rng=21)
        peak_b = batched[0] + batched[-1]
        peak_s = serial[0] + serial[-1]
        assert abs(peak_b - peak_s) < 0.05

    def test_all_zero_rates_cannot_condition(self):
        sim = TrajectorySimulator()
        with pytest.raises(ValueError):
            sim._sample_event_batch(
                Circuit(1).h(0), 4, np.random.default_rng(0)
            )
        with pytest.raises(ValueError):
            sim._sample_events(Circuit(1).h(0), np.random.default_rng(0))
        with pytest.raises(ValueError):
            TrajectorySimulator(error_1q=0.5)._sample_event_batch(
                Circuit(1), 4, np.random.default_rng(0)
            )


# ----------------------------------------------------------------------
# Exact conditional event sampler
# ----------------------------------------------------------------------
# Every statistical test below uses a fixed seed (so it is deterministic)
# and rejects at significance ALPHA: a correct sampler would fail one of
# them by chance with probability ~ALPHA on a fresh seed.
ALPHA = 1e-3


def rejection_hits(probs, n_traj, rng):
    """The retired production sampler, kept as the reference law.

    Draw every position i.i.d. Bernoulli(p_i) and redraw the rows that drew
    no event until each has one: exactly "independent events conditioned
    on >= 1", at ``O(1/P(>= 1))`` rounds.
    """
    hits = rng.random((n_traj, probs.size)) < probs
    pending = np.flatnonzero(~hits.any(axis=1))
    while pending.size:
        redraw = rng.random((pending.size, probs.size)) < probs
        hits[pending] = redraw
        pending = pending[~redraw.any(axis=1)]
    return hits


def _pattern_codes(hits):
    """Encode each hit row as an integer (bit j = position j erred)."""
    return hits.astype(np.int64) @ (1 << np.arange(hits.shape[1]))


def _pattern_law(probs):
    """Analytic P(pattern | >= 1 event) for every non-empty pattern."""
    n = probs.size
    codes = np.arange(1, 1 << n)
    bits = (codes[:, None] >> np.arange(n)) & 1
    joint = np.prod(np.where(bits, probs, 1.0 - probs), axis=1)
    return codes, joint / (1.0 - np.prod(1.0 - probs))


def _first_event_law(probs):
    """Analytic P(first event at j | >= 1 event)."""
    survive = np.concatenate([[1.0], np.cumprod(1.0 - probs)[:-1]])
    law = probs * survive
    return law / law.sum()


class _CountingRng:
    """Generator proxy counting uniform draws (the sampler's only loop cost)."""

    def __init__(self, seed):
        self._gen = np.random.default_rng(seed)
        self.random_calls = 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self._gen.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _StuckRng:
    """Every uniform is the largest double below 1."""

    U = np.nextafter(1.0, 0.0)

    def random(self, size=None):
        return np.full(size, self.U)


# 1q rate 0.05, 2q rate 0.2, with a zero-rate-free mix of positions.
MIXED = Circuit(3).h(0).cx(0, 1).t(1).cx(1, 2).rx(0.4, 0).measure_all()
MIXED_RATES = dict(error_1q=0.05, error_2q=0.2)


class TestExactEventSampler:
    """The inverse-CDF sampler has the rejection sampler's law."""

    N = 40000

    def _hits(self, circuit, n, seed, **rates):
        sim = TrajectorySimulator(**rates)
        tables = sim._circuit_tables(circuit)
        return tables, sim._sample_hits(tables, n, np.random.default_rng(seed))

    def test_every_trajectory_has_an_event(self):
        _, hits = self._hits(MIXED, 2000, 0, **MIXED_RATES)
        assert hits.any(axis=1).all()

    def test_first_event_position_chi_square(self):
        tables, hits = self._hits(MIXED, self.N, 1, **MIXED_RATES)
        observed = np.bincount(hits.argmax(axis=1), minlength=hits.shape[1])
        expected = self.N * _first_event_law(tables.error_probs)
        assert stats.chisquare(observed, expected).pvalue > ALPHA

    def test_per_position_hit_rates(self):
        """P(position i erred | >= 1) = p_i / Z; one 1-dof chi-square per
        position, Bonferroni-corrected."""
        tables, hits = self._hits(MIXED, self.N, 2, **MIXED_RATES)
        rate = tables.error_probs / tables.error_probability
        observed = hits.sum(axis=0)
        expected = self.N * rate
        stat = (observed - expected) ** 2 / (expected * (1.0 - rate))
        pvalues = stats.chi2.sf(stat, df=1)
        assert pvalues.min() > ALPHA / rate.size

    def test_joint_pattern_law_chi_square(self):
        """The full joint law over all 2^n - 1 non-empty hit patterns."""
        qc = Circuit(2).h(0).cx(0, 1).h(1).measure_all()
        tables, hits = self._hits(qc, self.N, 3, error_1q=0.1, error_2q=0.3)
        codes, law = _pattern_law(tables.error_probs)
        observed = np.bincount(_pattern_codes(hits), minlength=law.size + 1)
        assert observed[0] == 0
        assert stats.chisquare(observed[codes], self.N * law).pvalue > ALPHA

    def test_agrees_with_rejection_oracle(self):
        """Two-sample chi-square on the joint pattern histograms."""
        qc = Circuit(2).h(0).cx(0, 1).h(1).measure_all()
        tables, hits = self._hits(qc, self.N, 4, error_1q=0.1, error_2q=0.3)
        oracle = rejection_hits(
            tables.error_probs, self.N, np.random.default_rng(5)
        )
        size = 1 << tables.error_probs.size
        table = np.stack(
            [
                np.bincount(_pattern_codes(hits), minlength=size)[1:],
                np.bincount(_pattern_codes(oracle), minlength=size)[1:],
            ]
        )
        assert stats.chi2_contingency(table).pvalue > ALPHA

    def test_oracle_matches_analytic_law(self):
        """Sanity for the oracle itself, so agreement above means the law."""
        qc = Circuit(2).h(0).cx(0, 1).h(1).measure_all()
        probs = TrajectorySimulator(error_1q=0.1, error_2q=0.3)._gate_error_probs(qc)
        oracle = rejection_hits(probs, self.N, np.random.default_rng(6))
        codes, law = _pattern_law(probs)
        observed = np.bincount(_pattern_codes(oracle), minlength=law.size + 1)
        assert stats.chisquare(observed[codes], self.N * law).pvalue > ALPHA

    def test_serial_sampler_has_the_same_law(self):
        """The serial engine's per-trajectory draws follow the joint law."""
        qc = Circuit(2).h(0).cx(0, 1).h(1).measure_all()
        sim = TrajectorySimulator(error_1q=0.1, error_2q=0.3)
        rng = np.random.default_rng(7)
        n = 8000
        hits = np.zeros((n, len(qc.instructions)), dtype=bool)
        for row in range(n):
            for ev in sim._sample_events(qc, rng):
                hits[row, ev.position] = True
        codes, law = _pattern_law(sim._gate_error_probs(qc))
        observed = np.bincount(_pattern_codes(hits), minlength=law.size + 1)
        assert observed[0] == 0
        assert stats.chisquare(observed[codes], n * law).pvalue > ALPHA

    def test_zero_rate_positions_never_hit(self):
        sim = TrajectorySimulator(error_1q=0.0, error_2q=0.3)
        qc = Circuit(2).h(0).cx(0, 1).h(0).h(1).measure_all()  # rates 0,.3,0,0
        hits = sim._sample_hits(
            sim._circuit_tables(qc), 5000, np.random.default_rng(8)
        )
        assert hits[:, 1].all()
        assert not hits[:, [0, 2, 3]].any()

    def test_rounded_up_draw_clamps_to_last_positive_rate(self):
        """u * Z rounding to Z matches no CDF entry; the draw must land on
        the last position that can err, never on a trailing zero-rate gate.

        For a normal Z the largest uniform keeps u * Z < Z; a subnormal Z
        (rates ~1e-320) has too coarse a spacing, so the product rounds up.
        """
        sim = TrajectorySimulator(error_1q=0.0, error_2q=1e-320)
        qc = Circuit(2).h(0).cx(0, 1).h(0).h(1).measure_all()
        tables = sim._circuit_tables(qc)
        assert _StuckRng.U * tables.error_probability == tables.error_probability
        hits = sim._sample_hits(tables, 3, _StuckRng())
        np.testing.assert_array_equal(hits, [[False, True, False, False]] * 3)

    def test_tables_share_one_normaliser(self):
        sim = TrajectorySimulator(**MIXED_RATES)
        tables = sim._circuit_tables(MIXED)
        assert tables.error_probability == tables.first_event_cdf[-1]
        assert sim.error_free_probability(MIXED) == 1.0 - tables.error_probability
        assert tables.error_probability == pytest.approx(
            1.0 - np.prod(1.0 - tables.error_probs), rel=1e-14
        )


# Cost bound for the tiny-rate tests: the rejection loop took ~2 s at 1e-5
# on this workload and never finished at 1e-9; the exact sampler is ms.
TINY_RATE_SECONDS = 5.0


@pytest.mark.parametrize("rate", [1e-5, 1e-9, 1e-12])
class TestTinyRates:
    """Tiny error rates cost the same as large ones (no O(1/p) loop)."""

    def test_sampler_cost_independent_of_rate(self, rate):
        sim = TrajectorySimulator(error_1q=rate)
        qc = Circuit(1).h(0).x(0).measure_all()
        rng = _CountingRng(0)
        t0 = time.perf_counter()
        batch = sim._sample_event_batch(qc, 128, rng)
        assert time.perf_counter() - t0 < TINY_RATE_SECONDS
        assert rng.random_calls == 2
        assert np.unique(batch.row).size == 128

    def test_cdf_keeps_precision(self, rate):
        sim = TrajectorySimulator(error_1q=rate)
        tables = sim._circuit_tables(Circuit(1).h(0).x(0).measure_all())
        np.testing.assert_allclose(
            tables.first_event_cdf, [rate, 2 * rate - rate * rate], rtol=1e-12
        )

    def test_output_distribution(self, rate):
        sim = TrajectorySimulator(error_1q=rate)
        qc = ghz_bfs(linear(3))
        # Enough shots that ~64 of them err, so the sampler really runs.
        shots = int(64 / sim._circuit_tables(qc).error_probability)
        calls = []
        sample = sim._sample_event_batch
        sim._sample_event_batch = lambda *a: calls.append(a[1]) or sample(*a)
        t0 = time.perf_counter()
        dist = sim.output_distribution(qc, shots, rng=11)
        assert time.perf_counter() - t0 < TINY_RATE_SECONDS
        assert calls and calls[0] > 0
        assert np.isfinite(dist).all() and dist.min() >= 0.0
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_backend_run(self, rate):
        model = NoiseModel(3, error_1q=rate, error_2q=rate)
        backend = SimulatedBackend(linear(3), model, rng=12)
        qc = ghz_bfs(linear(3))
        t0 = time.perf_counter()
        counts = backend.run(qc, 4000)
        dist = backend.exact_distribution(qc)
        assert time.perf_counter() - t0 < TINY_RATE_SECONDS
        assert counts.shots == 4000
        assert np.isfinite(dist).all() and dist.min() >= 0.0
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
