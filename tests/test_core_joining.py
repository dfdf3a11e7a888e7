"""Tests for the Eq. 5-7 joining construction — including the telescoping
property that makes CMC correct."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.joining as joining
from repro.core import CalibrationMatrix, JoinedCalibration, assign_order_parameters
from repro.core.joining import _endpoint_power
from repro.counts import SparseDistribution
from repro.noise import correlated_pair_channel
from repro.utils.linalg import column_normalize, fractional_stochastic_power


def random_single(rng, qubit, strength=0.1):
    m = np.eye(2) + rng.random((2, 2)) * strength
    return CalibrationMatrix((qubit,), column_normalize(m))


def tensored_patch(ci, cj):
    """C_e = C_i ⊗ C_j over edge (i, j)."""
    return ci.tensor(cj)


class TestOrderParameters:
    def test_chain_orders(self):
        rng = np.random.default_rng(0)
        c0, c1, c2 = (random_single(rng, q) for q in range(3))
        p01 = tensored_patch(c0, c1)
        p12 = tensored_patch(c1, c2)
        ordered = assign_order_parameters([p01, p12])
        # qubit 1 is shared: degree 2, ranks 0 then 1
        assert ordered[0].order_params[1] == (0, 2)
        assert ordered[1].order_params[1] == (1, 2)
        # endpoints have degree 1, rank 0
        assert ordered[0].order_params[0] == (0, 1)
        assert ordered[1].order_params[2] == (0, 1)

    def test_star_orders(self):
        rng = np.random.default_rng(1)
        centre = random_single(rng, 0)
        leaves = [random_single(rng, q) for q in (1, 2, 3)]
        patches = [tensored_patch(centre, leaf) for leaf in leaves]
        ordered = assign_order_parameters(patches)
        assert [op.order_params[0] for op in ordered] == [(0, 3), (1, 3), (2, 3)]


class TestTelescoping:
    """The core correctness property (§IV-B): with uncorrelated patches the
    joined product equals the tensor of single-qubit calibrations — each
    qubit's error applied exactly once despite overlapping patches."""

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_two_overlapping_patches_chain(self, seed):
        rng = np.random.default_rng(seed)
        c = [random_single(rng, q, strength=0.15) for q in range(3)]
        patches = [tensored_patch(c[0], c[1]), tensored_patch(c[1], c[2])]
        joined = JoinedCalibration(patches)
        expected = np.kron(c[2].matrix, np.kron(c[1].matrix, c[0].matrix))
        np.testing.assert_allclose(joined.to_matrix(3), expected, atol=1e-7)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_square_plaquette(self, seed):
        """The Fig. 8 example: 4 edges around a square, every qubit shared
        by two patches."""
        rng = np.random.default_rng(seed)
        c = [random_single(rng, q, strength=0.12) for q in range(4)]
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        patches = [tensored_patch(c[a], c[b]) for a, b in edges]
        joined = JoinedCalibration(patches)
        expected = np.eye(1)
        for q in reversed(range(4)):
            expected = np.kron(expected, np.eye(1))
        expected = np.kron(
            c[3].matrix, np.kron(c[2].matrix, np.kron(c[1].matrix, c[0].matrix))
        )
        np.testing.assert_allclose(joined.to_matrix(4), expected, atol=1e-6)

    def test_star_graph(self, ):
        rng = np.random.default_rng(9)
        c = [random_single(rng, q, strength=0.1) for q in range(4)]
        patches = [tensored_patch(c[0], c[q]) for q in (1, 2, 3)]
        joined = JoinedCalibration(patches)
        expected = np.kron(
            c[3].matrix, np.kron(c[2].matrix, np.kron(c[1].matrix, c[0].matrix))
        )
        np.testing.assert_allclose(joined.to_matrix(4), expected, atol=1e-6)

    def test_single_patch_unchanged(self):
        """Degree-1 endpoints: exponents vanish, C' == C."""
        rng = np.random.default_rng(3)
        patch = tensored_patch(random_single(rng, 0), random_single(rng, 1))
        joined = JoinedCalibration([patch])
        np.testing.assert_allclose(joined.to_matrix(2), patch.matrix, atol=1e-10)


def two_state(a, b):
    """Column-stochastic ``[[1-a, b], [a, 1-b]]``."""
    return np.array([[1.0 - a, b], [a, 1.0 - b]])


def oracle_power(marginal, exponent):
    """The pre-closed-form ``_endpoint_power``: scipy for every exponent."""
    if exponent == 0.0:
        return np.eye(marginal.shape[0])
    return fractional_stochastic_power(marginal, exponent)


def outcome(fn, *args):
    try:
        return "value", fn(*args).tobytes()
    except Exception as exc:  # the refusal, by type and message
        return "raised", type(exc), str(exc)


RATES = st.floats(min_value=1e-12, max_value=0.49)
EXPONENTS = [k / v for v in range(1, 9) for k in range(v + 1)]


class TestClosedFormPower:
    """2x2 marginals take ``C^t = P + lam^t (I - P)``; scipy is the oracle."""

    @given(a=RATES, b=RATES)
    @example(a=1e-12, b=1e-12)
    @example(a=1e-12, b=0.49)
    @example(a=0.49, b=0.49)
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_oracle(self, a, b):
        marginal = two_state(a, b)
        for t in EXPONENTS:
            np.testing.assert_allclose(
                _endpoint_power(marginal, t),
                oracle_power(marginal, t),
                rtol=0,
                atol=1e-12,
            )

    @given(a=RATES, b=RATES)
    @settings(max_examples=200, deadline=None)
    def test_halves_telescope(self, a, b):
        marginal = two_state(a, b)
        half = _endpoint_power(marginal, 0.5)
        np.testing.assert_allclose(half @ half, marginal, rtol=0, atol=1e-12)
        third = _endpoint_power(marginal, 1 / 3)
        np.testing.assert_allclose(
            third @ _endpoint_power(marginal, 2 / 3), marginal, rtol=0, atol=1e-12
        )

    def test_tiny_rates_keep_precision(self):
        """``1 - lam^t`` through expm1/log1p: no cancellation at 1e-12."""
        power = _endpoint_power(two_state(1e-12, 3e-12), 0.25)
        assert power[1, 0] == pytest.approx(0.25e-12, rel=1e-9)
        assert power[0, 1] == pytest.approx(0.75e-12, rel=1e-9)

    def test_zero_rates_are_identity(self):
        assert _endpoint_power(np.eye(2), 0.5).tobytes() == np.eye(2).tobytes()

    @pytest.mark.parametrize(
        "a, b",
        [(0.5, 0.5), (0.6, 0.7), (0.9, 0.4), (1.0, 1.0), (0.55, 0.5)],
        ids=["lam=0", "lam=-0.3", "lam=-0.3b", "lam=-1", "lam=-0.05"],
    )
    @pytest.mark.parametrize("t", [0.5, 1 / 3, 0.75])
    def test_nonpositive_lambda_keeps_old_behaviour(self, a, b, t):
        marginal = two_state(a, b)
        assert outcome(_endpoint_power, marginal, t) == outcome(
            oracle_power, marginal, t
        )

    def test_exponent_one_and_larger_matrices_use_oracle(self):
        marginal = two_state(0.03, 0.07)
        assert _endpoint_power(marginal, 1.0).tobytes() == marginal.tobytes()
        pair = np.kron(marginal, two_state(0.01, 0.05))
        assert (
            _endpoint_power(pair, 0.5).tobytes()
            == fractional_stochastic_power(pair, 0.5).tobytes()
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_join_matches_scipy_join(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        cs = [random_single(rng, q, strength=0.2) for q in range(4)]
        patches = [
            tensored_patch(cs[0], cs[1]),
            CalibrationMatrix((1, 2), correlated_pair_channel(0.1)),
            tensored_patch(cs[2], cs[3]),
            tensored_patch(cs[1], cs[3]),
        ]
        assert [p.qubits for p in patches] == [(0, 1), (1, 2), (2, 3), (1, 3)]
        closed = JoinedCalibration(patches)
        monkeypatch.setattr(joining, "_endpoint_power", oracle_power)
        scipy_join = JoinedCalibration(patches)
        for (mat, qubits), (ref, ref_qubits) in zip(
            closed.factors, scipy_join.factors
        ):
            assert qubits == ref_qubits
            np.testing.assert_allclose(mat, ref, rtol=0, atol=1e-12)


class TestCorrelationPreservation:
    def test_correlated_patch_survives_join(self):
        """Unlike Linear calibration, the joined operator keeps the
        correlated (off-tensor) structure of a patch."""
        rng = np.random.default_rng(4)
        corr = CalibrationMatrix((0, 1), correlated_pair_channel(0.2))
        plain = tensored_patch(random_single(rng, 1), random_single(rng, 2))
        joined = JoinedCalibration([corr, plain])
        full = joined.to_matrix(3)
        # prepared 000 -> observed 011 requires the correlated joint flip;
        # a tensored model would give ~p0*p1 (tiny), the joint gives ~0.2.
        assert full[0b011, 0b000] > 0.1

    def test_mitigation_inverts_joined_channel(self):
        rng = np.random.default_rng(5)
        corr = CalibrationMatrix((0, 1), correlated_pair_channel(0.15))
        plain = tensored_patch(random_single(rng, 1), random_single(rng, 2))
        joined = JoinedCalibration([corr, plain])
        forward = joined.to_matrix(3)
        inverse = joined.mitigation_matrix(3)
        np.testing.assert_allclose(inverse @ forward, np.eye(8), atol=1e-7)


class TestSparseMitigation:
    def test_sparse_matches_dense_inverse(self):
        rng = np.random.default_rng(6)
        c = [random_single(rng, q, strength=0.15) for q in range(3)]
        patches = [tensored_patch(c[0], c[1]), tensored_patch(c[1], c[2])]
        joined = JoinedCalibration(patches)
        observed = rng.random(8)
        observed /= observed.sum()
        dense_out = joined.mitigation_matrix(3) @ observed
        sparse_out = joined.mitigate_sparse(
            SparseDistribution.from_dense(observed), prune_tol=0.0
        )
        np.testing.assert_allclose(sparse_out.to_dense(), dense_out, atol=1e-8)

    def test_positions_remap(self):
        """Mitigating a marginal distribution where device qubits occupy
        different bit positions."""
        rng = np.random.default_rng(7)
        patch = tensored_patch(random_single(rng, 2), random_single(rng, 5))
        joined = JoinedCalibration([patch])
        observed = rng.random(4)
        observed /= observed.sum()
        # distribution over measured qubits (2, 5): positions {2: 0, 5: 1}
        out = joined.mitigate_sparse(
            SparseDistribution.from_dense(observed),
            positions_of={2: 0, 5: 1},
        )
        ref = np.linalg.inv(patch.matrix) @ observed
        np.testing.assert_allclose(out.to_dense(), ref, atol=1e-8)

    def test_end_to_end_mitigation_recovers_truth(self):
        rng = np.random.default_rng(8)
        c = [random_single(rng, q, strength=0.2) for q in range(3)]
        patches = [tensored_patch(c[0], c[1]), tensored_patch(c[1], c[2])]
        joined = JoinedCalibration(patches)
        truth = np.array([0.5, 0, 0, 0, 0, 0, 0, 0.5])  # GHZ-like
        observed = joined.to_matrix(3) @ truth
        out = joined.mitigate_sparse(SparseDistribution.from_dense(observed))
        np.testing.assert_allclose(out.to_dense(), truth, atol=1e-7)


class TestValidation:
    def test_empty_patches_rejected(self):
        with pytest.raises(ValueError):
            JoinedCalibration([])

    def test_bad_marginal_rejected(self):
        rng = np.random.default_rng(10)
        patch = tensored_patch(random_single(rng, 0), random_single(rng, 1))
        with pytest.raises(ValueError):
            JoinedCalibration([patch], marginals={0: patch})

    def test_to_matrix_size_guard(self):
        rng = np.random.default_rng(11)
        patch = tensored_patch(random_single(rng, 0), random_single(rng, 1))
        with pytest.raises(ValueError):
            JoinedCalibration([patch]).to_matrix(20)
