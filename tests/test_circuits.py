"""Tests for the circuit IR, gates and circuit library."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    Circuit,
    Gate,
    GATES,
    basis_state_preparation,
    calibration_circuit,
    gate_matrix,
    ghz_bfs,
    mask_circuit,
    standard_gate,
    validate_against_coupling_map,
    x_chain,
)
from repro.circuits.gates import u3_matrix
from repro.circuits.transpile import CouplingViolation
from repro.topology import CouplingMap, grid, ibm_quito, linear


class TestGateMatrices:
    def test_x_matrix(self):
        np.testing.assert_array_equal(gate_matrix("x"), [[0, 1], [1, 0]])

    def test_all_named_gates_unitary(self):
        for name in GATES:
            if name in ("rx", "ry", "rz"):
                m = gate_matrix(name, (0.7,))
            elif name == "u3":
                m = gate_matrix(name, (0.7, 0.3, 0.1))
            else:
                m = gate_matrix(name)
            np.testing.assert_allclose(
                m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12, err_msg=name
            )

    def test_u3_pi_is_x_up_to_phase(self):
        # U3(pi, 0, pi) = X exactly (paper Eq. 1).
        np.testing.assert_allclose(u3_matrix(math.pi, 0.0, math.pi), gate_matrix("x"), atol=1e-12)

    def test_cx_flips_target_when_control_set(self):
        cx = gate_matrix("cx")
        # basis |q1 q0| = (00, 01, 10, 11); control = low bit (q0).
        state = np.zeros(4)
        state[0b01] = 1.0  # control set, target clear
        out = cx @ state
        assert out[0b11] == 1.0

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            gate_matrix("foo")

    def test_parametric_arity_check(self):
        with pytest.raises(ValueError):
            gate_matrix("rx", ())

    @given(st.floats(min_value=-6.3, max_value=6.3), st.floats(min_value=-6.3, max_value=6.3), st.floats(min_value=-6.3, max_value=6.3))
    @settings(max_examples=30)
    def test_u3_always_unitary(self, theta, phi, lam):
        m = u3_matrix(theta, phi, lam)
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-10)


class TestGateObject:
    def test_repr_with_params(self):
        assert repr(standard_gate("rx", 0.5)) == "rx(0.5)"

    def test_num_qubits(self):
        assert Gate("cx").num_qubits == 2
        assert Gate("h").num_qubits == 1

    def test_param_validation(self):
        with pytest.raises(ValueError):
            Gate("h", (0.1,))
        with pytest.raises(ValueError):
            Gate("u3", (0.1,))

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            Gate("nope")


class TestCircuit:
    def test_builder_chain(self):
        qc = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
        assert len(qc) == 3
        assert qc.measured_qubits == (0, 1, 2)

    def test_depth(self):
        qc = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        assert qc.depth() == 3
        qc2 = Circuit(4).h(0).h(1).cx(0, 1).cx(2, 3)
        assert qc2.depth() == 2

    def test_default_measured_is_all(self):
        assert Circuit(2).measured_qubits == (0, 1)

    def test_measure_subset(self):
        qc = Circuit(3).measure([2, 0])
        assert qc.measured_qubits == (2, 0)

    def test_duplicate_measure_rejected(self):
        with pytest.raises(ValueError):
            Circuit(3).measure([0, 0])

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            Circuit(2).x(5)

    def test_two_qubit_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            Circuit(2).cx(1, 1)

    def test_compose(self):
        a = Circuit(2).h(0)
        b = Circuit(2).cx(0, 1).measure([1])
        c = a.compose(b)
        assert len(c) == 2
        assert c.measured_qubits == (1,)

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            Circuit(2).compose(Circuit(3))

    def test_copy_independent(self):
        a = Circuit(2).h(0)
        b = a.copy()
        b.x(1)
        assert len(a) == 1 and len(b) == 2

    def test_count_gates(self):
        qc = Circuit(2).h(0).x(0).x(1).cx(0, 1)
        assert qc.count_gates() == 4
        assert qc.count_gates("x") == 2

    def test_two_qubit_edges_canonical(self):
        qc = Circuit(3).cx(2, 0)
        assert qc.two_qubit_edges() == [(0, 2)]

    def test_with_measured(self):
        qc = Circuit(3).h(0).measure_all()
        sub = qc.with_measured([1])
        assert sub.measured_qubits == (1,)
        assert qc.measured_qubits == (0, 1, 2)


class TestGhzBfs:
    def test_chain_ghz(self):
        qc = ghz_bfs(linear(4))
        assert qc.count_gates("h") == 1
        assert qc.count_gates("cx") == 3
        assert qc.measured_qubits == (0, 1, 2, 3)

    def test_respects_coupling(self):
        cmap = grid(9)
        qc = ghz_bfs(cmap)
        assert validate_against_coupling_map(qc, cmap) == []

    def test_partial_ghz(self):
        qc = ghz_bfs(linear(8), num_qubits=4)
        assert qc.count_gates("cx") == 3
        assert len(qc.measured_qubits) == 4

    def test_bad_num_qubits(self):
        with pytest.raises(ValueError):
            ghz_bfs(linear(4), num_qubits=9)

    def test_disconnected_map_raises(self):
        cmap = CouplingMap(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            ghz_bfs(cmap)

    def test_quito_ghz(self):
        qc = ghz_bfs(ibm_quito())
        assert qc.count_gates("cx") == 4


class TestXChain:
    def test_depth_counts(self):
        assert x_chain(7).count_gates("x") == 7

    def test_measures_target(self):
        qc = x_chain(3, num_qubits=2, qubit=1)
        assert qc.measured_qubits == (1,)

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            x_chain(-1)


class TestPreparationCircuits:
    def test_basis_prep_bits(self):
        qc = basis_state_preparation(4, 0b1010)
        assert qc.count_gates("x") == 2

    def test_basis_prep_range(self):
        with pytest.raises(ValueError):
            basis_state_preparation(2, 4)

    def test_calibration_circuit_measures_all_by_default(self):
        qc = calibration_circuit(3, 0b101)
        assert qc.measured_qubits == (0, 1, 2)

    def test_calibration_circuit_subset(self):
        qc = calibration_circuit(3, 0, measured=[0, 2])
        assert qc.measured_qubits == (0, 2)

    def test_mask_circuit(self):
        qc = mask_circuit(4, 0b0110)
        assert qc.count_gates("x") == 2

    def test_mask_range(self):
        with pytest.raises(ValueError):
            mask_circuit(2, 4)

    @pytest.mark.parametrize("prepared", [0, 0b1, 0b1010, 0b1111])
    def test_basis_state_of_preparations(self, prepared):
        assert basis_state_preparation(4, prepared).basis_state() == prepared
        assert calibration_circuit(4, prepared, measured=[3, 1]).basis_state() == (
            prepared
        )

    def test_basis_state_xors_repeated_targets(self):
        assert Circuit(3).x(0).x(2).x(0).basis_state() == 0b100
        assert Circuit(3).basis_state() == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda qc: qc.x(0).h(1),
            lambda qc: qc.i(0),
            lambda qc: qc.x(0).cx(0, 1),
            lambda qc: qc.rx(math.pi, 0),
        ],
        ids=["h", "identity", "cx", "rx-pi"],
    )
    def test_basis_state_none_for_other_gates(self, build):
        assert build(Circuit(3)).basis_state() is None


class TestValidate:
    def test_violation_raises(self):
        qc = Circuit(4).cx(0, 3)
        with pytest.raises(CouplingViolation):
            validate_against_coupling_map(qc, linear(4))

    def test_non_strict_returns(self):
        qc = Circuit(4).cx(0, 3).cx(0, 1)
        v = validate_against_coupling_map(qc, linear(4), strict=False)
        assert v == [(0, (0, 3))]

    def test_too_many_qubits(self):
        with pytest.raises(ValueError):
            validate_against_coupling_map(Circuit(5), linear(4))
