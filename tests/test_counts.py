"""Tests for Counts and SparseDistribution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.counts import Counts, SparseDistribution


class TestSparseDistribution:
    def test_sorted_and_merged(self):
        d = SparseDistribution(np.array([3, 1, 3]), np.array([0.1, 0.2, 0.3]), 2)
        np.testing.assert_array_equal(d.indices, [1, 3])
        np.testing.assert_allclose(d.values, [0.2, 0.4])

    def test_to_dense_roundtrip(self):
        dense = np.array([0.0, 0.5, 0.0, 0.5])
        d = SparseDistribution.from_dense(dense)
        np.testing.assert_array_equal(d.to_dense(), dense)
        assert d.nnz == 2

    def test_from_dense_bad_length(self):
        with pytest.raises(ValueError):
            SparseDistribution.from_dense(np.ones(3))

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            SparseDistribution(np.array([4]), np.array([1.0]), 2)

    def test_prune(self):
        d = SparseDistribution(np.array([0, 1]), np.array([1e-12, 1.0]), 1)
        assert d.prune(1e-9).nnz == 1

    def test_clip_normalized(self):
        d = SparseDistribution(np.array([0, 1]), np.array([-0.5, 1.5]), 1)
        out = d.clip_normalized()
        np.testing.assert_allclose(out.to_dense(), [0.0, 1.0])

    def test_clip_normalized_no_mass(self):
        d = SparseDistribution(np.array([0]), np.array([-1.0]), 1)
        with pytest.raises(ValueError):
            d.clip_normalized()

    def test_total(self):
        d = SparseDistribution(np.array([0, 3]), np.array([0.25, 0.75]), 2)
        assert np.isclose(d.total(), 1.0)

    def test_refuses_huge_densify(self):
        d = SparseDistribution(np.array([0]), np.array([1.0]), 30)
        with pytest.raises(ValueError):
            d.to_dense()


class TestCountsConstruction:
    def test_basic(self):
        c = Counts({0: 3, 3: 5}, measured_qubits=[0, 1])
        assert c.shots == 8
        assert c[3] == 5

    def test_zero_weights_dropped(self):
        c = Counts({0: 0.0, 1: 2.0}, [0])
        assert 0 not in c
        assert len(c) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counts({0: -1}, [0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Counts({4: 1}, [0, 1])

    def test_duplicate_measured_rejected(self):
        with pytest.raises(ValueError):
            Counts({0: 1}, [1, 1])

    def test_from_bitstrings(self):
        c = Counts.from_bitstrings({"10": 4, "01": 6})
        # "10": qubit1=1, qubit0=0 -> integer 2
        assert c[2] == 4 and c[1] == 6

    def test_from_bitstrings_inconsistent_width(self):
        with pytest.raises(ValueError):
            Counts.from_bitstrings({"10": 1, "110": 1})

    def test_from_bitstrings_empty(self):
        with pytest.raises(ValueError):
            Counts.from_bitstrings({})

    def test_from_samples(self):
        c = Counts.from_samples(np.array([0, 1, 1, 3]), [0, 1])
        assert c[1] == 2 and c[0] == 1 and c[3] == 1

    def test_num_qubits_default(self):
        c = Counts({0: 1}, [2, 5])
        assert c.num_qubits == 6


class TestCountsViews:
    def test_probabilities(self):
        c = Counts({0: 1, 1: 3}, [0])
        p = c.to_probabilities()
        assert p[0] == 0.25 and p[1] == 0.75

    def test_by_bitstring(self):
        c = Counts({2: 5}, [0, 1])
        assert c.by_bitstring() == {"10": 5}

    def test_most_frequent(self):
        c = Counts({0: 1, 2: 9}, [0, 1])
        assert c.most_frequent() == 2

    def test_most_frequent_tiebreak(self):
        c = Counts({1: 5, 2: 5}, [0, 1])
        assert c.most_frequent() == 1

    def test_most_frequent_empty(self):
        with pytest.raises(ValueError):
            Counts({}, [0]).most_frequent()

    def test_to_dense(self):
        c = Counts({0: 1, 3: 1}, [0, 1])
        np.testing.assert_allclose(c.to_dense(), [0.5, 0, 0, 0.5])

    def test_to_sparse_unnormalized(self):
        c = Counts({1: 4}, [0])
        s = c.to_sparse(normalized=False)
        assert s.total() == 4

    def test_shots_summed_once(self):
        c = Counts({0: 1.5, 2: 2.25, 3: 4}, [0, 1])
        assert c.shots == 7.75
        assert c.shots is c.shots  # memoised: Counts never changes
        assert c.scaled(2.0).shots == 15.5
        assert Counts({}, [0]).shots == 0.0


class TestCountsTransforms:
    def test_marginalize(self):
        # measured qubits (0, 1); marginalise onto qubit 1.
        c = Counts({0b00: 1, 0b10: 2, 0b11: 3}, [0, 1])
        m = c.marginalize([1])
        assert m.measured_qubits == (1,)
        assert m[1] == 5 and m[0] == 1

    def test_marginalize_reorders(self):
        c = Counts({0b01: 7}, [0, 1])  # qubit0=1, qubit1=0
        m = c.marginalize([1, 0])  # now bit0 = qubit 1 = 0, bit1 = qubit 0 = 1
        assert m[0b10] == 7

    def test_marginalize_unmeasured_raises(self):
        c = Counts({0: 1}, [0, 1])
        with pytest.raises(ValueError):
            c.marginalize([5])

    def test_marginalize_empty(self):
        c = Counts({}, [0, 1])
        assert c.marginalize([0]).shots == 0

    def test_xor_relabel(self):
        c = Counts({0b00: 1, 0b11: 2}, [0, 1])
        flipped = c.xor_relabel(0b11)
        assert flipped[0b11] == 1 and flipped[0b00] == 2

    def test_xor_relabel_out_of_range(self):
        with pytest.raises(ValueError):
            Counts({0: 1}, [0]).xor_relabel(2)

    def test_scaled(self):
        c = Counts({1: 4}, [0]).scaled(0.5)
        assert c[1] == 2

    def test_scaled_negative(self):
        with pytest.raises(ValueError):
            Counts({1: 4}, [0]).scaled(-1)

    def test_merged(self):
        a = Counts({0: 1}, [0])
        b = Counts({0: 2, 1: 3}, [0])
        m = a.merged(b)
        assert m[0] == 3 and m[1] == 3

    def test_merged_mismatch(self):
        with pytest.raises(ValueError):
            Counts({0: 1}, [0]).merged(Counts({0: 1}, [1]))

    def test_average_equal_weight(self):
        a = Counts({0: 10}, [0])
        b = Counts({1: 30}, [0])
        avg = Counts.average([a, b])
        p = avg.to_probabilities()
        assert np.isclose(p[0], 0.5) and np.isclose(p[1], 0.5)

    def test_average_empty_list(self):
        with pytest.raises(ValueError):
            Counts.average([])

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=100),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=30)
    def test_marginal_preserves_shots(self, data):
        c = Counts(data, [0, 1, 2, 3])
        assert np.isclose(c.marginalize([0, 2]).shots, c.shots)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=100),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=30)
    def test_xor_involution(self, data, mask):
        c = Counts(data, [0, 1, 2, 3])
        assert dict(c.xor_relabel(mask).xor_relabel(mask)) == dict(c)
