"""Measurement outcome histograms.

:class:`Counts` is the universal currency between the simulator, the
backends, and every mitigation method: a histogram of measurement outcomes
over a declared set of measured qubits.  Outcomes are stored by *integer*
index (little-endian over the measured-qubit list, see
:mod:`repro.utils.bitstrings`) with bitstring rendering at the edges.

Mitigation methods manipulate the *distribution* view (`to_probabilities`,
`to_sparse`), which may carry quasi-probabilities mid-pipeline; `Counts`
itself always holds non-negative weights (possibly fractional after
averaging, as SIM/AIM produce).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.utils.bitstrings import (
    bitstring_to_int,
    extract_bits,
    int_to_bitstring,
)

__all__ = ["Counts", "SparseDistribution"]


class SparseDistribution:
    """A sparse (quasi-)probability vector over ``2**num_bits`` outcomes.

    Stored as parallel arrays ``indices`` (unique, sorted, int64) and
    ``values`` (float64).  This is the object the CMC sparse-application
    kernel transforms; values may be temporarily negative between inversion
    and the final projection onto the simplex.
    """

    __slots__ = ("indices", "values", "num_bits")

    def __init__(self, indices: np.ndarray, values: np.ndarray, num_bits: int) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 1 or values.ndim != 1 or indices.size != values.size:
            raise ValueError("indices and values must be parallel 1-D arrays")
        if num_bits < 0 or num_bits > 62:
            raise ValueError(f"num_bits out of range: {num_bits}")
        if indices.size:
            if indices.min() < 0 or indices.max() >= (1 << num_bits):
                raise ValueError("outcome index out of range")
            order = np.argsort(indices, kind="stable")
            indices = indices[order]
            values = values[order]
            # merge duplicates
            uniq, start = np.unique(indices, return_index=True)
            if uniq.size != indices.size:
                sums = np.add.reduceat(values, start)
                indices, values = uniq, sums
        self.indices = indices
        self.values = values
        self.num_bits = int(num_bits)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def total(self) -> float:
        """Sum of all (quasi-)weights."""
        return float(self.values.sum())

    def to_dense(self) -> np.ndarray:
        """Dense vector of length ``2**num_bits`` (small registers only)."""
        if self.num_bits > 26:
            raise ValueError(
                f"refusing to densify a {self.num_bits}-bit distribution"
            )
        dense = np.zeros(1 << self.num_bits)
        dense[self.indices] = self.values
        return dense

    @classmethod
    def from_dense(cls, vector: np.ndarray, tol: float = 0.0) -> "SparseDistribution":
        v = np.asarray(vector, dtype=float)
        n_bits = int(round(np.log2(v.size)))
        if 1 << n_bits != v.size:
            raise ValueError(f"dense length {v.size} is not a power of two")
        keep = np.flatnonzero(np.abs(v) > tol)
        return cls(keep, v[keep], n_bits)

    def prune(self, tol: float) -> "SparseDistribution":
        """Drop entries with |value| <= tol (the paper's periodic culling)."""
        keep = np.abs(self.values) > tol
        return SparseDistribution(self.indices[keep], self.values[keep], self.num_bits)

    def clip_normalized(self) -> "SparseDistribution":
        """Project onto the probability simplex (clip negatives, renorm)."""
        vals = np.clip(self.values, 0.0, None)
        total = vals.sum()
        if total <= 0:
            raise ValueError("distribution has no positive mass")
        keep = vals > 0
        return SparseDistribution(self.indices[keep], vals[keep] / total, self.num_bits)

    def __repr__(self) -> str:
        return f"SparseDistribution(num_bits={self.num_bits}, nnz={self.nnz}, total={self.total():.6g})"


class Counts(Mapping[int, float]):
    """Histogram of measurement outcomes over ``measured_qubits``.

    Keys are outcome integers local to the measured-qubit list: bit ``k`` of
    a key is the outcome of ``measured_qubits[k]``.  Values are non-negative
    weights (integer shots, or fractional after averaging).
    """

    def __init__(
        self,
        data: Mapping[int, float] | Iterable[Tuple[int, float]],
        measured_qubits: Sequence[int],
        num_qubits: Optional[int] = None,
    ) -> None:
        self._measured = tuple(int(q) for q in measured_qubits)
        if len(set(self._measured)) != len(self._measured):
            raise ValueError("measured_qubits must be distinct")
        self._num_qubits = (
            int(num_qubits) if num_qubits is not None else (max(self._measured, default=-1) + 1)
        )
        items = data.items() if isinstance(data, Mapping) else data
        store: Dict[int, float] = {}
        limit = 1 << len(self._measured)
        for key, val in items:
            key = int(key)
            val = float(val)
            if key < 0 or key >= limit:
                raise ValueError(
                    f"outcome {key} out of range for {len(self._measured)} measured qubits"
                )
            if val < 0:
                raise ValueError(f"negative count {val} for outcome {key}")
            if val:
                store[key] = store.get(key, 0.0) + val
        self._data = store

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bitstrings(
        cls,
        data: Mapping[str, float],
        measured_qubits: Optional[Sequence[int]] = None,
        num_qubits: Optional[int] = None,
    ) -> "Counts":
        """Build from a ``{'0110': shots}`` mapping (qiskit-style keys)."""
        if not data:
            raise ValueError("empty counts")
        width = len(next(iter(data)))
        if any(len(k) != width for k in data):
            raise ValueError("inconsistent bitstring widths")
        measured = tuple(range(width)) if measured_qubits is None else tuple(measured_qubits)
        if len(measured) != width:
            raise ValueError("bitstring width does not match measured_qubits")
        return cls(
            {bitstring_to_int(k): v for k, v in data.items()}, measured, num_qubits
        )

    @classmethod
    def from_samples(
        cls,
        outcomes: np.ndarray,
        measured_qubits: Sequence[int],
        num_qubits: Optional[int] = None,
    ) -> "Counts":
        """Build from an array of per-shot outcome integers."""
        values, freq = np.unique(np.asarray(outcomes, dtype=np.int64), return_counts=True)
        return cls(zip(values.tolist(), freq.tolist()), measured_qubits, num_qubits)

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, key: int) -> float:
        return self._data[key]

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._data))

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: int, default: float = 0.0) -> float:
        return self._data.get(key, default)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def measured_qubits(self) -> Tuple[int, ...]:
        return self._measured

    @property
    def num_measured(self) -> int:
        return len(self._measured)

    @property
    def num_qubits(self) -> int:
        """Size of the full register the measured qubits live on."""
        return self._num_qubits

    @cached_property
    def shots(self) -> float:
        """Total weight (exact shot count for raw histograms).

        Summed once: a ``Counts`` never changes after construction, and
        the mitigators read this inside per-outcome loops.
        """
        return float(sum(self._data.values()))

    def by_bitstring(self) -> Dict[str, float]:
        """Render keys as bitstrings (qubit ``measured_qubits[-1]`` first)."""
        width = self.num_measured
        return {int_to_bitstring(k, width): v for k, v in sorted(self._data.items())}

    def most_frequent(self) -> int:
        """The modal outcome (ties broken toward the smaller index)."""
        if not self._data:
            raise ValueError("empty counts")
        return min(self._data, key=lambda k: (-self._data[k], k))

    # ------------------------------------------------------------------
    # Distribution views
    # ------------------------------------------------------------------
    def to_probabilities(self) -> Dict[int, float]:
        """Normalised dict view."""
        total = self.shots
        if total <= 0:
            raise ValueError("cannot normalise empty counts")
        return {k: v / total for k, v in self._data.items()}

    def to_sparse(self, normalized: bool = True) -> SparseDistribution:
        """Sparse vector over the measured-qubit index space."""
        idx = np.fromiter(self._data.keys(), dtype=np.int64, count=len(self._data))
        val = np.fromiter(self._data.values(), dtype=np.float64, count=len(self._data))
        if normalized:
            total = val.sum()
            if total <= 0:
                raise ValueError("cannot normalise empty counts")
            val = val / total
        return SparseDistribution(idx, val, self.num_measured)

    def to_dense(self, normalized: bool = True) -> np.ndarray:
        """Dense vector over ``2**num_measured`` outcomes."""
        return self.to_sparse(normalized=normalized).to_dense()

    # ------------------------------------------------------------------
    # Transformations used by the mitigation methods
    # ------------------------------------------------------------------
    def marginalize(self, qubits: Sequence[int]) -> "Counts":
        """Marginal counts over a subset of the measured qubits.

        ``qubits`` are *device* qubit labels that must be among
        ``measured_qubits``; this is how JIGSAW forms its sub-tables and how
        calibration traces out spectator qubits.
        """
        positions = []
        for q in qubits:
            try:
                positions.append(self._measured.index(int(q)))
            except ValueError:
                raise ValueError(f"qubit {q} was not measured") from None
        if not self._data:
            return Counts({}, tuple(int(q) for q in qubits), self._num_qubits)
        idx = np.fromiter(self._data.keys(), dtype=np.int64, count=len(self._data))
        val = np.fromiter(self._data.values(), dtype=np.float64, count=len(self._data))
        local = extract_bits(idx, positions)
        uniq, inv = np.unique(local, return_inverse=True)
        sums = np.zeros(uniq.size)
        np.add.at(sums, inv, val)
        return Counts(
            zip(uniq.tolist(), sums.tolist()),
            tuple(int(q) for q in qubits),
            self._num_qubits,
        )

    def xor_relabel(self, mask: int) -> "Counts":
        """XOR every outcome with ``mask`` (the SIM/AIM un-flip step)."""
        limit = 1 << self.num_measured
        if not (0 <= mask < limit):
            raise ValueError(f"mask {mask} out of range")
        return Counts(
            {k ^ mask: v for k, v in self._data.items()},
            self._measured,
            self._num_qubits,
        )

    def scaled(self, factor: float) -> "Counts":
        """Multiply all weights by a non-negative factor."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return Counts(
            {k: v * factor for k, v in self._data.items()},
            self._measured,
            self._num_qubits,
        )

    def merged(self, other: "Counts") -> "Counts":
        """Add two histograms over the same measured qubits."""
        if other.measured_qubits != self._measured:
            raise ValueError("cannot merge counts over different measured qubits")
        data = dict(self._data)
        for k, v in other._data.items():
            data[k] = data.get(k, 0.0) + v
        return Counts(data, self._measured, self._num_qubits)

    @staticmethod
    def average(counts_list: Sequence["Counts"]) -> "Counts":
        """Shot-weighted average of normalised distributions (SIM's combiner).

        Each input is normalised first, then averaged with equal weight, and
        the result is rescaled to the summed shot total so downstream code
        still sees a sensible magnitude.
        """
        if not counts_list:
            raise ValueError("nothing to average")
        measured = counts_list[0].measured_qubits
        total_shots = sum(c.shots for c in counts_list)
        acc: Dict[int, float] = {}
        for c in counts_list:
            if c.measured_qubits != measured:
                raise ValueError("cannot average counts over different measured qubits")
            probs = c.to_probabilities()
            for k, p in probs.items():
                acc[k] = acc.get(k, 0.0) + p / len(counts_list)
        return Counts(
            {k: p * total_shots for k, p in acc.items()},
            measured,
            counts_list[0].num_qubits,
        )

    def __repr__(self) -> str:
        head = dict(list(sorted(self._data.items()))[:4])
        more = "" if len(self._data) <= 4 else f", +{len(self._data) - 4} outcomes"
        return (
            f"Counts(measured={list(self._measured)}, shots={self.shots:g}, "
            f"{head}{more})"
        )
