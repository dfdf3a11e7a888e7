"""Joining overlapping patch calibrations (paper §IV-B, Eqs. 5-7, Figs. 6-8).

Problem: CMC holds one 4x4 calibration ``C_e`` per coupling-map edge, and
edges share qubits.  Naively multiplying the embedded ``C_e`` would apply
each shared qubit's single-qubit error once **per incident edge** instead of
once.  The paper's fix divides fractional powers of the shared marginal out
of each patch before multiplying.

Generalised both-endpoint form (the paper's Eqs. 5-6 are the two one-sided
specialisations; see DESIGN.md):

For edge ``e = (i, j)``, let ``v(q)`` be the degree of qubit ``q`` in the
patch graph and ``v_a(q)`` the rank of ``e`` among ``q``'s edges in the
global application order.  Then

    C'_e = (C_i^{a_i} ⊗ C_j^{a_j})^{-1} · C_e · (C_i^{b_i} ⊗ C_j^{b_j})^{-1}

with right exponents ``b_q = v_a(q) / v(q)`` and left exponents
``a_q = (v(q) - 1 - v_a(q)) / v(q)``, where ``C_q = |Tr(C_e)|`` is the
marginal single-qubit calibration of ``q`` (averaged over ``q``'s edges so
every patch divides out the same marginal).

Telescoping property (property-tested): if all patches factorise as
``C_e = C_i ⊗ C_j`` (no correlated errors), then ``C'_e = C_i^{1/v(i)} ⊗
C_j^{1/v(j)}`` and the ordered product of all embedded ``C'_e`` equals
``⊗_q C_q`` exactly — each qubit's calibration applied exactly once.  With
correlated errors, the product additionally carries each edge's correlation
term, which is the information CMC preserves and Linear calibration loses.

The global application order must be *consistent*: a patch with a smaller
order parameter on a shared qubit is applied earlier (rightmost — Eq. 7's
``v1 > v0`` convention).  Deriving all per-qubit order parameters from one
total order over edges guarantees consistency for arbitrary graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.calibration import CalibrationMatrix
from repro.core.sparse_apply import apply_chain_sparse
from repro.counts import SparseDistribution
from repro.topology.coupling_map import Edge
from repro.utils.linalg import fractional_stochastic_power, stable_inverse

__all__ = ["OrderedPatch", "JoinedCalibration", "assign_order_parameters"]


@dataclass(frozen=True)
class OrderedPatch:
    """A patch calibration with its per-endpoint order parameters.

    ``order_params[q]`` is ``(v_a, v)`` for endpoint ``q``: this edge's rank
    among q's incident edges in the application order, and q's total degree
    in the patch graph.
    """

    calibration: CalibrationMatrix
    order_params: Mapping[int, Tuple[int, int]]

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.calibration.qubits


def assign_order_parameters(
    patches: Sequence[CalibrationMatrix],
) -> List[OrderedPatch]:
    """Derive consistent per-endpoint order parameters from list order.

    The input list order *is* the application order (first applied first).
    For each patch and each of its qubits ``q``: ``v_a`` = how many earlier
    patches also touch ``q``; ``v`` = total patches touching ``q``.
    """
    degree: Dict[int, int] = {}
    for patch in patches:
        for q in patch.qubits:
            degree[q] = degree.get(q, 0) + 1
    seen: Dict[int, int] = {}
    ordered: List[OrderedPatch] = []
    for patch in patches:
        params = {}
        for q in patch.qubits:
            params[q] = (seen.get(q, 0), degree[q])
            seen[q] = seen.get(q, 0) + 1
        ordered.append(OrderedPatch(patch, params))
    return ordered


def _endpoint_power(
    marginal: np.ndarray, exponent: float
) -> np.ndarray:
    """``marginal ** exponent`` (identity shortcut for exponent 0).

    Every marginal CMC joins is a single-qubit 2x2 column-stochastic
    ``C = [[1-a, b], [a, 1-b]]``, whose eigenvalues are 1 and
    ``lam = 1 - a - b``.  For ``lam > 0`` the power has the closed form
    ``C^t = P + lam^t (I - P)``, with ``P`` the stationary projector (every
    column ``(b, a) / (a + b)``); ``1 - lam^t`` is taken through
    ``expm1``/``log1p`` so error rates down to 1e-12 keep full precision.
    ``a + b = 0`` is the identity.  Any other case (``lam <= 0``, negative
    entries, exponent 1, larger matrices) goes to
    :func:`fractional_stochastic_power`, which stays the oracle and owns
    the refusal of non-embeddable marginals.
    """
    if exponent == 0.0:
        return np.eye(marginal.shape[0])
    if marginal.shape == (2, 2) and exponent != 1.0:
        a, b = float(marginal[1, 0]), float(marginal[0, 1])
        rate = a + b
        if a >= 0.0 and b >= 0.0 and rate < 1.0:
            if rate == 0.0:
                return np.eye(2)
            decayed = -np.expm1(exponent * np.log1p(-rate)) / rate
            return np.array(
                [[1.0 - a * decayed, b * decayed], [a * decayed, 1.0 - b * decayed]]
            )
    return fractional_stochastic_power(marginal, exponent)


class JoinedCalibration:
    """The joined global calibration operator of §IV-B/C.

    Built from patch calibrations over (possibly overlapping) qubit tuples;
    exposes the forward channel and its inverse as chains of local factors
    for dense or sparse application.

    Parameters
    ----------
    patches:
        Patch calibrations in application order (first applied first, i.e.
        rightmost in the matrix product).  Use
        :func:`assign_order_parameters` semantics: order in this list
        determines every order parameter.
    marginals:
        Optional externally-estimated single-qubit marginals ``C_q``.  By
        default each qubit's marginal is the normalised-partial-trace
        average over its incident patches.
    order_correction:
        When False, skips the Eq. 5-7 fractional-power correction and
        multiplies the raw embedded patches — the naive join that
        double-counts shared qubits' errors.  Exists for the ablation
        benchmark that quantifies what the paper's construction buys.
    """

    def __init__(
        self,
        patches: Sequence[CalibrationMatrix],
        marginals: Optional[Mapping[int, CalibrationMatrix]] = None,
        order_correction: bool = True,
    ) -> None:
        if not patches:
            raise ValueError("need at least one patch calibration")
        self.order_correction = bool(order_correction)
        self._ordered = assign_order_parameters(patches)
        self._marginals: Dict[int, np.ndarray] = {}
        if marginals is not None:
            for q, cal in marginals.items():
                if cal.num_qubits != 1:
                    raise ValueError(f"marginal for qubit {q} is not single-qubit")
                self._marginals[int(q)] = cal.matrix
        self._ensure_marginals()
        self._factors = [self._corrected_factor(op) for op in self._ordered]

    # ------------------------------------------------------------------
    def _ensure_marginals(self) -> None:
        """Fill missing marginals by averaging partial traces over patches."""
        acc: Dict[int, List[np.ndarray]] = {}
        for op in self._ordered:
            for q in op.qubits:
                if q in self._marginals:
                    continue
                acc.setdefault(q, []).append(op.calibration.traced((q,)).matrix)
        for q, mats in acc.items():
            self._marginals[q] = np.mean(mats, axis=0)

    def _corrected_factor(self, op: OrderedPatch) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """Build C'_e = L^{-1} C_e R^{-1} with the endpoint power corrections."""
        cal = op.calibration
        if not self.order_correction:
            return cal.matrix.copy(), cal.qubits
        left = np.eye(1)
        right = np.eye(1)
        # kron ordering: later qubits in the tuple are higher bits, so build
        # kron(last, ..., first).
        for q in reversed(cal.qubits):
            va, v = op.order_params[q]
            marginal = self._marginals[q]
            a_exp = (v - 1 - va) / v
            b_exp = va / v
            left = np.kron(left, _endpoint_power(marginal, a_exp))
            right = np.kron(right, _endpoint_power(marginal, b_exp))
        corrected = stable_inverse(left) @ cal.matrix @ stable_inverse(right)
        return corrected, cal.qubits

    # ------------------------------------------------------------------
    @property
    def patches(self) -> Tuple[OrderedPatch, ...]:
        return tuple(self._ordered)

    @property
    def factors(self) -> List[Tuple[np.ndarray, Tuple[int, ...]]]:
        """Corrected factors ``(C'_e, qubits)`` in application order."""
        return list(self._factors)

    def inverse_factors(self) -> List[Tuple[np.ndarray, Tuple[int, ...]]]:
        """Factors of the inverse channel: reversed order, each inverted."""
        return [
            (stable_inverse(mat), qubits) for mat, qubits in reversed(self._factors)
        ]

    def qubits(self) -> Tuple[int, ...]:
        """Sorted union of all patch qubits."""
        out = set()
        for op in self._ordered:
            out.update(op.qubits)
        return tuple(sorted(out))

    # ------------------------------------------------------------------
    # Dense views (ground truth / small systems / tests)
    # ------------------------------------------------------------------
    def to_matrix(self, num_qubits: Optional[int] = None) -> np.ndarray:
        """Materialise the joined channel over qubits ``0..n-1`` (dense).

        Only for small systems; the scalable path is the sparse chain.
        """
        n = (max(self.qubits()) + 1) if num_qubits is None else int(num_qubits)
        if n > 14:
            raise ValueError("refusing to materialise a joined matrix over >14 qubits")
        dim = 1 << n
        out = np.eye(dim)
        for mat, qubits in self._factors:
            out = _embed(mat, qubits, n) @ out
        return out

    def mitigation_matrix(self, num_qubits: Optional[int] = None) -> np.ndarray:
        """Dense inverse of the joined channel (small systems)."""
        n = (max(self.qubits()) + 1) if num_qubits is None else int(num_qubits)
        dim = 1 << n
        out = np.eye(dim)
        for mat, qubits in self.inverse_factors():
            out = _embed(mat, qubits, n) @ out
        return out

    # ------------------------------------------------------------------
    # Sparse application (the production path)
    # ------------------------------------------------------------------
    def mitigate_sparse(
        self,
        dist: SparseDistribution,
        positions_of: Optional[Mapping[int, int]] = None,
        prune_tol: float = 1e-12,
        max_support: Optional[int] = None,
    ) -> SparseDistribution:
        """Apply the inverse channel to a sparse measured distribution.

        ``positions_of`` maps device qubit -> bit position within the
        distribution's index space (identity by default, for full-register
        measurements).
        """
        chain = []
        for mat, qubits in self.inverse_factors():
            if positions_of is None:
                positions = qubits
            else:
                positions = tuple(positions_of[q] for q in qubits)
            chain.append((mat, positions))
        return apply_chain_sparse(
            dist, chain, prune_tol=prune_tol, max_support=max_support
        )


def _embed(matrix: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Embed a local matrix into the full ``2^n`` space (dense, small n)."""
    m = len(qubits)
    dim = 1 << num_qubits
    full = np.zeros((dim, dim))
    idx = np.arange(dim)
    from repro.utils.bitstrings import extract_bits, remainder_bits

    local = extract_bits(idx, qubits)
    rest = remainder_bits(idx, qubits)
    # full[r, c] = matrix[local(r), local(c)] when rest(r) == rest(c)
    for col in range(dim):
        lc = int(local[col])
        rc = int(rest[col])
        rows = np.flatnonzero(rest == rc)
        full[rows, col] = matrix[local[rows], lc]
    return full
