"""Full (complete) measurement calibration (paper §III-B).

Prepares and measures every one of the ``2^n`` computational basis states,
assembles the dense ``2^n x 2^n`` calibration matrix, and mitigates by
solving ``C x = p_observed``.

This is the accuracy gold standard and the scalability anti-pattern the
paper positions CMC against: at a fixed shot budget the per-circuit shot
count collapses as ``2^-n`` (the sampling tail of Fig. 12), and beyond
``n ≈ 10`` queueing the circuits at all becomes unfeasible (§VII-A) — the
``max_qubits`` guard makes that N/A regime explicit, as in Table II.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends.backend import SimulatedBackend
from repro.backends.budget import ShotBudget
from repro.circuits.circuit import Circuit
from repro.circuits.library import calibration_circuit
from repro.core.base import DEFAULT_CALIBRATION_FRACTION, Mitigator
from repro.core.calibration import CalibrationMatrix
from repro.counts import Counts
from repro.utils.linalg import clip_renormalize

__all__ = ["FullCalibrationMitigator", "NotScalableError"]


class NotScalableError(RuntimeError):
    """The method cannot be run at this qubit count (the Table II "N/A")."""


class FullCalibrationMitigator(Mitigator):
    """Complete 2^n calibration + matrix inversion.

    Parameters
    ----------
    max_qubits:
        Hard feasibility ceiling; preparing a device larger than this raises
        :class:`NotScalableError` (paper: "For n > 10 it becomes unfeasible
        to queue and execute all the required calibration circuits").
    method:
        ``"inverse"`` (default) solves ``C x = p`` directly and clips;
        ``"lstsq"`` uses constrained non-negative least squares — slower,
        but never leaves the probability simplex.
    """

    name = "Full"
    reusable = True

    def __init__(self, max_qubits: int = 12, method: str = "inverse") -> None:
        if method not in ("inverse", "lstsq"):
            raise ValueError(f"unknown mitigation method {method!r}")
        self.max_qubits = int(max_qubits)
        self.method = method
        self.calibration: Optional[CalibrationMatrix] = None

    def prepare(
        self,
        backend: SimulatedBackend,
        budget: ShotBudget,
        calibration_fraction: float = DEFAULT_CALIBRATION_FRACTION,
    ) -> None:
        n = backend.num_qubits
        if n > self.max_qubits:
            raise NotScalableError(
                f"full calibration needs 2^{n} circuits; ceiling is "
                f"2^{self.max_qubits}"
            )
        num_circuits = 1 << n
        shots_per_circuit = budget.split_evenly(
            num_circuits, fraction=calibration_fraction
        )
        # One batch: the whole suite is charged (or refused) up front and
        # every basis state goes through the readout channel in stacked
        # passes; shots are drawn in circuit order, as a loop of runs would.
        results = backend.run_batch(
            [calibration_circuit(n, prepared) for prepared in range(num_circuits)],
            shots_per_circuit,
            budget=budget,
            tag="calibration",
        )
        self.calibration = CalibrationMatrix.from_counts(
            tuple(range(n)), dict(enumerate(results))
        )

    def calibration_state(self) -> Optional[dict]:
        if self.calibration is None:
            raise RuntimeError("Full calibration not prepared")
        return {"calibration": self.calibration}

    def load_calibration_state(self, state: dict) -> None:
        self.calibration = state["calibration"]

    def mitigate(self, counts: Counts) -> Counts:
        """Invert the full calibration matrix over the measured qubits."""
        if self.calibration is None:
            raise RuntimeError("Full calibration not prepared")
        measured = counts.measured_qubits
        cal = (
            self.calibration
            if measured == self.calibration.qubits
            else self.calibration.traced(measured)
        )
        observed = counts.to_dense(normalized=True)
        if self.method == "lstsq":
            probs = cal.mitigate_least_squares(observed)
        else:
            probs = clip_renormalize(cal.mitigate_dense(observed))
        support = np.flatnonzero(probs)
        return Counts(
            {int(i): float(probs[i]) * counts.shots for i in support},
            measured,
            counts.num_qubits,
        )

    def execute(
        self,
        circuit: Circuit,
        backend: SimulatedBackend,
        budget: ShotBudget,
    ) -> Counts:
        if self.calibration is None:
            raise RuntimeError("Full calibration not prepared")
        shots = budget.remaining
        if shots is None:
            raise ValueError("Full.execute needs a capped budget")
        raw = backend.run(circuit, shots, budget=budget, tag="target")
        return self.mitigate(raw)
