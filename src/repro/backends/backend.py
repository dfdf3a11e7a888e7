"""The simulated device executor.

:class:`SimulatedBackend` is the drop-in stand-in for an IBMQ device in
every experiment (see DESIGN.md substitutions): it owns a coupling map and a
:class:`~repro.noise.models.NoiseModel`, validates submitted circuits
against the coupling map, simulates them (statevector, with Pauli-trajectory
gate noise when the model has any), applies the measurement-error channel to
the output distribution, and multinomially samples shots — exactly the
paper's §V-A pipeline.

Calibration circuits: an X-only circuit prepares a computational basis
state (:meth:`Circuit.basis_state`), so without gate noise its pre-channel
distribution is built directly as a one-hot vector — bitwise what the
statevector would give — and never touches the simulator.  With gate noise
its X gates can err, so it keeps the trajectory path.  Distributions then go
through the measurement channel as stacks of same-register rows, chunked
under :data:`CHANNEL_STACK_BYTES` so a large suite (Full's ``2^n`` basis
states) stays bounded in memory; rows are independent, so the chunk size
never changes a value.

Output-distribution caching: experiments repeatedly execute the *same*
circuit object (mitigation methods re-run the target circuit under different
budgets), so the noisy pre-sampling distribution is cached per circuit
identity.  Sampling itself is never cached — shot noise must stay
independent across executions.

Determinism: the gate-noise trajectory average for a circuit is drawn from
a stream derived from the backend's construction seed and the circuit's
content fingerprint, never from the running sampling stream.  The noisy
pre-sampling distribution is therefore a pure function of (backend seed,
circuit) — independent of the order in which circuits are first executed —
which is what lets the sweep engine (:mod:`repro.pipeline`) reorder and
cache work without perturbing results.  Only shot sampling consumes the
running stream, which :meth:`SimulatedBackend.reseed` can repoint at a
derived stream between execution phases.

.. note::
   The batched trajectory engine consumes the per-circuit stream in a
   different (vectorised) order than the original serial loop, so trajectory
   averages for noisy circuits differ numerically from pre-batch releases —
   same seeds, same statistics, different draws.  The stream changed a
   second time when the trajectory sampler's rejection loop (redraw every
   trajectory that drew no gate error; ``O(1/p)`` rounds at error rate
   ``p``) became an exact inverse-CDF draw of the first error position
   followed by independent later positions: same conditional law, a fixed
   number of draws, different values.  The purity guarantee above is
   unchanged, and the current values are pinned by regression tests
   (``tests/test_backends.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.budget import BudgetExceeded, ShotBudget
from repro.circuits.circuit import Circuit
from repro.circuits.transpile import validate_against_coupling_map
from repro.counts import Counts
from repro.noise.models import NoiseModel
from repro.simulator.statevector import StatevectorSimulator
from repro.simulator.trajectories import TrajectorySimulator
from repro.simulator.sampling import sample_counts
from repro.topology.coupling_map import CouplingMap
from repro.utils.rng import RandomState, ensure_rng, stable_rng
from repro.utils.validation import check_shots

__all__ = ["SimulatedBackend", "CHANNEL_STACK_BYTES"]

#: Ceiling on one ``(B, 2^k)`` stack pushed through the measurement channel
#: (4 MiB: 512 rows of a 10-qubit register, 8 rows of a 16-qubit one).
CHANNEL_STACK_BYTES = 4 << 20


class SimulatedBackend:
    """Noisy simulated quantum device.

    Parameters
    ----------
    coupling_map:
        Device topology; two-qubit gates must lie on its edges.
    noise_model:
        Gate + measurement noise (default: ideal).
    rng:
        Seed or generator for all stochastic behaviour of this backend.
    validate_coupling:
        When True (default), executing a circuit with an off-map two-qubit
        gate raises — mirroring a real device rejecting an unrouted circuit.
    max_trajectories:
        Cap on gate-noise trajectories per distinct circuit evaluation.
    trajectory_memory_bytes:
        Ceiling on the batched trajectory engine's amplitude tensor (the
        batch is chunked beneath it); ``None`` keeps the engine default
        (256 MB).
    """

    def __init__(
        self,
        coupling_map: CouplingMap,
        noise_model: Optional[NoiseModel] = None,
        rng: RandomState = None,
        validate_coupling: bool = True,
        max_trajectories: int = 128,
        trajectory_memory_bytes: Optional[int] = None,
    ) -> None:
        self.coupling_map = coupling_map
        self.noise_model = noise_model or NoiseModel.ideal(coupling_map.num_qubits)
        if self.noise_model.num_qubits != coupling_map.num_qubits:
            raise ValueError(
                f"noise model is over {self.noise_model.num_qubits} qubits, "
                f"device has {coupling_map.num_qubits}"
            )
        self._rng = ensure_rng(rng)
        self.validate_coupling = validate_coupling
        traj_kwargs = {}
        if trajectory_memory_bytes is not None:
            traj_kwargs["memory_budget_bytes"] = trajectory_memory_bytes
        self._trajectory_sim = TrajectorySimulator(
            self.noise_model.error_1q,
            self.noise_model.error_2q,
            max_trajectories=max_trajectories,
            **traj_kwargs,
        )
        # Root of the per-circuit trajectory-noise streams; drawn once so the
        # trajectory average for any circuit depends only on the construction
        # seed + circuit content, not on execution order (see module docs).
        self._traj_root = (
            int(self._rng.integers(0, 2**63 - 1))
            if self.noise_model.has_gate_noise
            else 0
        )
        self._dist_cache: Dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self.coupling_map.num_qubits

    @property
    def name(self) -> str:
        return f"sim({self.coupling_map.name}/{self.noise_model.name})"

    # ------------------------------------------------------------------
    def _pre_channel_distribution(self, circuit: Circuit, key: tuple) -> np.ndarray:
        """Gate-noise (or ideal) distribution before the measurement channel."""
        if self.validate_coupling:
            validate_against_coupling_map(circuit, self.coupling_map)
        if circuit.num_qubits > self.num_qubits:
            raise ValueError("circuit larger than device")
        if self.noise_model.has_gate_noise:
            traj_rng = stable_rng(self._traj_root, key)
            return self._trajectory_sim.output_distribution(
                circuit, shots=1 << 14, rng=traj_rng
            )
        prepared = circuit.basis_state()
        if prepared is not None:
            measured = circuit.measured_qubits
            index = sum(((prepared >> q) & 1) << k for k, q in enumerate(measured))
            one_hot = np.zeros(1 << len(measured))
            one_hot[index] = 1.0
            return one_hot
        sim = StatevectorSimulator(circuit.num_qubits)
        sim.run(circuit)
        return sim.probabilities(circuit.measured_qubits)

    def _noisy_distributions(
        self, circuits: Sequence[Circuit]
    ) -> List[np.ndarray]:
        """Pre-sampling outcome distributions, one per circuit.

        Cache-aware batch route: uncached circuits sharing a measured-qubit
        signature are stacked and pushed through the measurement-error
        channel in ``(B, 2^k)`` passes (see
        :meth:`MeasurementErrorChannel.apply_marginal`) instead of one
        channel application per circuit — the win for calibration suites,
        which submit dozens (Full: ``2^n``) of same-register circuits per
        batch.  Each stack holds at most :data:`CHANNEL_STACK_BYTES`, so a
        large suite costs several passes rather than one giant
        ``2^n x 2^n`` block; the channel treats rows independently, so the
        chunking never changes a value.  Pre-channel distributions are
        computed chunk by chunk for the same reason.
        """
        out: List[Optional[np.ndarray]] = [None] * len(circuits)
        todo: Dict[tuple, List[int]] = {}
        for i, circuit in enumerate(circuits):
            key = circuit.fingerprint()
            cached = self._dist_cache.get(key)
            if cached is not None:
                out[i] = cached
            else:
                todo.setdefault(key, []).append(i)
        groups: Dict[Tuple[int, ...], List[tuple]] = {}
        for key, indices in todo.items():
            groups.setdefault(circuits[indices[0]].measured_qubits, []).append(key)
        channel = self.noise_model.measurement_channel
        for measured, keys in groups.items():
            rows = max(1, CHANNEL_STACK_BYTES // (8 << len(measured)))
            for start in range(0, len(keys), rows):
                chunk = keys[start : start + rows]
                stack = np.stack(
                    [
                        self._pre_channel_distribution(circuits[todo[key][0]], key)
                        for key in chunk
                    ]
                )
                noisy_stack = channel.apply_marginal(stack, measured)
                for key, noisy in zip(chunk, noisy_stack):
                    self._dist_cache[key] = noisy
        for key, indices in todo.items():
            for i in indices:
                out[i] = self._dist_cache[key]
        return out

    def _noisy_distribution(self, circuit: Circuit) -> np.ndarray:
        """Pre-sampling outcome distribution over the measured qubits."""
        return self._noisy_distributions([circuit])[0]

    def run(
        self,
        circuit: Circuit,
        shots: int,
        budget: Optional[ShotBudget] = None,
        tag: str = "untagged",
    ) -> Counts:
        """Execute ``circuit`` for ``shots`` shots.

        When a budget is supplied the shots are charged against it first
        (raising :class:`~repro.backends.budget.BudgetExceeded` on overdraw
        before any work is done).
        """
        check_shots(shots)
        if budget is not None:
            budget.charge(shots, tag=tag)
        dist = self._noisy_distribution(circuit)
        return sample_counts(
            dist,
            shots,
            circuit.measured_qubits,
            rng=self._rng,
            num_qubits=circuit.num_qubits,
        )

    def run_batch(
        self,
        circuits: Sequence[Circuit],
        shots: int,
        budget: Optional[ShotBudget] = None,
        tag: str = "untagged",
    ) -> List[Counts]:
        """Execute several circuits at the same per-circuit shot count.

        The whole batch is charged up front (overdraw raises before any
        simulation *and* before any charge is booked, keeping the ledger
        clean), the uncached pre-sampling distributions are computed
        through the batched route (:meth:`_noisy_distributions`), and shot
        sampling then consumes the running stream in circuit order — the
        same draws a sequence of :meth:`run` calls would make.
        """
        circuits = list(circuits)
        check_shots(shots)
        if budget is not None:
            if not budget.can_afford(shots * len(circuits)):
                raise BudgetExceeded(
                    f"budget cannot afford batch of {len(circuits)} circuit(s) "
                    f"x {shots} shots: {budget.spent} spent of {budget.total}"
                )
            for _ in circuits:
                budget.charge(shots, tag=tag)
        dists = self._noisy_distributions(circuits)
        return [
            sample_counts(
                dist,
                shots,
                circuit.measured_qubits,
                rng=self._rng,
                num_qubits=circuit.num_qubits,
            )
            for circuit, dist in zip(circuits, dists)
        ]

    def exact_distribution(self, circuit: Circuit) -> np.ndarray:
        """The noisy pre-sampling distribution (testing / infinite shots)."""
        return self._noisy_distribution(circuit).copy()

    def reseed(self, rng: RandomState) -> None:
        """Repoint the shot-sampling stream at ``rng``.

        The sweep engine reseeds between execution phases (calibration vs
        target) so each phase samples from a stream derived from its logical
        identity rather than from whatever happened to run before it — the
        basis of bit-identical serial/parallel sweeps.  Cached pre-sampling
        distributions are kept: they do not depend on the sampling stream.
        """
        self._rng = ensure_rng(rng)

    def clear_cache(self) -> None:
        """Drop cached pre-sampling distributions (e.g. after mutating noise)."""
        self._dist_cache.clear()

    def __repr__(self) -> str:
        return f"SimulatedBackend({self.name}, qubits={self.num_qubits})"
