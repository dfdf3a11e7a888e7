"""Monte-Carlo Pauli-trajectory simulation of gate errors.

The architecture benchmarks (Figs. 13-15) set a one-qubit depolarising gate
error of 0.1% and a two-qubit error of 1% (T1 = T2 = inf).  A depolarising
channel is a probabilistic mixture of Pauli errors, so its effect on the
output *distribution* is exactly reproduced by averaging statevector
trajectories in which each gate is followed, with the channel probability,
by a uniformly random non-identity Pauli on its qubits.

To keep cost proportional to the *error* rate rather than the shot count,
trajectories are stratified: the number of error-free shots is drawn from a
binomial (those use the single ideal statevector), and only the erroneous
shots are simulated as individual trajectories, each with at least one
inserted Pauli.  For the paper's error rates (a GHZ-16 has ~16% erroneous
shots of 16000) this is still heavy if done per-shot, so the number of
distinct sampled trajectories is capped and reused with multiplicity — a
controlled approximation whose resolution is the cap (default 256
trajectories, i.e. error-distribution resolution of 1/256, well under the
sampling noise of 16000-shot experiments).

Execution model
---------------
All trajectories share the same base circuit and differ only in sparsely
inserted Paulis, so the whole trajectory set is evolved as **one batch**: a
:class:`~repro.simulator.batched.BatchedStatevectorSimulator` applies every
circuit gate once across all trajectories, and the per-trajectory Pauli
insertions land on individual batch rows as axis flips / sign masks (see
that module's docs).  Event sampling is likewise vectorised and exact: each
trajectory's *first* event position is drawn by inverse CDF over the
cumulative no-event probability, and the later positions are independent
Bernoulli draws — the law of "every gate errs independently, conditioned on
at least one error" with a fixed number of draws whatever the error rate
(a rejection loop would cost ``O(1/p)`` rounds and never finish as
``p -> 0``).  No Python-level per-trajectory loop survives on the hot path.
The batch is chunked so the amplitude tensor stays under
``memory_budget_bytes`` (default 256 MB).

Determinism: every draw comes from the caller-supplied generator in a fixed
order, so the trajectory average remains a pure function of ``(rng seed,
circuit, shots)``.  The *values* differ from the pre-batch serial
implementation (which interleaved event and Pauli draws per trajectory);
:meth:`TrajectorySimulator.serial_output_distribution` keeps that
per-trajectory order as a reference, and the batched/serial engines are
pinned equivalent *given the same events* in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate, gate_matrix
from repro.simulator.batched import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    BatchedStatevectorSimulator,
    max_batch_rows,
)
from repro.simulator.statevector import StatevectorSimulator, prepare_circuit
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_probability

__all__ = ["TrajectorySimulator"]

_PAULIS = ("x", "y", "z")


@dataclass
class _ErrorEvent:
    """A Pauli inserted after instruction ``position`` on ``qubit``."""

    position: int
    qubit: int
    pauli: str


@dataclass(frozen=True)
class _EventBatch:
    """All error events of a trajectory batch, structure-of-arrays.

    Each element describes one inserted Pauli: trajectory ``row``, circuit
    ``position`` it follows, target ``qubit``, and ``pauli`` index into
    ``_PAULIS``.  Events are sorted by ``position`` so the batched runner can
    slice them out per instruction without scanning.
    """

    row: np.ndarray
    position: np.ndarray
    qubit: np.ndarray
    pauli: np.ndarray

    def events_for_row(self, row: int) -> List[_ErrorEvent]:
        """The events of one trajectory as the serial engine consumes them."""
        mask = self.row == row
        return [
            _ErrorEvent(int(p), int(q), _PAULIS[int(k)])
            for p, q, k in zip(self.position[mask], self.qubit[mask], self.pauli[mask])
        ]


@dataclass(frozen=True)
class _CircuitTables:
    """Per-circuit arrays the sampler needs, computed once per fingerprint."""

    error_probs: np.ndarray  # per-instruction error probability
    # P(first event at or before position j), i.e. 1 - prod_{i<=j}(1 - p_i),
    # computed in log space so rates of 1e-12 keep full precision.
    first_event_cdf: np.ndarray
    error_probability: float  # P(>= 1 event) = first_event_cdf[-1]
    last_error_position: int  # last position with a positive rate (-1: none)
    is_two_qubit: np.ndarray  # bool per instruction
    qubit0: np.ndarray  # first qubit per instruction
    qubit1: np.ndarray  # second qubit per instruction (-1 for 1q gates)


class TrajectorySimulator:
    """Statevector simulation with stochastic Pauli gate errors.

    Parameters
    ----------
    error_1q / error_2q:
        Depolarising probability after each one-/two-qubit gate.  A
        two-qubit depolarising event applies an independent uniformly random
        non-identity Pauli to each of the two qubits (with one resampled to
        avoid the identity-identity case).
    max_trajectories:
        Cap on distinct erroneous trajectories sampled per circuit
        evaluation; erroneous shot weight is spread over these.
    memory_budget_bytes:
        Ceiling on the batched amplitude tensor; the trajectory batch is
        chunked so ``chunk · 2^n`` complex amplitudes stay under it.
    """

    def __init__(
        self,
        error_1q: float = 0.0,
        error_2q: float = 0.0,
        max_trajectories: int = 256,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
    ) -> None:
        self.error_1q = check_probability(error_1q, "error_1q")
        self.error_2q = check_probability(error_2q, "error_2q")
        if max_trajectories < 1:
            raise ValueError("max_trajectories must be positive")
        if memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        self.max_trajectories = int(max_trajectories)
        self.memory_budget_bytes = int(memory_budget_bytes)
        self._tables_cache: Dict[tuple, _CircuitTables] = {}
        self._ops_cache: Dict[tuple, tuple] = {}

    def _prepared_ops(self, circuit: Circuit) -> tuple:
        """Validated/classified operators of ``circuit``, cached per fingerprint.

        Both the ideal run and every trajectory batch replay the same
        circuit, so the prepare_circuit work (argument validation plus
        diagonal/monomial structure detection) is paid once per circuit.
        """
        key = circuit.fingerprint()
        ops = self._ops_cache.get(key)
        if ops is None:
            ops = prepare_circuit(circuit, circuit.num_qubits)
            self._ops_cache[key] = ops
        return ops

    # ------------------------------------------------------------------
    def _circuit_tables(self, circuit: Circuit) -> _CircuitTables:
        """Sampling tables for ``circuit``, cached per content fingerprint.

        The error-probability vector used to be rebuilt with a Python loop
        over instructions on every sampling call; backends evaluate the same
        circuit for hundreds of trajectories, so it is memoised here (keyed
        on the circuit fingerprint plus the error rates, in case a caller
        mutates those between calls).
        """
        key = (circuit.fingerprint(), self.error_1q, self.error_2q)
        tables = self._tables_cache.get(key)
        if tables is not None:
            return tables
        n = len(circuit.instructions)
        is2q = np.zeros(n, dtype=bool)
        qubit0 = np.zeros(n, dtype=np.int64)
        qubit1 = np.full(n, -1, dtype=np.int64)
        for i, inst in enumerate(circuit.instructions):
            qubit0[i] = inst.qubits[0]
            if len(inst.qubits) == 2:
                is2q[i] = True
                qubit1[i] = inst.qubits[1]
        probs = np.where(is2q, self.error_2q, self.error_1q)
        with np.errstate(divide="ignore"):  # a rate of 1 logs to -inf: fine
            cdf = -np.expm1(np.cumsum(np.log1p(-probs)))
        positive = np.flatnonzero(probs > 0.0)
        for arr in (probs, cdf, is2q, qubit0, qubit1):
            arr.setflags(write=False)
        tables = _CircuitTables(
            error_probs=probs,
            first_event_cdf=cdf,
            error_probability=float(cdf[-1]) if n else 0.0,
            last_error_position=int(positive[-1]) if positive.size else -1,
            is_two_qubit=is2q,
            qubit0=qubit0,
            qubit1=qubit1,
        )
        self._tables_cache[key] = tables
        return tables

    def _gate_error_probs(self, circuit: Circuit) -> np.ndarray:
        """Per-instruction error probability vector (cached, read-only)."""
        return self._circuit_tables(circuit).error_probs

    def error_free_probability(self, circuit: Circuit) -> float:
        """Probability that a shot of ``circuit`` suffers no gate error.

        ``1 -`` the cached normaliser of the event sampler, so the binomial
        error-shot weight and the sampler's conditioning are one number.
        """
        return 1.0 - self._circuit_tables(circuit).error_probability

    # ------------------------------------------------------------------
    # Vectorised event sampling
    # ------------------------------------------------------------------
    @staticmethod
    def _sample_hits(
        tables: _CircuitTables, n_traj: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Error positions of ``n_traj`` trajectories, each with >= 1 event.

        Exact sampler for independent per-gate events conditioned on at
        least one: the first event position ``J`` is drawn by inverse CDF,
        ``P(J = j | >= 1) = p_j prod_{i<j}(1 - p_i) / Z``, and the positions
        after ``J`` are i.i.d. Bernoulli(``p_i``).  Two vectorised draws
        (``n_traj`` uniforms, then ``(n_traj, n_instructions)``), whatever
        the rates.  Returns a boolean ``(n_traj, n_instructions)`` matrix.
        """
        z = tables.error_probability
        if z <= 0.0:
            raise ValueError("cannot condition on >=1 event: all error rates are 0")
        probs = tables.error_probs
        first = np.searchsorted(
            tables.first_event_cdf, rng.random(n_traj) * z, side="right"
        )
        # For a subnormal Z, u*Z can round up to Z, which no CDF entry
        # exceeds; land on the last position that can err, not the last one.
        np.minimum(first, tables.last_error_position, out=first)
        later = np.arange(probs.size) > first[:, None]
        hits = (rng.random((n_traj, probs.size)) < probs) & later
        hits[np.arange(n_traj), first] = True
        return hits

    def _sample_event_batch(
        self, circuit: Circuit, n_traj: int, rng: np.random.Generator
    ) -> _EventBatch:
        """Sample events for ``n_traj`` trajectories, each with >= 1 event.

        Error positions come from :meth:`_sample_hits` (inverse-CDF first
        event plus independent later events).  Pauli choices are then drawn
        in two vectorised calls: one for all one-qubit hits (uniform over
        X/Y/Z) and one for all two-qubit hits (uniform over the 15
        non-identity two-qubit Paulis), in stable (trajectory, position)
        order.
        """
        tables = self._circuit_tables(circuit)
        hits = self._sample_hits(tables, n_traj, rng)
        rows, positions = np.nonzero(hits)
        hit_is2q = tables.is_two_qubit[positions]

        rows1, pos1 = rows[~hit_is2q], positions[~hit_is2q]
        paulis1 = rng.integers(3, size=rows1.size)

        rows2, pos2 = rows[hit_is2q], positions[hit_is2q]
        # Uniform over the 15 non-identity two-qubit Paulis.
        pair = rng.integers(1, 16, size=rows2.size)
        a, b = pair % 4, pair // 4
        amask, bmask = a > 0, b > 0

        ev_row = np.concatenate([rows1, rows2[amask], rows2[bmask]])
        ev_pos = np.concatenate([pos1, pos2[amask], pos2[bmask]])
        ev_qubit = np.concatenate(
            [
                tables.qubit0[pos1],
                tables.qubit0[pos2[amask]],
                tables.qubit1[pos2[bmask]],
            ]
        )
        ev_pauli = np.concatenate([paulis1, a[amask] - 1, b[bmask] - 1])

        order = np.argsort(ev_pos, kind="stable")
        return _EventBatch(
            row=ev_row[order],
            position=ev_pos[order],
            qubit=ev_qubit[order],
            pauli=ev_pauli[order],
        )

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def _run_event_batch(
        self, circuit: Circuit, batch: _EventBatch, n_traj: int
    ) -> np.ndarray:
        """Trajectory-averaged distribution of ``n_traj`` perturbed runs.

        Evolves the whole trajectory set with one gate application per
        instruction per chunk; each trajectory's Paulis are sliced onto its
        batch row right after the instruction they follow.

        Two structural savings on top of plain batching:

        * **lazy forking** — every trajectory is identical to the shared
          clean state until its *first* error event, so rows are sorted by
          first-event position and only join the active batch prefix when
          they diverge (a single clean statevector is evolved alongside and
          copied in at the fork point).  Gates before a trajectory's first
          event cost nothing for that row — roughly half of all per-row gate
          work for uniformly placed events.
        * **chunking** — the batch tensor is capped under
          ``memory_budget_bytes``; trajectory averages are accumulated
          across chunks.

        Trajectories are exchangeable (only their average is returned), so
        the fork-time sort does not change the modelled distribution.
        """
        ops = self._prepared_ops(circuit)
        measured = circuit.measured_qubits
        n_inst = len(ops)
        # Fork time = first event position per trajectory; sort rows by it.
        first_pos = np.full(n_traj, n_inst, dtype=np.int64)
        np.minimum.at(first_pos, batch.row, batch.position)
        order = np.argsort(first_pos, kind="stable")
        rank_of_row = np.empty(n_traj, dtype=np.int64)
        rank_of_row[order] = np.arange(n_traj)
        ev_rank = rank_of_row[batch.row]
        sorted_first = first_pos[order]
        # Event spans per instruction position (events are position-sorted).
        starts = np.searchsorted(batch.position, np.arange(n_inst), side="left")
        stops = np.searchsorted(batch.position, np.arange(n_inst), side="right")
        chunk = min(n_traj, max_batch_rows(circuit.num_qubits, self.memory_budget_bytes))
        acc = np.zeros(1 << len(measured))
        clean = StatevectorSimulator(circuit.num_qubits)
        for lo in range(0, n_traj, chunk):
            hi = min(lo + chunk, n_traj)
            telemetry = obs.active()
            if telemetry is not None:
                telemetry.counter(
                    "repro_sim_batch_chunks_total",
                    "Trajectory batch chunks evolved under the memory budget",
                ).inc()
            sim = BatchedStatevectorSimulator(circuit.num_qubits, hi - lo)
            clean.reset()
            active = 0
            for i, op in enumerate(ops):
                clean.apply_prepared(op)
                if active:
                    sim.apply_prepared(op, upto=active)
                # Fork the rows whose first event follows instruction i.
                forked = int(np.searchsorted(sorted_first, i, side="right"))
                target = min(max(forked - lo, 0), hi - lo)
                if target > active:
                    sim.load_rows(active, clean.statevector, count=target - active)
                    active = target
                s, e = starts[i], stops[i]
                if s == e:
                    continue
                in_chunk = (ev_rank[s:e] >= lo) & (ev_rank[s:e] < hi)
                if not in_chunk.any():
                    continue
                rows = ev_rank[s:e][in_chunk] - lo
                qubits = batch.qubit[s:e][in_chunk]
                paulis = batch.pauli[s:e][in_chunk]
                # Group same-(qubit, pauli) events into one sliced operation;
                # Paulis at one position act on distinct qubits per row, so
                # group order does not matter.
                keys = qubits * 3 + paulis
                for key in np.unique(keys):
                    mask = keys == key
                    sim.apply_pauli(
                        _PAULIS[int(key) % 3], int(key) // 3, rows=rows[mask]
                    )
            if active < hi - lo:
                # Unreachable when every trajectory has >= 1 event (the
                # sampler guarantees it); keep leftover rows clean anyway.
                sim.load_rows(active, clean.statevector, count=hi - lo - active)
            acc += sim.probabilities(measured).sum(axis=0)
        return acc / n_traj

    # ------------------------------------------------------------------
    # Serial reference engine (kept for equivalence tests and benchmarks)
    # ------------------------------------------------------------------
    def _sample_events(
        self, circuit: Circuit, rng: np.random.Generator
    ) -> List[_ErrorEvent]:
        """Sample error events for one trajectory, conditioned on >= 1 event.

        Serial reference path: positions from :meth:`_sample_hits` for one
        trajectory, then that trajectory's Pauli draws (interleaved per
        trajectory), used by :meth:`serial_output_distribution` and the
        equivalence tests.
        """
        tables = self._circuit_tables(circuit)
        hits = np.flatnonzero(self._sample_hits(tables, 1, rng)[0])
        events: List[_ErrorEvent] = []
        for pos in hits:
            inst = circuit.instructions[pos]
            if len(inst.qubits) == 1:
                events.append(
                    _ErrorEvent(int(pos), inst.qubits[0], _PAULIS[rng.integers(3)])
                )
            else:
                # Uniform over the 15 non-identity two-qubit Paulis.
                pair = rng.integers(1, 16)
                a, b = pair % 4, pair // 4
                if a:
                    events.append(_ErrorEvent(int(pos), inst.qubits[0], _PAULIS[a - 1]))
                if b:
                    events.append(_ErrorEvent(int(pos), inst.qubits[1], _PAULIS[b - 1]))
        return events

    def _run_with_events(
        self,
        circuit: Circuit,
        events: Sequence[_ErrorEvent],
        sim: StatevectorSimulator,
    ) -> np.ndarray:
        """One perturbed run on the dense engine (serial reference path)."""
        by_position: dict = {}
        for ev in events:
            by_position.setdefault(ev.position, []).append(ev)
        sim.reset()
        for i, inst in enumerate(circuit.instructions):
            sim.apply_matrix(inst.gate.matrix, inst.qubits)
            for ev in by_position.get(i, ()):
                sim.apply_matrix(gate_matrix(ev.pauli), (ev.qubit,))
        return sim.probabilities(circuit.measured_qubits)

    def serial_output_distribution(
        self,
        circuit: Circuit,
        shots: int,
        rng: RandomState = None,
    ) -> np.ndarray:
        """Pre-batch reference implementation of :meth:`output_distribution`.

        One dense-engine circuit evaluation per trajectory, with the
        interleaved per-trajectory sampling stream.  Kept so the benchmark suite
        can measure the batched speedup against the real former hot path and
        so equivalence tests have an independent oracle; not used by any
        production caller.
        """
        gen = ensure_rng(rng)
        sim = StatevectorSimulator(circuit.num_qubits)
        sim.run(circuit)
        ideal = sim.probabilities(circuit.measured_qubits)
        p_err = self._circuit_tables(circuit).error_probability
        num_err_shots = int(gen.binomial(shots, p_err))
        if num_err_shots == 0:
            return ideal
        n_traj = min(num_err_shots, self.max_trajectories)
        acc = np.zeros_like(ideal)
        for _ in range(n_traj):
            events = self._sample_events(circuit, gen)
            acc += self._run_with_events(circuit, events, sim)
        noisy = acc / n_traj
        w_err = num_err_shots / shots
        return (1.0 - w_err) * ideal + w_err * noisy

    # ------------------------------------------------------------------
    def output_distribution(
        self,
        circuit: Circuit,
        shots: int,
        rng: RandomState = None,
    ) -> np.ndarray:
        """Gate-noise-averaged output distribution over the measured qubits.

        Returns the mixture: (binomially sampled error-free weight) x ideal
        distribution + erroneous-trajectory average.  Measurement errors are
        *not* applied here — that is the backend's job, matching the paper's
        separation between gate noise and readout channels.

        The erroneous trajectories are evolved as one batched pass (see the
        module docs); the result is a pure function of ``(rng seed, circuit,
        shots)``.
        """
        gen = ensure_rng(rng)
        sim = StatevectorSimulator(circuit.num_qubits)
        sim.reset()
        for op in self._prepared_ops(circuit):
            sim.apply_prepared(op)
        ideal = sim.probabilities(circuit.measured_qubits)
        p_err = self._circuit_tables(circuit).error_probability
        num_err_shots = int(gen.binomial(shots, p_err))
        if num_err_shots == 0:
            return ideal
        n_traj = min(num_err_shots, self.max_trajectories)
        batch = self._sample_event_batch(circuit, n_traj, gen)
        noisy = self._run_event_batch(circuit, batch, n_traj)
        w_err = num_err_shots / shots
        return (1.0 - w_err) * ideal + w_err * noisy
