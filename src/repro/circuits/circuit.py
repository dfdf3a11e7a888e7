"""The :class:`Circuit` IR.

A circuit is an ordered list of :class:`Instruction` (gate + qubit tuple)
plus an explicit set of measured qubits.  There is no classical register
abstraction: measurement is always a terminal computational-basis readout of
the declared measured qubits, which is all the paper's benchmarks need (its
measurement-error channels act at readout time only, §II-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.circuits.gates import Gate
from repro.utils.validation import check_num_qubits, check_qubit_indices

__all__ = ["Instruction", "Circuit"]


@dataclass(frozen=True)
class Instruction:
    """A gate applied to a tuple of qubits (in gate-argument order)."""

    gate: Gate
    qubits: Tuple[int, ...]

    def __post_init__(self) -> None:
        qs = tuple(int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qs)
        if len(qs) != self.gate.num_qubits:
            raise ValueError(
                f"gate {self.gate!r} acts on {self.gate.num_qubits} qubit(s), "
                f"got {len(qs)}"
            )
        if len(set(qs)) != len(qs):
            raise ValueError(f"duplicate qubits in instruction: {qs}")

    def __repr__(self) -> str:
        return f"{self.gate!r} {list(self.qubits)}"


class Circuit:
    """An n-qubit circuit: ordered instructions plus measured qubits.

    Builder methods (``h``, ``x``, ``cx``, ...) return ``self`` for chaining:

    >>> qc = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
    >>> qc.depth()
    3
    """

    def __init__(self, num_qubits: int, name: str = "") -> None:
        self._num_qubits = check_num_qubits(num_qubits)
        self._instructions: List[Instruction] = []
        self._measured: Optional[Tuple[int, ...]] = None
        self.name = name or f"circuit-{num_qubits}q"

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        return tuple(self._instructions)

    @property
    def measured_qubits(self) -> Tuple[int, ...]:
        """Qubits read out at the end; defaults to all qubits if unset."""
        if self._measured is None:
            return tuple(range(self._num_qubits))
        return self._measured

    @property
    def measures_all(self) -> bool:
        return self.measured_qubits == tuple(range(self._num_qubits))

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, num_qubits={self._num_qubits}, "
            f"num_instructions={len(self._instructions)}, "
            f"measured={list(self.measured_qubits)})"
        )

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def append(self, gate: Gate, qubits: Sequence[int]) -> "Circuit":
        """Append ``gate`` on ``qubits``; validates indices."""
        qs = check_qubit_indices(qubits, self._num_qubits)
        self._instructions.append(Instruction(gate, qs))
        return self

    def _g1(self, name: str, qubit: int, *params: float) -> "Circuit":
        return self.append(Gate(name, tuple(params)), (qubit,))

    def _g2(self, name: str, a: int, b: int) -> "Circuit":
        return self.append(Gate(name), (a, b))

    def i(self, qubit: int) -> "Circuit":
        """Identity gate on ``qubit``."""
        return self._g1("i", qubit)

    def x(self, qubit: int) -> "Circuit":
        """Pauli-X (bit flip) on ``qubit``."""
        return self._g1("x", qubit)

    def y(self, qubit: int) -> "Circuit":
        """Pauli-Y on ``qubit``."""
        return self._g1("y", qubit)

    def z(self, qubit: int) -> "Circuit":
        """Pauli-Z (phase flip) on ``qubit``."""
        return self._g1("z", qubit)

    def h(self, qubit: int) -> "Circuit":
        """Hadamard on ``qubit``."""
        return self._g1("h", qubit)

    def s(self, qubit: int) -> "Circuit":
        """Phase gate S on ``qubit``."""
        return self._g1("s", qubit)

    def t(self, qubit: int) -> "Circuit":
        """T gate on ``qubit``."""
        return self._g1("t", qubit)

    def rx(self, theta: float, qubit: int) -> "Circuit":
        """Rotation by ``theta`` about X on ``qubit``."""
        return self._g1("rx", qubit, theta)

    def ry(self, theta: float, qubit: int) -> "Circuit":
        """Rotation by ``theta`` about Y on ``qubit``."""
        return self._g1("ry", qubit, theta)

    def rz(self, lam: float, qubit: int) -> "Circuit":
        """Rotation by ``lam`` about Z on ``qubit``."""
        return self._g1("rz", qubit, lam)

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "Circuit":
        """General single-qubit rotation U3 (paper Eq. 1) on ``qubit``."""
        return self._g1("u3", qubit, theta, phi, lam)

    def cx(self, control: int, target: int) -> "Circuit":
        """CNOT with ``control`` controlling ``target``."""
        return self._g2("cx", control, target)

    def cz(self, a: int, b: int) -> "Circuit":
        """Controlled-Z between ``a`` and ``b`` (symmetric)."""
        return self._g2("cz", a, b)

    def swap(self, a: int, b: int) -> "Circuit":
        """SWAP qubits ``a`` and ``b``."""
        return self._g2("swap", a, b)

    def measure(self, qubits: Sequence[int]) -> "Circuit":
        """Declare the measured qubits (terminal readout)."""
        self._measured = check_qubit_indices(qubits, self._num_qubits)
        return self

    def measure_all(self) -> "Circuit":
        """Declare every qubit measured."""
        self._measured = tuple(range(self._num_qubits))
        return self

    # ------------------------------------------------------------------
    # Composition and analysis
    # ------------------------------------------------------------------
    def compose(self, other: "Circuit") -> "Circuit":
        """New circuit: self's instructions followed by other's.

        The measured-qubit declaration of ``other`` wins if set, matching
        how SIM/AIM append mask circuits before readout.
        """
        if other.num_qubits != self._num_qubits:
            raise ValueError(
                f"cannot compose circuits of {self._num_qubits} and "
                f"{other.num_qubits} qubits"
            )
        out = Circuit(self._num_qubits, name=f"{self.name}+{other.name}")
        out._instructions = list(self._instructions) + list(other._instructions)
        out._measured = other._measured if other._measured is not None else self._measured
        return out

    def copy(self, name: str = "") -> "Circuit":
        """Independent copy (instructions list is not shared)."""
        out = Circuit(self._num_qubits, name=name or self.name)
        out._instructions = list(self._instructions)
        out._measured = self._measured
        return out

    def with_measured(self, qubits: Sequence[int]) -> "Circuit":
        """Copy with a different measured-qubit declaration (JIGSAW subsets)."""
        out = self.copy()
        out.measure(qubits)
        return out

    def fingerprint(self) -> Tuple:
        """Content-based hashable identity: gates, qubits, measured set.

        Two circuits with equal fingerprints produce identical output
        distributions; backends key their caches on this (object identity
        is unsafe — ids of collected circuits get reused).
        """
        return (
            self._num_qubits,
            tuple(
                (inst.gate.name, inst.gate.params, inst.qubits)
                for inst in self._instructions
            ),
            self.measured_qubits,
        )

    def basis_state(self) -> Optional[int]:
        """The computational basis state an X-only circuit prepares.

        Returns the full-register index (bit ``q`` = qubit ``q``) — the XOR
        of every X target — when every instruction is an ``x`` gate, and
        ``None`` otherwise.  Calibration circuits are exactly this shape,
        which lets backends skip the statevector for them.
        """
        state = 0
        for inst in self._instructions:
            if inst.gate.name != "x":
                return None
            state ^= 1 << inst.qubits[0]
        return state

    def depth(self) -> int:
        """Circuit depth: longest chain of instructions sharing qubits."""
        level = [0] * self._num_qubits
        for inst in self._instructions:
            d = max(level[q] for q in inst.qubits) + 1
            for q in inst.qubits:
                level[q] = d
        return max(level, default=0)

    def count_gates(self, name: Optional[str] = None) -> int:
        """Number of instructions, optionally filtered by gate name."""
        if name is None:
            return len(self._instructions)
        name = name.lower()
        return sum(1 for inst in self._instructions if inst.gate.name == name)

    def two_qubit_edges(self) -> List[Tuple[int, int]]:
        """Canonical (min, max) pairs touched by two-qubit gates, in order."""
        out = []
        for inst in self._instructions:
            if len(inst.qubits) == 2:
                a, b = inst.qubits
                out.append((min(a, b), max(a, b)))
        return out
