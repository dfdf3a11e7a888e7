"""The method-suite runner: equal budgets, fresh mitigators, N/A handling.

Encodes the paper's evaluation protocol (§V):

* every method receives the **same** total shot budget per trial;
* calibration-matrix methods split it between calibration and the target
  circuit; circuit-specific methods spend it all inside execution;
* exponential methods that cannot run at the current size are reported as
  ``N/A`` (Table II's Nairobi column) rather than crashing the sweep.

Mitigator instances are built fresh per trial via factories so that no
calibration state leaks between trials — unless a trial *explicitly* opts
into reuse through :func:`run_suite_cached`, which threads a
:class:`~repro.pipeline.cache.CalibrationCache` and per-phase seed scopes
through the protocol so reuse stays bit-identical to cold calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import one_norm_distance
from repro.backends.backend import SimulatedBackend
from repro.backends.budget import BudgetExceeded, ShotBudget
from repro.circuits.circuit import Circuit
from repro.core.base import Mitigator
from repro.core.cmc import CMCMitigator
from repro.core.err import CMCERRMitigator
from repro.counts import Counts
from repro.mitigation.aim import AIMMitigator
from repro.mitigation.bare import BareMitigator
from repro.mitigation.full import FullCalibrationMitigator, NotScalableError
from repro.mitigation.jigsaw import JigsawMitigator
from repro.mitigation.linear import LinearCalibrationMitigator
from repro.mitigation.simavg import SIMMitigator
from repro.pipeline.cache import calibration_key
from repro.topology.coupling_map import CouplingMap
from repro.utils.rng import RandomState, ensure_rng, stable_rng

__all__ = [
    "MethodResult",
    "MethodSuite",
    "default_method_suite",
    "run_suite_once",
    "run_suite_cached",
    "METHOD_ORDER",
]

MitigatorFactory = Callable[[], Mitigator]

#: Canonical column order used by the paper's tables.
METHOD_ORDER = ["Bare", "Full", "Linear", "AIM", "SIM", "JIGSAW", "CMC", "CMC-ERR"]


@dataclass
class MethodResult:
    """Outcome of one method on one trial."""

    method: str
    counts: Optional[Counts]
    error: Optional[float] = None  # one-norm distance when ideal was given
    shots_spent: int = 0
    circuits_executed: int = 0
    not_applicable: bool = False
    failure: str = ""

    @property
    def available(self) -> bool:
        return self.counts is not None and not self.not_applicable


@dataclass
class MethodSuite:
    """Named mitigator factories, run under a common budget."""

    factories: Dict[str, MitigatorFactory]

    def names(self) -> List[str]:
        """Method names in the paper's canonical column order."""
        ordered = [m for m in METHOD_ORDER if m in self.factories]
        extras = [m for m in self.factories if m not in METHOD_ORDER]
        return ordered + sorted(extras)


def default_method_suite(
    coupling_map: CouplingMap,
    rng: RandomState = None,
    *,
    include: Optional[Sequence[str]] = None,
    full_max_qubits: int = 12,
    linear_max_qubits: Optional[int] = None,
    err_locality: int = 3,
    jigsaw_subsets: int = 4,
    cmc_k: int = 1,
) -> MethodSuite:
    """The paper's full comparison suite for a device.

    ``include`` filters methods by name (default: all eight).  JIGSAW's
    random subset draws are seeded from ``rng`` per instantiation.
    ``linear_max_qubits`` defaults to ``full_max_qubits`` so Linear goes
    N/A alongside Full, as in Table II (the paper's Linear materialises a
    dense matrix); pass a large value to let the sparse Linear run anywhere.
    """
    master = ensure_rng(rng)
    linear_cap = full_max_qubits if linear_max_qubits is None else linear_max_qubits

    def jigsaw_factory() -> Mitigator:
        return JigsawMitigator(
            num_subsets=jigsaw_subsets, rng=int(master.integers(0, 2**31))
        )

    factories: Dict[str, MitigatorFactory] = {
        "Bare": BareMitigator,
        "Full": lambda: FullCalibrationMitigator(max_qubits=full_max_qubits),
        "Linear": lambda: LinearCalibrationMitigator(
            two_circuit=True, max_qubits=linear_cap
        ),
        "AIM": AIMMitigator,
        "SIM": SIMMitigator,
        "JIGSAW": jigsaw_factory,
        "CMC": lambda: CMCMitigator(coupling_map, k=cmc_k),
        "CMC-ERR": lambda: CMCERRMitigator(
            coupling_map, locality=err_locality, separation=cmc_k
        ),
    }
    if include is not None:
        wanted = set(include)
        unknown = wanted - set(factories)
        if unknown:
            raise KeyError(f"unknown methods: {sorted(unknown)}")
        factories = {k: v for k, v in factories.items() if k in wanted}
    return MethodSuite(factories)


def run_suite_once(
    suite: MethodSuite,
    circuit: Circuit,
    backend: SimulatedBackend,
    total_shots: int,
    ideal: Optional[np.ndarray] = None,
) -> Dict[str, MethodResult]:
    """Run every method in the suite on one circuit with equal budgets.

    Returns a result per method; exponential-method infeasibility and
    budget exhaustion become ``not_applicable`` / ``failure`` entries so a
    sweep never aborts half-way (the paper's N/A cells).
    """
    return run_suite_cached(suite, circuit, backend, total_shots, ideal=ideal)


def run_suite_cached(
    suite: MethodSuite,
    circuit: Circuit,
    backend: SimulatedBackend,
    total_shots: int,
    ideal: Optional[np.ndarray] = None,
    *,
    cache=None,
    calibration_scope: Optional[Tuple] = None,
    execution_scope: Optional[Tuple] = None,
) -> Dict[str, MethodResult]:
    """:func:`run_suite_once` with calibration reuse and scoped seeding.

    The three keyword extensions are what the sweep engine threads through:

    ``calibration_scope``
        Stable tokens naming the calibration event group this run belongs
        to (typically ``(seed, point, trial)`` — everything *except* the
        target circuit).  When given, the backend's sampling stream is
        reseeded from ``scope + (method, budget)`` before each method's
        calibration circuits run, making the measured calibration a pure
        function of its identity rather than of execution history.
    ``cache``
        A :class:`~repro.pipeline.cache.CalibrationCache` (duck-typed:
        ``lookup``/``store``), probed with
        :func:`~repro.pipeline.cache.calibration_key` of the reseed scope.
        Reusable methods whose key was measured
        before skip their calibration circuits, restore the memoized state
        and replay the recorded budget spend — bit-identical to measuring
        again under the same scope, just without the device time.
    ``execution_scope``
        Stable tokens (typically including the circuit index) reseeding the
        target-circuit sampling stream per method, so target shot noise is
        independent of whether calibration was cached.

    With all three omitted this is exactly the legacy protocol.
    """
    if cache is not None and (calibration_scope is None or execution_scope is None):
        # Without a calibration scope the key degenerates to (method, shots),
        # which collides across backends/trials and would silently restore a
        # calibration measured on a different noise draw.  Without an
        # execution scope a cache hit would leave the target circuit sampling
        # from wherever the stream happens to sit — no longer bit-identical
        # to a cold run.
        raise ValueError(
            "run_suite_cached needs calibration_scope and execution_scope "
            "when a cache is used"
        )
    results: Dict[str, MethodResult] = {}
    for name in suite.names():
        factory = suite.factories[name]
        budget = ShotBudget(total_shots)
        try:
            mitigator = factory()
            key = (calibration_scope or ()) + (name, int(total_shots))
            # Only state-bearing methods participate in caching; Bare is
            # reusable but snapshots nothing, and probing for it would log
            # a structural miss on every run.
            cacheable = (
                cache is not None
                and mitigator.reusable
                and type(mitigator).calibration_state
                is not Mitigator.calibration_state
            )
            restored = False
            if cacheable:
                record = cache.lookup(calibration_key(key))
                if record is not None:
                    mitigator.load_calibration_state(record.state)
                    budget.replay(record.shots_spent, record.circuits_executed)
                    restored = True
            if not restored:
                if calibration_scope is not None:
                    backend.reseed(stable_rng("calibration", key))
                spent_before = budget.spent
                circuits_before = budget.circuits_executed
                mitigator.prepare(backend, budget)
                if cacheable:
                    state = mitigator.calibration_state()
                    if state is not None:
                        cache.store(
                            calibration_key(key),
                            state,
                            budget.spent - spent_before,
                            budget.circuits_executed - circuits_before,
                        )
            if execution_scope is not None:
                backend.reseed(
                    stable_rng("execution", execution_scope, name, int(total_shots))
                )
            counts = mitigator.execute(circuit, backend, budget)
        except NotScalableError as exc:
            results[name] = MethodResult(
                method=name, counts=None, not_applicable=True, failure=str(exc)
            )
            continue
        except (BudgetExceeded, ValueError) as exc:
            results[name] = MethodResult(
                method=name, counts=None, not_applicable=True, failure=str(exc)
            )
            continue
        err = one_norm_distance(counts, ideal) if ideal is not None else None
        results[name] = MethodResult(
            method=name,
            counts=counts,
            error=err,
            shots_spent=budget.spent,
            circuits_executed=budget.circuits_executed,
        )
    return results
