"""Output checks and mitigation-quality figures for one sweep's records.

Every failure is counted as a failed *cell* (one record slot of the
points x trials x circuits x budgets x methods grid), so the benchmark can
report failed cells against attempted cells:

* a missing record slot is a failed cell;
* N/A is legitimate only for Full and Linear above their qubit caps (the
  paper's Table II N/A cells).  The suite runner turns any ``ValueError``
  into N/A, so without this rule a crash would read as a normal result;
* a non-finite (or absent) error on an available cell is a failed cell;
* CMC and CMC-ERR must each beat Bare on every point (median over trials);
  a point where one does not fails that method's cells there.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.experiments.runner import METHOD_ORDER
from repro.pipeline import SweepSpec
from repro.pipeline.runner import SweepRecord
from repro.topology.ibm_devices import named_device

#: Methods that must beat Bare on every point.
CHALLENGERS = ("CMC", "CMC-ERR")


@dataclass
class CheckReport:
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def point_qubits(spec: SweepSpec, point: int) -> int:
    bspec = spec.backends[point]
    if bspec.kind == "architecture":
        return int(bspec.qubits)
    return named_device(bspec.name).num_qubits


def _na_allowed(spec: SweepSpec, rec: SweepRecord) -> bool:
    caps = {
        "Full": spec.full_max_qubits,
        "Linear": (
            spec.full_max_qubits
            if spec.linear_max_qubits is None
            else spec.linear_max_qubits
        ),
    }
    cap = caps.get(rec.method)
    return cap is not None and point_qubits(spec, rec.backend_index) > cap


def _finite(rec: SweepRecord) -> bool:
    return rec.error is not None and math.isfinite(rec.error)


def check_records(spec: SweepSpec, records: Sequence[SweepRecord]) -> CheckReport:
    """Count failed cells of one sweep (see the module docs for the rules)."""
    methods = list(spec.methods) if spec.methods is not None else METHOD_ORDER
    report = CheckReport(attempted=spec.num_runs * len(methods))
    if len(records) != report.attempted:
        report.fail(
            max(0, report.attempted - len(records)),
            f"{len(records)} records, expected {report.attempted}",
        )
    cells: Dict[Tuple[int, int, int], Dict[str, List[SweepRecord]]] = {}
    for rec in records:
        if rec.not_applicable:
            if not _na_allowed(spec, rec):
                report.fail(
                    1,
                    f"N/A on {rec.method} at {rec.backend_label} trial "
                    f"{rec.trial}: {rec.failure}",
                )
        elif not _finite(rec):
            report.fail(
                1,
                f"non-finite error {rec.error!r} on {rec.method} at "
                f"{rec.backend_label} trial {rec.trial}",
            )
        key = (rec.backend_index, rec.shots, rec.circuit_index)
        cells.setdefault(key, {}).setdefault(rec.method, []).append(rec)
    for (point, shots, _), by_method in sorted(cells.items()):
        bare = [r.error for r in by_method.get("Bare", ()) if _finite(r)]
        if not bare:
            continue
        bare_err = statistics.median(bare)
        for method in CHALLENGERS:
            recs = [r for r in by_method.get(method, ()) if _finite(r)]
            if recs and statistics.median(r.error for r in recs) >= bare_err:
                report.fail(
                    len(recs),
                    f"{method} does not beat Bare at "
                    f"{spec.backends[point].label} ({shots} shots)",
                )
    return report


def point_reductions(records: Sequence[SweepRecord], method: str) -> List[float]:
    """Per-point fraction of Bare's one-norm error that ``method`` removes
    (medians over trials), for every point where both are available."""
    errors: Dict[Tuple[int, int, int], Dict[str, List[float]]] = {}
    for rec in records:
        if not rec.not_applicable and _finite(rec):
            key = (rec.backend_index, rec.shots, rec.circuit_index)
            errors.setdefault(key, {}).setdefault(rec.method, []).append(rec.error)
    out = []
    for by_method in errors.values():
        if by_method.get("Bare") and by_method.get(method):
            bare = statistics.median(by_method["Bare"])
            if bare > 0:
                out.append(1.0 - statistics.median(by_method[method]) / bare)
    return out
