"""Per-layer ledger: spans around the program's public layer boundaries.

:func:`instrumented` wraps public functions and methods of ``repro`` for
the duration of a ``with`` block and restores them afterwards; nothing
under ``src/`` knows it is being traced.  A span records its name, start,
end, parent and trace id (the task's :func:`repro.obs.task_trace_id`, or
the sweep's trace id outside tasks), plus a few counts taken at the same
boundary.  Spans stay in memory and are written out when the run ends.

A call that re-enters a span of the same name (``apply_pauli("y")``
applying Z then X) is covered by the outer span and records nothing.

Run as a script to summarise a spans file::

    python3 perfbench/ledger.py perfbench/out/table2-cold-s1.spans.jsonl
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The methods whose prepare/execute time is reported one by one.
METHODS = ("Bare", "Full", "Linear", "AIM", "SIM", "JIGSAW", "CMC", "CMC-ERR")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("pipeline.tasks", "count"),
    ("pipeline.self_s", "s"),
    ("experiments.suite_s", "s"),
    ("experiments.cells", "count"),
    ("experiments.na_cells", "count"),
    ("experiments.failed_cells", "count"),
    *((f"mitigation.prepare_s.{m}", "s") for m in METHODS),
    *((f"mitigation.execute_s.{m}", "s") for m in METHODS),
    ("core.join_s", "s"),
    ("core.joins", "count"),
    ("core.mitigate_sparse_s", "s"),
    ("core.mitigate_sparse_calls", "count"),
    ("backends.build_s", "s"),
    ("backends.run_s", "s"),
    ("backends.circuits", "count"),
    ("backends.shots", "count"),
    ("backends.dist_cache_hit_ratio", "ratio"),
    ("simulator.trajectories_s", "s"),
    ("simulator.trajectories_self_s", "s"),
    ("simulator.gate_apply_s", "s"),
    ("simulator.gate_apply_calls", "count"),
    ("simulator.statevector_s", "s"),
    ("simulator.sample_counts_s", "s"),
    ("noise.readout_channel_s", "s"),
    ("noise.readout_channel_rows", "count"),
    ("store.put_s", "s"),
    ("store.puts", "count"),
    ("journal.append_s", "s"),
    ("journal.appends", "count"),
    ("store.get_s", "s"),
    ("store.gets", "count"),
    ("cache.lookup_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("trace.sweep_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
)

ROOT_SPAN = "pipeline.sweep"

Attrs = Optional[Callable[[tuple, dict], dict]]


class Tracer:
    """In-memory span recorder for one sweep (single-threaded)."""

    def __init__(self, sweep_trace: str) -> None:
        self.sweep_trace = sweep_trace
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._open: set = set()

    def _start(self, name: str, attrs: Optional[dict]) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "name": name,
            "trace": self.sweep_trace if parent is None else parent["trace"],
        }
        if attrs:
            span.update(attrs)
        self.spans.append(span)
        self._stack.append(span)
        self._open.add(name)
        span["start"] = perf_counter()
        return span

    def _end(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()
        self._open.discard(span["name"])

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        span = self._start(name, attrs)
        try:
            yield span
        finally:
            self._end(span)

    def wrap(self, name: str, fn: Callable, attrs: Attrs = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in tracer._open:
                return fn(*args, **kwargs)
            span = tracer._start(name, None if attrs is None else attrs(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end(span)

        return traced


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _targets(tracer: Tracer) -> List[Tuple[object, str, str, Attrs]]:
    import repro.backends.backend as backend_mod
    import repro.experiments.runner as suite_mod
    import repro.pipeline.runner as runner_mod
    from repro import obs
    from repro.core.cmc import CMCMitigator
    from repro.core.err import CMCERRMitigator
    from repro.core.joining import JoinedCalibration
    from repro.mitigation.aim import AIMMitigator
    from repro.mitigation.bare import BareMitigator
    from repro.mitigation.full import FullCalibrationMitigator
    from repro.mitigation.jigsaw import JigsawMitigator
    from repro.mitigation.linear import LinearCalibrationMitigator
    from repro.mitigation.simavg import SIMMitigator
    from repro.noise.channels import MeasurementErrorChannel
    from repro.pipeline.cache import CalibrationCache
    from repro.pipeline.spec import BackendSpec
    from repro.simulator.batched import BatchedStatevectorSimulator
    from repro.simulator.statevector import StatevectorSimulator
    from repro.simulator.trajectories import TrajectorySimulator
    from repro.store.artifacts import ArtifactStore
    from repro.store.calcache import PersistentCalibrationCache
    from repro.store.journal import SweepJournal

    def task(args, kwargs):  # execute_task(spec, point, trials, ...)
        return {"trace": obs.task_trace_id(tracer.sweep_trace, args[1], args[2])}

    def run_one(args, kwargs):  # run(self, circuit, shots, ...)
        return {"circuits": 1, "shots": int(args[2])}

    def run_batch(args, kwargs):  # run_batch(self, circuits, shots, ...)
        n = len(args[1])
        return {"circuits": n, "shots": n * int(args[2])}

    def rows(args, kwargs):  # apply_marginal(self, probabilities, measured)
        shape = getattr(args[1], "shape", ())
        return {"rows": int(shape[0]) if len(shape) == 2 else 1}

    mitigators = dict(
        zip(
            METHODS,
            (
                BareMitigator,
                FullCalibrationMitigator,
                LinearCalibrationMitigator,
                AIMMitigator,
                SIMMitigator,
                JigsawMitigator,
                CMCMitigator,
                CMCERRMitigator,
            ),
        )
    )
    targets: List[Tuple[object, str, str, Attrs]] = [
        (runner_mod, "execute_task", "pipeline.task", task),
        (suite_mod, "run_suite_cached", "experiments.suite", None),
    ]
    for method, cls in mitigators.items():
        label = {"method": method}
        targets.append((cls, "prepare", "mitigation.prepare", lambda a, k, l=label: l))
        targets.append((cls, "execute", "mitigation.execute", lambda a, k, l=label: l))
    targets += [
        (JoinedCalibration, "__init__", "core.join", None),
        (JoinedCalibration, "mitigate_sparse", "core.mitigate_sparse", None),
        (BackendSpec, "build", "backends.build", None),
        (backend_mod.SimulatedBackend, "run", "backends.run", run_one),
        (backend_mod.SimulatedBackend, "run_batch", "backends.run", run_batch),
        (TrajectorySimulator, "output_distribution", "simulator.trajectories", None),
        (BatchedStatevectorSimulator, "apply_prepared", "simulator.gate_apply", None),
        (BatchedStatevectorSimulator, "apply_pauli", "simulator.gate_apply", None),
        (StatevectorSimulator, "run", "simulator.statevector", None),
        (backend_mod, "sample_counts", "simulator.sample_counts", None),
        (MeasurementErrorChannel, "apply_marginal", "noise.readout_channel", rows),
        (ArtifactStore, "put", "store.put", None),
        (ArtifactStore, "get", "store.get", None),
        (SweepJournal, "append_task", "journal.append", None),
        (CalibrationCache, "lookup", "cache.lookup", None),
        (PersistentCalibrationCache, "lookup", "cache.lookup", None),
    ]
    return targets


_ABSENT = object()


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer boundary for the block; restore them on exit."""
    saved = []
    try:
        for owner, attr, name, attrs in _targets(tracer):
            saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))
        yield tracer
    finally:
        for owner, attr, previous in reversed(saved):
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


# ----------------------------------------------------------------------
# From spans to numbers
# ----------------------------------------------------------------------
def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def wall_and_covered(spans: Sequence[dict]) -> Tuple[float, float]:
    """The sweep's wall and the part of it its direct child spans cover."""
    root = next(s for s in spans if s["name"] == ROOT_SPAN)
    covered = sum(_duration(s) for s in spans if s["parent"] == root["id"])
    return _duration(root), covered


def self_times(spans: Sequence[dict]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += _duration(span)
    return [_duration(s) - c for s, c in zip(spans, child)]


def sweep_metrics(
    spans: Sequence[dict],
    *,
    cells: int,
    na_cells: int,
    failed_cells: int,
    cache_hits: int,
    cache_misses: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced sweep (ids index ``spans``)."""
    total: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    attr: Dict[str, int] = defaultdict(int)
    selfs = self_times(spans)
    computed = 0
    trajectories_self = 0.0
    for span, own in zip(spans, selfs):
        name = span["name"]
        if "method" in span:
            name = f"{name}.{span['method']}"
        total[name] += _duration(span)
        count[name] += 1
        for key in ("circuits", "shots", "rows"):
            attr[key] += span.get(key, 0)
        if span["name"] in ("simulator.trajectories", "simulator.statevector"):
            parent = span["parent"]
            computed += parent is not None and spans[parent]["name"] == "backends.run"
        if span["name"] == "simulator.trajectories":
            trajectories_self += own
    wall, covered = wall_and_covered(spans)
    lookups = cache_hits + cache_misses
    out = {
        "pipeline.tasks": count["pipeline.task"],
        "pipeline.self_s": wall - total["experiments.suite"],
        "experiments.suite_s": total["experiments.suite"],
        "experiments.cells": cells,
        "experiments.na_cells": na_cells,
        "experiments.failed_cells": failed_cells,
    }
    for phase in ("prepare", "execute"):
        for method in METHODS:
            out[f"mitigation.{phase}_s.{method}"] = total[f"mitigation.{phase}.{method}"]
    out.update(
        {
            "core.join_s": total["core.join"],
            "core.joins": count["core.join"],
            "core.mitigate_sparse_s": total["core.mitigate_sparse"],
            "core.mitigate_sparse_calls": count["core.mitigate_sparse"],
            "backends.build_s": total["backends.build"],
            "backends.run_s": total["backends.run"],
            "backends.circuits": attr["circuits"],
            "backends.shots": attr["shots"],
            "backends.dist_cache_hit_ratio": (
                1.0 - computed / attr["circuits"] if attr["circuits"] else 0.0
            ),
            "simulator.trajectories_s": total["simulator.trajectories"],
            "simulator.trajectories_self_s": trajectories_self,
            "simulator.gate_apply_s": total["simulator.gate_apply"],
            "simulator.gate_apply_calls": count["simulator.gate_apply"],
            "simulator.statevector_s": total["simulator.statevector"],
            "simulator.sample_counts_s": total["simulator.sample_counts"],
            "noise.readout_channel_s": total["noise.readout_channel"],
            "noise.readout_channel_rows": attr["rows"],
            "store.put_s": total["store.put"],
            "store.puts": count["store.put"],
            "journal.append_s": total["journal.append"],
            "journal.appends": count["journal.append"],
            "store.get_s": total["store.get"],
            "store.gets": count["store.get"],
            "cache.lookup_s": total["cache.lookup"],
            "cache.hit_ratio": cache_hits / lookups if lookups else 0.0,
            "trace.sweep_s": wall,
            "trace.coverage": covered / wall,
        }
    )
    return out


# ----------------------------------------------------------------------
# Spans file and its summary
# ----------------------------------------------------------------------
def write_spans(path, meta: dict, sweeps: Sequence[Sequence[dict]]) -> None:
    """One JSON line of run metadata, then one line per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta}) + "\n")
        for index, spans in enumerate(sweeps):
            for span in spans:
                fh.write(json.dumps(dict(span, sweep=index)) + "\n")


def read_spans(path) -> Tuple[dict, List[List[dict]]]:
    sweeps: Dict[int, List[dict]] = defaultdict(list)
    with open(path, "r", encoding="utf-8") as fh:
        meta = json.loads(fh.readline())["meta"]
        for line in fh:
            span = json.loads(line)
            sweeps[span.pop("sweep")].append(span)
    return meta, [sweeps[i] for i in sorted(sweeps)]


def summarize(path) -> List[str]:
    """Each layer's self time per sweep and share of the traced sweep wall,
    with the trace overhead and the coverage of the sweep by its child
    spans."""
    meta, sweeps = read_spans(path)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    wall = covered = 0.0
    for spans in sweeps:
        sweep_wall, sweep_covered = wall_and_covered(spans)
        wall += sweep_wall
        covered += sweep_covered
        for span, self_s in zip(spans, self_times(spans)):
            own[span["name"]] += self_s
            calls[span["name"]] += 1
    n = len(sweeps)
    lines = [
        f"trace summary: {meta['workload']} seed {meta['seed']}, {n} traced sweep(s)",
        f"{'span':<26}{'calls/sweep':>12}{'self s/sweep':>14}{'share':>8}",
    ]
    for name in sorted(own, key=own.get, reverse=True):
        lines.append(
            f"{name:<26}{calls[name] / n:>12.1f}{own[name] / n:>14.4f}"
            f"{own[name] / wall:>8.1%}"
        )
    lines.append(
        f"traced sweep_s {wall / n:.4f} s, untraced sweep_s "
        f"{meta['untraced_sweep_s']:.4f} s, overhead "
        f"{meta['overhead']:.3f}x"
    )
    lines.append(f"coverage by spans under {ROOT_SPAN}: {covered / wall:.1%}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/ledger.py <spans.jsonl>")
    print("\n".join(summarize(sys.argv[1])))
