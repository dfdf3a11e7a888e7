"""The benchmark's workloads and its measured loop.

Every sweep runs serially in-process (``run_sweep(spec, workers=1)``), one
generating process, so a run measures the program and not a pool.

* ``table2-cold``: the Table II sweep (quito + nairobi + grid-9q, gate
  noise on, 16k shots, 2 trials, all 8 methods, ``full_max_qubits=5``, no
  store).  Trajectory simulation does most of the work; joining, the
  readout channel and the store almost none.
* ``grid-cold``: the Fig. 13 grid (4..16 qubits in steps of 2, no gate
  noise, 16k shots, 1 trial, all 8 methods, ``full_max_qubits=10``), each
  sweep writing into a freshly named, empty ``mem://`` store: Full's
  statevector basis circuits, the readout channel, count sampling, CMC
  joining and inversion up to 16 qubits, and the store's write path.
* ``grid-warm``: the ``grid-cold`` spec against a store populated during
  set-up (``resume=False``): every calibration is restored, so the time
  goes to target execution, joining, sparse inversion and store reads.
  ``mem://`` keeps the figures about the program rather than disk fsync.

Each measured sweep of a cold workload uses its own spec seed, derived
from the run's seed and the sweep's index, so no sweep can be served from
an earlier one.  ``grid-warm`` cycles over the specs its set-up populated.
The tail percentile of the task latencies is fixed by the task count of the
first ``LATENCY_SWEEPS`` sweeps (ten of those tasks lie beyond it), so it
does not depend on how fast the program is; every measured task then
feeds the estimate.  The quality figures take the median over the backend
points of every distinct spec a run measured.

On a shared host the program's speed can swing by 2x within seconds and
drift over minutes (measured on a 2-core x86 VM, with CPU time equal to
wall time), so no run length averages it away.  Every timing of the
untraced run is
therefore rescaled to a fixed host speed: a fixed reference kernel
(:class:`HostSpeed`) is timed before each sweep and after each task.  A
sweep's wall is multiplied by ``REF_NOMINAL_S`` over the kernel's mean
time during the sweep, a task's duration by ``REF_NOMINAL_S`` over the
mean of the two samples either side of it, and a set-up by the same
ratio for the samples taken before and after it.  A change to the
program does not touch the kernel, so it moves the rescaled times in
full; the raw walls and the factors are printed beside them.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.pipeline import BackendSpec, SweepSpec, run_sweep
from repro.pipeline.runner import SweepRecord, SweepResult
from repro.store.artifacts import ArtifactStore
from repro.store.backends import reset_memory_spaces
from repro.utils.rng import stable_seed

from checks import CheckReport, check_records, point_reductions
from ledger import METHODS, PER_LAYER, ROOT_SPAN, Tracer, instrumented, sweep_metrics

HERE = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` is their median.  ``grid-warm`` populates
#: one store per set-up and cycles over them.
SETUP_REPS = 6
#: Sweeps every run measures at least; their task count fixes the tail
#: percentile.
LATENCY_SWEEPS = 4
#: Untraced/traced sweep pairs a traced run makes at least.
TRACE_MIN_PAIRS = 2

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("sweep_s", "s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_cell_ratio", "ratio"),
    ("cmc_reduction", "ratio"),
    ("cmc_err_reduction", "ratio"),
)

#: A round figure for the reference kernel's time on the 2-core x86 host
#: the benchmark was written on (contention there moved it about 5-9 ms).
#: It only scales the reported times, not their spread.
REF_NOMINAL_S = 6e-3

GRID_QUBITS = (4, 6, 8, 10, 12, 14, 16)
#: Shots of the tiny test specs: at 1k shots calibration leaves CMC so few
#: target shots that "CMC beats Bare" fails on shot noise for ~1 seed in 12.
TINY_SHOTS = 4000


def table2_spec(seed: int, tiny: bool) -> SweepSpec:
    backends = (
        BackendSpec(kind="device", name="quito"),
        BackendSpec(kind="device", name="nairobi"),
        BackendSpec(kind="architecture", name="grid", qubits=9),
    )
    return SweepSpec(
        backends=backends[:1] if tiny else backends,
        shots=(TINY_SHOTS if tiny else 16000,),
        trials=1 if tiny else 2,
        seed=seed,
        full_max_qubits=5,
    )


def grid_spec(seed: int, tiny: bool) -> SweepSpec:
    return SweepSpec(
        backends=tuple(
            BackendSpec(
                kind="architecture",
                name="grid",
                qubits=n,
                gate_noise=False,
                # the placement ghz_architecture_sweep uses for Fig. 13
                correlation_placement="coupling",
            )
            for n in (GRID_QUBITS[:2] if tiny else GRID_QUBITS)
        ),
        shots=(TINY_SHOTS if tiny else 16000,),
        trials=1,
        seed=seed,
        full_max_qubits=10,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int, bool], SweepSpec]
    #: ``None`` (no store), ``"cold"`` (a fresh store per sweep) or
    #: ``"warm"`` (stores populated during set-up).
    store: Optional[str]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("table2-cold", table2_spec, None),
        Workload("grid-cold", grid_spec, "cold"),
        Workload("grid-warm", grid_spec, "warm"),
    )
}


class HostSpeed:
    """A fixed reference kernel, timed to follow the host's speed as a run
    goes on.

    Contention slows the program's parts by different amounts, so the
    kernel mixes them, in two halves of about equal time.  One is made of
    the interpreter (a dict loop), small cache-resident numpy calls, and
    elementwise passes over 128 KiB and 1 MiB complex vectors; the other
    is a small statevector simulation written here with plain numpy: gates
    by ``tensordot`` on 12 qubits, a per-qubit readout confusion, shot
    sampling and a counts dict.  On repeated sweeps of one spec, either
    half alone tracked one workload's wall and not the other's; the sum
    roughly halved the sweep-to-sweep spread of both workloads, and cut the
    spread of 4-sweep medians to about a third.
    """

    QUBITS = 12

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.random((64, 64))
        self._vector = rng.random(1 << 12)
        self._states = [
            (np.exp(1j * rng.random(1 << n)), rng.random(1 << n) + 1j * rng.random(1 << n))
            for n in (13, 16)
        ]
        n = self.QUBITS
        state = rng.random(1 << n) + 1j * rng.random(1 << n)
        self._psi = (state / np.linalg.norm(state)).reshape((2,) * n)

        def unitary(dim: int) -> np.ndarray:
            return np.linalg.qr(rng.random((dim, dim)) + 1j * rng.random((dim, dim)))[0]

        self._gates1 = [unitary(2) for _ in range(8)]
        self._gates2 = [unitary(4).reshape(2, 2, 2, 2) for _ in range(8)]
        self._confusion = np.array([[0.97, 0.05], [0.03, 0.95]])
        #: kernel times since the last :meth:`take`
        self.samples: List[float] = []
        #: seconds spent in :meth:`sample` since the last :meth:`take`
        self.spent = 0.0

    def sample(self, count: int = 1) -> None:
        """Time the kernel ``count`` times after one untimed pass, which
        brings its data back into cache after the program evicted it."""
        begin = perf_counter()
        for n in range(count + 1):
            start = perf_counter()
            table: Dict[int, int] = {}
            for i in range(4000):
                table[i % 997] = table.get(i % 997, 0) + i
            for _ in range(30):
                self._matrix @ self._matrix
            for _ in range(15):
                np.sort(self._vector * 1.0001)
            for (phases, state), reps in zip(self._states, (24, 2)):
                for _ in range(reps):
                    np.abs(state * phases) ** 2
            self._simulate()
            if n:
                self.samples.append(perf_counter() - start)
        self.spent += perf_counter() - begin

    def _simulate(self) -> int:
        n = self.QUBITS
        psi = self._psi
        for k in range(24):
            q = k % n
            psi = np.moveaxis(np.tensordot(self._gates1[k % 8], psi, axes=([1], [q])), 0, q)
        for k in range(12):
            q = k % (n - 1)
            psi = np.tensordot(self._gates2[k % 8], psi, axes=([2, 3], [q, q + 1]))
            psi = np.moveaxis(psi, (0, 1), (q, q + 1))
        probs = np.abs(psi) ** 2
        for q in range(n):
            probs = np.moveaxis(np.tensordot(self._confusion, probs, axes=([1], [q])), 0, q)
        probs = probs.ravel() / probs.sum()
        shots = np.random.default_rng(1).multinomial(4000, probs)
        counts = {format(int(i), f"0{n}b"): int(shots[i]) for i in np.flatnonzero(shots)}
        return len(counts)

    def take(self) -> Tuple[float, List[float]]:
        """(seconds spent sampling, the samples), then forget them.

        A sample beyond twice their median (a preemption, not a slower
        host) is returned as twice the median."""
        samples, self.samples = self.samples, []
        spent, self.spent = self.spent, 0.0
        cap = 2 * statistics.median(samples)
        return spent, [min(s, cap) for s in samples]


def speed(samples: List[float]) -> float:
    """The factor that rescales a timing taken while the kernel took
    ``samples`` to the host speed at which it takes ``REF_NOMINAL_S``."""
    return REF_NOMINAL_S / statistics.fmean(samples)


@dataclass
class SweepRun:
    wall: float
    durations: List[float]
    result: SweepResult
    report: CheckReport
    spans: Optional[List[dict]] = None
    #: factors that rescale ``wall`` and each of ``durations`` to the
    #: nominal host speed (none for a traced sweep, whose figures stay raw)
    speed: float = 1.0
    task_speeds: Optional[List[float]] = None


@dataclass
class Case:
    spec: SweepSpec
    store: Optional[ArtifactStore] = None
    #: Records a warm sweep must reproduce bit for bit.
    reference: Optional[List[SweepRecord]] = None


class Bench:
    """One workload at one seed: its set-up, its sweeps and their checks."""

    def __init__(self, workload: Workload, seed: int, tiny: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.prepared: List[Case] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.host = HostSpeed()
        self._spaces = 0

    def spec(self, index: int) -> SweepSpec:
        seed = stable_seed("perfbench", self.workload.name, self.seed, index)
        return self.workload.spec(seed, self.tiny)

    def _fresh_store(self) -> ArtifactStore:
        name = f"perfbench-{self.workload.name}-{self._spaces}"
        self._spaces += 1
        reset_memory_spaces(name)
        store = ArtifactStore(f"mem://{name}")
        if list(store.entries()) or store.journal_keys():
            self.problems.append(f"store {name} is not empty before its sweep")
        return store

    def setup(self, index: int) -> Tuple[float, float]:
        """Import the program in a fresh interpreter and build one spec (and
        populate its store for ``grid-warm``): (raw seconds, speed factor)."""
        self.host.sample(2)
        imports = import_seconds()
        start = perf_counter()
        case = Case(self.spec(index))
        result = None
        if self.workload.store == "warm":
            case.store = self._fresh_store()
            result = run_sweep(case.spec, workers=1, store=case.store)
            case.reference = result.records
        elapsed = imports + perf_counter() - start
        self.host.sample(2)
        if result is not None:
            self._check(case.spec, result, cold_store=True)
        self.prepared.append(case)
        return elapsed, speed(self.host.take()[1])

    def case(self, index: int) -> Case:
        if self.workload.store == "warm":
            return self.prepared[index % len(self.prepared)]
        spec = (
            self.prepared[index].spec
            if index < len(self.prepared)
            else self.spec(index)
        )
        store = self._fresh_store() if self.workload.store == "cold" else None
        return Case(spec, store)

    def sweep(self, index: int, traced: bool = False) -> SweepRun:
        case = self.case(index)
        durations: List[float] = []

        def progress(done, total, outcome) -> None:
            durations.append(outcome.duration)
            if not traced:
                self.host.sample()

        kwargs = dict(workers=1, progress=progress, store=case.store)
        spans = None
        factor, task_factors = 1.0, None
        if traced:
            tracer = Tracer(obs.sweep_trace_id(case.spec))
            with instrumented(tracer):
                with tracer.span(ROOT_SPAN) as root:
                    result = run_sweep(case.spec, **kwargs)
            wall = root["end"] - root["start"]
            spans = tracer.spans
        else:
            self.host.sample()
            before = self.host.spent
            start = perf_counter()
            result = run_sweep(case.spec, **kwargs)
            wall = perf_counter() - start
            sampling, samples = self.host.take()
            # the samples taken after each task fall inside the wall
            wall -= sampling - before
            factor = speed(samples)
            task_factors = [speed(samples[i : i + 2]) for i in range(len(durations))]
        report = self._check(
            case.spec,
            result,
            cold_store=self.workload.store == "cold",
            reference=case.reference,
        )
        if self.workload.store == "cold":
            reset_memory_spaces(case.store.backend.name)
        return SweepRun(wall, durations, result, report, spans, factor, task_factors)

    def _check(
        self,
        spec: SweepSpec,
        result: SweepResult,
        cold_store: bool = False,
        reference: Optional[List[SweepRecord]] = None,
    ) -> CheckReport:
        report = check_records(spec, result.records)
        self.attempted += report.attempted
        self.failed += report.failed
        self.problems.extend(report.problems)
        if cold_store and result.cache_hits:
            self.problems.append(
                f"cold sweep hit the calibration cache {result.cache_hits} times"
            )
        if reference is not None:
            if result.cache_misses:
                self.problems.append(
                    f"warm sweep missed the calibration cache "
                    f"{result.cache_misses} times"
                )
            if result.records != reference:
                self.problems.append(
                    "warm sweep records differ from the set-up pass records"
                )
        return report


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(n: int) -> float:
    """The highest percentile of ``n`` samples with ten samples beyond it
    (100 when there are ten or fewer)."""
    return 100.0 * (n - 10) / n if n > 10 else 100.0


def percentile(samples: List[float], p: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(samples)
    k = (len(ordered) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def import_seconds() -> float:
    """Time to import the benchmark and the program in a fresh interpreter."""
    src = str(HERE.parent / "src")
    code = (
        f"import sys, time; sys.path[:0] = [{src!r}, {str(HERE)!r}]; "
        "t = time.perf_counter(); import workloads; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.split()[-1])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str]
    problems: List[str]
    spans: Optional[List[List[dict]]] = None
    meta: Optional[dict] = None

    def line(self) -> str:
        """The final stdout line the benchmark contract asks for."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> RunResult:
    """Set up, measure for ``seconds`` and check one workload.

    ``tiny`` shrinks the specs (1-2 points, 1 trial, 4k shots), the set-up
    repetitions and the sweep minimum, for the benchmark's own tests.
    """
    bench = Bench(WORKLOADS[name], seed, tiny)
    reps = 1 if tiny else SETUP_REPS
    setups = [bench.setup(i) for i in range(reps)]
    if trace:
        return _traced(bench, seconds, 1 if tiny else TRACE_MIN_PAIRS)
    return _untraced(bench, seconds, 2 if tiny else LATENCY_SWEEPS, setups)


def _untraced(
    bench: Bench, seconds: float, min_sweeps: int, setups: List[Tuple[float, float]]
) -> RunResult:
    walls: List[float] = []
    raw_walls: List[float] = []
    speeds: List[float] = []
    durations: List[float] = []
    first_tasks = 0
    #: records per distinct spec seed (grid-warm repeats its specs)
    records: Dict[int, List[SweepRecord]] = {}
    start = perf_counter()
    index = 0
    while index < min_sweeps or perf_counter() - start < seconds:
        sweep = bench.sweep(index)
        walls.append(sweep.wall * sweep.speed)
        raw_walls.append(sweep.wall)
        speeds.append(sweep.speed)
        durations += [d * f for d, f in zip(sweep.durations, sweep.task_speeds)]
        if index < min_sweeps:
            first_tasks = len(durations)
        records[sweep.result.spec.seed] = sweep.result.records
        index += 1
    reductions = {
        method: [v for r in records.values() for v in point_reductions(r, method)]
        for method in ("CMC", "CMC-ERR")
    }
    tail_pct = tail_percentile(first_tasks)
    values = {
        "sweep_s": statistics.median(walls),
        "task_p50_s": statistics.median(durations),
        "task_tail_s": percentile(durations, tail_pct),
        "setup_s": statistics.median(t * factor for t, factor in setups),
        "peak_rss_mb": peak_rss_mb(),
        "passed_cell_ratio": 1.0 - bench.failed / bench.attempted,
        # no points at all only when every cell failed, which the checks report
        "cmc_reduction": statistics.median(reductions["CMC"] or [0.0]),
        "cmc_err_reduction": statistics.median(reductions["CMC-ERR"] or [0.0]),
    }
    notes = [
        f"{len(walls)} sweeps measured; sweep_s is their median",
        f"times rescaled to a host where the reference kernel takes "
        f"{REF_NOMINAL_S * 1e3:g} ms",
        f"task_tail_s is the p{tail_pct:.1f} of all {len(durations)} task "
        f"latencies (10 of the first {min_sweeps} sweeps' {first_tasks} "
        "tasks lie beyond that percentile)",
        f"setup_s is the median of {len(setups)} set-ups; raw: "
        + " ".join(f"{t:.3f}" for t, _ in setups),
        f"quality over {len(reductions['CMC'])} backend points of "
        f"{len(records)} distinct specs",
        "raw sweep walls: " + " ".join(f"{w:.3f}" for w in raw_walls),
        "speed factors: " + " ".join(f"{f:.3f}" for f in speeds),
    ]
    return _result(bench, {m: (values[m], u) for m, u in END_TO_END}, notes)


def _traced(bench: Bench, seconds: float, min_pairs: int) -> RunResult:
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    per_sweep: List[Dict[str, float]] = []
    spans: List[List[dict]] = []
    start = perf_counter()
    index = 0
    while index < min_pairs or perf_counter() - start < seconds:
        plain = bench.sweep(index)
        traced = bench.sweep(index, traced=True)
        if traced.result.records != plain.result.records:
            bench.problems.append("tracing changed the sweep's records")
        plain_walls.append(plain.wall)
        traced_walls.append(traced.wall)
        spans.append(traced.spans)
        per_sweep.append(
            sweep_metrics(
                traced.spans,
                cells=len(traced.result.records),
                na_cells=sum(r.not_applicable for r in traced.result.records),
                failed_cells=traced.report.failed,
                cache_hits=traced.result.cache_hits,
                cache_misses=traced.result.cache_misses,
            )
        )
        index += 1
    untraced_s = statistics.median(plain_walls)
    overhead = statistics.median(traced_walls) / untraced_s
    metrics = {}
    for metric, unit in PER_LAYER:
        if metric == "trace.overhead":
            value = overhead
        else:
            value = statistics.median(s[metric] for s in per_sweep)
        metrics[metric] = (value, unit)
    notes = [f"{index} untraced/traced sweep pairs; per-layer figures are medians"]
    notes += stress_claims(bench.workload.name, {m: v for m, (v, _) in metrics.items()})
    meta = {
        "workload": bench.workload.name,
        "seed": bench.seed,
        "untraced_sweep_s": untraced_s,
        "overhead": overhead,
    }
    result = _result(bench, metrics, notes)
    result.spans = spans
    result.meta = meta
    return result


def stress_claims(name: str, value: Dict[str, float]) -> List[str]:
    """Whether the traced run shows the workload stressing what it claims.

    Reported, not enforced: an optimisation may legitimately shrink the
    layer a workload was chosen for."""
    share = value["simulator.trajectories_s"] / value["trace.sweep_s"]
    claims = [
        (f"spans under {ROOT_SPAN} cover >= 90% of the sweep", value["trace.coverage"] >= 0.9)
    ]
    if name == "table2-cold":
        claims.append((f"trajectories take >= 80% of the sweep ({share:.0%})", share >= 0.8))
    else:
        claims.append(("no trajectory simulation", value["simulator.trajectories_s"] == 0))
    if name == "grid-warm":
        prepare = max(value[f"mitigation.prepare_s.{m}"] for m in METHODS)
        claims.append(("every calibration restored", value["cache.hit_ratio"] == 1))
        claims.append((f"prepare is ~0 (max {prepare:.1e} s)", prepare < 1e-3))
    return [f"claim {'met' if ok else 'NOT met'}: {text}" for text, ok in claims]


def _result(bench: Bench, metrics: Dict[str, Tuple[float, str]], notes: List[str]) -> RunResult:
    return RunResult(
        correct=not bench.problems and bench.failed == 0,
        attempted=bench.attempted,
        failed=bench.failed,
        metrics=metrics,
        notes=notes,
        problems=bench.problems,
    )
