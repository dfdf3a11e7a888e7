"""Sweep benchmark: one workload per run, measured end to end or traced.

    python3 perfbench/run.py --workload table2-cold --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics (median sweep
time, task latency median and tail, set-up time, peak memory, the share
of cells that passed the output checks, and the mitigation quality);
with ``--trace 1`` it prints the per-layer ledger of a traced run and
writes its spans to ``perfbench/out/``.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output check passed.

The program is imported from ``src/`` of the checkout the benchmark sits
in; BLAS/OpenMP pools are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
#: ``workloads.WORKLOADS``'s keys, spelled out so that argument parsing
#: needs no numpy import before the thread pins.
WORKLOAD_NAMES = ("table2-cold", "grid-cold", "grid-warm")


def pin_environment() -> None:
    """One BLAS/OpenMP thread and telemetry off, before numpy is imported;
    the process (and the interpreters it starts) on one CPU, so that the
    reference kernel times the same core as the sweeps it rescales."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("REPRO_OBS", None)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "commit": git_commit(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # after the thread pins: imports numpy
    from ledger import summarize, write_spans

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    info = provenance(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    if result.spans is not None:
        spans_path = OUT / f"{stem}.spans.jsonl"
        write_spans(spans_path, dict(result.meta, provenance=info), result.spans)
        print("\n".join(summarize(spans_path)))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for note in result.notes:
        print(f"  ({note})")
    print(f"  cells: {result.failed} failed of {result.attempted} attempted")
    print("provenance " + json.dumps(info, sort_keys=True))
    line = result.line()
    (OUT / f"{stem}.json").write_text(
        json.dumps({"provenance": info, "problems": result.problems, **json.loads(line)}, indent=2)
    )
    print(line)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
