"""Command-line interface: run the paper's experiments from a terminal.

::

    python -m repro list
    python -m repro ghz --architecture grid --qubits 4 8 12 --shots 16000
    python -m repro devices --devices quito nairobi --shots 32000
    python -m repro correlations --device nairobi --weeks 3
    python -m repro xchain --max-depth 45
    python -m repro channels --kind correlated
    python -m repro costs --qubits 16
    python -m repro stability --device nairobi --weeks 4
    python -m repro shots --qubits 6 --budgets 1000 4000 16000
    python -m repro sweep --devices quito lima nairobi --trials 3 --workers 4
    python -m repro sweep --spec grid.json --workers 4 --json out.json
    python -m repro sweep --spec grid.json --store ./artifacts --resume
    python -m repro sweep --spec grid.json --store mem://scratch
    python -m repro store ls ./artifacts
    python -m repro store ls s3://sweeps/warm-tier
    python -m repro calib plan --device quito --method CMC --store ./artifacts
    python -m repro calib run --device quito --method CMC --store ./artifacts
    python -m repro calib run --device quito --drift-qubits 0 --store ./artifacts
    python -m repro calib status --store ./artifacts
    python -m repro serve --store ./artifacts --port 7341
    python -m repro submit --devices quito --trials 3 --follow
    python -m repro --version

Every command prints the same rows/series the corresponding paper artifact
reports (see EXPERIMENTS.md for the mapping) and is deterministic under
``--seed``.  ``sweep`` runs an arbitrary grid — from a JSON
:class:`~repro.pipeline.spec.SweepSpec` or inline flags — on the parallel
engine, with per-task progress on stderr and optional JSON results.
``--store LOCATOR`` makes a sweep durable (journal + persistent
calibrations; ``--resume`` restarts a crashed run bit-identically; the
planner orders tasks warm-first and reports the journaled/warm/cold
split).  A store is named by a URL-style locator — a plain directory
path (or ``dir:///path``), ``mem://name`` for an in-process store, or
``s3://bucket/prefix`` for an object store with an injected client —
and ``store ls|inspect|gc`` work identically on all of them.  ``serve`` hosts a store as
a long-running sweep service (see :mod:`repro.service`); ``submit`` sends
a grid to it — with ``--follow``, journal rows stream back live while the
sweep runs, and the final table is bit-identical to a local run.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro._version import __version__
from repro.experiments import (
    device_correlation_map,
    device_ghz_table,
    err_stability_experiment,
    format_series,
    format_table,
    ghz_architecture_sweep,
    shots_scaling_experiment,
    simulated_channel_benchmark,
    x_chain_experiment,
)
from repro.experiments.runner import METHOD_ORDER
from repro.pipeline import BackendSpec, CircuitSpec, SweepSpec, run_sweep

__all__ = ["main", "build_parser"]

#: Default `repro serve` / `repro submit` port.  Mirrors
#: :data:`repro.service.server.DEFAULT_PORT` (which is authoritative);
#: duplicated here so the CLI parser builds without importing asyncio
#: machinery — the service package loads lazily in the handlers.
DEFAULT_SERVICE_PORT = 7341

_COMMANDS = {
    "list": "show available commands and the paper artifact each reproduces",
    "ghz": "GHZ error-rate sweep over device sizes (Figs. 13-15, octagonal)",
    "devices": "IBM-device GHZ benchmark table (Table II)",
    "correlations": "pairwise correlation map of a device profile (Fig. 1)",
    "xchain": "sequential-X state-dependence experiment (Fig. 3)",
    "channels": "mitigation under focused error channels (Fig. 12)",
    "costs": "characterisation cost table (Table I)",
    "stability": "ERR error-map stability across drifted weeks (§VII-A)",
    "shots": "error vs shot budget per method (§V-A)",
    "sweep": "run any declarative sweep grid on the parallel engine",
    "store": "inspect / garbage-collect a sweep artifact store",
    "calib": "plan / run / inspect incremental calibration DAGs (§VII-A)",
    "serve": "host a store as a long-running, streaming sweep service",
    "submit": "send a sweep grid to a running `repro serve` instance",
    "worker": "join a `repro serve` instance as a fleet task worker",
    "metrics": "scrape a running `repro serve` instance's telemetry",
    "trace": "show a sweep's span chain (live server or journal stitch)",
}


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    """The sweep-grid flags, shared verbatim by `sweep` and `submit`."""
    p.add_argument(
        "--spec", default=None, metavar="PATH",
        help="JSON SweepSpec file; overrides the inline grid flags below",
    )
    grid = p.add_mutually_exclusive_group()
    grid.add_argument(
        "--devices", nargs="+", default=None,
        help="IBM-like device profiles to sweep (inline grid)",
    )
    grid.add_argument(
        "--architecture", default=None,
        choices=["grid", "hexagonal", "octagonal", "fully_connected"],
        help="architecture family to sweep over --qubits (inline grid)",
    )
    p.add_argument(
        "--qubits", type=int, nargs="+", default=None,
        help="architecture sizes (with --architecture; default: 6)",
    )
    p.add_argument("--shots", type=int, nargs="+", default=[16000])
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--methods", nargs="+", default=None, choices=METHOD_ORDER)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full-max-qubits", type=int, default=10)
    p.add_argument(
        "--gate-noise", action=argparse.BooleanOptionalAction, default=True,
        help="include depolarising gate errors (on by default, matching "
        "the devices command; --no-gate-noise for measurement-only runs)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable calibration reuse (identical results, more device time)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Mitigating Coupling Map "
        "Constrained Correlated Measurement Errors on Quantum Devices'.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help=_COMMANDS["list"])

    p = sub.add_parser("ghz", help=_COMMANDS["ghz"])
    p.add_argument(
        "--architecture",
        default="grid",
        choices=["grid", "hexagonal", "octagonal", "fully_connected"],
    )
    p.add_argument("--qubits", type=int, nargs="+", default=[4, 6, 8, 10])
    p.add_argument("--shots", type=int, default=16000)
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--methods", nargs="+", default=None, choices=METHOD_ORDER)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gate-noise", action="store_true")

    p = sub.add_parser("devices", help=_COMMANDS["devices"])
    p.add_argument(
        "--devices", nargs="+", default=["manila", "lima", "quito", "nairobi"]
    )
    p.add_argument("--shots", type=int, default=32000)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--store", default=None, metavar="DIR",
        help="persist calibrations/journal under DIR and resume "
        "interrupted table runs",
    )
    p.add_argument(
        "--fresh", action="store_true",
        help="with --store: ignore any existing journal and start over "
        "(needed e.g. after a repro upgrade invalidates the journal)",
    )

    p = sub.add_parser("correlations", help=_COMMANDS["correlations"])
    p.add_argument("--device", default="nairobi")
    p.add_argument("--weeks", type=int, default=3)
    p.add_argument("--shots-per-circuit", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("xchain", help=_COMMANDS["xchain"])
    p.add_argument("--max-depth", type=int, default=45)
    p.add_argument("--shots", type=int, default=4000)

    p = sub.add_parser("channels", help=_COMMANDS["channels"])
    p.add_argument(
        "--kind", default="correlated", choices=["correlated", "state_dependent"]
    )
    p.add_argument("--qubits", type=int, default=4)
    p.add_argument("--shots-per-state", type=int, default=8500)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("costs", help=_COMMANDS["costs"])
    p.add_argument("--qubits", type=int, default=16)
    p.add_argument("--edges", type=int, default=None)

    p = sub.add_parser("stability", help=_COMMANDS["stability"])
    p.add_argument("--device", default="nairobi")
    p.add_argument("--weeks", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--store", default=None, metavar="DIR",
        help="persist per-week calibration snapshots under DIR so repeated "
        "drift studies skip profiling",
    )

    p = sub.add_parser("shots", help=_COMMANDS["shots"])
    p.add_argument("--qubits", type=int, default=6)
    p.add_argument(
        "--budgets", type=int, nargs="+", default=[1000, 4000, 16000, 64000]
    )
    p.add_argument("--methods", nargs="+", default=None, choices=METHOD_ORDER)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", help=_COMMANDS["sweep"])
    _add_grid_args(p)
    p.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width (default: serial; results are identical)",
    )
    p.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="also write the full per-record results as JSON",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-task progress"
    )
    p.add_argument(
        "--store", dest="store", default=None, metavar="STORE",
        help="persist calibrations + a crash-safe task journal in STORE — "
        "a directory, dir:///path, mem://name or s3://bucket/prefix "
        "(warm reruns skip every calibration execution; tasks with "
        "persisted calibrations run first)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="with --store: skip tasks already journaled for this spec "
        "(bit-identical to an uninterrupted run)",
    )

    p = sub.add_parser("store", help=_COMMANDS["store"])
    p.add_argument(
        "action", choices=["ls", "inspect", "gc", "repack"],
        help="ls: list artifacts; inspect: show one artifact's key/metadata; "
        "gc: drop crashed-writer debris (and, with --older-than-days, "
        "stale artifacts); repack: re-encode artifacts in place (sparse/"
        "compressed by default, --dense for the pre-1.8 form)",
    )
    p.add_argument(
        "root", metavar="STORE",
        help="store locator: a directory path, dir:///path, mem://name "
        "or s3://bucket/prefix (any backend, same commands)",
    )
    p.add_argument(
        "digest", nargs="?", default=None,
        help="artifact digest (or unique prefix) for `inspect`",
    )
    p.add_argument(
        "--older-than-days", type=float, default=None, metavar="DAYS",
        help="gc: also delete artifacts older than DAYS",
    )
    p.add_argument(
        "--dry-run", action="store_true",
        help="gc/repack: report what would change (bytes reclaimed or "
        "re-encoded) without touching the store",
    )
    p.add_argument(
        "--dense", action="store_true",
        help="repack: migrate back to the pre-1.8 dense encoding "
        "instead of the compact one",
    )

    p = sub.add_parser("calib", help=_COMMANDS["calib"])
    p.add_argument(
        "action", choices=["plan", "run", "status"],
        help="plan: dirty-frontier report against the store; run: execute "
        "the dirty frontier (clean nodes restore); status: summarise the "
        "store's calibration-node artifacts",
    )
    p.add_argument(
        "--store", required=True, metavar="STORE",
        help="store locator holding the node-granular calibration tier "
        "(a directory path, dir:///path, mem://name or s3://bucket/prefix)",
    )
    target = p.add_mutually_exclusive_group()
    target.add_argument(
        "--device", default=None,
        help="IBM-like device profile to calibrate (quito, lima, ...)",
    )
    target.add_argument(
        "--architecture", default=None,
        choices=["grid", "hexagonal", "heavy_hex", "octagonal",
                 "fully_connected"],
        help="architecture family (with --qubits) to calibrate instead",
    )
    p.add_argument(
        "--qubits", type=int, default=None,
        help="device size (with --architecture; default: 6)",
    )
    p.add_argument(
        "--method", default="CMC",
        choices=["Full", "Linear", "CMC", "CMC-ERR"],
        help="mitigation method whose calibration graph to build",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="calibration seed (part of every node's store key)")
    p.add_argument("--shots-per-node", type=int, default=256,
                   help="shots per calibration circuit within each node")
    p.add_argument(
        "--drift-qubits", type=int, nargs="+", default=None, metavar="Q",
        help="apply localised drift to these qubits' readout errors "
        "before planning/running (the incremental-recalibration scenario)",
    )
    p.add_argument(
        "--drift-edges", nargs="+", default=None, metavar="A-B",
        help="apply localised drift to these edges' correlated channels "
        "(e.g. 0-1 3-4)",
    )
    p.add_argument("--drift-scale", type=float, default=0.15,
                   help="log-scale of the localised jitter (default 0.15)")
    p.add_argument(
        "--graph-json", default=None, metavar="PATH",
        help="plan an explicit {\"nodes\": [{name, deps}]} graph spec "
        "instead of a method graph (structure-only: plan/--dot, not run)",
    )
    p.add_argument(
        "--only", nargs="+", default=None, metavar="NODE",
        help="restrict the plan report to these nodes (unknown names are "
        "an error)",
    )
    p.add_argument(
        "--dot", default=None, metavar="PATH",
        help="write the graph as graphviz DOT to PATH ('-' for stdout)",
    )
    p.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="also write the full plan/run report as JSON to PATH",
    )

    p = sub.add_parser("serve", help=_COMMANDS["serve"])
    p.add_argument(
        "--store", required=True, metavar="STORE",
        help="artifact store the service journals into (a directory or "
        "any store locator; mem://name serves an ephemeral store)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help=f"TCP port (default {DEFAULT_SERVICE_PORT}; 0 = ephemeral)")
    p.add_argument(
        "--workers", type=int, default=1,
        help="concurrent task executions across all live sweeps",
    )
    p.add_argument(
        "--processes", action="store_true",
        help="execute tasks on a process pool (full CPU parallelism) "
        "instead of in-process threads",
    )
    p.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="fleet lease lifetime: how long a silent worker may hold a "
        "task before it is re-issued (default 30)",
    )
    p.add_argument(
        "--server-id", default="default", metavar="ID",
        help="stable identity for crash recovery: interrupted sweeps are "
        "recorded in the store under this id and re-adopted by "
        "`repro serve --recover` with the same id (default 'default')",
    )
    p.add_argument(
        "--recover", action="store_true",
        help="on startup, re-adopt this server id's interrupted sweeps "
        "from the store and resume them bit-identically",
    )
    p.add_argument(
        "--max-pending-tasks", type=int, default=None, metavar="N",
        help="admission cap: refuse new sweeps (with a retry_after hint) "
        "while more than N tasks are already backlogged",
    )
    p.add_argument(
        "--rate-limit", type=float, default=None, metavar="REQ_PER_SEC",
        help="per-connection request rate limit (heartbeats exempt); "
        "default: unlimited",
    )
    p.add_argument(
        "--tenant-quota", action="append", default=None,
        metavar="TENANT=sweeps:N,tasks:N,shots:N",
        help="per-tenant admission quota (repeatable; any subset of the "
        "three keys), e.g. --tenant-quota alice=sweeps:2,shots:100000",
    )
    p.add_argument(
        "--default-tenant-quota", default=None,
        metavar="sweeps:N,tasks:N,shots:N",
        help="quota applied to tenants without an explicit --tenant-quota "
        "(default: unlimited)",
    )
    p.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="on SIGTERM: let in-flight tasks journal for up to this long "
        "before cancelling the remainder resumably (default 10)",
    )
    p.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="enable telemetry and expose a Prometheus/JSON scrape plane "
        "on this HTTP port (GET /metrics, /metrics/json; 0 = ephemeral)",
    )
    p.add_argument(
        "--obs-sink", action="store_true",
        help="enable telemetry and append every trace span to "
        "obs/events.jsonl in the served store (a durable event log)",
    )

    p = sub.add_parser("submit", help=_COMMANDS["submit"])
    _add_grid_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help=f"server TCP port (default {DEFAULT_SERVICE_PORT})")
    p.add_argument(
        "--follow", action="store_true",
        help="stream journal rows as tasks land, then print the summary "
        "table (without it: print the sweep id and return immediately)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="replay tasks already journaled on the server for this spec",
    )
    p.add_argument(
        "--tenant", default=None, metavar="ID",
        help="submit under this tenant: the sweep's journal and artifacts "
        "live under tenants/ID/ in the server's store and count against "
        "ID's quota (over-quota submissions are refused cleanly)",
    )
    p.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="wire deadline per request/stream read; a stalled server "
        "exits with status 2 instead of hanging (default 60; 0 = none)",
    )
    p.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="with --follow: also write the full results as JSON",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-task progress"
    )

    p = sub.add_parser("worker", help=_COMMANDS["worker"])
    p.add_argument(
        "--connect", default=f"127.0.0.1:{DEFAULT_SERVICE_PORT}",
        metavar="HOST:PORT",
        help="the `repro serve` instance to attach to "
        f"(default 127.0.0.1:{DEFAULT_SERVICE_PORT})",
    )
    p.add_argument(
        "--store", default=None, metavar="STORE",
        help="optional local calibration store (directory or locator); "
        "without it the worker uses the store root the server advertises "
        "per task, or runs storeless — results are bit-identical either "
        "way, a store only saves re-calibration work",
    )
    p.add_argument(
        "--name", default="", help="label folded into the worker id (logs)"
    )
    p.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="idle sleep between lease requests when no work is pending",
    )
    p.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="detach after completing N tasks (default: run until Ctrl-C)",
    )
    p.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="wire deadline per exchange with the server; a stalled "
        "server triggers a clean re-attach (default 60; 0 = none)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-task progress"
    )

    p = sub.add_parser("metrics", help=_COMMANDS["metrics"])
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help=f"server TCP port (default {DEFAULT_SERVICE_PORT})")
    p.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="exposition format (default prometheus text 0.0.4)",
    )
    p.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="wire deadline for the exchange (default 10; 0 = none)",
    )

    p = sub.add_parser("trace", help=_COMMANDS["trace"])
    p.add_argument("sweep_id", metavar="SWEEP_ID",
                   help="the sweep to trace ({digest16}-{n}, as printed by "
                   "submit), or a bare 16-hex trace digest")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help=f"server TCP port (default {DEFAULT_SERVICE_PORT})")
    p.add_argument(
        "--store", default=None, metavar="STORE",
        help="stitch the trace offline from this store's journal instead "
        "of asking a live server (works after the server is gone)",
    )
    p.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="wire deadline for the exchange (default 10; 0 = none)",
    )
    p.add_argument(
        "--json", dest="json_out", action="store_true",
        help="print the span list as JSON instead of a table",
    )

    return parser


def _cmd_list() -> str:
    rows = {name: {"reproduces": desc} for name, desc in _COMMANDS.items()}
    return format_table(rows, ["reproduces"], row_header="command")


def _cmd_ghz(args: argparse.Namespace) -> str:
    sweep = ghz_architecture_sweep(
        args.architecture,
        args.qubits,
        shots=args.shots,
        trials=args.trials,
        methods=args.methods,
        seed=args.seed,
        gate_noise=args.gate_noise,
    )
    return format_series(
        "n", sweep.qubit_counts, {m: sweep.medians(m) for m in sweep.methods()}
    )


def _cmd_devices(args: argparse.Namespace) -> str:
    try:
        table = device_ghz_table(
            args.devices, shots=args.shots, trials=args.trials, seed=args.seed,
            full_max_qubits=5, store=args.store,
            resume=args.store is not None and not args.fresh,
        )
    except ValueError as exc:
        # journal refusals tell the user what to do (--fresh); no traceback
        print(f"repro devices: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    rows = {}
    for method in [m for m in METHOD_ORDER if m in table.methods()]:
        rows[method] = {d: table.summary(d, method) for d in table.devices}
    return format_table(rows, table.devices, row_header="method", precision=2)


def _cmd_correlations(args: argparse.Namespace) -> str:
    res = device_correlation_map(
        args.device,
        weeks=args.weeks,
        shots_per_circuit=args.shots_per_circuit,
        seed=args.seed,
    )
    rows = {
        str(edge): {
            "weight": w,
            "location": "on coupling map" if edge in res.coupling_map else "OFF map",
        }
        for edge, w in res.heaviest(8)
    }
    header = (
        f"device {res.device}: alignment {res.alignment():.2f} "
        f"(1.0 = all correlation on the coupling map)\n"
    )
    return header + format_table(rows, ["weight", "location"], row_header="pair")


def _cmd_xchain(args: argparse.Namespace) -> str:
    res = x_chain_experiment(max_depth=args.max_depth, shots=args.shots)
    even = dict(res.even_series())
    odd = dict(res.odd_series())
    body = format_series(
        "depth",
        res.depths,
        {
            "expected |0> error": [even.get(d) for d in res.depths],
            "expected |1> error": [odd.get(d) for d in res.depths],
        },
    )
    return body + f"\n\nparity gap (state dependence): {res.parity_gap():+.3f}"


def _cmd_channels(args: argparse.Namespace) -> str:
    res = simulated_channel_benchmark(
        args.kind,
        num_qubits=args.qubits,
        shots_per_state=args.shots_per_state,
        seed=args.seed,
    )
    rows = {
        m: {"mean success": res.mean(m), "spread (5-95%)": res.summary(m)}
        for m in res.methods()
    }
    return format_table(rows, ["mean success", "spread (5-95%)"], row_header="method")


def _cmd_costs(args: argparse.Namespace) -> str:
    from repro.core.costs import METHOD_COSTS, characterization_cost

    rows = {}
    for key, cost in METHOD_COSTS.items():
        rows[cost.method] = {
            "formula": cost.formula,
            f"circuits @ n={args.qubits}": characterization_cost(
                key, n=args.qubits, e=args.edges, k=3.0
            ),
            "output": cost.output,
        }
    return format_table(
        rows,
        ["formula", f"circuits @ n={args.qubits}", "output"],
        row_header="method",
        precision=0,
    )


def _cmd_stability(args: argparse.Namespace) -> str:
    try:
        res = err_stability_experiment(
            args.device, weeks=args.weeks, seed=args.seed, store=args.store
        )
    except ValueError as exc:
        # bad store locators (unknown scheme, client-less s3://) get the
        # same clean exit-2 as every other store-aware command
        print(f"repro stability: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    rows = {
        f"week {w}": {
            "error map": str(res.weekly_maps[w].edges),
            "recall": res.weekly_recall()[w],
        }
        for w in range(res.weeks)
    }
    body = format_table(rows, ["error map", "recall"], row_header="week")
    return body + (
        f"\n\nmean pairwise Jaccard overlap: {res.mean_jaccard():.2f}"
        f"\nstable core: {res.stable_core()}"
    )


def _cmd_shots(args: argparse.Namespace) -> str:
    res = shots_scaling_experiment(
        args.qubits, args.budgets, methods=args.methods, seed=args.seed
    )
    return format_series(
        "budget", res.budgets, {m: res.medians(m) for m in res.methods()}
    )


#: The inline-grid flags a --spec file would silently override if both were
#: given; defaults are read back from the parser so they cannot drift.
_SWEEP_GRID_FLAGS = {
    "devices": "--devices",
    "architecture": "--architecture",
    "qubits": "--qubits",
    "shots": "--shots",
    "trials": "--trials",
    "methods": "--methods",
    "seed": "--seed",
    "full_max_qubits": "--full-max-qubits",
    "gate_noise": "--gate-noise/--no-gate-noise",
}


def _sweep_spec_from_args(
    args: argparse.Namespace, command: str = "sweep"
) -> SweepSpec:
    """Build a SweepSpec from ``--spec`` or the inline grid flags."""
    if args.spec is not None:
        baseline = build_parser().parse_args([command])
        conflicting = [
            flag
            for attr, flag in _SWEEP_GRID_FLAGS.items()
            if getattr(args, attr) != getattr(baseline, attr)
        ]
        if conflicting:
            raise ValueError(
                f"--spec defines the whole grid; it cannot be combined with "
                f"{conflicting} (only the non-grid flags compose with a "
                f"spec file)"
            )
        try:
            spec = SweepSpec.from_json_file(args.spec)
        except FileNotFoundError:
            raise ValueError(f"--spec {args.spec}: no such file") from None
        except ValueError as exc:
            # json.JSONDecodeError subclasses ValueError: malformed JSON
            # (and spec-validation refusals) get the flag-error treatment,
            # not a traceback
            raise ValueError(f"--spec {args.spec} is not valid: {exc}") from None
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"--spec {args.spec} is not a valid SweepSpec: {exc}"
            ) from None
    else:
        if args.devices is not None:
            if args.qubits is not None:
                raise ValueError(
                    "--qubits only applies with --architecture; device "
                    "profiles fix their own size"
                )
            backends = tuple(
                BackendSpec(kind="device", name=d, gate_noise=args.gate_noise)
                for d in args.devices
            )
        else:
            architecture = args.architecture or "grid"
            backends = tuple(
                BackendSpec(
                    kind="architecture",
                    name=architecture,
                    qubits=n,
                    gate_noise=args.gate_noise,
                )
                for n in (args.qubits or [6])
            )
        spec = SweepSpec(
            backends=backends,
            circuits=(CircuitSpec(),),
            shots=tuple(args.shots),
            methods=None if args.methods is None else tuple(args.methods),
            trials=args.trials,
            seed=args.seed,
            full_max_qubits=args.full_max_qubits,
        )
    if args.no_cache:
        spec = spec.with_options(reuse_calibration=False)
    return spec


def _progress_printer(spec: SweepSpec):
    """Per-task stderr line shared by `sweep` and `submit --follow`."""

    def progress(done: int, total: int, outcome) -> None:
        label = spec.backends[outcome.backend_index].label
        trials = ",".join(str(t) for t in outcome.trials)
        print(
            f"[{done}/{total}] {label} trial {trials} "
            f"done in {outcome.duration:.1f}s"
            + (
                f" ({outcome.cache_hits} calibration cache hits)"
                if outcome.cache_hits
                else ""
            ),
            file=sys.stderr,
            flush=True,
        )

    return progress


def _result_table(result) -> str:
    """The summary table + footer shared by `sweep` and `submit`."""
    rows = result.summary_rows()
    body = format_table(
        rows, result.column_labels(), row_header="method", precision=2
    )
    footer = (
        f"\n\n{result.spec.num_tasks} tasks ({result.workers} worker(s)) "
        f"in {result.wall_time:.1f}s; calibration cache: "
        f"{result.cache_hits} hits / {result.cache_misses} misses, "
        f"{result.saved_circuits} circuit executions "
        f"({result.saved_shots} shots) saved"
    )
    return body + footer


def _cmd_sweep(args: argparse.Namespace) -> str:
    try:
        if args.resume and args.store is None:
            raise ValueError("--resume needs --store DIR to resume from")
        spec = _sweep_spec_from_args(args)
    except ValueError as exc:
        # flag mistakes get an argparse-style error, not a traceback
        print(f"repro sweep: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    progress = None
    on_plan = None
    if not args.quiet:
        progress = _progress_printer(spec)
        if args.store is not None:
            # the planner's pre-scan, not a bare task count: how much of
            # this grid replays from the journal, restores warm
            # calibrations, or actually runs cold
            label = "resume" if args.resume else "plan"

            def on_plan(plan) -> None:
                print(f"{label}: {plan.summary()}", file=sys.stderr, flush=True)

    try:
        result = run_sweep(
            spec,
            workers=args.workers,
            progress=progress,
            store=args.store,
            resume=args.resume,
            on_plan=on_plan,
        )
    except ValueError as exc:
        # store/journal refusals (version or spec mismatch, journal held by
        # another process, corruption) carry actionable advice — deliver it
        # as a CLI error, not a traceback
        print(f"repro sweep: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json())
    out = _result_table(result)
    if args.json_out:
        out += f"\nresults written to {args.json_out}"
    return out


def _cmd_serve(args: argparse.Namespace) -> str:
    import asyncio
    import signal

    from repro.service.server import DEFAULT_PORT, SweepServer
    from repro.service.tenancy import TenantQuota

    try:
        tenant_quotas = {}
        for item in args.tenant_quota or []:
            name, sep, quota_text = item.partition("=")
            if not sep or not name:
                raise ValueError(
                    f"--tenant-quota needs TENANT=sweeps:N,..., got {item!r}"
                )
            tenant_quotas[name] = TenantQuota.parse(quota_text)
        default_quota = (
            TenantQuota.parse(args.default_tenant_quota)
            if args.default_tenant_quota is not None
            else None
        )
        server = SweepServer(
            args.store,
            host=args.host,
            port=DEFAULT_PORT if args.port is None else args.port,
            workers=args.workers,
            use_processes=args.processes,
            lease_ttl=args.lease_ttl,
            rate_limit=args.rate_limit,
            server_id=args.server_id,
            max_pending_tasks=args.max_pending_tasks,
            tenant_quotas=tenant_quotas or None,
            default_quota=default_quota,
            metrics_port=args.metrics_port,
            obs_sink=args.obs_sink,
        )
    except ValueError as exc:
        # bad locators, quotas, or --processes over a process-local store
        # (mem://, injected-client s3://) — actionable, not a traceback
        print(f"repro serve: error: {exc}", file=sys.stderr)
        raise SystemExit(2)

    async def _serve() -> None:
        await server.start(recover=args.recover)
        recovered = server.coordinator.recovered_count
        print(
            f"repro serve: store {args.store} listening on "
            f"{server.host}:{server.port} "
            f"({server.coordinator.workers} worker(s), "
            f"{'processes' if args.processes else 'threads'}, "
            f"server-id {args.server_id}"
            + (f", {recovered} sweep(s) recovered" if recovered else "")
            + (
                f", metrics on http://{server.host}:{server.metrics_port}"
                "/metrics"
                if server.metrics_port is not None
                else ""
            )
            + "); Ctrl-C stops, SIGTERM drains",
            file=sys.stderr,
            flush=True,
        )
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stopping.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
        serve_task = asyncio.create_task(server.serve_forever())
        stop_task = asyncio.create_task(stopping.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if stopping.is_set():
                print(
                    "repro serve: SIGTERM — draining in-flight tasks "
                    f"(grace {args.drain_grace:g}s)",
                    file=sys.stderr,
                    flush=True,
                )
                await server.shutdown(grace=args.drain_grace)
                print("repro serve: drained; stopped", file=sys.stderr)
            elif serve_task.done():
                serve_task.result()  # surface a listener failure
        finally:
            for task in (serve_task, stop_task):
                task.cancel()
            await asyncio.gather(serve_task, stop_task, return_exceptions=True)
            await server.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: stopped", file=sys.stderr)
    except OSError as exc:  # port in use, bad interface, ...
        print(f"repro serve: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return ""


def _cmd_submit(args: argparse.Namespace) -> str:
    from repro.service.client import ServiceError, SweepClient, submit_and_follow
    from repro.service.server import DEFAULT_PORT

    try:
        spec = _sweep_spec_from_args(args, command="submit")
    except ValueError as exc:
        print(f"repro submit: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    port = DEFAULT_PORT if args.port is None else args.port
    timeout = None if args.timeout is not None and args.timeout <= 0 else args.timeout
    progress = None if args.quiet else _progress_printer(spec)
    total = spec.num_tasks
    done = 0

    def on_row(row: dict) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            outcome = _row_outcome(row)
            progress(done, total, outcome)

    try:
        if not args.follow:
            import asyncio

            async def _submit_only() -> str:
                async with SweepClient(args.host, port, timeout=timeout) as client:
                    return await client.submit(
                        spec, resume=args.resume, tenant=args.tenant
                    )

            sweep_id = asyncio.run(_submit_only())
            return (
                f"submitted {sweep_id} ({total} tasks); follow with "
                f"`repro submit ... --follow` or watch the server log"
            )
        result = submit_and_follow(
            spec,
            host=args.host,
            port=port,
            resume=args.resume,
            on_row=on_row,
            tenant=args.tenant,
            timeout=timeout,
        )
    except ConnectionError as exc:
        print(
            f"repro submit: error: cannot reach repro serve at "
            f"{args.host}:{port} ({exc})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    except TimeoutError as exc:
        print(f"repro submit: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except OSError as exc:
        print(
            f"repro submit: error: cannot connect to {args.host}:{port} "
            f"({exc}) — is `repro serve` running?",
            file=sys.stderr,
        )
        raise SystemExit(2)
    except ServiceError as exc:
        # server-side refusals: invalid specs, journal in use, failed
        # runs, and structured admission errors (quota/saturated/...)
        hint = ""
        if getattr(exc, "retry_after", None):
            hint = f" (retry in {exc.retry_after:g}s)"
        print(f"repro submit: error: {exc}{hint}", file=sys.stderr)
        raise SystemExit(2)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json())
    out = _result_table(result)
    if args.json_out:
        out += f"\nresults written to {args.json_out}"
    return out


def _row_outcome(row: dict):
    """A streamed journal row as the TaskOutcome the progress line prints."""
    from repro.store.journal import outcome_from_entry

    return outcome_from_entry(row)


def _cmd_worker(args: argparse.Namespace) -> str:
    from repro.service.client import ServiceError
    from repro.service.fleet import FleetWorker

    connect = args.connect
    host, sep, port_text = connect.rpartition(":")
    if not sep or not host:
        print(
            f"repro worker: error: --connect needs HOST:PORT, got "
            f"{connect!r}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    try:
        port = int(port_text)
    except ValueError:
        print(
            f"repro worker: error: --connect port must be an integer, got "
            f"{port_text!r}",
            file=sys.stderr,
        )
        raise SystemExit(2)

    def on_result(task: dict, verdict: dict) -> None:
        if args.quiet:
            return
        tag = "done" if verdict.get("accepted") else (
            "duplicate" if verdict.get("duplicate") else "rejected"
        )
        print(
            f"repro worker: {tag} sweep={task['sweep_id']} "
            f"point={task['point']} trials={task['trials']}",
            file=sys.stderr,
            flush=True,
        )

    try:
        worker = FleetWorker(
            host=host,
            port=port,
            name=args.name,
            store=args.store,
            poll=args.poll,
            max_tasks=args.max_tasks,
            on_result=on_result,
            timeout=(
                None
                if args.timeout is not None and args.timeout <= 0
                else args.timeout
            ),
        )
    except ValueError as exc:  # bad --store locator
        print(f"repro worker: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not args.quiet:
        print(
            f"repro worker: attaching to {host}:{port}"
            + (f" (store {args.store})" if args.store else "")
            + "; Ctrl-C stops",
            file=sys.stderr,
            flush=True,
        )
    try:
        report = worker.run_sync()
    except KeyboardInterrupt:
        report = worker.report
        print("repro worker: stopped", file=sys.stderr)
    except (ConnectionError, OSError) as exc:
        print(
            f"repro worker: error: cannot connect to {host}:{port} "
            f"({exc}) — is `repro serve` running?",
            file=sys.stderr,
        )
        raise SystemExit(2)
    except ServiceError as exc:  # version mismatch / refused frames
        print(f"repro worker: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return (
        f"worker {report.worker_id or '(never attached)'}: "
        f"{report.completed} completed, {report.duplicates} duplicate, "
        f"{report.rejected} rejected"
    )


def _cmd_metrics(args: argparse.Namespace) -> str:
    import asyncio
    import json

    from repro.service.client import ServiceError, SweepClient
    from repro.service.server import DEFAULT_PORT

    port = DEFAULT_PORT if args.port is None else args.port
    timeout = None if args.timeout is not None and args.timeout <= 0 else args.timeout

    async def _fetch() -> dict:
        async with SweepClient(args.host, port, timeout=timeout) as client:
            return await client.metrics(format=args.format)

    try:
        response = asyncio.run(_fetch())
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(
            f"repro metrics: error: cannot reach repro serve at "
            f"{args.host}:{port} ({exc})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    except ServiceError as exc:
        print(f"repro metrics: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not response.get("enabled"):
        return (
            "(telemetry disabled on this server — start it with "
            "--metrics-port or --obs-sink)"
        )
    if args.format == "prometheus":
        return response.get("prometheus", "").rstrip("\n")
    return json.dumps(response.get("metrics", {}), indent=2, sort_keys=True)


def _trace_table(spans: list) -> str:
    if not spans:
        return "(no spans)"
    rows = {}
    for i, event in enumerate(spans):
        extras = {
            k: v
            for k, v in event.items()
            if k not in ("trace", "span", "ts", "dur", "task")
        }
        rows[str(i)] = {
            "span": event.get("span", "?"),
            "task": str(event.get("task", event.get("trace", "")))[:40],
            "dur": (
                f"{float(event['dur']):.4f}s" if "dur" in event else ""
            ),
            "attrs": ", ".join(
                f"{k}={v}" for k, v in sorted(extras.items())
            )[:60],
        }
    return format_table(rows, ["span", "task", "dur", "attrs"], row_header="#")


def _cmd_trace(args: argparse.Namespace) -> str:
    import json

    from repro import obs

    if args.store is not None:
        # offline stitch: the journal — not the span buffer — is the
        # durable record, so a finished fleet sweep traces from any
        # backend with no server running
        from repro.store import ArtifactStore

        try:
            store = ArtifactStore(args.store)
        except ValueError as exc:
            print(f"repro trace: error: {exc}", file=sys.stderr)
            raise SystemExit(2)
        digest = args.sweep_id.split("-", 1)[0].split(".", 1)[0]
        key = f"journals/{digest}.jsonl"
        raw = store.backend.read_from(key, 0)
        if raw is None:
            print(
                f"repro trace: error: no journal for {args.sweep_id!r} "
                f"({key} not found in {args.store})",
                file=sys.stderr,
            )
            raise SystemExit(2)
        data = raw[0] if isinstance(raw, tuple) else raw
        rows = []
        for line in data.decode("utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except ValueError:
                continue  # torn tail line: the journal reader skips it too
        spans = obs.sort_spans(
            obs.spans_from_journal_rows(
                [r for r in rows if r.get("kind") == "task"], trace=digest
            )
        )
    else:
        import asyncio

        from repro.service.client import ServiceError, SweepClient
        from repro.service.server import DEFAULT_PORT

        port = DEFAULT_PORT if args.port is None else args.port
        timeout = (
            None if args.timeout is not None and args.timeout <= 0 else args.timeout
        )

        async def _fetch() -> list:
            async with SweepClient(args.host, port, timeout=timeout) as client:
                return await client.trace(args.sweep_id)

        try:
            spans = asyncio.run(_fetch())
        except (ConnectionError, OSError, TimeoutError) as exc:
            print(
                f"repro trace: error: cannot reach repro serve at "
                f"{args.host}:{port} ({exc}); use --store to stitch the "
                f"trace from a journal offline",
                file=sys.stderr,
            )
            raise SystemExit(2)
        except ServiceError as exc:
            print(f"repro trace: error: {exc}", file=sys.stderr)
            raise SystemExit(2)
    if args.json_out:
        return json.dumps(spans, indent=2, sort_keys=True)
    header = f"trace {args.sweep_id}: {len(spans)} span(s)"
    return header + "\n\n" + _trace_table(spans)


def _cmd_store(args: argparse.Namespace) -> str:
    from repro.store import ArtifactStore

    try:
        store = ArtifactStore(args.root)
    except ValueError as exc:
        # bad locators (unknown scheme, invalid mem:// name, s3:// with
        # no client) are user input errors, not tracebacks
        print(f"repro store: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if args.action == "ls":
        infos = list(store.entries())
        journals = store.journal_keys()
        if not infos:
            # journals are resumable state — never report them as "empty"
            # (a user trusting ls might delete the directory)
            return (
                f"(no artifacts at {_store_name(store)}; "
                f"{len(journals)} sweep journal(s))"
            )
        rows = {
            info.digest[:16]: {
                "kind": info.kind,
                "size": f"{info.size_bytes / 1024:.1f}K",
                "logical": f"{info.logical_bytes / 1024:.1f}K",
                "written": time.strftime(
                    "%Y-%m-%d %H:%M", time.localtime(info.created)
                ),
                "version": info.version,
            }
            for info in infos
        }
        body = format_table(
            rows,
            ["kind", "size", "logical", "written", "version"],
            row_header="digest",
        )
        encoded = sum(info.size_bytes for info in infos)
        logical = sum(info.logical_bytes for info in infos)
        ratio = logical / encoded if encoded else 1.0
        footer = (
            f"\n\n{len(infos)} artifact(s), {len(journals)} sweep journal(s)"
            f"; {encoded} bytes stored / {logical} logical ({ratio:.1f}x)"
        )
        return body + footer
    if args.action == "inspect":
        if not args.digest:
            raise SystemExit("repro store inspect: a digest is required")
        matches = [
            info for info in store.entries()
            if info.digest.startswith(args.digest)
        ]
        if not matches:
            raise SystemExit(f"no artifact matching {args.digest!r}")
        if len(matches) > 1:
            raise SystemExit(
                f"digest prefix {args.digest!r} is ambiguous "
                f"({len(matches)} matches)"
            )
        info = matches[0]
        import json as _json

        return _json.dumps(
            {
                "digest": info.digest,
                "kind": info.kind,
                "version": info.version,
                "created": time.strftime(
                    "%Y-%m-%d %H:%M:%S", time.localtime(info.created)
                ),
                "size_bytes": info.size_bytes,
                "logical_bytes": info.logical_bytes,
                "codec": info.codec,
                "has_arrays": info.has_arrays,
                "key": _jsonable(info.key),
            },
            indent=2,
        )
    if args.action == "repack":
        report = store.repack(
            compact=not args.dense, dry_run=args.dry_run
        )
        target = "dense" if args.dense else "compact"
        verb = "would re-encode" if args.dry_run else "re-encoded"
        before, after = report["bytes_before"], report["bytes_after"]
        shrink = f"{before / after:.1f}x" if after else "n/a"
        return (
            f"{verb} {report['repacked']} of {report['examined']} "
            f"artifact(s) to the {target} encoding "
            f"({report['skipped']} already there): "
            f"{before} -> {after} bytes ({shrink})"
        )
    # gc
    report = store.gc(
        older_than_days=args.older_than_days, dry_run=args.dry_run
    )
    if args.dry_run:
        return (
            f"would remove {report['removed']} object(s), "
            f"reclaiming {report['freed_bytes']} bytes (dry run; "
            f"nothing deleted)"
        )
    return (
        f"removed {report['removed']} object(s), "
        f"freed {report['freed_bytes']} bytes"
    )


def _calib_error(message) -> "SystemExit":
    print(f"repro calib: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _calib_backend(args):
    """Deterministic backend for the calib target: same flags, same noise
    draw — node keys must be stable across invocations or nothing would
    ever be warm on the second run."""
    from repro.backends.profiles import architecture_backend, device_profile_backend
    from repro.utils.rng import stable_rng

    if args.device is not None:
        rng = stable_rng("calib-device", args.device, args.seed)
        return args.device, device_profile_backend(
            args.device, rng=rng, gate_noise=False
        )
    if args.architecture is not None:
        n = args.qubits if args.qubits is not None else 6
        rng = stable_rng("calib-arch", args.architecture, n, args.seed)
        backend = architecture_backend(
            args.architecture, n,
            error_1q=0.0, error_2q=0.0,
            correlation_placement="coupling",
            rng=rng,
        )
        return f"{args.architecture}-{n}q", backend
    raise ValueError(
        "calib needs a target: --device NAME, --architecture FAMILY "
        "--qubits N, or --graph-json PATH"
    )


def _parse_drift_edges(tokens):
    edges = []
    for token in tokens:
        parts = token.split("-")
        if len(parts) < 2 or not all(p.strip().isdigit() for p in parts):
            raise ValueError(
                f"bad --drift-edges token {token!r}; expected A-B (e.g. 0-1)"
            )
        edges.append(tuple(int(p) for p in parts))
    return edges


def _cmd_calib(args: argparse.Namespace) -> str:
    import json as _json

    from repro.backends.backend import SimulatedBackend
    from repro.calgraph import (
        CalGraphError,
        CalibrationDAG,
        CalibrationScheduler,
        build_calibration_graph,
        dirty_nodes,
    )
    from repro.noise.drift import drift_noise_model
    from repro.pipeline.cache import CalibrationCache
    from repro.store import ArtifactStore
    from repro.utils.rng import stable_rng

    try:
        store = ArtifactStore(args.store)
    except ValueError as exc:
        raise _calib_error(exc)

    if args.action == "status":
        return _calib_status(store)

    # ---- structure-only graphs from an explicit JSON spec ----
    if args.graph_json is not None:
        try:
            with open(args.graph_json, "r", encoding="utf-8") as fh:
                spec = _json.load(fh)
            graph = CalibrationDAG.from_spec(spec)
            if args.action != "plan":
                raise ValueError(
                    "--graph-json graphs carry structure only; use `plan` "
                    "(or --dot) with them"
                )
            if args.only:
                for name in args.only:
                    graph.node(name)  # unknown names refuse here
        except (CalGraphError, ValueError, OSError, KeyError) as exc:
            raise _calib_error(exc)
        out = []
        if args.dot:
            out.append(_write_dot(graph, args.dot))
        order = graph.topological()
        shown = [n for n in order if not args.only or n in set(args.only)]
        rows = {
            name: {
                "kind": graph.node(name).kind,
                "deps": ",".join(graph.deps(name)) or "-",
            }
            for name in shown
        }
        out.append(format_table(rows, ["kind", "deps"], row_header="node"))
        out.append(f"\n{len(order)} node(s), topological order shown")
        return "\n".join(out)

    # ---- method graphs against a live noise model ----
    try:
        label, backend = _calib_backend(args)
        base_model = backend.noise_model
        model = base_model
        if args.drift_qubits is not None or args.drift_edges is not None:
            edges = (
                _parse_drift_edges(args.drift_edges)
                if args.drift_edges is not None
                else None
            )
            model = drift_noise_model(
                base_model,
                scale=args.drift_scale,
                qubits=args.drift_qubits,
                edges=edges,
                rng=stable_rng("calib-drift", label, args.seed),
            )
            backend = SimulatedBackend(
                backend.coupling_map, model,
                rng=stable_rng("calib-run", label, args.seed),
            )
        graph = build_calibration_graph(
            args.method, backend.coupling_map, full_max_qubits=12
        )
        if args.only:
            for name in args.only:
                graph.node(name)  # unknown names refuse here
        scheduler = CalibrationScheduler(
            graph,
            CalibrationCache(store),
            device=label,
            method=args.method,
            shots_per_node=args.shots_per_node,
            seed=args.seed,
        )
    except (CalGraphError, ValueError, KeyError) as exc:
        raise _calib_error(exc)

    out = []
    if args.dot:
        out.append(_write_dot(graph, args.dot))

    if args.action == "plan":
        plans = scheduler.plan(model)
        shown = [p for p in plans if not args.only or p.name in set(args.only)]
        rows = {
            p.name: {
                "kind": p.kind,
                "qubits": ",".join(map(str, p.qubits)) or "-",
                "state": "warm" if p.cached else "dirty",
                "digest": p.digest[:12],
            }
            for p in shown
        }
        out.append(format_table(
            rows, ["kind", "qubits", "state", "digest"], row_header="node"
        ))
        dirty = [p.name for p in plans if not p.cached]
        out.append(
            f"\nplan: {label} / {args.method} — {len(plans) - len(dirty)} "
            f"warm, {len(dirty)} dirty"
        )
        if dirty:
            out.append("dirty frontier: " + " ".join(sorted(dirty)))
        if model is not base_model:
            drifted = dirty_nodes(graph, base_model, model)
            out.append("drifted vs base model: " + (" ".join(drifted) or "-"))
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                _json.dump([p.to_dict() for p in plans], fh, indent=2)
            out.append(f"plan written to {args.json_out}")
        return "\n".join(out)

    # run
    report = scheduler.run(backend, model=model)
    summary = report.to_dict()
    out.append(
        f"ran {label} / {args.method}: "
        f"{len(report.executed)} executed, {len(report.restored)} restored, "
        f"{len(report.skipped)} skipped, {len(report.failed)} failed"
    )
    out.append(
        f"shots: {report.fresh_shots} fresh, {report.replayed_shots} replayed"
    )
    if report.executed:
        out.append("executed: " + " ".join(report.executed))
    if report.failed:
        out.append("failed: " + " ".join(report.failed))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            _json.dump(summary, fh, indent=2)
        out.append(f"report written to {args.json_out}")
    return "\n".join(out)


def _write_dot(graph, path: str) -> str:
    dot = graph.to_dot()
    if path == "-":
        return dot
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dot)
    return f"DOT written to {path}"


def _calib_status(store) -> str:
    """Summarise the store's calgraph-node artifacts per (device, method)."""
    groups = {}
    for info in store.entries():
        if info.kind != "calgraph-node":
            continue
        key = info.key.get("key", {}) if isinstance(info.key, dict) else {}
        group = (str(key.get("device", "?")), str(key.get("method", "?")))
        stats = groups.setdefault(
            group, {"nodes": 0, "bytes": 0, "versions": set()}
        )
        stats["nodes"] += 1
        stats["bytes"] += info.size_bytes
        stats["versions"].add(info.version)
    if not groups:
        return "(no calibration-node artifacts in this store)"
    rows = {
        f"{device}/{method}": {
            "nodes": str(stats["nodes"]),
            "size": f"{stats['bytes'] / 1024:.1f}K",
            "version": ",".join(sorted(stats["versions"])),
        }
        for (device, method), stats in sorted(groups.items())
    }
    body = format_table(
        rows, ["nodes", "size", "version"], row_header="device/method"
    )
    return body + f"\n\n{len(groups)} calibration group(s)"


def _store_name(store) -> str:
    """The store's display name: the plain path for local stores (what
    the user typed, pre-locator), the locator for every other backend."""
    from repro.store import store_locator

    return store_locator(store)


def _jsonable(obj):
    """Plain-JSON view of a decoded artifact key (tuples become lists)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None or args.command == "list":
        print(_cmd_list())
        return 0
    handlers = {
        "ghz": _cmd_ghz,
        "devices": _cmd_devices,
        "correlations": _cmd_correlations,
        "xchain": _cmd_xchain,
        "channels": _cmd_channels,
        "costs": _cmd_costs,
        "stability": _cmd_stability,
        "shots": _cmd_shots,
        "sweep": _cmd_sweep,
        "store": _cmd_store,
        "calib": _cmd_calib,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "worker": _cmd_worker,
        "metrics": _cmd_metrics,
        "trace": _cmd_trace,
    }
    out = handlers[args.command](args)
    if out:  # serve returns nothing — don't print a stray blank line
        print(out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
