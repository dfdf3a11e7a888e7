"""repro — Coupling Map Calibration (CMC) measurement-error mitigation.

Reproduction of "Mitigating Coupling Map Constrained Correlated Measurement
Errors on Quantum Devices" (Robertson & Song, SC 2023, arXiv:2212.10642).

Quick start — mitigate one circuit::

    from repro import (
        CMCMitigator, ghz_bfs, architecture_backend, one_norm_distance,
    )

    backend = architecture_backend("grid", 9, rng=0)
    circuit = ghz_bfs(backend.coupling_map)
    mitigated = CMCMitigator(backend.coupling_map).run(
        circuit, backend, total_shots=16000
    )

Quick start — sweep the whole method suite over a grid (the recommended
entry point for experiments; parallel, cached, bit-reproducible)::

    from repro import BackendSpec, SweepSpec, run_sweep

    spec = SweepSpec(
        backends=(BackendSpec(kind="device", name="quito"),
                  BackendSpec(kind="device", name="nairobi")),
        shots=(32000,), trials=3, seed=0, full_max_qubits=5,
    )
    result = run_sweep(spec, workers=4)
    print(result.summary_rows())       # Table-II-style cells

Subpackages
-----------
``repro.topology``      coupling maps, architecture generators, IBM layouts
``repro.circuits``      circuit IR + GHZ / calibration circuit library
``repro.simulator``     statevector + probability-vector + trajectory engines
``repro.noise``         readout / correlated channels, noise models, drift
``repro.backends``      simulated devices, shot budgets, device profiles
``repro.core``          CMC, ERR, patches, joining, sparse kernels, costs
``repro.mitigation``    baselines: Bare, Full, Linear, SIM, AIM, JIGSAW
``repro.analysis``      metrics, correlation maps, Hinton data, stats
``repro.experiments``   drivers for every paper table and figure
``repro.pipeline``      declarative sweeps: process-pool engine + calibration cache
``repro.store``         persistent artifact store: durable calibrations, resumable sweeps
``repro.service``       asyncio sweep service: streaming results, warm-first scheduling
"""

from repro.analysis import one_norm_distance, success_probability
from repro.backends import (
    ShotBudget,
    SimulatedBackend,
    architecture_backend,
    device_profile_backend,
)
from repro.circuits import Circuit, ghz_bfs
from repro.core import (
    CalibrationMatrix,
    CMCERRMitigator,
    CMCMitigator,
    JoinedCalibration,
    build_error_coupling_map,
    build_patch_rounds,
)
from repro.counts import Counts, SparseDistribution
from repro.mitigation import (
    AIMMitigator,
    BareMitigator,
    FullCalibrationMitigator,
    JigsawMitigator,
    LinearCalibrationMitigator,
    SIMMitigator,
)
from repro.noise import MeasurementErrorChannel, NoiseModel, ReadoutError
from repro.pipeline import (
    BackendSpec,
    CalibrationCache,
    CircuitSpec,
    ParallelSweepRunner,
    SweepResult,
    SweepSpec,
    run_sweep,
)
from repro.store import ArtifactStore, SweepJournal
from repro.topology import CouplingMap

from repro._version import __version__

__all__ = [
    "__version__",
    "one_norm_distance",
    "success_probability",
    "ShotBudget",
    "SimulatedBackend",
    "architecture_backend",
    "device_profile_backend",
    "Circuit",
    "ghz_bfs",
    "CalibrationMatrix",
    "CMCERRMitigator",
    "CMCMitigator",
    "JoinedCalibration",
    "build_error_coupling_map",
    "build_patch_rounds",
    "Counts",
    "SparseDistribution",
    "AIMMitigator",
    "BareMitigator",
    "FullCalibrationMitigator",
    "JigsawMitigator",
    "LinearCalibrationMitigator",
    "SIMMitigator",
    "MeasurementErrorChannel",
    "NoiseModel",
    "ReadoutError",
    "CouplingMap",
    "BackendSpec",
    "CalibrationCache",
    "CircuitSpec",
    "ParallelSweepRunner",
    "SweepResult",
    "SweepSpec",
    "run_sweep",
    "ArtifactStore",
    "SweepJournal",
]
