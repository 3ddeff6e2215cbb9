"""Fig 4-4: latency and energy vs tile crash failures, four protocols.

The thesis compares flooding (p = 1) against stochastic communication at
p in {0.75, 0.50, 0.25} on the two case studies — Master-Slave pi (5x5)
and the 2-D FFT (4x4) — sweeping the number of crashed tiles.  Expected
shapes: latency barely moves with tile crashes; lower p trades rounds for
roughly proportionally lower energy; flooding's latency is the Manhattan
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.fft2d import Fft2dApp
from repro.apps.master_slave import MasterSlavePiApp
from repro.core.protocol import StochasticProtocol
from repro.experiments.common import (
    ExperimentOptions,
    metrics_params,
    resolve_options,
    split_metrics,
    summarize_metrics,
)
from repro.faults import FaultConfig, FaultInjector
from repro.metrics import MetricsCollector, MetricsSummary
from repro.noc.engine import NocSimulator
from repro.noc.topology import Mesh2D
from repro.runners import SimTask

#: The thesis' four protocol variants.
PROBABILITIES = (1.0, 0.75, 0.50, 0.25)


@dataclass(frozen=True)
class CrashSweepPoint:
    """One (protocol, crash count) cell of the Fig 4-4 grid.

    Attributes:
        application: "master_slave" or "fft2d".
        forward_probability: protocol parameter p.
        n_dead_tiles: crashed tiles in the run.
        completion_rate: fraction of repetitions that finished.
        latency_rounds: mean rounds over completed runs.
        energy_j: mean Eq. 3 energy over completed runs.
        metrics: aggregated per-round mean/CI time series of the cell's
            repetitions when swept with ``collect_metrics=True``, else
            ``None``.
    """

    application: str
    forward_probability: float
    n_dead_tiles: int
    completion_rate: float
    latency_rounds: float
    energy_j: float
    metrics: MetricsSummary | None = None


def _run_master_slave(
    p: float, n_dead: int, seed: int, max_rounds: int,
    collect_metrics: bool = False,
) -> tuple:
    app = MasterSlavePiApp.default_5x5(n_slaves=8, duplicate=True, n_terms=400)
    topology = Mesh2D(5, 5)
    injector = FaultInjector(FaultConfig.fault_free(), np.random.default_rng(seed))
    plan = injector.crash_plan_with_exact_counts(
        topology.tile_ids,
        topology.links,
        n_dead_tiles=n_dead,
        protected_tiles=app.critical_tiles,
    )
    collector = MetricsCollector() if collect_metrics else None
    simulator = NocSimulator(
        topology, StochasticProtocol(p), seed=seed, crash_plan=plan,
        observer=collector,
    )
    app.deploy(simulator)
    # Replica-aware completion: the run ends when the master holds every
    # partial, even if one replica of each pair died (or sits isolated).
    result = simulator.run(
        max_rounds=max_rounds, until=lambda sim: app.master.complete
    )
    if collector is not None:
        return (
            app.master.complete, result.rounds, result.energy_j,
            collector.metrics(),
        )
    return app.master.complete, result.rounds, result.energy_j


def _run_fft2d(
    p: float, n_dead: int, seed: int, max_rounds: int,
    collect_metrics: bool = False,
) -> tuple:
    image = np.random.default_rng(seed).normal(size=(8, 8))
    app = Fft2dApp(image, duplicate=True)
    topology = Mesh2D(4, 4)
    injector = FaultInjector(FaultConfig.fault_free(), np.random.default_rng(seed))
    plan = injector.crash_plan_with_exact_counts(
        topology.tile_ids,
        topology.links,
        n_dead_tiles=n_dead,
        protected_tiles=app.critical_tiles,
    )
    collector = MetricsCollector() if collect_metrics else None
    simulator = NocSimulator(
        topology, StochasticProtocol(p), seed=seed, crash_plan=plan,
        observer=collector,
    )
    app.deploy(simulator)
    result = simulator.run(
        max_rounds=max_rounds, until=lambda sim: app.root.complete
    )
    if collector is not None:
        return (
            app.root.complete, result.rounds, result.energy_j,
            collector.metrics(),
        )
    return app.root.complete, result.rounds, result.energy_j


_RUNNERS = {
    "master_slave": _run_master_slave,
    "fft2d": _run_fft2d,
}


def run(
    application: str = "master_slave",
    dead_tile_counts: tuple[int, ...] = (0, 1, 2, 4),
    probabilities: tuple[float, ...] = PROBABILITIES,
    repetitions: int = 5,
    seed: int = 0,
    max_rounds: int = 400,
    *,
    options: ExperimentOptions | None = None,
) -> list[CrashSweepPoint]:
    """Sweep (p x crash count) for one application.

    With ``options=ExperimentOptions(collect_metrics=True)`` every
    repetition records a per-round :class:`repro.metrics.RunMetrics` and
    each sweep point carries the cell's aggregated mean/CI summary in
    its ``metrics`` field.
    """
    if application not in _RUNNERS:
        raise ValueError(
            f"unknown application {application!r}; expected one of "
            f"{sorted(_RUNNERS)}"
        )
    run_one = _RUNNERS[application]
    opts = resolve_options(options, supports=("collect_metrics",))
    collect_metrics = opts.collect_metrics
    sweep = opts.make_runner()
    cells = [
        (p, n_dead) for p in probabilities for n_dead in dead_tile_counts
    ]
    raw = sweep.run(
        SimTask.call(
            run_one,
            p=p,
            n_dead=n_dead,
            seed=seed + 977 * rep,
            max_rounds=max_rounds,
            label=f"fig4_4[{application}] p={p} dead={n_dead} rep={rep}",
            **metrics_params(collect_metrics),
        )
        for p, n_dead in cells
        for rep in range(repetitions)
    )
    plain, run_metrics = split_metrics(raw, collect_metrics)
    outcomes = iter(plain)
    metrics_iter = iter(run_metrics) if run_metrics is not None else None
    points = []
    for p, n_dead in cells:
        cell = [next(outcomes) for _ in range(repetitions)]
        summary = None
        if metrics_iter is not None:
            summary = summarize_metrics(
                [next(metrics_iter) for _ in range(repetitions)]
            )
        finished = [o for o in cell if o[0]]
        pool = finished if finished else cell
        points.append(
            CrashSweepPoint(
                application=application,
                forward_probability=p,
                n_dead_tiles=n_dead,
                completion_rate=len(finished) / len(cell),
                latency_rounds=sum(o[1] for o in pool) / len(pool),
                energy_j=sum(o[2] for o in pool) / len(pool),
                metrics=summary,
            )
        )
    return points
