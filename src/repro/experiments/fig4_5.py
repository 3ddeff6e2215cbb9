"""Fig 4-5: latency surface over (defective tiles x data upsets).

The thesis' 3-D plot for the case studies: tile crashes barely move the
latency, while data upsets dominate once p_upset exceeds ~0.5 — yet the
algorithm "does not give up" and terminates even at 90 % upsets, merely
taking many more rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.master_slave import MasterSlavePiApp
from repro.core.protocol import StochasticProtocol
from repro.experiments.common import ExperimentOptions, resolve_options
from repro.faults import FaultConfig, FaultInjector
from repro.noc.engine import NocSimulator
from repro.noc.topology import Mesh2D
from repro.runners import SimTask


@dataclass(frozen=True)
class SurfacePoint:
    """One (crashes, p_upset) cell of the latency surface."""

    n_dead_tiles: int
    p_upset: float
    completion_rate: float
    latency_rounds: float


def _run_surface_rep(
    n_dead: int,
    p_upset: float,
    forward_probability: float,
    seed: int,
    max_rounds: int,
) -> tuple[bool, int]:
    """One Master-Slave run at one (crashes, p_upset) cell."""
    app = MasterSlavePiApp.default_5x5(n_slaves=8, duplicate=True, n_terms=200)
    topology = Mesh2D(5, 5)
    injector = FaultInjector(
        FaultConfig.fault_free(), np.random.default_rng(seed)
    )
    plan = injector.crash_plan_with_exact_counts(
        topology.tile_ids,
        topology.links,
        n_dead_tiles=n_dead,
        protected_tiles=app.critical_tiles,
    )
    simulator = NocSimulator(
        topology,
        StochasticProtocol(forward_probability),
        FaultConfig(p_upset=p_upset),
        seed=seed,
        crash_plan=plan,
        # Heavy upsets need persistent packets: the protocol survives by
        # retransmitting, which takes TTL headroom.
        default_ttl=max_rounds,
    )
    app.deploy(simulator)
    result = simulator.run(
        max_rounds=max_rounds, until=lambda sim: app.master.complete
    )
    return app.master.complete, result.rounds


def run(
    dead_tile_counts: tuple[int, ...] = (0, 2, 4),
    upset_levels: tuple[float, ...] = (0.0, 0.3, 0.5, 0.7, 0.9),
    forward_probability: float = 0.5,
    repetitions: int = 3,
    seed: int = 0,
    max_rounds: int = 2500,
    *,
    options: ExperimentOptions | None = None,
) -> list[SurfacePoint]:
    """Sweep the two failure axes on the Master-Slave study."""
    opts = resolve_options(options)
    sweep = opts.make_runner()
    cells = [
        (n_dead, p_upset)
        for n_dead in dead_tile_counts
        for p_upset in upset_levels
    ]
    outcomes = iter(
        sweep.run(
            SimTask.call(
                _run_surface_rep,
                n_dead=n_dead,
                p_upset=p_upset,
                forward_probability=forward_probability,
                seed=seed + 7919 * rep,
                max_rounds=max_rounds,
                label=f"fig4_5 dead={n_dead} upset={p_upset} rep={rep}",
            )
            for n_dead, p_upset in cells
            for rep in range(repetitions)
        )
    )
    points = []
    for n_dead, p_upset in cells:
        cell = [next(outcomes) for _ in range(repetitions)]
        finished = [o for o in cell if o[0]]
        pool = finished if finished else cell
        points.append(
            SurfacePoint(
                n_dead_tiles=n_dead,
                p_upset=p_upset,
                completion_rate=len(finished) / len(cell),
                latency_rounds=sum(o[1] for o in pool) / len(pool),
            )
        )
    return points
