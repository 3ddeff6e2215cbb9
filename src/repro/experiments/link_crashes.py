"""Extension experiment: link-crash sweep.

The Ch. 2 fault model includes ``p_link`` (crashed links) but Fig 4-4
only sweeps dead *tiles*.  This harness completes the picture: the
Master-Slave workload under increasing numbers of dead directed links,
measuring completion rate and latency.  Expected shape: links are the
gentler failure mode — a dead link removes one path while a dead tile
removes up to four and a compute resource — so latency degrades more
slowly per failed element.
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
class LinkCrashPoint:
    """One dead-link count of the sweep."""

    n_dead_links: int
    completion_rate: float
    latency_rounds: float
    dead_link_drops: float


def _run_link_crash_rep(
    n_dead_links: int,
    forward_probability: float,
    n_terms: int,
    seed: int,
    max_rounds: int,
) -> tuple[bool, int, int]:
    """One Master-Slave run with exactly n_dead_links crashed links."""
    mesh = Mesh2D(5, 5)
    app = MasterSlavePiApp.default_5x5(n_terms=n_terms)
    injector = FaultInjector(
        FaultConfig.fault_free(), np.random.default_rng(seed)
    )
    plan = injector.crash_plan_with_exact_counts(
        mesh.tile_ids, mesh.links, n_dead_links=n_dead_links
    )
    simulator = NocSimulator(
        mesh,
        StochasticProtocol(forward_probability),
        seed=seed,
        crash_plan=plan,
        default_ttl=24,
    )
    app.deploy(simulator)
    result = simulator.run(max_rounds, until=lambda sim: app.master.complete)
    return app.master.complete, result.rounds, result.stats.dead_link_drops


def run(
    dead_link_counts: tuple[int, ...] = (0, 4, 8, 16, 24),
    forward_probability: float = 0.5,
    repetitions: int = 4,
    n_terms: int = 300,
    seed: int = 0,
    max_rounds: int = 400,
    *,
    options: ExperimentOptions | None = None,
) -> list[LinkCrashPoint]:
    """Sweep dead directed links on the 5x5 Master-Slave study."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    opts = resolve_options(options)
    sweep = opts.make_runner()
    results = iter(
        sweep.run(
            SimTask.call(
                _run_link_crash_rep,
                n_dead_links=n_dead,
                forward_probability=forward_probability,
                n_terms=n_terms,
                seed=seed + 4999 * rep,
                max_rounds=max_rounds,
                label=f"link_crashes dead={n_dead} rep={rep}",
            )
            for n_dead in dead_link_counts
            for rep in range(repetitions)
        )
    )
    points = []
    for n_dead in dead_link_counts:
        outcomes = [next(results) for _ in range(repetitions)]
        finished = [o for o in outcomes if o[0]]
        pool = finished if finished else outcomes
        points.append(
            LinkCrashPoint(
                n_dead_links=n_dead,
                completion_rate=len(finished) / len(outcomes),
                latency_rounds=sum(o[1] for o in pool) / len(pool),
                dead_link_drops=sum(o[2] for o in outcomes) / len(outcomes),
            )
        )
    return points
