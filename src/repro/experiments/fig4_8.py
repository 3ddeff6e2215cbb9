"""Fig 4-8: MP3 encoding latency over the (p x p_upset) plane.

The thesis' contour plot: lowest latency at p = 1 / p_upset = 0 (~62
rounds in their setup), rising toward p -> 0 and p_upset -> 1 until the
encoding cannot finish.  The absolute round counts depend on the stream
length; the contour *shape* — monotone in both axes, exploding past
p_upset ~ 0.7 — is the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import run_on_noc
from repro.core.protocol import StochasticProtocol
from repro.experiments.common import ExperimentOptions, resolve_options
from repro.faults import FaultConfig
from repro.mp3.parallel import ParallelMp3App
from repro.noc.engine import NocSimulator
from repro.noc.topology import Mesh2D
from repro.runners import SimTask


@dataclass(frozen=True)
class LatencyCell:
    """One (p, p_upset) cell of the Fig 4-8 contour."""

    forward_probability: float
    p_upset: float
    completion_rate: float
    latency_rounds: float
    frames_lost: float


def _run_cell_rep(
    forward_probability: float,
    p_upset: float,
    n_frames: int,
    granule: int,
    seed: int,
    max_rounds: int,
) -> tuple[bool, int, int]:
    """One MP3 encoding run at one (p, p_upset) cell."""
    app = ParallelMp3App(n_frames=n_frames, granule=granule, seed=seed)
    simulator = NocSimulator(
        Mesh2D(4, 4),
        StochasticProtocol(forward_probability),
        FaultConfig(p_upset=p_upset),
        seed=seed,
        # Upset survival needs TTL headroom (copies are consumed by
        # scrambling and must be replaced by retransmissions).
        default_ttl=40,
    )
    result = run_on_noc(app, simulator, max_rounds=max_rounds)
    report = app.report()
    return report.encoding_complete, result.rounds, report.frames_lost


def _cell_tasks(
    forward_probability: float,
    p_upset: float,
    n_frames: int,
    granule: int,
    repetitions: int,
    seed: int,
    max_rounds: int,
) -> list[SimTask]:
    return [
        SimTask.call(
            _run_cell_rep,
            forward_probability=forward_probability,
            p_upset=p_upset,
            n_frames=n_frames,
            granule=granule,
            seed=seed + 104_729 * rep,
            max_rounds=max_rounds,
            label=f"fig4_8 p={forward_probability} upset={p_upset} rep={rep}",
        )
        for rep in range(repetitions)
    ]


def _aggregate_cell(
    forward_probability: float, p_upset: float, outcomes: list
) -> LatencyCell:
    finished = [o for o in outcomes if o[0]]
    pool = finished if finished else outcomes
    return LatencyCell(
        forward_probability=forward_probability,
        p_upset=p_upset,
        completion_rate=len(finished) / len(outcomes),
        latency_rounds=sum(o[1] for o in pool) / len(pool),
        frames_lost=sum(o[2] for o in outcomes) / len(outcomes),
    )


def run_cell(
    forward_probability: float,
    p_upset: float,
    n_frames: int = 6,
    granule: int = 144,
    repetitions: int = 2,
    seed: int = 0,
    max_rounds: int = 1200,
    *,
    options: ExperimentOptions | None = None,
) -> LatencyCell:
    """Measure one cell of the latency surface."""
    opts = resolve_options(options)
    sweep = opts.make_runner()
    outcomes = sweep.run(
        _cell_tasks(
            forward_probability,
            p_upset,
            n_frames,
            granule,
            repetitions,
            seed,
            max_rounds,
        )
    )
    return _aggregate_cell(forward_probability, p_upset, outcomes)


def run(
    probabilities: tuple[float, ...] = (1.0, 0.75, 0.5, 0.25),
    upset_levels: tuple[float, ...] = (0.0, 0.3, 0.6),
    n_frames: int = 6,
    granule: int = 144,
    repetitions: int = 2,
    seed: int = 0,
    max_rounds: int = 1200,
    *,
    options: ExperimentOptions | None = None,
) -> list[LatencyCell]:
    """Sweep the (p x p_upset) grid.

    The whole grid — every cell's repetitions — is submitted as one task
    batch, so parallel workers stay busy across cell boundaries.
    """
    opts = resolve_options(options)
    sweep = opts.make_runner()
    cells = [(p, p_upset) for p in probabilities for p_upset in upset_levels]
    tasks = [
        task
        for p, p_upset in cells
        for task in _cell_tasks(
            p, p_upset, n_frames, granule, repetitions, seed, max_rounds
        )
    ]
    outcomes = iter(sweep.run(tasks))
    return [
        _aggregate_cell(p, p_upset, [next(outcomes) for _ in range(repetitions)])
        for p, p_upset in cells
    ]
