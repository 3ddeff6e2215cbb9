"""Fig 5-3: on-chip diversity — comparing communication architectures.

The beamforming workload runs on the flat NoC, the hierarchical NoC and
the bus-connected NoCs (plus the central router, which Fig 5-2 sketches
but Fig 5-3 omits).  Expected shape per the thesis: the hierarchical NoC
has the lowest number of message transmissions, the flat NoC a slightly
better latency than the others, and the bus-connected structure is the
least efficient.
"""

from __future__ import annotations


from repro.diversity.architectures import (
    BusConnectedNocs,
    CentralRouter,
    FlatNoc,
    HierarchicalNoc,
)
from repro.diversity.compare import ArchitectureComparison, compare_architectures
from repro.experiments.common import ExperimentOptions, resolve_options


def run(
    cluster_side: int = 3,
    n_sensors: int = 12,
    n_frames: int = 6,
    frame_interval: int = 3,
    repetitions: int = 3,
    include_central_router: bool = False,
    seed: int = 0,
    max_rounds: int = 4000,
    *,
    options: ExperimentOptions | None = None,
) -> list[ArchitectureComparison]:
    """Run the Fig 5-3 comparison.

    The flat mesh is sized to match the clustered architectures' tile
    count (2 x cluster_side per side = 4 clusters' worth of tiles).
    """
    opts = resolve_options(options)
    architectures = [
        FlatNoc(2 * cluster_side),
        HierarchicalNoc(cluster_side),
        BusConnectedNocs(cluster_side),
    ]
    if include_central_router:
        architectures.append(CentralRouter(cluster_side))
    return compare_architectures(
        architectures,
        n_sensors=n_sensors,
        n_frames=n_frames,
        frame_interval=frame_interval,
        repetitions=repetitions,
        seed=seed,
        max_rounds=max_rounds,
        options=opts,
    )
