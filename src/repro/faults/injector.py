"""Seeded fault injection for NoC simulations.

The injector is the single authority on "did something bad happen here":
tiles and links query it at well-defined points (construction time for
crashes, per link traversal for upsets, per enqueue for overflow).  All draws
come from one :class:`numpy.random.Generator`, so a simulation is exactly
reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.config import FaultConfig
from repro.faults.errors import ErrorModel, bit_error_probability, make_error_model


@dataclass(frozen=True)
class CrashPlan:
    """The static crash map drawn for one simulation run.

    Attributes:
        dead_tiles: tile ids crashed from t = 0.
        dead_links: directed links ``(src_tile, dst_tile)`` crashed from t = 0.
    """

    dead_tiles: frozenset[int] = field(default_factory=frozenset)
    dead_links: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def tile_alive(self, tile_id: int) -> bool:
        return tile_id not in self.dead_tiles

    def link_alive(self, src: int, dst: int) -> bool:
        return (src, dst) not in self.dead_links

    @property
    def n_dead_tiles(self) -> int:
        return len(self.dead_tiles)

    @property
    def n_dead_links(self) -> int:
        return len(self.dead_links)


class FaultInjector:
    """Draws every stochastic failure event for one simulation.

    Args:
        config: the five-parameter failure model.
        rng: generator owned by the simulation (or a seed / None).
        payload_bits: nominal packet payload size, used to derive the
            per-bit flip probability for the random-bit-error model.
    """

    def __init__(
        self,
        config: FaultConfig,
        rng: np.random.Generator | int | None = None,
        payload_bits: int = 512,
    ) -> None:
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        if payload_bits < 1:
            raise ValueError(f"payload_bits must be positive, got {payload_bits}")
        self.payload_bits = payload_bits
        self.retarget(config)

    def retarget(self, config: FaultConfig) -> None:
        """Swap in a new failure configuration mid-run.

        The RNG stream is kept, so a dynamic-fault scenario that rewrites
        the effective config every round (``repro.faults.scenarios``)
        stays exactly reproducible from the run's seed.  The error model
        is rebuilt only when the upset parameters actually changed.
        """
        previous = getattr(self, "config", None)
        self.config = config
        if (
            previous is not None
            and previous.p_upset == config.p_upset
            and previous.error_model == config.error_model
        ):
            return
        p_bit = (
            bit_error_probability(config.p_upset, self.payload_bits)
            if config.p_upset
            else 0.0
        )
        self.error_model: ErrorModel = make_error_model(config.error_model, p_bit)

    # ---------------------------------------------------------------- crashes

    def draw_crash_plan(
        self,
        tile_ids: list[int],
        links: list[tuple[int, int]],
        protected_tiles: frozenset[int] | set[int] = frozenset(),
    ) -> CrashPlan:
        """Draw the static crash map for a run.

        Args:
            tile_ids: all tiles in the topology.
            links: all directed links.
            protected_tiles: tiles that must stay alive (e.g. the tiles an
                experiment's root IPs occupy — the thesis notes runs abort
                entirely if "important modules" die, which is a property of
                the application, not of the protocol under study).
        """
        protected = frozenset(protected_tiles)
        candidates = [tid for tid in tile_ids if tid not in protected]
        # One uniform per unprotected tile, then one per link, in order:
        # rng.random(n) consumes exactly the stream of n scalar calls.
        tile_hits = self.rng.random(len(candidates)) < self.config.p_tile
        link_hits = self.rng.random(len(links)) < self.config.p_link
        dead_tiles = frozenset(
            candidates[i] for i in np.flatnonzero(tile_hits).tolist()
        )
        dead_links = frozenset(
            links[i] for i in np.flatnonzero(link_hits).tolist()
        )
        return CrashPlan(dead_tiles=dead_tiles, dead_links=dead_links)

    def crash_plan_with_exact_counts(
        self,
        tile_ids: list[int],
        links: list[tuple[int, int]],
        n_dead_tiles: int = 0,
        n_dead_links: int = 0,
        protected_tiles: frozenset[int] | set[int] = frozenset(),
    ) -> CrashPlan:
        """Draw a crash map with exact failure counts (for controlled sweeps).

        Fig 4-4 plots latency against *the number* of defective tiles, so the
        sweep needs exact counts rather than Bernoulli draws.
        """
        protected = frozenset(protected_tiles)
        candidates = [tid for tid in tile_ids if tid not in protected]
        if n_dead_tiles > len(candidates):
            raise ValueError(
                f"cannot crash {n_dead_tiles} of {len(candidates)} "
                "unprotected tiles"
            )
        if n_dead_links > len(links):
            raise ValueError(f"cannot crash {n_dead_links} of {len(links)} links")
        dead_tiles = frozenset(
            int(tid)
            for tid in self.rng.choice(candidates, size=n_dead_tiles, replace=False)
        ) if n_dead_tiles else frozenset()
        if n_dead_links:
            link_idx = self.rng.choice(len(links), size=n_dead_links, replace=False)
            dead_links = frozenset(links[int(i)] for i in link_idx)
        else:
            dead_links = frozenset()
        return CrashPlan(dead_tiles=dead_tiles, dead_links=dead_links)

    # ----------------------------------------------------------------- upsets

    def upset_occurs(self) -> bool:
        """Bernoulli(p_upset) draw for one packet traversing one live link."""
        return self.config.p_upset > 0.0 and self.rng.random() < self.config.p_upset

    def corrupt(self, payload: bytes) -> bytes:
        """Apply the configured error model to a payload known to be upset."""
        return self.error_model.corrupt(payload, self.rng)

    # --------------------------------------------------------------- overflow

    def overflow_occurs(self) -> bool:
        """Bernoulli(p_overflow) draw for one packet arriving at a buffer."""
        return (
            self.config.p_overflow > 0.0
            and self.rng.random() < self.config.p_overflow
        )

    # ------------------------------------------------------- synchronization

    def round_duration(self, nominal: float) -> float:
        """Draw one tile-round duration ``Normal(T_R, sigma*T_R)``, > 0.

        Truncated at 5 % of the nominal period: a physical round cannot take
        negative (or effectively zero) time regardless of clock drift.
        """
        if nominal <= 0.0:
            raise ValueError(f"nominal round duration must be > 0, got {nominal}")
        if self.config.sigma_synchr == 0.0:
            return nominal
        duration = self.rng.normal(nominal, self.config.sigma_synchr * nominal)
        return max(duration, 0.05 * nominal)
