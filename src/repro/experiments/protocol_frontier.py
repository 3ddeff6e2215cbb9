"""Protocol frontier: paired head-to-head comparison of spreading rules.

:mod:`repro.experiments.policy_compare` sweeps forwarding *policies*
(per-port coin variants of the thesis' push gossip).  This harness
widens the race to genuinely different *protocols*:

* **bernoulli** — the thesis' push gossip (Bernoulli(p) per port);
* **push_pull** — Doerr-style rumor spreading where uninformed tiles
  also pull from a random neighbor each round
  (:class:`repro.policies.PushPullPolicy`);
* **push_pull + feedback** — the same with feedback termination: a tile
  stops pushing a message after ``feedback_k`` duplicate
  acknowledgements (:class:`repro.policies.FeedbackTermination`);
* **adaptive_route** — the deterministic fault-tolerant adaptive-routing
  baseline (:class:`repro.policies.AdaptiveRoutePolicy`), the
  non-stochastic strawman the paper argues against.

Every (protocol, fault level, repetition) cell runs the same
broadcast-saturation workload on the same engine, faults and energy
model.  Repetitions at matched fault levels share seeds (common random
numbers), so protocols face *identical* upset streams and crash maps and
the comparison is paired, not just averaged.  Cells report coverage,
completion/deadline rates, saturation latency, link transmissions,
pull-request control traffic and Eq. 3 energy.

:func:`certify_frontier` extends the PR 5/PR 8 certified
chaos-tolerance envelope to every protocol: each
(protocol, scenario kind, intensity) cell carries an SPRT-decided
:class:`repro.stats.BernoulliClaim`, so "push-pull tolerates burst
upsets the baseline does not" becomes a claim with explicit error
bounds instead of a point estimate.  ``repro frontier`` is the CLI
face; ``docs/protocols-frontier.md`` walks through the methodology and
a worked example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.chaos import scenario_for
from repro.experiments.common import (
    ExperimentOptions,
    backend_params,
    resolve_options,
)
from repro.experiments.grid_spread import _BroadcastSeed
from repro.experiments.policy_compare import _draw_dead_links
from repro.faults import CrashPlan, FaultConfig
from repro.noc.engine import NocSimulator
from repro.noc.topology import Mesh2D
from repro.policies import PolicySpec
from repro.runners import SimTask, spawn_seeds
from repro.stats import BernoulliClaim, Certificate, CertificationRunner, Verdict

#: The default protocol lineup, by spec (order = presentation order).
DEFAULT_PROTOCOLS: tuple[PolicySpec, ...] = (
    PolicySpec.of("bernoulli", forward_probability=0.5),
    PolicySpec.of("push_pull"),
    PolicySpec.of("push_pull", feedback_k=2),
    PolicySpec.of("adaptive_route"),
)


@dataclass(frozen=True)
class FrontierPoint:
    """One (protocol, fault axis, fault level) cell of the comparison.

    Attributes:
        protocol: the protocol spec's display name.
        fault: swept axis — "upset" or "link_crash".
        level: the axis value (a probability, or a dead-link count).
        coverage: mean fraction of tiles informed at the end.
        completion_rate: fraction of repetitions reaching full coverage
            within the round budget.
        deadline_rate: fraction of repetitions reaching full coverage
            within ``deadline_rounds`` — the real-time view of latency.
        rounds: mean rounds to saturation (budget when not reached).
        transmissions: mean attempted link transmissions (pushes).
        pull_requests: mean pull-request control packets (zero for
            push-only protocols).
        energy_j: mean communication energy (Eq. 3), pulls included.
        time_s: mean wall-clock latency.
        repetitions: Monte-Carlo repetitions behind the means.
    """

    protocol: str
    fault: str
    level: float
    coverage: float
    completion_rate: float
    deadline_rate: float
    rounds: float
    transmissions: float
    pull_requests: float
    energy_j: float
    time_s: float
    repetitions: int


@dataclass(frozen=True)
class FrontierReport:
    """A full frontier campaign: the paired comparison grid.

    Attributes:
        points: one :class:`FrontierPoint` per (protocol, axis, level),
            protocols in lineup order within each axis.
        deadline_rounds: the round budget behind ``deadline_rate``.
    """

    points: tuple[FrontierPoint, ...]
    deadline_rounds: int


def _frontier_once(
    side: int,
    spec: PolicySpec,
    p_upset: float,
    n_dead_links: int,
    max_rounds: int,
    seed: int,
    backend: str = "object",
) -> dict[str, float]:
    """One broadcast-saturation run of `spec` under one fault setting."""
    topology = Mesh2D(side, side)
    crash_plan = None
    if n_dead_links:
        crash_plan = CrashPlan(
            dead_links=_draw_dead_links(topology, n_dead_links, seed)
        )
    simulator = NocSimulator(
        topology,
        spec,
        FaultConfig(p_upset=p_upset),
        seed=seed,
        default_ttl=max_rounds,
        crash_plan=crash_plan,
        backend=backend,
    )
    simulator.mount(0, _BroadcastSeed(ttl=max_rounds))
    n = topology.n_tiles
    result = simulator.run(
        max_rounds, until=lambda sim: len(sim.informed_tiles()) == n
    )
    stats = result.stats
    return {
        "coverage": len(simulator.informed_tiles()) / n,
        "completed": float(result.completed),
        "rounds": float(result.rounds),
        "transmissions": float(stats.transmissions_attempted),
        "pull_requests": float(stats.pull_requests),
        "energy_j": stats.energy_j,
        "time_s": result.time_s,
    }


def _plan(
    protocols: tuple[PolicySpec, ...],
    upset_rates: tuple[float, ...],
    link_crash_counts: tuple[int, ...],
    repetitions: int,
    seed: int,
) -> list[tuple[PolicySpec, str, float, dict, int, int]]:
    """The flat task plan: ``(spec, fault, level, overrides, rep, seed)``.

    Deterministic and pure — tests assert the pairing property on it
    directly: every protocol at a matched ``(fault, level, rep)`` gets
    the *same* task seed, hence the same upset stream and crash map.
    """
    plan: list[tuple[PolicySpec, str, float, dict, int, int]] = []
    for level in upset_rates:
        for spec in protocols:
            for rep in range(repetitions):
                plan.append(
                    (spec, "upset", level, {"p_upset": level}, rep, seed + rep)
                )
    for count in link_crash_counts:
        for spec in protocols:
            for rep in range(repetitions):
                plan.append(
                    (
                        spec,
                        "link_crash",
                        float(count),
                        {"n_dead_links": count},
                        rep,
                        seed + rep,
                    )
                )
    return plan


def _aggregate(
    spec: PolicySpec,
    fault: str,
    level: float,
    outcomes: list[dict[str, float]],
    deadline_rounds: int,
) -> FrontierPoint:
    def mean(field: str) -> float:
        return float(np.mean([outcome[field] for outcome in outcomes]))

    # Deadline behavior is derived at aggregation time, so the deadline
    # knob never enters task cache keys — re-running with a different
    # deadline reuses every cached replicate.
    deadline_hits = [
        bool(outcome["completed"]) and outcome["rounds"] <= deadline_rounds
        for outcome in outcomes
    ]
    return FrontierPoint(
        protocol=spec.name,
        fault=fault,
        level=level,
        coverage=mean("coverage"),
        completion_rate=mean("completed"),
        deadline_rate=float(np.mean(deadline_hits)),
        rounds=mean("rounds"),
        transmissions=mean("transmissions"),
        pull_requests=mean("pull_requests"),
        energy_j=mean("energy_j"),
        time_s=mean("time_s"),
        repetitions=len(outcomes),
    )


def run(
    side: int = 4,
    protocols: tuple[PolicySpec, ...] = DEFAULT_PROTOCOLS,
    upset_rates: tuple[float, ...] = (0.0, 0.2, 0.4),
    link_crash_counts: tuple[int, ...] = (4, 8),
    repetitions: int = 5,
    seed: int = 0,
    max_rounds: int = 48,
    deadline_rounds: int | None = None,
    *,
    options: ExperimentOptions | None = None,
) -> FrontierReport:
    """Race every protocol against every fault axis (one flat task batch).

    The axes are swept one at a time from a fault-free baseline: the
    "upset" axis varies ``p_upset`` alone, "link_crash" kills that many
    randomly chosen directed links.  Repetition ``r`` sees task seed
    ``seed + r`` under *every* protocol (common random numbers), so each
    cell row is a paired observation.

    Args:
        side: mesh side length.
        protocols: the protocol lineup, as :class:`PolicySpec` entries.
        upset_rates: swept ``p_upset`` levels (0.0 = clean baseline).
        link_crash_counts: swept dead-link counts.
        repetitions: Monte-Carlo repetitions per cell.
        seed: seed root; repetition ``r`` runs at ``seed + r``.
        max_rounds: per-run round budget.
        deadline_rounds: the soft real-time deadline behind
            ``deadline_rate`` (defaults to ``max_rounds``, making
            ``deadline_rate`` coincide with ``completion_rate``).
        options: execution options (workers, cache, backend, database).

    Returns:
        The :class:`FrontierReport` with one point per (protocol, axis,
        level).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if deadline_rounds is None:
        deadline_rounds = max_rounds
    if deadline_rounds < 1:
        raise ValueError(f"deadline_rounds must be >= 1, got {deadline_rounds}")
    opts = resolve_options(options, supports=("backend",))
    backend = opts.backend
    sweep = opts.make_runner()

    plan = _plan(protocols, upset_rates, link_crash_counts, repetitions, seed)
    tasks = [
        SimTask.call(
            _frontier_once,
            side=side,
            spec=spec,
            p_upset=overrides.get("p_upset", 0.0),
            n_dead_links=overrides.get("n_dead_links", 0),
            max_rounds=max_rounds,
            seed=task_seed,
            label=f"frontier {spec.name} {fault}={level} rep={rep}",
            **backend_params(backend),
        )
        for spec, fault, level, overrides, rep, task_seed in plan
    ]
    outcomes = sweep.run(tasks)

    points = []
    for index in range(0, len(plan), repetitions):
        spec, fault, level, _, _, _ = plan[index]
        points.append(
            _aggregate(
                spec,
                fault,
                level,
                outcomes[index:index + repetitions],
                deadline_rounds,
            )
        )
    return FrontierReport(
        points=tuple(points), deadline_rounds=deadline_rounds
    )


def format_table(report: FrontierReport) -> str:
    """Render the paired comparison as an aligned table grouped by axis."""
    points = report.points
    lines = [
        f"protocol frontier (deadline = {report.deadline_rounds} rounds)"
    ]
    header = (
        f"{'protocol':<30} {'level':>7} {'coverage':>9} {'complete':>9} "
        f"{'deadline':>9} {'rounds':>7} {'transmit':>9} {'pulls':>7} "
        f"{'energy_J':>10}"
    )
    for fault in dict.fromkeys(point.fault for point in points):
        lines.append(f"--- fault axis: {fault} ---")
        lines.append(header)
        for point in points:
            if point.fault != fault:
                continue
            lines.append(
                f"{point.protocol:<30} {point.level:>7g} "
                f"{point.coverage:>9.2%} {point.completion_rate:>9.2%} "
                f"{point.deadline_rate:>9.2%} {point.rounds:>7.1f} "
                f"{point.transmissions:>9.0f} {point.pull_requests:>7.0f} "
                f"{point.energy_j:>10.3e}"
            )
    return "\n".join(lines)


# --------------------------------------------------------- certified frontier


def _frontier_chaos_once(
    kind: str,
    intensity: float,
    spec: PolicySpec,
    side: int,
    seed: int,
    max_rounds: int,
    backend: str = "object",
) -> tuple:
    """One broadcast run of `spec` under one chaos-scenario cell.

    Returns ``(completed, rounds, coverage_fraction)`` — the same shape
    as :func:`repro.experiments.chaos._chaos_once`, so the certified
    claims extract ``coverage`` the same way.
    """
    topology = Mesh2D(side, side)
    n = topology.n_tiles
    simulator = NocSimulator(
        topology,
        spec,
        seed=seed,
        default_ttl=max_rounds,
        scenario=scenario_for(kind, intensity),
        backend=backend,
    )
    simulator.mount(0, _BroadcastSeed(ttl=max_rounds))
    result = simulator.run(
        max_rounds, until=lambda sim: len(sim.informed_tiles()) == n
    )
    return result.completed, result.rounds, len(simulator.informed_tiles()) / n


@dataclass(frozen=True)
class FrontierCell:
    """One ``(protocol, kind, intensity)`` cell's certified verdict.

    Attributes:
        protocol: the protocol spec's display name.
        kind: scenario axis (see :data:`repro.experiments.chaos.CHAOS_AXES`).
        intensity: the swept scenario intensity.
        certificate: the full :class:`repro.stats.Certificate`.
    """

    protocol: str
    kind: str
    intensity: float
    certificate: Certificate

    @property
    def verdict(self) -> Verdict:
        """The cell's terminal verdict (accept / reject / undecided)."""
        return self.certificate.verdict


@dataclass(frozen=True)
class FrontierEnvelope:
    """Certified chaos-tolerance envelopes, one per protocol.

    Attributes:
        cells: one :class:`FrontierCell` per (protocol, kind, intensity).
        coverage_target: per-run coverage bar of the certified claims.
        claim: the claim template every cell ran.
        thresholds: per protocol then kind, the largest intensity whose
            claim was **accepted** (``None`` when no level certified) —
            the protocols' tolerance envelopes, side by side.
    """

    cells: tuple[FrontierCell, ...]
    coverage_target: float
    claim: BernoulliClaim
    thresholds: dict[str, dict[str, float | None]]


def certify_frontier(
    protocols: tuple[PolicySpec, ...] = DEFAULT_PROTOCOLS,
    kinds: tuple[str, ...] = ("burst_upsets",),
    levels: tuple[float, ...] = (0.0, 0.5, 0.9),
    side: int = 4,
    seed: int = 0,
    max_rounds: int = 96,
    coverage_target: float = 0.99,
    target: float = 0.9,
    indifference: float = 0.2,
    alpha: float = 0.05,
    beta: float = 0.05,
    batch_size: int = 8,
    max_replicates: int = 64,
    *,
    options: ExperimentOptions | None = None,
) -> FrontierEnvelope:
    """Certify every protocol's chaos-tolerance envelope cell by cell.

    For each (protocol, kind, intensity) cell, certifies the Bernoulli
    claim "P(final coverage >= `coverage_target`) >= `target`" by SPRT
    over adaptive replicate batches — the per-protocol analogue of
    :func:`repro.experiments.certify.certify_chaos_envelope`, sharing
    its claim construction and seeding discipline, so envelopes are
    bit-identical across worker counts and batch sizes.

    Returns:
        The :class:`FrontierEnvelope` with per-protocol certified
        thresholds; with a results database attached the per-cell
        certificates land in its ``certificates`` table.
    """
    for kind in kinds:
        scenario_for(kind, 0.0)  # validate axes before paying for runs
    opts = resolve_options(options, supports=("backend",))
    sweep = opts.make_runner()
    certifier = CertificationRunner(
        sweep, batch_size=batch_size, max_replicates=max_replicates
    )
    claim = BernoulliClaim(
        metric=f"coverage>={coverage_target}",
        target=target,
        indifference=indifference,
        alpha=alpha,
        beta=beta,
    )
    grid = [
        (spec, kind, level)
        for spec in protocols
        for kind in kinds
        for level in levels
    ]
    cell_seeds = spawn_seeds(seed, len(grid))
    cells: list[FrontierCell] = []
    for (spec, kind, level), cell_seed in zip(grid, cell_seeds):
        certificate = certifier.certify(
            claim,
            "repro.experiments.protocol_frontier:_frontier_chaos_once",
            {
                "kind": kind,
                "intensity": level,
                "spec": spec,
                "side": side,
                "max_rounds": max_rounds,
                "backend": opts.backend,
            },
            label=f"frontier {spec.name} {kind} intensity={level}",
            base_seed=cell_seed,
        )
        cells.append(
            FrontierCell(
                protocol=spec.name,
                kind=kind,
                intensity=level,
                certificate=certificate,
            )
        )
    thresholds: dict[str, dict[str, float | None]] = {}
    for spec in protocols:
        per_kind: dict[str, float | None] = {}
        for kind in kinds:
            accepted = [
                cell.intensity
                for cell in cells
                if cell.protocol == spec.name
                and cell.kind == kind
                and cell.verdict is Verdict.ACCEPT
            ]
            per_kind[kind] = max(accepted) if accepted else None
        thresholds[spec.name] = per_kind
    return FrontierEnvelope(
        cells=tuple(cells),
        coverage_target=coverage_target,
        claim=claim,
        thresholds=thresholds,
    )


def format_envelope(envelope: FrontierEnvelope) -> str:
    """Render the per-protocol certified envelopes as a text report."""
    claim = envelope.claim
    lines = [
        "certified protocol-frontier envelope",
        f"  claim per cell: P(coverage >= {envelope.coverage_target}) "
        f">= {claim.target} (vs <= {claim.p0:g}, "
        f"alpha={claim.alpha}, beta={claim.beta})",
        "",
        f"  {'protocol':<30} {'scenario':<14} {'intensity':>9} "
        f"{'verdict':>9} {'replicates':>10}",
    ]
    for cell in envelope.cells:
        certificate = cell.certificate
        lines.append(
            f"  {cell.protocol:<30} {cell.kind:<14} {cell.intensity:>9.2f} "
            f"{certificate.verdict.value:>9} "
            f"{certificate.n_observed:>4}/{certificate.budget:<5}"
        )
    lines.append("")
    lines.append("  certified thresholds (largest accepted intensity):")
    for protocol, per_kind in envelope.thresholds.items():
        for kind, threshold in per_kind.items():
            shown = "none accepted" if threshold is None else f"{threshold:.2f}"
            lines.append(f"    {protocol:<30} {kind:<14} {shown}")
    return "\n".join(lines) + "\n"
