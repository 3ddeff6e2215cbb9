"""Certified tolerance envelopes: the chaos campaign, with error bars.

:mod:`repro.experiments.chaos` reads its tolerance thresholds off mean
coverage over a handful of repetitions — a point estimate with no
statement of confidence.  This harness re-derives the same envelope as
*certified* claims: each ``(kind, intensity)`` cell carries a
:class:`repro.stats.BernoulliClaim` — "a run reaches coverage >=
``coverage_target`` with probability >= ``target``" — decided by Wald's
SPRT over adaptive replicate batches, so every cell verdict comes with
an explicit error guarantee (alpha / beta) and the replicate spend
adapts to how clear-cut the cell is (crisp cells decide in a few runs,
boundary cells use the budget).

The per-kind threshold is then the largest intensity whose claim was
*accepted* — the statistically certified analogue of the thesis'
"~70 % upset tolerance" (Ch. 4).  ``repro certify`` is the CLI face;
``docs/stats.md`` walks through the statistics.

Determinism: cell *i* draws its replicate seed root from
``spawn_seeds(seed, n_cells)[i]``, and every cell certification is
bit-identical across worker counts and batch sizes (see
:mod:`repro.stats.certify`), so the whole envelope is a pure function
of ``(seed, grid, claim parameters)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.chaos import CHAOS_AXES, scenario_for
from repro.experiments.common import ExperimentOptions, resolve_options
from repro.runners import spawn_seeds
from repro.stats import BernoulliClaim, Certificate, CertificationRunner, Verdict

#: The default intensity grid — matches the chaos campaign's sweep.
DEFAULT_LEVELS = (0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0)


@dataclass(frozen=True)
class CertifiedCell:
    """One ``(kind, intensity)`` cell's certified verdict.

    Attributes:
        kind: scenario axis (one of :data:`repro.experiments.chaos.CHAOS_AXES`).
        intensity: the swept scenario intensity.
        certificate: the full :class:`repro.stats.Certificate` — verdict,
            replicate count, decision trajectory.
    """

    kind: str
    intensity: float
    certificate: Certificate

    @property
    def verdict(self) -> Verdict:
        """The cell's terminal verdict (accept / reject / undecided)."""
        return self.certificate.verdict


@dataclass(frozen=True)
class CertifiedEnvelope:
    """A certified tolerance envelope over the scenario grid.

    Attributes:
        cells: one :class:`CertifiedCell` per swept ``(kind, intensity)``.
        coverage_target: per-run coverage bar of the certified claims.
        claim: the (intensity-independent) claim template every cell ran.
        thresholds: per kind, the largest intensity whose claim was
            **accepted** (``None`` when no level was certified) — the
            certified counterpart of :attr:`ChaosReport.thresholds`.
    """

    cells: tuple[CertifiedCell, ...]
    coverage_target: float
    claim: BernoulliClaim
    thresholds: dict[str, float | None]


def certify_chaos_envelope(
    kinds: tuple[str, ...] = CHAOS_AXES,
    levels: tuple[float, ...] = DEFAULT_LEVELS,
    side: int = 4,
    forward_probability: float = 0.75,
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
) -> CertifiedEnvelope:
    """Certify the dynamic tolerance envelope cell by cell.

    For every ``(kind, intensity)`` cell, certifies the Bernoulli claim
    "P(final coverage >= `coverage_target`) >= `target`" (indifference
    band `indifference`, SPRT errors `alpha`/`beta`) over adaptive
    batches of seeded broadcast replicates, reusing the chaos harness'
    task function so certified cells share cache entries with ordinary
    campaigns at equal parameters.

    Args:
        kinds: scenario axes to certify.
        levels: intensity grid per axis.
        side: mesh side length.
        forward_probability: the protocol's forwarding probability.
        seed: envelope seed root; cell replicate seeds derive from it.
        max_rounds: per-run round budget.
        coverage_target: per-run coverage bar (the indicator threshold).
        target: claimed per-run success probability.
        indifference: SPRT indifference band below `target`.
        alpha: false-accept bound.
        beta: false-reject bound.
        batch_size: replicates per sweep batch (throughput only).
        max_replicates: per-cell replicate budget.
        options: execution options (workers, cache, backend, results
            database).

    Returns:
        The :class:`CertifiedEnvelope`; with a results database attached
        the per-cell certificates land in its ``certificates`` table.
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
    grid = [(kind, level) for kind in kinds for level in levels]
    cell_seeds = spawn_seeds(seed, len(grid))
    cells: list[CertifiedCell] = []
    for (kind, level), cell_seed in zip(grid, cell_seeds):
        label = f"certify {kind} intensity={level}"
        certificate = certifier.certify(
            claim,
            "repro.experiments.chaos:_chaos_once",
            {
                "kind": kind,
                "intensity": level,
                "forward_probability": forward_probability,
                "side": side,
                "max_rounds": max_rounds,
                "backend": opts.backend,
            },
            label=label,
            base_seed=cell_seed,
        )
        cells.append(
            CertifiedCell(kind=kind, intensity=level, certificate=certificate)
        )
    thresholds: dict[str, float | None] = {}
    for kind in kinds:
        accepted = [
            cell.intensity
            for cell in cells
            if cell.kind == kind and cell.verdict is Verdict.ACCEPT
        ]
        thresholds[kind] = max(accepted) if accepted else None
    return CertifiedEnvelope(
        cells=tuple(cells),
        coverage_target=coverage_target,
        claim=claim,
        thresholds=thresholds,
    )


def format_envelope(envelope: CertifiedEnvelope) -> str:
    """Render a certified envelope as the plain-text report."""
    claim = envelope.claim
    lines = [
        "certified tolerance envelope",
        f"  claim per cell: P(coverage >= {envelope.coverage_target}) "
        f">= {claim.target} (vs <= {claim.p0:g}, "
        f"alpha={claim.alpha}, beta={claim.beta})",
        "",
        f"  {'scenario':<14} {'intensity':>9} {'verdict':>9} "
        f"{'replicates':>10} {'confidence':>10}",
    ]
    for cell in envelope.cells:
        certificate = cell.certificate
        lines.append(
            f"  {cell.kind:<14} {cell.intensity:>9.2f} "
            f"{certificate.verdict.value:>9} "
            f"{certificate.n_observed:>4}/{certificate.budget:<5} "
            f"{certificate.confidence:>10.2f}"
        )
    lines.append("")
    lines.append(
        "  certified thresholds (largest accepted intensity; "
        "static envelope: ~0.7 upset / ~0.8 overflow):"
    )
    for kind, threshold in envelope.thresholds.items():
        shown = "none accepted" if threshold is None else f"{threshold:.2f}"
        lines.append(f"    {kind:<14} {shown}")
    return "\n".join(lines) + "\n"
