"""Experiment harnesses — one module per thesis figure.

Every module exposes a ``run(...)`` returning plain dataclasses/dicts with
the same series the thesis plots; the benchmarks in ``benchmarks/`` time
these harnesses, and EXPERIMENTS.md records their output against the
paper's numbers.  Parameters default to fast, CI-friendly sizes; pass
larger values to approach the thesis' settings.

Execution convention
--------------------

Every sweep-running entry point takes one keyword-only execution
argument::

    run(..., options=ExperimentOptions(n_workers=4, cache_dir="cache"))

:class:`repro.experiments.common.ExperimentOptions` bundles every
execution knob — ``n_workers`` (process fan-out; results are
bit-identical for any worker count), ``runner`` (a pre-built, shared
:class:`repro.runners.SweepRunner`), ``cache_dir`` (on-disk result
memoization), ``db`` (a :class:`repro.service.ResultsDB` write-through
record), and, on harnesses that support them, ``backend`` and
``collect_metrics`` (see ``docs/runners.md``).

Options are pure execution plumbing: they never enter task cache keys,
and harnesses embed their historical per-repetition seed formulas in the
submitted tasks, so routed results match the original serial loops
exactly — the reproduced numbers do not change.
"""

from repro.experiments import (
    certify,
    chaos,
    fig3_1,
    fig4_4,
    fig4_5,
    fig4_6,
    fig4_8,
    fig4_9,
    fig4_10,
    fig4_11,
    fig5_3,
    grid_spread,
    islands,
    link_crashes,
    plots,
    policy_compare,
    protocol_frontier,
    report,
)

__all__ = [
    "certify",
    "chaos",
    "fig3_1",
    "fig4_4",
    "fig4_5",
    "fig4_6",
    "fig4_8",
    "fig4_9",
    "fig4_10",
    "fig4_11",
    "fig5_3",
    "grid_spread",
    "islands",
    "link_crashes",
    "plots",
    "policy_compare",
    "protocol_frontier",
    "report",
]
