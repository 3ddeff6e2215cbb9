"""``CertificationRunner`` — adaptive replicate sweeps that stop early.

Every fixed-repetition sweep answers a statistical question with a
guess: "3 repetitions looked fine".  The certification runner replaces
that guess with a sequential test: it drives *batches* of replicates
through the ordinary :class:`repro.runners.SweepRunner` (so replicates
parallelise, memoize, retry and record exactly like any sweep cell),
feeds each replicate's statistic into the claim's
:class:`~repro.stats.claims.SequentialTest` in replicate-index order,
and stops the moment the verdict is decided — or when the replicate
budget runs out, in which case the honest answer is
:attr:`~repro.stats.claims.Verdict.UNDECIDED`.

Determinism contract:

* replicate *i*'s seed is ``SeedSequence(base_seed).spawn()`` child *i*
  (:func:`repro.runners.spawn_seeds` over the whole budget up front), so
  it depends only on ``(base_seed, i)``;
* observations are consumed in replicate-index order regardless of
  completion order, so the decision trajectory — and therefore the
  :class:`Certificate` — is **bit-identical across worker counts and
  batch sizes**.  Larger batches may *execute* a few replicates past
  the stopping point (overrun is reported via the runner's counters and
  the ``n_executed`` return of :meth:`CertificationRunner.certify_detail`),
  but never consume them.

With a :class:`repro.service.ResultsDB` attached, every replicate is
written through as an ordinary task row under one campaign row spanning
all batches, and the final certificate lands in the ``certificates``
table with its full decision trajectory (``repro db query`` /
``repro db export --table certificates``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.runners import SimTask, SweepRunner, spawn_seeds
from repro.stats.claims import Claim, TrajectoryPoint, Verdict

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.service.db import ResultsDB

__all__ = ["Certificate", "CertificationRunner"]


@dataclass(frozen=True)
class Certificate:
    """The frozen, picklable record of one certification.

    Attributes:
        claim: the certified :class:`~repro.stats.claims.Claim` spec.
        verdict: terminal :class:`~repro.stats.claims.Verdict` value
            (``"accept"`` / ``"reject"`` / ``"undecided"``).
        n_observed: replicates the sequential test consumed before
            stopping (== budget for undecided verdicts).
        budget: the replicate ceiling the certification ran under.
        base_seed: root of the replicate ``SeedSequence``; together with
            the claim and task spec it pins the certificate bit-for-bit.
        trajectory: the full decision trajectory, one
            :class:`~repro.stats.claims.TrajectoryPoint` per consumed
            observation — enough to re-audit every stopping decision.
        label: free-form display tag (campaign cell name).

    The record deliberately excludes anything schedule-dependent
    (wall-clock, worker count, batch size), so certificates from
    serial, pooled and chunked runs compare equal.
    """

    claim: Claim
    verdict: Verdict
    n_observed: int
    budget: int
    base_seed: int | None
    trajectory: tuple[TrajectoryPoint, ...]
    label: str = ""

    @property
    def confidence(self) -> float:
        """The claim's accept-correctness guarantee (``1 - error``)."""
        return self.claim.confidence

    @property
    def final(self) -> TrajectoryPoint | None:
        """The last trajectory step (None for an empty trajectory)."""
        return self.trajectory[-1] if self.trajectory else None

    def to_json_dict(self) -> dict:
        """Deterministic JSON form (feeds ``certificates`` rows)."""
        return {
            "claim": self.claim.to_json_dict(),
            "verdict": self.verdict.value,
            "confidence": self.confidence,
            "n_observed": self.n_observed,
            "budget": self.budget,
            "base_seed": self.base_seed,
            "label": self.label,
            "trajectory": [point.to_json_dict() for point in self.trajectory],
        }


class _Decision:
    """The shared observation-consumption core of sync and async paths.

    Holds the fresh sequential test plus the trajectory, and consumes
    one ordered batch of task outcomes at a time — stopping mid-batch
    the moment the verdict decides, so batch size never changes what
    the test sees.
    """

    def __init__(self, claim: Claim) -> None:
        from repro.metrics import extract_statistic

        self.claim = claim
        self.test = claim.test()
        self.trajectory: list[TrajectoryPoint] = []
        self._extract = extract_statistic

    @property
    def decided(self) -> bool:
        return self.test.verdict.decided

    def consume(self, outcomes: list[Any]) -> None:
        """Feed `outcomes` (in replicate order) until decided."""
        for outcome in outcomes:
            if self.decided:
                break
            value = self._extract(self.claim.metric, outcome)
            self.trajectory.append(self.test.update(value))

    def certificate(
        self, *, budget: int, base_seed: int | None, label: str
    ) -> Certificate:
        """Freeze the current state into a :class:`Certificate`."""
        return Certificate(
            claim=self.claim,
            verdict=self.test.verdict,
            n_observed=len(self.trajectory),
            budget=budget,
            base_seed=base_seed,
            trajectory=tuple(self.trajectory),
            label=label,
        )


class CertificationRunner:
    """Certifies claims by sequential testing over adaptive sweeps.

    Args:
        runner: the :class:`~repro.runners.SweepRunner` replicate
            batches execute on; ``None`` builds a serial one.  Its
            cache/DB/retry settings apply to every replicate.
        batch_size: replicates submitted per :meth:`SweepRunner.run`
            call.  Pure throughput plumbing: larger batches keep more
            workers busy but may overrun the stopping point by more
            executed-but-unconsumed replicates.  Never changes the
            verdict or trajectory.
        max_replicates: the replicate budget; a test still undecided
            after this many observations certifies ``UNDECIDED``.
        base_seed: root seed for replicate seeding (overridable per
            :meth:`certify` call).
        db: where certificates (and, via the runner, replicate tasks)
            are recorded — a :class:`repro.service.ResultsDB` or a path.
            Defaults to the runner's own ``db``; when the runner has
            none, the store is attached to it so task write-through and
            certificate rows land in the same database.
    """

    def __init__(
        self,
        runner: SweepRunner | None = None,
        *,
        batch_size: int = 8,
        max_replicates: int = 64,
        base_seed: int | None = 0,
        db: "ResultsDB | str | None" = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_replicates < 1:
            raise ValueError(
                f"max_replicates must be >= 1, got {max_replicates}"
            )
        self.runner = runner if runner is not None else SweepRunner()
        self.batch_size = batch_size
        self.max_replicates = max_replicates
        self.base_seed = base_seed
        if db is not None and not hasattr(db, "record_certificate"):
            from repro.service.db import as_results_db

            db = as_results_db(db)
        if db is not None and self.runner.db is None:
            self.runner.db = db
        self.db = db if db is not None else self.runner.db

    # ------------------------------------------------------------- planning

    def _tasks(
        self,
        fn: Callable[..., Any] | str,
        params: Mapping[str, Any],
        seeds: list[int] | None,
        start: int,
        stop: int,
        label: str,
    ) -> list[SimTask]:
        """Replicate tasks `start..stop`, seeded by replicate index."""
        if not isinstance(fn, str):
            fn = SimTask.call(fn).fn  # validates module-level picklability
        return [
            SimTask(
                fn=fn,
                params=dict(params),
                seed=seeds[i] if seeds is not None else None,
                label=f"{label} rep={i}" if label else f"rep={i}",
            )
            for i in range(start, stop)
        ]

    def _seeds(self, base_seed: int | None) -> list[int] | None:
        """Every replicate seed up front, a function of index only."""
        if base_seed is None:
            return None
        return spawn_seeds(base_seed, self.max_replicates)

    # ------------------------------------------------------------------ api

    def certify(
        self,
        claim: Claim,
        fn: Callable[..., Any] | str,
        params: Mapping[str, Any] | None = None,
        *,
        label: str = "",
        base_seed: int | None = None,
        run_label: str | None = None,
    ) -> Certificate:
        """Certify `claim` over replicates of ``fn(**params, seed=...)``.

        Batches run until the claim's sequential test decides or the
        budget is exhausted.  Returns the :class:`Certificate`; when a
        results database is attached, the certificate row (and one
        campaign row spanning every replicate batch) is recorded there.

        Args:
            claim: the claim spec to certify.
            fn: the replicate task function (module-level callable or
                ``"module:function"`` string), called with `params` plus
                a ``seed=`` keyword.
            params: keyword arguments of every replicate.
            label: display tag stored on tasks and the certificate.
            base_seed: overrides the runner-level replicate seed root.
            run_label: campaign-row label (defaults to `label`).
        """
        params = dict(params or {})
        seed_root = self.base_seed if base_seed is None else base_seed
        seeds = self._seeds(seed_root)
        decision = _Decision(claim)

        db = self.db
        run_id = (
            db.begin_run(
                label=run_label if run_label is not None else label,
                n_tasks=0,
            )
            if db is not None
            else None
        )
        executed = 0
        try:
            for start in range(0, self.max_replicates, self.batch_size):
                if decision.decided:
                    break
                stop = min(start + self.batch_size, self.max_replicates)
                batch = self._tasks(fn, params, seeds, start, stop, label)
                outcomes = self.runner.run(
                    batch, run_id=run_id, index_base=start
                )
                executed = stop
                decision.consume(outcomes)
        except BaseException:
            if db is not None:
                db.finish_run(run_id, status="failed", n_tasks=executed)
            raise
        certificate = decision.certificate(
            budget=self.max_replicates, base_seed=seed_root, label=label
        )
        if db is not None:
            db.record_certificate(certificate, run_id=run_id)
            db.finish_run(run_id, status="completed", n_tasks=executed)
        return certificate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CertificationRunner(batch_size={self.batch_size}, "
            f"max_replicates={self.max_replicates}, "
            f"base_seed={self.base_seed})"
        )
