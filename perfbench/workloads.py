"""The three benchmark workloads, their output checks and their probes.

Each workload runs *cycles*: a fixed batch of operations whose inputs
derive from the workload seed and the cycle's input index, timed from the
outside through public entry points only.  A cycle returns its timings,
the simulated rounds it delivered, the per-layer counters the results
carry and the output checks that failed.  Checks run after the timed
body: per cycle, the result invariants, the seed-0 reference digest and
traced-equals-untraced; once per run, :meth:`Workload.finish` re-runs a
sampled operation another way (a lone fig4_8 cell, an object-engine
broadcast) and compares.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from spans import Tracer

#: Default workload seed: its first cycle must reproduce `reference.json`.
DEFAULT_SEED = 0

REFERENCE = Path(__file__).with_name("reference.json")


def canonical(value: Any) -> Any:
    """A repr-stable, address-free rendering of a result for digests."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            [
                (f.name, canonical(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ],
        )
    if isinstance(value, dict):
        return sorted((repr(k), canonical(v)) for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return sorted(repr(canonical(v)) for v in value)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [str(value.dtype), value.tolist()]
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return int(value)
    return value


def digest(value: Any) -> str:
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()


def executed_rounds(completed: bool, rounds: int) -> int:
    """Rounds a run simulated: a completing round index counts as a round."""
    return rounds + 1 if completed else rounds


@dataclass
class Cycle:
    """One timed cycle's measurements and the failures its checks found."""

    wall_s: float
    ops: int
    rounds: int
    samples: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)
    digest: str = ""


@dataclass
class RunRecord:
    """One ``SweepRunner.run`` call seen by the capture probe."""

    runner: Any
    tasks: list
    completions: list = field(default_factory=list)
    wall_s: float = 0.0


def _capture_results(sink: list):
    """Probe on ``NocSimulator.run`` keeping every returned result."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            result = fn(self, *args, **kwargs)
            sink.append(result)
            return result

        return run

    return make


def _capture_sweeps(sink: list[RunRecord]):
    """Probe on ``SweepRunner.run`` keeping its tasks and completions."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run(self, tasks, *, on_result=None, **kwargs):
            record = RunRecord(self, list(tasks))
            sink.append(record)

            def collect(completion) -> None:
                record.completions.append(completion)
                if on_result is not None:
                    on_result(completion)

            start = perf_counter()
            try:
                return fn(self, record.tasks, on_result=collect, **kwargs)
            finally:
                record.wall_s = perf_counter() - start

        return run

    return make


def runner_counters(records: list[RunRecord]) -> dict[str, float]:
    """Runner-layer counters summed over the runners a cycle used."""
    counters = {
        "runners.task_exec_s": 0.0,
        "runners.busy_capacity_s": 0.0,
        "runners.tasks_executed": 0,
        "runners.cache_hits": 0,
        "runners.tasks_retried": 0,
        "runners.pool_rebuilds": 0,
        "runners.tasks_poisoned": 0,
    }
    for record in records:
        counters["runners.task_exec_s"] += sum(
            c.duration_s for c in record.completions if c.duration_s is not None
        )
        counters["runners.busy_capacity_s"] += (
            record.wall_s * record.runner.n_workers
        )
    for runner in {id(r.runner): r.runner for r in records}.values():
        for name in (
            "tasks_executed",
            "cache_hits",
            "tasks_retried",
            "pool_rebuilds",
            "tasks_poisoned",
        ):
            counters[f"runners.{name}"] += getattr(runner, name)
    return counters


def sim_counters(results: list) -> dict[str, float]:
    """Engine and fault counters summed over `SimulationResult`s."""
    return {
        "noc.transmissions": sum(r.stats.transmissions_delivered for r in results),
        "faults.upsets_injected": sum(r.stats.upsets_injected for r in results),
        "faults.upsets_escaped": sum(r.stats.upsets_escaped for r in results),
    }


class Workload:
    """Base: seeds, per-cycle bookkeeping and the seed-0 reference check."""

    name = ""

    def __init__(self, seed: int, work: Path, tracer: Tracer) -> None:
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.digests: dict[int, str] = {}

    def captures(self) -> list:
        """Probes kept in place for the whole run (traced or not)."""
        return []

    def cycle(self, inputs: int) -> Cycle:
        raise NotImplementedError

    def finish(self) -> list[tuple[str, str]]:
        """Cross-cycle checks, run once after the timed loop."""
        return []

    def check_reference(self, inputs: int, cycle: Cycle) -> None:
        """Cycles with the same inputs agree; seed 0 matches the reference."""
        if inputs in self.digests:
            if self.digests[inputs] != cycle.digest:
                cycle.failures.append(
                    (f"cycle{inputs}", "traced and untraced cycles differ")
                )
            return
        self.digests[inputs] = cycle.digest
        if self.seed == DEFAULT_SEED and inputs == 0:
            expected = json.loads(REFERENCE.read_text())[self.name]
            if cycle.digest != expected:
                cycle.failures.append(
                    (
                        "cycle0",
                        f"reference digest mismatch: {cycle.digest} != {expected}",
                    )
                )

    @staticmethod
    def setup_probe(work: Path) -> None:
        raise NotImplementedError


# ------------------------------------------------------------- mp3_upsets


class Mp3Upsets(Workload):
    """``fig4_8.run`` on its default grid: serial, object engine, no cache."""

    name = "mp3_upsets"
    GRID = [(p, u) for p in (1.0, 0.75, 0.5, 0.25) for u in (0.0, 0.3, 0.6)]

    def __init__(self, seed: int, work: Path, tracer: Tracer) -> None:
        super().__init__(seed, work, tracer)
        self.sims: list = []
        self.sweeps: list[RunRecord] = []
        self.first: tuple[int, list] | None = None

    def captures(self) -> list:
        from repro.noc.engine import NocSimulator
        from repro.runners import SweepRunner

        return [
            (NocSimulator, "run", _capture_results(self.sims)),
            (SweepRunner, "run", _capture_sweeps(self.sweeps)),
        ]

    def op_seed(self, inputs: int) -> int:
        return self.seed * 1000 + inputs

    @staticmethod
    def setup_probe(work: Path) -> None:
        from repro.experiments import fig4_8  # noqa: F401
        from repro.experiments.common import ExperimentOptions
        from repro.runners import SweepRunner

        ExperimentOptions(runner=SweepRunner())

    def cycle(self, inputs: int) -> Cycle:
        from repro.experiments import fig4_8
        from repro.experiments.common import ExperimentOptions
        from repro.runners import SweepRunner

        self.sims.clear()
        self.sweeps.clear()
        options = ExperimentOptions(runner=SweepRunner())
        span = self.tracer.span
        start = perf_counter()
        with span("bench.grid"), span("experiments"):
            cells = fig4_8.run(seed=self.op_seed(inputs), options=options)
        wall = perf_counter() - start
        cycle = Cycle(
            wall_s=wall,
            ops=1,
            rounds=sum(executed_rounds(r.completed, r.rounds) for r in self.sims),
            samples={"grid_s": [wall]},
            counters={**sim_counters(self.sims), **runner_counters(self.sweeps)},
            digest=digest(cells),
        )
        self._check(cells, cycle)
        self.check_reference(inputs, cycle)
        if self.first is None:
            self.first = (inputs, cells)
        return cycle

    def _check(self, cells: list, cycle: Cycle) -> None:
        op = f"grid{cycle.digest[:8]}"
        problems = []
        if [(c.forward_probability, c.p_upset) for c in cells] != self.GRID:
            problems.append("cells out of grid order")
        for cell in cells:
            if cell.completion_rate not in (0.0, 0.5, 1.0):
                problems.append(f"completion_rate {cell.completion_rate}")
            if not 0 <= cell.latency_rounds <= 1200:
                problems.append(f"latency_rounds {cell.latency_rounds}")
            if not 0 <= cell.frames_lost <= 6:
                problems.append(f"frames_lost {cell.frames_lost}")
        if cells and cells[0].completion_rate != 1.0:
            problems.append("fault-free flooding (p=1, p_upset=0) did not finish")
        counters = cycle.counters
        if len(self.sims) != 24 or counters["runners.tasks_executed"] != 24:
            problems.append(f"{len(self.sims)} simulations for 24 tasks")
        for name in ("tasks_retried", "pool_rebuilds", "tasks_poisoned"):
            if counters[f"runners.{name}"]:
                problems.append(f"runner {name} = {counters[f'runners.{name}']}")
        cycle.failures.extend((op, p) for p in problems)

    def finish(self) -> list[tuple[str, str]]:
        """Re-run one sampled cell alone; it must equal its grid cell."""
        from repro.experiments import fig4_8

        if self.first is None:
            return []
        inputs, cells = self.first
        index = self.seed % len(self.GRID)
        p, p_upset = self.GRID[index]
        twin = fig4_8.run_cell(p, p_upset, seed=self.op_seed(inputs))
        if twin != cells[index]:
            return [("twin", f"run_cell({p}, {p_upset}) != grid cell {index}")]
        return []


# ---------------------------------------------------------- mesh_broadcast


class MeshBroadcast(Workload):
    """Fast-backend broadcasts: clean 32x32 interleaved with upset 20x20."""

    name = "mesh_broadcast"
    CLEAN_PER_CYCLE = 10
    MAX_ROUNDS = 400
    CLEAN = (32, 0.0)
    UPSET = (20, 0.3)

    def __init__(self, seed: int, work: Path, tracer: Tracer) -> None:
        super().__init__(seed, work, tracer)
        self.first: tuple[int, list] | None = None

    def seeds(self, inputs: int) -> list[int]:
        base = (self.seed * 1000 + inputs) * 100
        return [base + k for k in range(self.CLEAN_PER_CYCLE)] + [base + 99]

    @classmethod
    def build(cls, side: int, p_upset: float, seed: int, backend: str):
        from repro.core.packet import BROADCAST
        from repro.core.protocol import StochasticProtocol
        from repro.faults import FaultConfig
        from repro.noc.engine import NocSimulator
        from repro.noc.tile import IPCore
        from repro.noc.topology import Mesh2D

        class Rumor(IPCore):
            def on_start(self, ctx) -> None:
                ctx.send(BROADCAST, b"rumor", ttl=cls.MAX_ROUNDS)

        simulator = NocSimulator(
            Mesh2D(side, side),
            StochasticProtocol(0.5),
            FaultConfig(p_upset=p_upset) if p_upset else None,
            seed=seed,
            default_ttl=cls.MAX_ROUNDS,
            backend=backend,
        )
        simulator.mount(0, Rumor())
        return simulator

    @classmethod
    def broadcast(cls, simulator):
        n = simulator.topology.n_tiles
        return simulator.run(
            cls.MAX_ROUNDS, until=lambda sim: len(sim.informed_tiles()) == n
        )

    @classmethod
    def setup_probe(cls, work: Path) -> None:
        cls.build(*cls.CLEAN, seed=0, backend="fast")
        cls.build(*cls.UPSET, seed=0, backend="fast")

    def cycle(self, inputs: int) -> Cycle:
        span = self.tracer.span
        seeds = self.seeds(inputs)
        plan = [("clean", self.CLEAN, s) for s in seeds[:-1]]
        plan.append(("upset", self.UPSET, seeds[-1]))
        samples: dict[str, list[float]] = {"clean_s": [], "upset_s": []}
        results = []
        for kind, (side, p_upset), seed in plan:
            start = perf_counter()
            with span(f"bench.{kind}"):
                with span("noc.init"):
                    simulator = self.build(side, p_upset, seed, "fast")
                result = self.broadcast(simulator)
            samples[f"{kind}_s"].append(perf_counter() - start)
            results.append(result)
        cycle = Cycle(
            wall_s=sum(samples["clean_s"]) + sum(samples["upset_s"]),
            ops=len(plan),
            rounds=sum(executed_rounds(r.completed, r.rounds) for r in results),
            samples=samples,
            counters=sim_counters(results),
            digest=digest(results),
        )
        for (kind, _, seed), result in zip(plan, results):
            for problem in self._problems(kind, result):
                cycle.failures.append((f"{kind}{seed}", problem))
        self.check_reference(inputs, cycle)
        if self.first is None:
            self.first = (inputs, results)
        return cycle

    def _problems(self, kind: str, result) -> list[str]:
        stats = result.stats
        problems = []
        if not result.completed or result.rounds >= self.MAX_ROUNDS:
            problems.append(f"broadcast did not saturate ({result.rounds} rounds)")
        if stats.transmissions_delivered <= 0:
            problems.append("no transmissions")
        if kind == "upset":
            if stats.upsets_injected <= 0:
                problems.append("no upsets injected at p_upset=0.3")
            if stats.upsets_detected + stats.upsets_escaped > stats.upsets_injected:
                problems.append("more upsets caught than injected")
        elif stats.upsets_injected:
            problems.append("upsets injected on a fault-free mesh")
        return problems

    def finish(self) -> list[tuple[str, str]]:
        """One sampled clean and the upset broadcast equal their twins."""
        if self.first is None:
            return []
        inputs, results = self.first
        seeds = self.seeds(inputs)
        pick = self.seed % self.CLEAN_PER_CYCLE
        failures = []
        for shape, index in ((self.CLEAN, pick), (self.UPSET, len(seeds) - 1)):
            twin = self.broadcast(self.build(*shape, seeds[index], "object"))
            if twin != results[index]:
                failures.append(
                    (f"twin{seeds[index]}", "fast broadcast != object engine twin")
                )
        return failures


# ----------------------------------------------------------- sweep_service


class SweepService(Workload):
    """A chaos campaign, cold then warm, through one pooled cached runner."""

    name = "sweep_service"
    REPETITIONS = 10
    N_TASKS = 3 * 8 * REPETITIONS

    def __init__(self, seed: int, work: Path, tracer: Tracer) -> None:
        super().__init__(seed, work, tracer)
        self.sweeps: list[RunRecord] = []

    def captures(self) -> list:
        from repro.runners import SweepRunner

        return [(SweepRunner, "run", _capture_sweeps(self.sweeps))]

    @staticmethod
    def open_service(root: Path):
        from repro.experiments.common import ExperimentOptions
        from repro.runners import SweepRunner
        from repro.service import ResultsDB

        shutil.rmtree(root, ignore_errors=True)
        db = ResultsDB(root / "results.db")
        runner = SweepRunner(n_workers=2, cache_dir=str(root / "cache"), db=db)
        options = ExperimentOptions(
            runner=runner, collect_metrics=True, backend="fast"
        )
        return db, runner, options

    @classmethod
    def setup_probe(cls, work: Path) -> None:
        from repro.experiments import chaos  # noqa: F401

        root = work / f"setup-probe-{os.getpid()}"
        db, _, _ = cls.open_service(root)
        db.close()
        shutil.rmtree(root, ignore_errors=True)

    def cycle(self, inputs: int) -> Cycle:
        from repro.experiments import chaos

        self.sweeps.clear()
        root = self.work / f"sweep-{os.getpid()}"
        db, runner, options = self.open_service(root)
        seed = self.seed * 1000 + inputs
        span = self.tracer.span
        try:
            start = perf_counter()
            with span("bench.cold"), span("experiments"):
                cold = chaos.run(
                    repetitions=self.REPETITIONS, seed=seed, options=options
                )
            middle = perf_counter()
            with span("bench.warm"), span("experiments"):
                warm = chaos.run(
                    repetitions=self.REPETITIONS, seed=seed, options=options
                )
            end = perf_counter()
            cold_rounds = sum(
                executed_rounds(*c.value[:2])
                for c in self.sweeps[0].completions
                if c.source == "executed"
            )
            counters = runner_counters(self.sweeps)
            counters["service.db.lock_retries"] = db.lock_retries_used
            counters["service.db.size_mb"] = sum(
                path.stat().st_size for path in root.glob("results.db*")
            ) / 2**20
            cycle = Cycle(
                wall_s=end - start,
                ops=2,
                rounds=cold_rounds,
                samples={"cold_s": [middle - start], "warm_s": [end - middle]},
                counters=counters,
                digest=digest(cold),
            )
            self._check(cold, warm, db, runner, cycle)
        finally:
            db.close()
            shutil.rmtree(root, ignore_errors=True)
        self.check_reference(inputs, cycle)
        return cycle

    def _check(self, cold, warm, db, runner, cycle: Cycle) -> None:
        problems: list[tuple[str, str]] = []
        if pickle.dumps(cold) != pickle.dumps(warm):
            problems.append(("warm", "warm report is not pickle-identical to cold"))
        if len(cold.cells) != 24 or set(cold.thresholds) != {
            "burst_upsets",
            "ramp_overflow",
            "link_flap",
        }:
            problems.append(("cold", "report does not cover the 3x8 scenario grid"))
        for cell in cold.cells:
            if not 0.0 <= cell.coverage_mean <= 1.0:
                problems.append(("cold", f"coverage {cell.coverage_mean}"))
        expected = {"tasks_executed": self.N_TASKS, "cache_hits": self.N_TASKS}
        expected.update(tasks_retried=0, pool_rebuilds=0, tasks_poisoned=0)
        for name, want in expected.items():
            if getattr(runner, name) != want:
                problems.append(("cold", f"runner {name} = {getattr(runner, name)}"))
        runs = db.query("SELECT run_id, status, n_tasks FROM runs ORDER BY run_id")
        rows = db.query(
            "SELECT run_id, task_index, cache_key, source, status "
            "FROM tasks ORDER BY run_id, task_index"
        )
        want_rows = []
        for run, record, source in zip(runs, self.sweeps, ("executed", "cache")):
            for c in sorted(record.completions, key=lambda c: c.index):
                want_rows.append(
                    (run["run_id"], c.index, c.task.cache_key(), source, "ok")
                )
        got_rows = [tuple(row.values()) for row in rows]
        if len(runs) != 2 or any(
            r["status"] != "completed" or r["n_tasks"] != self.N_TASKS for r in runs
        ):
            problems.append(("db", f"runs rows {runs}"))
        if len(self.sweeps) != 2 or [len(r.tasks) for r in self.sweeps] != [
            self.N_TASKS
        ] * 2:
            problems.append(("db", "expected two runner passes of all tasks"))
        if got_rows != want_rows:
            problems.append(("db", "tasks rows differ from the tasks run"))
        cycle.failures.extend(problems)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Mp3Upsets, MeshBroadcast, SweepService)
}
