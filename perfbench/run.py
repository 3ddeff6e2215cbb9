"""Benchmark entry point: one workload, one seed, one closed-loop client.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mesh_broadcast --seed 1 --seconds 20 --trace 0

Cycles of the workload run back to back until ``--seconds`` would be
exceeded; each cycle's inputs derive from ``--seed``.  Every output is
checked after the timed body.  Standard output carries a provenance
stamp, every named metric with its unit and sample count, and — as its
last line — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones.
With ``--trace 1`` cycles alternate untraced and traced on the same
inputs; the spans of the traced ones are written to
``.perfbench_work/`` and read back into the per-layer self-time table
and the per-layer metrics.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def stamp(seed: int) -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def run_cycles(workload, seconds: float, traced: bool, probes: list):
    """Closed loop: the next cycle starts when the previous one returns.

    A cycle starts only if the median cycle so far still fits in the
    budget.  Traced runs alternate untraced and traced cycles on the same
    inputs, so the trace overhead compares equal work.
    """
    from spans import installed

    cycles: list = []  # (traced, cycle)
    start = perf_counter()
    minimum = 2 if traced else 1
    while True:
        elapsed = perf_counter() - start
        if len(cycles) >= minimum:
            typical = statistics.median(c.wall_s for _, c in cycles)
            if elapsed + typical > seconds:
                break
        index = len(cycles)
        is_traced = traced and index % 2 == 1
        inputs = index // 2 if traced else index
        if is_traced:
            with installed(workload.tracer, probes):
                cycle = workload.cycle(inputs)
        else:
            cycle = workload.cycle(inputs)
        cycles.append((is_traced, cycle))
    return cycles


def end_to_end(cycles: list, setup: list[float]) -> dict[str, tuple]:
    """``name -> (value, unit, samples)`` over the untraced cycles."""
    walls = [c.wall_s for c in cycles]
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }


def reported_metrics(name: str, cycles: list) -> dict[str, tuple]:
    """Named end-to-end metrics that are printed and stored, not gated.

    Simulated rounds are not a unit of equal work (a stalled MP3 round
    costs less than a busy one), so rounds per second moves with the
    seed far more than wall time does.
    """
    walls = [c.wall_s for c in cycles]
    metrics = {
        "sim_rounds_per_s": (
            sum(c.rounds for c in cycles) / sum(walls), "1/s", len(walls)
        ),
    }
    samples: dict[str, list[float]] = {}
    for cycle in cycles:
        for key, values in cycle.samples.items():
            samples.setdefault(key, []).extend(values)
    if name == "mesh_broadcast":
        clean = [s * 1e3 for s in samples["clean_s"]]
        upset = samples["upset_s"]
        metrics["broadcast_clean_ms.p50"] = (percentile(clean, 50), "ms", len(clean))
        metrics["broadcast_clean_ms.p90"] = (percentile(clean, 90), "ms", len(clean))
        metrics["broadcast_upset_s.p50"] = (percentile(upset, 50), "s", len(upset))
    if name == "sweep_service":
        from workloads import SweepService

        n = SweepService.N_TASKS
        cold = [n / s for s in samples["cold_s"]]
        warm = [n / s for s in samples["warm_s"]]
        metrics["sweep_cold_tasks_per_s"] = (statistics.median(cold), "1/s", len(cold))
        metrics["sweep_warm_tasks_per_s"] = (statistics.median(warm), "1/s", len(warm))
    return metrics


def per_layer(tracer, cycles: list, path: Path) -> tuple[dict[str, tuple], str]:
    """Per-layer metrics and the self-time table, from the written spans."""
    from spans import format_table, layer_table

    tracer.write(path)
    tables, counters = layer_table(path)
    traced = [c for t, c in cycles if t]
    plain = [c for t, c in cycles if not t]
    n = len(traced)
    table = tables["all"]

    def row(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0.0)

    def self_s(name: str) -> float:
        return row(name, "self_s") / n

    def calls(name: str) -> float:
        return row(name, "calls") / n

    summed: dict[str, float] = {}
    for cycle in traced:
        for key, value in cycle.counters.items():
            summed[key] = summed.get(key, 0.0) + value

    def counter(key: str) -> float:
        return summed.get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rounds = row("noc.receive", "calls")
    lookups = row("runners.cache.lookup", "calls")
    overhead = ratio(
        statistics.median(c.wall_s for c in traced),
        statistics.median(c.wall_s for c in plain),
    ) - 1.0
    metrics = {
        "crc.compute_s": (self_s("crc.compute"), "s"),
        "crc.compute_calls": (calls("crc.compute"), "count"),
        "crc.bytes": (counters.get("crc.bytes", 0.0) / n, "count"),
        "noc.init_s": (self_s("noc.init"), "s"),
        "noc.receive_s": (self_s("noc.receive"), "s"),
        "noc.compute_s": (self_s("noc.compute"), "s"),
        "noc.age_s": (self_s("noc.age"), "s"),
        "noc.send_s": (self_s("noc.send"), "s"),
        "noc.rounds": (rounds / n, "count"),
        "noc.us_per_round": (ratio(row("noc.run", "total_s"), rounds) * 1e6, "us"),
        "noc.transmissions": (counter("noc.transmissions") / n, "count"),
        "faults.corrupt_s": (self_s("faults.corrupt"), "s"),
        "faults.corrupt_calls": (calls("faults.corrupt"), "count"),
        "faults.upsets_escaped_ratio": (
            ratio(counter("faults.upsets_escaped"), counter("faults.upsets_injected")),
            "ratio",
        ),
        "policies.decide_s": (self_s("policies.decide"), "s"),
        "policies.decide_calls": (calls("policies.decide"), "count"),
        "policies.decide_batch_s": (self_s("policies.decide_batch"), "s"),
        "policies.decide_batch_calls": (calls("policies.decide_batch"), "count"),
        "mp3.dsp_s": (self_s("mp3.dsp"), "s"),
        "runners.run_s": (row("runners.run", "total_s") / n, "s"),
        "runners.run_self_s": (self_s("runners.run"), "s"),
        "runners.task_self_s": (self_s("runners.task"), "s"),
        "runners.task_exec_s": (counter("runners.task_exec_s") / n, "s"),
        "runners.worker_utilisation": (
            ratio(counter("runners.task_exec_s"), counter("runners.busy_capacity_s")),
            "ratio",
        ),
        "runners.tasks_executed": (counter("runners.tasks_executed") / n, "count"),
        "runners.cache_hits": (counter("runners.cache_hits") / n, "count"),
        "runners.tasks_retried": (counter("runners.tasks_retried") / n, "count"),
        "runners.pool_rebuilds": (counter("runners.pool_rebuilds") / n, "count"),
        "runners.tasks_poisoned": (counter("runners.tasks_poisoned") / n, "count"),
        "runners.cache.lookup_s": (self_s("runners.cache.lookup"), "s"),
        "runners.cache.lookups": (lookups / n, "count"),
        "runners.cache.put_s": (self_s("runners.cache.put"), "s"),
        "runners.cache.puts": (calls("runners.cache.put"), "count"),
        "runners.cache.hit_ratio": (
            ratio(counters.get("runners.cache.hits", 0.0), lookups),
            "ratio",
        ),
        "service.db.record_task_s": (self_s("service.db.record_task"), "s"),
        "service.db.record_task_calls": (calls("service.db.record_task"), "count"),
        "service.db.lock_retries": (counter("service.db.lock_retries") / n, "count"),
        "service.db.size_mb": (counter("service.db.size_mb") / n, "MB"),
        "experiments.self_s": (self_s("experiments"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    text = [
        format_table(tables[group], n, f"layer self time, {group} spans "
                     f"({n} traced cycle(s))")
        for group in sorted(tables)
        if group == "all" or len(tables) > 2
    ]
    return {k: (v, u, n) for k, (v, u) in metrics.items()}, "\n\n".join(text)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer, layer_probes, patched
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    kind = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    if args.setup_probe:
        kind.setup_probe(WORK)
        return 0

    provenance = stamp(args.seed)
    setup = measure_setup(args.workload, args.seed)
    tracer = Tracer()
    workload = kind(args.seed, WORK, tracer)
    probes = layer_probes(tracer) if args.trace else []
    failures: list[tuple[str, str]] = []
    cycles: list = []
    try:
        with patched(workload.captures()):
            cycles = run_cycles(workload, args.seconds, bool(args.trace), probes)
        failures.extend(workload.finish())
    except Exception:  # report the failure as a failed run, never a result
        traceback.print_exc()
        failures.append(("run", "workload raised"))
    for _, cycle in cycles:
        failures.extend(cycle.failures)
    attempted = max(1, sum(c.ops for _, c in cycles))
    failed = min(attempted, len({op for op, _ in failures}))

    print(f"perfbench {args.workload}: " + json.dumps(provenance))
    for op, problem in failures:
        print(f"  CHECK FAILED [{op}]: {problem}")
    plain = [c for t, c in cycles if not t]
    metrics: dict[str, tuple] = {}
    record = {"stamp": provenance, "failures": failures}
    if plain:
        gated = end_to_end(plain, setup)
        named = {**gated, **reported_metrics(args.workload, plain)}
        named["error_rate"] = (failed / attempted, "ratio", attempted)
        for name, (value, unit, n) in named.items():
            print(f"  {name:<28} {value:>14.6g} {unit:<6} (n={n})")
        record["end_to_end"] = named
        if not args.trace:
            metrics = gated
    if args.trace and len(cycles) >= 2:
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.npz"
        layers, table = per_layer(tracer, cycles, spans_path)
        print(table)
        for name, (value, unit, n) in layers.items():
            print(f"  {name:<28} {value:>14.6g} {unit:<6} (n={n})")
        record["per_layer"] = layers
        metrics = layers
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    correct = not failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
