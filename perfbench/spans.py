"""In-memory span recorder and the layer probes the benchmark installs.

A span is one call into a layer: its name, start, end and the span that
was open when it started (its parent).  Spans live in flat Python lists
while a run measures and are written to one ``.npz`` file when it ends;
:func:`layer_table` reads that file back and computes each layer's self
time (its duration minus the part its direct children cover).

Every probe wraps a *public* method of the package from the outside, for
the duration of one traced cycle only (:func:`installed`), so untraced
cycles run the program exactly as shipped.  A wrapper opens a span only
when the innermost open span belongs to another layer: nested calls
inside one layer (``decisions`` calling ``decide``, a quantizer calling
its Huffman sizer) are charged once, to the outermost call.

The engine's four phases come from :class:`repro.metrics.PhaseProfiler`
attached through the simulator's public ``profiler`` attribute; the
subclass here turns each reported phase into a span and re-parents the
kernel spans recorded during that phase under it.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

from repro.metrics import PhaseProfiler


class Tracer:
    """Records nested spans and named counters for one benchmark run."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = [-1]
        self._stack_names: list[str] = [""]
        self.counters: dict[str, float] = defaultdict(float)
        # Pool workers forked while a cycle is traced inherit the patched
        # classes; their spans would never be collected, so they record
        # nothing and pay only a pass-through call.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False

    def _id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    @property
    def top_name(self) -> str:
        return self._stack_names[-1]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self._stack_names.append(name)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()
        self._stack_names.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Span the ``with`` body when tracing; a no-op otherwise."""
        if not self.active:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add_closed(self, name: str, start: float, end: float, since: int) -> None:
        """Record an already finished span under the innermost open one.

        Spans recorded from index `since` on that hang directly off the
        innermost open span happened inside this one and move under it.
        """
        index = len(self.start)
        outer = self._stack[-1]
        parent = self.parent
        for child in range(since, index):
            if parent[child] == outer:
                parent[child] = index
        self.name_id.append(self._id(name))
        parent.append(outer)
        self.start.append(start)
        self.end.append(end)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def write(self, path: Path) -> None:
        """Write every span and counter to `path` (an ``.npz`` file)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                names=np.array(self.names, dtype=str),
                name_id=np.array(self.name_id, dtype=np.int32),
                parent=np.array(self.parent, dtype=np.int64),
                start=np.array(self.start, dtype=np.float64),
                end=np.array(self.end, dtype=np.float64),
                counters=np.array(json.dumps(dict(self.counters))),
            )


class SpanProfiler(PhaseProfiler):
    """A :class:`PhaseProfiler` that also records each phase as a span."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer
        self.mark = len(tracer.start)

    def record(self, phase: str, seconds: float) -> None:
        super().record(phase, seconds)
        tracer = self.tracer
        end = perf_counter()
        tracer.add_closed(f"noc.{phase}", end - seconds, end, self.mark)
        self.mark = len(tracer.start)


# ----------------------------------------------------------------- probes


def _spanned(
    tracer: Tracer,
    name: str,
    after: Callable[[tuple, Any], None] | None = None,
) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer.top_name == name:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    return make


def _traced_run(tracer: Tracer) -> Callable[[Callable], Callable]:
    """``NocSimulator.run``: a span plus a span-recording phase profiler."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            if not tracer.active:
                return fn(self, *args, **kwargs)
            index = tracer.open("noc.run")
            attached = self.profiler is None
            if attached:
                self.profiler = SpanProfiler(tracer)
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.close(index)
                if attached:
                    self.profiler = None

        return run

    return make


def layer_probes(tracer: Tracer) -> list[tuple[type, str, Callable]]:
    """``(class, method, wrapper factory)`` for every probed public call."""
    from repro.crc import CRC
    from repro.faults.injector import FaultInjector
    from repro.mp3.huffman import HuffmanCodec
    from repro.mp3.mdct import Mdct
    from repro.mp3.psychoacoustic import PsychoacousticModel
    from repro.mp3.quantizer import RateLoopQuantizer
    from repro.noc.engine import NocSimulator
    from repro.policies import POLICY_REGISTRY
    from repro.policies.base import ForwardingPolicy, LegacyProtocolPolicy
    from repro.runners import ResultCache, SimTask, SweepRunner
    from repro.service import ResultsDB

    def crc_bytes(args: tuple, _result: Any) -> None:
        tracer.count("crc.bytes", len(args[1]))

    def cache_hit(_args: tuple, result: Any) -> None:
        if result[0]:
            tracer.count("runners.cache.hits")

    probes: list[tuple[type, str, Callable]] = [
        (CRC, "compute", _spanned(tracer, "crc.compute", crc_bytes)),
        (FaultInjector, "corrupt", _spanned(tracer, "faults.corrupt")),
        (NocSimulator, "run", _traced_run(tracer)),
        (SweepRunner, "run", _spanned(tracer, "runners.run")),
        (SimTask, "execute", _spanned(tracer, "runners.task")),
        (ResultCache, "lookup", _spanned(tracer, "runners.cache.lookup", cache_hit)),
        (ResultCache, "put", _spanned(tracer, "runners.cache.put")),
        (ResultsDB, "record_task", _spanned(tracer, "service.db.record_task")),
    ]
    for cls, method in (
        (Mdct, "analyze"),
        (Mdct, "synthesize"),
        (PsychoacousticModel, "analyze"),
        (RateLoopQuantizer, "quantize"),
        (RateLoopQuantizer, "quantize_vbr"),
        (RateLoopQuantizer, "dequantize"),
        (HuffmanCodec, "encode"),
        (HuffmanCodec, "decode"),
    ):
        probes.append((cls, method, _spanned(tracer, "mp3.dsp")))
    policy_classes = {ForwardingPolicy, LegacyProtocolPolicy, *POLICY_REGISTRY.values()}
    for cls in sorted(policy_classes, key=lambda c: c.__qualname__):
        for method, name in (
            ("decide", "policies.decide"),
            ("decisions", "policies.decide"),
            ("decide_batch", "policies.decide_batch"),
        ):
            if method in vars(cls):
                probes.append((cls, method, _spanned(tracer, name)))
    return probes


@contextmanager
def patched(probes: list[tuple[type, str, Callable]]) -> Iterator[None]:
    """Replace each probed method by its wrapper; restore on exit."""
    saved = []
    try:
        for cls, method, make in probes:
            original = vars(cls)[method]
            saved.append((cls, method, original))
            setattr(cls, method, make(original))
        yield
    finally:
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)


@contextmanager
def installed(tracer: Tracer, probes: list) -> Iterator[None]:
    """Trace one cycle: probes in place and the tracer recording."""
    with patched(probes):
        tracer.active = True
        try:
            yield
        finally:
            tracer.active = False


# ------------------------------------------------------------ layer table


def layer_table(path: Path) -> tuple[dict[str, dict[str, dict]], dict]:
    """Self time, total time and calls per span name, from a written file.

    Returns ``(tables, counters)``: ``tables[root][name]`` holds
    ``self_s``/``total_s``/``calls`` summed over the spans whose
    outermost ancestor is named `root` (one table per operation kind),
    plus the ``"all"`` table over every span.
    """
    with np.load(path) as data:
        names = data["names"]
        name_id = data["name_id"]
        parent = data["parent"]
        duration = data["end"] - data["start"]
        counters = json.loads(str(data["counters"]))
    n = len(duration)
    covered = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    self_time = duration - covered
    root = np.arange(n)
    while True:
        up = parent[root]
        moving = up >= 0
        if not moving.any():
            break
        root = np.where(moving, up, root)
    tables: dict[str, dict[str, dict]] = {}
    groups = {"all": np.ones(n, dtype=bool)}
    for root_id in np.unique(name_id[root]) if n else []:
        groups[str(names[root_id])] = name_id[root] == root_id
    for group, mask in groups.items():
        table: dict[str, dict] = {}
        for ident in np.unique(name_id[mask]):
            rows = mask & (name_id == ident)
            table[str(names[ident])] = {
                "self_s": float(self_time[rows].sum()),
                "total_s": float(duration[rows].sum()),
                "calls": int(rows.sum()),
            }
        tables[group] = table
    return tables, counters


def format_table(table: dict[str, dict], cycles: int, title: str) -> str:
    """One layer table as aligned text, per traced cycle, by self time."""
    wall = sum(row["self_s"] for row in table.values())
    lines = [
        title,
        f"  {'layer':<24} {'self s/cycle':>12} {'share':>7} "
        f"{'total s/cycle':>13} {'calls/cycle':>12}",
    ]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"  {name:<24} {row['self_s'] / cycles:>12.4f} "
            f"{row['self_s'] / wall if wall else 0.0:>7.1%} "
            f"{row['total_s'] / cycles:>13.4f} {row['calls'] / cycles:>12.1f}"
        )
    return "\n".join(lines)
