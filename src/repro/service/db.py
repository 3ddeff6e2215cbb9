"""``ResultsDB`` — the durable, queryable results + provenance store.

The pickle cache (:mod:`repro.runners.cache`) answers one question fast:
"has this exact task already run?".  It cannot answer any other —
results are opaque blobs named by content hash, so auditing a campaign
means re-loading every pickle.  ``ResultsDB`` is the durable record
behind the cache: a single SQLite file (WAL mode, safe for concurrent
writers) holding every completed task's result, the full
:meth:`SimConfig.describe` provenance of the configuration that produced
it, and the per-round metrics time series of instrumented runs — all
queryable with plain SQL (``repro db query``) instead of pickle loads.

Division of labor:

* the **pickle cache stays the hot read path** — :class:`SweepRunner`
  still answers warm-cache lookups from disk pickles, byte-identical to
  before;
* the **database is the write-through system of record** — every
  completed task (executed *or* served from cache) appends a row with
  the same ``cache_key`` the pickle file uses, so the two stores
  cross-reference, and the result is stored both as the exact pickle
  blob (bit-identical to the cache path) and, when expressible, as
  queryable JSON.

Writes happen in the coordinating process only (workers return results
to the parent, which records them), so contention is low; WAL mode plus
a generous ``busy_timeout`` make concurrent campaigns from separate
processes safe.  On top of the SQLite-level timeout, every write
retries a transient ``sqlite3.OperationalError`` ("database is locked"
/ "database is busy") a bounded number of times with exponential
backoff — a campaign row is not lost to a momentarily greedy sibling
writer (see ``docs/operations.md``).
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runners.runner import SimTask

from repro.service.schema import SCHEMA_VERSION, migrate, schema_version

__all__ = ["ResultsDB", "as_results_db"]

#: Statement heads :meth:`ResultsDB.query` accepts — reads only.
_READ_ONLY_HEADS = ("select", "with", "pragma", "explain", "values")


def _jsonify(value: Any) -> Any:
    """Best-effort JSON-safe form of a task result (or raise TypeError).

    Tuples become lists, numpy scalars become Python numbers, and
    anything exposing ``to_json_dict`` (``RunMetrics``,
    ``MetricsSummary``, ...) serialises through it; everything else must
    already be JSON-native or the caller falls back to pickle-only
    storage.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    to_json = getattr(value, "to_json_dict", None)
    if callable(to_json):
        return to_json()
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonify(item) for key, item in value.items()}
    item = getattr(value, "item", None)
    if callable(item) and type(value).__module__ == "numpy":
        return _jsonify(item())
    raise TypeError(f"not JSON-expressible: {type(value).__name__}")


def _result_json(value: Any) -> str | None:
    """`value` as deterministic JSON, or None when not expressible."""
    try:
        return json.dumps(_jsonify(value), sort_keys=True)
    except (TypeError, ValueError):
        return None


def _iter_run_metrics(value: Any) -> Iterable[Any]:
    """Yield every ``RunMetrics`` in a task result (top level or tuple)."""
    from repro.metrics import RunMetrics

    if isinstance(value, RunMetrics):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, RunMetrics):
                yield item


def _find_config(params: Mapping[str, Any]) -> Any | None:
    """The first ``SimConfig`` among a task's parameters, if any."""
    from repro.noc.config import SimConfig

    for value in params.values():
        if isinstance(value, SimConfig):
            return value
    return None


def _params_json(params: Mapping[str, Any]) -> str:
    """A task's parameters as deterministic JSON (repr fallback).

    Provenance, not a cache key: non-JSON values (topologies, configs,
    specs) are recorded by ``repr`` so the row stays human-auditable;
    the exact content hash lives in ``cache_key``.
    """

    return json.dumps(
        {key: params[key] for key in sorted(params)},
        sort_keys=True,
        default=repr,
    )


class ResultsDB:
    """A SQLite-backed store of sweep results and their provenance.

    Args:
        path: database file (created, with parents, if missing).
            ``":memory:"`` builds a private in-memory store — handy for
            tests, invisible to other processes.
        timeout_s: how long a writer waits on a locked database before
            failing; generous by default because WAL writers only block
            one another for the duration of a single row append.
        lock_retries: times a write that still fails with a transient
            "database is locked"/"busy" ``OperationalError`` (after the
            SQLite-level `timeout_s` expired) is retried before the
            error propagates.
        lock_backoff_s: base delay between lock retries; retry *k*
            waits ``lock_backoff_s * 2**(k-1)`` seconds.

    Attributes:
        lock_retries_used: transient lock errors absorbed by retrying —
            a contention gauge for operators (``docs/operations.md``).

    The instance is thread-safe (one internal lock around its
    connection) and usable from several processes at once thanks to WAL
    journaling.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        timeout_s: float = 30.0,
        lock_retries: int = 5,
        lock_backoff_s: float = 0.05,
    ) -> None:
        if lock_retries < 0:
            raise ValueError(f"lock_retries must be >= 0, got {lock_retries}")
        if lock_backoff_s < 0:
            raise ValueError(
                f"lock_backoff_s must be >= 0, got {lock_backoff_s}"
            )
        self.lock_retries = lock_retries
        self.lock_backoff_s = lock_backoff_s
        self.lock_retries_used = 0
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(
            self.path, timeout=timeout_s, check_same_thread=False
        )
        self._connection.row_factory = sqlite3.Row
        with self._lock:
            if self.path != ":memory:":
                self._connection.execute("PRAGMA journal_mode = WAL")
            self._connection.execute("PRAGMA synchronous = NORMAL")
            self._connection.execute("PRAGMA foreign_keys = ON")
            migrate(self._connection)

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Close the connection (the instance is unusable afterwards)."""
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "ResultsDB":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def schema_version(self) -> int:
        """The database's migration level (see ``repro.service.schema``)."""
        with self._lock:
            return schema_version(self._connection)

    # ------------------------------------------------------------ recording

    def _write(self, operation: Any) -> Any:
        """Run `operation` in a write transaction, retrying lock errors.

        A transient ``sqlite3.OperationalError`` ("database is locked" /
        "database is busy" — a sibling process holding the write lock
        past our ``timeout_s``) rolls the transaction back and retries
        with bounded exponential backoff; any other operational error,
        or exhaustion of the `lock_retries` budget, propagates.  The
        transaction context means a retried `operation` always starts
        from a clean slate, so retries cannot double-append rows.
        """
        for attempt in range(self.lock_retries + 1):
            try:
                with self._lock, self._connection:
                    return operation()
            except sqlite3.OperationalError as error:
                message = str(error).lower()
                transient = "locked" in message or "busy" in message
                if not transient or attempt >= self.lock_retries:
                    raise
                self.lock_retries_used += 1
                time.sleep(self.lock_backoff_s * (2**attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def begin_run(self, label: str = "", n_tasks: int = 0) -> int:
        """Open a campaign row; returns its ``run_id``."""
        cursor = self._write(
            lambda: self._connection.execute(
                "INSERT INTO runs (label, status, n_tasks, started_at) "
                "VALUES (?, 'running', ?, ?)",
                (label, n_tasks, time.time()),
            )
        )
        return int(cursor.lastrowid)

    def finish_run(
        self,
        run_id: int,
        status: str = "completed",
        *,
        n_tasks: int | None = None,
    ) -> None:
        """Stamp a campaign's terminal `status` and finish time.

        Adaptive campaigns (certifications) don't know their task count
        up front; passing `n_tasks` updates the count recorded by
        :meth:`begin_run` at close time.
        """
        def operation() -> None:
            if n_tasks is None:
                self._connection.execute(
                    "UPDATE runs SET status = ?, finished_at = ? "
                    "WHERE run_id = ?",
                    (status, time.time(), run_id),
                )
            else:
                self._connection.execute(
                    "UPDATE runs SET status = ?, finished_at = ?, "
                    "n_tasks = ? WHERE run_id = ?",
                    (status, time.time(), n_tasks, run_id),
                )

        self._write(operation)

    def record_task(
        self,
        run_id: int,
        index: int,
        task: "SimTask",
        value: Any,
        *,
        source: str = "executed",
        duration_s: float | None = None,
        status: str = "ok",
    ) -> int:
        """Append one completed task: result, provenance and metrics.

        The result is stored as the exact pickle blob (so
        :meth:`result_for` round-trips bit-identically with the pickle
        cache) plus queryable JSON when expressible.  A ``SimConfig``
        among the parameters is interned into ``configs`` keyed by its
        ``cache_token``; any :class:`repro.metrics.RunMetrics` in the
        result fans out into ``round_metrics`` and ``scenario_drops``
        rows.  `status` is ``"ok"`` for ordinary completions or
        ``"poisoned"`` for tasks quarantined by the fleet supervisor
        (their `value` is the diagnostics record).  Returns the new
        ``task_id``.
        """
        params = dict(task.params)
        config = _find_config(params)
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

        def operation() -> int:
            token = None
            if config is not None:
                token = self._intern_config(config)
            cursor = self._connection.execute(
                "INSERT INTO tasks (run_id, task_index, cache_key, fn, "
                "label, seed, params_json, config_token, source, "
                "duration_s, result_pickle, result_json, status, "
                "created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    index,
                    task.cache_key(),
                    task.fn,
                    task.label,
                    None if task.seed is None else str(task.seed),
                    _params_json(params),
                    token,
                    source,
                    duration_s,
                    blob,
                    _result_json(value),
                    status,
                    time.time(),
                ),
            )
            task_id = int(cursor.lastrowid)
            for metrics_index, metrics in enumerate(_iter_run_metrics(value)):
                self._record_metrics(task_id, metrics_index, metrics)
            return task_id

        return self._write(operation)

    def _intern_config(self, config: Any) -> str:
        """Upsert one ``SimConfig`` provenance row; returns its token."""
        token = config.cache_token()
        scenario = (
            type(config.scenario).__name__
            if config.scenario is not None
            else None
        )
        self._connection.execute(
            "INSERT OR IGNORE INTO configs "
            "(config_token, backend, scenario, describe_json, first_seen) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                token,
                config.backend,
                scenario,
                json.dumps(config.describe(), default=repr, sort_keys=True),
                time.time(),
            ),
        )
        return token

    def _record_metrics(
        self, task_id: int, metrics_index: int, metrics: Any
    ) -> None:
        """Fan one ``RunMetrics`` out into its per-round and drop rows."""
        self._connection.executemany(
            "INSERT INTO round_metrics (task_id, metrics_index, "
            "round_index, informed_tiles, transmissions, deliveries, "
            "dead_link_drops, overflow_drops, crc_drops, upsets_injected, "
            "energy_j, active_scenarios) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    task_id,
                    metrics_index,
                    sample.round_index,
                    sample.informed_tiles,
                    sample.transmissions,
                    sample.deliveries,
                    sample.dead_link_drops,
                    sample.overflow_drops,
                    sample.crc_drops,
                    sample.upsets_injected,
                    sample.energy_j,
                    json.dumps(list(sample.active_scenarios)),
                )
                for sample in metrics.samples
            ],
        )
        if metrics_index == 0:
            # Drop attribution rows key by (task, scenario, kind); only
            # the first RunMetrics of a multi-metrics result feeds them.
            self._connection.executemany(
                "INSERT INTO scenario_drops (task_id, scenario, drop_kind, "
                "count) VALUES (?, ?, ?, ?)",
                [
                    (task_id, scenario, kind, count)
                    for scenario, kinds in sorted(
                        metrics.drops_by_scenario().items()
                    )
                    for kind, count in sorted(kinds.items())
                ],
            )

    def record_certificate(
        self, certificate: Any, *, run_id: int | None = None
    ) -> int:
        """Append one :class:`repro.stats.Certificate`; returns its id.

        The claim spec and decision trajectory are stored as
        deterministic JSON next to the queryable verdict columns, so
        ``repro db query`` can filter certificates without unpickling
        anything.  `run_id` ties the certificate to the campaign row
        whose task rows fed the decision (nullable: a certificate may be
        recorded without a campaign row).
        """
        claim = certificate.claim
        payload = certificate.to_json_dict()
        cursor = self._write(
            lambda: self._connection.execute(
                "INSERT INTO certificates (run_id, label, claim_kind, "
                "metric, claim_json, verdict, confidence, n_observed, "
                "budget, base_seed, trajectory_json, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    certificate.label,
                    claim.kind,
                    claim.metric,
                    json.dumps(payload["claim"], sort_keys=True),
                    certificate.verdict.value,
                    certificate.confidence,
                    certificate.n_observed,
                    certificate.budget,
                    None
                    if certificate.base_seed is None
                    else str(certificate.base_seed),
                    json.dumps(payload["trajectory"], sort_keys=True),
                    time.time(),
                ),
            )
        )
        return int(cursor.lastrowid)

    # -------------------------------------------------------------- reading

    def query(
        self, sql: str, params: Sequence[Any] = ()
    ) -> list[dict[str, Any]]:
        """Run one read-only SQL statement, returning rows as dicts.

        Only ``SELECT``/``WITH``/``VALUES``/``PRAGMA``/``EXPLAIN``
        statements are accepted; mutations must go through the recording
        API so provenance stays consistent.
        """
        head = sql.lstrip().split(None, 1)[0].lower() if sql.strip() else ""
        if head not in _READ_ONLY_HEADS:
            raise ValueError(
                f"query() is read-only (SELECT/WITH/VALUES/PRAGMA/EXPLAIN); "
                f"got a {head.upper() or 'empty'} statement"
            )
        with self._lock:
            cursor = self._connection.execute(sql, tuple(params))
            return [dict(row) for row in cursor.fetchall()]

    def runs(self) -> list[dict[str, Any]]:
        """Every campaign row, oldest first."""
        return self.query("SELECT * FROM runs ORDER BY run_id")

    def certificates(
        self, *, run_id: int | None = None
    ) -> list[dict[str, Any]]:
        """Certificate rows, oldest first (optionally one campaign's)."""
        if run_id is None:
            return self.query("SELECT * FROM certificates ORDER BY cert_id")
        return self.query(
            "SELECT * FROM certificates WHERE run_id = ? ORDER BY cert_id",
            (run_id,),
        )

    def results_for_run(self, run_id: int) -> list[Any]:
        """The run's results in task order, unpickled bit-identically."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT result_pickle FROM tasks WHERE run_id = ? "
                "ORDER BY task_index",
                (run_id,),
            ).fetchall()
        return [pickle.loads(row["result_pickle"]) for row in rows]

    def result_for(self, cache_key: str) -> Any:
        """The most recent result recorded under `cache_key`.

        Raises:
            KeyError: no task row carries that key.
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT result_pickle FROM tasks WHERE cache_key = ? "
                "ORDER BY task_id DESC LIMIT 1",
                (cache_key,),
            ).fetchone()
        if row is None:
            raise KeyError(cache_key)
        return pickle.loads(row["result_pickle"])

    # ------------------------------------------------------------ housekeeping

    def export(
        self,
        table: str = "tasks",
        *,
        fmt: str = "json",
    ) -> str:
        """Dump one table as deterministic JSON lines or CSV text.

        Binary columns (``result_pickle``) are elided — exports are for
        analysis pipelines, the blobs stay in the database.  CSV columns
        are emitted in sorted name order (the union across rows), so the
        header line is stable across schema migrations and row shapes.
        """
        if table not in (
            "runs", "configs", "tasks", "round_metrics", "scenario_drops",
            "certificates",
        ):
            raise ValueError(f"unknown table {table!r}")
        if fmt not in ("json", "csv"):
            raise ValueError(f"fmt must be 'json' or 'csv', got {fmt!r}")
        rows = self.query(f"SELECT * FROM {table} ORDER BY 1")  # noqa: S608
        for row in rows:
            row.pop("result_pickle", None)
        if fmt == "json":
            return "\n".join(
                json.dumps(row, sort_keys=True, default=repr) for row in rows
            ) + ("\n" if rows else "")
        if not rows:
            return ""
        columns = sorted({column for row in rows for column in row})
        lines = [",".join(columns)]
        for row in rows:
            lines.append(
                ",".join(_csv_field(row.get(column)) for column in columns)
            )
        return "\n".join(lines) + "\n"

    def gc(self, *, keep_runs: int | None = None) -> int:
        """Prune old campaigns, keeping the `keep_runs` most recent.

        Cascades to the runs' tasks, metrics and drop rows, then drops
        orphaned config provenance and vacuums the file.  ``None`` keeps
        everything (a no-op returning 0).  Returns the number of runs
        deleted.
        """
        if keep_runs is None:
            return 0
        if keep_runs < 0:
            raise ValueError(f"keep_runs must be >= 0, got {keep_runs}")
        def operation() -> int:
            cursor = self._connection.execute(
                "DELETE FROM runs WHERE run_id NOT IN "
                "(SELECT run_id FROM runs ORDER BY run_id DESC LIMIT ?)",
                (keep_runs,),
            )
            self._connection.execute(
                "DELETE FROM configs WHERE config_token NOT IN "
                "(SELECT DISTINCT config_token FROM tasks "
                " WHERE config_token IS NOT NULL)"
            )
            return cursor.rowcount

        removed = self._write(operation)
        if removed:
            with self._lock:
                self._connection.execute("VACUUM")
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultsDB({self.path!r}, schema=v{SCHEMA_VERSION})"


def _csv_field(value: Any) -> str:
    """One CSV cell, quoted when it contains a delimiter."""
    text = "" if value is None else str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def as_results_db(
    db: "ResultsDB | str | os.PathLike[str] | None",
) -> "ResultsDB | None":
    """Normalise a ``db`` argument: path-likes open a :class:`ResultsDB`."""
    if db is None or isinstance(db, ResultsDB):
        return db
    return ResultsDB(db)
