"""The ResultsDB SQL schema and its forward-only migrations.

The schema is versioned through SQLite's ``PRAGMA user_version``: a
fresh (or pre-schema) database reports version 0, and
:func:`migrate` applies every script in :data:`MIGRATIONS` past the
recorded version, stamping the new version in the same transaction.
Migrations are append-only — released scripts are never edited, new
schema changes append a new entry — so any database produced by an
older release upgrades by replaying the tail of the list.

Tables (see ``docs/service.md`` for the SQL cookbook):

* ``runs`` — one row per campaign: a :meth:`SweepRunner.run` batch, or
  several chunked ``run(run_id=...)`` calls sharing one row (as
  :class:`~repro.stats.CertificationRunner` does): label, status, task
  count, wall-clock bounds.
* ``tasks`` — one row per completed :class:`~repro.runners.SimTask`:
  the content-hash ``cache_key`` (the pickle cache's file stem, so the
  two stores cross-reference), function, params, seed, whether the
  result was executed or served from cache, the exact result as a
  pickle blob (bit-identical to the cache path) and, when the result is
  JSON-expressible, a queryable ``result_json`` column.
* ``configs`` — full :meth:`SimConfig.describe` provenance, one row per
  distinct ``cache_token``; tasks reference it via ``config_token``.
* ``round_metrics`` — the per-round :class:`repro.metrics.RoundSample`
  time series of instrumented tasks.
* ``scenario_drops`` — per-task drop attribution by dynamic-fault
  scenario phase (:meth:`RunMetrics.drops_by_scenario`).
* ``certificates`` (v2) — one row per
  :class:`repro.stats.Certificate`: the frozen claim spec, verdict,
  confidence, replicate count and the full sequential-decision
  trajectory, optionally tied to the campaign row whose tasks fed it.

v3 (the self-healing execution layer, ``docs/operations.md``) adds a
``tasks.status`` column — ``'ok'`` for ordinary completions,
``'poisoned'`` for tasks quarantined by the
:class:`~repro.runners.supervisor.FleetSupervisor` after repeatedly
crashing their worker — and an ``'interrupted'`` state to the
``runs.status`` CHECK for campaigns cut short by ``KeyboardInterrupt``
with their completed cells checkpointed.
"""

from __future__ import annotations

import sqlite3

#: The schema version this release writes (``PRAGMA user_version``).
SCHEMA_VERSION = 3

#: Forward-only migration scripts; ``MIGRATIONS[i]`` upgrades a database
#: from user_version ``i`` to ``i + 1``.
MIGRATIONS: tuple[str, ...] = (
    # v0 -> v1: the initial service schema.
    """
    CREATE TABLE runs (
        run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
        label       TEXT NOT NULL DEFAULT '',
        status      TEXT NOT NULL DEFAULT 'running'
                    CHECK (status IN ('running', 'completed', 'failed',
                                      'cancelled')),
        n_tasks     INTEGER NOT NULL DEFAULT 0,
        started_at  REAL NOT NULL,
        finished_at REAL
    );

    CREATE TABLE configs (
        config_token  TEXT PRIMARY KEY,
        backend       TEXT NOT NULL DEFAULT 'object',
        scenario      TEXT,
        describe_json TEXT NOT NULL,
        first_seen    REAL NOT NULL
    );

    CREATE TABLE tasks (
        task_id       INTEGER PRIMARY KEY AUTOINCREMENT,
        run_id        INTEGER NOT NULL
                      REFERENCES runs(run_id) ON DELETE CASCADE,
        task_index    INTEGER NOT NULL,
        cache_key     TEXT NOT NULL,
        fn            TEXT NOT NULL,
        label         TEXT NOT NULL DEFAULT '',
        -- Decimal text: SeedSequence seeds are uint64 and can exceed
        -- SQLite's signed INTEGER range.
        seed          TEXT,
        params_json   TEXT NOT NULL,
        config_token  TEXT REFERENCES configs(config_token),
        source        TEXT NOT NULL CHECK (source IN ('executed', 'cache')),
        duration_s    REAL,
        result_pickle BLOB NOT NULL,
        result_json   TEXT,
        created_at    REAL NOT NULL
    );
    CREATE INDEX idx_tasks_run ON tasks(run_id, task_index);
    CREATE INDEX idx_tasks_key ON tasks(cache_key);

    CREATE TABLE round_metrics (
        task_id          INTEGER NOT NULL
                         REFERENCES tasks(task_id) ON DELETE CASCADE,
        metrics_index    INTEGER NOT NULL,
        round_index      INTEGER NOT NULL,
        informed_tiles   INTEGER NOT NULL,
        transmissions    INTEGER NOT NULL,
        deliveries       INTEGER NOT NULL,
        dead_link_drops  INTEGER NOT NULL,
        overflow_drops   INTEGER NOT NULL,
        crc_drops        INTEGER NOT NULL,
        upsets_injected  INTEGER NOT NULL,
        energy_j         REAL NOT NULL,
        active_scenarios TEXT NOT NULL DEFAULT '[]',
        PRIMARY KEY (task_id, metrics_index, round_index)
    ) WITHOUT ROWID;

    CREATE TABLE scenario_drops (
        task_id   INTEGER NOT NULL
                  REFERENCES tasks(task_id) ON DELETE CASCADE,
        scenario  TEXT NOT NULL,
        drop_kind TEXT NOT NULL,
        count     INTEGER NOT NULL,
        PRIMARY KEY (task_id, scenario, drop_kind)
    ) WITHOUT ROWID;
    """,
    # v1 -> v2: sequential-certification records (repro.stats).
    """
    CREATE TABLE certificates (
        cert_id         INTEGER PRIMARY KEY AUTOINCREMENT,
        run_id          INTEGER
                        REFERENCES runs(run_id) ON DELETE CASCADE,
        label           TEXT NOT NULL DEFAULT '',
        claim_kind      TEXT NOT NULL,
        metric          TEXT NOT NULL,
        claim_json      TEXT NOT NULL,
        verdict         TEXT NOT NULL
                        CHECK (verdict IN ('accept', 'reject', 'undecided')),
        confidence      REAL NOT NULL,
        n_observed      INTEGER NOT NULL,
        budget          INTEGER NOT NULL,
        -- Decimal text, like tasks.seed: SeedSequence roots are uint64.
        base_seed       TEXT,
        trajectory_json TEXT NOT NULL,
        created_at      REAL NOT NULL
    );
    CREATE INDEX idx_certificates_run ON certificates(run_id);
    """,
    # v2 -> v3: self-healing execution layer (docs/operations.md).
    #
    # 1. tasks.status — 'ok' | 'poisoned' (a task quarantined by the
    #    FleetSupervisor after repeatedly crashing its worker; its
    #    result_pickle holds the PoisonedTask diagnostics).  Plain
    #    ALTER: adding a CHECKed column with a non-null default is
    #    legal SQLite and existing rows backfill to 'ok'.
    # 2. runs.status gains 'interrupted' (KeyboardInterrupt with the
    #    checkpoint flushed).  SQLite cannot alter a CHECK constraint,
    #    so the table is recreated and repopulated; migrate() disables
    #    foreign-key enforcement around the script, keeping the
    #    tasks -> runs references intact through the rename.
    """
    ALTER TABLE tasks ADD COLUMN status TEXT NOT NULL DEFAULT 'ok'
        CHECK (status IN ('ok', 'poisoned'));

    CREATE TABLE runs_v3 (
        run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
        label       TEXT NOT NULL DEFAULT '',
        status      TEXT NOT NULL DEFAULT 'running'
                    CHECK (status IN ('running', 'completed', 'failed',
                                      'cancelled', 'interrupted')),
        n_tasks     INTEGER NOT NULL DEFAULT 0,
        started_at  REAL NOT NULL,
        finished_at REAL
    );
    INSERT INTO runs_v3 SELECT * FROM runs;
    DROP TABLE runs;
    ALTER TABLE runs_v3 RENAME TO runs;
    """,
)


def schema_version(connection: sqlite3.Connection) -> int:
    """The migration level recorded in the database (0 = empty)."""
    return int(connection.execute("PRAGMA user_version").fetchone()[0])


def migrate(connection: sqlite3.Connection) -> int:
    """Bring `connection`'s database up to :data:`SCHEMA_VERSION`.

    Applies each pending migration script and its version stamp in one
    transaction, so a crash mid-upgrade leaves the database at a clean
    prior version.  Returns the number of scripts applied (0 when the
    database was already current).

    Raises:
        RuntimeError: the database reports a *newer* version than this
            code knows — written by a later release; refusing to touch
            it beats silently misreading its tables.
    """
    version = schema_version(connection)
    if version > SCHEMA_VERSION:
        raise RuntimeError(
            f"results database is schema v{version}, newer than this "
            f"release's v{SCHEMA_VERSION}; upgrade repro to open it"
        )
    if version == SCHEMA_VERSION:
        return 0
    # Table-recreating migrations (v3 rebuilds `runs` under its rows'
    # feet) must run with foreign-key enforcement off; the pragma is a
    # no-op inside a transaction, so commit any open one first and
    # restore enforcement afterwards.  Each migration script still
    # applies atomically in its own transaction.
    connection.commit()
    connection.execute("PRAGMA foreign_keys = OFF")
    applied = 0
    try:
        for level in range(version, SCHEMA_VERSION):
            with connection:  # one transaction per migration step
                connection.executescript(MIGRATIONS[level])
                # PRAGMA cannot be parameterised; `level + 1` is an int.
                connection.execute(f"PRAGMA user_version = {level + 1}")
            applied += 1
    finally:
        connection.execute("PRAGMA foreign_keys = ON")
    return applied
