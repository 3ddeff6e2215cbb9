"""Simulation-as-a-service: durable results DB and chaos certification.

This package is the service layer in front of the sweep machinery
(:mod:`repro.runners`):

* :class:`ResultsDB` (``repro.service.db``) — a SQLite (WAL) store of
  completed tasks, their full :meth:`SimConfig.describe` provenance and
  per-round metrics, written through by :class:`SweepRunner` while the
  content-hashed pickle cache stays the hot read path.  Query it with
  SQL via :meth:`ResultsDB.query` or ``repro db query``.
* the chaos harness (``repro.service.chaos``) — deterministic fault
  injectors (worker kills, task hangs, corrupted payloads) that attack
  the supervised worker fleet, plus :func:`certify_service_envelope`,
  which certifies the service's own tolerance envelope through the
  sequential statistics layer (``repro chaos-service``).

See ``docs/service.md`` for the schema and SQL cookbook,
and ``docs/operations.md`` for the failure-mode runbook.
"""

from repro.service.chaos import (
    INJECTORS,
    CampaignOutcome,
    ChaosSpec,
    ServiceEnvelope,
    certify_service_envelope,
    format_service_envelope,
    run_campaign,
)
from repro.service.db import ResultsDB, as_results_db
from repro.service.schema import SCHEMA_VERSION

__all__ = [
    "INJECTORS",
    "SCHEMA_VERSION",
    "CampaignOutcome",
    "ChaosSpec",
    "ResultsDB",
    "ServiceEnvelope",
    "as_results_db",
    "certify_service_envelope",
    "format_service_envelope",
    "run_campaign",
]
