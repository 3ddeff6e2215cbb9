"""Tests for the unified ExperimentOptions execution API."""

from __future__ import annotations

import inspect
import warnings

import pytest

from repro.diversity import compare
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
    policy_compare,
    protocol_frontier,
)
from repro.experiments.common import ExperimentOptions, resolve_options
from repro.runners import SweepRunner
from repro.service import ResultsDB

#: Every harness entry point that executes a sweep.
HARNESS_ENTRY_POINTS = (
    certify.certify_chaos_envelope,
    chaos.run,
    compare.compare_architectures,
    fig3_1.run,
    fig3_1.run_scaling,
    fig4_4.run,
    fig4_5.run,
    fig4_6.run,
    fig4_8.run,
    fig4_8.run_cell,
    fig4_9.run,
    fig4_10.run_overflow,
    fig4_10.run_synchronization,
    fig4_11.run_overflow,
    fig4_11.run_synchronization,
    fig5_3.run,
    grid_spread.measure_spread,
    grid_spread.run,
    islands.run,
    islands.run_voltage_sweep,
    link_crashes.run,
    policy_compare.run,
    protocol_frontier.certify_frontier,
    protocol_frontier.run,
)

#: The scalar execution kwargs ``options=`` replaced.
SCALAR_EXECUTION_PARAMS = (
    "n_workers",
    "runner",
    "cache_dir",
    "collect_metrics",
    "backend",
)

#: ``SimTask.cache_key()`` digests of ``fig3_1.run(n=64, repetitions=3,
#: seed=3)``, in submission order.  Pinned from the release that still
#: accepted the scalar kwargs, so removing them provably kept every key.
FIG3_1_CACHE_KEYS = [
    "516d00cd9256ac26505f4b88585c3fecd95b6efe95d57ec6e1cb2d4b6127407f",
    "0a5dc43ff2f23c0b2aae2335f37f6cfd27c011da1ab795897924db229cdab58b",
    "034cb3e5d5dd6a891c725189b0b107fb77ab8814cb6a589774f70b172a6a3837",
]


class TestExperimentOptions:
    def test_defaults_match_the_legacy_scalars(self):
        opts = ExperimentOptions()
        assert opts.runner is None
        assert opts.n_workers == 1
        assert opts.cache_dir is None
        assert opts.backend == "object"
        assert opts.collect_metrics is False
        assert opts.db is None

    def test_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            ExperimentOptions(n_workers=0)
        with pytest.raises(ValueError, match="backend"):
            ExperimentOptions(backend="nope")
        with pytest.raises(TypeError, match="runner"):
            ExperimentOptions(runner=object())

    def test_make_runner_builds_from_scalars(self, cache_dir):
        opts = ExperimentOptions(n_workers=2, cache_dir=cache_dir)
        runner = opts.make_runner()
        assert runner.n_workers == 2
        assert runner.cache is not None

    def test_make_runner_prefers_prebuilt_runner(self):
        prebuilt = SweepRunner(n_workers=1)
        opts = ExperimentOptions(runner=prebuilt, n_workers=4)
        assert opts.make_runner() is prebuilt

    def test_make_runner_attaches_db_to_prebuilt_runner(self, tmp_path):
        prebuilt = SweepRunner()
        opts = ExperimentOptions(runner=prebuilt, db=tmp_path / "runs.db")
        assert opts.make_runner() is prebuilt
        assert isinstance(prebuilt.db, ResultsDB)

    def test_with_runner_pins_only_the_runner(self, cache_dir):
        opts = ExperimentOptions(cache_dir=cache_dir, n_workers=3)
        runner = SweepRunner()
        pinned = opts.with_runner(runner)
        assert pinned.runner is runner
        assert pinned.cache_dir == opts.cache_dir
        assert pinned.n_workers == 3
        assert opts.runner is None  # the original is untouched


class TestResolveOptions:
    def test_no_arguments_yields_defaults(self):
        assert resolve_options(None) == ExperimentOptions()
        assert resolve_options() == ExperimentOptions()

    def test_options_pass_through_unwarned(self):
        opts = ExperimentOptions(n_workers=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_options(opts) is opts

    def test_unsupported_knob_is_a_value_error(self):
        with pytest.raises(ValueError, match="does not support"):
            resolve_options(
                ExperimentOptions(collect_metrics=True), supports=()
            )
        with pytest.raises(ValueError, match="does not support"):
            resolve_options(
                ExperimentOptions(backend="fast"), supports=()
            )
        # Declared support passes.
        opts = ExperimentOptions(collect_metrics=True, backend="fast")
        assert (
            resolve_options(opts, supports=("collect_metrics", "backend"))
            is opts
        )

class TestHarnessBehavior:
    def test_cache_keys_match_the_pinned_literals(self):
        keys = []

        class RecordingRunner(SweepRunner):
            def run(self, tasks, **kwargs):
                tasks = list(tasks)
                keys.extend(task.cache_key() for task in tasks)
                return super().run(tasks, **kwargs)

        fig3_1.run(
            n=64,
            repetitions=3,
            seed=3,
            options=ExperimentOptions(runner=RecordingRunner()),
        )
        assert keys == FIG3_1_CACHE_KEYS

    @pytest.mark.parametrize(
        "entry_point",
        HARNESS_ENTRY_POINTS,
        ids=lambda fn: f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}",
    )
    def test_options_is_the_only_execution_argument(self, entry_point):
        params = inspect.signature(entry_point).parameters
        assert not set(SCALAR_EXECUTION_PARAMS) & set(params)
        assert params["options"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_scalar_kwargs_are_a_type_error(self):
        with pytest.raises(TypeError, match="n_workers"):
            fig3_1.run(n=64, n_workers=2)

    def test_options_api_emits_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fig3_1.run(n=64, repetitions=2, options=ExperimentOptions())
            link_crashes.run(
                dead_link_counts=(0,),
                repetitions=1,
                n_terms=40,
                options=ExperimentOptions(),
            )

    def test_harness_rejects_unsupported_result_knobs(self):
        with pytest.raises(ValueError, match="does not support"):
            fig3_1.run(
                n=64,
                repetitions=1,
                options=ExperimentOptions(collect_metrics=True),
            )
        with pytest.raises(ValueError, match="does not support"):
            link_crashes.run(
                dead_link_counts=(0,),
                repetitions=1,
                n_terms=40,
                options=ExperimentOptions(backend="fast"),
            )

    def test_shared_runner_spans_subharness_calls(self, cache_dir):
        runner = SweepRunner(cache_dir=cache_dir)
        options = ExperimentOptions(runner=runner)
        fig3_1.run_scaling(sizes=(32, 64), repetitions=1, options=options)
        assert runner.tasks_submitted == 2
        assert runner.tasks_executed == 2

    def test_db_knob_records_provenance(self, tmp_path):
        db_path = tmp_path / "spread.db"
        points = grid_spread.run(
            side=3,
            repetitions=2,
            options=ExperimentOptions(db=db_path),
        )
        assert points
        with ResultsDB(db_path) as db:
            runs = db.runs()  # one row per swept topology's batch
            assert runs
            assert all(run["status"] == "completed" for run in runs)
            (count,) = db.query("SELECT COUNT(*) AS n FROM tasks")
            assert count["n"] == sum(run["n_tasks"] for run in runs) > 0
            # Task parameters land as queryable provenance JSON.
            rows = db.query(
                "SELECT DISTINCT json_extract(params_json, "
                "'$.forward_probability') AS p FROM tasks"
            )
            assert {row["p"] for row in rows} == {0.5}

    def test_instrumented_options_run_carries_metrics(self, tmp_path):
        db_path = tmp_path / "metrics.db"
        points = grid_spread.run(
            side=3,
            forward_probability=0.75,
            repetitions=1,
            options=ExperimentOptions(collect_metrics=True, db=db_path),
        )
        assert points[0].metrics is not None
        with ResultsDB(db_path) as db:
            (rounds,) = db.query(
                "SELECT COUNT(*) AS n FROM round_metrics"
            )
            assert rounds["n"] > 0
