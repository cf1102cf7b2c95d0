"""Tests for the declarative experiment harness.

Covers the registry + sweep engine end to end at reduced scale, the
equivalence of the builder-keyword and pre-built-spec entry forms, the
resumable store wiring, the runner CLI, and the ``common.py``
training-config derivation.
"""

import importlib
import json

import pytest

from repro.config import ExperimentSpec, SimRankConfig
from repro.errors import ExperimentError
from repro.experiments import (
    build_spec,
    common,
    execute,
    get_artifact_store,
    get_experiment,
    list_experiments,
    run_experiment,
    table2_simrank_stats,
)
from repro.experiments.registry import EXPERIMENT_MODULES
from repro.experiments.runner import EXPERIMENTS, main as runner_main
from repro.training.config import TrainConfig

SMOKE_CONFIG = TrainConfig(max_epochs=15, patience=10, min_epochs=2,
                           track_test_history=False)

#: Even smaller protocol for the 15-way entry-point equivalence sweep.
TINY_CONFIG = TrainConfig(max_epochs=8, patience=5, min_epochs=2,
                          track_test_history=False)

#: Wall-clock row fields — reproducible runs produce identical rows except
#: for these.
TIMING_KEYS = {"precompute", "learn", "runtime", "aggregation", "pre", "agg",
               "time_to_95pct", "total_time"}

#: Reduced-scale arguments used for the per-experiment equivalence pins.
EQUIVALENCE_KWARGS = {
    "fig1": dict(dataset_name="texas", num_centers=4),
    "table2": dict(datasets=("texas",), num_pairs=1000),
    "fig2": dict(datasets=("texas",), bins=10),
    "table3": dict(dataset_name="pokec", scale_factor=0.25),
    "table5": dict(datasets=("texas",), models=("mlp", "sigma"),
                   num_repeats=1, config=TINY_CONFIG, tune=False),
    "table7": dict(datasets=("genius",), models=("linkx", "sigma"),
                   num_repeats=1, scale_factor=0.2, config=TINY_CONFIG),
    "fig4": dict(datasets=("genius",), models=("sigma",), scale_factor=0.2,
                 config=TINY_CONFIG),
    "fig5": dict(num_sizes=1, base_scale=0.05, config=TINY_CONFIG),
    "fig6": dict(dataset_name="texas", epsilons=(0.1,), top_ks=(8,),
                 num_repeats=1, config=TINY_CONFIG),
    "fig7": dict(dataset_name="texas", top_ks=(8,), num_repeats=1,
                 config=TINY_CONFIG),
    "table8": dict(datasets=("texas",), num_repeats=1, config=TINY_CONFIG),
    "table9": dict(datasets=("texas",), deltas=(0.5,), num_repeats=1,
                   config=TINY_CONFIG),
    "table10": dict(datasets=("genius",), num_repeats=1, scale_factor=0.2,
                    config=TINY_CONFIG),
    "fig8": dict(datasets=("texas",), config=TINY_CONFIG, num_pairs=1000),
    "table11": dict(datasets=("texas",), layers=(1,), num_repeats=1,
                    config=TINY_CONFIG),
}


def deterministic_rows(result):
    """``result.rows()`` with the wall-clock fields stripped."""
    return [{key: value for key, value in row.items()
             if key not in TIMING_KEYS} for row in result.rows()]


class TestCommonUtilities:
    def test_format_table_renders_columns(self):
        text = common.format_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert "a" in text and "b" in text
        assert "2.50" in text

    def test_format_table_empty(self):
        assert common.format_table([]) == "(no rows)"

    def test_mean_and_std(self):
        mean, std = common.mean_and_std([1.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)

    def test_tune_hyperparameters_returns_grid_entry(self, small_dataset):
        chosen = common.tune_hyperparameters(
            "sigma", small_dataset, grid=[{"delta": 0.3}, {"delta": 0.7}],
            config=SMOKE_CONFIG, base_overrides={"simrank": SimRankConfig(top_k=8),
                            "hidden": 16})
        assert chosen["delta"] in (0.3, 0.7)
        assert chosen["simrank"].top_k == 8

    def test_tune_single_candidate_short_circuits(self, small_dataset):
        chosen = common.tune_hyperparameters("linkx", small_dataset)
        assert chosen == {}

    def test_experiment_config_derived_from_trainconfig(self):
        """The shared numbers live once on TrainConfig; only the pinned
        paper-protocol divergences differ (weight decay, patience, and the
        history flag)."""
        base = TrainConfig()
        cfg = common.DEFAULT_EXPERIMENT_CONFIG
        diverged = {
            name for name in ("learning_rate", "weight_decay", "max_epochs",
                              "patience", "optimizer", "momentum",
                              "min_epochs", "track_test_history")
            if getattr(cfg, name) != getattr(base, name)
        }
        assert diverged == {"weight_decay", "patience", "track_test_history"}
        assert cfg.weight_decay == 1e-3
        assert cfg.patience == 60

    def test_quick_config_is_default_with_shorter_budget(self):
        assert common.QUICK_EXPERIMENT_CONFIG == (
            common.DEFAULT_EXPERIMENT_CONFIG.with_overrides(
                max_epochs=60, patience=25))


class TestAnalyticalExperiments:
    def test_table2(self):
        result = run_experiment("table2", datasets=("texas",), num_pairs=2000,
                                print_result=False)
        assert "texas" in result.stats
        assert result.stats["texas"].num_intra_pairs > 0

    def test_fig2(self):
        result = run_experiment("fig2", datasets=("texas",), bins=10,
                                print_result=False)
        assert "texas" in result.histograms

    def test_fig1(self):
        result = run_experiment("fig1", "texas", num_centers=5,
                                print_result=False)
        assert result.mean_same_label_mass("simrank") > 0.0
        assert len(result.rows()) > 0

    def test_table3(self):
        # Use a large-regime graph: SIGMA's O(k n f) only wins once k·n ≪ m.
        result = run_experiment("table3", "pokec", scale_factor=0.25,
                                print_result=False)
        assert result.cheapest_model() == "SIGMA"
        assert len(result.entries) == 6


class TestTrainingExperiments:
    def test_table5_reduced(self):
        result = run_experiment(
            "table5", datasets=("texas",), models=("mlp", "sigma"),
            num_repeats=1, config=SMOKE_CONFIG, tune=False, print_result=False)
        ranks = result.ranks()
        assert set(ranks) == {"mlp", "sigma"}
        assert len(result.rows()) == 2

    def test_table7_reduced(self):
        result = run_experiment(
            "table7", datasets=("genius",), models=("linkx", "sigma"),
            num_repeats=1, scale_factor=0.2, config=SMOKE_CONFIG,
            print_result=False)
        assert len(result.rows()) == 2
        assert result.average_speedup_over("linkx") > 0.0

    def test_table9_reduced(self):
        result = run_experiment("table9", datasets=("penn94",),
                                deltas=(0.3, 0.7), num_repeats=1,
                                scale_factor=0.2, config=SMOKE_CONFIG,
                                print_result=False)
        assert result.best_delta("penn94") in (0.3, 0.7)

    def test_table10_reduced(self):
        result = run_experiment("table10", datasets=("genius",), num_repeats=1,
                                scale_factor=0.2, config=SMOKE_CONFIG,
                                print_result=False)
        assert 0.0 < result.alphas["genius"] < 1.0

    def test_table11_reduced(self):
        result = run_experiment("table11", datasets=("genius",), layers=(1,),
                                num_repeats=1, scale_factor=0.2,
                                config=SMOKE_CONFIG, print_result=False)
        assert "sigma-1" in result.accuracies and "gcn-1" in result.accuracies

    def test_fig5_reduced(self):
        result = run_experiment("fig5", num_sizes=2, base_scale=0.1,
                                config=SMOKE_CONFIG, print_result=False)
        assert len(result.points) == 4

    def test_fig8_reduced(self):
        result = run_experiment("fig8", datasets=("texas",),
                                config=SMOKE_CONFIG, num_pairs=2000,
                                print_result=False)
        assert len(result.stats) == 1


class TestSpecEntryEquivalence:
    """Builder keywords and a pre-built spec are one entry point: for every
    experiment, ``run_experiment(name, **builder_kwargs)`` and
    ``run_experiment(name, spec=build_spec(name, **builder_kwargs))``
    produce identical rows."""

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_KWARGS))
    def test_builder_kwargs_match_prebuilt_spec(self, name):
        kwargs = EQUIVALENCE_KWARGS[name]
        via_kwargs = run_experiment(name, print_result=False, **kwargs)
        via_spec = run_experiment(name, spec=build_spec(name, **kwargs),
                                  print_result=False)
        assert deterministic_rows(via_spec) == deterministic_rows(via_kwargs)

    def test_experiment_modules_expose_no_run_shim(self):
        for name in EQUIVALENCE_KWARGS:
            module = importlib.import_module(EXPERIMENT_MODULES[name])
            assert not hasattr(module, "run"), name

    def test_fig6_threads_the_simrank_config(self, tmp_path):
        result = run_experiment(
            "fig6", "texas", epsilons=(0.1,), top_ks=(8,), num_repeats=1,
            config=TINY_CONFIG, print_result=False,
            simrank=SimRankConfig(executor="serial",
                                  cache_dir=str(tmp_path)))
        assert len(result.cells) == 1
        # The cache directory was threaded through to the operator cache.
        assert any(tmp_path.glob("simrank-*.npz"))


class TestSweepEngine:
    def test_executors_produce_identical_rows(self):
        kwargs = dict(dataset_name="texas", epsilons=(0.1,), top_ks=(4, 8),
                      num_repeats=1, config=TINY_CONFIG, print_result=False)
        serial = run_experiment("fig6", **kwargs)
        threaded = run_experiment("fig6", executor="thread", workers=2, **kwargs)
        assert deterministic_rows(serial) == deterministic_rows(threaded)

    def test_process_executor_matches_serial(self):
        kwargs = dict(datasets=("texas", "chameleon"), num_pairs=500,
                      scale_factor=0.5, print_result=False)
        serial = run_experiment("table2", **kwargs)
        processed = run_experiment("table2", executor="process", workers=2,
                                   **kwargs)
        assert deterministic_rows(serial) == deterministic_rows(processed)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("table3", "pokec", scale_factor=0.25,
                           executor="gpu", print_result=False)

    def test_resume_skips_completed_cells(self, tmp_path):
        """A killed 2-cell sweep re-invoked with resume executes only the
        unfinished cell (asserted via the store's hit counters)."""
        store = get_artifact_store(tmp_path / "store")
        kwargs = dict(dataset_name="texas", epsilons=(0.1,), top_ks=(4, 8),
                      num_repeats=1, config=TINY_CONFIG, print_result=False,
                      store=store)
        first = run_experiment("fig6", **kwargs)
        assert (store.hits, store.misses, store.stores) == (0, 2, 2)

        # Full resume: nothing recomputed, identical result rows.
        second = run_experiment("fig6", **kwargs)
        assert (store.hits, store.misses, store.stores) == (2, 2, 2)
        assert second.rows() == first.rows()

        # Kill one cell's record — only that cell re-executes.
        victim = sorted((tmp_path / "store").glob("cell-*.json"))[0]
        victim.unlink()
        third = run_experiment("fig6", **kwargs)
        assert store.hits == 3
        assert store.stores == 3
        assert deterministic_rows(third) == deterministic_rows(first)

    def test_killed_sweep_keeps_completed_cells(self, tmp_path):
        """Cells persist incrementally: a sweep dying mid-run keeps every
        finished cell on disk, and the re-run resumes from them."""
        from repro.experiments.registry import ExperimentDefinition
        from repro.experiments.table2_simrank_stats import (
            class_stats_cell, _reduce as reduce_table2, spec as table2_spec)

        state = {"fail": True}

        def flaky_runner(cell):
            if cell.spec.dataset == "cora" and state["fail"]:
                raise RuntimeError("killed mid-sweep")
            return class_stats_cell(cell)

        definition = ExperimentDefinition(
            name="table2", title="t", builder=table2_spec,
            reduce=reduce_table2, cell=flaky_runner)
        store = get_artifact_store(tmp_path / "store")
        spec = build_spec("table2", datasets=("texas", "cora"), num_pairs=200)
        with pytest.raises(RuntimeError, match="killed"):
            execute(spec, definition=definition, store=store)
        assert store.stores == 1  # the texas cell survived the crash

        state["fail"] = False
        run = execute(spec, definition=definition, store=store)
        assert run.cells_resumed == 1  # texas served from the store
        assert run.cells_executed == 1  # only cora recomputed
        assert "texas" in run.result.stats and "cora" in run.result.stats

    def test_empty_grid_axis_runs_zero_cells(self):
        result = run_experiment("fig6", epsilons=(), print_result=False)
        assert result.cells == []

    def test_fig4_train_override_keeps_history_tracking(self):
        """A wholesale train override (the --quick transform) must not
        wipe the per-epoch history the fig4 curves are made of."""
        import math

        result = run_experiment("fig4", datasets=("genius",),
                                models=("sigma",), scale_factor=0.2,
                                train=TINY_CONFIG, print_result=False)
        curve = result.curve("sigma", "genius")
        assert curve.accuracies.size > 0
        assert not math.isnan(curve.final_accuracy)

    def test_force_recomputes_stored_cells(self, tmp_path):
        store = get_artifact_store(tmp_path / "store")
        kwargs = dict(datasets=("texas",), num_pairs=500, print_result=False,
                      store=store)
        run_experiment("table2", **kwargs)
        run_experiment("table2", force=True, **kwargs)
        assert store.hits == 0
        assert store.stores == 2

    def test_fig2_reuses_table2_cells(self, tmp_path):
        """Fig. 2 shares Table II's cell hashes: a store warmed by one
        serves the other without recomputation."""
        store = get_artifact_store(tmp_path / "shared")
        run_experiment("table2", datasets=("texas",), print_result=False,
                       store=store)
        assert (store.hits, store.stores) == (0, 1)
        result = run_experiment("fig2", datasets=("texas",), bins=10,
                                print_result=False, store=store)
        assert (store.hits, store.stores) == (1, 1)
        assert "texas" in result.histograms

    def test_artifact_record_embeds_resolved_spec(self, tmp_path):
        store = get_artifact_store(tmp_path / "store")
        run_experiment("table3", "pokec", scale_factor=0.25,
                       print_result=False, store=store)
        artifact = json.loads(store.artifact_path("table3").read_text())
        assert isinstance(artifact, list) and len(artifact) == 1
        record = artifact[0]
        assert record["experiment"] == "table3"
        spec = ExperimentSpec.from_dict(record["spec"])
        assert spec.base.dataset == "pokec"
        assert spec.base.scale_factor == 0.25
        assert record["cells"][0]["record"]["entries"]

    def test_execute_returns_cell_provenance(self):
        run = execute(build_spec("table3", "pokec", scale_factor=0.25))
        assert run.cells_executed == 1 and run.cells_resumed == 0
        assert run.outcomes[0].record["dataset"] == "pokec"
        assert run.result.cheapest_model() == "SIGMA"


class TestRegistry:
    def test_all_fifteen_experiments_registered(self):
        assert len(EXPERIMENT_MODULES) == 15
        assert EXPERIMENTS is EXPERIMENT_MODULES
        assert len(list_experiments()) == 15

    def test_definitions_have_titles_and_builders(self):
        for definition in list_experiments():
            assert definition.title
            spec = definition.default_spec()
            assert spec.name == definition.name
            assert spec.num_cells >= 1

    def test_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("table99", print_result=False)

    def test_unsupported_builder_argument_is_hard_error(self):
        """The registry replacement for the silent ``scale_factor`` drop:
        a knob the experiment does not define raises, never no-ops."""
        with pytest.raises(ExperimentError, match="fig1"):
            run_experiment("fig1", bogus_knob=3, print_result=False)

    def test_scale_factor_reaches_every_experiment(self):
        """``fig5`` historically lacked the ``scale_factor`` parameter and
        the old dispatcher silently dropped the flag; as a spec transform
        it now scales the synthetic grid by construction."""
        result = run_experiment("fig5", num_sizes=1, models=("sigma",),
                                config=TINY_CONFIG, scale_factor=0.05,
                                print_result=False)
        assert result.points[0].num_nodes < 600

    def test_build_spec_round_trips(self):
        spec = build_spec("fig6", "texas", epsilons=(0.1,), top_ks=(4, 8))
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_get_experiment_exposes_cell_runner(self):
        definition = get_experiment("table2")
        assert definition.cell is table2_simrank_stats.class_stats_cell


class TestRunnerCLI:
    def test_list_output(self, capsys):
        assert runner_main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "available experiments" in output
        for name in ("fig6", "table5", "table11"):
            assert name in output

    def test_no_argument_lists(self, capsys):
        assert runner_main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["table99"])
        assert excinfo.value.code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_describe_prints_resolved_spec(self, capsys):
        assert runner_main(["fig6", "--describe", "--scale-factor", "0.25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"] == 12
        assert payload["spec"]["base"]["scale_factor"] == 0.25
        assert payload["spec"]["name"] == "fig6"

    def test_fig6_end_to_end_at_smoke_scale(self, capsys, tmp_path):
        """The satellite pin: ``repro-experiment fig6 --scale-factor …``
        runs the full declarative grid and persists its artefact."""
        store_dir = tmp_path / "artifacts"
        assert runner_main(["fig6", "--scale-factor", "0.02", "--quick",
                            "--store", str(store_dir)]) == 0
        output = capsys.readouterr().out
        assert "== fig6 ==" in output
        assert "epsilon" in output and "top_k" in output
        artifact = json.loads((store_dir / "experiment-fig6.json").read_text())
        assert artifact[0]["cells_executed"] == 12
        assert len(list(store_dir.glob("cell-*.json"))) == 12

    def test_runner_dispatch_prints_table(self, capsys):
        result = run_experiment("table3", "pokec", scale_factor=0.25)
        assert result.cheapest_model() == "SIGMA"
        captured = capsys.readouterr()
        assert "table3" in captured.out
