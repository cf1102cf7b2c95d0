"""Tests for the training CLI (a thin shell over RunSpec + repro.api)."""

import json

import pytest

from repro.cli import _unsupported_flags, build_parser, build_runspec, main
from repro.config import RunSpec, SimRankConfig
from repro.training.config import TrainConfig


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.model == "sigma"
        assert args.dataset == "texas"

    def test_training_defaults_sourced_from_trainconfig(self):
        """The numbers live once, on TrainConfig — the parser inherits."""
        args = build_parser().parse_args([])
        reference = TrainConfig()
        assert args.lr == reference.learning_rate
        assert args.weight_decay == reference.weight_decay
        assert args.epochs == reference.max_epochs
        assert args.patience == reference.patience

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--model", "transformer"])

    def test_overrides_parsed(self):
        args = build_parser().parse_args(
            ["--model", "glognn", "--delta", "0.3", "--top-k", "16"])
        assert args.model == "glognn"
        assert args.delta == 0.3
        assert args.top_k == 16


class TestBuildRunSpec:
    def test_sigma_flags_fold_into_one_config(self, tmp_path):
        args = build_parser().parse_args([
            "--model", "sigma", "--dataset", "chameleon", "--repeats", "2",
            "--epsilon", "0.05", "--top-k", "16",
            "--simrank-executor", "thread",
            "--simrank-cache-dir", str(tmp_path)])
        spec = build_runspec(args)
        assert isinstance(spec, RunSpec)
        assert spec.model == "sigma" and spec.dataset == "chameleon"
        assert spec.repeats == 2
        assert spec.simrank == SimRankConfig(
            epsilon=0.05, top_k=16, executor="thread",
            cache_dir=str(tmp_path))
        assert "top_k" not in spec.overrides

    def test_sigma_defaults_are_the_paper_settings(self):
        spec = build_runspec(build_parser().parse_args([]))
        assert spec.simrank.top_k == 32 and spec.simrank.epsilon == 0.1

    def test_baseline_keeps_top_k_as_model_override(self):
        args = build_parser().parse_args(
            ["--model", "pprgo", "--top-k", "16", "--hidden", "32"])
        spec = build_runspec(args)
        assert spec.simrank is None
        assert spec.overrides == {"hidden": 32, "top_k": 16}

    def test_train_config_carries_cli_values(self):
        args = build_parser().parse_args(["--lr", "0.1", "--patience", "7"])
        spec = build_runspec(args)
        assert spec.train.learning_rate == 0.1
        assert spec.train.patience == 7


class TestExperimentSubcommand:
    def test_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        output = capsys.readouterr().out
        assert "available experiments" in output
        assert "fig6" in output and "table5" in output

    def test_describe(self, capsys):
        assert main(["experiment", "table3", "--describe"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["name"] == "table3"
        assert payload["cells"] == 1

    def test_unknown_experiment_exits_with_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "nope"])
        assert excinfo.value.code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_experiment_end_to_end(self, capsys):
        assert main(["experiment", "table3", "--scale-factor", "0.25"]) == 0
        output = capsys.readouterr().out
        assert "== table3 ==" in output
        assert "SIGMA" in output


class TestMain:
    def test_runs_end_to_end(self, capsys):
        exit_code = main(["--model", "mlp", "--dataset", "texas", "--repeats", "1",
                          "--epochs", "15", "--patience", "10", "--hidden", "16"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "accuracy" in output

    def test_json_output(self, capsys):
        exit_code = main(["--model", "sigma", "--dataset", "texas", "--repeats", "1",
                          "--epochs", "10", "--patience", "5", "--hidden", "16",
                          "--top-k", "8", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "sigma"
        assert 0.0 <= payload["accuracy_mean"] <= 100.0


class TestUnsupportedFlags:
    """A flag the chosen model cannot take is a usage error, not a
    ``TypeError`` traceback from the model constructor."""

    @pytest.mark.parametrize("argv, flag", [
        (["--model", "gcn", "--delta", "0.3", "--dataset", "texas"], "--delta"),
        (["--model", "mlp", "--top-k", "4"], "--top-k"),
        (["--model", "pprgo", "--epsilon", "0.1"], "--epsilon"),
    ])
    def test_override_the_model_does_not_take(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: not a hyper-parameter of model" in err
        assert "Traceback" not in err

    def test_overrides_the_model_takes_pass(self):
        for argv in (["--model", "pprgo", "--top-k", "16", "--hidden", "32"],
                     ["--model", "glognn", "--delta", "0.3"],
                     ["--model", "sigma", "--delta", "0.3", "--top-k", "8"],
                     # SIGMA models fold --top-k/--epsilon into their
                     # SimRankConfig instead of passing them as overrides.
                     ["--model", "sigma_iterative", "--epsilon", "0.2"]):
            assert _unsupported_flags(build_parser().parse_args(argv)) is None

    def test_simrank_flags_still_name_the_sigma_models(self, capsys):
        with pytest.raises(SystemExit):
            main(["--model", "gcn", "--simrank-kernel", "scipy"])
        assert "only supported by SIGMA models" in capsys.readouterr().err

    def test_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--simrank-backend", "sharded"])
        assert excinfo.value.code == 2
        capsys.readouterr()
