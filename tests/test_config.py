"""Suite for the config layer (`repro.config`).

Covers the acceptance criteria of the config-object API redesign:

* ``SimRankConfig`` / ``RunSpec`` round-trip through ``to_dict`` /
  ``from_dict`` and reject unknown fields and invalid values.
* ``SimRankConfig.from_cli_args`` is in parity with the CLI flags: every
  mapped flag exists on the parser and lands in the right field.
* The config is the only way in: ``simrank_operator`` and the SIGMA
  models reject the retired pre-config keywords, and the keyword and
  field forms of the cache key hash identically.
"""

import pytest

from repro.config import (
    CACHE_KEY_FIELDS,
    SIGMA_DEFAULT_SIMRANK,
    RunSpec,
    SimRankConfig,
)
from repro.errors import ConfigError, TrainingError
from repro.simrank.cache import get_operator_cache
from repro.simrank.topk import simrank_operator
from repro.training.config import TrainConfig


class TestSimRankConfigValidation:
    def test_defaults_are_valid(self):
        config = SimRankConfig()
        assert config.method == "auto"
        assert config.epsilon == 0.1
        assert config.top_k is None

    @pytest.mark.parametrize("bad", [
        {"method": "magic"},
        {"decay": 0.0},
        {"decay": 1.0},
        {"epsilon": 0.0},
        {"epsilon": -0.1},
        {"top_k": 0},
        {"top_k": -4},
        {"top_k": True},
        {"exact_size_limit": -1},
        {"kernel": "numba"},
        {"executor": "fiber"},
        {"workers": 0},
        {"cache_max_bytes": 0},
        {"cache_max_bytes": -5},
        {"epsilon": "abc"},
        {"decay": None},
        {"top_k": "many"},
        {"cache_dir": 42},
    ])
    def test_invalid_fields_raise(self, bad):
        with pytest.raises(ConfigError):
            SimRankConfig(**bad)

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            SimRankConfig(cache_max_bytes=-1)

    def test_coercion(self, tmp_path):
        config = SimRankConfig(decay="0.5", epsilon="0.2", top_k=8.0,
                               workers=2.0, cache_dir=tmp_path)
        assert config.decay == 0.5 and isinstance(config.decay, float)
        assert config.top_k == 8 and isinstance(config.top_k, int)
        assert config.workers == 2 and isinstance(config.workers, int)
        assert config.cache_dir == str(tmp_path)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SimRankConfig().epsilon = 0.5


class TestSimRankConfigCopies:
    def test_with_overrides_returns_validated_copy(self):
        base = SimRankConfig()
        tight = base.with_overrides(epsilon=0.01, top_k=16)
        assert tight.epsilon == 0.01 and tight.top_k == 16
        assert base.epsilon == 0.1 and base.top_k is None

    def test_with_overrides_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="num_workers"):
            SimRankConfig().with_overrides(num_workers=4)

    def test_with_overrides_revalidates(self):
        with pytest.raises(ConfigError):
            SimRankConfig().with_overrides(epsilon=-1.0)


class TestSimRankConfigSerialisation:
    def test_round_trip(self, tmp_path):
        config = SimRankConfig(method="localpush", decay=0.7, epsilon=0.05,
                               top_k=16, row_normalize=True,
                               executor="process", workers=3, kernel="scipy",
                               cache_dir=str(tmp_path), cache_max_bytes=1 << 20)
        assert SimRankConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_json_serialisable(self):
        import json

        json.dumps(SimRankConfig().to_dict())

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="num_workers"):
            SimRankConfig.from_dict({"num_workers": 4})

    def test_from_dict_validates(self):
        with pytest.raises(ConfigError):
            SimRankConfig.from_dict({"epsilon": -1.0})


class TestCacheKeyFields:
    def test_field_set_is_canonical(self):
        fields = SimRankConfig().cache_key_fields(num_nodes=500)
        assert tuple(fields) == CACHE_KEY_FIELDS

    def test_auto_resolves_by_size(self):
        config = SimRankConfig(exact_size_limit=100)
        assert config.cache_key_fields(50)["method"] == "series"
        assert config.cache_key_fields(101)["method"] == "localpush"

    def test_exact_method_drops_epsilon(self):
        fields = SimRankConfig(method="exact").cache_key_fields(50)
        assert fields["epsilon"] is None

    def test_executor_and_workers_never_enter_the_key(self):
        """The whole execution plan stays out of the key, on both sides
        of the executor ladder's node-count threshold."""
        plain = SimRankConfig(method="localpush")
        for num_nodes in (100, 1000, 5000):
            for plan in (dict(executor="serial"), dict(executor="thread"),
                         dict(executor="process", workers=8),
                         dict(kernel="scipy")):
                pooled = plain.with_overrides(**plan)
                assert (plain.cache_key_fields(num_nodes)
                        == pooled.cache_key_fields(num_nodes))


class TestFromCliArgs:
    def test_every_mapped_flag_exists_on_the_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([])
        for attr in SimRankConfig.CLI_FLAG_FIELDS:
            assert hasattr(args, attr), f"parser is missing --{attr}"

    def test_flag_parity(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "--simrank-method", "localpush", "--decay", "0.7",
            "--epsilon", "0.05", "--top-k", "16",
            "--simrank-executor", "thread", "--simrank-kernel", "scipy",
            "--simrank-workers", "3", "--simrank-cache-dir", str(tmp_path),
            "--simrank-cache-max-bytes", "4096",
        ])
        config = SimRankConfig.from_cli_args(args)
        assert config == SimRankConfig(
            method="localpush", decay=0.7, epsilon=0.05, top_k=16,
            executor="thread", kernel="scipy", workers=3,
            cache_dir=str(tmp_path), cache_max_bytes=4096)

    def test_unset_flags_inherit_from_base(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["--epsilon", "0.05"])
        config = SimRankConfig.from_cli_args(args, base=SIGMA_DEFAULT_SIMRANK)
        assert config.epsilon == 0.05
        assert config.top_k == SIGMA_DEFAULT_SIMRANK.top_k == 32


class TestTrainConfigSerialisation:
    def test_round_trip(self):
        config = TrainConfig(learning_rate=0.02, weight_decay=1e-3,
                             patience=7, max_epochs=50)
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(TrainingError, match="momentum_decay"):
            TrainConfig.from_dict({"momentum_decay": 0.9})


class TestRunSpec:
    def test_defaults(self):
        spec = RunSpec()
        assert spec.model == "sigma" and spec.dataset == "texas"
        assert spec.train == TrainConfig()

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="transformer"):
            RunSpec(model="transformer")

    def test_model_name_normalised(self):
        assert RunSpec(model="SIGMA").model == "sigma"

    def test_simrank_only_for_sigma_models(self):
        with pytest.raises(ConfigError, match="glognn"):
            RunSpec(model="glognn", simrank=SimRankConfig())
        RunSpec(model="sigma_iterative", simrank=SimRankConfig())  # fine

    @pytest.mark.parametrize("bad", [
        {"repeats": 0},
        {"scale_factor": 0.0},
        {"overrides": "hidden=16"},
        {"simrank": "localpush"},
    ])
    def test_invalid_fields_raise(self, bad):
        with pytest.raises(ConfigError):
            RunSpec(**bad)

    def test_round_trip_with_nested_configs(self):
        spec = RunSpec(model="sigma", dataset="chameleon",
                       overrides={"hidden": 16},
                       train=TrainConfig(max_epochs=20, patience=5),
                       simrank=SimRankConfig(epsilon=0.05, top_k=8),
                       seed=7, repeats=2, scale_factor=0.5)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_serialisable(self):
        import json

        json.dumps(RunSpec(simrank=SimRankConfig(top_k=8)).to_dict())

    def test_simrank_inside_overrides_round_trips(self):
        """__post_init__ permits the config inside overrides; that shape
        must serialise and reconstruct too."""
        import json

        spec = RunSpec(model="sigma",
                       overrides={"hidden": 16,
                                  "simrank": SimRankConfig(top_k=8)})
        payload = spec.to_dict()
        json.dumps(payload)
        rebuilt = RunSpec.from_dict(payload)
        assert rebuilt.overrides["simrank"] == SimRankConfig(top_k=8)
        assert rebuilt == spec

    def test_with_overrides(self):
        spec = RunSpec().with_overrides(dataset="cornell", repeats=3)
        assert spec.dataset == "cornell" and spec.repeats == 3
        with pytest.raises(ConfigError):
            RunSpec().with_overrides(epochs=10)


# ---------------------------------------------------------------------- #
# The config is the only way in
# ---------------------------------------------------------------------- #
class TestOperatorKwargEquivalence:
    """The pre-config keywords are gone; only the key derivation has two
    (equivalent) spellings left."""

    CONFIG = SimRankConfig(method="localpush", epsilon=0.1, top_k=8)

    def test_key_for_matches_cache_key_fields(self, small_heterophilous_graph,
                                              tmp_path):
        """The keyword key derivation and the config derivation hash to
        the same on-disk key."""
        cache = get_operator_cache(tmp_path / "keys")
        n = small_heterophilous_graph.num_nodes
        keyword_key = cache.key_for(
            small_heterophilous_graph, method="localpush", decay=0.6,
            epsilon=0.1, top_k=8, row_normalize=False)
        config_key = cache.key_for_fields(
            small_heterophilous_graph, self.CONFIG.cache_key_fields(n))
        assert keyword_key == config_key

    def test_mixing_config_and_kwargs_is_an_error(self, small_heterophilous_graph):
        """Operator parameters travel only inside the config."""
        with pytest.raises(TypeError):
            simrank_operator(small_heterophilous_graph, self.CONFIG,
                             epsilon=0.2)
        with pytest.raises(TypeError):
            simrank_operator(small_heterophilous_graph, backend="vectorized")


class TestModelKwargEquivalence:
    def test_sigma_mixing_config_and_kwargs_is_an_error(
            self, small_heterophilous_graph):
        from repro.models.sigma import SIGMA
        from repro.models.sigma_iterative import SIGMAIterative

        with pytest.raises(TypeError):
            SIGMA(small_heterophilous_graph, hidden=8,
                  simrank=SimRankConfig(top_k=8), top_k=16, rng=0)
        with pytest.raises(TypeError):
            SIGMAIterative(small_heterophilous_graph, hidden=8,
                           simrank_method="localpush", rng=0)

    def test_sigma_default_config_matches_paper_settings(
            self, small_heterophilous_graph):
        from repro.models.sigma import SIGMA

        model = SIGMA(small_heterophilous_graph, hidden=8, rng=0)
        assert model.simrank_config == SIGMA_DEFAULT_SIMRANK
        assert model.simrank_config.top_k == 32
        assert model.simrank_config.epsilon == 0.1

    def test_explicit_top_k_none_still_means_no_pruning(
            self, small_heterophilous_graph):
        """``top_k=None`` in the config disables pruning (the SIGMA
        default is 32) instead of falling back to the default."""
        from repro.models.sigma import SIGMA

        model = SIGMA(small_heterophilous_graph, hidden=8,
                      simrank=SIGMA_DEFAULT_SIMRANK.with_overrides(top_k=None),
                      rng=0)
        assert model.simrank_config.top_k is None
        assert model.simrank.top_k is None


class TestErrorCompatibility:
    def test_config_error_is_a_simrank_error(self, tiny_graph):
        """Callers that wrap the operator pipeline in ``except
        SimRankError`` keep catching config validation failures."""
        from repro.errors import SimRankError

        with pytest.raises(SimRankError):
            simrank_operator(tiny_graph, SimRankConfig(method="magic"))
        with pytest.raises(SimRankError):
            simrank_operator(tiny_graph, SimRankConfig(top_k=0))
