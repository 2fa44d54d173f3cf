"""DetectorConfig validation and derived parameters."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.config import DetectorConfig, NOMINAL_CONFIG
from repro.errors import ConfigError, ReproError


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("quantum_size", 0),
            ("window_quanta", 0),
            ("high_state_threshold", 0),
            ("ec_threshold", 0.0),
            ("ec_threshold", 1.5),
            ("minhash_size", 0),
            ("min_cluster_size", 1),
            ("node_grace_quanta", -1),
            ("rank_threshold_scale", -0.1),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError):
            DetectorConfig(**{field: value})

    def test_config_error_is_repro_and_value_error(self):
        with pytest.raises(ReproError):
            DetectorConfig(quantum_size=0)
        with pytest.raises(ValueError):
            DetectorConfig(quantum_size=0)

    def test_nominal_matches_table2(self):
        assert NOMINAL_CONFIG.quantum_size == 160
        assert NOMINAL_CONFIG.high_state_threshold == 4
        assert NOMINAL_CONFIG.ec_threshold == pytest.approx(0.20)
        assert NOMINAL_CONFIG.window_quanta == 30


class TestDerivedParameters:
    def test_minhash_size_formula(self):
        """p = min(theta / 2, 1 / gamma) per Section 3.2.2."""
        config = DetectorConfig(high_state_threshold=4, ec_threshold=0.2)
        assert config.effective_minhash_size == 2  # min(2, 5)
        config = DetectorConfig(high_state_threshold=20, ec_threshold=0.25)
        assert config.effective_minhash_size == 4  # min(10, 4)

    def test_minhash_size_at_least_one(self):
        config = DetectorConfig(high_state_threshold=1, ec_threshold=0.9)
        assert config.effective_minhash_size == 1

    def test_minhash_override(self):
        config = DetectorConfig(minhash_size=7)
        assert config.effective_minhash_size == 7

    def test_window_messages(self):
        config = DetectorConfig(quantum_size=160, window_quanta=30)
        assert config.window_messages == 4800  # the paper's 4800 tweets

    def test_with_overrides(self):
        config = NOMINAL_CONFIG.with_overrides(quantum_size=80)
        assert config.quantum_size == 80
        assert config.ec_threshold == NOMINAL_CONFIG.ec_threshold
        with pytest.raises(ConfigError):
            NOMINAL_CONFIG.with_overrides(quantum_size=-1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            NOMINAL_CONFIG.quantum_size = 10


class TestDictRoundTrip:
    """to_dict/from_dict — the checkpoint serialization path."""

    def test_nominal_round_trip(self):
        data = NOMINAL_CONFIG.to_dict()
        assert data["quantum_size"] == 160
        assert DetectorConfig.from_dict(data) == NOMINAL_CONFIG

    def test_dict_is_json_serializable(self):
        import json

        restored = DetectorConfig.from_dict(
            json.loads(json.dumps(NOMINAL_CONFIG.to_dict()))
        )
        assert restored == NOMINAL_CONFIG

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="hyperdrive"):
            DetectorConfig.from_dict({"hyperdrive": True})

    @pytest.mark.parametrize(
        "field",
        [
            "workers", "shard_count", "oracle_akg", "oracle_ranking",
            "track_ckg_stats",
        ],
    )
    def test_removed_execution_fields_are_unknown_fields(self, field):
        with pytest.raises(ConfigError, match=f"unknown config fields: {field}"):
            DetectorConfig.from_dict({field: 2})
        with pytest.raises(TypeError):
            DetectorConfig(**{field: 2})

    def test_missing_fields_fall_back_to_defaults(self):
        restored = DetectorConfig.from_dict({"quantum_size": 80})
        assert restored == DetectorConfig(quantum_size=80)

    def test_out_of_range_values_still_validated(self):
        with pytest.raises(ConfigError):
            DetectorConfig.from_dict({"quantum_size": 0})

    @given(
        overrides=st.fixed_dictionaries(
            {},
            optional={
                "quantum_size": st.integers(1, 5000),
                "window_quanta": st.integers(1, 100),
                "high_state_threshold": st.integers(1, 50),
                "ec_threshold": st.floats(
                    0.001, 1.0, exclude_min=False, allow_nan=False
                ),
                "minhash_size": st.one_of(st.none(), st.integers(1, 64)),
                "use_minhash_filter": st.booleans(),
                "min_cluster_size": st.integers(2, 20),
                "node_grace_quanta": st.integers(0, 10),
                "rank_threshold_scale": st.floats(
                    0.0, 100.0, allow_nan=False
                ),
                "require_noun": st.booleans(),
                "max_tokens_per_message": st.integers(1, 200),
                "seed": st.integers(0, 2**62),
            },
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_with_overrides_survives_round_trip(self, overrides):
        """Property: any with_overrides-built config round-trips exactly,
        including through a JSON encode (the checkpoint path)."""
        import json

        config = NOMINAL_CONFIG.with_overrides(**overrides)
        assert DetectorConfig.from_dict(config.to_dict()) == config
        assert (
            DetectorConfig.from_dict(json.loads(json.dumps(config.to_dict())))
            == config
        )
