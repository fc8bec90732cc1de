"""ExecutionPolicy: validation, layering, serialization, immutability."""

import dataclasses
import json

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import DEFAULT, FULL, SMOKE
from repro.session import POLICY_ENV_VARS, POLICY_FILE_ENV, ExecutionPolicy


class TestDefaultsAndValidation:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.runtime == "batched"
        assert policy.executor == "serial"
        assert policy.max_workers is None
        assert policy.tile_size is None
        assert policy.scale == "default"
        assert policy.sampling_rate == 1.0
        assert policy.seed == 0

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("runtime", "vectorized"),
            ("executor", "gpu"),
            ("max_workers", 0),
            ("max_workers", -2),
            ("tile_size", 0),
            ("tile_size", 1.5),
            ("scale", "galactic"),
            ("sampling_rate", 0.0),
            ("sampling_rate", 1.5),
            ("seed", "zero"),
            ("runtime", "engine"),
            ("runtime", "auto"),
        ],
    )
    def test_invalid_values_rejected(self, field, bad):
        with pytest.raises(ExperimentError, match=field):
            ExecutionPolicy(**{field: bad})

    def test_frozen(self):
        policy = ExecutionPolicy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.runtime = "percell"

    def test_derive_replaces_and_validates(self):
        base = ExecutionPolicy()
        derived = base.derive(tile_size=4, executor="thread")
        assert derived.tile_size == 4 and derived.executor == "thread"
        assert base.tile_size is None  # base untouched
        with pytest.raises(ExperimentError, match="tile_size"):
            base.derive(tile_size=-1)
        with pytest.raises(ExperimentError, match="unknown policy field"):
            base.derive(warp_factor=9)

    def test_preset_property(self):
        assert ExecutionPolicy(scale="smoke").preset is SMOKE
        assert ExecutionPolicy(scale="default").preset is DEFAULT
        assert ExecutionPolicy(scale="full").preset is FULL


class TestSerialization:
    def test_json_round_trip(self):
        policy = ExecutionPolicy(
            runtime="percell",
            executor="process",
            max_workers=3,
            tile_size=2,
            scale="smoke",
            sampling_rate=0.5,
            seed=42,
        )
        assert ExecutionPolicy.from_json(policy.to_json()) == policy
        assert ExecutionPolicy.from_dict(policy.to_dict()) == policy

    def test_json_is_plain_object(self):
        data = json.loads(ExecutionPolicy().to_json())
        assert data["tile_size"] is None
        assert set(data) == set(POLICY_ENV_VARS)

    def test_from_dict_rejects_unknown_and_invalid(self):
        with pytest.raises(ExperimentError, match="unknown policy field"):
            ExecutionPolicy.from_dict({"runtime": "batched", "cores": 4})
        with pytest.raises(ExperimentError, match="runtime"):
            ExecutionPolicy.from_json('{"runtime": "quantum"}')
        with pytest.raises(ExperimentError, match="malformed"):
            ExecutionPolicy.from_json("{not json")

    @pytest.mark.parametrize("layer", ["dict", "file", "explicit"])
    @pytest.mark.parametrize(
        "field, value", [("shards", 1), ("stream_version", 2)],
        ids=["shards", "stream_version"],
    )
    def test_legacy_field_rejected(self, field, value, layer, tmp_path):
        """Records written before a field was removed still carry it; every
        layer refuses them instead of dropping it."""
        legacy = {"runtime": "batched", field: value}
        with pytest.raises(ExperimentError, match="unknown .*field"):
            if layer == "dict":
                ExecutionPolicy.from_dict(legacy)
            elif layer == "file":
                path = tmp_path / "legacy.json"
                path.write_text(json.dumps(legacy))
                ExecutionPolicy.resolve(env={}, policy_file=path)
            else:
                ExecutionPolicy.resolve(explicit=legacy, env={})

    def test_describe_lists_non_defaults_only(self):
        text = ExecutionPolicy(executor="thread", tile_size=1).describe()
        assert "executor='thread'" in text and "tile_size=1" in text
        assert "runtime" not in text


class TestLayeredResolution:
    def test_class_defaults_when_nothing_set(self):
        assert ExecutionPolicy.resolve(env={}) == ExecutionPolicy()

    def test_env_layer(self):
        env = {
            "REPRO_EXECUTOR": "thread",
            "REPRO_TILE_SIZE": "1",
            "REPRO_MAX_WORKERS": "none",
            "REPRO_SAMPLING_RATE": "0.25",
            "REPRO_SEED": "9",
        }
        policy = ExecutionPolicy.resolve(env=env)
        assert policy.executor == "thread"
        assert policy.tile_size == 1
        assert policy.max_workers is None
        assert policy.sampling_rate == 0.25
        assert policy.seed == 9

    def test_explicit_beats_env(self):
        policy = ExecutionPolicy.resolve(
            explicit={"executor": "process", "seed": 1},
            env={"REPRO_EXECUTOR": "thread", "REPRO_SEED": "9"},
        )
        assert policy.executor == "process" and policy.seed == 1

    def test_explicit_none_falls_through(self):
        policy = ExecutionPolicy.resolve(
            explicit={"executor": None}, env={"REPRO_EXECUTOR": "thread"}
        )
        assert policy.executor == "thread"

    def test_env_beats_file(self, tmp_path):
        policy_file = tmp_path / "policy.json"
        policy_file.write_text('{"executor": "process", "tile_size": 7}')
        policy = ExecutionPolicy.resolve(
            env={"REPRO_EXECUTOR": "thread"}, policy_file=policy_file
        )
        assert policy.executor == "thread"  # env wins
        assert policy.tile_size == 7  # file fills the rest

    def test_file_from_env_variable(self, tmp_path):
        policy_file = tmp_path / "policy.json"
        policy_file.write_text('{"tile_size": 2}')
        policy = ExecutionPolicy.resolve(env={POLICY_FILE_ENV: str(policy_file)})
        assert policy.tile_size == 2

    def test_base_is_lowest_layer(self):
        base = ExecutionPolicy(scale="smoke")
        assert ExecutionPolicy.resolve(env={}, base=base).scale == "smoke"
        assert (
            ExecutionPolicy.resolve(env={"REPRO_SCALE": "full"}, base=base).scale
            == "full"
        )

    def test_full_precedence_chain(self, tmp_path):
        policy_file = tmp_path / "policy.json"
        policy_file.write_text('{"seed": 3, "tile_size": 3, "executor": "process"}')
        policy = ExecutionPolicy.resolve(
            explicit={"seed": 1},
            env={"REPRO_SEED": "2", "REPRO_TILE_SIZE": "2"},
            policy_file=policy_file,
            base=ExecutionPolicy(scale="smoke"),
        )
        assert policy.seed == 1  # explicit
        assert policy.tile_size == 2  # env
        assert policy.executor == "process"  # file
        assert policy.scale == "smoke"  # base
        assert policy.runtime == "batched"  # class default

    def test_bad_env_values_raise(self):
        with pytest.raises(ExperimentError, match="REPRO_TILE_SIZE"):
            ExecutionPolicy.resolve(env={"REPRO_TILE_SIZE": "many"})
        with pytest.raises(ExperimentError, match="REPRO_SEED"):
            ExecutionPolicy.resolve(env={"REPRO_SEED": "3.5"})
        with pytest.raises(ExperimentError, match="executor"):
            ExecutionPolicy.resolve(env={"REPRO_EXECUTOR": "gpu"})

    @pytest.mark.parametrize("runtime", ["engine", "auto"])
    def test_removed_runtimes_rejected_from_env(self, runtime):
        with pytest.raises(ExperimentError, match="runtime"):
            ExecutionPolicy.resolve(env={"REPRO_RUNTIME": runtime})

    def test_bad_policy_file_raises(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ExperimentError, match="cannot read policy file"):
            ExecutionPolicy.resolve(env={}, policy_file=missing)
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ExperimentError, match="JSON object"):
            ExecutionPolicy.resolve(env={}, policy_file=bad)
        unknown = tmp_path / "unknown.json"
        unknown.write_text('{"warp": 9}')
        with pytest.raises(ExperimentError, match="unknown field"):
            ExecutionPolicy.resolve(env={}, policy_file=unknown)

    def test_unknown_explicit_field_raises(self):
        with pytest.raises(ExperimentError, match="unknown policy field"):
            ExecutionPolicy.resolve(explicit={"warp": 9}, env={})

    def test_os_environ_is_read_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        monkeypatch.setenv("REPRO_TILE_SIZE", "2")
        policy = ExecutionPolicy.resolve()
        assert policy.executor == "thread" and policy.tile_size == 2
