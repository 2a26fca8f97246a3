"""Declarative service configuration: TOML round trip + CLI overrides.

``ServiceConfig`` is the single schema for the in-process service and
the multi-process cluster topology; these tests pin the round-trip
guarantees (``to_dict``/``from_dict``, ``to_toml``/``from_file``), the
unknown-key rejection at both nesting levels, the Python < 3.11
fallback TOML reader's parity with ``tomllib``, and the flags-override-
file merge the demo CLI performs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.service import ClusterConfig, ServiceConfig, ServiceConfigError
from repro.service.config import _parse_simple_toml


def sample_config(**overrides):
    base = dict(
        num_shards=3,
        max_batch_kmers=96,
        max_linger_s=0.002,
        queue_depth=32,
        default_deadline_s=0.25,
        retry_after_s=0.01,
        dedup=True,
        cache_capacity=128,
        cluster=ClusterConfig(workers=2),
    )
    base.update(overrides)
    return ServiceConfig(**base)


class TestDictRoundTrip:
    def test_round_trip_with_cluster(self):
        config = sample_config()
        assert ServiceConfig.from_dict(config.to_dict()) == config

    def test_round_trip_without_cluster(self):
        config = sample_config(cluster=None)
        data = config.to_dict()
        assert "cluster" not in data
        assert ServiceConfig.from_dict(data) == config

    def test_none_optionals_are_omitted(self):
        data = ServiceConfig(default_deadline_s=None).to_dict()
        assert "default_deadline_s" not in data

    def test_unknown_top_level_key(self):
        with pytest.raises(ServiceConfigError, match="unknown service config"):
            ServiceConfig.from_dict({"num_shards": 2, "shards": 2})

    def test_unknown_cluster_key(self):
        with pytest.raises(ServiceConfigError, match="unknown cluster config"):
            ServiceConfig.from_dict({"cluster": {"workerz": 2}})

    def test_cluster_must_be_a_table(self):
        with pytest.raises(ServiceConfigError, match="cluster must be"):
            ServiceConfig.from_dict({"cluster": 4})

    def test_non_dict_payload(self):
        with pytest.raises(ServiceConfigError, match="table/dict"):
            ServiceConfig.from_dict([1, 2])


class TestTomlRoundTrip:
    def test_save_and_load(self, tmp_path):
        config = sample_config()
        path = config.save(tmp_path / "service.toml")
        assert ServiceConfig.from_file(path) == config

    def test_load_without_cluster(self, tmp_path):
        config = sample_config(cluster=None)
        path = config.save(tmp_path / "service.toml")
        loaded = ServiceConfig.from_file(path)
        assert loaded == config
        assert loaded.cluster is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ServiceConfigError, match="no such config"):
            ServiceConfig.from_file(tmp_path / "absent.toml")

    def test_unknown_key_in_file(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("bogus_key = 3\n", encoding="utf-8")
        with pytest.raises(ServiceConfigError, match="unknown service config"):
            ServiceConfig.from_file(path)

    def test_fallback_parser_matches_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        text = sample_config().to_toml()
        assert _parse_simple_toml(text, source="<mem>") == tomllib.loads(text)

    def test_fallback_parser_loads_cluster_table(self):
        text = sample_config().to_toml()
        data = _parse_simple_toml(text, source="<mem>")
        config = ServiceConfig.from_dict(data)
        assert config.cluster == ClusterConfig(workers=2)

    def test_fallback_parser_rejects_garbage(self):
        with pytest.raises(ServiceConfigError, match="expected 'key = value'"):
            _parse_simple_toml("not a toml line\n", source="<mem>")
        with pytest.raises(ServiceConfigError, match="unsupported table"):
            _parse_simple_toml("[a.b]\n", source="<mem>")


class TestClusterConfig:
    def test_defaults_are_valid(self):
        assert ClusterConfig().workers == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ClusterConfig().workers = 5  # type: ignore[misc]


class TestCliOverrides:
    """The demo CLI merges explicit flags over a ``--config`` file."""

    def parse(self, *argv):
        from repro.service.__main__ import build_parser, resolve_config

        parser = build_parser()
        return resolve_config(parser.parse_args(list(argv)), parser)

    def test_file_is_the_baseline(self, tmp_path):
        path = sample_config().save(tmp_path / "svc.toml")
        config = self.parse("--config", str(path))
        assert config.num_shards == 3
        assert config.max_batch_kmers == 96
        assert config.cluster == ClusterConfig(workers=2)

    def test_explicit_flag_overrides_file(self, tmp_path):
        path = sample_config().save(tmp_path / "svc.toml")
        config = self.parse("--config", str(path), "--max-batch", "256")
        assert config.max_batch_kmers == 256
        assert config.num_shards == 3  # untouched flag defers to the file

    def test_default_valued_flag_does_not_override(self, tmp_path):
        # --shards defaults to 2; the file says 3 and must win because
        # the user never passed the flag.
        path = sample_config().save(tmp_path / "svc.toml")
        config = self.parse("--config", str(path))
        assert config.num_shards == 3

    def test_cluster_flags_reshape_file_topology(self, tmp_path):
        path = sample_config().save(tmp_path / "svc.toml")
        config = self.parse(
            "--config", str(path), "--cluster-workers", "4"
        )
        assert config.cluster == ClusterConfig(workers=4)
        assert config.max_batch_kmers == 96  # from the file

    def test_cluster_flags_enable_without_file(self):
        config = self.parse("--cluster-workers", "3")
        assert config.cluster == ClusterConfig(workers=3)

    def test_no_cluster_by_default(self):
        assert self.parse().cluster is None

    def test_pipelined_implies_executor_thread(self):
        config = self.parse("--pipelined")
        assert config.pipelined is True
        assert config.executor_threads == 1
