"""Tests for the typed service configuration and its env consolidation."""

from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.service import ServiceConfig
from repro.service.config import CACHE_SHARD_CHOICES, EXECUTOR_CHOICES

REPO = Path(__file__).parent.parent.parent
SRC_MODULES = sorted((REPO / "src").rglob("*.py"))
ENV_READER = REPO / "src" / "repro" / "service" / "config.py"


#: One unusable value per knob that validates its input.
GARBAGE_ENV = {
    "REPRO_EXECUTOR": "quantum-annealer",
    "REPRO_MAX_WORKERS": "-2",
    "REPRO_SUBMIT_WORKERS": "zero",
    "REPRO_CACHE_SHARDS": "7",
    "REPRO_CACHE_BUDGET_MB": "lots",
    "REPRO_PREFETCH": "maybe",
    "REPRO_GRAPE_BATCH": "sometimes",
    "REPRO_GRAPE_BATCH_SIZE": "0",
    "REPRO_WARM_START": "perhaps",
    "REPRO_WARM_START_MAX_DIST": "2.0",
    "REPRO_DISPATCHER": "carrier-pigeon",
    "REPRO_FLEET_WORKERS": "-1",
    "REPRO_QUEUE_DEPTH": "0",
    "REPRO_FLEET_LEASE_TTL": "-3",
    "REPRO_FLEET_HEARTBEAT": "soon",
    "REPRO_FLEET_AUTOSCALE": "sometimes",
    "REPRO_FLEET_MIN_WORKERS": "-1",
    "REPRO_FLEET_MAX_WORKERS": "0",
    "REPRO_SERVER_PORT": "70000",
    "REPRO_SERVER_MAX_BODY_MB": "huge",
    "REPRO_SERVER_TICKET_TTL": "0",
}


class TestEnvConsolidation:
    """Acceptance criterion: every REPRO_* env read routes through
    ``ServiceConfig.from_env()`` — grep-enforced."""

    @pytest.mark.parametrize(
        "path", SRC_MODULES, ids=lambda p: str(p.relative_to(REPO))
    )
    def test_only_service_config_touches_the_environment(self, path):
        if path == ENV_READER:
            return
        source = path.read_text()
        for marker in ("os.environ", "getenv", "environb"):
            assert marker not in source, (
                f"{path.relative_to(REPO)} reads the environment directly; "
                "route REPRO_* lookups through ServiceConfig.from_env()"
            )

    def test_the_one_reader_covers_every_documented_variable(self):
        source = ENV_READER.read_text()
        for name in (
            "REPRO_EXECUTOR",
            "REPRO_MAX_WORKERS",
            "REPRO_SUBMIT_WORKERS",
            "REPRO_CACHE_DIR",
            "REPRO_CACHE_SHARDS",
            "REPRO_CACHE_BUDGET_MB",
            "REPRO_PREFETCH",
            "REPRO_PRESET",
            "REPRO_SCHEDULER_STATE",
            "REPRO_GRAPE_BATCH",
            "REPRO_GRAPE_BATCH_SIZE",
            "REPRO_WARM_START",
            "REPRO_WARM_START_MAX_DIST",
            "REPRO_DISPATCHER",
            "REPRO_FLEET_DIR",
            "REPRO_FLEET_WORKERS",
            "REPRO_QUEUE_DEPTH",
            "REPRO_FLEET_LEASE_TTL",
            "REPRO_FLEET_HEARTBEAT",
            "REPRO_FLEET_AUTOSCALE",
            "REPRO_FLEET_MIN_WORKERS",
            "REPRO_FLEET_MAX_WORKERS",
            "REPRO_SERVER_HOST",
            "REPRO_SERVER_PORT",
            "REPRO_SERVER_MAX_BODY_MB",
            "REPRO_SERVER_TICKET_TTL",
        ):
            assert name in source


class TestFromEnv:
    def test_defaults_without_env(self, monkeypatch):
        for name in (
            "REPRO_EXECUTOR",
            "REPRO_MAX_WORKERS",
            "REPRO_SUBMIT_WORKERS",
            "REPRO_CACHE_DIR",
            "REPRO_CACHE_SHARDS",
            "REPRO_CACHE_BUDGET_MB",
            "REPRO_PREFETCH",
            "REPRO_PRESET",
            "REPRO_SCHEDULER_STATE",
            "REPRO_GRAPE_BATCH",
            "REPRO_GRAPE_BATCH_SIZE",
            "REPRO_WARM_START",
            "REPRO_WARM_START_MAX_DIST",
            "REPRO_DISPATCHER",
            "REPRO_FLEET_DIR",
            "REPRO_FLEET_WORKERS",
            "REPRO_QUEUE_DEPTH",
            "REPRO_FLEET_LEASE_TTL",
            "REPRO_FLEET_HEARTBEAT",
            "REPRO_FLEET_AUTOSCALE",
            "REPRO_FLEET_MIN_WORKERS",
            "REPRO_FLEET_MAX_WORKERS",
            "REPRO_SERVER_HOST",
            "REPRO_SERVER_PORT",
            "REPRO_SERVER_MAX_BODY_MB",
            "REPRO_SERVER_TICKET_TTL",
        ):
            monkeypatch.delenv(name, raising=False)
        config, sources = ServiceConfig.from_env_with_sources()
        assert config == ServiceConfig()
        assert set(sources.values()) == {"default"}

    def test_env_values_and_sources(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread-persistent")
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        monkeypatch.setenv("REPRO_SUBMIT_WORKERS", "6")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/pulses")
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "256")
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "32.5")
        monkeypatch.setenv("REPRO_PREFETCH", "yes")
        monkeypatch.setenv("REPRO_PRESET", "paper")
        monkeypatch.setenv("REPRO_SCHEDULER_STATE", "/tmp/state.json")
        monkeypatch.setenv("REPRO_GRAPE_BATCH", "off")
        monkeypatch.setenv("REPRO_GRAPE_BATCH_SIZE", "8")
        monkeypatch.setenv("REPRO_WARM_START", "no")
        monkeypatch.setenv("REPRO_WARM_START_MAX_DIST", "0.4")
        monkeypatch.setenv("REPRO_DISPATCHER", "queue")
        monkeypatch.setenv("REPRO_FLEET_DIR", "/tmp/fleet")
        monkeypatch.setenv("REPRO_FLEET_WORKERS", "2")
        monkeypatch.setenv("REPRO_QUEUE_DEPTH", "16")
        monkeypatch.setenv("REPRO_FLEET_LEASE_TTL", "12.5")
        monkeypatch.setenv("REPRO_FLEET_HEARTBEAT", "2.5")
        monkeypatch.setenv("REPRO_FLEET_AUTOSCALE", "yes")
        monkeypatch.setenv("REPRO_FLEET_MIN_WORKERS", "1")
        monkeypatch.setenv("REPRO_FLEET_MAX_WORKERS", "6")
        monkeypatch.setenv("REPRO_SERVER_HOST", "0.0.0.0")
        monkeypatch.setenv("REPRO_SERVER_PORT", "9001")
        monkeypatch.setenv("REPRO_SERVER_MAX_BODY_MB", "8.0")
        monkeypatch.setenv("REPRO_SERVER_TICKET_TTL", "120")
        config, sources = ServiceConfig.from_env_with_sources()
        assert config.executor == "thread-persistent"
        assert config.max_workers == 3
        assert config.submit_workers == 6
        assert config.cache_dir == "/tmp/pulses"
        assert config.cache_shards == 256
        assert config.cache_budget_mb == 32.5
        assert config.prefetch is True
        assert config.preset == "paper"
        assert config.scheduler_state_path == "/tmp/state.json"
        assert config.grape_batch is False
        assert config.grape_batch_size == 8
        assert config.warm_start is False
        assert config.warm_start_max_dist == 0.4
        assert config.dispatcher == "queue"
        assert config.fleet_dir == "/tmp/fleet"
        assert config.fleet_workers == 2
        assert config.queue_depth == 16
        assert config.fleet_lease_ttl_s == 12.5
        assert config.fleet_heartbeat_s == 2.5
        assert config.fleet_autoscale is True
        assert config.fleet_min_workers == 1
        assert config.fleet_max_workers == 6
        assert config.server_host == "0.0.0.0"
        assert config.server_port == 9001
        assert config.server_max_body_mb == 8.0
        assert config.server_ticket_ttl_s == 120.0
        assert set(sources.values()) == {"env"}

    def test_garbage_warns_and_falls_back(self, monkeypatch):
        for name, raw in GARBAGE_ENV.items():
            monkeypatch.setenv(name, raw)
        with pytest.warns(UserWarning):
            config, sources = ServiceConfig.from_env_with_sources()
        assert config == ServiceConfig()
        assert set(sources.values()) == {"default"}

    @pytest.mark.parametrize("name", sorted(GARBAGE_ENV))
    def test_each_bad_value_warns_by_name(self, monkeypatch, name):
        """Every knob rejects its own bad value loudly, not silently."""
        monkeypatch.setenv(name, GARBAGE_ENV[name])
        with pytest.warns(UserWarning, match=name):
            config = ServiceConfig.from_env()
        assert config == ServiceConfig()


class TestValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(executor="fpga")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(max_workers=0)

    def test_bad_submit_worker_count_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(submit_workers=0)

    def test_submit_workers_default_is_bounded(self):
        import os

        assert ServiceConfig().submit_workers == min(
            8, len(os.sched_getaffinity(0))
        )

    def test_pools_size_from_the_cpus_the_process_may_use(self, monkeypatch):
        """A process pinned to one CPU of a many-core host sizes like a
        1-CPU host: one submit worker and inline ``auto``."""
        import os

        from repro.pipeline.executors import AutoExecutor

        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert ServiceConfig().submit_workers == 1
        auto = AutoExecutor()
        assert auto.cpu_count == 1
        assert auto.describe()["mode"] == "inline"

    def test_bad_shards_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(cache_shards=100)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(cache_budget_mb=0)

    def test_bad_grape_batch_size_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(grape_batch_size=0)

    def test_bad_warm_start_max_dist_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(warm_start_max_dist=0.0)
        with pytest.raises(ReproError):
            ServiceConfig(warm_start_max_dist=1.5)

    def test_cache_defaults(self):
        config = ServiceConfig()
        assert config.cache_shards == 16
        assert config.cache_budget_mb is None
        assert config.prefetch is False
        assert config.preset is None

    def test_choices_match_config_module(self):
        from repro import config as legacy

        assert legacy.EXECUTOR_CHOICES is EXECUTOR_CHOICES
        assert legacy.CACHE_SHARD_CHOICES is CACHE_SHARD_CHOICES


class TestFleetServerValidation:
    """Constructor validation for the fleet/server knobs (CLI and direct
    construction paths — the env path is tolerant instead, see below)."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"fleet_lease_ttl_s": 0},
            {"fleet_lease_ttl_s": -1.0},
            {"fleet_heartbeat_s": 0.0},
            {"fleet_heartbeat_s": 30.0},  # == lease TTL: every beat stale
            {"fleet_heartbeat_s": 45.0, "fleet_lease_ttl_s": 30.0},
            {"fleet_min_workers": -1},
            {"fleet_max_workers": 0},
            {"fleet_min_workers": 5, "fleet_max_workers": 2},
            {"server_port": -1},
            {"server_port": 65536},
            {"server_max_body_mb": 0},
            {"server_ticket_ttl_s": 0},
        ],
        ids=[
            "zero-ttl", "negative-ttl", "zero-heartbeat",
            "heartbeat-equals-ttl", "heartbeat-exceeds-ttl",
            "negative-min", "zero-max", "min-exceeds-max",
            "negative-port", "port-too-high", "zero-body", "zero-ticket-ttl",
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ReproError):
            ServiceConfig(**overrides)

    def test_good_values_accepted(self):
        config = ServiceConfig(
            fleet_lease_ttl_s=10.0,
            fleet_heartbeat_s=2.0,
            fleet_autoscale=True,
            fleet_min_workers=1,
            fleet_max_workers=3,
            server_port=0,
            server_max_body_mb=1.0,
            server_ticket_ttl_s=60.0,
        )
        assert config.fleet_heartbeat_s == 2.0
        assert config.fleet_autoscale is True


class TestEnvCrossFieldFixups:
    """Cross-field constraints must not crash ``import repro``: the env
    reader falls back to defaults with a warning instead."""

    def test_heartbeat_not_shorter_than_ttl_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_LEASE_TTL", "10")
        monkeypatch.setenv("REPRO_FLEET_HEARTBEAT", "60")
        with pytest.warns(UserWarning, match="REPRO_FLEET_HEARTBEAT"):
            config, sources = ServiceConfig.from_env_with_sources()
        assert config.fleet_lease_ttl_s == 10.0
        assert config.fleet_heartbeat_s is None
        assert sources["fleet_lease_ttl_s"] == "env"
        assert sources["fleet_heartbeat_s"] == "default"

    def test_min_exceeding_max_drops_both(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_MIN_WORKERS", "8")
        monkeypatch.setenv("REPRO_FLEET_MAX_WORKERS", "2")
        with pytest.warns(UserWarning, match="min exceeds max"):
            config, sources = ServiceConfig.from_env_with_sources()
        assert config.fleet_min_workers == 0
        assert config.fleet_max_workers == 4
        assert sources["fleet_min_workers"] == "default"
        assert sources["fleet_max_workers"] == "default"


class TestUtilities:
    def test_replace_revalidates(self):
        config = ServiceConfig()
        assert config.replace(executor="thread").executor == "thread"
        with pytest.raises(ReproError):
            config.replace(executor="fpga")

    def test_as_dict_field_order(self):
        keys = list(ServiceConfig().as_dict())
        assert keys[0] == "executor"
        assert "scheduler_state_path" in keys

    def test_frozen(self):
        with pytest.raises(Exception):
            ServiceConfig().executor = "thread"


class TestEnvCacheKnobs:
    """The pulse-library knobs read from the environment: valid values,
    tolerated garbage, and every accepted boolean spelling."""

    def test_env_accepts_valid_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "4096")
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "32.5")
        config = ServiceConfig.from_env()
        assert config.executor == "thread"
        assert config.cache_shards == 4096
        assert config.cache_budget_mb == 32.5

    def test_env_garbage_warns_and_keeps_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "7")
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "not-a-number")
        monkeypatch.setenv("REPRO_PREFETCH", "maybe")
        with pytest.warns(UserWarning) as record:
            config = ServiceConfig.from_env()
        messages = " ".join(str(w.message) for w in record)
        for name in ("REPRO_CACHE_SHARDS", "REPRO_CACHE_BUDGET_MB", "REPRO_PREFETCH"):
            assert name in messages
        assert config.cache_shards == 16
        assert config.cache_budget_mb is None
        assert config.prefetch is False

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("1", True), ("true", True), ("ON", True), ("yes", True),
            ("0", False), ("off", False), ("No", False), ("false", False),
        ],
    )
    def test_prefetch_spellings(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_PREFETCH", raw)
        assert ServiceConfig.from_env().prefetch is expected

    def test_preset_only_set_by_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PRESET", raising=False)
        assert ServiceConfig.from_env().preset is None
        monkeypatch.setenv("REPRO_PRESET", "paper")
        assert ServiceConfig.from_env().preset == "paper"

    def test_replace_keeps_unpassed_fields(self):
        original = ServiceConfig(executor="thread", prefetch=True)
        updated = original.replace(cache_shards=256, cache_budget_mb=64.0)
        assert updated.cache_shards == 256
        assert updated.cache_budget_mb == 64.0
        assert updated.executor == "thread"
        assert updated.prefetch is True


class TestNoneMeansDefault:
    """Below :mod:`repro.config`, a ``None`` field means the built-in
    default; only the no-config entry points read the environment."""

    @pytest.fixture
    def env(self, monkeypatch):
        import repro.config
        from repro.service.config import usable_cpu_count

        env = ServiceConfig(
            max_workers=usable_cpu_count() + 2, cache_budget_mb=7.0
        )
        monkeypatch.setattr(repro.config, "_env_config", env)
        return env

    def test_explicit_config_ignores_env_workers_and_budget(self, env, tmp_path):
        from repro.service import CompilationService
        from repro.service.config import usable_cpu_count

        config = ServiceConfig(executor="thread-persistent", cache_dir=str(tmp_path))
        with CompilationService(config) as service:
            assert service.executor.max_workers == usable_cpu_count()
            assert service.cache.library.budget_mb is None
            assert service.stats()["cache"]["library"]["budget_mb"] is None

    def test_auto_keeps_its_demand_grown_grant(self, env):
        from repro.service import CompilationService

        with CompilationService(ServiceConfig(executor="auto")) as service:
            assert service.executor.max_workers is None
            assert service.executor.granted_workers is None

    def test_no_config_entry_points_read_the_environment(
        self, env, tmp_path, monkeypatch
    ):
        import repro.config
        from repro.core.cache import default_pulse_cache
        from repro.pipeline.executors import resolve_executor

        monkeypatch.setattr(
            repro.config,
            "_env_config",
            env.replace(executor="thread", cache_dir=str(tmp_path)),
        )
        assert resolve_executor(None).max_workers == env.max_workers
        assert default_pulse_cache().library.budget_mb == 7.0
