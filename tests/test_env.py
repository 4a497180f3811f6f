"""Central env accessors: typed parsing, defaults, clear failures."""

import pytest

from repro.core import env
from repro.core.exceptions import ConfigurationError

pytestmark = pytest.mark.obs


def test_empty_counts_as_unset(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "")
    assert env.env_raw("REPRO_JOBS") is None
    assert env.jobs() == 1


def test_flag_spellings(monkeypatch):
    for raw, expected in [("0", False), ("off", False), ("FALSE", False),
                          ("no", False), ("1", True), ("on", True),
                          ("True", True), ("yes", True)]:
        monkeypatch.setenv("REPRO_ROW_CACHE", raw)
        assert env.row_cache_enabled() is expected


def test_bad_flag_names_the_variable(monkeypatch):
    monkeypatch.setenv("REPRO_ROW_CACHE", "maybe")
    with pytest.raises(ConfigurationError, match="REPRO_ROW_CACHE"):
        env.row_cache_enabled()


def test_bad_int_names_the_variable(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "four")
    with pytest.raises(ConfigurationError, match="REPRO_JOBS.*'four'"):
        env.jobs()


def test_bad_float_names_the_variable(monkeypatch):
    monkeypatch.setenv("REPRO_ROW_TIMEOUT", "soon")
    with pytest.raises(ConfigurationError, match="REPRO_ROW_TIMEOUT"):
        env.row_timeout()


def test_jobs_clamped_to_one(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "-3")
    assert env.jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "8")
    assert env.jobs() == 8


def test_nonpositive_timeout_means_none(monkeypatch):
    monkeypatch.setenv("REPRO_ROW_TIMEOUT", "0")
    assert env.row_timeout() is None
    monkeypatch.setenv("REPRO_ROW_TIMEOUT", "2.5")
    assert env.row_timeout() == 2.5


def test_trace_dir_default_off(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert env.trace_dir() is None
    monkeypatch.setenv("REPRO_TRACE", "/tmp/traces")
    assert str(env.trace_dir()) == "/tmp/traces"


def test_engine_and_nn_defaults(monkeypatch):
    for name in ("REPRO_ENGINE_TOKEN_BUDGET", "REPRO_NN_DTYPE",
                 "REPRO_NN_FUSED", "REPRO_NN_PROFILE", "REPRO_ENC_CACHE"):
        monkeypatch.delenv(name, raising=False)
    assert env.engine_token_budget() is None
    assert env.nn_dtype() == "float32"
    assert env.nn_fused() is True
    assert env.nn_profile() is False
    assert env.enc_cache_enabled() is True


def test_run_graph_surfaces_bad_jobs(monkeypatch):
    from repro.experiments.dag import ArtifactGraph
    from repro.experiments.scheduler import run_graph

    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
        run_graph(ArtifactGraph(), jobs=None)
