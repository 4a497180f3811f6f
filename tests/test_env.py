"""Central env accessors: typed parsing, defaults, clear failures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import env
from repro.core.exceptions import ConfigurationError

pytestmark = pytest.mark.obs

SRC = Path(__file__).resolve().parent.parent / "src"


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
                 "REPRO_NN_PROFILE", "REPRO_ENC_CACHE"):
        monkeypatch.delenv(name, raising=False)
    assert env.engine_token_budget() is None
    assert env.nn_dtype() == "float32"
    assert env.nn_profile() is False
    assert env.enc_cache_enabled() is True


@pytest.mark.parametrize("raw", ["float16", "banana"])
def test_bad_nn_dtype_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv("REPRO_NN_DTYPE", raw)
    with pytest.raises(ConfigurationError, match=f"REPRO_NN_DTYPE.*{raw!r}"):
        env.nn_dtype()
    monkeypatch.setenv("REPRO_NN_DTYPE", "float64")
    assert env.nn_dtype() == "float64"


@pytest.mark.parametrize("raw", ["float16", "banana"])
def test_bad_nn_dtype_fails_import_with_typed_error(raw):
    # repro.nn resolves the default dtype at import time; a fresh
    # interpreter shows what a user with a bad environment sees.
    script = (
        "from repro.core.exceptions import ConfigurationError\n"
        "try:\n"
        "    import repro.nn\n"
        "except ConfigurationError as exc:\n"
        "    print('typed:', exc)\n"
    )
    environ = {**os.environ, "REPRO_NN_DTYPE": raw,
               "PYTHONPATH": os.pathsep.join(filter(None, [
                   str(SRC), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=environ,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "typed: REPRO_NN_DTYPE" in result.stdout


def test_negative_token_budget_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_TOKEN_BUDGET", "-5")
    with pytest.raises(ConfigurationError,
                       match="REPRO_ENGINE_TOKEN_BUDGET.*-5"):
        env.engine_token_budget()
    monkeypatch.setenv("REPRO_ENGINE_TOKEN_BUDGET", "0")
    assert env.engine_token_budget() is None  # 0 keeps "engine default"
    monkeypatch.setenv("REPRO_ENGINE_TOKEN_BUDGET", "4096")
    assert env.engine_token_budget() == 4096


def test_negative_token_budget_never_reaches_the_planner(monkeypatch):
    from repro.plm.engine import EngineConfig

    monkeypatch.setenv("REPRO_ENGINE_TOKEN_BUDGET", "-5")
    with pytest.raises(ConfigurationError, match="REPRO_ENGINE_TOKEN_BUDGET"):
        EngineConfig.from_env()


def test_negative_enc_cache_bytes_is_rejected(monkeypatch):
    from repro.core.enc_cache import EncodeCache

    monkeypatch.delenv("REPRO_ENC_CACHE", raising=False)
    monkeypatch.setenv("REPRO_ENC_CACHE_BYTES", "-1")
    with pytest.raises(ConfigurationError, match="REPRO_ENC_CACHE_BYTES.*-1"):
        EncodeCache.from_env()
    monkeypatch.setenv("REPRO_ENC_CACHE_BYTES", "0")
    assert env.enc_cache_bytes(123) == 0  # 0 keeps "store nothing"


def test_run_graph_surfaces_bad_jobs(monkeypatch):
    from repro.experiments.dag import ArtifactGraph
    from repro.experiments.scheduler import run_graph

    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
        run_graph(ArtifactGraph(), jobs=None)
