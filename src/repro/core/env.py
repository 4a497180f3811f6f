"""Central accessors for every ``REPRO_*`` environment knob.

The engines grew their env vars independently, each with its own parsing
and its own failure mode (silent fallback, bare ``ValueError`` traceback,
or import-time crash). This module is the single place the environment is
read: every knob has one typed accessor with validation, a documented
default, and a :class:`~repro.core.exceptions.ConfigurationError` naming
the variable and the offending value when parsing fails.

Only the standard library and :mod:`repro.core.exceptions` are imported
here, so every layer of the package (including :mod:`repro.nn` at import
time and :mod:`repro.obs`) can depend on it without cycles.

Knob inventory
--------------
==========================  =============================================
``REPRO_JOBS``              default worker count for DAG node fan-out
``REPRO_ROW_CACHE``         ``0`` disables the DAG artifact store
``REPRO_ROW_CACHE_DIR``     row-cache root (DAG store under ``dag/``)
``REPRO_ROW_TIMEOUT``       default per-node timeout (seconds)
``REPRO_ENC_CACHE``         ``0`` disables the encode cache
``REPRO_ENC_CACHE_BYTES``   encode-cache memory-tier budget
``REPRO_ENC_CACHE_DIR``     encode-cache disk tier location
``REPRO_ENC_CACHE_SHARD_DOCS``  docs per mmap disk shard (``0`` = off)
``REPRO_ENGINE_BUCKET``     ``0`` disables length bucketing
``REPRO_ENGINE_INFERENCE_MODE``  ``0`` keeps autograd on read paths
``REPRO_ENGINE_CACHE``      ``0`` skips the cache on model read paths
``REPRO_ENGINE_TOKEN_BUDGET``  padded tokens per inference batch
``REPRO_ENGINE_FUSED_INFER``  ``1`` forces the packed predict-only forward
``REPRO_ENGINE_BLOCK_ROWS``  query-block height for blocked attention
``REPRO_MODEL_DIR``         model-registry root (``repro.serve``)
``REPRO_CORPUS_DIR``        streaming corpus-store root (``repro.pipeline``)
``REPRO_NN_DTYPE``          default compute dtype (float32/float64)
``REPRO_NN_FUSED``          ``0`` selects composite autograd kernels
``REPRO_NN_PROFILE``        ``1`` enables the per-op profile hook
``REPRO_TRACE``             directory for JSONL traces (enables tracing)
==========================  =============================================
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core.exceptions import ConfigurationError

_FALSY = ("0", "off", "false", "no")
_TRUTHY = ("1", "on", "true", "yes")


def env_raw(name: str) -> "str | None":
    """The raw string value, with empty treated as unset."""
    value = os.environ.get(name)
    return value if value else None


def env_flag(name: str, default: bool) -> bool:
    """Boolean knob: ``0/off/false/no`` vs ``1/on/true/yes``.

    Unset (or empty) yields ``default``; anything unrecognized raises a
    :class:`ConfigurationError` instead of silently counting as truthy.
    """
    raw = env_raw(name)
    if raw is None:
        return default
    lowered = raw.lower()
    if lowered in _FALSY:
        return False
    if lowered in _TRUTHY:
        return True
    raise ConfigurationError(
        f"{name} must be one of {_TRUTHY + _FALSY}, got {raw!r}"
    )


def env_int(name: str, default: "int | None") -> "int | None":
    """Integer knob; a malformed value names the variable, not a traceback."""
    raw = env_raw(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


def env_float(name: str, default: "float | None") -> "float | None":
    """Float knob; a malformed value names the variable, not a traceback."""
    raw = env_raw(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be a number, got {raw!r}"
        ) from None


def env_path(name: str, default: "Path | None" = None) -> "Path | None":
    """Path knob (unset/empty -> ``default``)."""
    raw = env_raw(name)
    return Path(raw) if raw is not None else default


# ---------------------------------------------------------------------------
# Named accessors (one per knob, so call sites never spell raw names)
# ---------------------------------------------------------------------------

def jobs() -> int:
    """Default worker count for DAG node fan-out (``REPRO_JOBS``, min 1)."""
    return max(1, env_int("REPRO_JOBS", 1))


def row_cache_enabled() -> bool:
    """Whether the DAG artifact store is active (``REPRO_ROW_CACHE``)."""
    return env_flag("REPRO_ROW_CACHE", True)


def row_cache_dir() -> Path:
    """Row-cache root (``REPRO_ROW_CACHE_DIR`` or XDG default).

    The DAG artifact store lives in its ``dag/`` subdirectory.
    """
    return env_path("REPRO_ROW_CACHE_DIR",
                    Path.home() / ".cache" / "repro" / "rows")


def row_timeout() -> "float | None":
    """Default per-node timeout in seconds (``REPRO_ROW_TIMEOUT``)."""
    value = env_float("REPRO_ROW_TIMEOUT", None)
    return value if value and value > 0 else None


def enc_cache_enabled() -> bool:
    """Whether the provider builds an encode cache (``REPRO_ENC_CACHE``)."""
    return env_flag("REPRO_ENC_CACHE", True)


def enc_cache_bytes(default: int) -> int:
    """Encode-cache memory budget (``REPRO_ENC_CACHE_BYTES``)."""
    return env_int("REPRO_ENC_CACHE_BYTES", default)


def enc_cache_dir() -> "Path | None":
    """Encode-cache disk tier (``REPRO_ENC_CACHE_DIR``; None = memory only)."""
    return env_path("REPRO_ENC_CACHE_DIR")


def enc_cache_shard_docs() -> int:
    """Docs per mmap disk shard (``REPRO_ENC_CACHE_SHARD_DOCS``; 0 = off)."""
    return max(0, env_int("REPRO_ENC_CACHE_SHARD_DOCS", 0))


def engine_token_budget() -> "int | None":
    """Padded tokens per inference batch (``REPRO_ENGINE_TOKEN_BUDGET``)."""
    budget = env_int("REPRO_ENGINE_TOKEN_BUDGET", None)
    return budget or None


def engine_fused_infer() -> "bool | None":
    """Packed predict-only forward (``REPRO_ENGINE_FUSED_INFER``).

    Returns ``None`` when the knob is unset so callers can distinguish
    "defaulted" from "explicitly forced" — quantized artifacts enable the
    packed path by default but an explicit ``0`` must win.
    """
    raw = env_raw("REPRO_ENGINE_FUSED_INFER")
    if raw is None:
        return None
    return env_flag("REPRO_ENGINE_FUSED_INFER", False)


def model_dir() -> Path:
    """Model-registry root (``REPRO_MODEL_DIR`` or XDG default).

    The versioned registry (:mod:`repro.serve.registry`) stores one
    directory per published model under this root.
    """
    return env_path("REPRO_MODEL_DIR",
                    Path.home() / ".cache" / "repro" / "models")


def corpus_dir() -> Path:
    """Streaming corpus-store root (``REPRO_CORPUS_DIR`` or XDG default).

    The append-only corpus store (:mod:`repro.pipeline.store`) keeps one
    directory per stream under this root: shard files, the predictions
    log, and the resume checkpoint.
    """
    return env_path("REPRO_CORPUS_DIR",
                    Path.home() / ".cache" / "repro" / "corpus")


def nn_dtype() -> str:
    """Default compute dtype name (``REPRO_NN_DTYPE``)."""
    return env_raw("REPRO_NN_DTYPE") or "float32"


def nn_fused() -> bool:
    """Whether fused training kernels are active (``REPRO_NN_FUSED``)."""
    return env_flag("REPRO_NN_FUSED", True)


def nn_profile() -> bool:
    """Whether the per-op profile hook is requested (``REPRO_NN_PROFILE``)."""
    return env_flag("REPRO_NN_PROFILE", False)


def trace_dir() -> "Path | None":
    """Trace output directory (``REPRO_TRACE``; None = tracing off)."""
    return env_path("REPRO_TRACE")
