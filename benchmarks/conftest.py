"""Benchmark-suite configuration.

Each bench regenerates one paper table/figure and asserts its qualitative
*shape* (who wins, ablation directions, crossovers) — absolute numbers
are CPU-scale and not expected to match the paper.

Set ``REPRO_BENCH_FULL=1`` to run every dataset of every table (slower);
the default covers one representative dataset per table.
"""

import builtins
import json
import os
import sys
import time
from pathlib import Path

import pytest

FULL = os.environ.get("REPRO_BENCH_FULL") == "1"

# Benches measure real compute: a warm artifact store would turn every
# table into a cache read. Explicit REPRO_ROW_CACHE=1 re-enables it.
os.environ.setdefault("REPRO_ROW_CACHE", "0")

# The bench tables ARE the deliverable: route print() past pytest's
# capture (including the default fd-level capture) so
# `pytest benchmarks/ --benchmark-only | tee ...` records them without
# needing -s. Scoped to the benchmark suite by living in this conftest.
_original_print = builtins.print
_CAPTURE_MANAGER = []


def pytest_configure(config):
    _CAPTURE_MANAGER.append(config.pluginmanager.getplugin("capturemanager"))


def _uncaptured_print(*args, **kwargs):
    manager = _CAPTURE_MANAGER[0] if _CAPTURE_MANAGER else None
    if manager is not None:
        with manager.global_and_fixture_disabled():
            kwargs.setdefault("flush", True)
            _original_print(*args, **kwargs)
    else:
        _original_print(*args, **kwargs)


builtins.print = _uncaptured_print


@pytest.fixture(scope="session")
def full_mode():
    return FULL


ARTIFACT_DIR = Path(__file__).resolve().parent
HISTORY_DIR = ARTIFACT_DIR / "history"


def _append_history(name: str, payload: dict, meta: dict) -> None:
    """Append one git-SHA-stamped record to ``history/<name>.jsonl``.

    Only scalar numeric top-level keys are kept (the regression gate
    compares numbers, not tables), so history stays small enough to
    commit while every record remains host-comparable via its stamp.
    """
    metrics = {
        key: value for key, value in payload.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    record = {"name": name, **meta, "metrics": metrics}
    HISTORY_DIR.mkdir(exist_ok=True)
    with open(HISTORY_DIR / f"{name}.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_bench_artifact(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` next to the benches (atomic replace).

    The single writer every bench goes through, so the machine-readable
    perf trajectory stays uniform across PRs. Every payload is stamped
    with git SHA, hostname, and the host-calibration probes (``meta``
    key), and a scalar-metrics record is appended to
    ``benchmarks/history/<name>.jsonl`` for the regression gate.
    """
    import hostcal

    payload = dict(payload)
    meta = hostcal.stamp()
    payload["meta"] = meta
    path = ARTIFACT_DIR / f"BENCH_{name}.json"
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True,
                              default=repr) + "\n")
    os.replace(tmp, path)
    _append_history(name, payload, meta)
    return path


def run_once(benchmark, fn, artifact: "str | None" = None):
    """Time ``fn`` exactly once (tables are minutes-scale, deterministic).

    With ``artifact``, also record ``BENCH_<artifact>.json``: wall-clock
    seconds, full/fast mode, and the returned rows when they are a list.
    """
    state = {}

    def timed():
        start = time.perf_counter()
        state["result"] = fn()
        state["seconds"] = time.perf_counter() - start
        return state["result"]

    result = benchmark.pedantic(timed, rounds=1, iterations=1)
    if artifact is not None:
        payload = {
            "artifact": artifact,
            "full": FULL,
            "seconds": round(state["seconds"], 3),
        }
        if isinstance(result, list):
            payload["n_rows"] = len(result)
            payload["rows"] = result
        write_bench_artifact(artifact, payload)
    return result


def by_method(rows, dataset_key="Dataset"):
    """Index rows as {(dataset, method): row}."""
    return {(r.get(dataset_key, ""), r["Method"]): r for r in rows}
