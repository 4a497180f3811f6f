"""CI gate for bench artifacts: required keys must be present and sane.

Usage::

    python benchmarks/check_bench_artifacts.py [name ...]

Each ``name`` maps to ``benchmarks/BENCH_<name>.json``; with no names,
every artifact with a registered schema that exists on disk is checked,
and any ``BENCH_*.json`` on disk *without* a registered schema is a
failure — an artifact nobody registered is an artifact nobody gates, so
it would otherwise rot silently. Exits non-zero with one line per
problem (missing file, unparseable JSON, missing key, non-numeric
timing, unknown artifact) so a bench that silently stopped emitting its
numbers fails the smoke job instead of uploading an empty artifact.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: run_once tables share one shape: timing + the rendered rows.
_TABLE_SCHEMA = {
    "numeric": ["seconds"],
    "present": ["artifact", "full", "n_rows", "rows"],
}

#: Required top-level keys per artifact (numeric ones checked as numbers).
SCHEMAS = {
    "plm_inference": {
        "numeric": ["seed_seconds", "engine_cold_seconds",
                    "engine_warm_seconds", "cold_speedup", "warm_speedup"],
        "present": ["n_docs", "cache"],
    },
    "experiment_engine": {
        "numeric": [],
        "present": ["latency_table", "westclass", "metacat"],
    },
    "training": {
        "numeric": ["pretrain_speedup", "fit_speedup"],
        "present": ["configs", "pretrain_seconds", "fit_seconds"],
    },
    "obs_overhead": {
        "numeric": ["disabled_ns_per_span", "disabled_ns_per_count",
                    "enabled_ns_per_span", "enabled_ns_per_count"],
        "present": [],
    },
    "serving": {
        "numeric": ["unbatched_seconds", "batched_seconds", "speedup",
                    "batched_p50_ms", "batched_p99_ms",
                    "unbatched_p50_ms", "unbatched_p99_ms"],
        "present": ["n_requests", "n_clients", "batches", "shed_demo"],
    },
    "serving_pool": {
        "numeric": ["closed_rps_engine",
                    "closed_rps_r1", "closed_rps_r2", "closed_rps_r4",
                    "speedup_4v1", "min_speedup",
                    "p50_ms_r4", "p99_ms_r4", "p999_ms_r4"],
        "present": ["replicas", "n_clients", "open_rate_rps",
                    "calibration"],
    },
    "quantized": {
        "numeric": ["float32_seconds", "quantized_seconds", "speedup",
                    "min_speedup", "accuracy_delta", "max_accuracy_delta",
                    "size_ratio"],
        "present": ["quantize", "n_requests", "calibration"],
    },
    "xl_encode": {
        "numeric": ["encode_seconds", "docs_per_second", "cache_max_bytes"],
        "present": ["profile", "n_docs", "cache", "shard_files"],
    },
    "pipeline": {
        "numeric": ["docs_per_second", "p50_ms", "p99_ms",
                    "steady_seconds", "fits"],
        "present": ["profile", "n_docs", "ingested", "deduped",
                    "classified", "calibration"],
    },
    "dag_pipeline": {
        "numeric": ["cold_seconds", "dirty_seconds", "warm_seconds",
                    "dirty_speedup", "min_dirty_speedup", "warm_speedup",
                    "dedup_ratio", "nodes_executed_warm"],
        "present": ["tables", "nodes_total", "nodes_merged", "calibration"],
    },
    "regression": {
        "numeric": ["checked"],
        "present": ["regressed", "results", "meta"],
    },
    "taxogen": {
        "numeric": ["edges_perturbed", "edges_recovered",
                    "recovered_fraction", "min_recovered_fraction",
                    "pristine_ops", "score_seconds", "repair_seconds"],
        "present": ["profile", "n_seeds", "ops", "calibration", "full"],
    },
    "taxogen_table": _TABLE_SCHEMA,
    "conwea_table": _TABLE_SCHEMA,
    "lotclass_predictions": _TABLE_SCHEMA,
    "lotclass_table": _TABLE_SCHEMA,
    "metacat_table": _TABLE_SCHEMA,
    "micol_table": _TABLE_SCHEMA,
    "promptclass_table": _TABLE_SCHEMA,
    "summary_table": _TABLE_SCHEMA,
    "taxoclass_table": _TABLE_SCHEMA,
    "weshclass_table": _TABLE_SCHEMA,
    "westclass_table": _TABLE_SCHEMA,
    "xclass_dataset_table": _TABLE_SCHEMA,
    "xclass_table": _TABLE_SCHEMA,
}


def check_artifact(name: str) -> list:
    """Problems with ``BENCH_<name>.json`` (empty list = OK)."""
    schema = SCHEMAS.get(name)
    if schema is None:
        return [f"{name}: no schema registered "
                f"(known: {', '.join(sorted(SCHEMAS))})"]
    path = HERE / f"BENCH_{name}.json"
    if not path.exists():
        return [f"{name}: {path} does not exist"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [f"{name}: {path.name} is not valid JSON ({exc})"]
    if not isinstance(payload, dict):
        return [f"{name}: {path.name} must hold a JSON object"]
    problems = []
    for key in schema["present"] + schema["numeric"]:
        if key not in payload:
            problems.append(f"{name}: missing required key {key!r}")
    for key in schema["numeric"]:
        value = payload.get(key)
        if key in payload and not isinstance(value, (int, float)):
            problems.append(f"{name}: key {key!r} must be numeric, "
                            f"got {value!r}")
    return problems


def unknown_artifacts(directory: "Path | None" = None) -> list:
    """``BENCH_*.json`` files on disk with no registered schema."""
    directory = HERE if directory is None else directory
    unknown = []
    for path in sorted(directory.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        if name not in SCHEMAS:
            unknown.append(name)
    return unknown


def main(argv: "list | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    names = argv or [name for name in sorted(SCHEMAS)
                     if (HERE / f"BENCH_{name}.json").exists()]
    if not names:
        print("no bench artifacts found to check", file=sys.stderr)
        return 1
    failures = []
    for name in names:
        problems = check_artifact(name)
        if problems:
            failures.extend(problems)
        else:
            print(f"ok: BENCH_{name}.json")
    if not argv:
        # Full-directory mode also rejects unregistered artifacts: a
        # BENCH file with no schema is a bench nobody gates.
        for name in unknown_artifacts():
            failures.append(
                f"{name}: BENCH_{name}.json has no registered schema "
                "(register it in check_bench_artifacts.SCHEMAS and "
                "check_regression.METRICS)"
            )
    for problem in failures:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
