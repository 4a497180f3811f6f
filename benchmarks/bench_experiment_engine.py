"""Experiment wall-clock: serial vs ``jobs=4`` vs warm artifact store.

Three measurements, honestly labeled for the host they run on:

- **Pool scaling** on a sleep-bound flat graph of independent row nodes
  pushed through the real DAG scheduler (spawn pool, pipes, timeouts).
  Node latency is the gating resource, so the fan-out speedup is
  visible even on a single-core CI box, where CPU-bound rows cannot
  scale past 1x.
- **Artifact reuse** on two representative real tables (westclass and
  metacat): cold compute vs a warm store read through the disk tier
  (the in-memory tier is cleared in between). This is the speedup a
  re-run of an unchanged table gets regardless of core count.
- The real tables are also run once at ``jobs=4`` and recorded —
  informational on a 1-core host, a second scaling datapoint elsewhere.

Writes ``benchmarks/BENCH_experiment_engine.json`` via the shared
writer. Runnable standalone: ``python benchmarks/bench_experiment_engine.py``.
"""

import os
import tempfile
import time

from conftest import run_table, write_bench_artifact

from repro.experiments.dag import ArtifactGraph, DagNode
from repro.experiments.engine import clear_memo_memory, derive_row_seed
from repro.experiments.scheduler import run_graph

# Sleep long enough that the spawn pool's startup (~1-2s of interpreter
# + import per worker, serialized on a 1-core host) amortizes away.
LATENCY_ROWS = 12
LATENCY_SLEEP = 3.0


def _latency_row(row_seed, seconds):
    time.sleep(seconds)
    return {"slept": seconds}


def _latency_graph():
    graph = ArtifactGraph()
    for i in range(LATENCY_ROWS):
        name = f"bench-latency.row{i}"
        graph.add(DagNode(kind="row", name=name, runner=_latency_row,
                          kwargs={"seconds": LATENCY_SLEEP},
                          seed=derive_row_seed(0, name)))
    return graph


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _bench_latency_table() -> dict:
    graph = _latency_graph()
    serial, serial_s = _timed(
        lambda: run_graph(graph, jobs=1, use_cache=False))
    fanned, jobs4_s = _timed(
        lambda: run_graph(graph, jobs=4, use_cache=False))
    metrics = lambda results: {  # noqa: E731
        name: payload["metrics"] for name, payload in results.items()}
    assert metrics(fanned) == metrics(serial)
    return {
        "rows": LATENCY_ROWS,
        "row_sleep_seconds": LATENCY_SLEEP,
        "serial_seconds": round(serial_s, 2),
        "jobs4_seconds": round(jobs4_s, 2),
        "jobs4_speedup": round(serial_s / jobs4_s, 2),
    }


def _bench_real_table(name: str, cache_root: str) -> dict:
    cache_dir = os.path.join(cache_root, name)
    cached = lambda: run_table(name, jobs=1, use_cache=True,  # noqa: E731
                               cache_dir=cache_dir)
    cold, cold_s = _timed(cached)
    fanned, jobs4_s = _timed(  # pure compute: no store reads or writes
        lambda: run_table(name, jobs=4, use_cache=False))
    clear_memo_memory()  # warm run must come from the disk tier
    warm, warm_s = _timed(cached)
    strip = lambda rows: [  # noqa: E731
        {k: v for k, v in r.items() if k != "seconds"} for r in rows]
    assert strip(warm) == strip(cold)
    assert strip(fanned) == strip(cold)
    return {
        "rows": len(cold),
        "serial_seconds": round(cold_s, 2),
        "jobs4_seconds": round(jobs4_s, 2),
        "warm_seconds": round(warm_s, 3),
        "warm_speedup": round(cold_s / max(warm_s, 1e-9), 1),
    }


def test_experiment_engine_speedups():
    cache_root = tempfile.mkdtemp(prefix="repro-bench-rows-")
    report = {
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count(),
        "latency_table": _bench_latency_table(),
        "westclass": _bench_real_table("westclass", cache_root),
        "metacat": _bench_real_table("metacat", cache_root),
        "note": ("jobs-scaling is demonstrated on the sleep-bound latency "
                 "table; CPU-bound rows cannot exceed 1x on a single-core "
                 "host, where re-runs gain from the artifact store instead"),
    }
    write_bench_artifact("experiment_engine", report)
    print()
    print("engine bench:", report)

    assert report["latency_table"]["jobs4_speedup"] >= 2.0
    assert report["westclass"]["warm_speedup"] >= 10.0
    assert report["metacat"]["warm_speedup"] >= 10.0


if __name__ == "__main__":
    test_experiment_engine_speedups()
