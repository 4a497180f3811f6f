"""Replica-pool load generator: saturation throughput + latency tails.

Trains one small PLM-backed method (X-Class), publishes it to a
throwaway registry, then serves it from a
:class:`~repro.serve.pool.ReplicaPool` at 1, 2, and 4 replicas. Each
replica count gets two measurement phases:

- **closed loop** — ``N_CLIENTS`` threads each fire their next request
  the moment the previous one returns; with zero think time this drives
  the pool to saturation, so total completions / elapsed is the pool's
  saturation throughput at that replica count;
- **open loop** — a single dispatcher submits requests on a fixed
  schedule at ~:data:`OPEN_FRACTION` of the *measured* saturation rate
  (arrival times don't depend on completions, the way real traffic
  behaves), and per-request latency is read off the pool's own
  completion timestamps: p50/p99/p999.

Every request carries a distinct document (unique in-vocabulary lead
tokens), so
worker-side encode caches never hit and the measured work is real
inference. The 4-vs-1-replica speedup floor is **host-calibrated**: the
nominal >=1.8x target applies on a >=4-core host with calm timing
jitter, degrades proportionally on fewer usable cores or noisy
schedulers, and drops to the fixed :data:`POOL_FLOOR_1CORE` bound on a
1-core host (which genuinely cannot run replicas concurrently — the
bench then only asserts the pool doesn't *lose* much to scheduler and
IPC overhead).

A pooled probe is also checked bit-identical against a single
in-process :class:`~repro.serve.engine.ServingEngine` over the same
artifact, and that lone engine runs the same closed loop
(``closed_rps_engine``) with no batch window — the batching rule of a
replica, which batches only from backlog — so a 1-replica pool can be
read against it.
Writes ``BENCH_serving_pool.json`` (validated by
``check_bench_artifacts.py``, gated by ``check_regression.py``).
"""

from __future__ import annotations

import itertools
import os
import threading
import time

import numpy as np

from repro.core.exceptions import ServingError
from repro.datasets import load_profile
from repro.methods import XClass
from repro.plm.config import PLMConfig
from repro.plm.provider import get_pretrained_lm
from repro.serve import (
    PoolConfig,
    ReplicaPool,
    ModelRegistry,
    ServeConfig,
    ServingEngine,
)

import hostcal
from conftest import write_bench_artifact

REPLICA_COUNTS = (1, 2, 4)
N_CLIENTS = 8
CLOSED_PER_CLIENT = 12       # closed-loop requests per client thread
N_OPEN = 120                 # open-loop requests per replica count
OPEN_FRACTION = 0.65         # open-loop arrival rate vs measured saturation
#: Milliseconds-scale requests (several docs, near-max_len each), so the
#: measured scaling is encoder compute, not pipe round-trips.
DOC_TOKENS = 48
DOCS_PER_REQUEST = 4

#: Host calibration for the 4v1 speedup floor: 0.55 per usable core
#: (4 cores + calm jitter -> capped at the nominal 1.8x target), damped
#: by scheduler jitter. A 1-core host has no parallelism to exploit —
#: four time-slicing replicas can at best tie a single one minus
#: scheduler and IPC overhead — so its floor is the fixed
#: POOL_FLOOR_1CORE "doesn't collapse" bound instead.
POOL_FLOOR_1CORE, POOL_FLOOR_FRACTION, POOL_FLOOR_MAX = 0.35, 0.55, 1.8


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, e.g. under
    ``taskset``), not the host's total."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def _pool_floor() -> dict:
    cores = _usable_cpus()
    usable = min(cores, max(REPLICA_COUNTS))
    probes = hostcal.calibrate()
    if usable == 1:
        raw = POOL_FLOOR_1CORE / probes["jitter"]
    else:
        raw = POOL_FLOOR_FRACTION * usable / probes["jitter"]
    return {
        **probes,
        "cores": cores,
        "usable_cores": usable,
        "min_speedup": round(min(POOL_FLOOR_MAX, max(0.25, raw)), 2),
    }


def _publish_model(root) -> "tuple[ModelRegistry, str, list, list]":
    config = PLMConfig(dim=32, n_layers=2, n_heads=2, ff_hidden=64,
                       mlm_steps=150, pretrain_docs=700)
    bundle = load_profile("agnews", seed=0, scale=0.4)
    plm = get_pretrained_lm(target_corpus=bundle.train_corpus, config=config,
                            seed=0)
    model = XClass(plm=plm, seed=0)
    model.fit(bundle.train_corpus, bundle.label_names())
    registry = ModelRegistry(root)
    registry.publish("pool-bench", model, provenance={
        "profile": "agnews", "seed": 0, "bench": "serving_pool"})
    sources = (bundle.test_corpus.token_lists()
               + bundle.train_corpus.token_lists())
    vocab = plm.vocabulary
    words = [vocab.token(i) for i in range(len(vocab.specials), len(vocab))]
    return registry, "pool-bench", sources, words


def _distinct_docs(sources: list, words: list, serials, n_docs: int) -> list:
    """``n_docs`` docs of DOC_TOKENS tokens, each never built before.

    Each doc leads with two in-vocabulary ``words`` that spell its next
    number from ``serials`` (one ``itertools.count()`` per run) in base
    ``len(words)``, so no two docs of the run share token ids. That defeats the content-addressed encode cache: every request
    costs a real encode in whichever worker serves it. (An
    out-of-vocabulary lead token would encode as ``[UNK]`` and repeat.)
    """
    docs = []
    for i in range(n_docs):
        serial = next(serials)
        assert serial < len(words) ** 2, "ran out of distinct lead tokens"
        lead = [words[serial // len(words)], words[serial % len(words)]]
        doc = lead + list(sources[i % len(sources)])
        j = 1
        while len(doc) < DOC_TOKENS:
            doc += sources[(i + j) % len(sources)]
            j += 1
        docs.append(doc[:DOC_TOKENS])
    return docs


def _distinct_requests(sources: list, words: list, serials,
                       n_requests: int) -> list:
    """``n_requests`` payloads of DOCS_PER_REQUEST distinct docs each."""
    docs = _distinct_docs(sources, words, serials,
                          n_requests * DOCS_PER_REQUEST)
    return [docs[i * DOCS_PER_REQUEST:(i + 1) * DOCS_PER_REQUEST]
            for i in range(n_requests)]


def _closed_loop(server, requests: list) -> float:
    """Saturation throughput (req/s): zero-think-time client threads.

    ``server`` is a :class:`ReplicaPool` or a :class:`ServingEngine`.
    """
    per_client = len(requests) // N_CLIENTS
    barrier = threading.Barrier(N_CLIENTS + 1)
    errors: list = []

    def client(c: int) -> None:
        barrier.wait()
        lo = c * per_client
        for i in range(lo, lo + per_client):
            try:
                server.classify(requests[i], timeout=120)
            except Exception as exc:  # surface, don't hang the join
                errors.append(exc)
                return

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(N_CLIENTS)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise ServingError(f"closed loop failed: {errors[0]}") from errors[0]
    return (per_client * N_CLIENTS) / elapsed


def _open_loop(pool: ReplicaPool, requests: list, rate_rps: float) -> dict:
    """Fixed-rate arrivals; latency percentiles off pool timestamps."""
    interval = 1.0 / rate_rps
    pending, shed = [], 0
    start = time.perf_counter()
    for i, payload in enumerate(requests):
        target = start + i * interval
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        try:
            pending.append(pool.submit(payload))
        except ServingError:
            shed += 1
    latencies = []
    for request in pending:
        request.wait(120)
        latencies.append(request.latency_s * 1000.0)
    lat = np.asarray(latencies, dtype=np.float64)
    return {
        "rate_rps": round(rate_rps, 1),
        "served": len(latencies),
        "shed": shed,
        "p50_ms": round(float(np.percentile(lat, 50)), 2),
        "p99_ms": round(float(np.percentile(lat, 99)), 2),
        "p999_ms": round(float(np.percentile(lat, 99.9)), 2),
    }


def test_pool_saturation_and_tails(tmp_path):
    calibration = _pool_floor()
    min_speedup = calibration["min_speedup"]
    registry, name, sources, words = _publish_model(tmp_path / "registry")
    serials = itertools.count()

    # Equivalence probe: the pool must reproduce the single in-process
    # engine bit-for-bit (same artifact, deterministic inference).
    probe_docs = _distinct_docs(sources, words, serials, 16)
    with ServingEngine(registry.load(name),
                       ServeConfig(batch_window_s=0.0)) as engine:
        expected = engine.classify(probe_docs)
        closed_rps_engine = _closed_loop(engine, _distinct_requests(
            sources, words, serials, N_CLIENTS * CLOSED_PER_CLIENT))

    per_replicas = {}
    for n in REPLICA_COUNTS:
        config = PoolConfig(replicas=n, max_queue=64, warmup=True)
        with ReplicaPool.from_registry(registry, name,
                                       config=config) as pool:
            assert pool.classify(probe_docs, timeout=120) == list(expected)
            closed = _distinct_requests(sources, words, serials,
                                        N_CLIENTS * CLOSED_PER_CLIENT)
            closed_rps = _closed_loop(pool, closed)
            opened = _distinct_requests(sources, words, serials, N_OPEN)
            open_stats = _open_loop(pool, opened,
                                    max(1.0, OPEN_FRACTION * closed_rps))
            stats = pool.stats()
            per_replicas[str(n)] = {
                "closed_rps": round(closed_rps, 1),
                "open": open_stats,
                "dispatched": stats["dispatched"],
                "replica_busy_max": stats["replica_busy_max"],
                "replica_deaths": stats["replica_deaths"],
            }

    speedup = (per_replicas["4"]["closed_rps"]
               / per_replicas["1"]["closed_rps"])
    open_r4 = per_replicas["4"]["open"]
    report = {
        "replicas": per_replicas,
        "n_clients": N_CLIENTS,
        "closed_requests": N_CLIENTS * CLOSED_PER_CLIENT,
        "open_requests": N_OPEN,
        "open_rate_rps": open_r4["rate_rps"],
        "closed_rps_engine": round(closed_rps_engine, 1),
        "closed_rps_r1": per_replicas["1"]["closed_rps"],
        "closed_rps_r2": per_replicas["2"]["closed_rps"],
        "closed_rps_r4": per_replicas["4"]["closed_rps"],
        "p50_ms_r4": open_r4["p50_ms"],
        "p99_ms_r4": open_r4["p99_ms"],
        "p999_ms_r4": open_r4["p999_ms"],
        "speedup_4v1": round(speedup, 2),
        "min_speedup": min_speedup,
        "calibration": calibration,
    }
    write_bench_artifact("serving_pool", report)

    print()
    print(f"replica pool saturation, {N_CLIENTS} closed-loop clients x "
          f"{CLOSED_PER_CLIENT} reqs + {N_OPEN} open-loop reqs per count")
    print(f"  lone engine: {closed_rps_engine:7.1f} req/s saturated")
    for n in REPLICA_COUNTS:
        row = per_replicas[str(n)]
        print(f"  {n} replica(s): {row['closed_rps']:7.1f} req/s saturated; "
              f"open @ {row['open']['rate_rps']:.1f} req/s -> "
              f"p50 {row['open']['p50_ms']:.1f}ms  "
              f"p99 {row['open']['p99_ms']:.1f}ms  "
              f"p99.9 {row['open']['p999_ms']:.1f}ms  "
              f"(busy peak {row['replica_busy_max']})")
    print(f"  4v1 speedup: {speedup:.2f}x "
          f"(calibrated floor {min_speedup}x on {calibration['cores']} "
          f"core(s), jitter {calibration['jitter']})")

    for row in per_replicas.values():
        assert row["replica_deaths"] == 0, report
        assert row["open"]["shed"] == 0, report
    assert speedup >= min_speedup, report


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    test_pool_saturation_and_tails(Path(tempfile.mkdtemp()))
