"""Serving-engine load benchmark: micro-batched vs one-at-a-time.

Trains a small PLM-backed method (X-Class), exports it through the
artifact store, reloads it, and serves the same request stream two ways:

- **unbatched** — the one-request-at-a-time path: a single client loop
  calling ``predict`` per request, one encoder batch per document;
- **batched** — concurrent clients submitting through
  :class:`~repro.serve.engine.ServingEngine`, whose micro-batcher
  coalesces requests into the PLM engine's length-bucketed batches.

Both arms serve the loaded artifact, whose PLM carries no encode cache,
over disjoint documents, so every request truly encodes — the measured
gap is pure batching.
A final burst against a tiny queue demonstrates load shedding (typed
``Overloaded``, no deadlock).

Asserts batched throughput >= 2x unbatched and writes
``BENCH_serving.json`` (throughput, p50/p99 latency, batch and shed
counts) next to this file.

A second bench serves the same fitted model from a float32 artifact and
an int8 quantized artifact (which loads with the packed predict-only
forward) over identical near-``max_len`` single-document request streams.
Int8 weights are dequantized to float32 when the archive loads, so both
arms multiply float32 weights: the int8 arm's speedup is the packed
forward's against the Tensor forward, not int8 arithmetic.
Arms are interleaved across rounds and compared on per-arm minima, so
scheduler noise hits both sides equally; the speedup floor is
host-calibrated via :mod:`hostcal` and capped at
:data:`QUANT_FLOOR_MAX`. Accuracy is compared as macro-F1 against gold
labels on the full test corpus — the quantized artifact must stay
within :data:`QUANT_MAX_ACCURACY_DELTA` points of float32. Writes
``BENCH_quantized.json``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.exceptions import Overloaded
from repro.datasets import load_profile
from repro.evaluation.metrics import macro_f1
from repro.experiments.runner import gold_single
from repro.methods import XClass
from repro.plm.config import PLMConfig
from repro.plm.provider import get_pretrained_lm
from repro.serve import ServeConfig, ServingEngine, export_artifact, load_artifact

import hostcal
from conftest import write_bench_artifact

N_REQUESTS = 64
N_CLIENTS = 8
MIN_SPEEDUP = 2.0

# Quantized-vs-float32 arm: interleaved rounds, per-arm minima, and a
# host-calibrated speedup floor (capped at the fixed 1.5x target; a
# contended host relaxes toward the hard minimum instead of flaking).
QUANT_ROUNDS = 5
QUANT_FLOOR_MIN, QUANT_FLOOR_FRACTION, QUANT_FLOOR_MAX = 1.15, 0.25, 1.5
QUANT_MAX_ACCURACY_DELTA = 0.5  # macro-F1 points
QUANT_DOC_TOKENS = 44  # near max_len=48: encoder-dominated requests


def _build_servable(tmp_dir) -> "tuple":
    config = PLMConfig(dim=32, n_layers=2, n_heads=2, ff_hidden=64,
                       mlm_steps=150, pretrain_docs=700)
    bundle = load_profile("agnews", seed=0, scale=0.4)
    plm = get_pretrained_lm(target_corpus=bundle.train_corpus, config=config,
                            seed=0)
    model = XClass(plm=plm, seed=0)
    model.fit(bundle.train_corpus, bundle.label_names())
    path = export_artifact(model, tmp_dir / "bench-xclass",
                           provenance={"profile": "agnews", "seed": 0,
                                       "bench": "serving"})
    loaded = load_artifact(path)
    requests = (bundle.test_corpus.token_lists()
                + bundle.train_corpus.token_lists())[: 2 * N_REQUESTS]
    assert len(requests) == 2 * N_REQUESTS, "bundle too small for the bench"
    return loaded, requests


def _run_unbatched(loaded, docs: list) -> tuple:
    latencies = []
    start = time.perf_counter()
    for doc in docs:
        t0 = time.perf_counter()
        loaded.predict([doc])
        latencies.append(time.perf_counter() - t0)
    return time.perf_counter() - start, latencies


def _run_batched(loaded, docs: list) -> tuple:
    engine = ServingEngine(loaded, ServeConfig(max_batch_docs=64,
                                               batch_window_s=0.0005,
                                               warmup=True))
    latencies = [0.0] * len(docs)
    per_client = len(docs) // N_CLIENTS
    barrier = threading.Barrier(N_CLIENTS + 1)

    def client(c: int) -> None:
        # Async client: submit its burst, then await each response.
        barrier.wait()
        lo = c * per_client
        pending = []
        for i in range(lo, lo + per_client):
            pending.append((i, time.perf_counter(),
                            engine.submit([docs[i]])))
        for i, t0, request in pending:
            request.wait(120)
            latencies[i] = time.perf_counter() - t0

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(N_CLIENTS)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    stats = engine.stats()
    engine.close()
    return elapsed, latencies, stats


def _shed_demo(loaded) -> dict:
    """Burst a tiny queue: requests shed with Overloaded, none deadlock."""
    engine = ServingEngine(loaded, ServeConfig(max_queue=4, warmup=False,
                                               batch_window_s=0.0))
    accepted, shed = [], 0
    for i in range(16):
        try:
            accepted.append(engine.submit([[f"burst{i}", "team", "game"]]))
        except Overloaded:
            shed += 1
    for request in accepted:
        request.wait(60)
    engine.close()
    return {"burst": 16, "accepted": len(accepted), "shed": shed}


def _pct(latencies: list, q: float) -> float:
    return float(np.percentile(np.asarray(latencies) * 1000.0, q))


def test_serving_engine_throughput(tmp_path):
    loaded, requests = _build_servable(tmp_path)
    unbatched_docs, batched_docs = requests[:N_REQUESTS], requests[N_REQUESTS:]

    loaded.warmup()
    # Best-of-3 per arm: the served PLM has no encode cache, so repeats
    # re-encode; min-of-repeats just strips scheduler noise from the
    # comparison.
    unbatched_s, unbatched_lat = min(
        (_run_unbatched(loaded, unbatched_docs) for _ in range(3)),
        key=lambda r: r[0])
    batched_s, batched_lat, stats = min(
        (_run_batched(loaded, batched_docs) for _ in range(3)),
        key=lambda r: r[0])
    shed = _shed_demo(loaded)

    speedup = unbatched_s / batched_s
    report = {
        "n_requests": N_REQUESTS,
        "n_clients": N_CLIENTS,
        "unbatched_seconds": round(unbatched_s, 4),
        "batched_seconds": round(batched_s, 4),
        "unbatched_rps": round(N_REQUESTS / unbatched_s, 1),
        "batched_rps": round(N_REQUESTS / batched_s, 1),
        "speedup": round(speedup, 2),
        "unbatched_p50_ms": round(_pct(unbatched_lat, 50), 2),
        "unbatched_p99_ms": round(_pct(unbatched_lat, 99), 2),
        "batched_p50_ms": round(_pct(batched_lat, 50), 2),
        "batched_p99_ms": round(_pct(batched_lat, 99), 2),
        "batches": stats["batches"],
        "batched_docs": stats["batched_docs"],
        "shed_demo": shed,
    }
    write_bench_artifact("serving", report)

    print()
    print(f"serving engine, {N_REQUESTS} single-doc requests "
          f"({N_CLIENTS} clients)")
    print(f"  unbatched: {unbatched_s:7.3f}s  "
          f"({N_REQUESTS / unbatched_s:7.1f} req/s)  "
          f"p50 {report['unbatched_p50_ms']:.1f}ms  "
          f"p99 {report['unbatched_p99_ms']:.1f}ms")
    print(f"  batched:   {batched_s:7.3f}s  "
          f"({N_REQUESTS / batched_s:7.1f} req/s)  "
          f"p50 {report['batched_p50_ms']:.1f}ms  "
          f"p99 {report['batched_p99_ms']:.1f}ms  "
          f"-> {speedup:.2f}x in {stats['batches']} batches")
    print(f"  shed demo: {shed['shed']}/{shed['burst']} requests shed "
          f"at queue depth 4")

    assert stats["batches"] < N_REQUESTS, report
    assert shed["shed"] > 0, report
    assert speedup >= MIN_SPEEDUP, report


def _long_docs(sources: list, n_docs: int) -> list:
    """``n_docs`` token lists padded to near-``max_len`` by concatenation."""
    docs = []
    for i in range(n_docs):
        doc, j = list(sources[i % len(sources)]), 1
        while len(doc) < QUANT_DOC_TOKENS:
            doc += sources[(i + j) % len(sources)]
            j += 1
        docs.append(doc[:48])
    return docs


def _plm_bytes(artifact_dir) -> int:
    """On-disk size of the PLM archives inside one artifact directory."""
    return sum(p.stat().st_size for p in artifact_dir.glob("plm_*.npz"))


def _quantized_floor() -> dict:
    """Host-calibrated speedup floor for the quantized arm.

    Scales with how much the host rewards replacing python-side op
    dispatch with packed numpy kernels (the same batch_gain probe the
    inference bench uses), damped by timing jitter, clamped to
    [QUANT_FLOOR_MIN, QUANT_FLOOR_MAX].
    """
    probes = hostcal.calibrate()
    floor = QUANT_FLOOR_FRACTION * probes["batch_gain"] / probes["jitter"]
    return {
        **probes,
        "min_speedup": round(
            min(QUANT_FLOOR_MAX, max(QUANT_FLOOR_MIN, floor)), 2),
    }


def test_quantized_serving_speedup(tmp_path):
    calibration = _quantized_floor()
    min_speedup = calibration["min_speedup"]

    # Deeper encoder than the batching bench: quantized artifacts target
    # encode-dominated serving, so the bench workload should be too.
    config = PLMConfig(dim=32, n_layers=6, n_heads=2, ff_hidden=64,
                       mlm_steps=150, pretrain_docs=700)
    bundle = load_profile("agnews", seed=0, scale=0.4)
    plm = get_pretrained_lm(target_corpus=bundle.train_corpus, config=config,
                            seed=0)
    model = XClass(plm=plm, seed=0)
    model.fit(bundle.train_corpus, bundle.label_names())

    provenance = {"profile": "agnews", "seed": 0, "bench": "quantized"}
    f32_path = export_artifact(model, tmp_path / "bench-f32",
                               provenance=provenance)
    int8_path = export_artifact(model, tmp_path / "bench-int8",
                                provenance=provenance, quantize="int8",
                                probe=bundle.test_corpus[:48])
    size_ratio = _plm_bytes(f32_path) / max(_plm_bytes(int8_path), 1)

    arms = {}
    for key, path in (("float32", f32_path), ("int8", int8_path)):
        loaded = load_artifact(path)
        loaded.warmup()
        arms[key] = loaded

    # Accuracy first (also warms both arms through the full test set).
    test_docs = bundle.test_corpus.token_lists()
    gold = gold_single(bundle.test_corpus)
    labels = list(bundle.label_set)
    f1 = {key: macro_f1(gold, loaded.predict(test_docs), labels=labels)
          for key, loaded in arms.items()}
    accuracy_delta = (f1["float32"] - f1["int8"]) * 100.0

    requests = _long_docs(test_docs + bundle.train_corpus.token_lists(),
                          N_REQUESTS)

    def workload(loaded) -> float:
        start = time.perf_counter()
        for doc in requests:
            loaded.predict([doc])
        return time.perf_counter() - start

    # Interleave the arms each round so load spikes hit both; per-arm
    # minima then estimate each arm's unloaded speed.
    times = {"float32": [], "int8": []}
    for _ in range(QUANT_ROUNDS):
        for key in times:
            times[key].append(workload(arms[key]))
    float32_s, int8_s = min(times["float32"]), min(times["int8"])
    speedup = float32_s / int8_s

    report = {
        "quantize": "int8",
        "n_requests": N_REQUESTS,
        "rounds": QUANT_ROUNDS,
        "doc_tokens": QUANT_DOC_TOKENS,
        "float32_seconds": round(float32_s, 4),
        "quantized_seconds": round(int8_s, 4),
        "speedup": round(speedup, 2),
        "min_speedup": min_speedup,
        "float32_macro_f1": round(f1["float32"], 4),
        "quantized_macro_f1": round(f1["int8"], 4),
        "accuracy_delta": round(accuracy_delta, 4),
        "max_accuracy_delta": QUANT_MAX_ACCURACY_DELTA,
        "size_ratio": round(size_ratio, 2),
        "calibration": calibration,
    }
    write_bench_artifact("quantized", report)

    print()
    print(f"quantized serving, {N_REQUESTS} near-max_len single-doc "
          f"requests x {QUANT_ROUNDS} interleaved rounds")
    print(f"  float32:   {float32_s * 1000:7.1f}ms  "
          f"macro-F1 {f1['float32']:.4f}")
    print(f"  int8:      {int8_s * 1000:7.1f}ms  "
          f"macro-F1 {f1['int8']:.4f}  -> {speedup:.2f}x, "
          f"{size_ratio:.1f}x smaller on disk")
    print(f"  calibrated floor: >= {min_speedup}x "
          f"(batch_gain {calibration['batch_gain']}, "
          f"jitter {calibration['jitter']}); "
          f"accuracy delta {accuracy_delta:+.2f} pts "
          f"(max {QUANT_MAX_ACCURACY_DELTA})")

    assert size_ratio > 2.0, report
    assert abs(accuracy_delta) <= QUANT_MAX_ACCURACY_DELTA, report
    assert speedup >= min_speedup, report


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    test_serving_engine_throughput(Path(tempfile.mkdtemp()))
    test_quantized_serving_speedup(Path(tempfile.mkdtemp()))
