"""PLM inference-engine micro-benchmark: naive vs engine throughput.

Encodes a 500-document mixed-length corpus (long-tailed, like real ones:
mostly short documents with a long tail near ``max_len``) three ways:

- **seed** — the pre-engine path, reimplemented verbatim: fixed-size
  chunks in corpus order, padded to the chunk max, full autograd graph,
  plus the double ``vocab.encode`` pooling pass;
- **engine (cold)** — no-grad, length-bucketed, token-budget batches,
  empty encode cache;
- **engine (warm)** — same corpus again, served from the cache.

Asserts the engine beats host-aware speedup floors and writes a
``BENCH_plm_inference.json`` artifact next to this file.

The floors are not fixed constants: the achievable ratios depend on how
much the host rewards batching (BLAS vs per-call overhead) and on how
cheap pure-python bookkeeping is relative to float32 compute — both of
which collapse on an oversubscribed CI runner, where fixed 2x/8x floors
flaked. The shared ``hostcal`` probes (fused-vs-looped matmul for the
cold ratio, dict-lookup-vs-compute for the warm cache-served ratio)
measure the host, and the floors scale from those gains, clamped to
[1.3, 2.0] cold and [3.0, 8.0] warm. A fast, idle host still enforces
the original 2x/8x; a degraded host relaxes gracefully instead of
failing on noise. The calibration measurements and derived floors are
recorded in the artifact.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.enc_cache import EncodeCache
from repro.datasets.pretraining import general_corpus
from repro.nn.functional import l2_normalize
from repro.plm.config import PLMConfig
from repro.plm.encoder import pad_batch
from repro.plm.engine import EngineConfig
from repro.plm.model import PretrainedLM
from repro.plm.provider import get_pretrained_lm

import hostcal
from conftest import write_bench_artifact

N_DOCS = 500

# Floors derived in _calibrate_floors, clamped to [MIN, MAX].  The MAX
# values are the original fixed thresholds; the MIN values are what the
# engine must clear even on a badly oversubscribed host.
COLD_FLOOR_MIN, COLD_FRACTION, COLD_FLOOR_MAX = 1.3, 0.5, 2.0
WARM_FLOOR_MIN, WARM_FLOOR_MAX = 3.0, 8.0


def _seed_doc_embeddings(plm: PretrainedLM, token_lists: list) -> np.ndarray:
    """The seed implementation of doc_embeddings, verbatim."""
    vocab = plm.vocabulary
    sequences = [vocab.encode(t)[: plm.max_len] for t in token_lists]
    encoded = []
    for start in range(0, len(sequences), plm.batch_size):
        chunk = sequences[start : start + plm.batch_size]
        if not chunk:
            continue
        safe = [s if len(s) else np.array([vocab.unk_id]) for s in chunk]
        ids, mask = pad_batch(safe, vocab.pad_id, plm.max_len)
        hidden = plm.encoder(ids, pad_mask=mask).data
        for row, seq in zip(hidden, safe):
            encoded.append(row[: len(seq)].copy())
    rows = []
    for tokens, hidden in zip(token_lists, encoded):
        ids = vocab.encode(list(tokens))[: hidden.shape[0]]
        keep = ids != vocab.unk_id
        rows.append(hidden[keep].mean(axis=0) if keep.any()
                    else hidden.mean(axis=0))
    return l2_normalize(np.stack(rows))


def _mixed_corpus(plm: PretrainedLM, n_docs: int, seed: int = 0) -> list:
    """Long-tailed document lengths: ~85% short, ~15% near max_len."""
    rng = np.random.default_rng(seed)
    source = general_corpus(seed=seed, n_docs=min(n_docs, 1200)).token_lists()
    max_len = plm.max_len
    docs = []
    for i in range(n_docs):
        tokens = source[i % len(source)]
        if rng.random() < 0.85:
            length = int(rng.integers(4, 11))
        else:
            length = int(rng.integers(max(12, max_len - 16), max_len + 4))
        while len(tokens) < length:
            tokens = tokens + source[(i + 7) % len(source)]
        docs.append(list(tokens[:length]))
    return docs


def _timed(fn) -> tuple:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _calibrate_floors(seed: int = 0) -> dict:
    """Host-aware speedup floors from the shared ``hostcal`` probes.

    Floors scale down from the fixed maxima with the measured batching
    gain and jitter, clamped to hard minima the engine must clear
    regardless (probe semantics documented in :mod:`hostcal`).
    """
    probes = hostcal.calibrate(seed=seed)
    batch_gain, jitter = probes["batch_gain"], probes["jitter"]
    return {
        **probes,
        "min_cold_speedup": round(
            min(COLD_FLOOR_MAX,
                max(COLD_FLOOR_MIN,
                    COLD_FRACTION * batch_gain / jitter)), 2),
        "min_warm_speedup": round(
            min(WARM_FLOOR_MAX,
                max(WARM_FLOOR_MIN, WARM_FLOOR_MAX / jitter)), 2),
    }


def test_plm_inference_engine_throughput():
    calibration = _calibrate_floors()
    min_cold = calibration["min_cold_speedup"]
    min_warm = calibration["min_warm_speedup"]

    config = PLMConfig(dim=32, n_layers=2, n_heads=2, ff_hidden=64,
                       mlm_steps=150, pretrain_docs=700)
    base = get_pretrained_lm(config=config, seed=0)
    docs = _mixed_corpus(base, N_DOCS)
    total_tokens = sum(len(d) for d in docs)

    seed_plm = PretrainedLM(base.encoder, enc_cache=None)
    engine_plm = PretrainedLM(base.encoder, enc_cache=EncodeCache(),
                              engine_config=EngineConfig())

    # Warm numpy/allocator once so the first measured run is not penalized.
    seed_plm.doc_embeddings(docs[:32])

    seed_s, seed_out = _timed(lambda: _seed_doc_embeddings(seed_plm, docs))
    cold_s, cold_out = _timed(lambda: engine_plm.doc_embeddings(docs))
    warm_s, warm_out = _timed(lambda: engine_plm.doc_embeddings(docs))

    # float32-ulp tolerance: batch shape changes BLAS tiling, so seed and
    # engine outputs can differ by an ulp even though the math is identical.
    np.testing.assert_allclose(cold_out, seed_out, atol=2e-6)
    np.testing.assert_array_equal(cold_out, warm_out)

    report = {
        "n_docs": N_DOCS,
        "total_tokens": total_tokens,
        "config": {"dim": config.dim, "n_layers": config.n_layers,
                   "max_len": config.max_len,
                   "batch_size": seed_plm.batch_size},
        "seed_seconds": round(seed_s, 4),
        "engine_cold_seconds": round(cold_s, 4),
        "engine_warm_seconds": round(warm_s, 4),
        "seed_docs_per_second": round(N_DOCS / seed_s, 1),
        "engine_cold_docs_per_second": round(N_DOCS / cold_s, 1),
        "engine_warm_docs_per_second": round(N_DOCS / warm_s, 1),
        "cold_speedup": round(seed_s / cold_s, 2),
        "warm_speedup": round(seed_s / warm_s, 2),
        "cache": engine_plm.enc_cache.stats(),
        "calibration": calibration,
    }
    artifact_path = write_bench_artifact("plm_inference", report)

    print()
    print("PLM inference engine, doc_embeddings over "
          f"{N_DOCS} mixed-length docs ({total_tokens} tokens)")
    print(f"  seed path:     {seed_s:7.3f}s  ({N_DOCS / seed_s:8.1f} docs/s)")
    print(f"  engine (cold): {cold_s:7.3f}s  ({N_DOCS / cold_s:8.1f} docs/s)"
          f"  -> {seed_s / cold_s:.2f}x")
    print(f"  engine (warm): {warm_s:7.3f}s  ({N_DOCS / warm_s:8.1f} docs/s)"
          f"  -> {seed_s / warm_s:.2f}x")
    print(f"  calibrated floors: cold >= {min_cold}x, warm >= {min_warm}x "
          f"(batch_gain {calibration['batch_gain']}, "
          f"jitter {calibration['jitter']})")
    print(f"  artifact: {artifact_path}")

    assert seed_s / cold_s >= min_cold, report
    assert seed_s / warm_s >= min_warm, report


if __name__ == "__main__":
    test_plm_inference_engine_throughput()
