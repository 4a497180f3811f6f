"""XL-corpus encode benchmark: mmap shard tier under a tiny memory budget.

Encodes the 10x ``agnews_xl`` training corpus (4800 documents at full
scale) through an :class:`~repro.core.enc_cache.EncodeCache` whose
memory tier is capped far below the corpus's hidden-state footprint,
with the mmap shard disk tier taking the spill:

- **cold** — every document encodes through the PLM engine and streams
  into shards of ``SHARD_DOCS`` concatenated documents;
- **warm** — the same corpus again, served as zero-copy mmap slice
  views off the shards (plus whatever still fits in memory).

Asserts the memory tier never exceeds its budget while the shards hold
the full corpus, that warm output is bit-identical to cold, and that
the warm pass beats cold by a host-calibrated floor. Writes
``BENCH_xl_encode.json`` next to this file.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.enc_cache import SHARD_DOCS, EncodeCache
from repro.datasets import load_profile
from repro.plm.config import PLMConfig
from repro.plm.model import PretrainedLM
from repro.plm.provider import get_pretrained_lm

import hostcal
from conftest import write_bench_artifact

PROFILE = "agnews_xl"
MAX_BYTES = 1 << 20  # 1 MB memory tier vs an ~18 MB hidden-state corpus

# Warm floor: shard hits replace encoder forwards with mmap slices, so
# the achievable ratio tracks the host's jitter like the warm floor in
# bench_plm_inference; clamped to [1.5, 3.0].
WARM_FLOOR_MIN, WARM_FLOOR_MAX = 1.5, 3.0


def test_xl_encode_through_shards(tmp_path):
    probes = hostcal.calibrate()
    min_warm = round(
        min(WARM_FLOOR_MAX, max(WARM_FLOOR_MIN,
                                WARM_FLOOR_MAX / probes["jitter"])), 2)

    bundle = load_profile(PROFILE, seed=0, scale=1.0)
    config = PLMConfig(dim=32, n_layers=2, n_heads=2, ff_hidden=64,
                       mlm_steps=150, pretrain_docs=700)
    base = get_pretrained_lm(target_corpus=bundle.train_corpus, config=config,
                             seed=0)
    cache = EncodeCache(max_bytes=MAX_BYTES, disk_dir=tmp_path)
    plm = PretrainedLM(base.encoder, enc_cache=cache)
    docs = bundle.train_corpus.token_lists()

    start = time.perf_counter()
    cold = plm.doc_embeddings(docs)
    cold_s = time.perf_counter() - start
    cache.flush_shards()

    shard_files = sorted(tmp_path.rglob("shard_*.npy"))
    shard_bytes = sum(p.stat().st_size for p in shard_files)

    start = time.perf_counter()
    warm = plm.doc_embeddings(docs)
    warm_s = time.perf_counter() - start

    stats = cache.stats()
    report = {
        "profile": PROFILE,
        "n_docs": len(docs),
        "encode_seconds": round(cold_s, 4),
        "docs_per_second": round(len(docs) / cold_s, 1),
        "warm_seconds": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 2),
        "min_warm_speedup": min_warm,
        "cache_max_bytes": MAX_BYTES,
        "cache_bytes": cache.nbytes,
        "shard_files": len(shard_files),
        "shard_bytes": shard_bytes,
        "cache": stats,
        "calibration": probes,
    }
    write_bench_artifact("xl_encode", report)

    print()
    print(f"XL encode, {len(docs)} docs of {PROFILE} through a "
          f"{MAX_BYTES >> 20} MB memory tier + {SHARD_DOCS}-doc mmap shards")
    print(f"  cold: {cold_s:6.2f}s  ({len(docs) / cold_s:7.0f} docs/s)")
    print(f"  warm: {warm_s:6.2f}s  ({len(docs) / warm_s:7.0f} docs/s)  "
          f"-> {cold_s / warm_s:.1f}x (floor {min_warm}x)")
    print(f"  memory tier {cache.nbytes} / {MAX_BYTES} bytes; "
          f"{len(shard_files)} shards holding {shard_bytes} bytes "
          f"({stats['disk_hits']} disk hits)")

    # The whole point: the corpus streams through a memory tier it could
    # never fit in, and comes back bit-identical off the shards.
    assert cache.nbytes <= MAX_BYTES, report
    assert shard_bytes > MAX_BYTES, report
    assert stats["disk_hits"] > 0, report
    np.testing.assert_array_equal(cold, warm)
    assert cold_s / warm_s >= min_warm, report


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    test_xl_encode_through_shards(Path(tempfile.mkdtemp()))
