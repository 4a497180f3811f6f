"""``stream``: the streaming pipeline, unthrottled, over a seeded agnews
stream.

32 000 documents in batches of 32 (1000 batches) with a content
duplicate at every 8th position. At the midpoint one label (chosen by
the seed) drifts: the mixture tilts toward it and post-drift documents
carry novel tokens, so the OOV signal fires the one drift re-fit (the
cooldown outlasts the stream, so it fires once). Re-fits train
WeSTClass (CNN head, no self-training) on at most 512 stored documents;
it serves through the in-process engine client.

Checks: the corpus store holds exactly the stream's first occurrences,
byte for byte, and every prediction-log record equals an offline
prediction of the same documents, chunked as the pipeline chunked them,
by the model generation the record names.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from common import NPROC, median, percentile

#: Whether the program runs inside the benchmark process.
IN_PROCESS = True
N_DOCS = 32_000
BATCH = 32
DUPLICATE_EVERY = 8
BOOTSTRAP_DOCS = 96
BOOTSTRAP_BATCHES = 4
TRAIN_DOCS = 512
SCALE = 60.0  # agnews pool of 28 800 documents >= 28 001 unique emissions
SEGMENTS = 10


def _config(bench):
    from repro.pipeline import DriftPolicy, PipelineConfig, StreamConfig

    labels = ("politics", "sports", "business", "technology")
    stream = StreamConfig(profile="agnews", seed=bench.seed, scale=SCALE,
                          n_docs=N_DOCS, duplicate_every=DUPLICATE_EVERY,
                          drift_at=N_DOCS // 2,
                          drift_labels=(labels[bench.seed % len(labels)],),
                          drift_novel_rate=0.9)
    return PipelineConfig(
        stream=stream, name="bench", store_root=str(bench.corpus),
        registry_root=str(bench.models), method="westclass",
        # Self-training stops when the labels settle, so its cost follows
        # the seed's content; without it every fit does the same work.
        method_kwargs={"self_train": False},
        batch_size=BATCH, bootstrap_docs=BOOTSTRAP_DOCS,
        train_docs=TRAIN_DOCS,
        drift=DriftPolicy(window=64, hist_threshold=None,
                          oov_threshold=0.06, cooldown=10 * N_DOCS))


def _blake(tokens: list) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for token in tokens:
        digest.update(token.encode() + b"\x00")
    return digest.hexdigest()


def check_store(pipe) -> tuple:
    """(stored records, mismatches): the store vs the stream's first
    occurrences, regenerated from the source."""
    _, docs = pipe.source.read(0, len(pipe.source))
    seen: set = set()
    expected = []
    for doc in docs:
        digest = _blake(doc.tokens)
        if digest in seen:
            continue
        seen.add(digest)
        expected.append(json.dumps({
            "position": doc.metadata.get("position"), "doc_id": doc.doc_id,
            "hash": digest, "tokens": doc.tokens,
            "labels": list(doc.labels)}, sort_keys=True))
    actual = []
    for path in pipe.store.shard_files():
        actual.extend(path.read_text().splitlines())
    wrong = sum(a != e for a, e in zip(actual, expected))
    return actual, wrong + abs(len(actual) - len(expected))


def _chunks(records: list) -> list:
    """The pipeline's classify chunks: the bootstrap backlog in chunks of
    ``BATCH``, then the stored documents of each later source batch."""
    by_batch: dict = {}
    for record in records:
        by_batch.setdefault(record["position"] // BATCH, []).append(record)
    chunks, backlog, stored, fitted = [], [], 0, False
    for batch in sorted(by_batch):
        docs = by_batch[batch]
        if fitted:
            chunks.append(docs)
            continue
        backlog.extend(docs)
        stored += len(docs)
        if stored >= BOOTSTRAP_DOCS:
            fitted = True
            chunks.extend(backlog[i:i + BATCH]
                          for i in range(0, len(backlog), BATCH))
    return chunks


def check_predictions(pipe, records: list) -> tuple:
    """(records checked, mismatches) of the prediction log."""
    from repro.pipeline.clients import ScoredServable
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(pipe.config.resolved_registry_root())
    name = pipe.config.resolved_model_name
    models = {gen: ScoredServable(registry.load(name, gen + 1))
              for gen in range(pipe.fits)}
    log = [json.loads(line) for line in
           (pipe.store.directory / "predictions.jsonl").read_text()
           .splitlines()]
    gens = [entry["model_gen"] for entry in log]
    switches = [i for i in range(1, len(gens)) if gens[i] != gens[i - 1]]
    # Exactly one re-fit, fired by the drift (not before the midpoint).
    wrong = abs(len(log) - len(records)) + (len(switches) != 1) + any(
        log[i]["position"] < N_DOCS // 2 for i in switches)
    cursor = 0
    for chunk in _chunks(records):
        entries = log[cursor:cursor + len(chunk)]
        cursor += len(chunk)
        if not entries:
            break
        preds = models[entries[0]["model_gen"]].predict(
            [r["tokens"] for r in chunk])
        for record, entry, (label, confidence, topk) in zip(chunk, entries,
                                                             preds):
            expected = {
                "position": record["position"], "doc_id": record["doc_id"],
                "label": label if isinstance(label, str) else list(label),
                "confidence": round(float(confidence), 6), "topk": topk,
                "model_gen": entry["model_gen"]}
            wrong += entry != expected
    return len(log), wrong


def run(bench, seconds: float) -> dict:
    from repro.pipeline import Pipeline
    from repro.pipeline.clients import EngineClient
    from repro.pipeline.drift import DriftMonitor

    # The re-fit's cost to the stream: drift trigger -> first batch
    # answered by the new model.
    events: dict = {}
    mark_triggered = DriftMonitor.mark_triggered
    classify = EngineClient.classify

    def probe_trigger(self):
        events["trigger"] = time.perf_counter()
        return mark_triggered(self)

    def probe_classify(self, docs):
        result = classify(self, docs)
        if "trigger" in events and "served" not in events:
            events["served"] = time.perf_counter()
        return result

    DriftMonitor.mark_triggered = probe_trigger
    EngineClient.classify = probe_classify
    try:
        cpu0 = sum(resource.getrusage(resource.RUSAGE_SELF)[:2])
        t0 = time.perf_counter()
        pipe = Pipeline(_config(bench))
        boot = pipe.run(max_batches=BOOTSTRAP_BATCHES)
        setup_s = time.perf_counter() - t0
        steady = pipe.run(track_latency=True)
        wall_s = time.perf_counter() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu_s = usage.ru_utime + usage.ru_stime - cpu0
    finally:
        DriftMonitor.mark_triggered = mark_triggered
        EngineClient.classify = classify

    if "served" not in events:
        raise RuntimeError("the drift re-fit never fired")
    refit_s = events["served"] - events["trigger"]
    stored, store_wrong = check_store(pipe)
    records = [json.loads(line) for line in stored]
    logged, log_wrong = check_predictions(pipe, records)
    wrong = store_wrong + log_wrong + (steady.refits != 1)
    classified = boot.classified + steady.classified
    steady_s = steady.seconds - refit_s
    latencies_ms = [s * 1000.0 for s in steady.latencies_s]
    # p99 is the median over ten consecutive stretches of the stream
    # (each ~2800 docs, so ~28 beyond its p99): a burst of host noise in
    # one stretch then moves it no more than it moves the median.
    size = len(latencies_ms) // SEGMENTS
    p99_ms = median(percentile(latencies_ms[i * size:(i + 1) * size], 99)
                    for i in range(SEGMENTS))
    bytes_written = sum(p.stat().st_size
                        for p in pipe.store.directory.rglob("*")
                        if p.is_file())
    e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": median(latencies_ms),
        "latency_p99_ms": p99_ms,
        "throughput_docs_s": steady.classified / steady_s,
        "wall_s": wall_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    read = boot.ingested + boot.deduped + steady.ingested + steady.deduped
    extra = {
        "failed_frac": wrong / max(1, logged),
        "proc.cpu_util": cpu_s / (wall_s * NPROC),
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "pipeline.store.bytes_written": bytes_written,
        "pipeline.dedupe.dropped_frac": ((boot.deduped + steady.deduped)
                                         / max(1, read)),
        "pipeline.refit.trigger_to_served_s": refit_s,
    }
    print(f"# stream: {classified} classified, {steady.batches} steady "
          f"batches in {steady.seconds:.1f}s, refits {steady.refits}, "
          f"refit {refit_s:.2f}s, setup {setup_s:.1f}s, wrong {wrong}",
          file=sys.stderr)
    return {"e2e": e2e, "extra": extra, "correct": wrong == 0,
            "attempted": logged, "failed": wrong}


def traced(merged, extra: dict) -> dict:
    """stream specifics: share of the run inside the pipeline's layers."""
    return {
        "pipeline.refit.trigger_to_served_s":
            extra["pipeline.refit.trigger_to_served_s"],
        "pipeline.store.bytes_written": extra["pipeline.store.bytes_written"],
        "pipeline.dedupe.dropped_frac": extra["pipeline.dedupe.dropped_frac"],
        "trace.coverage": merged.seconds("cover") / extra["wall_s"],
    }
