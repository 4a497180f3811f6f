"""Per-layer metrics from the traced run's process records.

:func:`layer_metrics` merges the records every process of a traced run
wrote (see ``hook/perfbench_layers.py``) and derives the per-layer
metrics named in ``BENCHMARK.json``. Conventions:

- ``*_ms`` are means per call (or per encoder forward / engine batch
  where the name says so), ``*_s`` are totals over the run, except
  ``serve.pool.start_s``, ``serve.registry.publish_s`` and
  ``serve.artifacts.load_s`` (mean per call) and ``pipeline.refit.*``
  (the drift re-fit, i.e. the last call);
- ``.p50`` / ``.p99`` are percentiles of per-request samples;
- a layer the workload does not run reads 0.
"""

from __future__ import annotations

from common import percentile


class Merged:
    """Sum of the timers, counts and samples of several process records."""

    def __init__(self, records: list):
        self.records = records
        self.timers: dict = {}
        self.counts: dict = {}
        self.samples: dict = {}
        self.keyed: dict = {}
        self.pool_latency_s: list = []
        for record in records:
            for name, (calls, seconds) in record["timers"].items():
                entry = self.timers.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += seconds
            for name, value in record["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + value
            for name, values in record["samples"].items():
                self.samples.setdefault(name, []).extend(values)
            for name, values in record["keyed"].items():
                self.keyed.setdefault(name, {}).update(values)
            self.pool_latency_s.extend(record.get("pool_latency_s", ()))

    def calls(self, name: str) -> int:
        return self.timers.get(name, [0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.timers.get(name, [0, 0.0])[1]

    def mean_ms(self, name: str) -> float:
        calls = self.calls(name)
        return 1000.0 * self.seconds(name) / calls if calls else 0.0

    def mean_s(self, name: str) -> float:
        calls = self.calls(name)
        return self.seconds(name) / calls if calls else 0.0

    def count(self, name: str) -> float:
        return self.counts.get(name, 0)

    def ratio(self, num: float, den: float) -> float:
        return num / den if den else 0.0

    def role(self, role: str) -> "Merged":
        return Merged([r for r in self.records if r["role"] == role])

    def without(self, role: str) -> "Merged":
        return Merged([r for r in self.records if r["role"] != role])


def _last_sample_s(merged: Merged, name: str) -> float:
    values = merged.samples.get(name)
    return values[-1] / 1000.0 if values else 0.0


def layer_metrics(records: list, wrapper_cost_s: float) -> dict:
    """Per-layer metrics computable from the records alone."""
    m = Merged(records)
    # Inference-path layers leave out set-up processes (the model export
    # pretrains and fits through the same encoder and cache).
    infer = m.without("setup")
    replicas = m.role("replica")
    workers = m.role("dag-worker")
    batches = m.count("serve.engine.batches")
    forwards = infer.calls("plm.encoder.forward")
    wait = m.samples.get("serve.engine.queue_wait", [])
    per_replica = [r["counts"].get("serve.engine.requests", 0)
                   for r in replicas.records]
    mean_replica = sum(per_replica) / len(per_replica) if per_replica else 0
    pool_n = len(m.pool_latency_s)
    hop_s = (sum(m.pool_latency_s) - replicas.seconds("serve.engine.request")
             if pool_n else 0.0)
    evidence_s = (m.seconds("taxogen.evidence.support")
                  + m.seconds("taxogen.evidence.lexicons"))
    wrapped_calls = sum(calls for calls, _ in m.timers.values())
    return {
        "serve.pool.hop_ms": 1000.0 * hop_s / pool_n if pool_n else 0.0,
        "serve.pool.dispatched": m.count("serve.pool.dispatched"),
        "serve.pool.shed": m.count("serve.pool.shed"),
        "serve.pool.replica_skew": (max(per_replica) / mean_replica - 1.0
                                    if mean_replica else 0.0),
        "serve.pool.start_s": m.mean_s("serve.pool.start"),
        "serve.engine.queue_wait_ms.p50": percentile(wait, 50),
        "serve.engine.queue_wait_ms.p99": percentile(wait, 99),
        "serve.engine.batches": batches,
        "serve.engine.docs_per_batch": m.ratio(m.count("serve.engine.docs"),
                                               batches),
        "serve.predict_ms": m.mean_ms("serve.predict"),
        "serve.predict_calls_per_batch": m.ratio(
            m.count("serve.predict_calls"), batches),
        "methods.head_ms": m.mean_ms("methods.head"),
        "serve.registry.publish_s": m.mean_s("serve.registry.publish"),
        "serve.artifacts.load_s": m.mean_s("serve.artifacts.load"),
        "core.enc_cache.hit_ratio": infer.ratio(
            infer.count("enc_cache.hits"), infer.count("enc_cache.gets")),
        "plm.model.encode_docs_per_doc": infer.ratio(
            infer.count("plm.model.encoded_docs"),
            infer.count("plm.model.requested_docs")),
        "plm.engine.batches": infer.count("plm.engine.batches"),
        "plm.engine.pad_ratio": infer.ratio(
            infer.count("plm.engine.padded_tokens"),
            infer.count("plm.engine.real_tokens")),
        "plm.engine.pad_ms": infer.mean_ms("plm.engine.pad"),
        "plm.encoder.forward_ms": infer.mean_ms("plm.encoder.forward"),
        "plm.encoder.tokens_s": infer.ratio(
            infer.count("plm.encoder.tokens"),
            infer.seconds("plm.encoder.forward")),
        "plm.encoder.embed_ms": 1000.0 * infer.ratio(
            infer.seconds("plm.encoder.embed"), forwards),
        "plm.encoder.attention_ms": 1000.0 * infer.ratio(
            infer.seconds("plm.encoder.attention"), forwards),
        "plm.encoder.ffn_ms": 1000.0 * infer.ratio(
            infer.seconds("plm.encoder.ffn"), forwards),
        "plm.infer.forward_ms": infer.mean_ms("plm.infer.forward"),
        "nn.pretrain_s": m.seconds("nn.pretrain"),
        "nn.optimizer_steps": m.calls("nn.step"),
        "nn.step_ms": m.mean_ms("nn.step"),
        "classifiers.fit_s": m.seconds("classifiers.fit"),
        "pipeline.source.read_ms": m.mean_ms("pipeline.source.read"),
        "pipeline.tokenize_ms": m.mean_ms("pipeline.tokenize"),
        "pipeline.dedupe_ms": m.mean_ms("pipeline.dedupe"),
        "pipeline.store.append_ms": m.mean_ms("pipeline.store.append"),
        "pipeline.store.predictions_ms": m.mean_ms(
            "pipeline.store.predictions"),
        "pipeline.store.checkpoint_ms": m.mean_ms("pipeline.store.checkpoint"),
        "pipeline.classify_ms": m.mean_ms("pipeline.classify"),
        "pipeline.drift.observe_ms": m.mean_ms("pipeline.drift.observe"),
        "pipeline.refit.fit_s": _last_sample_s(m, "pipeline.refit.fit"),
        "pipeline.refit.reload_s": _last_sample_s(m, "pipeline.refit.reload"),
        "experiments.node.corpus_s": workers.seconds("experiments.node.corpus"),
        "experiments.node.encode_s": workers.seconds("experiments.node.encode"),
        "experiments.node.row_s": workers.seconds("experiments.node.row"),
        "experiments.worker.start_s": workers.mean_s(
            "worker.start.dag-worker"),
        "datasets.generate_s": m.seconds("datasets.generate"),
        "taxogen.evidence_s": evidence_s,
        "taxogen.score_s": max(0.0, m.seconds("taxogen.affinity")
                               - evidence_s),
        "taxogen.repair_s": m.seconds("taxogen.repair"),
        # Estimated CPU time the timers themselves added.
        "trace.wrapper_s": wrapped_calls * wrapper_cost_s,
    }
