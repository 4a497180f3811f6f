"""Streaming pipeline: stream source, store, drift, crash-resume, e2e.

The acceptance contract of the ingestion subsystem:

- a streamed corpus is ingested, deduped by content hash, sharded into
  the append-only store, and classified online through the serving
  client (one model forward per chunk);
- a forced drift event (novel post-drift vocabulary) triggers exactly
  one re-fit through the experiment engine, publishing a new registry
  version that is atomically picked up;
- killing the orchestrator mid-stream and resuming from the checkpoint
  yields a corpus store and predictions log *byte-identical* to an
  uninterrupted run;
- the dedupe frontier holds under concurrent feeders.
"""

from __future__ import annotations

import hashlib
import json
import threading

import pytest

from repro.core import env
from repro.core.exceptions import CheckpointError, PipelineError
from repro.pipeline import (
    CorpusStore,
    DriftMonitor,
    DriftPolicy,
    Pipeline,
    PipelineConfig,
    StreamConfig,
    StreamSource,
)
from repro.pipeline.cli import main as pipeline_cli
from repro.pipeline.stages import DedupeStage
from repro.pipeline.store import content_hash

pytestmark = pytest.mark.pipeline

#: Small-but-real WeSTClass: fits in ~0.1s on a 100-doc corpus.
SMALL_KWARGS = dict(pretrain_epochs=2, self_train_iterations=0,
                    pseudo_per_class=20, dim=32)

#: Stream with duplicates and a drift point injecting novel vocabulary
#: (the OOV signal is deterministic: it depends on tokens, not on what
#: the model happens to predict).
DRIFT_STREAM = dict(profile="agnews", seed=0, scale=0.6, n_docs=240,
                    duplicate_every=7, drift_at=120,
                    drift_labels=("sports",), drift_novel_rate=0.9)

OOV_POLICY = DriftPolicy(window=40, hist_threshold=None, oov_threshold=0.06,
                         cooldown=60)


def make_config(tmp_path, **overrides) -> PipelineConfig:
    base = dict(
        stream=StreamConfig(**DRIFT_STREAM),
        name="s",
        store_root=str(tmp_path / "corpus"),
        registry_root=str(tmp_path / "models"),
        method="westclass",
        method_kwargs=SMALL_KWARGS,
        batch_size=24,
        checkpoint_every=2,
        bootstrap_docs=72,
        drift=OOV_POLICY,
        warmup=False,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def store_digest(store_dir) -> str:
    """One hash over every shard + the predictions log, byte-exact."""
    digest = hashlib.blake2b()
    paths = sorted((store_dir / "shards").glob("*.jsonl"))
    paths.append(store_dir / "predictions.jsonl")
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Stream source
# ---------------------------------------------------------------------------

def test_stream_source_is_deterministic_and_cursor_resumable():
    a = StreamSource(StreamConfig(**DRIFT_STREAM))
    b = StreamSource(StreamConfig(**DRIFT_STREAM))
    _, docs_a = a.read(0, len(a))
    _, docs_b = b.read(0, len(b))
    assert [d.doc_id for d in docs_a] == [d.doc_id for d in docs_b]
    assert [d.tokens for d in docs_a] == [d.tokens for d in docs_b]

    # Reading in arbitrary slices is the same stream: a cursor is a
    # complete resume token.
    cursor, first = a.read(0, 100)
    _, rest = a.read(cursor, len(a))
    assert [d.doc_id for d in first + rest] == [d.doc_id for d in docs_a]

    # Scheduled duplicates repeat earlier content under fresh ids.
    dups = [d for d in docs_a if "duplicate_of" in d.metadata]
    assert dups, "duplicate_every=7 must schedule duplicates"
    by_id = {d.doc_id: d for d in docs_a}
    for dup in dups:
        original = by_id[dup.metadata["duplicate_of"]]
        assert dup.tokens == original.tokens
        assert dup.doc_id != original.doc_id

    # Post-drift docs pick up the novel lexicon; pre-drift never do.
    from repro.pipeline.source import NOVEL_LEXICON
    novel = set(NOVEL_LEXICON)
    pre = [d for d in docs_a if d.metadata["position"] < 120]
    post = [d for d in docs_a if d.metadata["position"] >= 120]
    assert not any(novel & set(d.tokens) for d in pre)
    assert any(novel & set(d.tokens) for d in post)


def test_stream_source_rejects_unknown_drift_label():
    with pytest.raises(PipelineError, match="drift label"):
        StreamSource(StreamConfig(profile="agnews", scale=0.3,
                                  drift_at=10, drift_labels=("no-such",)))


# ---------------------------------------------------------------------------
# Corpus store + checkpoints
# ---------------------------------------------------------------------------

def test_store_shards_truncates_and_roundtrips_checkpoints(tmp_path):
    source = StreamSource(StreamConfig(profile="agnews", seed=0, scale=0.3,
                                       n_docs=30))
    _, docs = source.read(0, 30)
    hashes = [content_hash(d.tokens) for d in docs]

    store = CorpusStore(tmp_path / "s", shard_docs=8)
    store.append(docs[:20], hashes[:20])
    assert store.docs == 20
    assert len(store.shard_files()) == 3  # 8 + 8 + 4
    state = store.state()
    store.write_checkpoint({"cursor": 20, "store": state})

    # Un-checkpointed tail: more docs + predictions.
    store.append(docs[20:], hashes[20:])
    store.append_predictions([{"doc_id": d.doc_id, "label": "x"}
                              for d in docs[20:]])
    assert store.docs == 30

    # A reopened store truncates back to exactly the checkpoint bytes.
    reopened = CorpusStore(tmp_path / "s", shard_docs=8)
    checkpoint = reopened.read_checkpoint()
    assert checkpoint["cursor"] == 20
    reopened.truncate_to(checkpoint["store"])
    assert reopened.docs == 20
    assert reopened.predictions == 0
    assert reopened.state() == state
    assert reopened.load_hashes() == set(hashes[:20])

    # Re-appending the same tail regenerates identical bytes.
    reopened.append(docs[20:], hashes[20:])
    assert {p.name: p.stat().st_size for p in reopened.shard_files()} == \
        {p.name: p.stat().st_size for p in store.shard_files()}


def test_checkpoint_corruption_and_schema_are_typed(tmp_path):
    store = CorpusStore(tmp_path / "s")
    assert store.read_checkpoint() is None
    (tmp_path / "s" / "checkpoint.json").write_text("{not json")
    with pytest.raises(CheckpointError, match="delete it"):
        store.read_checkpoint()
    (tmp_path / "s" / "checkpoint.json").write_text(
        json.dumps({"schema": 99, "cursor": 0}))
    with pytest.raises(CheckpointError, match="schema"):
        store.read_checkpoint()


def test_corpus_dir_env_knob(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path / "knob"))
    assert env.corpus_dir() == tmp_path / "knob"
    store = CorpusStore.for_stream("mystream")
    assert store.directory == tmp_path / "knob" / "mystream"
    monkeypatch.delenv("REPRO_CORPUS_DIR")
    assert env.corpus_dir().name == "corpus"


# ---------------------------------------------------------------------------
# Dedupe under concurrency
# ---------------------------------------------------------------------------

def test_dedupe_under_concurrency():
    # 8 feeders race overlapping batches at one shared dedupe frontier:
    # every distinct content must survive exactly once, across threads.
    source = StreamSource(StreamConfig(profile="agnews", seed=0, scale=0.6,
                                       n_docs=200, duplicate_every=2))
    _, docs = source.read(0, 200)
    stage = DedupeStage()
    kept, lock = [], threading.Lock()
    barrier = threading.Barrier(8)

    def feed(offset):
        barrier.wait()
        for start in range(offset * 25, (offset + 1) * 25, 5):
            result = stage.process(docs[start:start + 5])
            with lock:
                kept.extend(result.docs)

    threads = [threading.Thread(target=feed, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    unique_contents = {content_hash(d.tokens) for d in docs}
    kept_contents = [content_hash(d.tokens) for d in kept]
    assert len(kept_contents) == len(set(kept_contents)), \
        "a duplicate content survived the concurrent frontier twice"
    assert set(kept_contents) == unique_contents
    assert stage.seen == unique_contents


# ---------------------------------------------------------------------------
# Drift trigger semantics
# ---------------------------------------------------------------------------

def _observe_window(monitor, label, n, oov=False):
    from repro.core.types import Document
    tokens = ["neoterm0", "neoterm1"] if oov else ["known", "words"]
    docs = [Document(doc_id=f"d{i}", tokens=list(tokens)) for i in range(n)]
    monitor.observe(docs, [(label, 0.9)] * n)


def test_drift_trigger_fires_exactly_once():
    policy = DriftPolicy(window=10, hist_threshold=0.4, oov_threshold=None,
                         cooldown=30)
    monitor = DriftMonitor(policy, vocabulary=["known", "words"])
    _observe_window(monitor, "a", 10)  # reference: all 'a'
    assert not monitor.should_refit()

    _observe_window(monitor, "b", 10)  # shifted window: all 'b'
    assert monitor.should_refit()
    assert monitor.levels()["hist_distance"] == 1.0

    # The trigger is consumed once; cooldown holds even though the
    # shift persists across the following windows.
    monitor.mark_triggered()
    assert monitor.triggers == 1
    assert not monitor.should_refit()
    _observe_window(monitor, "b", 10)
    _observe_window(monitor, "b", 10)
    assert not monitor.should_refit()

    # Re-baselining on the post-refit model: the sustained shift is the
    # new normal and never re-fires; a *new* shift does.
    monitor.after_refit(vocabulary=["known", "words"])
    _observe_window(monitor, "b", 10)  # new reference
    _observe_window(monitor, "b", 10)
    assert not monitor.should_refit()
    _observe_window(monitor, "c", 10)
    assert monitor.should_refit()


def test_drift_state_roundtrips_through_checkpoint():
    policy = DriftPolicy(window=10, hist_threshold=0.4, cooldown=5)
    monitor = DriftMonitor(policy, vocabulary=["known", "words"])
    _observe_window(monitor, "a", 10)
    _observe_window(monitor, "b", 7)  # partial current window
    restored = DriftMonitor.from_state(
        json.loads(json.dumps(monitor.to_state())))
    _observe_window(monitor, "b", 3)
    _observe_window(restored, "b", 3)
    assert monitor.should_refit() == restored.should_refit() is True
    assert monitor.levels() == restored.levels()


def test_malformed_drift_state_is_typed():
    with pytest.raises(PipelineError, match="drift-monitor state"):
        DriftMonitor.from_state({"policy": {"window": 5}})


# ---------------------------------------------------------------------------
# End to end: engine serving, forced drift, re-fit, atomic republish
# ---------------------------------------------------------------------------

def test_end_to_end_with_drift_refit(tmp_path):
    from repro.serve.registry import ModelRegistry

    config = make_config(tmp_path)
    pipe = Pipeline(config)
    report = pipe.run()

    # Ingested, deduped, sharded.
    assert report.exhausted
    assert report.deduped > 0
    assert pipe.store.docs == report.ingested
    assert pipe.store.docs == pipe.store.predictions

    # Forced drift fired exactly one re-fit; the new version is
    # published and the `latest` alias picked it up atomically.
    assert report.fits == 2
    assert report.refits == 1
    registry = ModelRegistry(tmp_path / "models")
    assert registry.versions("s-westclass") == [1, 2]
    assert registry.resolve("s-westclass") == 2
    assert report.model_version == 2

    # The post-refit generation actually served traffic.
    generations = {r["model_gen"] for r in pipe.store.iter_predictions()}
    assert generations == {0, 1}
    labels = {r["label"] for r in pipe.store.iter_predictions()}
    assert labels <= set(pipe.source.label_set.labels)

    status = pipe.status()
    assert status["checkpoint"]["model_version"] == 2
    assert status["checkpoint"]["drift_triggers"] == 1
    assert status["checkpoint"]["classified"] == report.ingested


def test_engine_backend_reports_confidences(tmp_path):
    config = make_config(
        tmp_path,
        stream=StreamConfig(profile="agnews", seed=0, scale=0.4, n_docs=100),
        drift=DriftPolicy(window=30, hist_threshold=None),
        bootstrap_docs=48)
    pipe = Pipeline(config)
    report = pipe.run()
    assert report.fits == 1
    records = list(pipe.store.iter_predictions())
    assert records and all(
        r["confidence"] is not None and 0.0 <= r["confidence"] <= 1.0
        for r in records)
    # The predictions log also carries the top-k label scores, best
    # first, with the winner's score equal to the logged confidence.
    for r in records:
        topk = r["topk"]
        assert 1 <= len(topk) <= 3
        scores = [score for _, score in topk]
        assert scores == sorted(scores, reverse=True)
        assert scores[0] == pytest.approx(r["confidence"], abs=1e-6)
        assert all(isinstance(label, str) for label, _ in topk)


def test_scored_servable_topk_contract():
    from repro.pipeline.clients import ScoredServable

    class FakeServable:
        labels = ["a", "b", "c", "d"]

        def predict_scored(self, docs):
            # Tied scores: top-k order must fall back to class order.
            return ["b"] * len(docs), [[0.1, 0.7, 0.7, 0.2]] * len(docs)

    preds = ScoredServable(FakeServable()).predict([["t"], ["t"]])
    assert len(preds) == 2
    label, confidence, topk = preds[0]
    assert label == "b" and confidence == pytest.approx(0.7)
    assert topk == [["b", 0.7], ["c", 0.7], ["d", 0.2]]


def test_engine_client_runs_one_forward_per_chunk(agnews_small, tmp_path,
                                                  monkeypatch):
    from repro.methods import WeSTClass
    from repro.pipeline.clients import EngineClient
    from repro.serve.registry import ModelRegistry

    model = WeSTClass(seed=0, **SMALL_KWARGS)
    model.fit(agnews_small.train_corpus, agnews_small.keywords())
    registry = ModelRegistry(tmp_path / "models")
    version = registry.publish("counted", model)

    calls = []
    predict_proba = WeSTClass.predict_proba

    def counted(self, corpus):
        calls.append(len(corpus))
        return predict_proba(self, corpus)

    monkeypatch.setattr(WeSTClass, "predict_proba", counted)
    client = EngineClient(registry, "counted", version, warmup=False)
    docs = list(agnews_small.test_corpus[:20])
    for chunk in (docs[:8], docs[8:16], docs[16:]):
        assert len(client.classify(chunk)) == len(chunk)
    # Labels, confidences and top-k all come from one forward per chunk.
    assert calls == [8, 8, 4]


def test_failing_forward_fails_the_run_typed_and_logs_nothing(tmp_path,
                                                              monkeypatch):
    from repro.methods import WeSTClass

    def broken(self, corpus):
        raise RuntimeError("forward exploded")

    monkeypatch.setattr(WeSTClass, "_predict_proba", broken)
    pipe = Pipeline(make_config(tmp_path))
    with pytest.raises(PipelineError,
                       match=r"s-westclass@v0001 failed: forward exploded"):
        pipe.run()
    assert pipe.model_version == 1
    assert list(pipe.store.iter_predictions()) == []


def test_drift_monitor_accepts_pairs_and_triples():
    # Scoreless models predict (label, None, None) triples; older
    # callers and tests pass bare pairs. Both must fold in.
    from repro.core.types import Document

    monitor = DriftMonitor(DriftPolicy(window=4), vocabulary=["known"])
    docs = [Document(doc_id=f"d{i}", tokens=["known"]) for i in range(4)]
    monitor.observe(docs[:2], [("a", 0.9), ("b", 0.8)])
    monitor.observe(docs[2:], [("a", 0.9, [["a", 0.9]]), ("b", None, None)])
    assert monitor.reference_docs == 4


# ---------------------------------------------------------------------------
# Crash-resume determinism
# ---------------------------------------------------------------------------

def test_crash_resume_is_byte_identical(tmp_path):
    # Uninterrupted run.
    clean = Pipeline(make_config(tmp_path / "clean"))
    clean_report = clean.run()
    assert clean_report.refits == 1

    # Crashed run: die after 7 batches with checkpoint_every=2 — the
    # 7th batch (and its classifications) are un-checkpointed work.
    crashed_dir = tmp_path / "crashed"
    crashed = Pipeline(make_config(crashed_dir))
    partial = crashed.run(max_batches=7, checkpoint_on_exit=False)
    assert not partial.exhausted
    checkpoint = crashed.store.read_checkpoint()
    checkpointed = sum(s["docs"]
                       for s in checkpoint["store"]["shards"].values())
    assert crashed.store.docs > checkpointed, \
        "the crash point must leave un-checkpointed work to replay"

    # Resume from the checkpoint and run to exhaustion.
    resumed = Pipeline.resume("s", crashed_dir / "corpus")
    resumed_report = resumed.run()
    assert resumed_report.exhausted
    assert resumed.fits == clean.fits == 2

    assert store_digest(tmp_path / "clean" / "corpus" / "s") == \
        store_digest(crashed_dir / "corpus" / "s")


def test_crash_before_bootstrap_resumes_identically(tmp_path):
    # Crash while no model exists yet (2 batches < bootstrap_docs):
    # resume must replay ingestion AND still bootstrap at the same doc.
    clean = Pipeline(make_config(tmp_path / "clean"))
    clean.run()

    crashed_dir = tmp_path / "crashed"
    crashed = Pipeline(make_config(crashed_dir))
    partial = crashed.run(max_batches=2, checkpoint_on_exit=False)
    assert partial.fits == 0

    resumed = Pipeline.resume("s", crashed_dir / "corpus")
    resumed.run()
    assert store_digest(tmp_path / "clean" / "corpus" / "s") == \
        store_digest(crashed_dir / "corpus" / "s")


def test_resume_of_streams_recorded_with_a_backend(tmp_path):
    # Older streams record "backend"/"replicas" in meta.json.
    clean = Pipeline(make_config(tmp_path / "clean"))
    clean.run()

    crashed_dir = tmp_path / "crashed"
    crashed = Pipeline(make_config(crashed_dir))
    crashed.run(max_batches=7, checkpoint_on_exit=False)
    meta_path = crashed.store.directory / "meta.json"
    meta = json.loads(meta_path.read_text())

    # A pool-served stream logged no confidences, so replaying it on the
    # engine would not be byte-identical: refuse, typed.
    meta_path.write_text(json.dumps({**meta, "backend": "pool",
                                     "replicas": 2}))
    with pytest.raises(PipelineError, match="'pool' backend"):
        Pipeline.resume("s", crashed_dir / "corpus")

    # An engine-served stream resumes byte-identically.
    meta_path.write_text(json.dumps({**meta, "backend": "engine",
                                     "replicas": 2}))
    Pipeline.resume("s", crashed_dir / "corpus").run()
    assert store_digest(tmp_path / "clean" / "corpus" / "s") == \
        store_digest(crashed_dir / "corpus" / "s")


def test_resume_guards(tmp_path):
    config = make_config(tmp_path)
    with pytest.raises(CheckpointError, match="nothing to resume"):
        Pipeline(config, resume=True)
    pipe = Pipeline(config)
    pipe.run(max_batches=2)
    with pytest.raises(PipelineError, match="already has a checkpoint"):
        Pipeline(make_config(tmp_path))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_status_resume(tmp_path, capsys):
    store_root = str(tmp_path / "corpus")
    rc = pipeline_cli([
        "run", "--name", "demo", "--store-root", store_root,
        "--registry-root", str(tmp_path / "models"),
        "--profile", "agnews", "--scale", "0.4", "--n-docs", "100",
        "--duplicate-every", "6", "--bootstrap-docs", "48",
        "--batch-size", "24", "--max-batches", "3",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[pipeline] stages:" in out
    assert "dedupe" in out and "classify" in out and "drift" in out

    rc = pipeline_cli(["status", "--name", "demo",
                       "--store-root", store_root])
    out = capsys.readouterr().out
    assert rc == 0
    assert "checkpoint cursor=" in out

    rc = pipeline_cli(["resume", "--name", "demo",
                       "--store-root", store_root])
    out = capsys.readouterr().out
    assert rc == 0
    assert "exhausted=yes" in out

    # Typed errors surface as exit code 1, not tracebacks.
    rc = pipeline_cli(["status", "--name", "nope",
                       "--store-root", store_root])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
