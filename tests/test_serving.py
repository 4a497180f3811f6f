"""Serving-layer tests: artifact store, versioned registry, micro-batcher.

The end-to-end contract: a method trained in this process, exported,
and reloaded — in-process or from a fresh interpreter — produces
bit-identical predictions; the serving engine coalesces concurrent
requests into fewer model/PLM batches; and a full queue sheds load with
a typed ``Overloaded`` instead of deadlocking.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.exceptions import (
    ArtifactError,
    DanglingReference,
    DeadlineExceeded,
    Overloaded,
    ServingError,
)
from repro.datasets import load_profile
from repro.methods import WeSTClass, XClass
from repro.plm.model import PretrainedLM
from repro.serve import (
    ModelRegistry,
    ServeConfig,
    ServingEngine,
    as_corpus,
    export_artifact,
    load_artifact,
)
from repro.serve.registry import parse_ref

pytestmark = pytest.mark.serving

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def serve_bundle():
    return load_profile("agnews", seed=0, scale=0.3)


@pytest.fixture(scope="module")
def fitted_westclass(serve_bundle):
    model = WeSTClass(seed=0, pretrain_epochs=3, self_train_iterations=1)
    model.fit(serve_bundle.train_corpus, serve_bundle.keywords())
    return model


@pytest.fixture(scope="module")
def fitted_xclass(serve_bundle, tiny_plm):
    model = XClass(plm=tiny_plm, seed=0)
    model.fit(serve_bundle.train_corpus, serve_bundle.label_names())
    return model


# ---------------------------------------------------------------------------
# Artifact store
# ---------------------------------------------------------------------------

def test_as_corpus_accepts_strings_tokens_and_corpora(serve_bundle):
    corpus = as_corpus(["the team won", ["market", "profit"]])
    assert corpus[0].tokens == ["the", "team", "won"]
    assert corpus[1].tokens == ["market", "profit"]
    assert as_corpus(serve_bundle.test_corpus) is serve_bundle.test_corpus


def test_artifact_roundtrip_bit_identical(fitted_westclass, serve_bundle,
                                          tmp_path):
    docs = serve_bundle.test_corpus.token_lists()[:20]
    reference = fitted_westclass.predict(serve_bundle.test_corpus[:20])
    reference_proba = fitted_westclass.predict_proba(serve_bundle.test_corpus[:20])

    path = export_artifact(fitted_westclass, tmp_path / "artifact",
                           provenance={"profile": "agnews", "seed": 0})
    loaded = load_artifact(path)
    assert loaded.predict(docs) == reference
    np.testing.assert_array_equal(loaded.scores(docs), reference_proba)
    assert loaded.labels == list(serve_bundle.label_set.labels)
    assert loaded.manifest["provenance"]["profile"] == "agnews"


def test_artifact_externalizes_plm_weights(fitted_xclass, serve_bundle,
                                           tmp_path):
    docs = serve_bundle.test_corpus.token_lists()[:10]
    reference = fitted_xclass.predict_proba(serve_bundle.test_corpus[:10])

    path = export_artifact(fitted_xclass, tmp_path / "xclass")
    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["plms"] == ["plm_0.npz"]
    assert (path / "plm_0.npz").exists()

    loaded = load_artifact(path)
    np.testing.assert_array_equal(loaded.scores(docs), reference)
    # The restored PLM is a fresh object with bit-identical weights.
    assert isinstance(loaded.model.plm, PretrainedLM)
    assert loaded.model.plm is not fitted_xclass.plm
    for ours, theirs in zip(fitted_xclass.plm.encoder.state_dict(),
                            loaded.model.plm.encoder.state_dict()):
        assert ours.dtype == theirs.dtype
        np.testing.assert_array_equal(ours, theirs)


def test_served_model_carries_no_encode_cache(fitted_xclass, serve_bundle,
                                             tmp_path, monkeypatch):
    # Served documents are unique, so a loaded artifact encodes every
    # request and stores none of it; only the provider wires the cache.
    from repro.core.enc_cache import EncodeCache
    from repro.plm import provider

    cache = EncodeCache()
    monkeypatch.setattr(provider, "_ENC_CACHE", [cache])
    loaded = load_artifact(export_artifact(fitted_xclass, tmp_path / "x"))
    assert loaded.model.plm.enc_cache is None

    docs = list(dict.fromkeys(
        map(tuple, serve_bundle.test_corpus.token_lists()
            + serve_bundle.train_corpus.token_lists())))[:200]
    assert len(docs) == 200
    loaded.predict([list(doc) for doc in docs])
    assert cache.stats()["bytes"] == 0 and len(cache) == 0


def test_predict_scored_labels_equal_predict(fitted_westclass, serve_bundle,
                                             tiny_plm, agnews_small,
                                             tmp_path):
    from repro.methods import MICoL

    micol = MICoL(plm=tiny_plm, encoder="bi", seed=0)
    micol.fit(agnews_small.train_corpus, agnews_small.label_names())
    docs = serve_bundle.test_corpus.token_lists()[:20]
    for name, model in (("flat", fitted_westclass), ("multi", micol)):
        loaded = load_artifact(export_artifact(model, tmp_path / name))
        assert loaded.multi_label == (name == "multi")
        labels, scores = loaded.predict_scored(docs)
        assert labels == loaded.predict(docs)
        np.testing.assert_array_equal(scores, loaded.scores(docs))


def test_no_registered_method_forks_the_label_rule():
    # predict_scored derives labels with the base class's labels_from;
    # a method overriding predict would fork that rule.
    from repro.core.base import (
        MultiLabelTextClassifier,
        WeaklySupervisedTextClassifier,
    )
    from repro.core.registry import method_registry

    bases = (WeaklySupervisedTextClassifier, MultiLabelTextClassifier)
    for name, info in method_registry().items():
        base = next((b for b in bases if issubclass(info.cls, b)), None)
        assert base is not None, name
        mro = info.cls.__mro__
        below = mro[:mro.index(base)]
        assert not [k for k in below if "predict" in vars(k)], name


def test_export_refuses_unfitted_model(tmp_path):
    with pytest.raises(ArtifactError, match="unfitted"):
        export_artifact(WeSTClass(seed=0), tmp_path / "nope")


def test_export_refuses_silent_overwrite(fitted_westclass, tmp_path):
    export_artifact(fitted_westclass, tmp_path / "artifact")
    with pytest.raises(ArtifactError, match="already exists"):
        export_artifact(fitted_westclass, tmp_path / "artifact")
    export_artifact(fitted_westclass, tmp_path / "artifact", overwrite=True)


# ---------------------------------------------------------------------------
# Artifact integrity (typed errors, never bare numpy/pickle)
# ---------------------------------------------------------------------------

def test_digest_mismatch_names_file(fitted_westclass, tmp_path):
    path = export_artifact(fitted_westclass, tmp_path / "artifact")
    state = path / "state.pkl"
    raw = bytearray(state.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    state.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="digest mismatch.*state.pkl"):
        load_artifact(path)


def test_truncated_state_is_typed_error(fitted_westclass, tmp_path):
    path = export_artifact(fitted_westclass, tmp_path / "artifact")
    state = path / "state.pkl"
    state.write_bytes(state.read_bytes()[:64])
    # Digest check catches it first; with verification off the unpickle
    # failure itself must still surface as ArtifactError naming the file.
    with pytest.raises(ArtifactError, match="state.pkl"):
        load_artifact(path)
    with pytest.raises(ArtifactError, match="state.pkl"):
        load_artifact(path, verify=False)


def test_corrupt_plm_archive_is_typed_error(fitted_xclass, tmp_path):
    path = export_artifact(fitted_xclass, tmp_path / "xclass")
    plm_file = path / "plm_0.npz"
    plm_file.write_bytes(plm_file.read_bytes()[:128])
    with pytest.raises(ArtifactError, match="plm_0.npz"):
        load_artifact(path)
    with pytest.raises(ArtifactError, match="plm_0.npz"):
        load_artifact(path, verify=False)


def test_missing_and_malformed_manifest(fitted_westclass, tmp_path):
    with pytest.raises(ArtifactError, match="manifest.json"):
        load_artifact(tmp_path / "not-there")
    path = export_artifact(fitted_westclass, tmp_path / "artifact")
    (path / "manifest.json").write_text("{not json")
    with pytest.raises(ArtifactError, match="manifest.json"):
        load_artifact(path)


def test_future_schema_is_rejected(fitted_westclass, tmp_path):
    path = export_artifact(fitted_westclass, tmp_path / "artifact")
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["schema"] = 99
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="schema"):
        load_artifact(path)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_versions_and_latest(fitted_westclass, serve_bundle,
                                      tmp_path):
    registry = ModelRegistry(tmp_path)
    assert registry.publish("agnews-west", fitted_westclass) == 1
    assert registry.publish("agnews-west", fitted_westclass) == 2
    assert registry.versions("agnews-west") == [1, 2]
    assert registry.resolve("agnews-west") == 2
    assert registry.resolve("agnews-west", "v0001") == 1
    assert registry.resolve("agnews-west", "1") == 1

    docs = serve_bundle.test_corpus.token_lists()[:5]
    reference = fitted_westclass.predict(serve_bundle.test_corpus[:5])
    assert registry.load("agnews-west").predict(docs) == reference
    assert registry.load("agnews-west", 1).predict(docs) == reference

    info = registry.inspect("agnews-west")
    assert info["version"] == 2 and info["method"] == "WeSTClass"
    rows = registry.describe()
    assert rows[0]["name"] == "agnews-west" and rows[0]["versions"] == 2

    assert registry.evict("agnews-west", 1) == [1]
    assert registry.versions("agnews-west") == [2]
    assert registry.evict("agnews-west") == [2]
    assert registry.models() == []


def test_registry_rejects_bad_names_and_versions(fitted_westclass, tmp_path):
    registry = ModelRegistry(tmp_path)
    with pytest.raises(ArtifactError, match="invalid model name"):
        registry.publish("Bad Name!", fitted_westclass)
    with pytest.raises(ArtifactError, match="no published versions"):
        registry.load("ghost")
    registry.publish("ok", fitted_westclass)
    with pytest.raises(ArtifactError, match="no version 7"):
        registry.load("ok", 7)
    with pytest.raises(ArtifactError, match="bad version"):
        registry.resolve("ok", "seven")


def test_registry_root_defaults_to_env_knob(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MODEL_DIR", str(tmp_path / "models"))
    assert ModelRegistry().root == tmp_path / "models"


def test_parse_ref():
    assert parse_ref("m") == ("m", "latest")
    assert parse_ref("m@3") == ("m", "3")
    with pytest.raises(ArtifactError):
        parse_ref("NOPE@1")


def test_fresh_process_predictions_bit_identical(fitted_westclass,
                                                 serve_bundle, tmp_path):
    """The acceptance e2e: export, reload in a new interpreter, compare."""
    registry = ModelRegistry(tmp_path / "models")
    registry.publish("e2e", fitted_westclass,
                     provenance={"profile": "agnews", "seed": 0})
    docs = serve_bundle.test_corpus.token_lists()[:16]
    reference = fitted_westclass.predict_proba(serve_bundle.test_corpus[:16])
    (tmp_path / "docs.json").write_text(json.dumps(docs))

    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.serve import ModelRegistry\n"
        "root, docs_path, out_path = sys.argv[1:4]\n"
        "docs = json.loads(open(docs_path).read())\n"
        "loaded = ModelRegistry(root).load('e2e')\n"
        "np.save(out_path, loaded.scores(docs))\n"
        "print('labels:', loaded.predict(docs))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "models"),
         str(tmp_path / "docs.json"), str(tmp_path / "out.npy")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ,
             "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert result.returncode == 0, result.stderr
    fresh = np.load(tmp_path / "out.npy")
    np.testing.assert_array_equal(fresh, reference)


# ---------------------------------------------------------------------------
# Serving engine
# ---------------------------------------------------------------------------

class CountingModel:
    """Deterministic fake: one call per batch, label = token count."""

    def __init__(self):
        self.calls = 0

    def predict(self, docs):
        self.calls += 1
        return [f"label-{len(doc)}" for doc in docs]


class BlockingModel:
    """Holds the batcher inside predict until released (for queue tests)."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def predict(self, docs):
        self.entered.set()
        assert self.release.wait(30), "test forgot to release the model"
        return ["x"] * len(docs)


def test_engine_coalesces_concurrent_requests():
    model = CountingModel()
    engine = ServingEngine(model, ServeConfig(batch_window_s=0.1,
                                              warmup=False))
    try:
        n = 8
        results: list = [None] * n
        barrier = threading.Barrier(n)

        def client(i):
            barrier.wait()
            results[i] = engine.classify([["tok"] * (i + 1)], timeout=30)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [[f"label-{i + 1}"] for i in range(n)]
        stats = engine.stats()
        assert stats["requests"] == n and stats["served"] == n
        # Coalescing: n concurrent requests answered from fewer batches.
        assert stats["batches"] < n
        assert model.calls == stats["batches"]
    finally:
        engine.close()


def test_engine_answers_from_fewer_plm_batches(tiny_plm):
    """N concurrent single-doc requests -> fewer than N encoder batches."""

    class EmbeddingModel:
        def __init__(self, plm):
            # Private cache-less facade so every request really encodes.
            self.plm = PretrainedLM(plm.encoder, enc_cache=None)

        def predict(self, docs):
            emb = self.plm.doc_embeddings([list(d) for d in docs])
            return [int(np.argmax(row)) for row in emb]

    obs.enable("serving-coalesce-test")
    try:
        engine = ServingEngine(EmbeddingModel(tiny_plm),
                               ServeConfig(batch_window_s=0.1, warmup=False))
        try:
            n = 6
            barrier = threading.Barrier(n)
            docs = [[f"tok{i}", "team", "game"] for i in range(n)]

            def client(i):
                barrier.wait()
                engine.classify([docs[i]], timeout=60)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert engine.stats()["served"] == n
            plm_batches = obs.counter("plm.batches")
            assert 0 < plm_batches < n, plm_batches
        finally:
            engine.close()
    finally:
        obs.disable()


def test_engine_overload_sheds_instead_of_stalling():
    model = BlockingModel()
    engine = ServingEngine(model, ServeConfig(max_queue=2, warmup=False,
                                              batch_window_s=0.0))
    try:
        first = engine.submit([["a"]])
        assert model.entered.wait(10)  # batcher is now stuck in predict
        queued = [engine.submit([["b"]]), engine.submit([["c"]])]
        with pytest.raises(Overloaded, match="queue full"):
            engine.submit([["d"]])
        assert engine.stats()["shed"] == 1
        model.release.set()
        assert first.wait(10) == ["x"]
        for request in queued:
            assert request.wait(10) == ["x"]
    finally:
        model.release.set()
        engine.close()


def test_engine_deadline_miss_is_typed():
    model = BlockingModel()
    engine = ServingEngine(model, ServeConfig(warmup=False,
                                              batch_window_s=0.0))
    try:
        engine.submit([["a"]])
        assert model.entered.wait(10)
        late = engine.submit([["b"]], deadline_s=0.01)
        time.sleep(0.05)
        model.release.set()
        with pytest.raises(DeadlineExceeded):
            late.wait(10)
        assert engine.stats()["deadline_miss"] == 1
    finally:
        model.release.set()
        engine.close()


def test_engine_drains_on_close_and_rejects_after():
    model = CountingModel()
    engine = ServingEngine(model, ServeConfig(warmup=False,
                                              batch_window_s=0.0))
    requests = [engine.submit([["tok"] * 2]) for _ in range(5)]
    engine.close(drain=True)
    for request in requests:
        assert request.wait(1) == ["label-2"]
    with pytest.raises(ServingError, match="closed"):
        engine.submit([["late"]])


def test_engine_propagates_model_errors_and_survives():
    class FlakyModel:
        def __init__(self):
            self.calls = 0

        def predict(self, docs):
            self.calls += 1
            if self.calls == 1:
                raise ValueError("boom")
            return ["ok"] * len(docs)

    engine = ServingEngine(FlakyModel(), ServeConfig(warmup=False,
                                                     batch_window_s=0.0))
    try:
        with pytest.raises(ValueError, match="boom"):
            engine.classify([["a"]], timeout=10)
        assert engine.classify([["b"]], timeout=10) == ["ok"]
        assert engine.stats()["errors"] == 1
    finally:
        engine.close()


def test_engine_warmup_runs_before_traffic(fitted_westclass, tmp_path):
    loaded = load_artifact(export_artifact(fitted_westclass,
                                           tmp_path / "artifact"))
    calls = []
    original = loaded.model.predict
    loaded.model.predict = lambda corpus: calls.append(len(corpus)) or original(corpus)
    engine = ServingEngine(loaded, ServeConfig(warmup=True))
    try:
        assert calls and calls[0] == 1  # the warm-up predict
    finally:
        engine.close()


def test_oversized_request_is_still_served():
    model = CountingModel()
    engine = ServingEngine(model, ServeConfig(max_batch_docs=4, warmup=False,
                                              batch_window_s=0.0))
    try:
        assert engine.classify([["t"]] * 10, timeout=10) == ["label-1"] * 10
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_serve_cli_export_list_predict_evict(tmp_path, capsys):
    from repro import __main__ as entry

    root = str(tmp_path / "registry")
    rc = entry.main(["serve", "--root", root, "export", "--method",
                     "westclass", "--profile", "agnews", "--scale", "0.2",
                     "--supervision", "keywords", "--name", "cli-demo"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "published cli-demo@v0001" in out

    assert entry.main(["serve", "--root", root, "list"]) == 0
    assert "cli-demo" in capsys.readouterr().out

    assert entry.main(["serve", "--root", root, "inspect", "cli-demo"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["method"] == "WeSTClass" and manifest["version"] == 1

    assert entry.main(["serve", "--root", root, "predict", "cli-demo",
                       "--text", "the team won the game"]) == 0
    predicted = capsys.readouterr().out.strip()
    assert "\tthe team won the game" in predicted

    # Evict requires an explicit version (or --all).
    assert entry.main(["serve", "--root", root, "evict", "cli-demo"]) == 2
    assert entry.main(["serve", "--root", root, "evict", "cli-demo",
                       "--all"]) == 0
    assert entry.main(["serve", "--root", root, "list"]) == 0
    assert "no models published" in capsys.readouterr().out


def test_serve_cli_unknown_method_and_missing_model(tmp_path, capsys):
    from repro.serve.cli import main

    root = str(tmp_path)
    assert main(["--root", root, "export", "--method", "nope"]) == 2
    assert "unknown method" in capsys.readouterr().err
    assert main(["--root", root, "inspect", "ghost"]) == 1
    assert "no published versions" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Registry latest alias
# ---------------------------------------------------------------------------

def test_publish_writes_latest_alias_file(fitted_westclass, tmp_path):
    registry = ModelRegistry(tmp_path)
    registry.publish("aliased", fitted_westclass)
    registry.publish("aliased", fitted_westclass)
    alias = registry.model_dir("aliased") / "latest"
    assert alias.read_text() == "v0002\n"
    assert registry.resolve("aliased") == 2


def test_evict_of_latest_repoints_alias(fitted_westclass, tmp_path):
    registry = ModelRegistry(tmp_path)
    for _ in range(3):
        registry.publish("aliased", fitted_westclass)

    # Evicting what latest points at repoints it to the newest survivor.
    assert registry.evict("aliased", 3) == [3]
    alias = registry.model_dir("aliased") / "latest"
    assert alias.read_text() == "v0002\n"
    assert registry.resolve("aliased") == 2

    # Evicting a non-latest version leaves the alias alone.
    assert registry.evict("aliased", 1) == [1]
    assert registry.resolve("aliased") == 2

    # Evicting the last version removes the model, alias included.
    assert registry.evict("aliased", 2) == [2]
    assert registry.models() == []
    assert not registry.model_dir("aliased").exists()


def test_hand_dangled_alias_is_typed_error(fitted_westclass, tmp_path):
    registry = ModelRegistry(tmp_path)
    registry.publish("dangle", fitted_westclass)
    registry.publish("dangle", fitted_westclass)
    # Delete the aliased version behind the registry's back.
    shutil.rmtree(registry.version_dir("dangle", 2))

    with pytest.raises(DanglingReference, match="v0002"):
        registry.resolve("dangle")
    with pytest.raises(ArtifactError):  # DanglingReference IS-A ArtifactError
        registry.load("dangle")
    # Explicit versions keep working while latest is broken.
    assert registry.resolve("dangle", 1) == 1
    # Deleting the alias file repairs via the highest-version fallback.
    (registry.model_dir("dangle") / "latest").unlink()
    assert registry.resolve("dangle") == 1


def test_pre_alias_registry_falls_back_to_highest(fitted_westclass, tmp_path):
    registry = ModelRegistry(tmp_path)
    registry.publish("old-layout", fitted_westclass)
    registry.publish("old-layout", fitted_westclass)
    # A registry written before the alias existed has no latest file.
    (registry.model_dir("old-layout") / "latest").unlink()
    assert registry.resolve("old-layout") == 2
    info = registry.inspect("old-layout")
    assert info["version"] == 2


def test_corrupt_alias_is_typed_error(fitted_westclass, tmp_path):
    registry = ModelRegistry(tmp_path)
    registry.publish("mangled", fitted_westclass)
    (registry.model_dir("mangled") / "latest").write_text("not-a-version\n")
    with pytest.raises(ArtifactError, match="corrupt"):
        registry.resolve("mangled")


# ---------------------------------------------------------------------------
# Engine lifecycle races
# ---------------------------------------------------------------------------

def test_submit_after_close_raises_typed_error_immediately():
    engine = ServingEngine(CountingModel(), ServeConfig(warmup=False))
    engine.close()
    start = time.monotonic()
    with pytest.raises(ServingError, match="closed"):
        engine.submit([["tok"]])
    assert time.monotonic() - start < 1.0  # raises, never hangs


def test_close_drain_resolves_every_accepted_request_exactly_once(monkeypatch):
    """Concurrent submitters racing close(drain=True).

    Every request the engine *accepted* must settle exactly once (no
    lost futures, no double resolution), and every submit that loses the
    race must raise the typed closed error rather than hang.
    """
    from repro.serve import engine as engine_mod

    settlements = []  # every Request.resolve/fail call lands here

    class AuditedRequest(engine_mod.Request):
        def resolve(self, result):
            settlements.append(self)
            super().resolve(result)

        def fail(self, error):
            settlements.append(self)
            super().fail(error)

    monkeypatch.setattr(engine_mod, "Request", AuditedRequest)
    engine = ServingEngine(CountingModel(),
                           ServeConfig(warmup=False, max_queue=100_000,
                                       batch_window_s=0.001))
    n_submitters = 4
    accepted: list = []
    closed_errors: list = []
    barrier = threading.Barrier(n_submitters + 1)

    def submitter():
        barrier.wait()
        while True:
            try:
                accepted.append(engine.submit([["tok"] * 3]))
            except Overloaded:
                continue
            except ServingError as exc:
                closed_errors.append(exc)
                return

    threads = [threading.Thread(target=submitter)
               for _ in range(n_submitters)]
    for t in threads:
        t.start()
    barrier.wait()
    time.sleep(0.05)  # let the race build a backlog
    engine.close(drain=True)
    for t in threads:
        t.join(30)
        assert not t.is_alive(), "submitter hung instead of erroring"

    assert len(closed_errors) == n_submitters
    assert all("closed" in str(exc) for exc in closed_errors)
    assert accepted, "race produced no accepted requests"
    # Exactly-once settlement, and drain means resolution, not failure.
    assert len(settlements) == len(accepted)
    assert len({id(r) for r in settlements}) == len(settlements)
    for request in accepted:
        assert request.done()
        assert request.wait(5) == ["label-3"]
