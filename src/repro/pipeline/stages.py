"""Typed processing stages for the streaming pipeline.

Each stage is a small object with a ``name`` and a ``process(docs) ->
StageResult`` method. Stages hold only the state they own (the dedupe
stage its seen-hash set, the store stage its corpus store); the
orchestrator (:mod:`repro.pipeline.orchestrator`) wires them into the
fixed order **tokenize → dedupe → store → classify** and owns
checkpointing, so stages never touch the checkpoint file themselves.

Error contract: any exception escaping a stage's work is wrapped into a
:class:`~repro.core.exceptions.StageFailure` naming the stage — typed
errors only, enforced by the AST lint in ``tests/test_error_lint.py``.
A :class:`~repro.core.exceptions.PipelineError` raised inside the work
(already typed, already specific) passes through unwrapped.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro import obs
from repro.core.exceptions import PipelineError, StageFailure
from repro.pipeline.store import content_hash


@dataclass
class StageResult:
    """What a stage hands to the next one.

    ``docs`` is the surviving batch (in input order); ``dropped`` counts
    documents the stage consumed (today only dedupe drops); ``extra``
    carries stage-specific side outputs (content hashes, predictions).
    """

    docs: list
    dropped: int = 0
    extra: dict = field(default_factory=dict)


def _guard(stage_name: str, work, *args):
    """Run ``work`` and re-raise anything untyped as a StageFailure."""
    try:
        return work(*args)
    except PipelineError:
        raise
    except Exception as exc:
        raise StageFailure(
            f"stage {stage_name!r} failed on its batch: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


class TokenizeStage:
    """Normalize arriving documents to token form.

    :class:`~repro.core.types.Document` tokenizes lazily from text; this
    stage forces the token materialization up front (so downstream
    hashing/storage never re-tokenizes) and rejects empty documents.
    """

    name = "tokenize"

    def process(self, docs: list) -> StageResult:
        def work():
            total = 0
            for doc in docs:
                if not doc.tokens:
                    raise StageFailure(
                        f"stage 'tokenize' got empty document {doc.doc_id!r}")
                total += len(doc.tokens)
            obs.count("pipeline.tokens", total)
            return StageResult(docs=list(docs))
        return _guard(self.name, work)


class DedupeStage:
    """Drop content-duplicate documents by token-stream hash.

    The seen-set is guarded by a lock so concurrent feeders share one
    dedupe frontier: for any set of racing batches, exactly one carrier
    of each distinct content survives. Resume seeds the set from the
    store (:meth:`~repro.pipeline.store.CorpusStore.load_hashes`).
    """

    name = "dedupe"

    def __init__(self, seen: "set | None" = None):
        self.seen = set(seen) if seen else set()
        self._lock = threading.Lock()

    def process(self, docs: list) -> StageResult:
        def work():
            unique, hashes = [], []
            dropped = 0
            for doc in docs:
                digest = content_hash(doc.tokens)
                with self._lock:
                    fresh = digest not in self.seen
                    if fresh:
                        self.seen.add(digest)
                if fresh:
                    unique.append(doc)
                    hashes.append(digest)
                else:
                    dropped += 1
            if dropped:
                obs.count("pipeline.docs_deduped", dropped)
            return StageResult(docs=unique, dropped=dropped,
                               extra={"hashes": hashes})
        return _guard(self.name, work)


class StoreStage:
    """Append the surviving batch to the corpus store."""

    name = "store"

    def __init__(self, store):
        self.store = store

    def process(self, result: StageResult) -> StageResult:
        def work():
            hashes = result.extra.get("hashes")
            if hashes is None or len(hashes) != len(result.docs):
                raise StageFailure(
                    "stage 'store' needs one content hash per document "
                    "(run the dedupe stage first)"
                )
            self.store.append(result.docs, hashes)
            obs.count("pipeline.docs_ingested", len(result.docs))
            return result
        return _guard(self.name, work)


class ClassifyStage:
    """Classify the batch through a serving client.

    ``client`` is an :class:`~repro.pipeline.clients.EngineClient`; its
    ``classify`` returns one ``(label, confidence, topk)`` triple per
    document, all three from one score matrix.
    """

    name = "classify"

    def __init__(self, client):
        self.client = client

    def process(self, docs: list) -> StageResult:
        def work():
            scored = self.client.classify(docs)
            if len(scored) != len(docs):
                raise StageFailure(
                    f"stage 'classify' got {len(scored)} results for "
                    f"{len(docs)} documents"
                )
            obs.count("pipeline.docs_classified", len(docs))
            return StageResult(docs=list(docs),
                               extra={"predictions": scored})
        return _guard(self.name, work)
