"""Serving-side client for the online-classification stage.

:class:`EngineClient` runs an in-process
:class:`~repro.serve.engine.ServingEngine` over a registry artifact,
wrapped in :class:`ScoredServable` so every prediction comes back as a
``(label, confidence, topk)`` triple. The confidence feeds the drift
monitor's decay signal.

The client **pins an explicit registry version** — it never resolves
``latest`` itself. The orchestrator records the pinned version in
every checkpoint, so a resumed run re-attaches to exactly the model the
crashed run was serving (a later orphaned publish cannot change resumed
predictions), and ``reload(version)`` is the one atomic switch point
after a re-fit publishes. Other consumers of the registry still pick up
``latest`` on their next resolve, exactly as before.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import PipelineError
from repro.serve.engine import ServeConfig, ServingEngine
from repro.serve.registry import ModelRegistry


class ScoredServable:
    """Wrap a :class:`~repro.serve.artifacts.ServableModel` so
    ``predict`` returns ``(label, confidence, topk)`` triples.

    The serving engine treats predict results as an opaque list aligned
    with the input, so the tuples flow through batching and per-request
    splitting untouched. Confidence is the max class probability from
    ``scores``; ``topk`` holds the ``TOP_K`` highest-scoring
    ``[label, score]`` pairs (ties broken by class order, scores rounded
    so resumed runs replay byte-identical prediction logs). A model
    without usable scores degrades to ``None`` for both rather than
    failing the stream.
    """

    #: Label scores kept per prediction record.
    TOP_K = 3

    def __init__(self, servable):
        self.servable = servable

    @property
    def labels(self):
        return self.servable.labels

    def warmup(self) -> None:
        self.servable.warmup()

    def predict(self, docs) -> list:
        labels = self.servable.predict(docs)
        try:
            scores = np.asarray(self.servable.scores(docs), dtype=np.float64)
            class_labels = list(self.servable.labels)
            confidences, topks = [], []
            for row in scores:
                order = np.argsort(-row, kind="stable")[:self.TOP_K]
                confidences.append(float(row.max()))
                topks.append([[str(class_labels[j]), round(float(row[j]), 6)]
                              for j in order])
        except Exception:
            confidences = [None] * len(labels)
            topks = [None] * len(labels)
        if len(confidences) != len(labels):
            confidences = [None] * len(labels)
            topks = [None] * len(labels)
        return list(zip(labels, confidences, topks))


class EngineClient:
    """In-process micro-batching client over a pinned registry version."""

    def __init__(self, registry: ModelRegistry, name: str, version: int, *,
                 max_batch_docs: int = 64, warmup: bool = True):
        self.registry = registry
        self.name = name
        self.version = int(version)
        self._max_batch_docs = max_batch_docs
        self._warmup = warmup
        self._engine = self._start(self.version)

    def _start(self, version: int) -> ServingEngine:
        try:
            servable = self.registry.load(self.name, version)
        except Exception as exc:
            raise PipelineError(
                f"cannot load model {self.name}@v{version:04d} from "
                f"{self.registry.root}: {exc}"
            ) from exc
        return ServingEngine(
            ScoredServable(servable),
            ServeConfig(max_batch_docs=self._max_batch_docs,
                        warmup=self._warmup))

    def classify(self, docs) -> list:
        """``[(label, confidence, topk)]`` aligned with ``docs``."""
        try:
            return self._engine.classify([doc.tokens for doc in docs])
        except Exception as exc:
            raise PipelineError(
                f"classification through {self.name}@v{self.version:04d} "
                f"failed: {exc}"
            ) from exc

    def reload(self, version: int) -> None:
        """Atomically switch to ``version`` (drains the old engine)."""
        fresh = self._start(version)
        old, self._engine, self.version = self._engine, fresh, int(version)
        old.close()

    def close(self) -> None:
        self._engine.close()
