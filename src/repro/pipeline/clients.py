"""Serving-side client for the online-classification stage.

:class:`EngineClient` loads a registry artifact and classifies on the
caller's thread: the orchestrator calls it from one thread in fixed
``batch_size`` chunks, so a batcher in front of it would have nothing
to coalesce. Each chunk runs exactly one model forward
(:meth:`~repro.serve.artifacts.ServableModel.predict_scored`), and
:class:`ScoredServable` turns its labels and score matrix into
``(label, confidence, topk)`` triples. The confidence feeds the drift
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
from repro.serve.registry import ModelRegistry


class ScoredServable:
    """Wrap a :class:`~repro.serve.artifacts.ServableModel` so
    ``predict`` returns ``(label, confidence, topk)`` triples.

    Labels and scores come from one score matrix. Confidence is the max
    score of a document's row; ``topk`` holds the ``TOP_K``
    highest-scoring ``[label, score]`` pairs (ties broken by class
    order, scores rounded so resumed runs replay byte-identical
    prediction logs).
    """

    #: Label scores kept per prediction record.
    TOP_K = 3

    def __init__(self, servable):
        self.servable = servable

    def predict(self, docs) -> list:
        labels, scores = self.servable.predict_scored(docs)
        class_labels = [str(label) for label in self.servable.labels]
        out = []
        for label, row in zip(labels, np.asarray(scores, dtype=np.float64)):
            order = np.argsort(-row, kind="stable")[:self.TOP_K]
            out.append((label, float(row.max()),
                        [[class_labels[j], round(float(row[j]), 6)]
                         for j in order]))
        return out


class EngineClient:
    """In-process client over a pinned registry version."""

    def __init__(self, registry: ModelRegistry, name: str, version: int, *,
                 warmup: bool = True):
        self.registry = registry
        self.name = name
        self._warmup = warmup
        self._model = self._load(version)
        self.version = int(version)

    def _load(self, version: int) -> ScoredServable:
        try:
            servable = self.registry.load(self.name, version)
            if self._warmup:
                servable.warmup()
        except Exception as exc:
            raise PipelineError(
                f"cannot load model {self.name}@v{version:04d} from "
                f"{self.registry.root}: {exc}"
            ) from exc
        return ScoredServable(servable)

    def classify(self, docs) -> list:
        """``[(label, confidence, topk)]`` aligned with ``docs``."""
        try:
            return self._model.predict([doc.tokens for doc in docs])
        except Exception as exc:
            raise PipelineError(
                f"classification through {self.name}@v{self.version:04d} "
                f"failed: {exc}"
            ) from exc

    def reload(self, version: int) -> None:
        """Switch to ``version``; a failed load leaves the old one serving."""
        self._model = self._load(version)
        self.version = int(version)
