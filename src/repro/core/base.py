"""Base classes for weakly-supervised classifiers.

Single-label methods subclass :class:`WeaklySupervisedTextClassifier` and
implement ``_fit`` / ``_predict_proba``. Multi-label methods subclass
:class:`MultiLabelTextClassifier` and implement ``_fit`` / ``_score`` (a
per-label relevance score used both for thresholded label sets and ranking
metrics such as P@k / NDCG@k).

Each base writes its scores-to-labels rule once, in ``labels_from``, and
``predict`` applies it to the score matrix, so a caller that already
holds the matrix derives the same labels without a second forward.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.exceptions import NotFittedError
from repro.core.seeding import ensure_rng
from repro.core.supervision import Supervision
from repro.core.types import Corpus, LabelSet


class WeaklySupervisedTextClassifier(abc.ABC):
    """Common interface for single-label weakly-supervised classifiers."""

    def __init__(self, seed: "int | np.random.Generator | None" = 0):
        self.rng = ensure_rng(seed)
        self.label_set: "LabelSet | None" = None
        self._fitted = False

    # -- public API ---------------------------------------------------------
    def fit(self, corpus: Corpus, supervision: Supervision) -> "WeaklySupervisedTextClassifier":
        """Fit on an unlabeled corpus plus weak supervision."""
        self.label_set = supervision.label_set
        self._fit(corpus, supervision)
        self._fitted = True
        return self

    def predict(self, corpus: Corpus) -> list[str]:
        """Predicted label id for every document in ``corpus``."""
        return self.labels_from(self.predict_proba(corpus))

    def labels_from(self, proba) -> list[str]:
        """The label rule over a ``predict_proba`` matrix: row argmax."""
        assert self.label_set is not None
        labels = self.label_set.labels
        return [labels[i] for i in np.asarray(proba).argmax(axis=1)]

    def predict_proba(self, corpus: Corpus) -> np.ndarray:
        """(n_docs, n_labels) class-probability matrix."""
        self._check_fitted()
        proba = np.asarray(self._predict_proba(corpus), dtype=float)
        return proba

    # -- subclass hooks -----------------------------------------------------
    @abc.abstractmethod
    def _fit(self, corpus: Corpus, supervision: Supervision) -> None:
        """Method-specific training."""

    @abc.abstractmethod
    def _predict_proba(self, corpus: Corpus) -> np.ndarray:
        """Method-specific scoring."""

    # -- helpers ------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} is not fitted; call fit() first")

    def __repr__(self) -> str:
        status = "fitted" if self._fitted else "unfitted"
        return f"{type(self).__name__}({status})"


class MultiLabelTextClassifier(abc.ABC):
    """Common interface for multi-label weakly-supervised classifiers."""

    def __init__(self, seed: "int | np.random.Generator | None" = 0):
        self.rng = ensure_rng(seed)
        self.label_set: "LabelSet | None" = None
        self._fitted = False

    def fit(self, corpus: Corpus, supervision: Supervision) -> "MultiLabelTextClassifier":
        """Fit on an unlabeled corpus plus weak supervision."""
        self.label_set = supervision.label_set
        self._fit(corpus, supervision)
        self._fitted = True
        return self

    def score(self, corpus: Corpus) -> np.ndarray:
        """(n_docs, n_labels) relevance scores (higher = more relevant)."""
        self._check_fitted()
        return np.asarray(self._score(corpus), dtype=float)

    def predict(self, corpus: Corpus, threshold: float = 0.5, top_k: "int | None" = None) -> list[tuple[str, ...]]:
        """Predicted label tuples (the :meth:`labels_from` rule)."""
        return self.labels_from(self.score(corpus), threshold, top_k)

    def labels_from(self, scores, threshold: float = 0.5, top_k: "int | None" = None) -> list[tuple[str, ...]]:
        """The label rule over a :meth:`score` matrix.

        With ``top_k`` set, each document receives exactly its top-k labels;
        otherwise all labels scoring above ``threshold`` (at least one).
        """
        assert self.label_set is not None
        labels = self.label_set.labels
        out: list[tuple[str, ...]] = []
        for row in scores:
            if top_k is not None:
                idx = np.argsort(-row, kind="stable")[:top_k]
            else:
                idx = np.flatnonzero(row >= threshold)
                if idx.size == 0:
                    idx = np.array([int(row.argmax())])
            out.append(tuple(labels[i] for i in idx))
        return out

    def rank(self, corpus: Corpus) -> list[list[str]]:
        """Full label ranking (best first) per document.

        Ties break by label-set index (stable sort), so rankings are
        deterministic across numpy versions and sort algorithms.
        """
        scores = self.score(corpus)
        assert self.label_set is not None
        labels = self.label_set.labels
        return [[labels[i] for i in np.argsort(-row, kind="stable")]
                for row in scores]

    @abc.abstractmethod
    def _fit(self, corpus: Corpus, supervision: Supervision) -> None:
        """Method-specific training."""

    @abc.abstractmethod
    def _score(self, corpus: Corpus) -> np.ndarray:
        """Method-specific scoring."""

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} is not fitted; call fit() first")

    def __repr__(self) -> str:
        status = "fitted" if self._fitted else "unfitted"
        return f"{type(self).__name__}({status})"
