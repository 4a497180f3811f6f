"""TextCNN (Kim 2014) over padded token batches.

Convolutions are realized as sliding windows (one strided copy, see
:func:`repro.nn.functional.sliding_windows`) + linear maps, with ReLU
and max-over-time pooling per filter size — the classifier WeSTClass
and WeSHClass train on pseudo-documents.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import TokenClassifier
from repro.nn.functional import sliding_windows
from repro.nn.layers import Linear
from repro.nn.tensor import Tensor, concatenate


class TextCNNClassifier(TokenClassifier):
    """Multi-window CNN with max-over-time pooling."""

    def __init__(self, vocabulary, n_classes: int, dim: int = 48,
                 max_len: int = 48, filters: int = 24,
                 window_sizes: tuple = (2, 3), embedding_table=None,
                 seed=0):
        super().__init__(vocabulary, n_classes, dim=dim, max_len=max_len,
                         embedding_table=embedding_table, seed=seed)
        self.window_sizes = tuple(window_sizes)
        self.filters = filters
        self.convs = [
            Linear(w * dim, filters, self.rng) for w in self.window_sizes
        ]
        self.head = Linear(filters * len(self.window_sizes), n_classes, self.rng)

    def _forward(self, ids: np.ndarray, pad_mask: np.ndarray) -> Tensor:
        batch, seq = ids.shape
        min_len = max(self.window_sizes)
        if seq < min_len:
            pad = np.full((batch, min_len - seq), self.vocabulary.pad_id,
                          dtype=ids.dtype)
            ids = np.concatenate([ids, pad], axis=1)
            pad_mask = np.concatenate(
                [pad_mask, np.ones((batch, min_len - seq), dtype=bool)], axis=1
            )
            seq = min_len
        x = self.embedding(ids)  # (B, T, D)
        pooled_parts = []
        for window, conv in zip(self.window_sizes, self.convs):
            positions = sliding_windows(x, window)  # (B, P, W·D)
            feature = conv(positions).relu()  # (B, P, F)
            # Mask windows that start at padding so they never win the max.
            starts = pad_mask[:, : seq - window + 1]
            feature = feature.masked_fill(starts[:, :, None], 0.0)
            pooled_parts.append(feature.max(axis=1))  # (B, F)
        features = concatenate(pooled_parts, axis=1)
        return self.head(features)
