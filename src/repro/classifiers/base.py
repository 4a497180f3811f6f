"""Shared machinery for token-sequence classifiers.

Subclasses implement ``_forward(ids, pad_mask) -> logits`` over padded id
batches; the base class handles vocabulary encoding, batching, soft/hard
targets, and Adam training.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.exceptions import NotFittedError
from repro.core.seeding import ensure_rng
from repro.nn.layers import Embedding, Module
from repro.nn.losses import soft_cross_entropy
from repro.nn.optim import Adam
from repro.nn.tensor import inference_mode
from repro.plm.encoder import BatchPlan
from repro.text.vocabulary import Vocabulary


def as_soft_targets(targets, n_classes: int) -> np.ndarray:
    """Normalize hard int labels or soft rows into an (N, C) matrix."""
    arr = np.asarray(targets)
    if arr.ndim == 1:
        out = np.zeros((arr.shape[0], n_classes))
        out[np.arange(arr.shape[0]), arr.astype(int)] = 1.0
        return out
    if arr.shape[1] != n_classes:
        raise ValueError(f"target width {arr.shape[1]} != n_classes {n_classes}")
    return arr.astype(float)


class TokenClassifier(Module):
    """Base classifier over token lists.

    Parameters
    ----------
    vocabulary:
        Token vocabulary used for encoding.
    n_classes:
        Output dimensionality.
    embedding_table:
        Optional (vocab, dim) initialization (e.g. word2vec or PLM input
        embeddings); random when omitted.
    """

    def __init__(self, vocabulary: Vocabulary, n_classes: int, dim: int = 48,
                 max_len: int = 48, embedding_table: "np.ndarray | None" = None,
                 seed: "int | np.random.Generator" = 0):
        super().__init__()
        self.vocabulary = vocabulary
        self.n_classes = n_classes
        self.dim = dim
        self.max_len = max_len
        self.rng = ensure_rng(seed)
        self.embedding = Embedding(len(vocabulary), dim, self.rng)
        if embedding_table is not None:
            if embedding_table.shape != (len(vocabulary), dim):
                raise ValueError(
                    f"embedding table {embedding_table.shape} != "
                    f"({len(vocabulary)}, {dim})"
                )
            self.embedding.weight.data = embedding_table.copy()
        self._fitted = False

    # -- subclass hook ---------------------------------------------------------
    def _forward(self, ids: np.ndarray, pad_mask: np.ndarray):
        """Return a logits Tensor of shape (B, n_classes)."""
        raise NotImplementedError

    # -- training / inference ----------------------------------------------------
    def _encode(self, token_lists: list) -> list:
        unk = self.vocabulary.unk_id
        out = []
        for tokens in token_lists:
            ids = self.vocabulary.encode(tokens)[: self.max_len]
            if ids.size == 0:
                ids = np.array([unk])
            out.append(ids)
        return out

    def fit(self, token_lists: list, targets, epochs: int = 5,
            batch_size: int = 32, lr: float = 2e-3,
            sample_weights: "np.ndarray | None" = None) -> "TokenClassifier":
        """Train with soft cross-entropy on (token list, target) pairs."""
        dtype = self.embedding.weight.data.dtype
        soft = as_soft_targets(targets, self.n_classes).astype(dtype)
        sequences = self._encode(token_lists)
        # Pad the corpus once; every minibatch is then a vectorized gather
        # into reusable id/mask buffers instead of a per-batch Python loop.
        plan = BatchPlan(sequences, self.vocabulary.pad_id, self.max_len)
        optimizer = Adam(self.parameters(), lr=lr)
        self.train()
        n = len(sequences)
        with obs.span(f"nn.fit:{type(self).__name__}", docs=n,
                      epochs=int(epochs)):
            for epoch in range(epochs):
                with obs.span("epoch", index=epoch):
                    order = self.rng.permutation(n)
                    for start in range(0, n, batch_size):
                        take = order[start : start + batch_size]
                        ids, pad_mask = plan.gather(take)
                        logits = self._forward(ids, pad_mask)
                        if sample_weights is not None:
                            # Weighted soft CE: scale rows of the target matrix.
                            w = sample_weights[take][:, None]
                            loss = soft_cross_entropy(logits, soft[take] * w) * (
                                len(take) / max(w.sum(), 1e-9)
                            )
                        else:
                            loss = soft_cross_entropy(logits, soft[take])
                        optimizer.zero_grad()
                        loss.backward()
                        optimizer.clip_grad_norm(5.0)
                        optimizer.step()
        self.eval()
        self._fitted = True
        return self

    def predict_proba(self, token_lists: list, batch_size: int = 64) -> np.ndarray:
        """(N, n_classes) softmax probabilities."""
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        sequences = self._encode(token_lists)
        plan = BatchPlan(sequences, self.vocabulary.pad_id, self.max_len)
        n = len(sequences)
        out = np.zeros((n, self.n_classes), dtype=self.embedding.weight.data.dtype)
        self.eval()
        with inference_mode():
            for start in range(0, n, batch_size):
                take = np.arange(start, min(start + batch_size, n))
                ids, pad_mask = plan.gather(take)
                logits = self._forward(ids, pad_mask).data
                shifted = logits - logits.max(axis=1, keepdims=True)
                probs = np.exp(shifted)
                probs /= probs.sum(axis=1, keepdims=True)
                out[start : start + take.size] = probs
        return out

    def predict(self, token_lists: list) -> np.ndarray:
        """Argmax class indices."""
        return self.predict_proba(token_lists).argmax(axis=1)
