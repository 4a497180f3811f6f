"""Loss functions over autograd tensors.

``cross_entropy`` and ``soft_cross_entropy`` are *fused* kernels: one
graph node computes shifted-logit log-sum-exp, picks/blends the target
log-probabilities, and the backward pass emits the classic
``(softmax - target) / N`` gradient in a single pass — instead of the
log-softmax → gather → mean chain of graph nodes a composite build
records. The composite formulations live in
``tests/composite_kernels.py`` as the gradcheck oracle and bench baseline.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, is_grad_enabled


def _flat_logsumexp(flat: np.ndarray) -> tuple:
    """(shifted logits, per-row logsumexp of the shifted logits)."""
    shifted = flat - flat.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted, lse


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: "int | None" = None) -> Tensor:
    """Mean cross-entropy of integer ``targets`` under ``logits``.

    ``logits`` is (..., C); ``targets`` the matching integer array. Entries
    equal to ``ignore_index`` contribute nothing (masked-LM convention).
    """
    targets = np.asarray(targets, dtype=np.int64)
    data = logits.data
    n_classes = data.shape[-1]
    flat = data.reshape(-1, n_classes)
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        rows = np.flatnonzero(flat_targets != ignore_index)
        if rows.size == 0:
            return Tensor(np.zeros((), dtype=data.dtype))
        if rows.size == flat_targets.size:
            rows = None  # nothing ignored: skip the row gather
    else:
        rows = None
    kept = flat if rows is None else flat[rows]
    kept_targets = flat_targets if rows is None else flat_targets[rows]
    n_kept = kept.shape[0]
    shifted, lse = _flat_logsumexp(kept)
    picked = shifted[np.arange(n_kept), kept_targets]
    loss = np.asarray((lse.sum() - picked.sum()) / n_kept, dtype=data.dtype)
    if not (is_grad_enabled() and logits.requires_grad):
        return Tensor(loss)

    def backward(grad):
        # d loss / d logits = (softmax - onehot) / n_kept on kept rows.
        probs = np.exp(shifted - lse)
        probs[np.arange(n_kept), kept_targets] -= 1.0
        probs *= np.asarray(grad, dtype=data.dtype) / n_kept
        if rows is None:
            return (probs.reshape(data.shape),)
        full = np.zeros_like(flat)
        full[rows] = probs
        return (full.reshape(data.shape),)

    return logits._make(loss, (logits,), backward)


def soft_cross_entropy(logits: Tensor, target_probs: np.ndarray) -> Tensor:
    """Mean cross-entropy against soft target distributions (self-training).

    Target rows need not sum to one (sample-weighted self-training scales
    them); the gradient accounts for the row mass exactly.
    """
    data = logits.data
    target = np.asarray(target_probs, dtype=data.dtype)
    n_classes = data.shape[-1]
    flat = data.reshape(-1, n_classes)
    flat_target = target.reshape(-1, n_classes)
    n = flat.shape[0]
    shifted, lse = _flat_logsumexp(flat)
    row_mass = flat_target.sum(axis=1, keepdims=True)
    per_example = row_mass[:, 0] * lse[:, 0] - (flat_target * shifted).sum(axis=1)
    loss = np.asarray(per_example.sum() / n, dtype=data.dtype)
    if not (is_grad_enabled() and logits.requires_grad):
        return Tensor(loss)

    def backward(grad):
        # d loss / d logits = (row_mass * softmax - target) / N per row.
        probs = np.exp(shifted - lse)
        probs *= row_mass
        probs -= flat_target
        probs *= np.asarray(grad, dtype=data.dtype) / n
        return (probs.reshape(data.shape),)

    return logits._make(loss, (logits,), backward)


def kl_divergence_with_logits(logits: Tensor, target_probs: np.ndarray) -> Tensor:
    """Mean KL(target || softmax(logits)) — WeSTClass self-training loss."""
    target = np.asarray(target_probs, dtype=logits.data.dtype)
    # Keep the constant in the compute dtype: a python-float entropy would
    # lift to the (possibly narrower) default dtype and lose precision.
    entropy = -(target * np.log(np.clip(target, 1e-12, None))).sum(axis=-1).mean()
    return soft_cross_entropy(logits, target) - entropy


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray,
                                     weights: "np.ndarray | None" = None) -> Tensor:
    """Mean element-wise binary cross-entropy on raw logits.

    Stable formulation: ``max(x, 0) - x*y + log(1 + exp(-|x|))``.
    """
    y = Tensor(np.asarray(targets, dtype=logits.data.dtype))
    x = logits
    abs_term = ((x * x) ** 0.5)  # |x| with usable gradient away from 0
    loss = x.relu() - x * y + (1.0 + (-abs_term).exp()).log()
    if weights is not None:
        loss = loss * Tensor(np.asarray(weights, dtype=logits.data.dtype))
    return loss.mean()


def margin_ranking_loss(positive: Tensor, negative: Tensor, margin: float = 0.5) -> Tensor:
    """Mean hinge ranking loss: positives should beat negatives by ``margin``."""
    return (negative - positive + margin).relu().mean()


def info_nce(similarities: Tensor, temperature: float = 0.1) -> Tensor:
    """InfoNCE over a similarity matrix whose diagonal holds positives.

    ``similarities`` is (B, B): row i scores anchor i against candidate j;
    entry (i, i) is the positive pair (MICoL contrastive objective).
    """
    logits = similarities * (1.0 / temperature)
    targets = np.arange(logits.shape[0])
    return cross_entropy(logits, targets)
