"""Fused training kernels and plain-numpy tensor helpers.

The hot training-path functions (softmax, log-softmax, masked attention
softmax, layer norm, and — in :mod:`repro.nn.losses` — softmax
cross-entropy) are **fused kernels**: one graph node whose forward and
backward are single hand-written numpy passes (no intermediate graph
nodes, no per-op closure allocations). The same functions built from
primitive autograd ops live in ``tests/composite_kernels.py`` as the
correctness oracle for the gradcheck suite and the baseline the training
bench measures against. Every kernel is dtype-preserving (see
:mod:`repro.nn.tensor`).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, _unbroadcast, get_default_dtype, is_grad_enabled

#: Finite stand-in for -inf in masked softmax: large enough that exp()
#: underflows to exactly 0, small enough to be float32-representable.
_MASK_FILL = -1e9


def _ensure_float(x) -> np.ndarray:
    """Plain-numpy input normalization that never silently upcasts.

    Floating arrays keep their dtype; everything else converts to the
    engine default dtype.
    """
    x = np.asarray(x)  # dtype: preserve
    if x.dtype.kind != "f":
        x = x.astype(get_default_dtype())
    return x


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    data = x.data
    probs = data - data.max(axis=axis, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=axis, keepdims=True)
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor(probs)

    def backward(grad):
        gp = grad * probs
        gp -= probs * gp.sum(axis=axis, keepdims=True)
        return (gp,)

    return x._make(probs, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    data = x.data
    out = data - data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(out).sum(axis=axis, keepdims=True))
    out -= lse
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor(out)

    def backward(grad):
        return (grad - np.exp(out) * grad.sum(axis=axis, keepdims=True),)

    return x._make(out, (x,), backward)


def masked_softmax(x: Tensor, mask: "np.ndarray | None", axis: int = -1) -> Tensor:
    """Softmax with blocked entries: one pass for masked-fill + softmax.

    ``mask`` is broadcastable to ``x`` and True where attention must be
    blocked; blocked entries get exactly zero probability and zero
    gradient. Rows that are fully blocked degrade to a uniform
    distribution (the historical ``masked_fill(-1e9)`` behaviour).
    """
    if mask is None:
        return softmax(x, axis=axis)
    mask = np.asarray(mask, dtype=bool)
    probs = np.where(mask, _MASK_FILL, x.data)
    probs -= probs.max(axis=axis, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=axis, keepdims=True)
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor(probs)

    def backward(grad):
        gp = grad * probs
        gp -= probs * gp.sum(axis=axis, keepdims=True)
        np.copyto(gp, 0.0, where=np.broadcast_to(mask, gp.shape))
        return (gp,)

    return x._make(probs, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis (fused forward + backward)."""
    data = x.data
    d = data.shape[-1]
    xhat = data - data.mean(axis=-1, keepdims=True)
    inv = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    out = xhat * gain.data + bias.data
    if not is_grad_enabled():
        return Tensor(out)

    def backward(grad):
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        dxhat = grad * gain.data
        dx = dxhat - dxhat.mean(axis=-1, keepdims=True)
        dx -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx *= inv
        dgain = _unbroadcast(grad * xhat, gain.shape)
        dbias = _unbroadcast(grad, bias.shape)
        return (dx, dgain, dbias)

    return x._make(out, (x, gain, bias), backward)


def attention_scores(q: Tensor, k: Tensor, mask: "np.ndarray | None" = None) -> Tensor:
    """Scaled dot-product attention logits with optional padding mask.

    ``q``/``k`` are (..., T, Dh); ``mask`` is broadcastable to (..., T, T)
    and True where attention must be blocked. The attention layer itself
    feeds the unmasked logits to :func:`masked_softmax` instead; the
    ``mask`` parameter remains for direct consumers.
    """
    d_head = q.shape[-1]
    logits = (q @ k.swapaxes(-1, -2)) * (1.0 / float(np.sqrt(d_head)))
    if mask is not None:
        logits = logits.masked_fill(mask, _MASK_FILL)
    return logits


def cosine_similarity(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Plain numpy cosine similarity between row sets: (n, d) x (m, d) -> (n, m)."""
    a = _ensure_float(a)
    b = _ensure_float(b)
    a_norm = a / (np.linalg.norm(a, axis=-1, keepdims=True) + eps)
    b_norm = b / (np.linalg.norm(b, axis=-1, keepdims=True) + eps)
    return a_norm @ b_norm.T


def l2_normalize(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Row-wise L2 normalization (plain numpy, dtype-preserving)."""
    x = _ensure_float(x)
    return x / (np.linalg.norm(x, axis=-1, keepdims=True) + eps)


def masked_mean_pool(hidden: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Mean over the rows of ``hidden`` selected by boolean ``keep``.

    ``keep`` may be shorter than ``hidden`` (extra rows are padding or a
    substituted placeholder token and are never pooled). When nothing is
    kept — an empty or fully-masked selection — falls back to the plain
    mean over all rows, so degenerate documents still yield a vector.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.any():
        return hidden[: keep.size][keep].mean(axis=0)
    return hidden.mean(axis=0)
