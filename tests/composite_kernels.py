"""Composite reference kernels: the oracle for the fused training kernels.

:mod:`repro.nn.functional` and :mod:`repro.nn.losses` ship softmax,
log-softmax, masked softmax, layer norm and the two cross-entropies as
fused kernels — one graph node each, hand-written forward and backward.
This module holds the same functions built from primitive autograd ops.
They are the ground truth the gradcheck suite compares against
(``tests/test_nn_training.py``) and the seed arm the training bench
times (``benchmarks/bench_training.py``); nothing in the library calls
them.

:func:`swapped_in` replaces the four ``repro.nn.functional`` kernels the
layers call (``F.softmax``, ``F.masked_softmax``, ...) with these
composites for the duration of a ``with`` block. The losses are imported
by name at their call sites, so callers that need composite losses use
:func:`cross_entropy` / :func:`soft_cross_entropy` from here directly.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.nn import functional as F
from repro.nn.functional import _MASK_FILL
from repro.nn.tensor import Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def masked_softmax(x: Tensor, mask: "np.ndarray | None", axis: int = -1) -> Tensor:
    """Softmax with blocked entries (masked-fill, then softmax)."""
    if mask is None:
        return softmax(x, axis=axis)
    return softmax(x.masked_fill(mask, _MASK_FILL), axis=axis)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered * (var + eps) ** -0.5
    return normed * gain + bias


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: "int | None" = None) -> Tensor:
    """Mean cross-entropy of integer ``targets`` under ``logits``."""
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=-1)
    flat = log_probs.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        keep = flat_targets != ignore_index
        if not keep.any():
            return Tensor(0.0)
        rows = np.flatnonzero(keep)
        picked = flat[rows, flat_targets[rows]]
    else:
        picked = flat[np.arange(flat_targets.size), flat_targets]
    return -picked.mean()


def soft_cross_entropy(logits: Tensor, target_probs: np.ndarray) -> Tensor:
    """Mean cross-entropy against soft target distributions."""
    target = np.asarray(target_probs, dtype=logits.data.dtype)
    log_probs = log_softmax(logits, axis=-1)
    per_example = -(Tensor(target) * log_probs).sum(axis=-1)
    return per_example.mean()


#: The ``repro.nn.functional`` kernels :func:`swapped_in` replaces.
FUNCTIONAL = {
    "softmax": softmax,
    "log_softmax": log_softmax,
    "masked_softmax": masked_softmax,
    "layer_norm": layer_norm,
}


@contextlib.contextmanager
def swapped_in():
    """Run the block with the composites in place of the fused kernels."""
    saved = {name: getattr(F, name) for name in FUNCTIONAL}
    for name, fn in FUNCTIONAL.items():
        setattr(F, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(F, name, fn)
