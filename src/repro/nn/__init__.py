"""Minimal numpy autograd + neural-network substrate.

A reverse-mode automatic differentiation engine (:class:`~repro.nn.tensor.Tensor`)
with the layers, losses, and optimizers needed by the PLM substrate and the
neural text classifiers. Deliberately small: dense tensors, static graphs
rebuilt per step, no GPU.
"""

from repro.nn import functional
from repro.nn.layers import (
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
    Sequential,
    TransformerBlock,
)
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    kl_divergence_with_logits,
)
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import (
    Tensor,
    default_dtype,
    get_default_dtype,
    inference_mode,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
)

__all__ = [
    "Tensor",
    "inference_mode",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "functional",
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "MultiHeadSelfAttention",
    "FeedForward",
    "TransformerBlock",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "kl_divergence_with_logits",
    "SGD",
    "Adam",
]
