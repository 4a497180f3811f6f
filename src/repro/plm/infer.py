"""Packed predict-only forward: fused attention kernels for serving.

The Tensor-based encoder forward is built from ~30 autograd ops per
layer; under :class:`~repro.nn.tensor.inference_mode` no graph is
recorded, but every op still allocates fresh arrays and dispatches
through the Tensor wrapper. For predict-only traffic (the serving
engine, quantized artifacts) that overhead is pure tax: at serving batch
shapes the encoder spends 30-60% of its wall clock outside BLAS.

:class:`PackedEncoder` is the predict-only twin of
:class:`~repro.plm.encoder.TransformerEncoder`:

- **packed weights** — every layer's parameters are captured once as
  contiguous numpy arrays (no Tensor indirection, no per-call getattr
  chains);
- **fused attention** — QKV projection, scaled scores, masked softmax,
  and the attention-weighted value sum run as one hand-written numpy
  pass with in-place exp/normalize, mirroring the op order of the fused
  kernels in :mod:`repro.nn.functional` so outputs agree with the
  Tensor path to float32 ulp.

The packed path is *inference-only*: it never records gradients, never
stores attention maps, and assumes frozen weights (the same contract as
the encode cache's content-addressed namespace). The artifact chooses
it: :func:`repro.plm.io.load_plm` attaches a pack
(:func:`packed_encoder`) exactly when the archive manifest records a
``quantize`` mode, and the engine runs every batch of an encoder that
carries one through it. Float models keep the Tensor forward. The
equivalence suite (``tests/test_infer_fused.py``) holds packed and
Tensor forwards to float32-ulp agreement.
"""

from __future__ import annotations

import numpy as np

from repro.plm.encoder import TransformerEncoder

#: Finite stand-in for -inf in masked softmax (matches nn.functional).
_MASK_FILL = -1e9


class PackedEncoder:
    """Contiguous-weight, fused-kernel view of a frozen encoder.

    Construction snapshots the encoder's parameter arrays (no copies for
    already-contiguous arrays beyond the QKV/out weights); ``forward``
    reproduces ``encoder(ids, pad_mask).data`` for an ``eval()``-mode
    encoder without building a single Tensor.
    """

    def __init__(self, encoder: TransformerEncoder):
        config = encoder.config
        self.dim = config.dim
        self.n_heads = config.n_heads
        self.head_dim = config.dim // config.n_heads
        self.max_len = config.max_len
        self.token_table = encoder.token_embedding.weight.data
        self.position_table = encoder.position_embedding.weight.data
        self.final_norm = (encoder.final_norm.gain.data,
                           encoder.final_norm.bias.data,
                           encoder.final_norm.eps)
        self.layers = []
        for blk in encoder.blocks:
            self.layers.append((
                (blk.norm1.gain.data, blk.norm1.bias.data, blk.norm1.eps),
                np.ascontiguousarray(blk.attn.qkv.weight.data),
                blk.attn.qkv.bias.data,
                np.ascontiguousarray(blk.attn.out.weight.data),
                blk.attn.out.bias.data,
                (blk.norm2.gain.data, blk.norm2.bias.data, blk.norm2.eps),
                blk.ff.fc1.weight.data, blk.ff.fc1.bias.data,
                blk.ff.fc2.weight.data, blk.ff.fc2.bias.data,
            ))

    # -- kernels --------------------------------------------------------------
    @staticmethod
    def _layer_norm(x: np.ndarray, params: tuple) -> np.ndarray:
        """Fresh layer-normed copy of ``x`` (same op order as F.layer_norm).

        Uses ``np.add.reduce`` directly instead of ``ndarray.mean``: both
        run the same pairwise summation (bit-identical), but the direct
        ufunc skips the python-side mean wrapper, which dominates at
        single-document batch shapes.
        """
        gain, bias, eps = params
        dim = x.shape[-1]
        mean = np.add.reduce(x, axis=-1, keepdims=True)
        mean /= dim
        xhat = x - mean
        inv = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
        inv /= dim
        inv += eps
        np.sqrt(inv, out=inv)
        np.reciprocal(inv, out=inv)
        xhat *= inv
        out = xhat * gain
        out += bias
        return out

    @staticmethod
    def _gelu_(x: np.ndarray) -> np.ndarray:
        """In-place tanh-approximation GELU (same constants as Tensor.gelu)."""
        c = float(np.sqrt(2.0 / np.pi))
        inner = 0.044715 * (x * x * x)
        inner += x
        inner *= c
        np.tanh(inner, out=inner)
        inner += 1.0
        inner *= 0.5
        x *= inner
        return x

    def _attention(self, hidden: np.ndarray, layer: tuple,
                   key_mask: "np.ndarray | None") -> np.ndarray:
        """Fused QKV -> scaled scores -> masked softmax -> value sum."""
        batch, seq, dim = hidden.shape
        heads, head_dim = self.n_heads, self.head_dim
        qkv = hidden.reshape(batch * seq, dim) @ layer[1]
        qkv += layer[2]
        # One contiguous (3, B, H, T, Dh) copy: every later matmul then
        # runs on C-ordered operands instead of strided views.
        qkv = np.ascontiguousarray(
            qkv.reshape(batch, seq, 3, heads, head_dim).transpose(2, 0, 3, 1, 4)
        )
        q, k, v = qkv[0], qkv[1], qkv[2]
        scale = 1.0 / float(np.sqrt(head_dim))
        scores = q @ k.swapaxes(-1, -2)
        scores *= scale
        if key_mask is not None:
            np.copyto(scores, _MASK_FILL,
                      where=np.broadcast_to(key_mask, scores.shape))
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, axis=-1, keepdims=True)
        context = scores @ v
        context = context.transpose(0, 2, 1, 3).reshape(batch * seq, dim)
        out = context @ layer[3]
        out += layer[4]
        return out.reshape(batch, seq, dim)

    # -- forward --------------------------------------------------------------
    def forward(self, ids: np.ndarray, pad_mask: "np.ndarray | None" = None) -> np.ndarray:
        """Hidden states (B, T, D) for an int id batch, pure numpy."""
        ids = np.asarray(ids, dtype=np.int64)
        batch, seq = ids.shape
        if seq > self.max_len:
            raise ValueError(
                f"sequence length {seq} exceeds max_len {self.max_len}"
            )
        x = self.token_table[ids] + self.position_table[:seq][None, :]
        key_mask = None
        if pad_mask is not None and pad_mask.any():
            key_mask = pad_mask[:, None, None, :]
        for layer in self.layers:
            x += self._attention(self._layer_norm(x, layer[0]), layer, key_mask)
            ff = self._layer_norm(x, layer[5])
            ff = ff.reshape(batch * seq, self.dim) @ layer[6]
            ff += layer[7]
            ff = self._gelu_(ff) @ layer[8]
            ff += layer[9]
            x += ff.reshape(batch, seq, self.dim)
        return self._layer_norm(x, self.final_norm)

    __call__ = forward


def packed_encoder(encoder: TransformerEncoder) -> PackedEncoder:
    """The :class:`PackedEncoder` attached to ``encoder`` (built on first use).

    Attaching is the switch: once ``encoder`` carries a pack, the
    inference engine (:func:`repro.plm.engine.run_encoder`) runs its
    batches through the pack instead of the Tensor forward. The pack is
    keyed on the encoder instance and assumes frozen weights — the same
    read-path contract as ``PretrainedLM.cache_namespace``. Anything that
    re-trains the encoder must discard it (or construct a fresh encoder,
    as the training paths already do).
    """
    packed = getattr(encoder, "_packed_encoder", None)
    if packed is None:
        packed = PackedEncoder(encoder)
        encoder._packed_encoder = packed
    return packed
