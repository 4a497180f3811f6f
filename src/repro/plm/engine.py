"""Batched PLM inference engine: length buckets + no-grad execution.

The seed encode paths padded every fixed-size chunk to the chunk max and
recorded a full autograd graph for forwards that never backpropagate. This
module plans better batches and runs them gradient-free:

- **Length bucketing** — sequences are sorted by length (stable, so equal
  lengths keep corpus order) and grouped so each batch pads to its own max
  instead of the global one. Attention is quadratic in the padded length,
  so on long-tailed corpora this removes most of the work.
- **Pad-aware batch closing** — walking the sorted lengths, a batch of
  ``n`` documents padded to ``width`` closes before a longer document of
  length ``L`` when padding the batch up to it, ``n * (L - width)`` extra
  tokens, would cost more than starting one more forward. That fixed
  per-forward cost is :data:`FORWARD_COST_TOKENS`, counted in padded
  tokens. A request of 4 short and 4 ``max_len`` documents thus runs as
  two forwards instead of one batch padded to ``max_len`` throughout.
- **Token budget (memory cap)** — a batch also closes when it would exceed
  ``token_budget`` padded tokens (default ``batch_size * max_len``, the
  seed path's worst-case footprint). It bounds activation memory only;
  equal-length documents still fill it, so many short documents share
  one batch.
- **No-grad execution** — every batch runs under
  :class:`repro.nn.tensor.inference_mode`, skipping graph construction.
- **Position-gathered MLM head** — masked-position logits are computed
  from the (B, D) rows at the masked positions instead of the full
  (B, T, V) projection, a T-fold reduction in head FLOPs with identical
  values (the head is position-wise).

Batch composition never changes the numbers: padded key slots receive
exactly zero attention weight, so each document's rows depend only on its
own ids. The equivalence tests in ``tests/test_plm_engine.py`` assert this
for every entry point.

``REPRO_ENGINE_TOKEN_BUDGET=<int>`` sets the memory cap in padded tokens
per batch (read by :meth:`EngineConfig.from_env`). An encoder loaded from
a quantized archive carries a packed predict-only twin
(:mod:`repro.plm.infer`), and batches run through it instead of the
Tensor forward; the packed forward is float32-ulp-equivalent to the
Tensor path, not bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core import env as _env
from repro.nn.tensor import Tensor, inference_mode
from repro.plm.encoder import TransformerEncoder, pad_batch


@dataclass(frozen=True)
class EngineConfig:
    """Batch-shape knobs of the inference engine."""

    batch_size: int = 32
    token_budget: "int | None" = None  # memory cap; None -> batch_size * max_len

    @classmethod
    def from_env(cls, batch_size: int = 32) -> "EngineConfig":
        """Config honouring ``REPRO_ENGINE_TOKEN_BUDGET``."""
        return cls(batch_size=batch_size,
                   token_budget=_env.engine_token_budget())


#: Fixed cost of one encoder forward, in padded tokens. Calibrated on the
#: Tensor forward of a default-config encoder (``PLMConfig()``, 2-core x86
#: host, alike at 1 and 2 BLAS threads): the median of 150 forwards per
#: shape, B in 1..32 by T in 8..48, fitted as ``fixed + per_token * B * T``
#: over the shapes of at most 400 padded tokens (the batch sizes this
#: rule decides between), read 0.15 ms fixed and 2.7 us per token, 54-57
#: tokens over four fits. Not a knob: it encodes what a forward costs.
FORWARD_COST_TOKENS = 56


def plan_batches(lengths: list, config: EngineConfig, max_len: int) -> list:
    """Partition sequence indices into length-bucketed batches.

    Returns index arrays (into the original order). Indices are stably
    sorted by length (clamped to ``[1, max_len]``) and a batch grows
    until the next sequence would

    - pad the batch's ``n`` sequences up from ``width`` to its length
      ``L`` at a cost of ``n * (L - width)`` tokens greater than
      :data:`FORWARD_COST_TOKENS`, one more forward's fixed cost;
    - push the padded size (count x length) over the token budget; or
    - make the batch hold more than ``batch_size * max_len`` sequences
      (cap for degenerate all-empty inputs).
    """
    n = len(lengths)
    if n == 0:
        return []
    budget = config.token_budget or config.batch_size * max_len
    order = np.argsort(np.asarray(lengths, dtype=np.int64), kind="stable")
    batches: list[np.ndarray] = []
    current: list[int] = []
    width = 0
    for idx in order:
        # Sorted ascending: the candidate's (clamped) length is the batch max.
        padded = min(max(int(lengths[idx]), 1), max_len)
        if current and (len(current) * (padded - width) > FORWARD_COST_TOKENS
                        or (len(current) + 1) * padded > budget
                        or len(current) >= config.batch_size * max_len):
            batches.append(np.asarray(current, dtype=np.int64))
            current = []
        current.append(int(idx))
        width = padded
    if current:
        batches.append(np.asarray(current, dtype=np.int64))
    return batches


def run_encoder(encoder: TransformerEncoder, sequences: list, pad_id: int,
                config: EngineConfig, per_batch) -> None:
    """Run ``sequences`` (id arrays) through ``encoder`` batch by batch.

    ``per_batch(indices, ids, pad_mask, hidden)`` is invoked under
    :class:`~repro.nn.tensor.inference_mode` for every planned batch;
    ``indices`` maps batch rows back to positions in ``sequences``,
    ``hidden`` is the (B, T, D) output tensor. Consumers un-permute by
    writing through ``indices``. An encoder with a packed twin attached
    (:func:`repro.plm.infer.packed_encoder`) runs through it instead.
    """
    max_len = encoder.config.max_len
    batches = plan_batches([len(s) for s in sequences], config, max_len)
    packed = getattr(encoder, "_packed_encoder", None)
    for indices in batches:
        chunk = [sequences[i] for i in indices]
        ids, pad_mask = pad_batch(chunk, pad_id, max_len)
        with obs.span("encode:batch", docs=len(chunk),
                      width=int(ids.shape[1])):
            with inference_mode():
                if packed is not None:
                    hidden = Tensor(packed.forward(ids, pad_mask))
                else:
                    hidden = encoder(ids, pad_mask=pad_mask)
                per_batch(indices, ids, pad_mask, hidden)
        if obs.enabled():
            obs.count("plm.batches")
            obs.count("plm.tokens_encoded", int(ids.size - pad_mask.sum()))
            obs.count("plm.padded_tokens", int(ids.size))


def encode_hidden(encoder: TransformerEncoder, sequences: list, pad_id: int,
                  config: EngineConfig) -> list:
    """Per-document hidden states: list of (T_i, D) arrays in input order."""
    out: list = [None] * len(sequences)

    def collect(indices, ids, pad_mask, hidden):
        data = hidden.data
        for row, i in enumerate(indices):
            out[i] = data[row, : len(sequences[i])].copy()

    run_encoder(encoder, sequences, pad_id, config, collect)
    return out


def _masked_rows(sequences: list, positions: list, indices: np.ndarray,
                 hidden: Tensor) -> Tensor:
    """(B, D) hidden rows at each document's masked position.

    Positions beyond a truncated document clamp to its own last real token
    (never to a padding slot, whose value would depend on batch
    composition).
    """
    pos = np.array(
        [min(positions[i], max(len(sequences[i]), 1) - 1) for i in indices],
        dtype=np.int64,
    )
    return Tensor(hidden.data[np.arange(len(indices)), pos])


def mask_logits(encoder: TransformerEncoder, sequences: list, positions: list,
                pad_id: int, config: EngineConfig,
                dtype=np.float32) -> np.ndarray:
    """(N, V) vocabulary logits at one masked position per document.

    Rows are written straight into the output array per batch — nothing
    larger than (B, V) is ever materialized — and the output defaults to
    float32 (the seed kept an (N, V) float64 matrix alive throughout).
    """
    out = np.zeros((len(sequences), len(encoder.vocabulary)), dtype=dtype)

    def head(indices, ids, pad_mask, hidden):
        rows = _masked_rows(sequences, positions, indices, hidden)
        out[indices] = encoder.mlm_logits(rows).data

    run_encoder(encoder, sequences, pad_id, config, head)
    return out


def mask_topk(encoder: TransformerEncoder, sequences: list, positions: list,
              pad_id: int, config: EngineConfig, top_k: int) -> tuple:
    """Top-``k`` vocabulary ids and logits at each document's masked slot.

    Returns ``(ids, logits)`` of shape (N, k), each row sorted by
    descending logit. Only (B, V) logits exist transiently per batch, so
    LOTClass-style consumers never hold full-vocabulary matrices.
    """
    n = len(sequences)
    k = min(top_k, len(encoder.vocabulary))
    top_ids = np.zeros((n, k), dtype=np.int64)
    top_logits = np.zeros((n, k), dtype=np.float32)

    def head(indices, ids, pad_mask, hidden):
        rows = _masked_rows(sequences, positions, indices, hidden)
        logits = encoder.mlm_logits(rows).data  # (B, V)
        part = np.argpartition(-logits, k - 1, axis=1)[:, :k]
        values = np.take_along_axis(logits, part, axis=1)
        order = np.argsort(-values, axis=1, kind="stable")
        top_ids[indices] = np.take_along_axis(part, order, axis=1)
        top_logits[indices] = np.take_along_axis(values, order, axis=1)

    run_encoder(encoder, sequences, pad_id, config, head)
    return top_ids, top_logits
