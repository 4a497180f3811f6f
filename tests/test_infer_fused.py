"""Packed predict-only forward: float32-ulp equivalence with the Tensor path.

The oracle is the Tensor-based encoder under ``inference_mode``: the
packed forward mirrors its fused op order exactly, so outputs must
agree to float32 ulp on every batch shape — padded and unpadded — and
the engine must run an encoder through its pack exactly when one is
attached.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import inference_mode
from repro.plm.encoder import pad_batch
from repro.plm.infer import PackedEncoder, packed_encoder
from repro.plm.io import load_plm, save_plm
from repro.plm.model import PretrainedLM

pytestmark = pytest.mark.engine

#: One float32 ulp at the ~1e0 magnitudes layer-norm outputs live at,
#: with headroom for one reassociated BLAS accumulation.
ULP_ATOL = 2e-6


def _batch(plm, token_lists):
    vocab = plm.vocabulary
    seqs = [vocab.encode(t)[: plm.max_len] for t in token_lists]
    return pad_batch(seqs, vocab.pad_id, plm.max_len)


def _tensor_forward(plm, ids, mask):
    plm.encoder.eval()
    with inference_mode():
        return plm.encoder(ids, pad_mask=mask).data


def test_packed_matches_tensor_path_on_padded_batch(tiny_plm, agnews_small):
    docs = agnews_small.test_corpus.token_lists()[:16]
    ids, mask = _batch(tiny_plm, docs)
    assert mask.any(), "mixed-length batch should carry padding"
    reference = _tensor_forward(tiny_plm, ids, mask)
    packed = PackedEncoder(tiny_plm.encoder)
    np.testing.assert_allclose(packed.forward(ids, mask), reference,
                               atol=ULP_ATOL, rtol=0)


def test_packed_matches_on_unpadded_single_doc(tiny_plm, agnews_small):
    tokens = agnews_small.test_corpus.token_lists()[0]
    while len(tokens) < tiny_plm.max_len:
        tokens = tokens + tokens
    ids, mask = _batch(tiny_plm, [tokens[: tiny_plm.max_len]])
    assert not mask.any()
    reference = _tensor_forward(tiny_plm, ids, mask)
    packed = PackedEncoder(tiny_plm.encoder)
    np.testing.assert_allclose(packed.forward(ids, mask), reference,
                               atol=ULP_ATOL, rtol=0)


def test_packed_rejects_overlong_sequences(tiny_plm):
    packed = PackedEncoder(tiny_plm.encoder)
    ids = np.zeros((1, tiny_plm.max_len + 1), dtype=np.int64)
    with pytest.raises(ValueError, match="exceeds max_len"):
        packed.forward(ids, np.zeros_like(ids, dtype=bool))


def _float_copy(plm, tmp_path):
    """A fresh float encoder with ``plm``'s weights (nothing attached)."""
    return load_plm(save_plm(plm, tmp_path / "copy.npz"))


def test_packed_encoder_is_cached_per_encoder(tiny_plm, tmp_path):
    encoder = _float_copy(tiny_plm, tmp_path).encoder
    first = packed_encoder(encoder)
    assert packed_encoder(encoder) is first


def test_engine_packed_forward_end_to_end(tiny_plm, agnews_small, tmp_path,
                                          packed_forward_calls):
    docs = agnews_small.test_corpus.token_lists()[:12]
    baseline = PretrainedLM(tiny_plm.encoder, enc_cache=None).doc_embeddings(docs)
    calls = packed_forward_calls

    copy = _float_copy(tiny_plm, tmp_path)
    plain = PretrainedLM(copy.encoder, enc_cache=None).doc_embeddings(docs)
    assert calls["n"] == 0, "a float encoder keeps the Tensor forward"
    np.testing.assert_array_equal(plain, baseline)

    packed_encoder(copy.encoder)
    packed = PretrainedLM(copy.encoder, enc_cache=None).doc_embeddings(docs)
    assert calls["n"] > 0, "an attached pack should carry every batch"
    np.testing.assert_allclose(packed, baseline, atol=ULP_ATOL, rtol=0)
