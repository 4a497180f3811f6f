"""Equivalence and unit tests for the PLM inference engine.

The engine (no-grad eval, length-bucketed batching, encode cache) must be
invisible numerically: every entry point returns the same values as the
``seed_*`` references below, which call ``encoder(...)`` directly in
fixed corpus-order chunks with autograd recording — including on
degenerate inputs (empty documents, all-OOV documents, documents longer
than ``max_len``, batches of one).
"""

import numpy as np
import pytest

from repro.core.enc_cache import EncodeCache, doc_key
from repro.nn.functional import l2_normalize
from repro.nn.tensor import Tensor, inference_mode, is_grad_enabled
from repro.plm.config import PLMConfig
from repro.plm.encoder import TransformerEncoder, pad_batch
from repro.plm import engine
from repro.plm.engine import FORWARD_COST_TOKENS, EngineConfig, plan_batches
from repro.plm.model import PretrainedLM
from repro.text.vocabulary import MASK, Vocabulary

pytestmark = pytest.mark.engine


@pytest.fixture(scope="module")
def shared_encoder():
    rng = np.random.default_rng(7)
    vocab = Vocabulary.build([[f"w{i}" for i in range(60)]] * 3)
    config = PLMConfig(dim=16, n_layers=2, n_heads=2, ff_hidden=32, max_len=12)
    return TransformerEncoder(vocab, config, rng)


@pytest.fixture(scope="module")
def plain_plm(shared_encoder):
    """The engine without an encode cache."""
    return PretrainedLM(shared_encoder, enc_cache=None)


@pytest.fixture()
def fast_plm(shared_encoder):
    return PretrainedLM(shared_encoder, enc_cache=EncodeCache(),
                        engine_config=EngineConfig())


@pytest.fixture(scope="module")
def mixed_docs():
    """Mixed lengths plus every edge case the engine must survive."""
    docs = [[f"w{(i * 7 + j) % 60}" for j in range(1 + (i * 3) % 14)]
            for i in range(30)]
    docs[3] = []                                 # empty document
    docs[5] = ["zzz-oov"] * 4                    # fully out-of-vocabulary
    docs[7] = [f"w{j % 60}" for j in range(40)]  # longer than max_len
    return docs


def seed_encode_tokens(plm, token_lists):
    """The seed implementation, verbatim, as the ground truth."""
    vocab = plm.vocabulary
    sequences = [vocab.encode(t)[: plm.max_len] for t in token_lists]
    out = []
    for start in range(0, len(sequences), plm.batch_size):
        chunk = sequences[start : start + plm.batch_size]
        if not chunk:
            continue
        safe = [s if len(s) else np.array([vocab.unk_id]) for s in chunk]
        ids, mask = pad_batch(safe, vocab.pad_id, plm.max_len)
        hidden = plm.encoder(ids, pad_mask=mask).data
        for row, seq in zip(hidden, safe):
            out.append(row[: len(seq)].copy())
    return out


def seed_doc_embeddings(plm, token_lists, normalize=True):
    """The seed implementation (with its double vocab.encode), verbatim."""
    vocab = plm.vocabulary
    encoded = seed_encode_tokens(plm, token_lists)
    rows = []
    for tokens, hidden in zip(token_lists, encoded):
        ids = vocab.encode(list(tokens))[: hidden.shape[0]]
        keep = ids != vocab.unk_id
        rows.append(hidden[keep].mean(axis=0) if keep.any()
                    else hidden.mean(axis=0))
    out = np.stack(rows)
    return l2_normalize(out) if normalize else out


def seed_mask_logits(plm, token_lists, positions):
    """Full (B, T, V) projection per fixed chunk, rows at the masked slots."""
    vocab = plm.vocabulary
    sequences = plm._masked_sequences(token_lists, positions)
    rows = []
    for start in range(0, len(sequences), plm.batch_size):
        chunk = sequences[start : start + plm.batch_size]
        ids, mask = pad_batch(chunk, vocab.pad_id, plm.max_len)
        logits = plm.encoder.mlm_logits(plm.encoder(ids, pad_mask=mask)).data
        for row, seq, pos in zip(logits, chunk,
                                 positions[start : start + plm.batch_size]):
            rows.append(row[min(pos, max(len(seq), 1) - 1)])
    return np.stack(rows)


def seed_fill_mask(plm, tokens, top_k):
    """Top-``k`` (word, probability) from the full projection of one doc."""
    vocab = plm.vocabulary
    position = tokens.index(MASK)
    ids, mask = pad_batch([vocab.encode(tokens)[: plm.max_len]],
                          vocab.pad_id, plm.max_len)
    hidden = plm.encoder(ids, pad_mask=mask)
    logits = plm.encoder.mlm_logits(hidden).data[0, position]
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    for special_id in vocab.special_ids:
        probs[special_id] = 0.0
    probs /= probs.sum()
    idx = np.argsort(-probs)[:top_k]
    return [(vocab.token(int(i)), float(probs[i])) for i in idx]


# -- inference_mode ----------------------------------------------------------
def test_inference_mode_builds_no_graph():
    w = Tensor(np.ones((3, 3)), requires_grad=True)
    x = Tensor(np.arange(9.0).reshape(3, 3))
    with inference_mode():
        assert not is_grad_enabled()
        out = ((x @ w).gelu() + w).sum()
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
    assert is_grad_enabled()


def test_inference_mode_is_reentrant_and_restores():
    with inference_mode():
        with inference_mode():
            assert not is_grad_enabled()
        assert not is_grad_enabled()
    assert is_grad_enabled()


def test_inference_mode_values_match_grad_mode():
    w = Tensor(np.linspace(-1, 1, 9).reshape(3, 3), requires_grad=True)
    x = Tensor(np.arange(9.0).reshape(3, 3))
    tracked = ((x @ w).tanh() * 2.0).sum(axis=0).data
    with inference_mode():
        untracked = ((x @ w).tanh() * 2.0).sum(axis=0).data
    np.testing.assert_array_equal(tracked, untracked)


def test_params_still_trainable_after_inference_mode():
    w = Tensor(np.ones(4), requires_grad=True)
    with inference_mode():
        (w * 2.0).sum()
    loss = (w * 3.0).sum()
    loss.backward()
    np.testing.assert_allclose(w.grad, 3.0)


# -- batch planning ----------------------------------------------------------
def test_plan_batches_sorts_by_length_and_covers_all():
    lengths = [9, 1, 7, 2, 8, 3]
    batches = plan_batches(lengths, EngineConfig(batch_size=2), 12)
    flat = [i for batch in batches for i in batch]
    assert sorted(flat) == list(range(6))
    seen_lengths = [lengths[i] for i in flat]
    assert seen_lengths == sorted(seen_lengths)


def test_plan_batches_token_budget_grows_short_batches():
    # 8 docs of length 2 with budget 12 tokens -> batches of 6 docs, not 3.
    config = EngineConfig(batch_size=3, token_budget=12)
    batches = plan_batches([2] * 8, config, 12)
    assert max(len(b) for b in batches) > 3
    for batch in batches:
        assert len(batch) * 2 <= 12
    # Equal lengths pad nothing, so they fill the budget exactly.
    assert [len(b) for b in plan_batches([48] * 70, EngineConfig(), 48)] == [
        32, 32, 6]
    config = EngineConfig(token_budget=480)
    assert [len(b) for b in plan_batches([8] * 100, config, 48)] == [60, 40]


def test_plan_batches_empty_input():
    assert plan_batches([], EngineConfig(), 12) == []


def test_plan_batches_splits_short_from_long():
    # Padding 4 docs from 8 to 48 tokens costs 160 padded tokens, more
    # than one more forward: short and long docs run as two batches.
    batches = plan_batches([8] * 4 + [48] * 4, EngineConfig(), 48)
    assert [sorted(b.tolist()) for b in batches] == [[0, 1, 2, 3],
                                                    [4, 5, 6, 7]]


def test_plan_batches_does_not_split_a_gentle_ramp():
    # Each one-token step pads the batch by its size, which passes
    # FORWARD_COST_TOKENS only once the batch holds more documents than
    # that: lengths 1..200 split at most every 57 documents.
    assert FORWARD_COST_TOKENS >= 48
    unbounded = EngineConfig(token_budget=10 ** 6)
    assert len(plan_batches(list(range(1, 49)), unbounded, 48)) == 1
    assert len(plan_batches(list(range(1, 49)), EngineConfig(), 48)) <= 2
    assert len(plan_batches(list(range(1, 201)), unbounded, 200)) <= 4


def test_request_shape_embeddings_equal_the_one_batch_plan(monkeypatch):
    """A serve-http-shaped request (4 docs of 8 tokens, 4 at ``max_len``)
    runs as two forwards, bit-identical to one batch padded to 48."""
    vocab = Vocabulary.build([[f"w{i}" for i in range(60)]] * 3)
    encoder = TransformerEncoder(vocab, PLMConfig(),
                                 np.random.default_rng(11))
    plm = PretrainedLM(encoder, enc_cache=None)
    docs = ([[f"w{(i * 5 + j) % 60}" for j in range(8)] for i in range(4)]
            + [[f"w{(i * 3 + j) % 60}" for j in range(60)] for i in range(4)])
    planned = []

    def spy(lengths, config, max_len):
        planned.append(plan_batches(lengths, config, max_len))
        return planned[-1]

    monkeypatch.setattr(engine, "plan_batches", spy)
    split = plm.doc_embeddings(docs)
    monkeypatch.setattr(engine, "FORWARD_COST_TOKENS", 10 ** 9)
    whole = plm.doc_embeddings(docs)
    assert [len(p) for p in planned] == [2, 1]
    assert np.array_equal(split, whole)


# -- encode equivalence ------------------------------------------------------
def test_encode_tokens_matches_seed_reference(plain_plm, fast_plm, mixed_docs):
    reference = seed_encode_tokens(plain_plm, mixed_docs)
    for plm in (plain_plm, fast_plm):
        out = plm.encode_tokens(mixed_docs)
        assert len(out) == len(reference)
        for got, want in zip(out, reference):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, atol=1e-9)


def test_doc_embeddings_matches_seed_reference(plain_plm, fast_plm, mixed_docs):
    for normalize in (True, False):
        reference = seed_doc_embeddings(plain_plm, mixed_docs, normalize)
        for plm in (plain_plm, fast_plm):
            got = plm.doc_embeddings(mixed_docs, normalize=normalize)
            np.testing.assert_allclose(got, reference, atol=1e-9)


def test_encode_batch_of_one(plain_plm, fast_plm):
    doc = [["w1", "w2", "w3"]]
    np.testing.assert_allclose(seed_encode_tokens(plain_plm, doc)[0],
                               fast_plm.encode_tokens(doc)[0], atol=1e-9)
    np.testing.assert_allclose(seed_doc_embeddings(plain_plm, doc),
                               fast_plm.doc_embeddings(doc), atol=1e-9)


def test_encode_tokens_results_are_caller_owned(fast_plm):
    docs = [["w1", "w2"]]
    first = fast_plm.encode_tokens(docs)[0]
    first[:] = 0.0  # mutate the returned array
    second = fast_plm.encode_tokens(docs)[0]
    assert not np.allclose(second, 0.0)  # the cache entry was not clobbered


# -- mask logits equivalence -------------------------------------------------
def test_mask_logits_batch_matches_naive(plain_plm, fast_plm, mixed_docs):
    docs = [d if d else ["w1", "w2"] for d in mixed_docs]
    positions = [min(1, len(d) - 1) for d in docs]
    naive = seed_mask_logits(plain_plm, docs, positions).astype(np.float32)
    for plm in (plain_plm, fast_plm):
        got = plm.mask_logits_batch(docs, positions)
        assert got.dtype == np.float32
        np.testing.assert_allclose(naive, got, atol=1e-6)


def test_mask_logits_gathered_head_matches_full_projection(plain_plm):
    """Position-gathered MLM head == full (B, T, V) projection rows."""
    docs = [["w3", "w4", "w5", "w6"], ["w9", "w10"]]
    positions = [2, 0]
    got = plain_plm.mask_logits_batch(docs, positions)
    vocab = plain_plm.vocabulary
    sequences = plain_plm._masked_sequences(docs, positions)
    ids, mask = pad_batch(sequences, vocab.pad_id, plain_plm.max_len)
    hidden = plain_plm.encoder(ids, pad_mask=mask)
    full = plain_plm.encoder.mlm_logits(hidden).data
    want = np.stack([full[i, p] for i, p in enumerate(positions)])
    np.testing.assert_allclose(got, want.astype(np.float32), atol=1e-6)


def test_mask_topk_matches_full_argsort(plain_plm, fast_plm):
    docs = [[f"w{(i + j) % 60}" for j in range(3 + i % 9)] for i in range(12)]
    positions = [i % 3 for i in range(12)]
    k = 7
    logits = seed_mask_logits(plain_plm, docs, positions).astype(np.float64)
    full_top = np.argsort(-logits, axis=1)[:, :k]
    top = fast_plm.mask_topk_batch(docs, positions, k)
    assert top.shape == (12, k)
    for got, want in zip(top, full_top):
        assert set(got.tolist()) == set(want.tolist())


def test_fill_mask_matches_naive(plain_plm, fast_plm):
    tokens = ["w1", "w2", MASK, "w4"]
    naive = seed_fill_mask(plain_plm, tokens, top_k=6)
    for plm in (plain_plm, fast_plm):
        got = plm.fill_mask(tokens, top_k=6)
        assert [w for w, _ in naive] == [w for w, _ in got]
        np.testing.assert_allclose([p for _, p in naive], [p for _, p in got],
                                   atol=1e-9)


# -- encode cache ------------------------------------------------------------
def test_cache_hits_on_reencode(shared_encoder, mixed_docs):
    cache = EncodeCache()
    plm = PretrainedLM(shared_encoder, enc_cache=cache)
    first = plm.doc_embeddings(mixed_docs)
    assert cache.hits == 0 and cache.misses == len(mixed_docs)
    second = plm.doc_embeddings(mixed_docs)
    np.testing.assert_array_equal(first, second)
    assert cache.hits == len(mixed_docs)


def test_cache_shared_across_models_with_same_weights(shared_encoder):
    cache = EncodeCache()
    docs = [["w1", "w2", "w3"], ["w4"]]
    one = PretrainedLM(shared_encoder, enc_cache=cache)
    two = PretrainedLM(shared_encoder, enc_cache=cache)
    one.doc_embeddings(docs)
    two.doc_embeddings(docs)
    assert cache.hits == len(docs)  # second model reused the first's work


def test_cache_lru_eviction_respects_budget():
    cache = EncodeCache(max_bytes=4 * 80)  # room for ~4 tiny arrays
    for i in range(10):
        cache.put("ns", f"k{i}", np.full((10,), float(i)))
    assert cache.nbytes <= 4 * 80
    assert cache.evictions > 0
    assert cache.get("ns", "k9") is not None  # most recent survives
    assert cache.get("ns", "k0") is None      # oldest evicted


def test_cache_disk_tier_roundtrip(tmp_path):
    cache = EncodeCache(disk_dir=tmp_path)
    value = np.arange(12.0).reshape(3, 4)
    cache.put("ns", "doc", value)
    cache.flush_shards()
    fresh = EncodeCache(disk_dir=tmp_path)  # cold memory tier, warm disk
    got = fresh.get("ns", "doc")
    np.testing.assert_array_equal(got, value)
    assert fresh.disk_hits == 1


def test_cache_namespace_isolates_models(shared_encoder):
    cache = EncodeCache()
    cache.put("other-namespace", doc_key(np.array([1, 2, 3])), np.zeros((3, 16)))
    plm = PretrainedLM(shared_encoder, enc_cache=cache)
    emb = plm.doc_embeddings([["w1", "w2", "w3"]])
    assert not np.allclose(emb, 0.0)  # foreign entry never served


def test_duplicate_docs_encoded_once_per_call(shared_encoder):
    cache = EncodeCache()
    plm = PretrainedLM(shared_encoder, enc_cache=cache)
    docs = [["w1", "w2"]] * 10 + [["w3"]] * 5
    emb = plm.doc_embeddings(docs)
    assert len(cache) == 2  # only the unique documents hit the encoder
    np.testing.assert_allclose(emb[0], emb[9])
    np.testing.assert_allclose(emb[10], emb[14])
    single = plm.doc_embeddings([["w1", "w2"]])
    np.testing.assert_allclose(single[0], emb[0])


# -- attention storage -------------------------------------------------------
def test_attention_storage_defaults_off(shared_encoder, fast_plm):
    fast_plm.encode_tokens([["w1", "w2", "w3"]])
    assert all(m is None for m in shared_encoder.attention_maps())


def test_encode_with_attention_still_works_and_restores(shared_encoder,
                                                        fast_plm):
    hidden, attention = fast_plm.encode_with_attention(["w1", "w2", "w3"])
    assert hidden.shape == (3, fast_plm.dim)
    assert attention.shape[-2:] == (3, 3)
    # float32 softmax: rows sum to 1 within a few ulps.
    np.testing.assert_allclose(attention.sum(axis=-1), 1.0, atol=1e-6)
    assert all(not block.attn.store_attention
               for block in shared_encoder.blocks)
    assert all(m is None for m in shared_encoder.attention_maps())
