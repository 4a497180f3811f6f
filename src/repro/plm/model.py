"""User-facing facade over the pre-trained transformer.

All read paths run through the inference engine
(:mod:`repro.plm.engine`): gradient-free, length-bucketed, and — when a
cache is wired in (:mod:`repro.core.enc_cache`) — sharing per-document
hidden states across every method that touches the same corpus.
"""

from __future__ import annotations

import numpy as np

from repro.core.enc_cache import EncodeCache, array_digest, doc_key
from repro.nn.functional import l2_normalize, masked_mean_pool
from repro.nn.tensor import Tensor, inference_mode
from repro.plm import engine
from repro.plm.encoder import TransformerEncoder, pad_batch
from repro.plm.engine import EngineConfig
from repro.text.vocabulary import MASK, Vocabulary


class PretrainedLM:
    """A pre-trained language model exposing BERT-style interfaces.

    Wraps a :class:`TransformerEncoder` with batched encoding, pooled
    document embeddings, masked-token ranking, and attention access.

    Parameters
    ----------
    encoder:
        The (frozen) pre-trained encoder.
    batch_size:
        Baseline sequences per batch; the engine's token budget scales the
        effective batch up for short documents.
    enc_cache:
        Optional :class:`~repro.core.enc_cache.EncodeCache` shared across
        models — the provider wires in a process-wide instance so the
        second method to encode a corpus gets its hidden states for free.
        ``None`` encodes every call uncached.
    engine_config:
        Batch-shape knobs; defaults honour ``REPRO_ENGINE_TOKEN_BUDGET``.
    seed:
        The pre-training seed. Fine-tuning heads (NLI, ELECTRA) derive
        their training corpus and initialization from it, so a model
        loaded from an archive gets the same heads as its source.
    """

    def __init__(self, encoder: TransformerEncoder, batch_size: int = 32,
                 enc_cache: "EncodeCache | None" = None,
                 engine_config: "EngineConfig | None" = None,
                 seed: int = 0):
        self.encoder = encoder
        self.seed = seed
        self.batch_size = batch_size
        self.engine = engine_config or EngineConfig.from_env(batch_size=batch_size)
        self.enc_cache = enc_cache
        self._cache_namespace: "str | None" = None
        self.encoder.eval()

    @property
    def vocabulary(self) -> Vocabulary:
        return self.encoder.vocabulary

    @property
    def dim(self) -> int:
        return self.encoder.config.dim

    @property
    def max_len(self) -> int:
        return self.encoder.config.max_len

    @property
    def cache_namespace(self) -> str:
        """Content identity of this model for the encode cache.

        A digest of the config plus every parameter array, computed lazily
        on first cached encode. Read paths assume frozen weights (true for
        everything built on this facade); anything that re-trains the
        encoder must construct a fresh ``PretrainedLM``.
        """
        if self._cache_namespace is None:
            self._cache_namespace = array_digest(
                [p.data for p in self.encoder.parameters()],
                extra=repr(self.encoder.config.cache_key()),
            )
        return self._cache_namespace

    # -- encoding -----------------------------------------------------------
    def _encode_ids(self, token_lists: list) -> tuple:
        """Hidden states plus encoded ids, one encode pass, cache-aware.

        Returns ``(hidden_list, ids_list)``: per-document (T_i, dim)
        contextual vectors and the (truncated) id arrays they were encoded
        from. Empty documents are substituted with a single ``[UNK]`` for
        the forward (their ``ids`` entry stays empty, which downstream
        pooling uses to detect the fallback case). Returned hidden arrays
        may be cache-owned — callers that hand them out copy first.
        """
        vocab = self.vocabulary
        ids_list = [vocab.encode(t)[: self.max_len] for t in token_lists]
        safe = [s if len(s) else np.array([vocab.unk_id], dtype=np.int64)
                for s in ids_list]
        hidden: list = [None] * len(safe)
        cache = self.enc_cache
        keys: "list | None" = None
        misses = list(range(len(safe)))
        if cache is not None:
            namespace = self.cache_namespace
            keys = [doc_key(s) for s in safe]
            misses = []
            first_by_key: dict = {}
            for i, key in enumerate(keys):
                found = cache.get(namespace, key)
                if found is not None:
                    hidden[i] = found
                elif key in first_by_key:
                    pass  # duplicate within this call: encoded once below
                else:
                    first_by_key[key] = i
                    misses.append(i)
        if misses:
            encoded = engine.encode_hidden(
                self.encoder, [safe[i] for i in misses], vocab.pad_id, self.engine
            )
            for i, states in zip(misses, encoded):
                hidden[i] = states
                if cache is not None:
                    cache.put(self.cache_namespace, keys[i], states)
        if cache is not None:
            for i, key in enumerate(keys):
                if hidden[i] is None:  # duplicate: share the first copy's states
                    hidden[i] = hidden[first_by_key[key]]
        return hidden, ids_list

    def encode_tokens(self, token_lists: list) -> list:
        """Contextualized vectors per document: list of (T_i, dim) arrays.

        Documents longer than ``max_len`` are truncated (documented
        substitution for sliding-window encoding).
        """
        hidden, _ = self._encode_ids(token_lists)
        if self.enc_cache is not None:
            return [states.copy() for states in hidden]  # protect the cache
        return hidden

    def doc_embeddings(self, token_lists: list, normalize: bool = True) -> np.ndarray:
        """Average-pooled contextual document embeddings (N, dim).

        Out-of-vocabulary positions are excluded from the pool (their UNK
        vectors carry no content); fully-OOV documents fall back to the
        plain mean. Ids come straight from the encode pass — documents are
        encoded exactly once.
        """
        unk = self.vocabulary.unk_id
        hidden, ids_list = self._encode_ids(token_lists)
        rows = [masked_mean_pool(states, ids != unk)
                for states, ids in zip(hidden, ids_list)]
        out = np.stack(rows)
        return l2_normalize(out) if normalize else out

    def encode_with_attention(self, tokens: list) -> tuple:
        """(hidden (T, dim), last-layer attention (heads, T, T)) for one doc.

        Attention storage is off by default; this temporarily enables it
        for the single forward.
        """
        vocab = self.vocabulary
        seq = vocab.encode(tokens)[: self.max_len]
        if len(seq) == 0:
            seq = np.array([vocab.unk_id], dtype=np.int64)
        ids, mask = pad_batch([seq], vocab.pad_id, self.max_len)
        self.encoder.set_store_attention(True)
        try:
            with inference_mode():
                hidden = self.encoder(ids, pad_mask=mask).data[0]
            attention = self.encoder.attention_maps()[-1][0]  # (H, T, T)
        finally:
            self.encoder.set_store_attention(False)
        return hidden[: len(seq)], attention[:, : len(seq), : len(seq)]

    # -- masked prediction -----------------------------------------------------
    def predict_masked(self, tokens: list, position: int, top_k: int = 10,
                       exclude_specials: bool = True) -> list:
        """Top-``k`` (word, probability) the model predicts at ``position``.

        The token at ``position`` is replaced by ``[MASK]`` before scoring —
        LOTClass's replacement-word query.
        """
        working = list(tokens)
        if not 0 <= position < len(working):
            raise IndexError(f"position {position} out of range")
        working[position] = MASK
        return self.fill_mask(working, top_k=top_k,
                              exclude_specials=exclude_specials)

    def fill_mask(self, tokens: list, top_k: int = 10,
                  exclude_specials: bool = True) -> list:
        """Top-``k`` (word, probability) for the single ``[MASK]`` in ``tokens``."""
        if MASK not in tokens:
            raise ValueError("tokens contain no [MASK]")
        position = tokens.index(MASK)
        vocab = self.vocabulary
        seq = vocab.encode(tokens)[: self.max_len]
        if position >= self.max_len:
            raise ValueError("mask position beyond max_len after truncation")
        ids, mask = pad_batch([seq], vocab.pad_id, self.max_len)
        with inference_mode():
            hidden = self.encoder(ids, pad_mask=mask)
            # The MLM head is position-wise: project just the masked row.
            row = Tensor(hidden.data[0, position][None, :])
            logits = self.encoder.mlm_logits(row).data[0]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        if exclude_specials:
            for special_id in vocab.special_ids:
                probs[special_id] = 0.0
            probs /= probs.sum()
        idx = np.argsort(-probs)[:top_k]
        return [(vocab.token(int(i)), float(probs[i])) for i in idx]

    def _masked_sequences(self, token_lists: list, positions: list) -> list:
        vocab = self.vocabulary
        sequences = []
        for tokens, pos in zip(token_lists, positions):
            working = list(tokens)
            working[pos] = MASK
            sequences.append(vocab.encode(working)[: self.max_len])
        return sequences

    def mask_logits_batch(self, token_lists: list, positions: list) -> np.ndarray:
        """Vocabulary logits at one masked position per document (N, V).

        The result is float32 and rows are filled batch by batch; callers
        that only need a ranking should prefer :meth:`mask_topk_batch`,
        which never materializes full-vocabulary rows.
        """
        sequences = self._masked_sequences(token_lists, positions)
        return engine.mask_logits(self.encoder, sequences, positions,
                                  self.vocabulary.pad_id, self.engine)

    def mask_topk_batch(self, token_lists: list, positions: list,
                        top_k: int) -> np.ndarray:
        """Top-``k`` vocabulary ids by masked-slot logit per document (N, k).

        Rows are sorted by descending logit; only (B, V) logits exist
        transiently per batch.
        """
        sequences = self._masked_sequences(token_lists, positions)
        ids, _ = engine.mask_topk(self.encoder, sequences, positions,
                                  self.vocabulary.pad_id, self.engine, top_k)
        return ids

    def word_embedding(self, word: str) -> np.ndarray:
        """Static (non-contextual) input embedding of ``word``."""
        return self.encoder.token_embedding.weight.data[self.vocabulary.id(word)]

    def __repr__(self) -> str:
        cfg = self.encoder.config
        return (
            f"PretrainedLM(dim={cfg.dim}, layers={cfg.n_layers}, "
            f"vocab={len(self.vocabulary)})"
        )
