"""Construction and caching of pre-trained models.

Pre-training is the expensive step, so fitted models are cached in-process
keyed by (config, a digest of the target corpus's tokens, seed). Methods
obtain their PLM via :func:`get_pretrained_lm`, optionally passing the
unlabeled target corpus for domain-adaptive continued pre-training — which
also guarantees the model's vocabulary covers the corpus (our stand-in for
subword tokenization). A caller that shares models across processes passes
an ``archive`` path: the model is loaded from it when readable, and
pre-trained and saved there otherwise.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

from repro import obs
from repro.core.enc_cache import EncodeCache
from repro.core.exceptions import ArtifactError
from repro.core.seeding import ensure_rng
from repro.core.types import Corpus
from repro.datasets.pretraining import general_corpus
from repro.plm.config import PLMConfig
from repro.plm.electra import ElectraDiscriminator
from repro.plm.encoder import TransformerEncoder
from repro.plm.io import load_plm, save_plm
from repro.plm.model import PretrainedLM
from repro.plm.nli import RelevanceModel
from repro.plm.pretrainer import (
    build_plm_vocabulary,
    init_token_embeddings,
    pretrain_mlm,
)

_PLM_CACHE: dict = {}
_ELECTRA_CACHE: dict = {}
_NLI_CACHE: dict = {}
_ENC_CACHE: "list[EncodeCache | None]" = []  # lazily-built singleton slot


def shared_encode_cache() -> "EncodeCache | None":
    """The process-wide document-encoding cache (None when disabled).

    Built once from the environment (``REPRO_ENC_CACHE*``) and wired into
    every provider-constructed :class:`PretrainedLM`, so all methods that
    encode the same corpus through the same model share hidden states.
    This module is the only one that wires it: a model loaded with
    :func:`~repro.plm.io.load_plm` (a served artifact, say) encodes every
    document it is given.
    """
    if not _ENC_CACHE:
        _ENC_CACHE.append(EncodeCache.from_env())
    return _ENC_CACHE[0]


def clear_cache() -> None:
    """Drop all cached models and encodings (tests use this for isolation)."""
    _PLM_CACHE.clear()
    _ELECTRA_CACHE.clear()
    _NLI_CACHE.clear()
    _pretraining_corpus.cache_clear()
    if _ENC_CACHE and _ENC_CACHE[0] is not None:
        _ENC_CACHE[0].clear()


def corpus_digest(corpus: "Corpus | None") -> str:
    """Content identity of a target corpus: a digest of its tokens.

    Pre-training reads only the documents' tokens, so two corpora with
    equal token streams share a model and any other two never do.
    """
    h = hashlib.blake2b(digest_size=16)
    if corpus is not None:
        for tokens in corpus.token_lists():
            h.update("\x1f".join(tokens).encode("utf-8"))
            h.update(b"\x1e")
    return h.hexdigest()


@lru_cache(maxsize=4)
def _pretraining_corpus(seed: int, n_docs: int) -> Corpus:
    """The general pre-training corpus a model with ``seed`` was built on.

    The one place it is built: :func:`get_pretrained_lm` pre-trains on
    it, and the fine-tuning heads train on it again (pass the model's
    ``config.pretrain_docs``).
    """
    return general_corpus(seed=seed, n_docs=n_docs)


def _pretrain(target_corpus: "Corpus | None", config: PLMConfig,
              seed: int) -> PretrainedLM:
    obs.count("plm.pretrains")
    rng = ensure_rng(seed)
    streams = _pretraining_corpus(seed, config.pretrain_docs).token_lists()
    if target_corpus is not None:
        streams = streams + target_corpus.token_lists()
    vocabulary = build_plm_vocabulary(streams)
    encoder = TransformerEncoder(vocabulary, config, rng)
    if config.init_from_svd:
        init_token_embeddings(encoder, streams, config, seed=seed)
    pretrain_mlm(encoder, streams, config, seed=rng)
    return PretrainedLM(encoder, enc_cache=shared_encode_cache(), seed=seed)


def _load_archive(archive: Path) -> "PretrainedLM | None":
    try:
        plm = load_plm(archive)
    except ArtifactError:  # missing or unreadable: pre-train instead
        return None
    obs.count("plm.archive_loads")
    # The cache is content-addressed (weights digest), so the loaded
    # model shares cached encodings with the process that saved it.
    plm.enc_cache = shared_encode_cache()
    return plm


def _save_archive(plm: PretrainedLM, archive: Path) -> None:
    try:
        archive.parent.mkdir(parents=True, exist_ok=True)
        save_plm(plm, archive)
    except OSError:
        pass  # a read-only store degrades to in-process caching


def get_pretrained_lm(target_corpus: "Corpus | None" = None,
                      config: "PLMConfig | None" = None,
                      seed: int = 0,
                      archive: "str | Path | None" = None) -> PretrainedLM:
    """A pre-trained LM, domain-adapted to ``target_corpus`` when given.

    ``archive`` names a :func:`~repro.plm.io.save_plm` file the caller
    keys by the same identity (config, corpus digest, seed): a readable
    archive is loaded instead of pre-training, and a missing or
    unreadable one is (over)written with the freshly pre-trained model.
    """
    config = config or PLMConfig()
    key = (config.cache_key(), corpus_digest(target_corpus), seed)
    if key in _PLM_CACHE:
        return _PLM_CACHE[key]
    plm = _load_archive(Path(archive)) if archive is not None else None
    if plm is None:
        plm = _pretrain(target_corpus, config, seed)
        if archive is not None:
            _save_archive(plm, Path(archive))
    _PLM_CACHE[key] = plm
    return plm


def get_electra(plm: PretrainedLM, config: "PLMConfig | None" = None) -> ElectraDiscriminator:
    """The replaced-token-detection head for ``plm`` (trained once, cached)."""
    key = id(plm)
    if key in _ELECTRA_CACHE:
        return _ELECTRA_CACHE[key]
    config = config or plm.encoder.config
    seed = plm.seed
    pretrain = _pretraining_corpus(seed, plm.encoder.config.pretrain_docs)
    discriminator = ElectraDiscriminator(plm, seed=seed)
    discriminator.train(pretrain.token_lists(), steps=config.electra_steps,
                        batch_size=config.batch_size, seed=seed + 1)
    _ELECTRA_CACHE[key] = discriminator
    return discriminator


def get_relevance_model(plm: PretrainedLM, steps: int = 150) -> RelevanceModel:
    """The NLI-style relevance model for ``plm`` (trained once, cached).

    Fine-tuned on synthetic entailment pairs built from the pre-training
    corpus, whose documents carry their generating theme as provenance.
    """
    key = id(plm)
    if key in _NLI_CACHE:
        return _NLI_CACHE[key]
    seed = plm.seed
    pretrain = _pretraining_corpus(seed, plm.encoder.config.pretrain_docs)
    token_lists = pretrain.token_lists()
    themes = [doc.labels[0] for doc in pretrain]
    theme_names = {theme: [theme.split(":", 1)[-1]] for theme in set(themes)}
    model = RelevanceModel(plm, seed=seed)
    model.train_synthetic(token_lists, themes, theme_names, steps=steps,
                          seed=seed + 2)
    _NLI_CACHE[key] = model
    return model
