"""Training-path micro-benchmark: seed training loops vs the compute engine.

Times this PR's training engine (float32 default dtype, fused kernels,
in-place optimizer updates, one-shot ``BatchPlan`` batch prep) against the
**seed** training path reimplemented verbatim — float64 everywhere,
composite autograd kernels, the allocating Adam/clip updates, and a
per-step Python padding loop:

- **PLM pre-training** — masked-LM steps over a synthetic corpus;
- **TokenClassifier.fit** — the attentive classifier's minibatch loop.

Asserts >= 1.8x on pre-training and >= 1.5x on classifier fitting, and
records ``BENCH_training.json``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from conftest import write_bench_artifact
from repro.classifiers import AttentiveClassifier
from repro.classifiers.base import as_soft_targets
from repro.datasets.pretraining import general_corpus
from repro.nn.optim import Adam
from repro.nn.tensor import default_dtype
from repro.plm.config import PLMConfig
from repro.plm.encoder import TransformerEncoder, pad_batch
from repro.plm.pretrainer import IGNORE, _mask_tokens, pretrain_mlm
from repro.text.vocabulary import Vocabulary

# The composite kernels live with the test suite, as its oracle.
REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))
from tests import composite_kernels  # noqa: E402

MIN_PRETRAIN_SPEEDUP = 1.8
MIN_FIT_SPEEDUP = 1.5


class _SeedAdam:
    """The seed Adam + clip, verbatim: every update allocates."""

    def __init__(self, parameters, lr, betas=(0.9, 0.999), eps=1e-8):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def zero_grad(self):
        for p in self.parameters:
            p.zero_grad(set_to_none=False)

    def clip_grad_norm(self, max_norm):
        total = 0.0
        for p in self.parameters:
            if p.grad is not None:
                total += float((p.grad**2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.parameters:
                if p.grad is not None:
                    p.grad = p.grad * scale
        return norm

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps))


def _seed_pretrain_mlm(encoder, token_lists, config, seed):
    """The seed pretraining loop, verbatim (per-step pad_batch)."""
    rng = np.random.default_rng(seed)
    vocab = encoder.vocabulary
    train_len = min(config.max_len, config.pretrain_max_len)
    sequences = [vocab.encode(t)[:train_len] for t in token_lists if t]
    optimizer = _SeedAdam(encoder.parameters(), lr=config.lr)
    for _ in range(config.mlm_steps):
        idx = rng.integers(0, len(sequences), size=config.batch_size)
        batch_ids, pad_mask = pad_batch([sequences[i] for i in idx],
                                        vocab.pad_id, train_len)
        corrupted, targets = _mask_tokens(batch_ids, pad_mask, vocab,
                                          config.mlm_prob, rng)
        hidden = encoder(corrupted, pad_mask=pad_mask)
        rows, cols = np.nonzero(targets != IGNORE)
        picked = hidden[rows, cols]
        logits = encoder.mlm_logits(picked)
        loss = composite_kernels.cross_entropy(logits, targets[rows, cols])
        optimizer.zero_grad()
        loss.backward()
        optimizer.clip_grad_norm(5.0)
        optimizer.step()


def _seed_fit(model, token_lists, targets, epochs, batch_size=32, lr=2e-3):
    """The seed TokenClassifier.fit loop, verbatim."""
    soft = as_soft_targets(targets, model.n_classes)
    sequences = model._encode(token_lists)
    optimizer = _SeedAdam(model.parameters(), lr=lr)
    model.train()
    n = len(sequences)
    for _ in range(epochs):
        order = model.rng.permutation(n)
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            ids, pad_mask = pad_batch([sequences[i] for i in take],
                                      model.vocabulary.pad_id, model.max_len)
            logits = model._forward(ids, pad_mask)
            loss = composite_kernels.soft_cross_entropy(logits, soft[take])
            optimizer.zero_grad()
            loss.backward()
            optimizer.clip_grad_norm(5.0)
            optimizer.step()
    model.eval()


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _classifier_task(n_docs: int = 600, seed: int = 0) -> tuple:
    rng = np.random.default_rng(seed)
    themes = [["alpha", "beta", "gamma"], ["delta", "epsilon", "zeta"],
              ["eta", "theta", "iota"], ["kappa", "lam", "mu"]]
    docs, targets = [], []
    for i in range(n_docs):
        cls = i % len(themes)
        words = themes[cls]
        docs.append([words[int(rng.integers(0, 3))]
                     for _ in range(int(rng.integers(8, 28)))])
        targets.append(cls)
    return docs, np.asarray(targets)


def test_training_engine_speedups():
    config = PLMConfig(dim=48, n_layers=2, n_heads=4, ff_hidden=96,
                       mlm_steps=80, batch_size=32, init_from_svd=False)
    corpus = general_corpus(seed=0, n_docs=400).token_lists()
    docs, targets = _classifier_task()
    seconds = {"pretrain": {}, "fit": {}}

    # Seed configuration: float64, composite kernels, allocating updates.
    with composite_kernels.swapped_in():
        with default_dtype("float64"):
            vocab = Vocabulary.build(corpus)
            encoder = TransformerEncoder(vocab, config,
                                         np.random.default_rng(0))
            warm = PLMConfig(**{**config.__dict__, "mlm_steps": 1})
            _seed_pretrain_mlm(encoder, corpus, warm, seed=1)  # warm-up
            seconds["pretrain"]["seed"] = _timed(
                lambda: _seed_pretrain_mlm(encoder, corpus, config, seed=2)
            )
            cls_vocab = Vocabulary.build(docs)
            model = AttentiveClassifier(cls_vocab, 4, dim=32, max_len=32,
                                        seed=0)
            _seed_fit(model, docs, targets, epochs=1)  # warm-up
            seconds["fit"]["seed"] = _timed(
                lambda: _seed_fit(model, docs, targets, epochs=10)
            )

    # Engine configuration: float32, fused kernels, in-place optimizers,
    # BatchPlan batch prep — the library defaults after this PR.
    with default_dtype("float32"):
        vocab = Vocabulary.build(corpus)
        encoder = TransformerEncoder(vocab, config, np.random.default_rng(0))
        warm = PLMConfig(**{**config.__dict__, "mlm_steps": 1})
        pretrain_mlm(encoder, corpus, warm, seed=1)  # warm-up
        seconds["pretrain"]["engine"] = _timed(
            lambda: pretrain_mlm(encoder, corpus, config, seed=2)
        )
        cls_vocab = Vocabulary.build(docs)
        model = AttentiveClassifier(cls_vocab, 4, dim=32, max_len=32, seed=0)
        model.fit(docs, targets, epochs=1)  # warm-up
        seconds["fit"]["engine"] = _timed(
            lambda: model.fit(docs, targets, epochs=10)
        )

    pretrain_speedup = seconds["pretrain"]["seed"] / seconds["pretrain"]["engine"]
    fit_speedup = seconds["fit"]["seed"] / seconds["fit"]["engine"]
    print(f"\npretrain: seed {seconds['pretrain']['seed']:.2f}s, "
          f"engine {seconds['pretrain']['engine']:.2f}s ({pretrain_speedup:.2f}x)")
    print(f"fit:      seed {seconds['fit']['seed']:.2f}s, "
          f"engine {seconds['fit']['engine']:.2f}s ({fit_speedup:.2f}x)")

    write_bench_artifact("training", {
        "configs": {
            "seed": {"dtype": "float64", "fused": False,
                     "optimizer": "allocating", "batch_prep": "pad_batch"},
            "engine": {"dtype": "float32", "fused": True,
                       "optimizer": "in-place", "batch_prep": "BatchPlan"},
        },
        "pretrain_seconds": seconds["pretrain"],
        "fit_seconds": seconds["fit"],
        "pretrain_speedup": round(pretrain_speedup, 3),
        "fit_speedup": round(fit_speedup, 3),
        "mlm_steps": config.mlm_steps,
        "min_pretrain_speedup": MIN_PRETRAIN_SPEEDUP,
        "min_fit_speedup": MIN_FIT_SPEEDUP,
    })

    assert pretrain_speedup >= MIN_PRETRAIN_SPEEDUP, seconds
    assert fit_speedup >= MIN_FIT_SPEEDUP, seconds
