"""Tests for the neural classifier substrate."""

import numpy as np
import pytest

from repro.classifiers import (
    AttentiveClassifier,
    BagOfEmbeddingsClassifier,
    LogisticRegression,
    SelfTrainingLoop,
    TextCNNClassifier,
    sharpen_distribution,
)
from repro.classifiers.base import as_soft_targets
from repro.core.exceptions import NotFittedError
from repro.nn.functional import sliding_windows
from repro.nn.tensor import Tensor, concatenate, default_dtype
from repro.text.vocabulary import Vocabulary


def _toy_task(rng, n=80):
    """Linearly separable 2-class token task."""
    docs, targets = [], []
    for i in range(n):
        cls = i % 2
        words = (["red", "crimson", "scarlet"] if cls == 0
                 else ["blue", "azure", "navy"])
        doc = [words[int(rng.integers(0, 3))] for _ in range(6)]
        doc += ["filler"] * 2
        docs.append(doc)
        targets.append(cls)
    vocab = Vocabulary.build(docs)
    return docs, np.array(targets), vocab


def _gather_windows(x: Tensor, window: int) -> Tensor:
    """Reference window op: the advanced-index gather, then a reshape."""
    batch, seq, dim = x.shape
    idx = np.arange(seq - window + 1)[:, None] + np.arange(window)[None, :]
    return x[:, idx, :].reshape(batch, seq - window + 1, window * dim)


class _GatherTextCNN(TextCNNClassifier):
    """TextCNN whose windows come from the reference gather."""

    def _forward(self, ids, pad_mask):
        batch, seq = ids.shape
        min_len = max(self.window_sizes)
        if seq < min_len:
            pad = np.full((batch, min_len - seq), self.vocabulary.pad_id,
                          dtype=ids.dtype)
            ids = np.concatenate([ids, pad], axis=1)
            pad_mask = np.concatenate(
                [pad_mask, np.ones((batch, min_len - seq), dtype=bool)],
                axis=1)
            seq = min_len
        x = self.embedding(ids)
        pooled = []
        for window, conv in zip(self.window_sizes, self.convs):
            feature = conv(_gather_windows(x, window)).relu()
            starts = pad_mask[:, : seq - window + 1]
            feature = feature.masked_fill(starts[:, :, None], 0.0)
            pooled.append(feature.max(axis=1))
        return self.head(concatenate(pooled, axis=1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window", [1, 2, 3, 5])
def test_sliding_windows_match_the_gather_bit_for_bit(dtype, window):
    rng = np.random.default_rng(window)
    data = rng.normal(size=(3, 7, 4)).astype(dtype)
    upstream = rng.normal(size=(3, 8 - window, window * 4)).astype(dtype)
    x = Tensor(data, requires_grad=True)
    out = sliding_windows(x, window)
    assert out.data.flags.c_contiguous and out.dtype == dtype
    out.backward(upstream)
    ref_x = Tensor(data.copy(), requires_grad=True)
    ref = _gather_windows(ref_x, window)
    ref.backward(upstream)
    assert np.array_equal(out.data, ref.data)
    assert x.grad.dtype == dtype
    assert np.array_equal(x.grad, ref_x.grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("short", [False, True])
def test_textcnn_is_bit_identical_to_the_gather(rng, dtype, short):
    docs, targets, vocab = _toy_task(rng, n=40)
    if short:
        # Every batch is shorter than the widest window: the pad branch.
        docs = [doc[:1 + i % 2] for i, doc in enumerate(docs)]
    with default_dtype(dtype):
        model = TextCNNClassifier(vocab, 2, dim=8, window_sizes=(2, 3, 4),
                                  seed=0)
        reference = _GatherTextCNN(vocab, 2, dim=8, window_sizes=(2, 3, 4),
                                   seed=0)
    encoded = [vocab.encode(doc) for doc in docs[:6]]
    width = max(len(row) for row in encoded)
    ids = np.full((6, width), vocab.pad_id, dtype=np.int64)
    for i, row in enumerate(encoded):
        ids[i, :len(row)] = row
    pad_mask = ids == vocab.pad_id
    assert np.array_equal(model._forward(ids, pad_mask).data,
                          reference._forward(ids, pad_mask).data)
    model.fit(docs, targets, epochs=3, batch_size=8)
    reference.fit(docs, targets, epochs=3, batch_size=8)
    for mine, theirs in zip(model.parameters(), reference.parameters()):
        assert mine.data.dtype == dtype
        assert np.array_equal(mine.data, theirs.data)
    probe = docs + [[], ["red"]]
    assert np.array_equal(model.predict_proba(probe),
                          reference.predict_proba(probe))


def test_as_soft_targets_from_hard():
    soft = as_soft_targets(np.array([0, 2]), 3)
    assert soft.shape == (2, 3)
    assert soft[0, 0] == 1.0 and soft[1, 2] == 1.0


def test_as_soft_targets_validates_width():
    with pytest.raises(ValueError):
        as_soft_targets(np.ones((2, 4)), 3)


@pytest.mark.parametrize("cls", [TextCNNClassifier, AttentiveClassifier,
                                 BagOfEmbeddingsClassifier])
def test_classifiers_learn_separable_task(rng, cls):
    docs, targets, vocab = _toy_task(rng)
    model = cls(vocab, 2, dim=16, seed=0)
    model.fit(docs, targets, epochs=8)
    accuracy = float((model.predict(docs) == targets).mean())
    assert accuracy > 0.9


def test_classifier_predict_before_fit_raises(rng):
    docs, _, vocab = _toy_task(rng, n=4)
    model = TextCNNClassifier(vocab, 2, dim=8, seed=0)
    with pytest.raises(NotFittedError):
        model.predict_proba(docs)


def test_classifier_proba_rows_sum_to_one(rng):
    docs, targets, vocab = _toy_task(rng, n=20)
    model = BagOfEmbeddingsClassifier(vocab, 2, dim=8, seed=0)
    model.fit(docs, targets, epochs=2)
    proba = model.predict_proba(docs)
    assert np.allclose(proba.sum(axis=1), 1.0)


def test_classifier_handles_empty_and_short_docs(rng):
    docs, targets, vocab = _toy_task(rng, n=20)
    model = TextCNNClassifier(vocab, 2, dim=8, seed=0)
    model.fit(docs, targets, epochs=2)
    proba = model.predict_proba([[], ["red"]])
    assert proba.shape == (2, 2)
    assert np.isfinite(proba).all()


def test_classifier_embedding_table_validation(rng):
    docs, _, vocab = _toy_task(rng, n=4)
    with pytest.raises(ValueError):
        TextCNNClassifier(vocab, 2, dim=8,
                          embedding_table=np.zeros((3, 8)), seed=0)


def test_classifier_accepts_soft_targets(rng):
    docs, targets, vocab = _toy_task(rng, n=30)
    soft = as_soft_targets(targets, 2) * 0.8 + 0.1
    model = AttentiveClassifier(vocab, 2, dim=8, seed=0)
    model.fit(docs, soft, epochs=6)
    assert float((model.predict(docs) == targets).mean()) > 0.8


def test_attention_exposes_weights(rng):
    docs, targets, vocab = _toy_task(rng, n=20)
    model = AttentiveClassifier(vocab, 2, dim=8, seed=0)
    model.fit(docs, targets, epochs=1)
    model.predict_proba(docs[:4])
    assert model.last_attention is not None
    assert np.allclose(model.last_attention.sum(axis=1), 1.0, atol=1e-6)


def test_logistic_regression_learns(rng):
    x = rng.normal(size=(100, 5))
    y = (x[:, 0] > 0).astype(int)
    model = LogisticRegression(5, 2, seed=0)
    model.fit(x, y, epochs=40)
    assert float((model.predict(x) == y).mean()) > 0.9


def test_logistic_regression_unfitted_raises():
    with pytest.raises(NotFittedError):
        LogisticRegression(3, 2).predict_proba(np.zeros((1, 3)))


def test_sharpen_distribution_increases_confidence():
    proba = np.array([[0.6, 0.4], [0.3, 0.7]])
    sharpened = sharpen_distribution(proba)
    assert sharpened[0, 0] > proba[0, 0]
    assert np.allclose(sharpened.sum(axis=1), 1.0)


def test_sharpen_distribution_downweights_frequent_class():
    proba = np.array([[0.6, 0.4]] * 9 + [[0.4, 0.6]])
    sharpened = sharpen_distribution(proba)
    # Class 0 is predicted 9x more often; frequency normalization should
    # soften its dominance relative to naive squaring.
    naive = proba**2 / (proba**2).sum(axis=1, keepdims=True)
    assert sharpened[0, 0] < naive[0, 0]


def test_self_training_loop_improves_noisy_start(rng):
    docs, targets, vocab = _toy_task(rng, n=100)
    model = BagOfEmbeddingsClassifier(vocab, 2, dim=16, seed=0)
    noisy = targets.copy()
    flip = rng.permutation(100)[:25]
    noisy[flip] = 1 - noisy[flip]
    model.fit(docs, noisy, epochs=3)
    before = float((model.predict(docs) == targets).mean())
    loop = SelfTrainingLoop(max_iterations=4, epochs_per_iteration=2)
    loop.run(model, docs)
    after = float((model.predict(docs) == targets).mean())
    assert after >= before - 0.02
    assert loop.history  # at least one round ran
