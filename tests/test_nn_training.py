"""Training-path compute-engine tests: gradcheck, fused kernels, dtype.

Three layers of guarantees for the float32 training engine:

1. **gradcheck** — every fused kernel's analytic backward matches float64
   central finite differences of its own forward;
2. **fused == composite** — the fused kernels agree with the composite
   autograd oracle in ``tests/composite_kernels.py`` (forward values and
   input gradients) at float64;
3. **dtype discipline** — ops preserve float32 end-to-end, float32 and
   float64 training reach the same answers within tolerance, and a fixed
   seed + dtype yields bit-identical parameters and predictions.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro.nn.functional as F
from repro.classifiers import BagOfEmbeddingsClassifier
from repro.nn import losses
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor, default_dtype
from repro.text.vocabulary import Vocabulary
from tests import composite_kernels

pytestmark = pytest.mark.training

#: The library's fused kernels, under the oracle module's names.
FUSED = SimpleNamespace(
    softmax=F.softmax, log_softmax=F.log_softmax,
    masked_softmax=F.masked_softmax, layer_norm=F.layer_norm,
    cross_entropy=losses.cross_entropy,
    soft_cross_entropy=losses.soft_cross_entropy,
)


@pytest.fixture(params=[FUSED, composite_kernels], ids=["fused", "composite"])
def kernels(request):
    return request.param


@pytest.fixture
def f64():
    with default_dtype("float64"):
        yield np.float64


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar ``fn`` at float64 ``x``."""
    grad = np.zeros_like(x)
    flat_x, flat_g = x.ravel(), grad.ravel()
    for i in range(flat_x.size):
        saved = flat_x[i]
        flat_x[i] = saved + eps
        hi = fn(x)
        flat_x[i] = saved - eps
        lo = fn(x)
        flat_x[i] = saved
        flat_g[i] = (hi - lo) / (2.0 * eps)
    return grad


def analytic_grad(fn, x: np.ndarray) -> np.ndarray:
    t = Tensor(x, requires_grad=True)
    fn(t).backward()
    assert t.grad is not None
    return t.grad


def check_grad(fn, x: np.ndarray, atol: float = 1e-7):
    got = analytic_grad(fn, x)
    want = numeric_grad(lambda a: float(fn(Tensor(a)).data), x)
    np.testing.assert_allclose(got, want, atol=atol, rtol=1e-5)


@pytest.fixture
def rng64(f64):
    return np.random.default_rng(7)


def test_gradcheck_softmax(kernels, rng64):
    x = rng64.normal(size=(3, 5))
    weights = rng64.normal(size=(3, 5))  # random scalarization
    check_grad(lambda t: (kernels.softmax(t, axis=-1) * Tensor(weights)).sum(), x)


def test_gradcheck_log_softmax(kernels, rng64):
    x = rng64.normal(size=(4, 6))
    weights = rng64.normal(size=(4, 6))
    check_grad(lambda t: (kernels.log_softmax(t, axis=-1) * Tensor(weights)).sum(), x)


def test_gradcheck_masked_softmax(kernels, rng64):
    x = rng64.normal(size=(2, 4, 4))
    mask = np.zeros((2, 1, 4), dtype=bool)
    mask[0, 0, 3] = True  # block one key column in the first batch row
    weights = rng64.normal(size=(2, 4, 4))
    # Blocked entries carry zero probability, so the scalarization only
    # sees the surviving entries — finite differences agree exactly.
    check_grad(
        lambda t: (kernels.masked_softmax(t, mask, axis=-1) * Tensor(weights)).sum(), x
    )


def test_gradcheck_layer_norm(kernels, rng64):
    x = rng64.normal(size=(3, 8))
    gain = Tensor(rng64.normal(size=8) + 1.0, requires_grad=True)
    bias = Tensor(rng64.normal(size=8), requires_grad=True)
    weights = rng64.normal(size=(3, 8))

    def fn(t):
        return (kernels.layer_norm(t, gain, bias) * Tensor(weights)).sum()

    check_grad(fn, x, atol=1e-6)
    # gain / bias gradients against finite differences too.
    loss = fn(Tensor(x))
    gain.zero_grad()
    bias.zero_grad()
    loss.backward()
    want_gain = numeric_grad(
        lambda g: float(
            (kernels.layer_norm(Tensor(x), Tensor(g), bias) * Tensor(weights)).sum().data
        ),
        gain.data.copy(),
    )
    np.testing.assert_allclose(gain.grad, want_gain, atol=1e-6, rtol=1e-5)


def test_gradcheck_cross_entropy(kernels, rng64):
    x = rng64.normal(size=(6, 5))
    targets = rng64.integers(0, 5, size=6)
    check_grad(lambda t: kernels.cross_entropy(t, targets), x)


def test_gradcheck_cross_entropy_ignore_index(kernels, rng64):
    x = rng64.normal(size=(6, 5))
    targets = rng64.integers(0, 5, size=6)
    targets[::2] = -100
    check_grad(lambda t: kernels.cross_entropy(t, targets, ignore_index=-100), x)


def test_gradcheck_soft_cross_entropy(kernels, rng64):
    x = rng64.normal(size=(5, 4))
    target = rng64.random((5, 4))
    target /= target.sum(axis=1, keepdims=True)
    check_grad(lambda t: kernels.soft_cross_entropy(t, target), x)


def test_gradcheck_soft_cross_entropy_weighted_rows(kernels, rng64):
    # Self-training scales target rows by sample weights; rows then do
    # not sum to one and the gradient must track the row mass.
    x = rng64.normal(size=(5, 4))
    target = rng64.random((5, 4))
    target *= rng64.random((5, 1)) * 2.0
    check_grad(lambda t: kernels.soft_cross_entropy(t, target), x)


@pytest.mark.parametrize("fn_name", ["softmax", "log_softmax"])
def test_fused_matches_composite(f64, fn_name):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 7))
    weights = rng.normal(size=(4, 7))
    outs, grads = [], []
    for impl in (FUSED, composite_kernels):
        t = Tensor(x, requires_grad=True)
        out = getattr(impl, fn_name)(t, axis=-1)
        (out * Tensor(weights)).sum().backward()
        outs.append(out.data)
        grads.append(t.grad)
    np.testing.assert_allclose(outs[0], outs[1], atol=1e-12)
    np.testing.assert_allclose(grads[0], grads[1], atol=1e-12)


def test_fused_losses_match_composite(f64):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 6))
    targets = rng.integers(0, 6, size=8)
    values, grads = [], []
    for impl in (FUSED, composite_kernels):
        t = Tensor(x, requires_grad=True)
        loss = impl.cross_entropy(t, targets)
        loss.backward()
        values.append(loss.item())
        grads.append(t.grad)
    assert values[0] == pytest.approx(values[1], abs=1e-12)
    np.testing.assert_allclose(grads[0], grads[1], atol=1e-12)


def test_ops_preserve_float32(kernels):
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32),
               requires_grad=True)
    gain = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    bias = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    for out in (
        kernels.softmax(x),
        kernels.log_softmax(x),
        kernels.masked_softmax(x, np.zeros((3, 4), dtype=bool)),
        kernels.layer_norm(x, gain, bias),
        kernels.cross_entropy(x, np.array([0, 1, 2], dtype=np.int64)),
        kernels.soft_cross_entropy(x, np.full((3, 4), 0.25, dtype=np.float32)),
    ):
        assert out.dtype == np.float32, out
        out.sum().backward() if out.ndim else out.backward()
        assert x.grad is not None and x.grad.dtype == np.float32
        x.zero_grad()


def test_optimizer_steps_stay_float32():
    p = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    for opt in (Adam([p], lr=1e-2, weight_decay=1e-2),
                SGD([p], lr=1e-2, momentum=0.9)):
        (p * p).sum().backward()
        opt.clip_grad_norm(1.0)
        opt.step()
        assert p.data.dtype == np.float32
        assert p.grad is not None and p.grad.dtype == np.float32
        opt.zero_grad()
        assert p.grad is None


def _fit_toy_classifier(seed=0):
    rng = np.random.default_rng(11)
    docs, targets = [], []
    for i in range(40):
        words = ["red", "crimson"] if i % 2 == 0 else ["blue", "azure"]
        docs.append([words[int(rng.integers(0, 2))] for _ in range(5)])
        targets.append(i % 2)
    vocab = Vocabulary.build(docs)
    model = BagOfEmbeddingsClassifier(vocab, 2, dim=12, seed=seed)
    model.fit(docs, np.array(targets), epochs=4)
    return model, docs


def test_float32_and_float64_fits_agree():
    with default_dtype("float32"):
        m32, docs = _fit_toy_classifier()
        p32 = m32.predict_proba(docs)
    with default_dtype("float64"):
        m64, _ = _fit_toy_classifier()
        p64 = m64.predict_proba(docs)
    assert p32.dtype == np.float32 and p64.dtype == np.float64
    np.testing.assert_allclose(p32, p64.astype(np.float32), atol=2e-3)
    assert (p32.argmax(axis=1) == p64.argmax(axis=1)).all()


def test_same_seed_same_dtype_is_bit_identical():
    m_a, docs = _fit_toy_classifier(seed=3)
    m_b, _ = _fit_toy_classifier(seed=3)
    for p_a, p_b in zip(m_a.parameters(), m_b.parameters()):
        assert np.array_equal(p_a.data, p_b.data)
    assert np.array_equal(m_a.predict_proba(docs), m_b.predict_proba(docs))
