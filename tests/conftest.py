"""Shared fixtures: small dataset bundles and a tiny cached PLM.

Session-scoped so the expensive artifacts (PLM pre-training, dataset
generation) are built once per test run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_profile
from repro.plm.config import tiny_config
from repro.plm.provider import get_electra, get_pretrained_lm, get_relevance_model


@pytest.fixture(scope="session")
def agnews_small():
    """A small 4-class flat bundle (~288 train / 144 test docs)."""
    return load_profile("agnews", seed=0, scale=0.6)


@pytest.fixture(scope="session")
def tree_small():
    """A small 3x3 tree bundle."""
    return load_profile("arxiv_tree", seed=0, scale=0.4)


@pytest.fixture(scope="session")
def dag_small():
    """A small DAG multi-label bundle."""
    return load_profile("dbpedia_dag", seed=0, scale=0.4)


@pytest.fixture(scope="session")
def meta_small():
    """A small metadata (user/tag) bundle."""
    return load_profile("github_bio", seed=0, scale=0.8)


@pytest.fixture(scope="session")
def biblio_small():
    """A small bibliographic multi-label bundle (authors/venues/refs)."""
    return load_profile("magcs", seed=0, scale=0.4)


@pytest.fixture(scope="session")
def tiny_plm(agnews_small):
    """A tiny PLM domain-adapted to the small agnews bundle."""
    return get_pretrained_lm(target_corpus=agnews_small.train_corpus,
                             config=tiny_config(), seed=0)


@pytest.fixture(scope="session")
def tiny_electra(tiny_plm):
    return get_electra(tiny_plm)


@pytest.fixture(scope="session")
def tiny_relevance(tiny_plm):
    return get_relevance_model(tiny_plm, steps=60)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def packed_forward_calls(monkeypatch):
    """Counts ``PackedEncoder.forward`` calls made during the test."""
    from repro.plm.infer import PackedEncoder

    calls = {"n": 0}
    real = PackedEncoder.forward

    def counting(self, ids, pad_mask=None):
        calls["n"] += 1
        return real(self, ids, pad_mask)

    monkeypatch.setattr(PackedEncoder, "forward", counting)
    return calls
