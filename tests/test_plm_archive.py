"""Pre-train once per graph: PLMs shared across processes as archives.

The provider keys models by a digest of the target corpus's tokens (two
corpora with the same name and size never share a model), a model
loaded from an archive trains the same fine-tuning heads as its source,
and a table's graph pre-trains each distinct model exactly once: the
encode node saves it to the store the scheduler shares with its
workers, and every other process loads that archive.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.datasets import load_profile
from repro.experiments import tables
from repro.experiments.scheduler import run_requests, take_last_dag_report
from repro.plm import provider
from repro.plm.config import PLMConfig
from repro.plm.io import load_plm, save_plm

pytestmark = pytest.mark.harness

#: Small enough to pre-train in about a second: these tests check model
#: identity, not model quality.
PROBE = PLMConfig(dim=16, n_layers=1, n_heads=2, ff_hidden=32, max_len=32,
                  mlm_steps=20, pretrain_docs=200)


@pytest.fixture()
def fresh_provider(monkeypatch):
    """An empty in-process model cache, restored after the test."""
    for name in ("_PLM_CACHE", "_NLI_CACHE", "_ELECTRA_CACHE"):
        monkeypatch.setattr(provider, name, {})


def _counted(fn):
    """Run ``fn`` under a tracer; returns (result, counters)."""
    obs.enable("plm-archive-test")
    try:
        result = fn()
    finally:
        tracer = obs.disable()
    return result, dict(tracer.counters)


# ---------------------------------------------------------------------------
# Provider keys and heads
# ---------------------------------------------------------------------------

def test_provider_key_separates_equal_sized_corpora(fresh_provider,
                                                    monkeypatch):
    # arxiv_sections table seeds 0 and 7 give corpora with equal names
    # and sizes, and the same PLM seed (7 % 7 == 0).
    first = load_profile("arxiv_sections", seed=0, scale=0.3).train_corpus
    second = load_profile("arxiv_sections", seed=7, scale=0.3).train_corpus
    assert (first.name, len(first)) == (second.name, len(second))

    alone = provider.get_pretrained_lm(second, config=PROBE, seed=0)
    monkeypatch.setattr(provider, "_PLM_CACHE", {})
    provider.get_pretrained_lm(first, config=PROBE, seed=0)
    after = provider.get_pretrained_lm(second, config=PROBE, seed=0)
    assert after.cache_namespace == alone.cache_namespace


def test_loaded_plm_trains_bit_identical_nli_head(fresh_provider, tmp_path,
                                                  agnews_small):
    plm = provider.get_pretrained_lm(agnews_small.train_corpus,
                                     config=PROBE, seed=3)
    loaded = load_plm(save_plm(plm, tmp_path / "plm"))
    assert loaded.seed == 3
    source = provider.get_relevance_model(plm, steps=40)
    copy = provider.get_relevance_model(loaded, steps=40)
    assert copy is not source
    for a, b in zip(source.head.parameters(), copy.head.parameters()):
        assert a.data.dtype == b.data.dtype
        np.testing.assert_array_equal(a.data, b.data)


def test_archive_is_loaded_instead_of_pretraining(fresh_provider, tmp_path,
                                                  agnews_small, monkeypatch):
    corpus = agnews_small.train_corpus
    archive = tmp_path / "store" / "model.npz"

    built, counts = _counted(lambda: provider.get_pretrained_lm(
        corpus, config=PROBE, seed=0, archive=archive))
    assert counts.get("plm.pretrains") == 1 and archive.exists()
    assert not list(archive.parent.glob("*.tmp.npz"))

    monkeypatch.setattr(provider, "_PLM_CACHE", {})
    loaded, counts = _counted(lambda: provider.get_pretrained_lm(
        corpus, config=PROBE, seed=0, archive=archive))
    assert counts.get("plm.pretrains", 0) == 0
    assert counts.get("plm.archive_loads") == 1
    assert loaded.cache_namespace == built.cache_namespace
    # The provider wires the shared cache into a loaded model too, so
    # its encodings are shared with the process that saved the archive.
    assert loaded.enc_cache is provider.shared_encode_cache()
    assert loaded.enc_cache is built.enc_cache


def test_unreadable_archive_is_rebuilt_not_fatal(fresh_provider, tmp_path,
                                                 agnews_small):
    archive = tmp_path / "model.npz"
    archive.write_bytes(b"not an archive")
    plm, counts = _counted(lambda: provider.get_pretrained_lm(
        agnews_small.train_corpus, config=PROBE, seed=0,
        archive=archive))
    assert counts.get("plm.pretrains") == 1
    assert load_plm(archive).cache_namespace == plm.cache_namespace


# ---------------------------------------------------------------------------
# One pre-training per graph
# ---------------------------------------------------------------------------

TAXOGEN_SEED = 1


def _taxogen(**run_kwargs) -> list:
    """The fast taxogen table's rows at :data:`TAXOGEN_SEED`."""
    request = tables.REQUESTS["taxogen"](TAXOGEN_SEED, True)
    return run_requests([request], **run_kwargs)["taxogen"]


@pytest.fixture(scope="module")
def cold_taxogen(tmp_path_factory):
    """A cold ``taxogen --jobs 2`` run: its store and traced counters."""
    cache_dir = tmp_path_factory.mktemp("taxogen-rows")
    rows, counts = _counted(lambda: _taxogen(
        jobs=2, use_cache=True, cache_dir=cache_dir))
    return cache_dir, rows, counts


def test_cold_parallel_graph_pretrains_once_per_key(cold_taxogen):
    cache_dir, rows, counts = cold_taxogen
    assert rows and not any("error" in row for row in rows)
    # One distinct (config, corpus, seed): the encode node pre-trains it,
    # and the other worker loads the archive for its rows.
    assert counts.get("plm.pretrains") == 1
    assert counts.get("plm.archive_loads", 0) >= 1
    store = cache_dir.parent / "enc"
    assert len(list((store / "plm").glob("*/*.npz"))) == 1
    # Hidden states live in mmap shards, one directory per namespace;
    # no per-document .npz files sit beside them.
    assert list(store.glob("*/shard_*.idx.json"))
    assert not list(store.glob("*/*.npz"))


def test_dirty_select_of_a_plm_row_runs_no_pretraining(cold_taxogen,
                                                       fresh_provider):
    cache_dir, rows, _ = cold_taxogen
    row = "taxogen.arxiv_sections/TaxoClass/given"
    again, counts = _counted(lambda: _taxogen(
        jobs=1, use_cache=True, cache_dir=cache_dir, select=[row]))
    report = take_last_dag_report()
    assert report.statuses[row] == "executed" and report.executed == 1
    assert counts.get("plm.pretrains", 0) == 0
    assert counts.get("plm.archive_loads") == 1
    strip = [{k: v for k, v in r.items() if k != "seconds"} for r in rows]
    assert [{k: v for k, v in r.items() if k != "seconds"}
            for r in again] == strip
