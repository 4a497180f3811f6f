"""Tests for the experiment harness: views, figures, registry, runner."""

import numpy as np
import pytest

from repro.core.registry import method_registry, summary_rows
from repro.experiments.figures import (
    domain_separation_ratio,
    pca_2d,
    render_pca_ascii,
)
from repro.experiments.runner import evaluate_flat
from repro.experiments.views import coarse_view, dag_as_tree
from repro.taxonomy.tree import ROOT


def test_registry_contains_all_nine_methods():
    registry = method_registry()
    expected = {"WeSTClass", "ConWea", "LOTClass", "X-Class", "PromptClass",
                "WeSHClass", "TaxoClass", "MetaCat", "MICoL"}
    assert expected <= set(registry)


def test_summary_rows_match_tutorial_claims():
    rows = {r["Method"]: r for r in summary_rows()}
    assert rows["WeSTClass"]["Backbone"] == "embedding"
    assert rows["LOTClass"]["Supervision Format"] == "LabelNames"
    assert rows["TaxoClass"]["Single vs. Multi-label"] == "multi-label"
    assert rows["MICoL"]["Backbone"] == "pretrained-lm"
    assert rows["WeSHClass"]["Flat vs. Hierarchical"] == "hierarchical"


def test_coarse_view_relabels(tree_small):
    coarse = coarse_view(tree_small)
    assert set(coarse.label_set) == set(tree_small.tree.level(1))
    for doc in coarse.train_corpus[:20]:
        assert doc.labels[0] in coarse.label_set
    # Supervision constructors still work on the view.
    keywords = coarse.keywords()
    assert set(keywords.keywords) == set(coarse.label_set)
    sup = coarse.labeled_documents(2)
    assert all(len(sup.for_label(l)) == 2 for l in coarse.label_set)


def test_coarse_view_requires_tree(agnews_small):
    with pytest.raises(ValueError):
        coarse_view(agnews_small)


def test_dag_as_tree_single_parents(dag_small):
    tree = dag_as_tree(dag_small.dag)
    for node in tree.nodes:
        assert tree.parent(node) == ROOT or tree.parent(node) in tree.nodes


def test_pca_2d_shapes(rng):
    points = rng.normal(size=(30, 8))
    coords = pca_2d(points)
    assert coords.shape == (30, 2)


def test_domain_separation_ratio_orders_geometries(rng):
    tight = np.vstack([rng.normal(0, 0.1, size=(20, 2)),
                       rng.normal(5, 0.1, size=(20, 2))])
    loose = rng.normal(0, 1.0, size=(40, 2))
    labels = ["a"] * 20 + ["b"] * 20
    assert domain_separation_ratio(tight, labels) > domain_separation_ratio(
        loose, labels
    )


def test_render_pca_ascii(rng):
    coords = rng.normal(size=(10, 2))
    art = render_pca_ascii(coords, ["x"] * 5 + ["y"] * 5, width=20, height=8)
    assert "A=x" in art and "B=y" in art


def test_evaluate_flat_metrics(agnews_small):
    from repro.baselines import IRWithTfidf

    metrics = evaluate_flat(IRWithTfidf(seed=0), agnews_small,
                            agnews_small.keywords())
    assert set(metrics) == {"micro_f1", "macro_f1"}
    assert 0.0 <= metrics["macro_f1"] <= 1.0
