"""Shared evaluation plumbing for the benchmark harness."""

from __future__ import annotations

from repro.core.types import Corpus
from repro.datasets.bundle import DatasetBundle
from repro.evaluation.metrics import macro_f1, micro_f1
from repro.evaluation.ranking import example_f1, ndcg_at_k, precision_at_k


def gold_single(corpus: Corpus) -> list:
    """Single gold label per document."""
    return [d.labels[0] for d in corpus]


def gold_sets(corpus: Corpus) -> list:
    """Gold label set per document."""
    return [set(d.labels) for d in corpus]


def evaluate_flat(classifier, bundle: DatasetBundle, supervision) -> dict:
    """Fit on train, report micro/macro F1 on test."""
    classifier.fit(bundle.train_corpus, supervision)
    predicted = classifier.predict(bundle.test_corpus)
    gold = gold_single(bundle.test_corpus)
    return {
        "micro_f1": micro_f1(gold, predicted),
        "macro_f1": macro_f1(gold, predicted, labels=list(bundle.label_set)),
    }


def evaluate_multilabel(classifier, bundle: DatasetBundle, supervision,
                        ks: tuple = (1, 3, 5), threshold: float = 0.5) -> dict:
    """Fit on train, report Example-F1 / P@k / NDCG@k on test."""
    classifier.fit(bundle.train_corpus, supervision)
    gold = gold_sets(bundle.test_corpus)
    predicted = classifier.predict(bundle.test_corpus, threshold=threshold)
    ranking = classifier.rank(bundle.test_corpus)
    out = {"example_f1": example_f1(gold, predicted)}
    for k in ks:
        out[f"p@{k}"] = precision_at_k(gold, ranking, k)
    for k in ks:
        if k > 1:
            out[f"ndcg@{k}"] = ndcg_at_k(gold, ranking, k)
    return out
