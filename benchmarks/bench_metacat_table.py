"""T-METACAT: MetaCat Tables 2+3 (micro + macro F1).

Paper shape: MetaCat beats the text-only baselines (CNN/HAN/PTE/
WeSTClass/PCEM/BERT) by using metadata, and the structure-only graph
embeddings (ESim/metapath2vec/HIN2vec) by also using text. TextGCN is the
closest baseline where it fits in memory (the largest profiles reproduce
the paper's "-" entries).
"""

import numpy as np
from conftest import FULL, by_method, run_once, run_table

from repro.evaluation.reporting import format_table

TEXT_BASELINES = ("CNN", "HAN", "PTE", "WeSTClass", "PCEM", "BERT")
GRAPH_BASELINES = ("ESim", "Metapath2vec", "HIN2vec")


def test_metacat_tables(benchmark):
    rows = run_once(benchmark,
                    lambda: run_table("metacat", fast=not FULL),
                    artifact="metacat_table")
    print()
    print(format_table(rows, title="MetaCat results (micro/macro F1)"))

    indexed = by_method(rows)
    for dataset in {r["Dataset"] for r in rows}:
        metacat = indexed[(dataset, "MetaCat")]["Micro-F1"]
        text_scores = [indexed[(dataset, m)]["Micro-F1"]
                       for m in TEXT_BASELINES]
        graph_scores = [indexed[(dataset, m)]["Micro-F1"]
                        for m in GRAPH_BASELINES]
        assert metacat > float(np.mean(text_scores)) - 0.02, dataset
        assert metacat > float(np.mean(graph_scores)) - 0.02, dataset
    if FULL:
        # The paper's "-" (excessive memory) rows.
        assert indexed[("github_sec", "TextGCN")]["Micro-F1"] == "-"
        assert indexed[("amazon_meta", "TextGCN")]["Micro-F1"] == "-"
