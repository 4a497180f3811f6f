"""T-XCLASS-DATA / T-XCLASS: dataset statistics + results tables.

Paper shape: X-Class is competitive with or better than WeSTClass /
LOTClass across datasets from label names only; the Rep/Align ablations
fall at or below the full pipeline; the supervised bound stays on top.
"""

from conftest import FULL, by_method, run_once, run_table

from repro.evaluation.reporting import format_table


def test_xclass_dataset_table(benchmark):
    rows = run_once(benchmark,
                    lambda: run_table("xclass-data", fast=not FULL),
                    artifact="xclass_dataset_table")
    print()
    print(format_table(rows, title="X-Class dataset statistics"))
    assert all(r["n_classes"] >= 2 for r in rows)
    imbalances = [r["imbalance"] for r in rows]
    assert max(imbalances) > min(imbalances)  # mix of balanced/imbalanced


def test_xclass_table(benchmark):
    rows = run_once(benchmark,
                    lambda: run_table("xclass", fast=not FULL),
                    artifact="xclass_table")
    print()
    print(format_table(rows, title="X-Class results (micro/macro F1)"))

    indexed = by_method(rows)
    datasets = {r["Dataset"] for r in rows}
    wins = 0
    for dataset in datasets:
        xclass = indexed[(dataset, "X-Class")]["Micro-F1"]
        west = indexed[(dataset, "WeSTClass")]["Micro-F1"]
        supervised = indexed[(dataset, "Supervised")]["Micro-F1"]
        rep = indexed[(dataset, "X-Class-Rep")]["Micro-F1"]
        assert supervised >= xclass - 0.1, dataset
        assert xclass >= rep - 0.08, dataset
        if xclass >= west - 0.02:
            wins += 1
    assert wins >= len(datasets) / 2, "X-Class should match WeSTClass overall"
