"""T-WESHCLASS: the WeSHClass results table.

Paper shape: the full system beats the flat WeSTClass baseline and every
ablation (No-global, No-vMF, No-self-train) on the leaf-level task.
"""

from conftest import FULL, by_method, run_once, run_table

from repro.evaluation.reporting import format_table


def test_weshclass_table(benchmark):
    rows = run_once(benchmark,
                    lambda: run_table("weshclass", fast=not FULL),
                    artifact="weshclass_table")
    print()
    print(format_table(rows, title="WeSHClass results (macro/micro F1)"))

    indexed = by_method(rows)
    for dataset in {r["Dataset"] for r in rows}:
        full = indexed[(dataset, "WeSHClass")]["KEYWORDS micro"]
        assert full > indexed[(dataset, "Hier-SVM")]["DOCS micro"] - 0.03
        for ablation in ("No-global", "No-vMF", "No-self-train"):
            assert full >= indexed[(dataset, ablation)]["KEYWORDS micro"] - 0.05, (
                dataset, ablation)
        flat = indexed[(dataset, "WeSTClass")]["KEYWORDS micro"]
        assert full >= flat - 0.05, (dataset, "hierarchy should help")
