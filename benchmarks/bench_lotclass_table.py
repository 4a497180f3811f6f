"""T-LOTCLASS-2: the LOTClass results table.

Paper shape: LOTClass beats the simple-match and Dataless baselines from
label names alone, approaches the semi-supervised UDA row, and the fully
supervised BERT bounds it.
"""

from conftest import FULL, by_method, run_once, run_table

from repro.evaluation.reporting import format_table


def test_lotclass_table(benchmark):
    rows = run_once(benchmark,
                    lambda: run_table("lotclass", fast=not FULL),
                    artifact="lotclass_table")
    print()
    print(format_table(rows, title="LOTClass results (accuracy)"))

    indexed = by_method(rows)
    for dataset in {r["Dataset"] for r in rows}:
        ours = indexed[(dataset, "Ours")]["Accuracy"]
        match = indexed[(dataset, "BERT w. simple match")]["Accuracy"]
        assert ours > match - 0.05, dataset
        supervised = indexed[(dataset, "BERT (supervised)")]["Accuracy"]
        assert supervised >= ours - 0.08, dataset
        no_st = indexed[(dataset, "Ours w/o. self train")]["Accuracy"]
        assert ours >= no_st - 0.07, dataset
