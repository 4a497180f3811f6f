"""T-WESTCLASS: the WeSTClass results table.

Paper shape: WeSTClass (both classifier variants) beats the retrieval /
topic-model baselines under every supervision type, and self-training
(vs. the NoST rows) helps.
"""

from conftest import FULL, by_method, run_once, run_table

from repro.evaluation.reporting import format_table


def test_westclass_table(benchmark):
    rows = run_once(benchmark,
                    lambda: run_table("westclass", fast=not FULL),
                    artifact="westclass_table")
    print()
    print(format_table(rows, title="WeSTClass results (macro/micro F1)"))

    indexed = by_method(rows)
    for dataset in {r["Dataset"] for r in rows}:
        best_west = max(
            indexed[(dataset, "WeSTClass-CNN")]["KEYWORDS micro"],
            indexed[(dataset, "WeSTClass-HAN")]["KEYWORDS micro"],
        )
        ir = indexed[(dataset, "IR with tf-idf")]["KEYWORDS micro"]
        assert best_west > ir - 0.03, (dataset, "WeSTClass vs IR")

        with_st = indexed[(dataset, "WeSTClass-CNN")]["KEYWORDS micro"]
        without = indexed[(dataset, "NoST-CNN")]["KEYWORDS micro"]
        assert with_st >= without - 0.05, (dataset, "self-training")
