"""T-TAXOCLASS: the TaxoClass results table.

Paper shape: TaxoClass beats the single-path hierarchical baselines
(WeSHClass, SS-PCEM) and the zero-shot descent (Hier-0Shot-TC) on both
Example-F1 and P@1.
"""

from conftest import FULL, by_method, run_once, run_table

from repro.evaluation.reporting import format_table


def test_taxoclass_table(benchmark):
    rows = run_once(benchmark,
                    lambda: run_table("taxoclass", fast=not FULL),
                    artifact="taxoclass_table")
    print()
    print(format_table(rows, title="TaxoClass results (Example-F1, P@1)"))

    indexed = by_method(rows)
    for dataset in {r["Dataset"] for r in rows}:
        taxo_p1 = indexed[(dataset, "TaxoClass")]["P@1"]
        taxo_f1 = indexed[(dataset, "TaxoClass")]["Example-F1"]
        assert taxo_p1 > indexed[(dataset, "Hier-0Shot-TC")]["P@1"] - 0.03
        assert taxo_p1 > indexed[(dataset, "WeSHClass")]["P@1"] - 0.03
        assert taxo_f1 > indexed[(dataset, "SS-PCEM")]["Example-F1"] - 0.05
