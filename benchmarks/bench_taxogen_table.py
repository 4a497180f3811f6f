"""T-TAXOGEN: the taxonomy-repair ablation table.

Expected shape: perturbing the taxonomy costs every method accuracy,
and feeding the repaired taxonomy back recovers most of the loss —
repaired P@1 must land far closer to the given-taxonomy arm than to the
perturbed one.
"""

from conftest import FULL, run_once, run_table

from repro.evaluation.reporting import format_table


def _by_arm(rows, method):
    return {r["Taxonomy"]: r for r in rows if r["Method"] == method}


def test_taxogen_table(benchmark):
    rows = run_once(benchmark,
                    lambda: run_table("taxogen", fast=not FULL),
                    artifact="taxogen_table")
    print()
    print(format_table(rows, title="Taxonomy-repair ablation"))

    for method in ("TaxoClass", "FUTEX"):
        arms = _by_arm(rows, method)
        given, perturbed, repaired = (arms["given"], arms["perturbed"],
                                      arms["repaired"])
        assert perturbed["P@1"] < given["P@1"] - 0.05
        # Repair must close most of the perturbation gap.
        gap = given["P@1"] - perturbed["P@1"]
        assert repaired["P@1"] >= perturbed["P@1"] + 0.5 * gap
        assert repaired["EdgeRecovery"] >= 0.4
