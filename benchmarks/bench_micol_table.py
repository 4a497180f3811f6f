"""T-MICOL: the MICoL results table with the MATCH crossover.

Paper shape: MICoL beats the generic un-fine-tuned encoders (Doc2Vec,
SciBERT) and the augmentation-pair contrastive baselines (EDA, UDA); it
beats MATCH trained on few labels but loses to MATCH with plentiful
supervision (the crossover).
"""

from conftest import FULL, by_method, run_once, run_table

from repro.evaluation.reporting import format_table

MICOL_ROWS = ("MICoL (Bi, P->P<-P)", "MICoL (Bi, P<-(PP)->P)",
              "MICoL (Cross, P->P<-P)", "MICoL (Cross, P<-(PP)->P)")


def test_micol_table(benchmark):
    rows = run_once(benchmark,
                    lambda: run_table("micol", fast=not FULL),
                    artifact="micol_table")
    print()
    print(format_table(rows, title="MICoL results (P@k, NDCG@k)"))

    indexed = by_method(rows)
    for dataset in {r["Dataset"] for r in rows}:
        best_micol = max(indexed[(dataset, m)]["P@1"] for m in MICOL_ROWS)
        assert best_micol > indexed[(dataset, "Doc2Vec")]["P@1"] - 0.02
        assert best_micol > indexed[(dataset, "SciBERT")]["P@1"] - 0.02
        assert best_micol >= indexed[(dataset, "EDA")]["P@1"] - 0.05
        assert best_micol >= indexed[(dataset, "UDA")]["P@1"] - 0.05
        # The MATCH crossover: zero-shot MICoL beats low-resource MATCH
        # and loses to (or at best ties) full-resource MATCH.
        assert best_micol > indexed[(dataset, "MATCH (2%)")]["P@1"] - 0.02
        assert indexed[(dataset, "MATCH (full)")]["P@1"] >= best_micol - 0.10
