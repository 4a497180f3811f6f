"""T-PROMPT: the PromptClass results table.

Paper shape: co-trained PromptClass variants beat their own zero-shot
starting points and the earlier weakly-supervised systems; the fully
supervised head bounds everything.
"""

from conftest import FULL, by_method, run_once, run_table

from repro.evaluation.reporting import format_table


def test_promptclass_table(benchmark):
    rows = run_once(benchmark,
                    lambda: run_table("promptclass", fast=not FULL),
                    artifact="promptclass_table")
    print()
    print(format_table(rows, title="PromptClass results (micro/macro F1)"))

    indexed = by_method(rows)
    for dataset in {r["Dataset"] for r in rows}:
        best_prompt = max(
            indexed[(dataset, "PromptClass ELECTRA+BERT")]["Micro-F1"],
            indexed[(dataset, "PromptClass RoBERTa+RoBERTa")]["Micro-F1"],
            indexed[(dataset, "PromptClass ELECTRA+ELECTRA")]["Micro-F1"],
        )
        zero_mlm = indexed[(dataset, "RoBERTa (0-shot)")]["Micro-F1"]
        zero_electra = indexed[(dataset, "ELECTRA (0-shot)")]["Micro-F1"]
        assert best_prompt >= max(zero_mlm, zero_electra) - 0.03, dataset
        supervised = indexed[(dataset, "Fully Supervised")]["Micro-F1"]
        assert supervised >= best_prompt - 0.1, dataset
