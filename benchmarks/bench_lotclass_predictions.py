"""T-LOTCLASS-1: the MLM replacement-prediction demonstration (Table 1).

Paper shape: the same surface form receives different replacement words in
different topical contexts — the mechanism behind category vocabularies.
"""

from conftest import run_once, run_table

from repro.evaluation.reporting import format_table


def test_lotclass_prediction_demo(benchmark):
    rows = run_once(benchmark,
                    lambda: run_table("lotclass-predictions"),
                    artifact="lotclass_predictions")
    print()
    print(format_table(rows, title='MLM predictions for "goal" in context'))

    assert len(rows) == 2, "need both topical contexts"
    predictions = [set(r["Predictions"].split(", ")) for r in rows]
    assert predictions[0] != predictions[1]
    # Sports context predictions lean sports; business lean business.
    from repro.datasets import load_profile

    bundle = load_profile("agnews", seed=0)
    sports_lexicon = set(bundle.world.lexicons["sports"])
    business_lexicon = set(bundle.world.lexicons["business"])
    sports_row = next(r for r in rows if r["Context topic"] == "sports")
    business_row = next(r for r in rows if r["Context topic"] == "business")
    sports_predictions = set(sports_row["Predictions"].split(", "))
    business_predictions = set(business_row["Predictions"].split(", "))
    assert len(sports_predictions & sports_lexicon) > len(
        sports_predictions & business_lexicon
    )
    assert len(business_predictions & business_lexicon) > len(
        business_predictions & sports_lexicon
    )
