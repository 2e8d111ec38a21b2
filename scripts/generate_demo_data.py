"""Draw a synthetic demonstration dataset like the bundled one.

Builds a 30-respondent, 8-item survey shaped like a real well-being
questionnaire: items carry a clinically plausible prior ordering, stage
labels start at 2, and per-item response rates match the published
cohort to the nearest respondent. The stage assignments themselves are
drawn from a staged Mallows model, so the file is safe to ship: it
contains no real survey responses.

The bundled CSV was drawn by the earlier sampler, which enumerated the
space and inverted its CDF. The current sampler draws from the same
distribution through a different random stream, so rerunning this script
gives a different file. The bundled one, under src/stagemallows/data, is
kept as it is, because benchmarks and tests read it: the script writes the
CSV, its sidecar and the prior into the current directory instead.

Run from the directory to write into, with the package importable:

    PYTHONPATH=REPO/src python3 REPO/scripts/generate_demo_data.py
"""

from __future__ import annotations

import numpy as np

from stagemallows.io import QuestionnaireDataset, write_dataset, write_ranking_file
from stagemallows.mallows import MallowsParams, sample
from stagemallows.rankings import (
    MISSING,
    CentralRanking,
    ItemSet,
    PartialRanking,
    StageDomain,
)

ITEMS = (
    "Changes to sleeping patterns, e.g. napping",
    "Gluttonous",
    "Bodily complaints with no apparent cause",
    "Increased sensitivity to sound / tinnitus",
    "More 'rigid' / obsessional",
    "Walking more slowly",
    "Needs help dressing",
    "Difficulty swallowing",
)
PRIOR_ORDER = (1, 2, 2, 2, 2, 3, 3, 4)
TARGET_RATES = (76.7, 63.3, 56.7, 43.3, 60.0, 53.3, 60.0, 36.7)
M = 30
L = 4
STAGE_LABEL_OFFSET = 2
SEED = 20240731


def build() -> QuestionnaireDataset:
    rng = np.random.default_rng(SEED)
    truth = MallowsParams(CentralRanking(PRIOR_ORDER), 1.0, StageDomain(L))
    complete = sample(truth, rng=rng, count=M)

    # Observed counts per item: the published percentage of a 30-strong
    # cohort, rounded to the nearest respondent.
    targets = [int(round(rate * M / 100.0)) for rate in TARGET_RATES]

    while True:
        observed = np.zeros((M, len(ITEMS)), dtype=bool)
        for item_idx, count in enumerate(targets):
            who = rng.choice(M, size=count, replace=False)
            observed[who, item_idx] = True
        if observed.any(axis=1).all():
            break

    responses = []
    for r in range(M):
        stages = tuple(
            complete[r].stages[i] if observed[r, i] else MISSING
            for i in range(len(ITEMS))
        )
        responses.append((f"R{r + 1:02d}", PartialRanking(stages)))

    return QuestionnaireDataset(
        items=ItemSet(ITEMS),
        stage_domain=StageDomain(L),
        stage_label_offset=STAGE_LABEL_OFFSET,
        responses=tuple(responses),
        provenance=(
            "Synthetic demonstration data drawn from a staged Mallows model "
            "around the clinical prior ordering; response rates mimic the "
            "real cohort but no entry is a real survey response."
        ),
    )


def main() -> None:
    ds = build()
    write_dataset(ds, "wellbeing_survey_synthetic.csv")
    write_ranking_file(
        PRIOR_ORDER, "wellbeing_survey_prior.json", stage_label_offset=STAGE_LABEL_OFFSET
    )
    rates = [
        sum(1 for _, resp in ds.responses if resp.stages[i] is not MISSING) / M
        for i in range(len(ITEMS))
    ]
    print("wrote wellbeing_survey_synthetic.csv, its sidecar and wellbeing_survey_prior.json")
    for label, rate, target in zip(ITEMS, rates, TARGET_RATES):
        print(f"  {rate * 100:5.1f}% (target {target:5.1f}%)  {label}")


if __name__ == "__main__":
    main()
