import numpy as np
import pytest

from stagemallows import synth
from stagemallows.mallows import MallowsParams
from stagemallows.rankings import (
    MISSING,
    CentralRanking,
    DistanceConfig,
    StageDomain,
    kendall_tau_partial,
)
from stagemallows.synth import SynthConfig, generate


def truth(stages, spread, l):
    return MallowsParams(CentralRanking(tuple(stages)), spread, StageDomain(l))


TABLE_CENTER = (1, 2, 2, 3, 3, 3, 3, 4)


class TestConfig:
    def test_rejects_bad_percent(self):
        for bad in (-1.0, 100.5):
            with pytest.raises(ValueError):
                SynthConfig(truth=truth([1, 2], 1.0, 2), size=5, missing_percent=bad)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            SynthConfig(truth=truth([1, 2], 1.0, 2), size=0)


class TestGenerate:
    def test_no_censoring_gives_complete_rankings(self):
        data, _ = generate(
            SynthConfig(truth=truth(TABLE_CENTER, 1.0, 4), size=40, seed=3)
        )
        assert len(data) == 40
        assert all(r.is_complete for r in data)

    def test_exact_censored_count(self):
        for q, m, want in ((10.0, 100, 10), (25.0, 6, 2), (33.0, 10, 3)):
            data, _ = generate(
                SynthConfig(
                    truth=truth(TABLE_CENTER, 1.0, 4), size=m, missing_percent=q, seed=1
                )
            )
            censored = sum(1 for r in data if not r.is_complete)
            assert censored == want

    def test_determinism(self):
        cfg = SynthConfig(
            truth=truth(TABLE_CENTER, 2.0, 4), size=30, missing_percent=20.0, seed=77
        )
        a, _ = generate(cfg)
        b, _ = generate(cfg)
        assert [r.stages for r in a] == [r.stages for r in b]

    def test_full_censoring_retains_five_most_often(self):
        # Cutoff centered at 0.75 * 8 = 6 keeps sorted positions 1..5.
        data, _ = generate(
            SynthConfig(
                truth=truth(TABLE_CENTER, 1.0, 4),
                size=400,
                missing_percent=100.0,
                seed=5,
            )
        )
        assert all(not r.is_complete for r in data)
        retained = [r.r for r in data]
        values, counts = np.unique(retained, return_counts=True)
        assert values[np.argmax(counts)] == 5

    def test_censoring_only_removes_information(self):
        cfg = SynthConfig(
            truth=truth(TABLE_CENTER, 1.5, 4), size=50, missing_percent=40.0, seed=9
        )
        data, _ = generate(cfg)
        complete_cfg = SynthConfig(
            truth=truth(TABLE_CENTER, 1.5, 4), size=50, missing_percent=0.0, seed=9
        )
        parents, _ = generate(complete_cfg)
        for child, parent in zip(data, parents):
            for idx in child.observed_indices:
                assert child.stages[idx] == parent.stages[idx]

    def test_censoring_drops_latest_stages(self):
        data, _ = generate(
            SynthConfig(
                truth=truth(TABLE_CENTER, 0.5, 4),
                size=60,
                missing_percent=100.0,
                seed=13,
            )
        )
        for r in data:
            observed_stages = [r.stages[i] for i in r.observed_indices]
            missing_idx = [i for i in range(r.n) if r.stages[i] is MISSING]
            # every censored respondent loses something, never everything
            assert missing_idx and observed_stages

    def test_never_empties_a_ranking(self):
        data, _ = generate(
            SynthConfig(
                truth=truth((1, 2), 1.0, 2),
                size=200,
                missing_percent=100.0,
                censor_location_factor=0.0,
                seed=21,
            )
        )
        assert all(r.r >= 1 for r in data)

    # An infinite location or deviation draws +-inf, or NaN when they meet.
    @pytest.mark.parametrize("draw,kept", [(np.inf, 4), (-np.inf, 1), (np.nan, 1)])
    def test_a_draw_past_the_float_range_clamps_the_cutoff(self, draw, kept):
        class Draws:
            def normal(self, loc, scale):
                return draw

        stages = (1, 2, 3, 4, 5)
        censored = synth._censor(stages, Draws(), SynthConfig(truth(stages, 1.0, 5), size=1))
        assert sum(v is not MISSING for v in censored) == kept

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_mean_distance_monotone_in_spread(self):
        cfg_d = DistanceConfig()
        means = []
        for spread in (0.5, 1.0, 2.0):
            data, params = generate(
                SynthConfig(truth=truth(TABLE_CENTER, spread, 4), size=10_000, seed=41)
            )
            d = np.mean(
                [kendall_tau_partial(r, params.center, cfg_d) for r in data]
            )
            means.append(d)
        assert means[0] < means[1] < means[2]
