import hashlib
import itertools
import json
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from click.testing import CliRunner

from stagemallows import inference, mallows
from stagemallows.cli import cli
from stagemallows.errors import InitializationError
from stagemallows.inference import (
    McmcConfig,
    McmcTrace,
    PriorConfig,
    log_likelihood,
    log_posterior,
    log_prior,
    log_truncated_normal,
    map_estimate,
    mcmc_fit,
    stage_marginals,
)
from stagemallows.io import demo_dataset_path, read_dataset, read_ranking_file
from stagemallows.mallows import (
    MallowsParams,
    PartitionCache,
    center_buckets,
    class_of_sizes,
    default_cache,
    log_psi_rows,
    partition_function,
    sample,
)
from stagemallows.rankings import (
    CentralRanking,
    DistanceConfig,
    PartialRanking,
    StageDomain,
    kendall_tau_partial,
    ranking_pair_signs,
)
from stagemallows.synth import SynthConfig, generate

from oracles import (
    full_space,
    log_trunc_normal,
    naive_log_likelihood_restricted,
    naive_log_posterior,
    naive_pmf,
)


def central(*stages):
    return CentralRanking(tuple(stages))


def params(stages, spread, l):
    return MallowsParams(central(*stages), spread, StageDomain(l))


class TestTruncatedNormal:
    def test_closed_form_at_one(self):
        want = math.log(2.0 * math.exp(-0.5) / math.sqrt(2 * math.pi))
        assert log_truncated_normal(1.0) == pytest.approx(want, rel=1e-12)

    def test_zero_and_negative_score_minus_inf(self):
        assert log_truncated_normal(0.0) == -math.inf
        assert log_truncated_normal(-0.3) == -math.inf

    def test_small_value_limit(self):
        want = math.log(2.0) - 0.5 * math.log(2 * math.pi)
        assert log_truncated_normal(1e-12) == pytest.approx(want, abs=1e-9)


class TestLogLikelihood:
    def test_single_complete_respondent_at_center(self):
        p = params([1, 2], 1.0, 2)
        ll = log_likelihood([PartialRanking((1, 2))], p)
        assert ll == pytest.approx(-math.log(partition_function(p)), rel=1e-12)

    def test_duplicated_dataset_scales_linearly(self):
        p = params([1, 2, 2], 0.8, 3)
        one = [PartialRanking((1, 3, 2))]
        five = one * 5
        assert log_likelihood(five, p) == pytest.approx(
            5 * log_likelihood(one, p), rel=1e-12
        )

    def test_single_observed_item_is_uniform(self):
        p = params([1, 2, 2], 1.0, 3)
        data = [PartialRanking((None, 2, None))]
        assert log_likelihood(data, p) == pytest.approx(
            -math.log(3), rel=1e-12
        )

    def test_restricted_matches_naive_oracle(self):
        center = (1, 2, 2, 3)
        p = params(center, 0.9, 3)
        data_raw = [
            (1, 2, None, 3),
            (2, None, None, 1),
            (1, 1, 2, 2),
            (3, 2, 1, None),
        ]
        data = [PartialRanking(t) for t in data_raw]
        # At p = 1/2 and p = 1 distinct (discordant, tied-one) counts share a
        # point of the distance grid; at p = 3/4 fewer do.
        for tie in (0.5, 0.75, 1.0):
            want = naive_log_likelihood_restricted(data_raw, center, 3, 0.9, tie)
            got = log_likelihood(data, p, DistanceConfig(p=tie))
            assert got == pytest.approx(want, rel=1e-10)

    def test_restricted_matches_naive_oracle_off_the_lattice(self):
        # p = 0.6 is no ratio of small integers, so the rows come from the
        # program over the (discordant, tied-one) pair itself.
        center = (1, 2, 2, 3)
        data_raw = [(1, 2, None, 3), (2, None, None, 1), (1, 1, 2, 2), (3, 2, 1, None)]
        want = naive_log_likelihood_restricted(data_raw, center, 3, 0.9, 0.6)
        got = log_likelihood([PartialRanking(t) for t in data_raw], params(center, 0.9, 3),
                             DistanceConfig(p=0.6))
        assert got == pytest.approx(want, rel=1e-10)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood([], params([1, 2], 1.0, 2))

    def test_mismatched_items_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood([PartialRanking((1, 2, 3))], params([1, 2], 1.0, 3))


class TestLogPrior:
    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_modal_center_term(self):
        prior = PriorConfig(center=central(1, 2, 2))
        p = params([1, 2, 2], 1.0, 3)
        got = log_prior(p, prior)
        want = log_truncated_normal(1.0) - math.log(partition_function(p))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_center_prior_is_maximal_at_prior_center(self):
        prior = PriorConfig(center=central(1, 2, 3))
        at_center = log_prior(params([1, 2, 3], 1.0, 3), prior)
        for stages in full_space(3, 3):
            other = log_prior(params(stages, 1.0, 3), prior)
            assert other <= at_center + 1e-12

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_fixed_spread_decouples(self):
        prior = PriorConfig(center=central(1, 2), pi_spread=2.0)
        a = log_prior(params([2, 1], 0.5, 2), prior)
        b = log_prior(params([2, 1], 3.0, 2), prior)
        # Only the truncated-normal term may differ when the pi spread is fixed.
        assert a - log_trunc_normal(0.5) == pytest.approx(
            b - log_trunc_normal(3.0), rel=1e-12
        )

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_coupled_prior_concentration_limit(self):
        # As the spread shrinks, the center prior collapses onto the prior
        # center: the center term goes to 0 there and to -inf elsewhere.
        prior = PriorConfig(center=central(1, 2))
        tiny = 1e-3
        at_center = log_prior(params([1, 2], tiny, 2), prior)
        assert at_center - log_trunc_normal(tiny) == pytest.approx(0.0, abs=1e-12)
        elsewhere = log_prior(params([2, 1], tiny, 2), prior)
        assert elsewhere < -100

    def test_matches_naive_posterior_factorization(self):
        center = (1, 3, 2)
        prior_center = (1, 2, 2)
        data_raw = [(1, 2, 2), (2, 3, 1), (1, None, 2)]
        p = params(center, 1.7, 3)
        prior = PriorConfig(center=central(*prior_center))
        data = [PartialRanking(t) for t in data_raw]
        got = log_posterior(data, p, prior)
        want = naive_log_posterior(data_raw, center, 3, 1.7, prior_center)
        assert got == pytest.approx(want, rel=1e-10)


class TestMcmcConfig:
    def test_default_retains_one_thousand(self):
        assert McmcConfig().retained == 1000

    def test_rejects_burn_in_past_iterations(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=100, burn_in=100)

    def test_rejects_ragged_thinning(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=110, burn_in=10, thinning=3)


def _synthetic(n, l, spread, m, seed, missing=0.0):
    stages = [1 + (i * l) // n for i in range(n)]
    truth = MallowsParams(central(*stages), spread, StageDomain(l))
    data, _ = generate(
        SynthConfig(truth=truth, size=m, missing_percent=missing, seed=seed)
    )
    return data, truth


class TestMcmcFit:
    def test_survey_chain_path_is_pinned(self):
        # One survey chain's stages and spreads, to the last bit. A speed-up
        # of the chain must leave its path where it is: the effective sample
        # size of one chain varies widely with its path, so a moved path
        # changes results, not only speed.
        ds = read_dataset(demo_dataset_path())
        stages, _ = read_ranking_file(
            demo_dataset_path().with_name("wellbeing_survey_prior.json"))
        prior = PriorConfig(center=central(*stages))
        trace = mcmc_fit(ds.rankings(), ds.stage_domain, prior,
                         McmcConfig(iterations=300, burn_in=100, seed=1000)).trace
        assert trace.centers.dtype == np.int32 and trace.centers.shape == (200, 8)
        spreads = " ".join(float(s).hex() for s in trace.spreads)
        assert hashlib.sha256(trace.centers.tobytes()).hexdigest() == (
            "3a3592c3859a3c1f28b764f3af1f611ba10a1eaad29402717907d4e9a6de94b3")
        assert hashlib.sha256(spreads.encode()).hexdigest() == (
            "c4d96f6f4bc9dfde3c7aaf5b86ddd1ee14f7b7a71c942f6770c7759bf7ccf774")

    def test_determinism(self):
        data, truth = _synthetic(4, 3, 1.0, 20, seed=5)
        prior = PriorConfig(center=truth.center)
        mcmc = McmcConfig(iterations=300, burn_in=100, seed=11)
        a = mcmc_fit(data, truth.domain, prior, mcmc)
        b = mcmc_fit(data, truth.domain, prior, mcmc)
        assert a.pi_map == b.pi_map
        assert a.lambda_map == b.lambda_map
        assert np.array_equal(a.trace.centers, b.trace.centers)
        assert np.array_equal(a.trace.spreads, b.trace.spreads)
        assert np.array_equal(a.trace.log_posteriors, b.trace.log_posteriors)

    def test_warm_and_cold_caches_agree(self, monkeypatch):
        # The first fit builds its rows and draw shares in a fresh process
        # cache. The second finds them there, with each class's shares at the
        # spread the first left them, and the third finds the start center's
        # shares at another spread; both must make the very same draws.
        data, truth = _synthetic(3, 3, 0.7, 12, seed=2)
        prior = PriorConfig(center=truth.center)
        mcmc = McmcConfig(iterations=200, burn_in=100, seed=3)
        monkeypatch.setattr(mallows, "_DEFAULT_CACHE", PartitionCache())
        cold = mcmc_fit(data, truth.domain, prior, mcmc)
        warm = mcmc_fit(data, truth.domain, prior, mcmc)
        monkeypatch.setattr(mallows, "_DEFAULT_CACHE", PartitionCache())
        sample(MallowsParams(truth.center, 3.0, truth.domain))
        drawn_at_3 = mcmc_fit(data, truth.domain, prior, mcmc)
        for fit in (warm, drawn_at_3):
            assert np.array_equal(cold.trace.centers, fit.trace.centers)
            assert np.array_equal(cold.trace.spreads, fit.trace.spreads)
            assert np.array_equal(cold.trace.log_posteriors, fit.trace.log_posteriors)
            assert cold.trace.acceptance_rates == fit.trace.acceptance_rates

    def test_recovers_center_from_clean_concentrated_data(self):
        data, truth = _synthetic(5, 3, 0.1, 100, seed=7)
        prior = PriorConfig(center=truth.center)
        mcmc = McmcConfig(iterations=600, burn_in=100, seed=13)
        result = mcmc_fit(data, truth.domain, prior, mcmc)
        assert result.pi_map == truth.center

    def test_trace_log_posterior_recomputes(self):
        data, truth = _synthetic(4, 3, 1.0, 15, seed=9)
        prior = PriorConfig(center=truth.center)
        mcmc = McmcConfig(iterations=240, burn_in=40, seed=1)
        result = mcmc_fit(data, truth.domain, prior, mcmc)
        for center, spread, stored in list(result.trace.samples)[::50]:
            p = MallowsParams(center, spread, truth.domain)
            again = log_posterior(data, p, prior)
            assert stored == pytest.approx(again, abs=1e-9)

    def test_map_attains_trace_maximum(self):
        data, truth = _synthetic(4, 2, 0.8, 10, seed=21)
        prior = PriorConfig(center=truth.center)
        result = mcmc_fit(data, truth.domain, prior, McmcConfig(iterations=150, burn_in=50, seed=2))
        best = result.trace.log_posteriors.max()
        idx = int(np.argmax(result.trace.log_posteriors))
        assert result.trace.log_posteriors[idx] == best
        assert result.pi_map.stages == tuple(int(v) for v in result.trace.centers[idx])

    def test_start_center_override(self):
        data, truth = _synthetic(3, 2, 1.0, 8, seed=4)
        prior = PriorConfig(center=truth.center)
        start = central(2, 2, 2)
        result = mcmc_fit(
            data,
            truth.domain,
            prior,
            McmcConfig(iterations=60, burn_in=10, seed=5, start_center=start),
        )
        assert len(result.trace) == 50

    def test_acceptance_rates_healthy(self):
        data, truth = _synthetic(4, 3, 1.0, 30, seed=31)
        prior = PriorConfig(center=truth.center)
        result = mcmc_fit(data, truth.domain, prior, McmcConfig(iterations=1500, burn_in=500, seed=8))
        for rate in result.trace.acceptance_rates:
            assert 0.01 < rate < 0.99

    def test_zero_proposal_scale_pins_spread(self):
        data, truth = _synthetic(3, 2, 1.0, 8, seed=6)
        prior = PriorConfig(center=truth.center, pi_spread=1.0)
        result = mcmc_fit(
            data,
            truth.domain,
            prior,
            McmcConfig(
                iterations=100, burn_in=50, seed=7, lambda_init=0.9,
                lambda_proposal_scale=0.0,
            ),
        )
        assert np.all(result.trace.spreads == 0.9)
        assert result.trace.accept_rate_spread == 0.0

    def test_one_stage_center_rate_is_not_degenerate(self, caplog):
        # Over one stage the only center is always re-proposed and accepted.
        result = mcmc_fit([PartialRanking((1,))] * 5, StageDomain(1),
                          PriorConfig(center=central(1)), McmcConfig(seed=3))
        assert result.trace.accept_rate_center == 1.0
        assert 0.0 < result.trace.accept_rate_spread < 1.0
        assert "degenerate acceptance rates" not in caplog.text

    def test_stuck_center_warns_with_pinned_spread(self, caplog):
        # At spread 0.001 every proposal is the current center: the chain
        # accepts each one and never moves.
        result = mcmc_fit(
            [PartialRanking((1, 2))] * 20, StageDomain(2), PriorConfig(center=central(1, 2)),
            McmcConfig(iterations=100, burn_in=50, lambda_init=0.001,
                       lambda_proposal_scale=0.0),
        )
        assert result.trace.accept_rate_center == 1.0
        assert "degenerate acceptance rates" in caplog.text


class TestEvaluator:
    @staticmethod
    def build(*stages, l=3):
        data = [PartialRanking(s) for s in stages]
        return inference._Evaluator(data, StageDomain(l), PriorConfig(center=central(1, 2)),
                                    DistanceConfig())

    def test_out_of_domain_respondent_refused(self):
        with pytest.raises(ValueError, match=r"^entry 1 has stage 4 outside 1\.\.3$"):
            self.build((1, 2), (None, 4))

    def test_wrong_length_respondent_refused(self):
        with pytest.raises(ValueError, match="^respondent 1 has 3 items, expected 2$"):
            self.build((1, 2), (1, 2, 3))

    def test_first_faulty_respondent_is_named(self):
        with pytest.raises(ValueError, match="^entry 0 has stage 7 outside"):
            self.build((1, 2), (7, 1), (1, 2, 3))
        with pytest.raises(ValueError, match="^respondent 1 has 1 items"):
            self.build((1, 2), (1,), (7, 1))

    @pytest.mark.parametrize("entry", [True, False, 2.0, 1.5])
    def test_bool_and_float_entries_refused(self, entry):
        with pytest.raises(ValueError, match="^entry 1 must be an int stage or MISSING"):
            self.build((1, entry))

    def test_numpy_integers_are_plain_stages(self):
        plain = self.build((1, 2), (3, None), (2, 2))
        typed = self.build((np.int64(1), np.int8(2)), (np.uint16(3), None), (np.int32(2), 2))
        assert np.array_equal(plain._tallies, typed._tallies)
        assert np.array_equal(plain._group_items, typed._group_items)
        (d, rows, prior_d), (typed_d, typed_rows, typed_prior_d) = (
            ev.center_stats((2, 1)) for ev in (plain, typed))
        assert (d, prior_d) == (typed_d, typed_prior_d)
        # Both read the process's one table of rows for the space.
        assert plain._table is typed._table
        assert np.array_equal(rows, typed_rows)

    @pytest.mark.parametrize("l", [2, 3, 5])
    @pytest.mark.parametrize("tie", [0.5, 0.731, 1.0])
    def test_tally_distance_matches_definition(self, l, tie):
        # Respondents who observe one item, and so no pair (a ranking must
        # observe at least one), item 5 never observed and items 0 and 1
        # never observed together, so some pairs have no respondent at all.
        n, m = 6, 40
        rng = np.random.default_rng(100 * l + int(1000 * tie))
        stages = rng.integers(1, l + 1, size=(m, n))
        missing = rng.random((m, n)) < 0.3
        missing[:3] = True
        missing[:3, 2] = False
        missing[:, 5] = True
        missing[:, 1] |= ~missing[:, 0]
        missing[missing.all(axis=1), 3] = False
        data = [PartialRanking(tuple(None if gone else int(v) for v, gone in zip(row, holes)))
                for row, holes in zip(stages, missing)]
        prior_center = central(*rng.integers(1, l + 1, size=n).tolist())
        cfg = DistanceConfig(p=tie)
        ev = inference._Evaluator(data, StageDomain(l), PriorConfig(center=prior_center), cfg)

        def counts(x, y):
            # kendall_tau_partial at p = 1 and p = 1/2 is exact in floating
            # point, and the two give the discordant and tied-in-one counts,
            # so the total at any p is compared with one rounding, as summed.
            whole = kendall_tau_partial(x, y, DistanceConfig(p=1.0))
            half = kendall_tau_partial(x, y, DistanceConfig(p=0.5))
            return whole - 2 * (whole - half), 2 * (whole - half)

        for center in [tuple(rng.integers(1, l + 1, size=n).tolist()) for _ in range(20)]:
            pairs = [counts(resp, central(*center)) for resp in data]
            discordant = sum(int(d) for d, _ in pairs)
            tied_one = sum(int(e) for _, e in pairs)
            total_d, _, prior_d = ev.center_stats(center)
            assert total_d == discordant + tie * tied_one
            assert prior_d == kendall_tau_partial(central(*center), prior_center, cfg)
            if tie in (0.5, 1.0):
                assert total_d == sum(kendall_tau_partial(resp, central(*center), cfg)
                                      for resp in data)

    @pytest.mark.usefixtures("fresh_partition_cache")
    @pytest.mark.parametrize("scale, pi_spread", [(0.1, None), (0.0, None), (0.1, 0.8)])
    def test_one_partition_evaluation_per_move(self, monkeypatch, scale, pi_spread):
        # The log psi of every row is computed once per spread: one call at
        # the start, one per spread proposal, and one per move whose center
        # added a row to the table (the vector at its spread is then stale).
        # A fixed prior spread adds one call per fit for the prior's constant.
        made = {"rows": 0, "cache": 0}
        added = []  # per center_stats call, whether it added a row

        def counted(name, func):
            def wrapper(*args, **kwargs):
                made[name] += 1
                return func(*args, **kwargs)
            return wrapper

        center_stats = inference._Evaluator.center_stats

        def stats_of_move(self, center):
            before = self._table.count
            stats = center_stats(self, center)
            added.append(self._table.count > before)
            return stats

        rows = counted("rows", mallows.log_psi_rows)
        monkeypatch.setattr(mallows, "log_psi_rows", rows)
        monkeypatch.setattr(inference, "log_psi_rows", rows)
        monkeypatch.setattr(PartitionCache, "log_psi", counted("cache", PartitionCache.log_psi))
        monkeypatch.setattr(inference._Evaluator, "center_stats", stats_of_move)
        data, truth = _synthetic(4, 3, 1.0, 15, seed=9, missing=20.0)
        prior = PriorConfig(center=truth.center, pi_spread=pi_spread)
        iterations = 60
        mcmc_fit(data, truth.domain, prior,
                 McmcConfig(iterations=iterations, burn_in=20, seed=4,
                            lambda_proposal_scale=scale))
        assert len(added) == 1 + iterations
        adding_moves = sum(added[1:])
        assert adding_moves > 0
        calls = (1 + (iterations if scale > 0 else 0) + adding_moves
                 + (pi_spread is not None))
        assert made == {"rows": calls, "cache": 0}

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_evaluate_matches_direct_rows(self):
        # Every move's terms gathered from the log psi of all rows at a spread
        # equal, exactly, the same formula over log psi of the center's own
        # rows. Centers are met one by one, so many add rows to the table
        # after the vectors at the earlier spreads were built.
        data, truth = _synthetic(6, 3, 1.0, 40, seed=21, missing=30.0)
        ev = inference._Evaluator(data, truth.domain, PriorConfig(center=truth.center),
                                  DistanceConfig())
        rng = np.random.default_rng(5)
        centers = list(dict.fromkeys(tuple(rng.integers(1, 4, size=6).tolist())
                                     for _ in range(200)))[:50]
        spreads = [0.3, 1.0, 0.3, 2.5, 1.0, 0.05, 7.0]
        added_late = 0
        for center in centers:
            before = ev._table.count
            stats = ev.center_stats(center)
            added_late += ev._table.count > before and len(ev._log_psi) > 0
            total_d, rows, prior_d = stats
            for spread in spreads:
                log_psi = log_psi_rows(ev._table.matrix[rows], ev.grid, spread)
                want = (float(-total_d / spread - ev._group_counts @ log_psi[:-2]),
                        ev.prior.log_density(prior_d, spread, float(log_psi[-2])),
                        float(log_psi[-1]))
                assert ev.evaluate(stats, spread) == want
        assert added_late > 5

    def test_center_stats_cache_is_bounded(self, monkeypatch):
        data, truth = _synthetic(5, 3, 2.0, 20, seed=3, missing=20.0)
        prior = PriorConfig(center=truth.center)
        mcmc = McmcConfig(iterations=300, burn_in=100, seed=6)
        sizes = []
        center_stats = inference._Evaluator.center_stats

        def recorded(self, center):
            stats = center_stats(self, center)
            sizes.append(len(self._center_stats))
            return stats

        monkeypatch.setattr(inference._Evaluator, "center_stats", recorded)
        uncapped = mcmc_fit(data, truth.domain, prior, mcmc)
        assert max(sizes) > 8
        sizes.clear()
        monkeypatch.setattr(inference._Evaluator, "_CENTER_STATS_MAX", 8)
        capped = mcmc_fit(data, truth.domain, prior, mcmc)
        assert max(sizes) == 8
        assert np.array_equal(capped.trace.centers, uncapped.trace.centers)
        assert np.array_equal(capped.trace.spreads, uncapped.trace.spreads)
        assert np.array_equal(capped.trace.log_posteriors, uncapped.trace.log_posteriors)


def reference_center_stats(data, prior_center, l, p, center):
    """_Evaluator.center_stats by definition: the center's discordant and
    tied-one pairs with each respondent, over the pairs both items of which
    the respondent ranked, and with the prior center, and the row of each
    observed-item group's restriction (in order of first appearance), the
    prior center's and the center's own, each looked up by the class of its
    bucket sizes in stage order."""
    n = len(center)
    stages = np.array([[0 if v is None else v for v in r.stages] for r in data])
    observed = stages > 0
    i, j = np.triu_indices(n, k=1)
    valid = observed[:, i] & observed[:, j]
    signs = ranking_pair_signs(np.array(center))

    def pair_totals(other, mask):
        discordant = ((other * signs == -1) & mask).sum()
        tied_one = (((other == 0) ^ (signs == 0)) & mask).sum()
        return int(discordant) + p * int(tied_one)

    table = default_cache().table(n, l, p)

    def row(ranking, items):
        sizes = tuple(sum(ranking[i] == s for i in items) for s in sorted(set(ranking)))
        return table.find(class_of_sizes(sizes))

    groups = dict.fromkeys(tuple(np.flatnonzero(o).tolist()) for o in observed)
    rows = [row(center, items) for items in groups]
    rows += [row(prior_center, range(n)), row(center, range(n))]
    total_d = pair_totals(ranking_pair_signs(stages), valid)
    prior_d = pair_totals(ranking_pair_signs(np.array(prior_center)), True)
    return total_d, rows, prior_d


class TestCenterStatsMatchReference:
    """One pass over a center, against reference_center_stats: distances
    equal exactly, and row indices identical."""

    @staticmethod
    def assert_matches(data, prior_center, l, p, visited):
        assert visited
        for center, (total_d, rows, prior_d) in visited.items():
            want_d, want_rows, want_prior_d = reference_center_stats(
                data, prior_center, l, p, center)
            assert (total_d, prior_d) == (want_d, want_prior_d), center
            assert rows.tolist() == want_rows, center
        # The space's table indexes each of its rows once, by class key.
        table = default_cache().table(len(prior_center), l, p)
        assert len(table.index) == table.count

    @pytest.mark.parametrize("workload", ["survey", "wide", "large"])
    def test_every_center_a_benchmark_chain_visits(self, monkeypatch, tmp_path, workload):
        # The benchmark's fits (perfbench/run.py) at chain seed 1000, run
        # through the CLI, with every center the chain's evaluator meets.
        visited = {}
        center_stats = inference._Evaluator.center_stats

        def recorded(self, center):
            visited[center] = stats = center_stats(self, center)
            return stats

        monkeypatch.setattr(inference._Evaluator, "center_stats", recorded)
        fit = ["--iterations", "1500", "--burn-in", "500"]
        if workload == "survey":
            data_path = demo_dataset_path()
            prior_path = data_path.with_name("wellbeing_survey_prior.json")
        else:
            center = "1,1,2,2,3,3" if workload == "wide" else "1,1,2,2,2,3,3,3,4,4"
            n, l, m = (6, 3, 3000) if workload == "wide" else (10, 4, 100)
            result = CliRunner().invoke(cli, [
                "simulate", "--n", str(n), "--l", str(l), "--lambda", "1.0", "--center", center,
                "--M", str(m), "--missing-pct", "10", "--seed", "1",
                "--out", str(tmp_path / "data")])
            assert result.exit_code == 0, result.output
            data_path = tmp_path / "data" / "dataset.csv"
            truth = json.loads((tmp_path / "data" / "truth.json").read_text(encoding="utf-8"))
            prior_path = tmp_path / "truth_center.json"
            prior_path.write_text(json.dumps({"stages": truth["center_internal"]}))
            fit = ["--init-center", "random"] + (
                fit if workload == "wide" else ["--iterations", "300", "--burn-in", "100"])
        result = CliRunner().invoke(cli, [
            "fit", "--data", str(data_path), "--prior-center", str(prior_path), *fit,
            "--seed", "1000", "--out-dir", str(tmp_path / "fit")])
        assert result.exit_code == 0, result.output
        ds = read_dataset(data_path)
        prior_center = tuple(read_ranking_file(prior_path)[0])
        self.assert_matches(ds.rankings(), prior_center, ds.stage_domain.l, 0.5, visited)

    @pytest.mark.parametrize("n, l, tie", [(1, 3, 0.5), (3, 9, 0.5), (4, 7, 0.731),
                                           (6, 4, 0.5), (7, 3, 0.731)])
    def test_random_centers(self, n, l, tie):
        # One item, more stages than items (l > n), and classes whose
        # buckets run against their key (flipped), at a lattice p and off it.
        data, truth = _synthetic(n, l, 1.0, 40, seed=10 * n + l, missing=0.0 if n == 1 else 30.0)
        rng = np.random.default_rng(n * l)
        prior_center = tuple(rng.integers(1, l + 1, size=n).tolist())
        ev = inference._Evaluator(data, StageDomain(l), PriorConfig(center=central(*prior_center)),
                                  DistanceConfig(p=tie))
        centers = {tuple(rng.integers(1, l + 1, size=n).tolist()) for _ in range(60)}
        if n > 1:
            assert any(center_buckets(center)[1] for center in centers)
        self.assert_matches(data, prior_center, l, tie,
                            {center: ev.center_stats(center) for center in centers})


class TestChainTargetsExactPosterior:
    def test_pinned_spread_matches_enumerated_conditional(self):
        # Spread pinned via a zero proposal scale and a fixed-spread center
        # prior; the center chain must then match the exact conditional
        # posterior over all 8 centers in total variation.
        data, truth = _synthetic(3, 2, 1.0, 5, seed=12, missing=0.0)
        spread = 1.0
        prior = PriorConfig(center=truth.center, pi_spread=spread)
        mcmc = McmcConfig(
            iterations=205_000,
            burn_in=5_000,
            seed=99,
            lambda_init=spread,
            lambda_proposal_scale=0.0,
        )
        result = mcmc_fit(data, truth.domain, prior, mcmc)

        raw = [tuple(r.stages) for r in data]
        log_weights = {}
        for stages in full_space(3, 2):
            lp = naive_log_posterior(
                raw, stages, 2, spread, truth.center.stages, pi_spread=spread
            )
            lp -= log_trunc_normal(spread)  # constant once spread is pinned
            log_weights[stages] = lp
        top = max(log_weights.values())
        weights = {k: math.exp(v - top) for k, v in log_weights.items()}
        total = sum(weights.values())
        exact = {k: v / total for k, v in weights.items()}

        counts = {}
        for row in result.trace.centers:
            key = tuple(int(v) for v in row)
            counts[key] = counts.get(key, 0) + 1
        empirical = {k: c / len(result.trace) for k, c in counts.items()}
        tv = 0.5 * sum(
            abs(exact.get(k, 0.0) - empirical.get(k, 0.0))
            for k in set(exact) | set(empirical)
        )
        assert tv < 0.02


class TestMovesAreExact:
    """Each move's kernel, built from the move function the chain runs,
    against the enumerated posterior of tests/oracles.py."""

    @pytest.mark.parametrize("n, l", [(3, 2), (3, 3), (4, 3)])
    def test_center_move_leaves_the_posterior_invariant(self, n, l):
        # P[c, c'] = q(c' | c) min(1, alpha(c -> c')) off the diagonal, from
        # the oracle's exact Mallows pmf around c and _center_move's ratio;
        # the diagonal takes the rest. pi P = pi must hold to rounding.
        spread = 0.8
        data, truth = _synthetic(n, l, 1.0, 8, seed=10 * n + l, missing=30.0)
        ev = inference._Evaluator(data, truth.domain, PriorConfig(center=truth.center),
                                  DistanceConfig())
        raw = [tuple(r.stages) for r in data]
        centers = full_space(n, l)
        log_pi = np.array([naive_log_posterior(raw, c, l, spread, truth.center.stages)
                           for c in centers])
        pi = np.exp(log_pi - log_pi.max())
        pi /= pi.sum()
        index = {c: k for k, c in enumerate(centers)}
        P = np.zeros((len(centers), len(centers)))
        for c in centers:
            state = inference._state_at(ev, c, spread)
            for proposed, q in naive_pmf(c, l, spread).items():
                if proposed != c:
                    _, log_alpha = inference._center_move(ev, state, proposed)
                    P[index[c], index[proposed]] = q * math.exp(min(0.0, log_alpha))
            P[index[c], index[c]] = 1.0 - P[index[c]].sum()
        assert np.abs(pi @ P - pi).max() < 1e-12

    def test_spread_move_is_in_detailed_balance(self):
        # log pi(s) + log q(s' | s) + min(0, log alpha(s -> s')) is the log
        # flow from s to s'; it must equal the flow back. q is the normal
        # around s renormalized to (0, inf), written here independently.
        scale = 0.3
        data, truth = _synthetic(4, 3, 1.0, 10, seed=41, missing=30.0)
        ev = inference._Evaluator(data, truth.domain, PriorConfig(center=truth.center),
                                  DistanceConfig())
        raw = [tuple(r.stages) for r in data]
        center = (1, 2, 3, 3)

        def log_q(to, at):
            walk = NormalDist(at, scale)
            return math.log(walk.pdf(to) / (1.0 - walk.cdf(0.0)))

        def log_flow(at, to):
            state = inference._state_at(ev, center, at)
            _, log_alpha = inference._spread_move(ev, state, to, scale)
            return (naive_log_posterior(raw, center, 3, at, truth.center.stages)
                    + log_q(to, at) + min(0.0, log_alpha))

        for s, s_new in itertools.permutations([0.05, 0.2, 0.45, 0.8, 1.3, 2.1], 2):
            assert log_flow(s, s_new) == pytest.approx(log_flow(s_new, s), abs=1e-9)


class TestMapMatchesBruteForce:
    def test_tiny_instance_joint_mode(self):
        # Exhaustive maximization over all 8 centers and a spread grid
        # must agree with the chain's MAP on a decisively peaked posterior.
        data, truth = _synthetic(3, 2, 0.7, 5, seed=6)
        raw = [tuple(r.stages) for r in data]
        grid = [j * 0.02 for j in range(1, 251)]
        scored = []
        for stages in full_space(3, 2):
            best = max(
                naive_log_posterior(
                    raw, stages, 2, lam, truth.center.stages
                )
                for lam in grid
            )
            scored.append((best, stages))
        oracle_map = max(scored)[1]

        prior = PriorConfig(center=truth.center)
        result = mcmc_fit(
            data, truth.domain, prior, McmcConfig(iterations=2000, burn_in=500, seed=3)
        )
        assert result.pi_map.stages == oracle_map


class TestTraceOps:
    def test_map_estimate_tie_breaks_earliest(self):
        from stagemallows.inference import McmcTrace

        trace = McmcTrace(
            n=2,
            l=2,
            iterations=np.array([1, 2, 3]),
            centers=np.array([[1, 2], [2, 1], [1, 1]]),
            spreads=np.array([1.0, 2.0, 3.0]),
            log_posteriors=np.array([-5.0, -4.0, -4.0]),
            accept_rate_center=0.5,
            accept_rate_spread=0.5,
        )
        center, spread = map_estimate(trace)
        assert center.stages == (2, 1)
        assert spread == 2.0

    def test_map_estimate_single_sample(self):
        from stagemallows.inference import McmcTrace

        trace = McmcTrace(
            n=1,
            l=2,
            iterations=np.array([1]),
            centers=np.array([[2]]),
            spreads=np.array([0.4]),
            log_posteriors=np.array([-1.0]),
            accept_rate_center=1.0,
            accept_rate_spread=1.0,
        )
        assert map_estimate(trace) == (central(2), 0.4)

    def test_map_estimate_empty_trace_rejected(self):
        from stagemallows.inference import McmcTrace

        trace = McmcTrace(
            n=1,
            l=2,
            iterations=np.empty(0, dtype=int),
            centers=np.empty((0, 1), dtype=int),
            spreads=np.empty(0),
            log_posteriors=np.empty(0),
            accept_rate_center=0.0,
            accept_rate_spread=0.0,
        )
        with pytest.raises(ValueError):
            map_estimate(trace)
        with pytest.raises(ValueError):
            stage_marginals(trace)

    def test_marginals_rows_sum_to_one(self):
        data, truth = _synthetic(4, 3, 1.5, 12, seed=14)
        prior = PriorConfig(center=truth.center)
        result = mcmc_fit(data, truth.domain, prior, McmcConfig(iterations=200, burn_in=100, seed=3))
        sums = result.marginals.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)

    def test_degenerate_trace_gives_one_hot_marginals(self):
        from stagemallows.inference import McmcTrace

        trace = McmcTrace(
            n=2,
            l=3,
            iterations=np.array([1, 2]),
            centers=np.array([[1, 3], [1, 3]]),
            spreads=np.array([1.0, 1.0]),
            log_posteriors=np.array([-1.0, -1.0]),
            accept_rate_center=0.0,
            accept_rate_spread=0.0,
        )
        marg = stage_marginals(trace)
        assert np.array_equal(marg, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))

    def test_high_consensus_marginal_mode_matches_truth(self):
        data, truth = _synthetic(4, 3, 0.05, 60, seed=17)
        prior = PriorConfig(center=truth.center)
        result = mcmc_fit(data, truth.domain, prior, McmcConfig(iterations=400, burn_in=100, seed=23))
        modes = result.marginals.argmax(axis=1) + 1
        assert tuple(int(v) for v in modes) == truth.center.stages

    @staticmethod
    def random_trace(n, l, samples, seed):
        rng = np.random.default_rng(seed)
        return McmcTrace(
            n=n, l=l, iterations=np.arange(1, samples + 1),
            centers=rng.integers(1, l + 1, size=(samples, n), dtype=np.int32),
            spreads=np.ones(samples), log_posteriors=np.zeros(samples),
            accept_rate_center=0.0, accept_rate_spread=0.0,
        )

    @pytest.mark.parametrize("n,l", [(8, 4), (3, 9), (2, 4096)])
    def test_marginals_equal_a_count_per_item_and_stage(self, n, l):
        trace = self.random_trace(n, l, 500, seed=n + l)
        want = np.array([[np.count_nonzero(trace.centers[:, i] == s) / len(trace)
                          for s in range(1, l + 1)] for i in range(n)])
        got = stage_marginals(trace)
        assert got.shape == (n, l) and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_marginals_allocate_one_n_by_l_array(self):
        n, l = 1, 2**20
        trace = self.random_trace(n, l, 1000, seed=0)
        tracemalloc.start()
        try:
            stage_marginals(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n * l


class TestInitializationFailure:
    def test_error_names_offending_term(self):
        # A subnormal starting spread sends the likelihood term to -inf.
        data, truth = _synthetic(3, 2, 1.0, 5, seed=1)
        prior = PriorConfig(center=truth.center)
        bad = McmcConfig(iterations=10, burn_in=5, seed=0, lambda_init=1e-320)
        with pytest.raises(InitializationError) as err:
            mcmc_fit(data, truth.domain, prior, bad)
        assert "log-likelihood" in str(err.value)

    def test_error_names_the_prior(self):
        # At a spread of 1e200 the likelihood is finite (every normalizer is
        # its space's size) and the truncated-normal prior underflows.
        data, truth = _synthetic(3, 2, 1.0, 5, seed=1)
        prior = PriorConfig(center=truth.center)
        bad = McmcConfig(iterations=10, burn_in=5, seed=0, lambda_init=1e200)
        with pytest.raises(InitializationError, match=(
                r"^initial log-prior is not finite \(-inf\) at the starting state$")):
            mcmc_fit(data, truth.domain, prior, bad)
