"""Checks of the benchmark's bulk-ESS estimator and span summaries.

Run with: python3 -m pytest perfbench
"""

import numpy as np
import pytest

from ess import _average_ranks, bulk_ess
from tracer import summarize, wrapper_cost_s


def _ar1(phi: float, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=size)
    out = np.empty(size)
    out[0] = noise[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, size):
        out[t] = phi * out[t - 1] + noise[t]
    return out


def test_iid_draws_give_about_n():
    draws = np.random.default_rng(0).normal(size=20000)
    assert bulk_ess(draws) == pytest.approx(20000, rel=0.1)


@pytest.mark.parametrize("phi", [0.5, 0.9])
def test_ar1_gives_n_times_one_minus_phi_over_one_plus_phi(phi):
    size = 20000
    expected = size * (1.0 - phi) / (1.0 + phi)
    estimates = [bulk_ess(_ar1(phi, size, seed)) for seed in range(4)]
    assert np.mean(estimates) == pytest.approx(expected, rel=0.15)


def test_rank_normalization_ignores_monotone_transforms():
    draws = _ar1(0.7, 4000, 5)
    assert bulk_ess(np.exp(draws)) == pytest.approx(bulk_ess(draws), rel=1e-12)


def test_tied_values_share_their_mean_rank():
    ranks = _average_ranks(np.array([3.0, 1.0, 3.0, 2.0, 3.0]))
    assert ranks.tolist() == [4.0, 1.0, 4.0, 2.0, 4.0]


def test_sticky_chain_has_fewer_effective_draws_than_draws():
    # A Metropolis chain that keeps its value through rejected moves.
    rng = np.random.default_rng(1)
    draws = np.repeat(rng.normal(size=500), 8)
    assert bulk_ess(draws) < 1000


def test_chain_that_never_moves_counts_once():
    assert bulk_ess(np.full(1000, 0.7)) == 1.0


def test_self_time_subtracts_direct_children_and_misses_need_a_histogram():
    spans = [
        ["cli.fit", 0.0, 10.0, -1, None],
        ["inference.mcmc_fit", 1.0, 9.0, 0, (8, 4, 100)],
        ["mallows.log_psi", 2.0, 2.5, 1, None],
        ["mallows.log_psi", 3.0, 6.0, 1, None],
        ["mallows.histogram", 3.5, 5.5, 3, (5, 4, (2, 3))],
        ["mallows.log_psi", 7.0, 7.25, 1, None],
        ["mallows.histogram", 7.05, 7.15, 5, (5, 4, (2, 3))],
    ]
    out = summarize(spans)
    assert out["self_s.cli"] == pytest.approx(2.0)
    assert out["self_s.inference"] == pytest.approx(8.0 - 0.5 - 3.0 - 0.25)
    assert out["log_psi_calls"] == 3
    assert out["log_psi_misses"] == 2
    assert out["log_psi_hit_s"] == pytest.approx(0.5)
    assert out["histogram_builds"] == 1
    assert out["histogram_build_s"] == pytest.approx(2.0)
    assert out["histogram_points"] == 4**5
    assert out["sign_table_bytes"] == 4**8 * 28 + 4**5 * 10
    total_self = sum(out[f"self_s.{layer}"] for layer in
                     ("cli", "io", "synth", "inference", "mallows"))
    assert total_self == pytest.approx(10.0)


def test_wrapper_cost_is_a_small_positive_time():
    assert 0.0 < wrapper_cost_s(2000) < 1e-4
