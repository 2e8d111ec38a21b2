"""Rank-normalized bulk effective sample size, numpy and stdlib only.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner, "Rank-normalization,
folding, and localization: an improved R-hat for assessing convergence of
MCMC", Bayesian Analysis 2021: split each chain in half, replace the pooled
draws by normal scores of their average ranks, and estimate the
autocorrelation time with Geyer's initial monotone sequence.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a flat array, ties sharing their mean rank."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    group = np.cumsum(starts) - 1
    bounds = np.r_[np.flatnonzero(starts), values.size]
    mean_rank = 0.5 * (bounds[:-1] + bounds[1:] + 1)
    ranks = np.empty(values.size)
    ranks[order] = mean_rank[group]
    return ranks


def _rank_normalize(chains: np.ndarray) -> np.ndarray:
    ranks = _average_ranks(chains.ravel())
    inv_cdf = NormalDist().inv_cdf
    size = ranks.size
    scores = [inv_cdf((r - 0.375) / (size + 0.25)) for r in ranks]
    return np.asarray(scores).reshape(chains.shape)


def _autocovariance(chains: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row at every lag, via zero-padded FFT."""
    draws = chains.shape[1]
    centered = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * draws - 1).bit_length()
    spectrum = np.fft.rfft(centered, n=size, axis=1)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=size, axis=1)[:, :draws] / draws


def _ess(chains: np.ndarray) -> float:
    """Multi-chain ESS of a (chains, draws) array, Geyer's monotone sequence."""
    n_chain, n_draw = chains.shape
    acov = _autocovariance(chains)
    mean_var = acov[:, 0].mean() * n_draw / (n_draw - 1.0)
    var_plus = mean_var * (n_draw - 1.0) / n_draw
    if n_chain > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if not var_plus > 0.0:
        return 1.0  # draws that never move carry one draw's information
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer's initial positive sequence: sum lag pairs while they stay
    # positive; the even lag after the last kept pair enters once.
    rho_even, rho_odd = 1.0, rho[1]
    t = 1
    while t < n_draw - 3 and rho_even + rho_odd > 0.0:
        rho_even, rho_odd = rho[t + 1], rho[t + 2]
        t += 2
    kept = rho[: t - 1].reshape(-1, 2)
    # Initial monotone sequence: pair sums may not increase.
    total = np.minimum.accumulate(kept.sum(axis=1)).sum()
    tail = rho_even if rho_even > 0.0 else 0.0
    tau = max(-1.0 + 2.0 * total + tail, 1.0 / np.log10(n_chain * n_draw))
    return float(n_chain * n_draw / tau)


def bulk_ess(draws) -> float:
    """Bulk ESS of one chain's draws (1-D), or of (chains, draws) arrays."""
    chains = np.atleast_2d(np.asarray(draws, dtype=np.float64))
    half = chains.shape[1] // 2
    split = np.concatenate([chains[:, :half], chains[:, -half:]], axis=0)
    return _ess(_rank_normalize(split))
