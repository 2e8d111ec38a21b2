"""Bayesian fitting of the staged Mallows model to censored survey data.

The posterior over (center, spread) combines an independence likelihood
across respondents, a truncated-normal prior on the spread, and a Mallows
prior on the center. Fitting runs a Metropolis-within-Gibbs chain that
alternates a Mallows-proposal move on the center with a truncated-normal
random walk on the spread, and reports the maximum-a-posteriori sample.

A censored respondent's likelihood is restricted to what they ranked:
their term is the Mallows density of their observed items, normalized
over the assignments of those items alone, so it is a proper likelihood
for what was observable.

A chain iteration's work depends neither on the number of respondents nor
on how often a spread recurs. The respondents are reduced once to per-pair
sign tallies and observed-item groups, so a new center's distances to the
data and to the prior center are one gather over the item pairs. Every
normalizer is a row over the distance grid of n items in the space's one
table of rows (mallows.RowTable), which the fit gathers from and does not
copy; the log psi of all its rows is one log_psi_rows call per spread,
kept for the last two spreads. The center move runs at the spread the
previous spread move evaluated (accepted) or the one before it did
(rejected), so an iteration makes one such call, for its spread proposal,
and one more when its proposed center adds a row to the table (only that
one with the spread pinned). Each move (_center_move, _spread_move)
gathers its proposed state's terms, the likelihood's, the prior's and the
proposal ratio's, from that vector, and the chain state (_State) carries
those of its current point.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InitializationError
from .mallows import (
    MallowsParams,
    center_buckets,
    check_capacity,
    default_cache,
    distance_grid,
    log_psi_rows,
    structural_class,
)
from .rankings import (
    CentralRanking,
    DistanceConfig,
    PartialRanking,
    StageDomain,
    compared_pairs,
    kendall_tau_partial,
    pair_counts,
    ranking_pair_signs,
    stage_matrix,
)

logger = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_std_normal_cdf(x: float) -> float:
    return math.log(0.5 * math.erfc(-x / _SQRT2))


def log_truncated_normal(value: float) -> float:
    """Log density of a standard normal restricted to (0, inf).

    Truncating at the location doubles the half-line mass, hence the
    log 2 term. Nonpositive values score -inf rather than raising.
    """
    if value <= 0.0 or not math.isfinite(value):
        return -math.inf
    return math.log(2.0) + (-0.5 * value * value - _LOG_SQRT_2PI)


@dataclass(frozen=True)
class PriorConfig:
    """Joint prior p(center, spread) = p(center | spread) p(spread).

    The spread gets a standard normal truncated to (0, inf). The
    center gets a Mallows distribution around ``center``; its spread is
    the currently sampled spread when ``pi_spread`` is None (the coupled
    form), or the given fixed value.
    """

    center: CentralRanking
    pi_spread: float | None = None

    def __post_init__(self):
        if self.pi_spread is not None and not 0 < self.pi_spread < math.inf:
            raise ValueError(
                f"pi_spread must be finite and positive when fixed, got {self.pi_spread}"
            )

    def center_spread(self, spread: float) -> float:
        """The spread of the center's Mallows prior at this model spread."""
        return self.pi_spread if self.pi_spread is not None else spread

    def log_density(self, prior_d: float, spread: float, log_psi: float) -> float:
        """log p(center | spread) + log p(spread), for a center at d_p = prior_d;
        log_psi is log psi of the prior center's class at center_spread(spread)."""
        if spread <= 0:
            return -math.inf
        pi_term = -prior_d / self.center_spread(spread) - log_psi
        return log_truncated_normal(spread) + pi_term


@dataclass(frozen=True)
class McmcConfig:
    """Chain settings. Defaults retain 1,000 samples from 1,500 iterations."""

    iterations: int = 1500
    burn_in: int = 500
    thinning: int = 1
    lambda_init: float = 1.0
    lambda_proposal_scale: float = 0.1
    seed: int = 0
    start_center: CentralRanking | None = None

    def __post_init__(self):
        if self.iterations < 1 or self.burn_in < 0 or self.thinning < 1:
            raise ValueError("iterations, burn_in, thinning must be positive")
        if self.iterations <= self.burn_in:
            raise ValueError(
                f"iterations ({self.iterations}) must exceed burn_in ({self.burn_in})"
            )
        if (self.iterations - self.burn_in) % self.thinning != 0:
            raise ValueError("iterations - burn_in must be a multiple of thinning")
        if not 0 < self.lambda_init < math.inf:
            raise ValueError(f"lambda_init must be finite and positive, got {self.lambda_init}")
        if not 0 <= self.lambda_proposal_scale < math.inf:
            raise ValueError(
                f"lambda_proposal_scale must be finite and >= 0, got {self.lambda_proposal_scale}"
            )

    @property
    def retained(self) -> int:
        return (self.iterations - self.burn_in) // self.thinning


@dataclass(frozen=True)
class McmcTrace:
    """Retained samples of a finished chain, in iteration order."""

    n: int
    l: int
    iterations: np.ndarray
    centers: np.ndarray
    spreads: np.ndarray
    log_posteriors: np.ndarray
    accept_rate_center: float
    accept_rate_spread: float

    def __len__(self) -> int:
        return len(self.spreads)

    @property
    def acceptance_rates(self) -> tuple[float, float]:
        return (self.accept_rate_center, self.accept_rate_spread)

    @property
    def samples(self) -> Iterator[tuple[CentralRanking, float, float]]:
        for row, spread, lp in zip(self.centers, self.spreads, self.log_posteriors):
            yield CentralRanking(tuple(int(v) for v in row)), float(spread), float(lp)


@dataclass(frozen=True)
class FitResult:
    """MAP estimate plus the trace it was read from."""

    pi_map: CentralRanking
    lambda_map: float
    trace: McmcTrace
    marginals: np.ndarray


class _Evaluator:
    """The data, reduced to what a center's statistics need, and those
    statistics per center.

    At construction the respondents are reduced to per-pair sign tallies
    (how many valid respondents order each item pair +1, -1 or 0) and to
    observed-item groups with their sizes; nothing after __init__ reads an
    array with a respondent axis. The prior center's own tallies sit beside
    them. A center's statistics are its summed dropped-pair distance to the
    data and its distance to the prior center, from one gather over the
    tallies, and the indices of its rows in the space's RowTable: each
    group's restricted class, then the prior center's class, then its own,
    found by one integer code each (see center_stats). The log psi of all
    the table's rows at a spread is one log_psi_rows call, kept for the
    last two spreads and rebuilt when the table has grown since
    (_log_psi_at); a center's partition terms are a gather from it
    (evaluate). The statistics do not depend on the spread and are kept for
    the last _CENTER_STATS_MAX centers met.
    """

    _CENTER_STATS_MAX = 4096

    def __init__(
        self,
        data: Sequence[PartialRanking],
        domain: StageDomain,
        prior: PriorConfig,
        cfg: DistanceConfig,
    ):
        if len(data) == 0:
            raise ValueError("dataset is empty")
        n = data[0].n
        check_capacity(n, domain.l)
        stages, count = stage_matrix(data, n, domain)
        if count < len(data):
            raise ValueError(f"respondent {count} has {data[count].n} items, expected {n}")
        if prior.center.n != n:
            raise ValueError(
                f"prior center has {prior.center.n} items, data has {n}"
            )
        prior.center.check_domain(domain)

        self.n = n
        self.l = domain.l
        self.cfg = cfg
        self.prior = prior

        # check_capacity bounds l far below 2^31.
        stages = stages.astype(np.int32)
        mask = stages > 0
        signs = ranking_pair_signs(stages).T
        valid = compared_pairs(mask).T
        # _tallies[:, 3k + c + 1]: how many valid respondents a center with
        # sign c on pair k is discordant, and tied in one, with. A center's
        # totals are then one gather at 3k + 1 + its signs, and one sum.
        # Rows 2 and 3 tally the prior center alone, so the same gather also
        # gives the center's discordant and tied-one pairs with the prior.
        prior_signs = ranking_pair_signs(np.asarray(prior.center.stages))[:, np.newaxis]
        self._tallies = np.concatenate([
            np.stack([pair_counts(x, c, v) for c in (-1, 0, 1)], axis=-1).reshape(2, -1)
            for x, v in ((signs, valid), (prior_signs, None))
        ])
        self._pair_base = 3 * np.arange(len(signs)) + 1

        # Respondents sharing an observed-item set share their restricted
        # partition class, so group them once: one 0/1 row of items each,
        # in order of first appearance, then a row of every item, for the
        # center's own class. center_stats codes each row's bucket sizes in
        # base n + 1, one digit per bucket a center can have (min(n, l)),
        # below 2^30 in every space check_capacity accepts.
        groups = Counter(map(tuple, mask.tolist()))
        self._group_items = np.array([*groups, (1,) * n], dtype=np.int64)
        self._group_counts = np.array(list(groups.values()), dtype=np.float64)
        self._radix = (n + 1) ** np.arange(min(n, self.l), dtype=np.int64)
        self._code_rows: dict[int, int] = {}

        self.grid = distance_grid(n, cfg.p)
        self._table = default_cache().table(n, self.l, cfg.p)
        self._center_stats: OrderedDict[tuple[int, ...], tuple] = OrderedDict()
        # Spread -> log psi of the table's first len(vector) rows (_log_psi_at).
        self._log_psi: OrderedDict[float, np.ndarray] = OrderedDict()
        self._prior_row = self._table.find(structural_class(prior.center))
        # A fixed prior spread makes the prior's normalizer one constant.
        self._prior_log_psi = None if prior.pi_spread is None else float(log_psi_rows(
            self._table.matrix[self._prior_row], self.grid, prior.pi_spread))

    # -- per-center statistics -------------------------------------------

    def center_stats(self, center: tuple[int, ...]) -> tuple:
        """(summed data distance, row indices, distance to the prior center);
        the rows are each group's, then the prior center's, then the
        center's own.

        A center met for the first time costs a few array operations: its
        pair signs (ranking_pair_signs) and one gather over the tallies give
        both distances, and one matrix-vector product gives every group's
        restricted class, and its own, as one integer code, the bucket sizes
        in base n + 1. Codes are looked up in one dict of the evaluator's; a
        code met for the first time is decoded to its sizes and looked up, or
        its row built, by RowTable.find."""
        stats = self._center_stats.get(center)
        if stats is not None:
            self._center_stats.move_to_end(center)
            return stats
        signs = ranking_pair_signs(np.asarray(center, dtype=np.int32))
        discordant, tied_one, prior_discordant, prior_tied = (
            self._tallies.take(self._pair_base + signs, axis=1).sum(axis=1).tolist())
        total_d = float(discordant + self.cfg.p * tied_one)
        prior_d = prior_discordant + self.cfg.p * prior_tied

        # How many of a row's items sit in each of the center's buckets, in
        # the class key's order, as one code: digit t, in base n + 1, counts
        # bucket t. Those are the bucket sizes of the restriction, in order
        # or reversed; the last row's are the class key itself.
        class_key, _, bucket = center_buckets(center)
        codes = (self._group_items @ self._radix[bucket]).tolist()
        rows = list(map(self._code_rows.get, codes))
        if None in rows:
            base = self.n + 1
            for g, code in enumerate(codes):
                if rows[g] is None:
                    sizes = tuple(code // base**t % base for t in range(len(class_key)))
                    rows[g] = self._code_rows[code] = self._table.find(sizes)
        rows.insert(-1, self._prior_row)
        stats = (total_d, np.array(rows), prior_d)
        self._center_stats[center] = stats
        if len(self._center_stats) > self._CENTER_STATS_MAX:
            self._center_stats.popitem(last=False)
        return stats

    def _log_psi_at(self, spread: float) -> np.ndarray:
        """log psi of every row of the table at this spread, kept for the last
        two spreads and recomputed, in one log_psi_rows call, when the table
        has grown since; count is read before matrix (see RowTable)."""
        count = self._table.count
        log_psi = self._log_psi.get(spread)
        if log_psi is None or len(log_psi) < count:
            log_psi = log_psi_rows(self._table.matrix[:count], self.grid, spread)
            self._log_psi[spread] = log_psi
            if len(self._log_psi) > 2:
                self._log_psi.popitem(last=False)
        self._log_psi.move_to_end(spread)
        return log_psi

    def evaluate(self, stats: tuple, spread: float) -> tuple[float, float, float]:
        """(log likelihood, log prior, log psi of the center's own class) at
        this spread, gathered from the log psi of every row at the spread
        (_log_psi_at)."""
        total_d, rows, prior_d = stats
        log_psi = self._log_psi_at(spread)[rows]
        ll = float(-total_d / spread - self._group_counts @ log_psi[:-2])
        prior_log_psi = self._prior_log_psi
        if prior_log_psi is None:
            prior_log_psi = float(log_psi[-2])
        lp = self.prior.log_density(prior_d, spread, prior_log_psi)
        return ll, lp, float(log_psi[-1])


def _evaluate(
    data: Sequence[PartialRanking],
    params: MallowsParams,
    prior: PriorConfig,
    cfg: DistanceConfig,
) -> tuple[_Evaluator, tuple]:
    """One evaluator over data and prior, and the statistics of params' center."""
    ev = _Evaluator(data, params.domain, prior, cfg)
    if params.n != ev.n:
        raise ValueError(f"model has {params.n} items, data has {ev.n}")
    return ev, ev.center_stats(params.center.stages)


def log_likelihood(
    data: Sequence[PartialRanking],
    params: MallowsParams,
    cfg: DistanceConfig = DistanceConfig(),
) -> float:
    """Sum of per-respondent log densities under the given model.

    Respondents are independent; each censored respondent contributes its
    dropped-pair distance, normalized over the assignments of the items it
    ranked (see module docstring).
    """
    prior = PriorConfig(center=params.center)
    ev, stats = _evaluate(data, params, prior, cfg)
    return ev.evaluate(stats, params.spread)[0]


def log_prior(
    params: MallowsParams,
    prior: PriorConfig,
    cfg: DistanceConfig = DistanceConfig(),
) -> float:
    """Log of p(center | spread) p(spread) under the joint prior."""
    if prior.center.n != params.n:
        raise ValueError(
            f"prior center has {prior.center.n} items, model has {params.n}"
        )
    prior_d = kendall_tau_partial(params.center, prior.center, cfg)
    log_psi = default_cache().log_psi(
        params.n, params.l, structural_class(prior.center), cfg.p,
        prior.center_spread(params.spread),
    )
    return prior.log_density(prior_d, params.spread, log_psi)


def log_posterior(
    data: Sequence[PartialRanking],
    params: MallowsParams,
    prior: PriorConfig,
    cfg: DistanceConfig = DistanceConfig(),
) -> float:
    """Unnormalized log posterior: log likelihood plus log prior."""
    ev, stats = _evaluate(data, params, prior, cfg)
    ll, lp, _ = ev.evaluate(stats, params.spread)
    return ll + lp


def _propose_truncated_normal(rng: np.random.Generator, loc: float, scale: float) -> float:
    while True:
        value = rng.normal(loc, scale)
        if value > 0.0:
            return float(value)


class _State(NamedTuple):
    """The chain's current point, with the terms its moves reuse: the
    center's statistics (_Evaluator.center_stats), the log posterior, and
    the log psi of the center's own class at the spread."""

    center: tuple[int, ...]
    spread: float
    stats: tuple
    log_post: float
    log_psi: float


def _state_at(ev: _Evaluator, center: tuple, spread: float) -> _State:
    """The chain state at (center, spread); InitializationError names the
    term that is not finite there."""
    stats = ev.center_stats(center)
    ll, lp, log_psi = ev.evaluate(stats, spread)
    for name, value in (("log-likelihood", ll), ("log-prior", lp)):
        if not math.isfinite(value):
            raise InitializationError(
                f"initial {name} is not finite ({value}) at the starting state")
    return _State(center, spread, stats, ll + lp, log_psi)


def _center_move(ev: _Evaluator, state: _State, proposed: tuple) -> tuple[_State, float]:
    """The state at a center drawn from Mallows(state.center, state.spread),
    and its log acceptance ratio.

    The proposal q(c' | c) = exp(-d(c', c) / spread) / psi(c) has a
    symmetric numerator, so the ratio is log pi(c') - log pi(c) + log psi(c)
    - log psi(c'): centers in different structural classes have different
    normalizers.
    """
    stats = ev.center_stats(proposed)
    ll, lp, log_psi = ev.evaluate(stats, state.spread)
    log_post = ll + lp
    new = _State(proposed, state.spread, stats, log_post, log_psi)
    return new, (log_post - state.log_post) + (state.log_psi - log_psi)


def _spread_move(ev: _Evaluator, state: _State, proposed: float, scale: float
                 ) -> tuple[_State, float]:
    """The state at a spread drawn from normal(state.spread, scale)
    truncated to (0, inf), and its log acceptance ratio.

    Each direction's proposal is renormalized by the mass its normal puts
    on (0, inf), Phi(spread / scale), so the ratio is log pi(s') - log pi(s)
    + log Phi(s / scale) - log Phi(s' / scale).
    """
    ll, lp, log_psi = ev.evaluate(state.stats, proposed)
    log_post = ll + lp
    new = _State(state.center, proposed, state.stats, log_post, log_psi)
    return new, (log_post - state.log_post) + (
        _log_std_normal_cdf(state.spread / scale) - _log_std_normal_cdf(proposed / scale))


def _accept(rng: np.random.Generator, log_alpha: float) -> bool:
    """Metropolis-Hastings: accept with probability min(1, exp(log_alpha)).
    The uniform is drawn whatever log_alpha, one per move."""
    u = rng.random()
    return log_alpha >= 0.0 or u < math.exp(log_alpha)


def mcmc_fit(
    data: Sequence[PartialRanking],
    domain: StageDomain,
    prior: PriorConfig,
    mcmc: McmcConfig = McmcConfig(),
    cfg: DistanceConfig = DistanceConfig(),
) -> FitResult:
    """Run the Metropolis-within-Gibbs chain and return the MAP sample.

    Each iteration draws a new center from a Mallows distribution around
    the current one, exactly, through the stage-count program
    (PartitionCache.draw), and accepts it by _center_move's ratio. Then it
    draws a new spread from a truncated-normal random walk and accepts it
    by _spread_move's ratio. A proposal scale of zero disables the spread
    move, pinning the spread at its initial value. The retained samples
    count as draws for check_capacity, which refuses a chain whose trace
    would not fit before it starts.
    """
    ev = _Evaluator(data, domain, prior, cfg)
    check_capacity(ev.n, ev.l, draws=mcmc.retained)
    rng = np.random.default_rng(mcmc.seed)

    start = mcmc.start_center if mcmc.start_center is not None else prior.center
    if start.n != ev.n:
        raise ValueError(f"start center has {start.n} items, data has {ev.n}")
    start.check_domain(domain)

    state = _state_at(ev, start.stages, mcmc.lambda_init)

    out_iters = np.arange(mcmc.burn_in + 1, mcmc.iterations + 1, mcmc.thinning, dtype=np.int64)
    out_centers = np.empty((mcmc.retained, ev.n), dtype=np.int32)
    out_spreads = np.empty(mcmc.retained, dtype=np.float64)
    out_log_posts = np.empty(mcmc.retained, dtype=np.float64)

    accept_center = accept_spread = 0
    scale = mcmc.lambda_proposal_scale
    write = 0

    for t in range(1, mcmc.iterations + 1):
        (proposed,) = default_cache().draw(state.center, ev.l, cfg.p, state.spread, rng, 1)
        new, log_alpha = _center_move(ev, state, proposed)
        if _accept(rng, log_alpha):
            state = new
            accept_center += 1
        if scale > 0.0:
            spread = _propose_truncated_normal(rng, state.spread, scale)
            new, log_alpha = _spread_move(ev, state, spread, scale)
            if _accept(rng, log_alpha):
                state = new
                accept_spread += 1

        if t > mcmc.burn_in and (t - mcmc.burn_in - 1) % mcmc.thinning == 0:
            out_centers[write] = state.center
            out_spreads[write] = state.spread
            out_log_posts[write] = state.log_post
            write += 1

    rate_center = accept_center / mcmc.iterations
    rate_spread = accept_spread / mcmc.iterations
    # One stage leaves one center to accept, and a zero scale pins the spread.
    if (ev.l > 1 and rate_center in (0.0, 1.0)) or (scale > 0.0 and rate_spread in (0.0, 1.0)):
        logger.warning("degenerate acceptance rates (center=%.3f, spread=%.3f); "
                       "the chain is unlikely to have mixed", rate_center, rate_spread)

    trace = McmcTrace(
        n=ev.n,
        l=ev.l,
        iterations=out_iters,
        centers=out_centers,
        spreads=out_spreads,
        log_posteriors=out_log_posts,
        accept_rate_center=rate_center,
        accept_rate_spread=rate_spread,
    )
    pi_map, lambda_map = map_estimate(trace)
    return FitResult(
        pi_map=pi_map,
        lambda_map=lambda_map,
        trace=trace,
        marginals=stage_marginals(trace),
    )


def map_estimate(trace: McmcTrace) -> tuple[CentralRanking, float]:
    """The retained sample with the highest stored log posterior.

    Ties resolve to the earliest sample.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    best = int(np.argmax(trace.log_posteriors))
    return (
        CentralRanking(tuple(int(v) for v in trace.centers[best])),
        float(trace.spreads[best]),
    )


def stage_marginals(trace: McmcTrace) -> np.ndarray:
    """Per-item posterior stage frequencies as an (n, l) matrix.

    Entry (i, s-1) is the fraction of retained samples assigning item i
    to stage s; every row sums to one.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    out = np.empty((trace.n, trace.l), dtype=np.float64)
    for s in range(1, trace.l + 1):
        out[:, s - 1] = np.mean(trace.centers == s, axis=0)
    return out
