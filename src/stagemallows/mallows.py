"""The Mallows distribution over the space of stage assignments {1..l}^n.

The probability of a ranking x decays exponentially in its penalized
Kendall tau distance from a central ranking:

    f(x) = exp(-d_p(x, center) / spread) / psi(spread)

where psi is the normalizing sum over all l^n assignments. psi comes from
a histogram of (discordant, tied-in-one) pair counts over the space,
built per structural class by a dynamic program over the center's
buckets. The exact sampler still enumerates the space. Both are exact,
and both sit behind a capacity guard.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError
from .rankings import (
    CentralRanking,
    DistanceConfig,
    StageDomain,
    kendall_tau_partial,
    pair_counts,
    pair_indices,
    pair_signs,
    ranking_pair_signs,
)

#: Largest l^n the enumeration paths will touch before failing loudly.
DEFAULT_ENUMERATION_GUARD = 2**24

#: Largest number of bytes enumerating a space may take (see check_guard).
ENUMERATION_BYTE_BUDGET = 2**31


@dataclass(frozen=True)
class MallowsParams:
    """A central ranking, a strictly positive spread, and the stage domain.

    Small spread concentrates mass at the center; large spread flattens
    the distribution toward uniform. Zero is a limit, not a parameter.
    """

    center: CentralRanking
    spread: float
    domain: StageDomain

    def __post_init__(self):
        if not (self.spread > 0.0) or not math.isfinite(self.spread):
            raise ValueError(f"spread must be a positive finite real, got {self.spread}")
        self.center.check_domain(self.domain)

    @property
    def n(self) -> int:
        return self.center.n

    @property
    def l(self) -> int:
        return self.domain.l


def check_guard(n: int, l: int, guard: int = DEFAULT_ENUMERATION_GUARD) -> int:
    """Return l**n, or raise CapacityError past the guard or the byte budget.

    The peak bytes of enumerating are estimated from above: per point and
    item pair, the int8 sign table and three table-sized temporaries of a
    distance scan; per point, 48 bytes of count, distance and CDF vectors
    (more than building the table adds); per pair, the n-by-n mask and
    the two int64 arrays that list the pairs.
    """
    # Past the guard's bit length, l^n > guard whenever l > 1; refuse such
    # spaces before forming l**n, which at n in the millions is a huge integer.
    if (n > 0 and l > guard) or (l > 1 and n >= guard.bit_length()):
        raise CapacityError(n, l, guard)
    size = l**n
    if size > guard:
        raise CapacityError(n, l, guard)
    pairs = n * (n - 1) // 2
    needed = size * (4 * pairs + 48) + 20 * pairs
    if needed > ENUMERATION_BYTE_BUDGET:
        raise CapacityError(n, l, guard, (
            f"needs about {needed} bytes to enumerate, "
            f"over the budget of {ENUMERATION_BYTE_BUDGET}"
        ))
    return size


def structural_class(center: CentralRanking | Sequence[int]) -> tuple[int, ...]:
    """Canonical cache key for the center's bucket structure.

    The distance multiset over the space is unchanged by relabeling items
    and by reversing the stage order, but not by arbitrary reorderings of
    the bucket sizes. The key is therefore the occupied bucket sizes in
    stage order, canonicalized against their reversal.
    """
    stages = center.stages if isinstance(center, CentralRanking) else tuple(center)
    counts: dict[int, int] = {}
    for value in stages:
        counts[value] = counts.get(value, 0) + 1
    ordered = tuple(counts[s] for s in sorted(counts))
    return min(ordered, ordered[::-1])


def enumerate_space(
    n: int, l: int, guard: int = DEFAULT_ENUMERATION_GUARD
) -> Iterator[CentralRanking]:
    """Yield every assignment in {1..l}^n, in lexicographic order."""
    if n < 1 or l < 1:
        raise ValueError(f"need n >= 1 and l >= 1, got n={n}, l={l}")
    check_guard(n, l, guard)
    for stages in itertools.product(range(1, l + 1), repeat=n):
        yield CentralRanking(stages)


def _decode(index: np.ndarray, n: int, l: int) -> np.ndarray:
    """The points of {1..l}^n at the given lexicographic indices, one per column."""
    powers = l ** np.arange(n - 1, -1, -1, dtype=np.int64)
    stages = index // powers[:, np.newaxis]
    stages %= l
    stages += 1
    return stages


@lru_cache(maxsize=32)
def _space_signs(n: int, l: int) -> np.ndarray:
    """Pair signs of every point of {1..l}^n: int8 (l**n, n(n-1)/2), lexicographic.

    Filled one pair column at a time, so no table-sized temporary is
    made. Column-major, so that each column is contiguous and a distance
    scan reduces across whole columns.
    """
    stages = _decode(np.arange(l**n), n, l)
    i, j = pair_indices(n)
    table = np.empty((l**n, len(i)), dtype=np.int8, order="F")
    for k in range(len(i)):
        table[:, k] = pair_signs(stages[i[k]], stages[j[k]])
    table.setflags(write=False)
    return table


def _distance_components(
    center: Sequence[int], l: int, guard: int = DEFAULT_ENUMERATION_GUARD
) -> tuple[np.ndarray, np.ndarray]:
    """Per-space-point discordant and tied-in-one pair counts vs center."""
    n = len(center)
    check_guard(n, l, guard)
    return pair_counts(_space_signs(n, l), ranking_pair_signs(np.asarray(center)))


@lru_cache(maxsize=256)
def _compositions(b: int, l: int) -> tuple[np.ndarray, ...]:
    """Every way v to spread b items over l stages, one per row, with
    below[:, t] = sum_{t' < t} v_t', the multinomial(b; v), and the number
    of the b items' pairs that v splits apart, C(b,2) - sum_t C(v_t,2)."""
    rows = []
    for bars in itertools.combinations(range(b + l - 1), l - 1):
        edges = (-1, *bars, b + l - 1)
        rows.append([hi - lo - 1 for lo, hi in zip(edges, edges[1:])])
    comps = np.array(rows, dtype=np.int64)
    below = np.cumsum(comps, axis=1) - comps
    mult = np.array([math.factorial(b) // math.prod(map(math.factorial, v)) for v in rows],
                    dtype=np.int64)
    split = math.comb(b, 2) - (comps * (comps - 1) // 2).sum(axis=1)
    for array in (comps, below, mult, split):
        array.setflags(write=False)
    return comps, below, mult, split


def _stage_count_histogram(
    class_key: tuple[int, ...], l: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(discordant, tied-one, multiplicity) over {1..l}^n for a center of class_key.

    The center's buckets are placed in stage order. The state u counts
    the items already placed at each stage, and table[u, d, e] counts the
    ways to reach u with d discordant and e tied-in-one pairs among them.
    Placing a bucket with composition v over the stages adds
    sum_t v_t * sum_{t' > t} u_t' discordant pairs (a later bucket placed
    below an earlier one), sum_t v_t * u_t tied-one pairs across buckets,
    and the bucket's own pairs that v splits apart.

    At most n stages are occupied, so for l > n the program runs over n
    stages: a final state with j occupied stages stands for C(n, j) ways
    to choose them there and C(l, j) over l stages.
    """
    n = sum(class_key)
    k = min(l, n)
    radix = (n + 1) ** np.arange(k, dtype=np.int64)
    states = np.zeros((1, k), dtype=np.int64)
    table = np.ones((1, 1, 1), dtype=np.int64)
    for b in class_key:
        comps, below, mult, split = _compositions(b, k)
        discordant = states @ below.T
        tied = states @ comps.T + split
        # u -> u + v is injective for each v, so each scatter below
        # writes every cell at most once.
        codes, dest = np.unique((states @ radix)[:, np.newaxis] + comps @ radix,
                                return_inverse=True)
        s, rows, cols = table.shape
        width = cols + int(tied.max())
        grown = np.zeros((len(codes), rows + int(discordant.max()), width), dtype=np.int64)
        base = (dest.reshape(s, -1) * grown.shape[1] + discordant) * width + tied
        cells = (np.arange(rows)[:, np.newaxis] * width + np.arange(cols)).ravel()
        flat, source = grown.reshape(-1), table.reshape(s, -1)
        for c in range(len(comps)):
            flat[base[:, c, np.newaxis] + cells] += mult[c] * source
        states = codes[:, np.newaxis] // radix % (n + 1)
        table = grown
    if l > n:
        occupied = np.count_nonzero(states, axis=1)
        table = np.stack([
            table[occupied == j].sum(axis=0) // math.comb(n, j) * math.comb(l, j)
            for j in range(1, n + 1)
        ])
    counts = table.sum(axis=0)
    d_counts, e_counts = np.nonzero(counts)
    return d_counts, e_counts, counts[d_counts, e_counts]


def _log_sum_exp(values: np.ndarray) -> float:
    top = float(np.max(values))
    return top + math.log(float(np.sum(np.exp(values - top))))


class PartitionCache:
    """Memoized partition function values, distance histograms and vectors.

    The histogram of (discordant, tied-in-one) pair counts over the whole
    space is built by the stage-count dynamic program, without touching
    the l^n points, and cached per (n, l, structural class); from it, log
    psi for any (p, spread) is a short log-sum-exp. Psi values themselves
    are cached with the spread quantized to 12 decimal digits, in an LRU
    bounded so long chains with ever-changing spreads cannot grow the
    cache without limit. The exact sampler enumerates: its per-center
    distance vectors hold l^n floats each, so only the last two are kept
    (the chain draws around its current center, and a rejected move keeps
    it). Safe for concurrent use; racing writers recompute identical values.
    """

    _LAMBDA_DIGITS = 12
    _MAX_PSI_ENTRIES = 65536
    _MAX_DISTANCE_VECTORS = 2

    def __init__(self):
        self._lock = threading.Lock()
        self._histograms: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._log_psi: "OrderedDict[tuple, float]" = OrderedDict()
        self._distances: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

    def draw(
        self, center: tuple[int, ...], l: int, p: float, spread: float,
        rng: np.random.Generator, count: int, guard: int = DEFAULT_ENUMERATION_GUARD,
    ) -> list[tuple[int, ...]]:
        """Exact i.i.d. draws from Mallows(center, spread) over {1..l}^n.

        Inverts the CDF of the enumerated pmf, using the vector of
        distances from center to every point of the space in
        lexicographic order.
        """
        key = (l, p, center)
        with self._lock:
            distances = self._distances.get(key)
            if distances is not None:
                self._distances.move_to_end(key)
        if distances is None:
            d_counts, e_counts = _distance_components(center, l, guard)
            distances = d_counts + p * e_counts
            with self._lock:
                self._distances[key] = distances
                while len(self._distances) > self._MAX_DISTANCE_VECTORS:
                    self._distances.popitem(last=False)
        cdf = np.cumsum(np.exp(-distances / spread))
        draws = rng.random(count) * cdf[-1]
        idx = np.minimum(np.searchsorted(cdf, draws, side="right"), len(cdf) - 1)
        return [tuple(row) for row in _decode(idx, len(center), l).T.tolist()]

    def histogram(
        self, n: int, l: int, class_key: tuple[int, ...], guard: int = DEFAULT_ENUMERATION_GUARD
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(discordant counts, tied-one counts, multiplicities) over the space."""
        key = (n, l, class_key)
        with self._lock:
            hit = self._histograms.get(key)
        if hit is not None:
            return hit
        check_guard(n, l, guard)
        entry = _stage_count_histogram(class_key, l)
        with self._lock:
            self._histograms[key] = entry
        return entry

    def log_psi(
        self,
        n: int,
        l: int,
        class_key: tuple[int, ...],
        p: float,
        spread: float,
        guard: int = DEFAULT_ENUMERATION_GUARD,
    ) -> float:
        key = (n, l, p, class_key, round(spread, self._LAMBDA_DIGITS))
        with self._lock:
            hit = self._log_psi.get(key)
            if hit is not None:
                self._log_psi.move_to_end(key)
                return hit
        d_counts, e_counts, mult = self.histogram(n, l, class_key, guard)
        # Near-zero spreads legitimately drive exponents to -inf; the
        # zero-distance entry keeps the log-sum-exp finite.
        with np.errstate(over="ignore"):
            exponents = -(d_counts + p * e_counts) / spread + np.log(mult)
        value = _log_sum_exp(exponents)
        with self._lock:
            self._log_psi[key] = value
            while len(self._log_psi) > self._MAX_PSI_ENTRIES:
                self._log_psi.popitem(last=False)
        return value


_DEFAULT_CACHE = PartitionCache()


def default_cache() -> PartitionCache:
    """The process-wide cache used when callers do not supply one."""
    return _DEFAULT_CACHE


def log_partition_function(
    params: MallowsParams,
    cfg: DistanceConfig = DistanceConfig(),
    cache: PartitionCache | None = None,
    guard: int = DEFAULT_ENUMERATION_GUARD,
) -> float:
    cache = cache if cache is not None else _DEFAULT_CACHE
    return cache.log_psi(
        params.n, params.l, structural_class(params.center), cfg.p, params.spread, guard
    )


def partition_function(
    params: MallowsParams,
    cfg: DistanceConfig = DistanceConfig(),
    cache: PartitionCache | None = None,
    guard: int = DEFAULT_ENUMERATION_GUARD,
) -> float:
    """psi(spread) = sum over {1..l}^n of exp(-d_p(x, center) / spread).

    psi always lies in [1, l^n], so returning it in natural scale is safe;
    the summation itself happens in log space.
    """
    return math.exp(log_partition_function(params, cfg, cache, guard))


def log_pmf(
    x: CentralRanking,
    params: MallowsParams,
    cfg: DistanceConfig = DistanceConfig(),
    cache: PartitionCache | None = None,
    guard: int = DEFAULT_ENUMERATION_GUARD,
) -> float:
    """Log-probability of a complete ranking under the model.

    Computed as -d_p(x, center)/spread - log psi so the pmf sums to one
    over the enumerated space.
    """
    if x.n != params.n:
        raise ValueError(f"ranking has {x.n} items, center has {params.n}")
    if any(v is None for v in x.stages):
        raise ValueError("log_pmf needs a complete ranking (no missing entries)")
    x.check_domain(params.domain)
    d = kendall_tau_partial(x, params.center, cfg)
    return -d / params.spread - log_partition_function(params, cfg, cache, guard)


def sample(
    params: MallowsParams,
    cfg: DistanceConfig = DistanceConfig(),
    cache: PartitionCache | None = None,
    rng: np.random.Generator | None = None,
    count: int = 1,
    guard: int = DEFAULT_ENUMERATION_GUARD,
) -> list[CentralRanking]:
    """Draw exact i.i.d. samples by CDF inversion over the enumerated pmf."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = rng if rng is not None else np.random.default_rng()
    cache = cache if cache is not None else _DEFAULT_CACHE
    draws = cache.draw(
        params.center.stages, params.l, cfg.p, params.spread, rng, count, guard
    )
    return [CentralRanking(stages) for stages in draws]
