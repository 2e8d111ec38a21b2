"""The Mallows distribution over the space of stage assignments {1..l}^n.

The probability of a ranking x decays exponentially in its penalized
Kendall tau distance from a central ranking:

    f(x) = exp(-d_p(x, center) / spread) / psi(spread)

where psi is the normalizing sum over all l^n assignments. Both psi and
the exact sampler come from one dynamic program per structural class,
which places the center's buckets in stage order and tracks how many
items sit at each stage; placing a bucket of b items after m items over k
stages is one cached step, shared by every class (_stage_step). For psi
the program counts the points per integer distance key
(_stage_count_table), and those counts, summed onto the distance grid of
n items, make every partition term one row over that grid (RowTable.find):
log psi at a spread is log(row @ exp(-grid / spread)) (log_psi_rows). The
sampler runs the program backward at the requested spread and samples
forward through it (PartitionCache.draw). Neither touches the l^n points.
Both sit behind one capacity rule (check_capacity), which bounds the
program's own tables and keeps its integer counts exact. The rows, one
table per space, and the shares of the last spread drawn at are kept per
process, like the steps, in one PartitionCache (default_cache).
"""

from __future__ import annotations

import bisect
import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import CapacityError
from .rankings import (
    CentralRanking,
    DistanceConfig,
    StageDomain,
    kendall_tau_partial,
)

#: Largest peak, in bytes, that check_capacity lets a space's program take.
CAPACITY_BYTE_BUDGET = 2**31

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


def check_capacity(n: int, l: int, draws: int = 0) -> int:
    """Return the estimated peak bytes for {1..l}^n, or refuse the space.

    A space is refused (CapacityError) when l^n reaches 2^63, because the
    int64 multiplicities and count sums over the space (a row's, a
    histogram's, the scaling from k to l stages) are at most l^n and int64
    holds them exactly only below that; or when the estimate exceeds
    CAPACITY_BYTE_BUDGET. With k = min(l, n) stages in the program and
    P = C(n, 2) item pairs, its largest (state, key) table has at most
    C(n+k-1, k-1) * (P+1)^2 float64 cells, the key (P+1) d + e being the
    widest. A step holds the table before it, or its nonzero cells, and
    within one table's size either the last bucket's W and padded product
    or a block's index and weight temporaries; a scatter adds each block's
    sum to the table it grows (see _stage_count_table). So the estimate is
    four such tables, plus 20 bytes per pair of pair lists and the n-by-l
    float64 marginals.
    The budget also keeps the program's float64 counts exact: each is at
    most k^n, and no accepted space has k^n past 2^48 (l = 2, n = 48),
    below the 2^53 where float64 stops holding every integer.
    The program's steps, their key shifts and last-bucket matrices, shared
    by every class and kept for the process (_stage_step, _step_keys,
    _step_weights), took under a fifth of the estimate in every space
    measured (BENCH_17.json). Each of `draws` rankings, a chain's retained
    samples included, adds 512 + 128 n bytes for its arrays, Python rankings
    and dataset text, above the per-ranking peaks measured for `simulate`
    and for a chain's trace (CHANGES.md). n < 1 or l < 1 is not a space
    (ValueError).
    """
    if n < 1 or l < 1:
        raise ValueError(f"need n >= 1 and l >= 1, got n={n}, l={l}")
    # Decide from the logarithm first, so l**n is only formed when small.
    if n * math.log2(l) >= 64 or l**n >= 2**63:
        raise CapacityError(n, l, "reaches 2^63, past which int64 counts are not exact")
    k, pairs = min(l, n), n * (n - 1) // 2
    needed = (32 * math.comb(n + k - 1, k - 1) * (pairs + 1) ** 2 + 20 * pairs + 8 * n * l
              + draws * (512 + 128 * n))
    if needed > CAPACITY_BYTE_BUDGET:
        raise CapacityError(n, l, (
            f"needs about {needed} bytes for the stage-count program"
            f"{f' and {draws} draws' if draws else ''}, "
            f"over the budget of {CAPACITY_BYTE_BUDGET}"
        ))
    return needed


def class_of_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """The structural class of a center whose stages, in order, hold these
    many items (empty stages included or not).

    The distance multiset over the space is unchanged by relabeling items
    and by reversing the stage order, but not by arbitrary reorderings of
    the bucket sizes. The class is therefore the occupied bucket sizes in
    stage order, canonicalized against their reversal.
    """
    ordered = tuple(size for size in sizes if size)
    return min(ordered, ordered[::-1])


def structural_class(center: CentralRanking | Sequence[int]) -> tuple[int, ...]:
    """Canonical cache key for the center's bucket structure (class_of_sizes)."""
    stages = center.stages if isinstance(center, CentralRanking) else center
    return center_buckets(tuple(stages))[0]


@lru_cache(maxsize=None)
def _pascal(size: int) -> np.ndarray:
    """C(i, j) for 0 <= j <= i < size, in int64, exact up to row 66; later
    rows wrap, but only at l = 1, past the 63 items check_capacity accepts at
    l >= 2, and there only their diagonal, all ones, is read. _compositions
    asks for powers of two of at least 16, so a process keeps one table
    unless a bucket reaches 16 items."""
    pascal = np.tri(size, dtype=np.int64)  # its first row and column are Pascal's
    for i in range(1, size):
        pascal[i, 1:] = pascal[i - 1, 1:] + pascal[i - 1, :-1]
    pascal.setflags(write=False)
    return pascal


@lru_cache(maxsize=256)
def _compositions(b: int, l: int) -> tuple[np.ndarray, ...]:
    """Every way v to spread b items over l stages, one per row in the
    lexicographic order of its l - 1 bars among b + l - 1 slots, with
    below[:, t] = sum_{t' < t} v_t', the multinomial(b; v), and the number
    of the b items' pairs that v splits apart, C(b,2) - sum_t C(v_t,2).
    Each multinomial is a product of binomials C(below_t + v_t, v_t) from
    the Pascal table (_pascal), exact in int64: each partial product is at
    most l^b."""
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(b + l - 1), l - 1)), np.int64)
    comps = np.diff(bars.reshape(math.comb(b + l - 1, l - 1), l - 1), axis=1,
                    prepend=-1, append=b + l - 1) - 1
    upto = np.cumsum(comps, axis=1)
    pascal = _pascal(1 << max(4, b.bit_length()))
    below, mult = upto - comps, pascal[upto, comps].prod(axis=1)
    split = math.comb(b, 2) - (comps * (comps - 1) // 2).sum(axis=1)
    for array in (comps, below, mult, split):
        array.setflags(write=False)
    return comps, below, mult, split


@dataclass(frozen=True)
class _Step:
    """Placing one bucket: from each state s by each composition c to dest[s, c],
    adding discordant[s, c] and tied[s, c] pairs in mult[c] ways. Row c of
    stages lists the 0-based stages composition c gives the bucket's items,
    in order."""

    mult: np.ndarray
    dest: np.ndarray
    discordant: np.ndarray
    tied: np.ndarray
    stages: np.ndarray
    states: int


@lru_cache(maxsize=None)
def _placed_states(m: int, k: int) -> np.ndarray:
    """Every state after m items are placed over k stages, one per row: each
    composition u of m, ascending by the code sum_t u_t R^t for any radix
    R > m, so the last stage counts most. That is _compositions' order
    (ascending from the first stage) with each row reversed. The draw's
    tables list states in this order, so it fixes the random stream."""
    states = np.ascontiguousarray(_compositions(m, k)[0][:, ::-1])
    states.setflags(write=False)
    return states


@lru_cache(maxsize=None)
def _stage_step(m: int, b: int, k: int) -> _Step:
    """Placing a bucket of b items over k stages after m items are placed.

    It does not depend on the class: every composition of m is a state
    after m items, whatever the buckets before, so classes share their
    steps. Each composition v moves state u to u + v and adds
    sum_t v_t * sum_{t' > t} u_t' discordant pairs (a later bucket placed
    below an earlier one), sum_t v_t * u_t tied-one pairs across buckets,
    and the bucket's own pairs that v splits apart.
    """
    states, reached = _placed_states(m, k), _placed_states(m + b, k)
    comps, below, mult, split = _compositions(b, k)
    # The destinations are searched one composition at a time, the states'
    # codes ascending, which searchsorted finds faster, and then transposed.
    radix = (m + b + 1) ** np.arange(k, dtype=np.int64)
    dest = (reached @ radix).searchsorted((comps @ radix)[:, np.newaxis] + states @ radix)
    placed = np.repeat(np.tile(np.arange(k, dtype=np.int8), len(comps)), comps.ravel())
    # Both pair counts in one float64 product, which BLAS runs; it is exact,
    # each count being at most C(m + b, 2), far below 2^53.
    counts = np.matmul(states, np.vstack([below, comps]).T, dtype=np.float64).astype(np.int64)
    counts[:, len(comps):] += split
    step = _Step(mult, np.ascontiguousarray(dest.T), counts[:, :len(comps)],
                 counts[:, len(comps):], placed.reshape(len(comps), b), len(reached))
    for array in (step.dest, step.discordant, step.tied, step.stages):
        array.setflags(write=False)
    return step


def _stage_steps(class_key: tuple[int, ...], k: int) -> tuple[tuple[_Step, ...], np.ndarray]:
    """The stage-count program for buckets of sizes class_key, in order, over
    k stages: one _Step per bucket, and the final states (one per row).

    The state u counts the items already placed at each stage. The steps
    are shared per (items placed, bucket size, k); see _stage_step.
    """
    steps, placed = [], 0
    for b in class_key:
        steps.append(_stage_step(placed, b, k))
        placed += b
    return tuple(steps), _placed_states(placed, k)


@lru_cache(maxsize=None)
def _step_keys(m: int, b: int, k: int, alpha: int, beta: int) -> tuple[np.ndarray, int]:
    """The key terms of _stage_step(m, b, k) for the key alpha d + beta e:
    shift[s, c] = alpha discordant[s, c] + beta tied[s, c], the key that
    composition c adds from state s, and its largest value. Kept per
    (m, b, k, alpha, beta), like the steps, so that a row does not compute
    them again for each bucket."""
    step = _stage_step(m, b, k)
    shift = alpha * step.discordant + beta * step.tied
    shift.setflags(write=False)
    return shift, int(shift.max())


@lru_cache(maxsize=None)
def _key_lookup(r: int, n: int, p: float) -> tuple[int, int, np.ndarray]:
    """(alpha, beta, lookup): the key alpha d + beta e of rows of r items at
    p (see RowTable.find), and each key's index in distance_grid(n, p); kept
    per (r, n, p), like the steps, for every class of r items."""
    pairs = math.comb(r, 2)
    a, b = p.as_integer_ratio()
    alpha, beta = (b, a) if b <= pairs + 1 else (pairs + 1, 1)
    d, e = _pair_triangle(pairs)
    # The grid holds these very sums, so each one is found exactly.
    lookup = np.zeros(alpha * pairs + 1, dtype=np.intp)
    lookup[alpha * d + beta * e] = np.searchsorted(distance_grid(n, p), d + p * e)
    lookup.setflags(write=False)
    return alpha, beta, lookup


@lru_cache(maxsize=None)
def _step_weights(m: int, b: int, k: int, alpha: int, beta: int) -> np.ndarray:
    """W[s, delta]: the summed multiplicities of the compositions of
    _stage_step(m, b, k) that shift state s by delta under the key
    alpha d + beta e, the matrix by which a last bucket lands on the key
    axis (see _stage_count_table). Kept like the key shifts, and built only
    for the steps that end a class."""
    mult = _stage_step(m, b, k).mult
    shift, top = _step_keys(m, b, k, alpha, beta)
    states, span = len(shift), top + 1
    weights = np.bincount((np.arange(0, states * span, span)[:, np.newaxis] + shift).ravel(),
                          np.broadcast_to(mult, shift.shape).ravel(), states * span)
    weights = weights.reshape(states, span)
    weights.setflags(write=False)
    return weights


def _stage_count_table(class_key: tuple[int, ...], l: int, alpha: int, beta: int) -> np.ndarray:
    """Multiplicities over {1..l}^n for a center of class_key, by the integer
    key alpha*d + beta*e of d discordant and e tied-in-one pairs.

    Runs the stage-count program (see _stage_steps), with table[u, key]
    counting the ways to reach state u with that key among the items
    placed: one row of keys per state, not a (d, e) plane. It starts from
    the first bucket's own table: from the empty state each composition c
    lands on a state of its own, dest[0, c], at key shift[0, c], in mult[c]
    ways. The final table is summed over its states, so when l <= n the
    last bucket lands straight on the key axis.

    Each later step has one allowance, the size of the table it grows (its
    states by the widened key row), and one rule. The last bucket, when
    l <= n, takes one matrix product if W and the padded product fit within
    the allowance together: W[s, delta] sums the multiplicities of the
    compositions that shift state s by delta (_step_weights), and row delta
    of W.T @ table is added in at offset delta, a skewed sum read off one
    padded array. Every other step scatters the table's nonzero cells with
    one weighted np.bincount per block of as many compositions as keep the
    index and weight temporaries within the allowance, and adds the blocks.

    The counts are float64, and exact: each is at most k^n, with k = min(l, n)
    stages in the program, and check_capacity accepts no space where k^n
    reaches 2^53. Every product and partial sum is a nonnegative integer no
    larger than the count it adds to, so the result does not depend on the
    order of summation (nor on the BLAS). The result is int64. At most n
    stages are occupied, so for l > n the program runs over n stages: a
    final state with j occupied stages stands for C(n, j) ways to choose
    them there and C(l, j) over l stages, a scaling done in int64, exact
    below l^n < 2^63.
    """
    n = sum(class_key)
    k = min(l, n)
    steps, final_states = _stage_steps(class_key, k)
    first, placed = steps[0], class_key[0]
    shift, top = _step_keys(0, placed, k, alpha, beta)
    table = np.zeros((first.states, top + 1))
    table[first.dest[0], shift[0]] = first.mult
    for b, step in zip(class_key[1:], steps[1:]):
        m, placed = placed, placed + b
        shift, top = _step_keys(m, b, k, alpha, beta)
        last = placed == n and l <= n
        states, keys = table.shape
        width, span = keys + top, top + 1
        allowance = step.states * width
        if last and states * span + span * (keys + span) <= allowance:
            # Y in rows of keys + span cells, zero-padded, read again in rows
            # of width = keys + span - 1 cells: row delta starts delta later.
            skew = np.zeros((span, keys + span))
            np.matmul(_step_weights(m, b, k, alpha, beta).T, table, out=skew[:, :keys])
            table = skew.ravel()[:span * width].reshape(span, width).sum(axis=0)
        else:
            cells = np.flatnonzero(table)
            state, key = np.divmod(cells, keys)
            count = table.take(cells)
            block = max(1, allowance // (2 * len(count)))
            index, size = (shift, width) if last else (step.dest * width + shift, allowance)
            parts = (np.bincount((index[:, c:c + block].take(state, axis=0)
                                  + key[:, np.newaxis]).ravel(),
                                 (count[:, np.newaxis] * step.mult[c:c + block]).ravel(), size)
                     for c in range(0, len(step.mult), block))
            table = next(parts)
            for part in parts:
                table += part
        table = table.reshape(-1, width)
    table = table.astype(np.int64)
    if l > n:
        occupied = np.count_nonzero(final_states, axis=1)
        table = np.stack([
            table[occupied == j].sum(axis=0) // math.comb(n, j) * math.comb(l, j)
            for j in range(1, n + 1)
        ])
    return table.sum(axis=0)


@lru_cache(maxsize=4096)
def center_buckets(center: tuple[int, ...]) -> tuple[tuple[int, ...], bool, np.ndarray]:
    """The center's structural class, whether its buckets in stage order run
    against the class key, and each item's bucket in the key's order."""
    # Counted over bucket ranks, not stage values, which run up to l.
    rank = {stage: r for r, stage in enumerate(sorted(set(center)))}
    bucket = np.array([rank[stage] for stage in center], dtype=np.intp)
    ordered = tuple(np.bincount(bucket).tolist())
    class_key = class_of_sizes(ordered)
    flip = ordered != class_key
    if flip:
        bucket = len(rank) - 1 - bucket
    bucket.setflags(write=False)
    return class_key, flip, bucket


def _pair_triangle(pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (discordant, tied-one) count pair d, e >= 0 with d + e <= pairs."""
    span = np.arange(pairs + 1)
    return np.nonzero(span[:, np.newaxis] + span <= pairs)


@lru_cache(maxsize=64)
def distance_grid(n: int, p: float) -> np.ndarray:
    """The distinct distances d + p*e over d, e >= 0 with d + e <= C(n, 2),
    ascending from 0: every d_p between two rankings of at most n items.
    With p = 1/2 there are 2 C(n, 2) + 1 of them (57 at n = 8)."""
    d, e = _pair_triangle(n * (n - 1) // 2)
    # Deduplicated by hand: a bare np.unique imports numpy.ma, about 1 MB.
    grid = np.sort(d + p * e)
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    grid.setflags(write=False)
    return grid


def grid_weights(grid: np.ndarray, spread: float) -> np.ndarray:
    """exp(-distance / spread) of each distance of the grid. Below a spread
    of 1e-300 every positive distance (at least p >= 1/2) has weight 0
    already; taking such spreads as 1e-300 keeps grid / spread finite."""
    return np.exp(grid / -max(spread, 1e-300))


def log_psi_rows(rows: np.ndarray, grid: np.ndarray, spread: float) -> np.ndarray:
    """log psi(spread) of each row of multiplicities over the distance grid.

    psi = row @ grid_weights(grid, spread) needs no log-sum-exp shift: a
    class's row counts the center itself at distance 0, with weight exactly
    1, and sums to l^n < 2^63 (check_capacity), so psi lies in [1, l^n].
    Each row is its own dot product (np.vecdot), so its value does not depend
    on the other rows passed with it; a BLAS matrix-vector product sums a row
    in an order that depends on its position in the matrix.
    """
    return np.log(np.vecdot(rows, grid_weights(grid, spread)))


def _uniform_subsets(sizes: np.ndarray, l: int, rng: np.random.Generator) -> np.ndarray:
    """One uniformly random subset of {0..l-1} per row, of the row's size,
    sorted and padded with l: Floyd's algorithm, run on all rows at once."""
    top = int(sizes.max())
    chosen = np.full((len(sizes), top), l)
    for s in range(top):
        t = l - top + s
        pick = rng.integers(0, t + 1, size=len(sizes))
        pick[(chosen == pick[:, np.newaxis]).any(axis=1)] = t
        chosen[:, s] = np.where(s >= top - sizes, pick, l)
    chosen.sort(axis=1)
    return chosen


def _uniform_subset(size: int, l: int, rng: np.random.Generator) -> list[int]:
    """_uniform_subsets for one row, in plain Python, from the same uniforms:
    a scalar rng.integers(0, t + 1) gives what size=1 gives."""
    chosen: list[int] = []
    for t in range(l - size, l):
        pick = int(rng.integers(0, t + 1))
        chosen.append(t if pick in chosen else pick)
    chosen.sort()
    return chosen


class RowTable:
    """The rows of one space (n, l, p): matrix[:count], one per structural
    class met (see find), in a matrix that doubles when full, and index, from
    each class key to its row. A row is added once, under the table's lock,
    and never changes, so a reader needs no lock: it reads a row's index, or
    count, and then matrix, which holds every row added by then."""

    def __init__(self, n: int, l: int, p: float):
        self.n, self.l, self.p, self._lock = n, l, p, threading.Lock()
        self.matrix = np.empty((1, len(distance_grid(n, p))))
        self.count = 0
        self.index: dict[tuple[int, ...], int] = {}

    def find(self, class_key: tuple[int, ...]) -> int:
        """The index of the row of this class key (class_of_sizes), built
        outside the lock on first use; a writer that lost the race to add it
        keeps the row added first.

        A class of r <= n items counts the points of {1..l}^r per distance,
        over one integer key per (d, e): with p = a / b in lowest terms
        (float p is dyadic, so b is a power of 2) and b <= P + 1, P = C(r, 2),
        the lattice b d + a e = b (d + p e), where equal keys are equal
        distances; otherwise (P+1) d + e, the (d, e) pair itself, as in
        histogram. _key_lookup maps each key to its grid index. The counts
        are exact (see _stage_count_table); the float64 row rounds an entry
        only past 2^53, which needs l > n.
        """
        found = self.index.get(class_key)
        if found is None:
            check_capacity(sum(class_key), self.l)
            alpha, beta, lookup = _key_lookup(sum(class_key), self.n, self.p)
            counts = _stage_count_table(class_key, self.l, alpha, beta)
            # Each key no (d, e) makes has count 0, and lookup sends it to 0.
            row = np.bincount(lookup[:len(counts)], weights=counts,
                              minlength=self.matrix.shape[1])
            with self._lock:
                if class_key not in self.index:
                    if self.count == len(self.matrix):
                        self.matrix = np.concatenate([self.matrix, np.empty_like(self.matrix)])
                    # The row is in place before its index or count says so.
                    self.matrix[self.count] = row
                    self.index[class_key] = self.count
                    self.count += 1
            found = self.index[class_key]
        return found


class PartitionCache:
    """Memoized grid rows and draw weights.

    A class's row counts the points of the whole space per value of
    distance_grid(n, p), built by the stage-count program without touching
    the l^n points. Each space (n, l, p) keeps its rows in one RowTable
    (table), the only store of rows: row and log_psi read it, a fit gathers
    from it, and nothing is cached per spread. The exact sampler runs the
    program backward and samples forward through it; its edges' grid
    indices and multiplicities, and the shares of the last spread drawn
    at with the running shares of the states one draw visited, are cached
    per (l, p, class). Safe for concurrent use; racing writers recompute
    identical values. The process keeps one instance (default_cache), like
    the steps; a new instance builds its rows and tables afresh.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tables: dict[tuple, RowTable] = {}
        self._draw_terms: dict[tuple, tuple] = {}

    def _draw_tables(
        self, n: int, l: int, p: float, class_key: tuple[int, ...], spread: float
    ) -> tuple[tuple[_Step, ...], np.ndarray, list[list], list[np.ndarray], list[dict]]:
        """The class's program, its final states, each bucket's composition
        stages as lists, and per bucket the shares that the draw picks
        compositions by at this spread, with the walks built from them.

        Run backward from the final states, each weighted by C(l, j) / C(n, j)
        for its j occupied stages when l > n: ahead[s] sums, over the ways
        to finish from state s, their weights exp(-distance / spread) times
        their multiplicities. Composition c from state s takes the share
        edge weight * ahead[dest[s, c]] of ahead[s]: one gather, one product
        and one sum per bucket, with no gather for the last bucket when
        l <= n (every final state weighs 1) and no sum for the first (its
        one state's total is never read). The shares are laid out as
        (composition, state), so that numpy sums each state's shares in
        composition order, as the draw's running sums do. A state whose
        total underflows to 0 is never entered, since the share leading
        into it is 0.

        Each edge keeps its multiplicity and the index of its distance in
        the distance grid of n items, read off its step's key shift
        (_step_keys, _key_lookup, as the rows key them), so a new spread
        takes one exp per grid distance. The shares of the last spread are
        kept per (l, p, class) with those terms, in one entry replaced whole
        under the lock, so that a reader never pairs one spread with
        another's shares: the chain draws again at the same spread and
        class after each rejected move. The walks, one dict per bucket that one draw fills
        with each state it visits (see draw), start empty with each spread's
        shares in that entry, so they too never outlive their spread.
        """
        key = (l, p, class_key)
        with self._lock:
            entry = self._draw_terms.get(key)
        if entry is None:
            check_capacity(n, l)
            k = min(l, n)
            steps, final_states = _stage_steps(class_key, k)
            finish = None
            if l > n:
                ratio = np.array([math.comb(l, j) / math.comb(n, j) for j in range(n + 1)])
                finish = ratio[np.count_nonzero(final_states, axis=1)]
            alpha, beta, lookup = _key_lookup(n, n, p)
            shifts = [_step_keys(m, b, k, alpha, beta)[0].T.ravel()
                      for m, b in zip(itertools.accumulate(class_key, initial=0), class_key)]
            mult = np.concatenate([np.repeat(step.mult.astype(np.float64), step.dest.shape[0])
                                   for step in steps])
            into = [np.ascontiguousarray(step.dest.T) for step in steps]
            terms = (distance_grid(n, p), lookup[np.concatenate(shifts)], mult, finish, into,
                     [step.stages.tolist() for step in steps])
            entry = (steps, final_states, terms, None, None, None)
        steps, final_states, terms, last_spread, shares, walks = entry
        grid, index, mult, finish, into, stage_lists = terms
        if last_spread != spread:
            edge_w = mult * grid_weights(grid, spread)[index]
            shares, ahead, end = [], finish, len(edge_w)
            for dest in reversed(into):
                start = end - dest.size
                share = edge_w[start:end].reshape(dest.shape)
                if ahead is not None:
                    share = share * ahead[dest]
                shares.append(share)
                if start:
                    ahead = share.sum(axis=0)
                end = start
            shares.reverse()
            walks = [{} for _ in steps]
            with self._lock:
                self._draw_terms[key] = (steps, final_states, terms, spread, shares, walks)
        return steps, final_states, stage_lists, shares, walks

    def draw(
        self, center: tuple[int, ...], l: int, p: float, spread: float,
        rng: np.random.Generator, count: int,
    ) -> list[tuple[int, ...]]:
        """Exact i.i.d. draws from Mallows(center, spread) over {1..l}^n.

        Runs the center's stage-count program backward at this spread (see
        _draw_tables), then samples forward through it: from the empty
        state, for each bucket in turn, one composition in proportion to
        its share, the weight of the ways to finish through it. With one
        uniform u per bucket and draw, that is the first composition whose
        running share reaches (1 - u) of the state's total. One draw, the
        call each chain iteration makes, walks its own path and places its
        items in plain Python, with its uniforms from one call and, for
        l > n, its stage subset from _uniform_subset. The first time a
        state is visited at a spread, its row of shares is summed into a
        running list (itertools.accumulate) and kept, with the state's row
        of destinations, in that spread's walk for the bucket; bisect_left
        then finds the composition, the same index as a scan for the first
        running share that reaches the target.
        Several draws (simulate, sample) build each bucket's cumulative
        table once per call, every state's row scaled to (s - 1, s], and
        search it for all draws at once. The compositions fix how many of each
        bucket's items go to each stage; the items take those stages in a
        uniformly random order. For l > n the program runs over n stages,
        and the j occupied ones are mapped in order onto a uniformly random
        j-subset of the l stages. A center whose buckets run against its
        class key's order is drawn reversed and flipped back. Nothing here
        grows with l^n.
        """
        n = len(center)
        class_key, flip, bucket = center_buckets(center)
        steps, final_states, stage_lists, shares, walks = self._draw_tables(
            n, l, p, class_key, spread)
        if count == 1:
            # The uniforms of the buckets, then of the placement: one call.
            uniforms = rng.random(len(steps) + n).tolist()
            state, stages = 0, []
            for step, share, walk, comp_stages, u in zip(
                    steps, shares, walks, stage_lists, uniforms):
                visit = walk.get(state)
                if visit is None:
                    visit = walk[state] = (list(itertools.accumulate(share[:, state].tolist())),
                                           step.dest[state].tolist())
                run, dest = visit
                # 0 < target <= run[-1]: c stops at a composition with share.
                c = bisect.bisect_left(run, (1.0 - u) * run[-1])
                stages += comp_stages[c]
                state = dest[c]
            # The placement and the mapping below, in plain Python for one draw.
            keys = [b + u for b, u in zip(bucket.tolist(), uniforms[len(steps):])]
            x = [0] * n
            for item, stage in zip(sorted(range(n), key=keys.__getitem__), stages):
                x[item] = stage
            if l > n:
                occupied = (final_states[state] > 0).tolist()
                subset = _uniform_subset(sum(occupied), l, rng)
                onto = [subset[j - 1] for j in itertools.accumulate(occupied)]
                x = [onto[s] for s in x]
            return [tuple(l - s for s in x) if flip else tuple(s + 1 for s in x)]

        state, placed = np.zeros(count, dtype=np.intp), []
        for step, share, u in zip(steps, shares, rng.random((len(steps), count))):
            cum = share.cumsum(axis=0)
            total = cum[-1]
            # A state never entered has only zero shares: dividing them
            # by 1 keeps its row at s - 1, and the table sorted.
            table = cum / (total + (total == 0)) + np.arange(-1, len(total) - 1)
            # u lies in [0, 1), so state - u falls in the state's own range
            # (up to rounding) and never on a composition without share.
            edge = table.T.ravel().searchsorted(state - u)
            placed.append(step.stages.take(edge % len(step.mult), axis=0))
            state = step.dest.take(edge)

        # The stages in bucket order, given to each bucket's items at random.
        stages = np.concatenate(placed, axis=1)
        items = (bucket + rng.random((count, n))).argsort(axis=1)
        rows = np.arange(count)[:, np.newaxis]
        x = np.empty((count, n), dtype=np.int64)
        x[rows, items] = stages
        if l > n:
            occupied = final_states[state] > 0
            subsets = _uniform_subsets(occupied.sum(axis=1), l, rng)
            x = subsets[rows, (np.cumsum(occupied, axis=1) - 1)[rows, x]]
        x = l - x if flip else x + 1
        return list(map(tuple, x.tolist()))

    def histogram(
        self, n: int, l: int, class_key: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(discordant counts, tied-one counts, multiplicities) over the space,
        ascending by (d, e): the program over the key (P+1) d + e, with
        P = C(sum(class_key), 2) >= e, decoded with divmod. Fits build rows
        instead, so nothing here is cached."""
        check_capacity(n, l)
        pairs = math.comb(sum(class_key), 2)
        counts = _stage_count_table(class_key, l, pairs + 1, 1)
        keys = np.flatnonzero(counts)
        return (*np.divmod(keys, pairs + 1), counts[keys])

    def table(self, n: int, l: int, p: float) -> RowTable:
        """The rows of the space (n, l, p), an empty table on first use."""
        table = self._tables.get((n, l, p))
        if table is None:
            with self._lock:
                table = self._tables.setdefault((n, l, p), RowTable(n, l, p))
        return table

    def row(self, n: int, l: int, class_key: tuple[int, ...], p: float) -> np.ndarray:
        """The class's multiplicities over {1..l}^r, r = sum(class_key) <= n,
        summed per distance of distance_grid(n, p): a read-only view of its
        row in the space's table (see RowTable.find)."""
        table = self.table(n, l, p)
        # The index first: adding it may replace the matrix.
        found = table.find(class_key)
        row = table.matrix[found]
        row.setflags(write=False)
        return row

    def log_psi(self, n: int, l: int, class_key: tuple[int, ...], p: float, spread: float
                ) -> float:
        """log psi(spread) over {1..l}^n for a center of class_key: the
        one-row case of log_psi_rows."""
        return float(log_psi_rows(self.row(n, l, class_key, p), distance_grid(n, p), spread))


_DEFAULT_CACHE = PartitionCache()


def default_cache() -> PartitionCache:
    """The process's one PartitionCache, read at each call: every partition
    term and draw goes through it."""
    return _DEFAULT_CACHE


def log_partition_function(params: MallowsParams, cfg: DistanceConfig = DistanceConfig()) -> float:
    return default_cache().log_psi(
        params.n, params.l, structural_class(params.center), cfg.p, params.spread
    )


def partition_function(params: MallowsParams, cfg: DistanceConfig = DistanceConfig()) -> float:
    """psi(spread) = sum over {1..l}^n of exp(-d_p(x, center) / spread).

    psi always lies in [1, l^n], so returning it in natural scale is safe;
    it is the center's row over the distance grid times the weights
    exp(-grid / spread) (log_psi_rows).
    """
    return math.exp(log_partition_function(params, cfg))


def log_pmf(
    x: CentralRanking,
    params: MallowsParams,
    cfg: DistanceConfig = DistanceConfig(),
) -> float:
    """Log-probability of a complete ranking under the model.

    Computed as -d_p(x, center)/spread - log psi so the pmf sums to one
    over the space.
    """
    if x.n != params.n:
        raise ValueError(f"ranking has {x.n} items, center has {params.n}")
    if any(v is None for v in x.stages):
        raise ValueError("log_pmf needs a complete ranking (no missing entries)")
    x.check_domain(params.domain)
    d = kendall_tau_partial(x, params.center, cfg)
    return -d / params.spread - log_partition_function(params, cfg)


def sample(
    params: MallowsParams,
    cfg: DistanceConfig = DistanceConfig(),
    rng: np.random.Generator | None = None,
    count: int = 1,
) -> list[CentralRanking]:
    """Draw exact i.i.d. samples through the stage-count program (see
    PartitionCache.draw); reproducible from a seeded rng. A count whose
    draws would not fit check_capacity's budget is refused up front."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    check_capacity(params.n, params.l, draws=count)
    rng = rng if rng is not None else np.random.default_rng()
    draws = default_cache().draw(params.center.stages, params.l, cfg.p, params.spread, rng, count)
    return [CentralRanking(stages) for stages in draws]
