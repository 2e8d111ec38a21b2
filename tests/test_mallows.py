import itertools
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from stagemallows import mallows
from stagemallows.errors import CapacityError
from stagemallows.mallows import (
    CAPACITY_BYTE_BUDGET,
    MallowsParams,
    PartitionCache,
    check_capacity,
    distance_grid,
    log_partition_function,
    log_pmf,
    partition_function,
    sample,
    structural_class,
)
from stagemallows.rankings import CentralRanking, StageDomain

from oracles import full_space, naive_distance, naive_pmf, naive_psi, space_pair_counts


def params(stages, spread, l):
    return MallowsParams(CentralRanking(tuple(stages)), spread, StageDomain(l))


def batch(p, rng, count):
    """count draws from p, as stage tuples, in one call."""
    return [r.stages for r in sample(p, rng=rng, count=count)]


def one_by_one(p, rng, count):
    """count draws from p, as stage tuples, one PartitionCache.draw call each:
    the route the chain's center proposals take."""
    draw = mallows.default_cache().draw
    return [draw(p.center.stages, p.l, 0.5, p.spread, rng, 1)[0] for _ in range(count)]


class TestEnumerateSpace:
    # The brute-force space every oracle here sums over.
    def test_smallest_space(self):
        out = list(full_space(1, 2))
        assert out == [(1,), (2,)]

    def test_counts_are_l_to_the_n(self):
        assert sum(1 for _ in full_space(2, 3)) == 9
        assert sum(1 for _ in full_space(8, 4)) == 65_536

    def test_lexicographic_and_distinct(self):
        out = list(full_space(3, 3))
        assert out == sorted(out)
        assert len(set(out)) == len(out) == 27


class TestByteGuard:
    # Only the rule's arithmetic runs here; no table is allocated.
    @pytest.mark.parametrize("n,l", [(10, 10), (30, 4), (20000, 1)])
    def test_refuses_spaces_beyond_the_byte_budget(self, n, l):
        with pytest.raises(CapacityError, match="bytes"):
            check_capacity(n, l)

    # 2^21 cubed is exactly 2^63; 200^9 is about 5.1e20.
    @pytest.mark.parametrize("n,l", [(3, 2**21), (63, 2), (9, 200), (8000, 4)])
    def test_refuses_spaces_whose_counts_reach_2_to_63(self, n, l):
        with pytest.raises(CapacityError, match=r"2\^63"):
            check_capacity(n, l)

    @pytest.mark.parametrize("n,l", [(16, 4), (12, 4), (11, 4), (10, 4), (8, 8), (8, 4),
                                     (6, 3), (1, 2), (2, 1), (4, 2**15), (3, 2**21 - 1)])
    def test_accepts_sizes_in_use(self, n, l):
        assert check_capacity(n, l) <= CAPACITY_BYTE_BUDGET

    def test_accepted_spaces_keep_float64_counts_exact(self):
        # The stage-count program counts in float64, exact below 2^53, and
        # each of its counts is at most k^n for k = min(l, n) stages.
        for n in range(1, 120):
            for l in [*range(1, 401), *(10**j for j in range(3, 19))]:
                try:
                    check_capacity(n, l)
                except CapacityError:
                    continue
                assert min(l, n) ** n < 2**53, (n, l)

    @pytest.mark.parametrize("n,l", [(0, 3), (-1, 3), (3, 0)])
    def test_empty_spaces_are_not_spaces(self, n, l):
        with pytest.raises(ValueError):
            check_capacity(n, l)

    @pytest.mark.parametrize("n,l", [(8, 4), (10, 4), (6, 9)])
    def test_estimate_bounds_the_measured_peak(self, n, l):
        classes = {
            structural_class(bucket_center(sizes))
            for k in range(1, min(l, n) + 1)
            for sizes in itertools.product(range(1, n + 1), repeat=k)
            if sum(sizes) == n
        }
        estimate = check_capacity(n, l)
        for class_key in sorted(classes):
            # A fresh build: no cached step, state list or compositions to reuse.
            clear_program_caches()
            tracemalloc.start()
            try:
                PartitionCache().histogram(n, l, class_key)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= estimate, class_key


def clear_program_caches():
    """Forget every cached stage-count step, its key terms, state list,
    composition, Pascal table and key lookup."""
    for cached in (mallows._stage_step, mallows._step_keys, mallows._step_weights,
                   mallows._placed_states, mallows._compositions, mallows._pascal,
                   mallows._key_lookup):
        cached.cache_clear()


def classes_of(n, l):
    """Every structural class of n items in at most l buckets."""
    return sorted({
        structural_class(bucket_center(sizes))
        for k in range(1, min(l, n) + 1)
        for sizes in itertools.product(range(1, n + 1), repeat=k)
        if sum(sizes) == n
    })


def fresh_row_peak(n, l, class_key, p):
    """tracemalloc's peak over one row build with every cache cleared."""
    clear_program_caches()
    mallows.distance_grid.cache_clear()
    tracemalloc.start()
    try:
        PartitionCache().row(n, l, class_key, p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRowBytes:
    # p = 0.5 runs the program over the lattice key 2d + e; p = 0.731 over
    # the (d, e) pair itself, whose table is wider.
    @pytest.mark.parametrize("n,l", [(8, 4), (10, 4), (6, 9)])
    def test_every_class_stays_within_the_estimate(self, n, l):
        estimate = check_capacity(n, l)
        for p in (0.5, 0.731):
            for class_key in classes_of(n, l):
                assert fresh_row_peak(n, l, class_key, p) <= estimate, (p, class_key)

    def test_widest_fallback_table_at_n12(self):
        assert fresh_row_peak(12, 4, (3, 3, 3, 3), 0.731) <= check_capacity(12, 4)

    @pytest.mark.parametrize("n,l", [(8, 4), (10, 4), (6, 9)])
    def test_a_fit_worth_of_rows_stays_within_the_estimate(self, n, l):
        # As a fit meets them: one cache, and every class of r <= n items in
        # turn, with the steps they share kept from class to class.
        estimate = check_capacity(n, l)
        for p in (0.5, 0.731):
            clear_program_caches()
            tracemalloc.start()
            try:
                cache = PartitionCache()
                for r in range(1, n + 1):
                    for class_key in classes_of(r, l):
                        cache.row(n, l, class_key, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= estimate, p


class TestStageStep:
    def test_compositions_in_bar_order_with_their_multinomials(self):
        for b, k in itertools.product(range(13), range(1, 6)):
            comps, below, mult, split = mallows._compositions(b, k)
            want = [[hi - lo - 1 for lo, hi in zip((-1, *bars), (*bars, b + k - 1))]
                    for bars in itertools.combinations(range(b + k - 1), k - 1)]
            assert comps.tolist() == want, (b, k)
            assert below.tolist() == [[sum(v[:t]) for t in range(k)] for v in want], (b, k)
            assert mult.dtype == np.int64, (b, k)
            assert mult.tolist() == [
                math.factorial(b) // math.prod(map(math.factorial, v)) for v in want], (b, k)
            assert split.tolist() == [
                math.comb(b, 2) - sum(math.comb(t, 2) for t in v) for v in want], (b, k)

    def test_multinomials_from_every_pascal_table_size(self):
        # Buckets of 16 items or more read larger tables: 32 and 64 rows, and
        # 256 at one stage (128 items), where rows past 66 wrap in int64 but
        # the diagonal, all that one stage reads, stays 1.
        for b, k in [(15, 3), (16, 3), (31, 2), (32, 2), (63, 2)]:
            comps, _, mult, _ = mallows._compositions(b, k)
            assert mult.tolist() == [math.factorial(b) // math.prod(map(math.factorial, v))
                                     for v in comps.tolist()], (b, k)
        assert mallows._compositions(128, 1)[2].tolist() == [1]
        pascal = mallows._pascal(256)
        for i in range(67):
            assert pascal[i, :i + 1].tolist() == [math.comb(i, j) for j in range(i + 1)], i
        assert (np.diag(pascal) == 1).all()

    def test_placed_states_are_every_composition_by_ascending_code(self):
        for m, k in itertools.product(range(11), range(1, 5)):
            states = mallows._placed_states(m, k)
            codes = states @ (m + 1) ** np.arange(k)
            assert len(states) == math.comb(m + k - 1, k - 1), (m, k)
            assert (states >= 0).all() and (states.sum(axis=1) == m).all(), (m, k)
            assert (np.diff(codes) > 0).all(), (m, k)

    def test_moves_each_state_by_each_composition(self):
        # Every step a class of at most 10 items over at most 4 stages uses.
        for m, b, k in [(m, b, k) for k in range(1, 5) for m in range(10)
                        for b in range(1, 11 - m)]:
            step = mallows._stage_step(m, b, k)
            discordant, tied = mallows._pair_counts(m, b, k)
            before, after = mallows._placed_states(m, k), mallows._placed_states(m + b, k)
            comps = mallows._compositions(b, k)[0]
            assert step.states == len(after)
            assert np.array_equal(after[step.dest.T], before[:, np.newaxis] + comps)
            # The pairs the bucket adds, counted item by item: an earlier
            # bucket's item placed at a later stage than one of this bucket's
            # is discordant; one at the same stage is tied in one ranking, as
            # is each pair of this bucket's items placed at different stages.
            earlier = np.array([np.repeat(np.arange(k), u) for u in before]).reshape(len(before), m)
            placed = np.array([np.repeat(np.arange(k), v) for v in comps])
            assert np.array_equal(step.stages, placed)
            across = earlier[:, np.newaxis, :, np.newaxis] - placed[np.newaxis, :, np.newaxis, :]
            split = (placed[:, :, np.newaxis] != placed[:, np.newaxis, :]).sum(axis=(1, 2)) // 2
            assert np.array_equal(discordant.T, (across > 0).sum(axis=(2, 3))), (m, b, k)
            assert np.array_equal(tied.T, (across == 0).sum(axis=(2, 3)) + split), (m, b, k)

    def test_pair_counts_equal_their_integer_products(self):
        # The counts come from one float64 product; they must equal the
        # int64 products exactly, as int64.
        for m, b, k in [(m, b, k) for k in range(1, 6) for m in range(12)
                        for b in range(1, 13 - m)]:
            discordant, tied = mallows._pair_counts(m, b, k)
            states = mallows._placed_states(m, k)
            comps, below, _, split = mallows._compositions(b, k)
            assert discordant.dtype == tied.dtype == np.int64
            assert np.array_equal(discordant.T, states @ below.T), (m, b, k)
            assert np.array_equal(tied.T, states @ comps.T + split), (m, b, k)

    def test_a_step_holds_no_pair_counts(self):
        # The counts are computed where a key is made of them (_step_keys)
        # and not kept: a step's arrays are its multiplicities, destinations
        # and stages, also after its keys and draw stage lists are read.
        step = mallows._stage_step(3, 4, 4)
        mallows._step_keys(3, 4, 4, 2, 1)
        step.stage_lists
        arrays = [value for value in vars(step).values() if isinstance(value, np.ndarray)]
        assert sum(array.nbytes for array in arrays) == (
            step.mult.nbytes + step.dest.nbytes + step.stages.nbytes)
        assert set(vars(step)) == {"mult", "dest", "stages", "states", "stage_lists"}


def bucket_center(sizes):
    """The center with buckets of the given sizes at stages 1, 2, ..."""
    return tuple(stage for stage, size in enumerate(sizes, start=1) for _ in range(size))


def brute_force_histogram(center, l):
    """(discordant, tied-one) -> count over {1..l}^n, from the oracle distance."""
    tally = Counter()
    for x in full_space(len(center), l):
        d = naive_distance(x, center, p=0.0)
        tally[int(d), int(naive_distance(x, center, p=1.0) - d)] += 1
    return tally


def enumerated_histogram(center, l):
    """The histogram tallied from the pair counts of every enumerated point."""
    d_counts, e_counts = space_pair_counts(center, l)
    packer = int(d_counts.max()) + int(e_counts.max()) + 2
    packed, mult = np.unique(d_counts * packer + e_counts, return_counts=True)
    return packed // packer, packed % packer, mult


@st.composite
def histogram_classes(draw):
    """(n, l, class key) with n <= 7 items in at most l <= 4 buckets."""
    l = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=7))
    buckets = draw(st.integers(min_value=1, max_value=min(l, n)))
    cuts = draw(st.permutations(range(1, n)))[:buckets - 1]
    edges = [0, *sorted(cuts), n]
    sizes = tuple(b - a for a, b in zip(edges, edges[1:]))
    return n, l, structural_class(bucket_center(sizes))


class TestHistogram:
    @given(histogram_classes())
    @settings(max_examples=30, deadline=None)
    @example((5, 1, (5,)))
    @example((6, 4, (6,)))
    @example((7, 4, (1,) * 7))
    @example((3, 4, (1, 1, 1)))
    @example((3, 9, (1, 2)))
    @example((2, 40, (1, 1)))
    def test_matches_brute_force_tally(self, case):
        n, l, class_key = case
        d, e, mult = PartitionCache().histogram(n, l, class_key)
        want = sorted(brute_force_histogram(bucket_center(class_key), l).items())
        assert [(int(a), int(b)) for a, b in zip(d, e)] == [key for key, _ in want]
        assert mult.tolist() == [count for _, count in want]
        assert int(mult.sum()) == l**n

    def test_equals_enumeration_for_every_class_at_n8_l4(self):
        classes = {
            structural_class(bucket_center(sizes))
            for k in range(1, 5)
            for sizes in itertools.product(range(1, 9), repeat=k)
            if sum(sizes) == 8
        }
        assert len(classes) == 36
        cache = PartitionCache()
        for class_key in sorted(classes):
            got = cache.histogram(8, 4, class_key)
            want = enumerated_histogram(bucket_center(class_key), 4)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b), class_key

    def test_many_stages_stay_cheap(self):
        # Over n=2 items only two of the 4096 stages are ever occupied.
        d, e, mult = PartitionCache().histogram(2, 4096, (1, 1))
        assert list(zip(d.tolist(), e.tolist(), mult.tolist())) == [
            (0, 0, 4096 * 4095 // 2), (0, 1, 4096), (1, 0, 4096 * 4095 // 2)
        ]
        # (2^15)^4 = 2^60 points, near the 2^63 limit of exact int64 counts.
        d, e, mult = PartitionCache().histogram(4, 2**15, (1, 1, 1, 1))
        assert (mult > 0).all()
        assert int(mult.sum()) == 2**60


class TestRow:
    @pytest.mark.parametrize("n,l", [(8, 4), (10, 4), (6, 9)])
    def test_equals_the_histogram_summed_onto_the_grid(self, n, l):
        # p = 1/2, 3/4 and 1 run the program over the lattice key b d + a e
        # (p = a / b); 0.6, 0.731 and the histogram over the key (P+1) d + e.
        # On either key one size rule lands the last bucket by a matrix
        # product or by the scatter. Classes of fewer than n items give the
        # restricted rows a fit uses.
        cache = PartitionCache()
        for p in (0.5, 0.75, 1.0, 0.6, 0.731):
            grid = distance_grid(n, p)
            for r in range(1, n + 1):
                for class_key in classes_of(r, l):
                    d, e, mult = cache.histogram(r, l, class_key)
                    want = np.bincount(np.searchsorted(grid, d + p * e), weights=mult,
                                       minlength=len(grid))
                    got = cache.row(n, l, class_key, p)
                    assert got.dtype == want.dtype, (p, class_key)
                    assert got.tobytes() == want.tobytes(), (p, class_key)

    @pytest.mark.parametrize("n,l", [(48, 2), (28, 3), (20, 4)])
    def test_largest_accepted_space_sums_to_exactly_l_to_the_n(self, n, l):
        check_capacity(n, l)
        with pytest.raises(CapacityError):
            check_capacity(n + 1, l)
        sizes = [n // l + (k < n % l) for k in range(l)]
        row = PartitionCache().row(n, l, structural_class(bucket_center(sizes)), 0.5)
        assert row.sum() == l**n


def unique_buckets(center):
    """center_buckets by its np.unique definition, the reference."""
    _, bucket, sizes = np.unique(center, return_inverse=True, return_counts=True)
    ordered = tuple(sizes.tolist())
    class_key = mallows.class_of_sizes(ordered)
    flip = ordered != class_key
    return class_key, flip, len(sizes) - 1 - bucket if flip else bucket


class TestCenterBuckets:
    def test_matches_the_unique_definition(self):
        rng = np.random.default_rng(5)
        # Stage values run up to l, and check_capacity accepts l = 2^28 - 4
        # at n = 1.
        centers = [*itertools.product(range(1, 5), repeat=6),
                   *map(tuple, rng.integers(1, 10, size=(500, 5)).tolist()),
                   (2**28 - 4,), (3, 2**28 - 4, 3, 1)]
        for center in centers:
            class_key, flip, bucket = mallows.center_buckets(center)
            want_key, want_flip, want_bucket = unique_buckets(center)
            assert (class_key, flip) == (want_key, want_flip), center
            assert bucket.dtype == want_bucket.dtype, center
            assert np.array_equal(bucket, want_bucket), center


class TestStructuralClass:
    def test_reversal_canonicalization(self):
        assert structural_class((1, 2, 2)) == structural_class((1, 1, 2))
        assert structural_class((1, 2, 2)) == (1, 2)

    def test_stage_gaps_ignored(self):
        assert structural_class((1, 3, 3)) == structural_class((1, 2, 2))

    def test_order_matters_beyond_reversal(self):
        # sizes (1,2,3) and (2,1,3) are the same multiset but different keys
        assert structural_class((1, 2, 2, 3, 3, 3)) != structural_class(
            (1, 1, 2, 3, 3, 3)
        )


class TestPartitionFunction:
    def test_no_pairs_means_uniform(self):
        assert partition_function(params([1], 1.0, 2)) == pytest.approx(2.0)
        assert partition_function(params([1], 0.3, 7)) == pytest.approx(7.0)

    def test_two_item_hand_value(self):
        expected = 1.0 + 2.0 * math.exp(-0.5) + math.exp(-1.0)
        assert partition_function(params([1, 2], 1.0, 2)) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            l = int(rng.integers(1, 5))
            spread = float(rng.choice([0.3, 1.0, 3.0]))
            center = tuple(int(v) for v in rng.integers(1, l + 1, n))
            got = partition_function(params(center, spread, l))
            want = naive_psi(center, l, spread)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_flat_limit(self):
        assert partition_function(params([1, 2, 2], 1e9, 3)) == pytest.approx(
            27.0, rel=1e-6
        )
        # Both ends of the spread range: only the points at distance 0 from
        # (1, 2) over {1,2,3}^2, (1,2), (1,3) and (2,3), keep any weight at
        # 1e-300, and every one of the 3^2 points keeps all of it at 1e300.
        for spread, points in ((1e-300, 3), (1e300, 9)):
            p = params([1, 2], spread, 3)
            assert log_partition_function(p) == pytest.approx(
                math.log(points), rel=1e-12
            )

    def test_domain_must_cover_center(self):
        with pytest.raises(ValueError):
            params([1, 4], 1.0, 3)

    def test_spread_must_be_positive(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                params([1, 2], bad, 2)

    def test_capacity_error_propagates(self):
        with pytest.raises(CapacityError):
            partition_function(params([1] * 30, 1.0, 4))


class TestPartitionCache:
    def test_concurrent_readers_and_writers_agree(self):
        import threading

        cache = PartitionCache()
        cases = [
            ((1, 2, 2, 3), 3, s) for s in (0.4, 0.7, 1.0, 1.6, 2.5)
        ] + [((1, 1, 2), 4, s) for s in (0.3, 0.9, 2.0)]
        # Every class of at most 7 items over 3 stages, as rows of one space,
        # each thread adding them in its own order.
        space = [class_key for r in range(1, 8) for class_key in classes_of(r, 3)]
        results, rows = [dict() for _ in range(8)], [dict() for _ in range(8)]

        def log_psi(cache, center, l, spread):
            return cache.log_psi(len(center), l, structural_class(center), 0.5, spread)

        def worker(slot):
            order = np.random.default_rng(slot).permutation(len(space))
            for case in cases:
                results[slot][case] = log_psi(cache, *case)
            for k in order.tolist():
                rows[slot][space[k]] = cache.row(7, 3, space[k], 0.5)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        # Switch threads often, so that writers race to add the same class.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        solo = {case: log_psi(PartitionCache(), *case) for case in cases}
        for got in results:
            assert got == solo
        for class_key in space:
            solo_row = PartitionCache().row(7, 3, class_key, 0.5)
            for got in rows:
                assert np.array_equal(got[class_key], solo_row), class_key
        # Each class has exactly one row in the space's table.
        table = cache.table(7, 3, 0.5)
        assert table.count == len(space)
        assert sorted(table.index[class_key] for class_key in space) == list(range(len(space)))

    def test_rows_are_read_only_built_and_cached(self):
        cache = PartitionCache()
        for row in (cache.row(6, 3, (2, 3), 0.5), cache.row(6, 3, (2, 3), 0.5)):
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 0.0

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_cached_equals_recomputed(self, monkeypatch):
        p = params([1, 2, 2, 3], 0.7, 3)
        first = partition_function(p)
        again = partition_function(p)
        monkeypatch.setattr(mallows, "_DEFAULT_CACHE", PartitionCache())
        fresh = partition_function(p)
        assert first == again
        assert first == pytest.approx(fresh, rel=1e-12)

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_shared_across_relabelings(self):
        a = params([1, 2, 2], 1.0, 3)
        b = params([2, 1, 2], 1.0, 3)  # item permutation of a
        assert partition_function(a) == pytest.approx(
            partition_function(b), rel=1e-12
        )

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_relabel_invariance_property(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            l = int(rng.integers(1, 5))
            center = [int(v) for v in rng.integers(1, l + 1, n)]
            perm = rng.permutation(n)
            permuted = [center[k] for k in perm]
            a = partition_function(params(center, 1.0, l))
            b = partition_function(params(permuted, 1.0, l))
            assert a == pytest.approx(b, rel=1e-12)


class TestLogPmf:
    def test_mode_value(self):
        p = params([1, 2], 1.0, 2)
        psi = partition_function(p)
        assert log_pmf(p.center, p) == pytest.approx(-math.log(psi), rel=1e-12)

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_normalization(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            l = int(rng.integers(1, 5))
            spread = float(rng.choice([0.3, 1.0, 3.0]))
            p = params([int(v) for v in rng.integers(1, l + 1, n)], spread, l)
            total = sum(
                math.exp(log_pmf(x, p)) for x in map(CentralRanking, full_space(n, l))
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_center_is_a_mode(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            l = int(rng.integers(2, 5))
            p = params([int(v) for v in rng.integers(1, l + 1, n)], 1.0, l)
            best = max(log_pmf(x, p) for x in map(CentralRanking, full_space(n, l)))
            assert log_pmf(p.center, p) == pytest.approx(best, abs=1e-12)

    def test_uniform_limit(self):
        p = params([1, 2], 1e6, 2)
        for x in map(CentralRanking, full_space(2, 2)):
            assert log_pmf(x, p) == pytest.approx(math.log(0.25), abs=1e-3)

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_values_match_naive_pmf(self):
        center = (1, 3, 2)
        p = params(center, 0.7, 3)
        want = naive_pmf(center, 3, 0.7)
        for x in map(CentralRanking, full_space(3, 3)):
            assert math.exp(log_pmf(x, p)) == pytest.approx(
                want[x.stages], rel=1e-10
            )


class TestSample:
    def test_determinism(self):
        p = params([1, 2, 2, 3], 1.0, 3)
        a = sample(p, rng=np.random.default_rng(42), count=50)
        b = sample(p, rng=np.random.default_rng(42), count=50)
        assert [r.stages for r in a] == [r.stages for r in b]

    def test_one_row_subset_matches_the_array_route(self):
        # The one-ranking draw picks its occupied stages' subset in plain
        # Python; it must give the same subset as _uniform_subsets on one row
        # and leave the generator where that leaves it.
        for l in range(1, 10):
            for k in range(1, l + 1):
                for seed in range(50):
                    one, rows = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = mallows._uniform_subset(k, l, one)
                    assert got == mallows._uniform_subsets(np.array([k]), l, rows)[0].tolist()
                    assert one.random() == rows.random()

    def test_tiny_spread_concentrates(self):
        p = params([1, 2, 3], 0.01, 3)
        for route in (batch, one_by_one):
            draws = route(p, np.random.default_rng(0), 100)
            assert draws.count((1, 2, 3)) >= 99

    # At spread 1e-3 every way that leaves the center weighs exp(-500) or
    # less, and some states' totals underflow to 0; the only draw left is
    # the center, and no 0 / 0 is formed on the way. At 1e-320 a distance
    # over the spread overflows unless the spread is floored (grid_weights).
    # (2, 2, 2, 2) at l = 4 is the survey's class.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("center, spread", [
        ((1, 1, 2, 2, 3, 3, 4, 4), 1e-3), ((1, 2, 4, 4, 3, 1, 2, 3), 1e-3),
        ((1, 1, 2, 2, 3, 3, 4, 4), 1e-320), ((1, 2, 4, 4, 3, 1, 2, 3), 1e-320),
    ], ids=["center0", "center1", "center0-1e-320", "center1-1e-320"])
    @pytest.mark.parametrize("route", [batch, one_by_one], ids=["batch", "one_by_one"])
    def test_underflowing_spread_gives_the_center(self, center, spread, route):
        draws = route(params(center, spread, 4), np.random.default_rng(3), 200)
        assert set(draws) == {center}

    def test_flat_limit_frequencies(self):
        p = params([1, 2], 1e6, 2)
        draws = sample(p, rng=np.random.default_rng(1), count=100_000)
        counts = {}
        for r in draws:
            counts[r.stages] = counts.get(r.stages, 0) + 1
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c / 100_000 - 0.25) < 0.01

    def test_empirical_matches_exact_pmf(self):
        center = (1, 2, 2)
        p = params(center, 1.0, 3)
        draws = sample(p, rng=np.random.default_rng(9), count=50_000)
        counts = {}
        for r in draws:
            counts[r.stages] = counts.get(r.stages, 0) + 1
        want = naive_pmf(center, 3, 1.0)
        for stages, prob in want.items():
            assert counts.get(stages, 0) / 50_000 == pytest.approx(prob, abs=0.01)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample(params([1], 1.0, 2), count=0)

    # Each class is drawn by both routes: 100,000 draws in one batch, and
    # 6,000 one draw at a time, as the chain draws ("-one-by-one"). A single
    # draw over l > n stages costs about 0.1 ms, so more would take seconds.
    @pytest.mark.parametrize("center,l,spread,route,count", [
        pytest.param(center, l, spread, route, count, id=name + suffix)
        for name, center, l, spread in [
            ("single-bucket", (2, 2, 2, 2), 3, 0.7),
            ("all-singletons", (1, 2, 3, 4), 4, 1.3),
            ("n2-l40", (1, 2), 40, 1.0),
            ("n3-l9", (1, 2, 2), 9, 0.8),
            ("n3-l9-reversed", (1, 1, 3), 9, 1.5),
            ("gapped-reversed", (2, 2, 4, 5), 5, 0.9),
            ("gapped", (4, 2, 4, 3), 5, 1.1),
        ]
        for suffix, route, count in [("", batch, 100_000), ("-one-by-one", one_by_one, 6_000)]
    ])
    def test_chi_square_against_exact_pmf(self, center, l, spread, route, count):
        draws = route(params(center, spread, l), np.random.default_rng(11), count)
        assert chi_square_pvalue(draws, naive_pmf(center, l, spread)) > 0.001

    @pytest.mark.parametrize("center,l", [((1, 1, 2, 2, 3, 3, 4, 4), 4), ((1, 2, 2), 9),
                                          ((3, 1, 2, 2, 1, 3), 3)])
    def test_alternating_spreads_draw_as_fresh_caches(self, center, l):
        # One cache keeps each spread's running shares; drawing at spreads
        # a, b, a, b, ... must never walk one spread's runs at another.
        kept, fresh = np.random.default_rng(8), np.random.default_rng(8)
        cache = PartitionCache()
        for spread in [0.6, 1.7] * 150:
            want = PartitionCache().draw(center, l, 0.5, spread, fresh, 1)
            assert cache.draw(center, l, 0.5, spread, kept, 1) == want, spread

    def test_single_stage_gives_the_only_point(self):
        for route in (batch, one_by_one):
            draws = route(params([1, 1, 1], 0.5, 1), np.random.default_rng(2), 50)
            assert set(draws) == {(1, 1, 1)}

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_batched_and_single_draws_follow_one_law(self):
        p = params([1, 2, 2, 3], 0.8, 3)
        batch = sample(p, rng=np.random.default_rng(5), count=10_000)
        rng = np.random.default_rng(6)
        singles = [sample(p, rng=rng)[0] for _ in range(10_000)]
        a, b = Counter(r.stages for r in batch), Counter(r.stages for r in singles)
        cells = sorted(set(a) | set(b))
        table = np.array([[a[x] for x in cells], [b[x] for x in cells]])
        table = table[:, table.sum(axis=0) >= 10]
        assert stats.chi2_contingency(table).pvalue > 0.001

    @pytest.mark.usefixtures("fresh_partition_cache")
    def test_one_large_draw_allocates_little(self):
        # 4^10 points: an enumerating draw would allocate tens of MB here.
        tracemalloc.start()
        try:
            sample(params([1, 1, 2, 2, 2, 3, 3, 3, 4, 4], 1.0, 4), rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


def owned_draw_bytes(entry, grid):
    """The bytes of the arrays a class's draw entry holds that no step, final
    state list or distance grid shares: what the class itself keeps."""
    steps, final_states, *rest = entry
    shared = [grid, final_states, *(a for step in steps for a in (step.mult, step.dest,
                                                                    step.stages))]
    arrays, todo = [], list(rest)
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
    roots = {}
    for array in arrays:
        while array.base is not None:
            array = array.base
        if not any(np.shares_memory(array, other) for other in shared):
            roots[id(array)] = array
    return sum(root.nbytes for root in roots.values())


class TestDrawMemory:
    def test_classes_placing_one_step_share_its_destinations(self):
        # (2, 3, 3) and (2, 6) both place their first bucket by the step
        # (0, 2, 4); the draw reads its destinations from that step.
        cache = PartitionCache()
        rng = np.random.default_rng(0)
        for sizes in [(2, 3, 3), (2, 6)]:
            cache.draw(bucket_center(sizes), 4, 0.5, 0.7, rng, 1)
            cache.draw(bucket_center(sizes), 4, 0.5, 1.3, rng, 5)
        entries = [cache._draw_terms[(4, 0.5, key)] for key in [(2, 3, 3), (2, 6)]]
        assert np.shares_memory(entries[0][0][0].dest, entries[1][0][0].dest)
        # Nor does either class keep a copy of any of its steps' destinations.
        for steps, _, terms, *_ in entries:
            kept = [a for term in terms for a in (term if isinstance(term, list) else [term])
                    if isinstance(a, np.ndarray) and a.dtype.kind == "i"
                    and not any(np.shares_memory(a, step.dest) for step in steps)]
            assert not any(a.shape in (step.dest.shape, step.dest.shape[::-1])
                           for a in kept for step in steps)

    @pytest.mark.parametrize("p", [0.5, 0.731])
    def test_a_class_keeps_its_shares_and_one_index_per_edge(self, p):
        # Per edge, the class keeps its share and one 8-byte index into the
        # distinct (multiplicity, distance) pairs its edges take, whose
        # weights a new spread computes: 16 bytes per edge, plus 16 per pair
        # (a multiplicity and a distance), and fewer pairs than edges.
        # Drawn at two spreads, so that a second spread's shares replace the
        # first's rather than add to them.
        cache = PartitionCache()
        rng = np.random.default_rng(1)
        for class_key in classes_of(8, 4):
            for spread in (0.7, 1.3):
                cache.draw(bucket_center(class_key), 4, p, spread, rng, 1)
            entry = cache._draw_terms[(4, p, class_key)]
            edges = sum(step.dest.size for step in entry[0])
            pairs = len(entry[2][0])
            assert entry[3] == 1.3 and pairs <= edges, class_key
            assert owned_draw_bytes(entry, distance_grid(8, p)) <= 16 * edges + 16 * pairs, (
                class_key)


def chi_square_pvalue(draws, pmf):
    """Chi-square p-value of the draws against the pmf; the cells that expect
    fewer than 5 draws are pooled into one."""
    counts = Counter(draws)
    assert set(counts) <= set(pmf)
    observed = np.array([counts[x] for x in pmf], dtype=float)
    expected = np.array(list(pmf.values())) * len(draws)
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    return stats.chisquare(observed, expected * observed.sum() / expected.sum()).pvalue
