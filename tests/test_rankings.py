import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stagemallows.rankings import (
    MISSING,
    CentralRanking,
    DistanceConfig,
    ItemSet,
    PairKind,
    PartialRanking,
    StageDomain,
    classify_pair,
    compared_pairs,
    kendall_tau_partial,
    pair_counts,
    pair_indices,
    pair_tally,
    ranking_pair_signs,
)

from oracles import inversion_count, naive_distance, naive_pair_tally


def central(*stages):
    return CentralRanking(tuple(stages))


def partial(*stages):
    return PartialRanking(tuple(stages))


class TestTypes:
    def test_item_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ItemSet(("a", "b", "a"))

    @pytest.mark.parametrize("label", [None, 1, "a\u0001", "a\x00", "\ud800", "\ufffe"])
    def test_item_set_rejects_a_label_xml_cannot_carry(self, label):
        with pytest.raises(ValueError):
            ItemSet(("b", label))

    def test_item_set_keeps_xml_whitespace_and_astral_labels(self):
        assert ItemSet(("a\rb", "\t\n", "\U0001f600", "\ue000\ufffd")).n == 4

    def test_item_set_counts(self):
        items = ItemSet(("a", "b", "c"))
        assert items.n == 3
        assert items.index_of("b") == 1

    def test_stage_domain_requires_positive_l(self):
        with pytest.raises(ValueError):
            StageDomain(0)
        assert list(StageDomain(3).stages()) == [1, 2, 3]

    def test_partial_ranking_rejects_all_missing(self):
        with pytest.raises(ValueError):
            PartialRanking((MISSING, MISSING))

    def test_partial_ranking_rejects_nonpositive_stage(self):
        with pytest.raises(ValueError):
            PartialRanking((0, 1))

    def test_partial_ranking_observed_bookkeeping(self):
        x = partial(2, MISSING, 1)
        assert x.observed_indices == (0, 2)
        assert x.r == 2
        assert not x.is_complete

    def test_central_ranking_rejects_missing(self):
        with pytest.raises(ValueError):
            CentralRanking((1, None, 2))

    def test_domain_check(self):
        with pytest.raises(ValueError):
            central(1, 5).check_domain(StageDomain(4))
        central(1, 4).check_domain(StageDomain(4))

    def test_distance_config_clamps_p(self):
        for bad in (-0.1, 0.0, 0.49, 1.01):
            with pytest.raises(ValueError):
                DistanceConfig(p=bad)
        assert DistanceConfig().p == 0.5
        assert DistanceConfig(p=1.0).p == 1.0


class TestClassifyPair:
    def test_identical_rankings_concordant(self):
        assert classify_pair(central(1, 2), central(1, 2), 0, 1) == PairKind.CONCORDANT

    def test_tied_in_one(self):
        assert classify_pair(central(1, 1), central(1, 2), 0, 1) == PairKind.TIED_ONE
        assert classify_pair(central(1, 2), central(1, 1), 0, 1) == PairKind.TIED_ONE

    def test_missing_forces_drop(self):
        assert (
            classify_pair(partial(1, MISSING), central(1, 2), 0, 1) == PairKind.DROPPED
        )

    def test_tied_both(self):
        assert classify_pair(central(2, 2), central(1, 1), 0, 1) == PairKind.TIED_BOTH

    def test_discordant(self):
        assert classify_pair(central(1, 2), central(2, 1), 0, 1) == PairKind.DISCORDANT

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            classify_pair(central(1, 2), central(1, 2), 0, 0)
        with pytest.raises(ValueError):
            classify_pair(central(1, 2), central(1, 2), 0, 2)

    def test_exactly_one_kind_per_pair(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            l = int(rng.integers(1, 5))
            if rng.random() < 0.5:
                raw = [int(v) if v else MISSING for v in rng.integers(0, l + 1, n)]
                if all(v is MISSING for v in raw):
                    raw[0] = 1
                x = partial(*raw)
            else:
                x = central(*rng.integers(1, l + 1, n))
            y = central(*(int(v) for v in rng.integers(1, l + 1, n)))
            i, j = rng.choice(n, size=2, replace=False)
            kind = classify_pair(x, y, int(i), int(j))
            assert kind in PairKind


class TestDistance:
    def test_single_discordant_pair(self):
        assert kendall_tau_partial(central(1, 2), central(2, 1)) == 1.0

    def test_two_tied_one_pairs(self):
        # pairs (0,1) and (1,2) are each tied in exactly one ranking
        assert kendall_tau_partial(central(1, 1, 2), central(1, 2, 2)) == 1.0

    def test_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            x = central(*(int(v) for v in rng.integers(1, 5, n)))
            assert kendall_tau_partial(x, x) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau_partial(central(1, 2), central(1, 2, 3))

    def test_penalty_weighting(self):
        x, y = central(1, 1), central(1, 2)
        assert kendall_tau_partial(x, y, DistanceConfig(p=1.0)) == 1.0
        assert kendall_tau_partial(x, y, DistanceConfig(p=0.5)) == 0.5

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            l = int(rng.integers(1, 5))
            raw_x = [int(v) if v > 0 else MISSING for v in rng.integers(0, l + 1, n)]
            raw_y = [int(v) if v > 0 else MISSING for v in rng.integers(0, l + 1, n)]
            if all(v is MISSING for v in raw_x):
                raw_x[0] = 1
            if all(v is MISSING for v in raw_y):
                raw_y[0] = 1
            x, y = partial(*raw_x), partial(*raw_y)
            assert kendall_tau_partial(x, y) == pytest.approx(
                naive_distance(raw_x, raw_y), abs=1e-12
            )

    def test_matches_pair_tally(self):
        x = partial(1, 2, MISSING, 2)
        y = partial(2, 1, 1, 2)
        tally = pair_tally(x, y)
        cfg = DistanceConfig()
        assert kendall_tau_partial(x, y, cfg) == (
            tally[PairKind.DISCORDANT] + cfg.p * tally[PairKind.TIED_ONE]
        )
        assert sum(tally.values()) == 6

    def test_reduces_to_inversion_count_on_permutations(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            x = rng.permutation(n) + 1
            y = rng.permutation(n) + 1
            d = kendall_tau_partial(central(*map(int, x)), central(*map(int, y)))
            assert d == inversion_count(list(x), list(y))


@st.composite
def ranking_triples(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    stage = st.integers(min_value=1, max_value=4)
    make = lambda: CentralRanking(tuple(draw(stage) for _ in range(n)))
    return make(), make(), make()


class TestMetricProperties:
    @given(ranking_triples())
    @settings(max_examples=300, deadline=None)
    def test_symmetry_and_identity(self, triple):
        x, y, _ = triple
        assert kendall_tau_partial(x, x) == 0.0
        assert kendall_tau_partial(x, y) == kendall_tau_partial(y, x)

    @given(ranking_triples())
    @settings(max_examples=300, deadline=None)
    def test_triangle_inequality_at_half(self, triple):
        x, y, z = triple
        dxz = kendall_tau_partial(x, z)
        dxy = kendall_tau_partial(x, y)
        dyz = kendall_tau_partial(y, z)
        assert dxz <= dxy + dyz + 1e-12

    @given(ranking_triples(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_dropping_never_increases_distance(self, triple, which):
        x, y, _ = triple
        idx = which % x.n
        observed = [v for k, v in enumerate(x.stages) if k != idx]
        if not observed:
            return
        masked = PartialRanking(
            tuple(MISSING if k == idx else v for k, v in enumerate(x.stages))
        )
        assert kendall_tau_partial(masked, y) <= kendall_tau_partial(x, y) + 1e-12


@st.composite
def partial_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    entries = st.lists(
        st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        min_size=n,
        max_size=n,
    ).filter(lambda stages: any(v is not MISSING for v in stages))
    return PartialRanking(tuple(draw(entries))), PartialRanking(tuple(draw(entries)))


class TestPairSignKernel:
    @given(partial_pairs())
    @settings(max_examples=300, deadline=None)
    @example((partial(2), partial(1)))
    @example((partial(3, 3, 3, 3), partial(1, 2, MISSING, 2)))
    @example((partial(2, 2, 2), partial(2, 2, 2)))
    # Stages beyond int64, one apart: a float64 copy would tie them.
    @example((partial(2**70, 2**70 + 1, MISSING), partial(2**70 + 1, 2**70, 2**70)))
    def test_counts_and_distance_match_scalar_definition(self, pair):
        x, y = pair
        expected = naive_pair_tally(x.stages, y.stages)
        assert {kind.value: count for kind, count in pair_tally(x, y).items()} == expected
        for i, j in zip(*pair_indices(x.n)):
            one = naive_pair_tally((x.stages[i], x.stages[j]), (y.stages[i], y.stages[j]))
            assert one[classify_pair(x, y, int(i), int(j)).value] == 1
        stages = np.array([[0 if v is MISSING else v for v in r.stages] for r in pair])
        signs = ranking_pair_signs(stages)
        compared = compared_pairs((stages > 0).all(axis=0))
        discordant, tied_one = pair_counts(signs[0], signs[1], compared)
        assert int(discordant) == expected["discordant"]
        assert int(tied_one) == expected["tied_one"]
        assert int((~compared).sum()) == expected["dropped"]
        for p in (0.5, 0.7, 1.0):
            d = kendall_tau_partial(x, y, DistanceConfig(p=p))
            assert type(d) is float
            assert d == pytest.approx(naive_distance(x.stages, y.stages, p), abs=1e-12)
