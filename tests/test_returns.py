"""Return model tests: shape and rescaling."""

import random
from decimal import Decimal

import pytest

from venturebank.errors import InfeasibleTargetError, InvalidParameterError
from venturebank.returns import (
    FAILURE,
    SURVIVOR,
    SpreadParams,
    rescale_to_target,
    synthesize_distribution,
)

from oracles import per_fund_synthesis, rank_correlation, streaming_mean


class TestSynthesize:
    def test_default_shape(self):
        dist = synthesize_distribution(seed=2024)
        assert len(dist.outcomes) == 50
        multiples = [float(m) for m in dist.multiples()]
        # sorted descending
        assert multiples == sorted(multiples, reverse=True)
        below = sum(1 for m in multiples if m < 1.0)
        assert 0.6 <= below / 50 <= 0.8
        assert max(multiples) > 3.0
        assert min(multiples) >= 0.0

    def test_mean_label_matches_streaming_oracle(self):
        dist = synthesize_distribution(seed=11)
        oracle = streaming_mean(dist.multiples())
        assert abs(float(dist.target_mean) - oracle) < 1e-9
        assert abs(float(dist.mean()) - float(dist.target_mean)) < 1e-9

    def test_byte_identical_serialization_per_seed(self):
        a = synthesize_distribution(seed=7)
        b = synthesize_distribution(seed=7)
        assert a.to_csv() == b.to_csv()
        c = synthesize_distribution(seed=8)
        assert a.to_csv() != c.to_csv()

    def test_shape_holds_across_seeds(self):
        for seed in range(20):
            dist = synthesize_distribution(seed=seed)
            below = dist.failure_count() / len(dist.outcomes)
            assert 0.6 <= below <= 0.8
            assert float(max(dist.multiples())) > 3.0

    def test_classification_against_threshold(self):
        dist = synthesize_distribution(seed=3)
        for o in dist.outcomes:
            expected = FAILURE if o.ten_year_multiple < Decimal("1") else SURVIVOR
            assert o.classification == expected

    def test_failure_count_matches_classification(self):
        dist = synthesize_distribution(seed=4)
        failures = sum(1 for o in dist.outcomes if o.classification == FAILURE)
        survivors = sum(1 for o in dist.outcomes if o.classification == SURVIVOR)
        assert failures == dist.failure_count()
        assert failures + survivors == 50

    @pytest.mark.parametrize("n_funds", [2, 3, 50, 2000])
    @pytest.mark.parametrize("spread", [
        SpreadParams(),
        SpreadParams(loser_fraction=0.5, loser_floor=0.0, loser_ceiling=0.9,
                     survivor_max=10.0, survivor_shape=3.5),
        SpreadParams(loser_fraction=0.95, survivor_max=1.5, survivor_shape=0.5),
    ])
    def test_one_draw_equals_per_fund_draws(self, spread, n_funds):
        # What is checked is the stream's order, which shows at any size,
        # so 2000 funds take three seeds to keep the suite short.
        seeds = (*range(200), 2024, 2**32 + 5) if n_funds < 2000 else (0, 2024, 2**32 + 5)
        for seed in seeds:
            dist = synthesize_distribution(seed=seed, n_funds=n_funds, spread=spread)
            assert dist.outcomes == tuple(per_fund_synthesis(seed, n_funds, spread))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            synthesize_distribution(seed=1, n_funds=1)
        with pytest.raises(InvalidParameterError):
            synthesize_distribution(seed=1, spread=SpreadParams(loser_fraction=1.5))
        with pytest.raises(InvalidParameterError):
            synthesize_distribution(seed=1, spread=SpreadParams(loser_floor=0.9,
                                                                loser_ceiling=0.5))

    def test_survivor_max_stays_below_the_money_scale(self):
        # Every multiple is money, so the bound is checked up front, by name.
        for bad in (1e19, 1e300):
            with pytest.raises(InvalidParameterError, match="^survivor_max must"):
                synthesize_distribution(seed=1, spread=SpreadParams(survivor_max=bad))
        # Just under the bound, and at the thinnest tail, synthesis succeeds.
        top = synthesize_distribution(seed=1, spread=SpreadParams(
            survivor_max=9.999999999999998e18, survivor_shape=1e-300)).multiples()[0]
        assert top < Decimal(10) ** 19


class TestRescale:
    def test_hits_targets_within_tolerance(self):
        dist = synthesize_distribution(seed=5)
        for target in ("0.5", "1.10", "1.31", "1.50", "2.0", "3.7"):
            scaled = rescale_to_target(dist, target)
            assert abs(scaled.mean() - Decimal(target)) < Decimal("0.000001")
            assert scaled.target_mean == Decimal(target).quantize(Decimal("0.000000001"))

    def test_rank_order_preserved_on_unclamped(self):
        dist = synthesize_distribution(seed=13)
        scaled = rescale_to_target(dist, "0.6")  # big downshift, clamps some
        pairs = [
            (o.ten_year_multiple, s.ten_year_multiple)
            for o, s in zip(dist.outcomes, scaled.outcomes)
            if s.ten_year_multiple > 0
        ]
        before = [p[0] for p in pairs]
        after = [p[1] for p in pairs]
        assert rank_correlation(before, after) == pytest.approx(1.0, abs=1e-12)

    def test_spread_preserved_exactly_on_unclamped(self):
        dist = synthesize_distribution(seed=21)
        scaled = rescale_to_target(dist, "1.31")
        orig = dist.multiples()
        new = scaled.multiples()
        # uniform shift: consecutive diffs identical where nothing clamped
        for i in range(len(orig) - 1):
            if new[i] > 0 and new[i + 1] > 0:
                assert orig[i] - orig[i + 1] == new[i] - new[i + 1]

    def test_clamped_entries_sit_at_zero_and_mean_still_lands(self):
        dist = synthesize_distribution(seed=17)
        scaled = rescale_to_target(dist, "0.3")
        values = scaled.multiples()
        assert any(v == 0 for v in values)
        assert abs(scaled.mean() - Decimal("0.3")) < Decimal("0.000001")

    def test_target_zero_and_infeasible(self):
        dist = synthesize_distribution(seed=1)
        zeroed = rescale_to_target(dist, "0")
        assert all(v == 0 for v in zeroed.multiples())
        with pytest.raises(InfeasibleTargetError):
            rescale_to_target(dist, "-0.5")

    def test_reclassification_moves_with_shift(self):
        dist = synthesize_distribution(seed=5)
        up = rescale_to_target(dist, "2.2")
        assert up.failure_count() < dist.failure_count()
        down = rescale_to_target(dist, "0.55")
        assert down.failure_count() > dist.failure_count()

    def test_randomized_targets_match_mean(self):
        rng = random.Random(99)
        dist = synthesize_distribution(seed=31)
        for _ in range(50):
            target = Decimal(str(round(rng.uniform(0.0, 5.0), 3)))
            scaled = rescale_to_target(dist, target)
            assert abs(scaled.mean() - target) < Decimal("0.000001")
