"""Return model tests: shape and rescaling."""

import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from venturebank import returns
from venturebank.errors import InfeasibleTargetError, InvalidParameterError
from venturebank.simulation import ScenarioConfig
from venturebank.returns import (
    FAILURE,
    MAX_FUNDS,
    SURVIVOR,
    SpreadParams,
    rescale_to_target,
    synthesize_distribution,
)

from oracles import per_fund_synthesis, rank_correlation, streaming_mean


def mean(dist) -> Decimal:
    return sum(dist.multiples, Decimal(0)) / len(dist.multiples)


def failures(dist) -> int:
    return dist.outcomes.count(FAILURE)


class TestSynthesize:
    def test_default_shape(self):
        dist = synthesize_distribution(seed=2024)
        assert len(dist.fund_ids) == len(dist.multiples) == len(dist.outcomes) == 50
        multiples = [float(m) for m in dist.multiples]
        # sorted descending
        assert multiples == sorted(multiples, reverse=True)
        below = sum(1 for m in multiples if m < 1.0)
        assert 0.6 <= below / 50 <= 0.8
        assert max(multiples) > 3.0
        assert min(multiples) >= 0.0

    def test_mean_matches_streaming_oracle(self):
        dist = synthesize_distribution(seed=11)
        oracle = streaming_mean(dist.multiples)
        assert abs(float(mean(dist)) - oracle) < 1e-9

    def test_byte_identical_serialization_per_seed(self):
        a = synthesize_distribution(seed=7)
        b = synthesize_distribution(seed=7)
        assert a == b
        c = synthesize_distribution(seed=8)
        assert a.multiples != c.multiples

    def test_shape_holds_across_seeds(self):
        for seed in range(20):
            dist = synthesize_distribution(seed=seed)
            below = failures(dist) / len(dist.outcomes)
            assert 0.6 <= below <= 0.8
            assert float(max(dist.multiples)) > 3.0

    def test_classification_against_threshold(self):
        dist = synthesize_distribution(seed=3)
        assert dist.failure_threshold == Decimal("1")
        for multiple, outcome in zip(dist.multiples, dist.outcomes, strict=True):
            assert outcome == (FAILURE if multiple < Decimal("1") else SURVIVOR)

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
            assert tuple(zip(dist.fund_ids, dist.multiples, dist.outcomes)) == tuple(
                per_fund_synthesis(seed, n_funds, spread))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            synthesize_distribution(seed=1, n_funds=1)
        # The seed and the count are refused typed, with ScenarioConfig's
        # messages, before numpy sees them or allocates a draw.
        for kwargs, message in [
            (dict(seed=-1), "seed must be >= 0"),
            (dict(seed=1.5), "seed must be an integer, got 1.5"),
            (dict(seed=True), "seed must be an integer, got True"),
            (dict(seed="1"), "seed must be an integer, got '1'"),
            (dict(seed=1, n_funds=2.5), "n_funds must be an integer, got 2.5"),
            (dict(seed=1, n_funds=False), "n_funds must be an integer, got False"),
            (dict(seed=1, n_funds=MAX_FUNDS + 1),
             f"n_funds must be >= 2 and <= {MAX_FUNDS}, got {MAX_FUNDS + 1}"),
        ]:
            with pytest.raises(InvalidParameterError) as refused:
                synthesize_distribution(**kwargs)
            assert str(refused.value) == message
            with pytest.raises(InvalidParameterError) as refused:
                ScenarioConfig(**{"n_funds": 50, **kwargs})
            assert str(refused.value) == message
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
            survivor_max=9.999999999999998e18, survivor_shape=1e-300)).multiples[0]
        assert top < Decimal(10) ** 19

    def test_each_float_is_read_as_it_prints(self, monkeypatch):
        # With these jitters the loser's value is the float 0.1000000005:
        # read as it prints it rounds to 0.100000000, read exactly (its
        # binary value lies just above) to 0.100000001.
        class Draw:
            def uniform(self, low, high, size):
                return np.array([0.200000001, 0.5])

        monkeypatch.setattr(returns.np.random, "default_rng", lambda seed: Draw())
        spread = SpreadParams(loser_fraction=0.5, loser_floor=0.0, loser_ceiling=0.5)
        loser = 0.0 + 0.5 * ((0 + 0.200000001) / 1)
        assert repr(loser) == "0.1000000005"
        assert Decimal(loser).quantize(Decimal("1E-9")) == Decimal("0.100000001")
        dist = synthesize_distribution(seed=0, n_funds=2, spread=spread)
        assert dist.multiples[1] == Decimal("0.100000000")
        assert str(dist.multiples[1]) == "0.100000000"


class TestRescale:
    def test_result_does_not_depend_on_the_callers_context(self):
        dist = synthesize_distribution(seed=0, n_funds=50)
        assert str(rescale_to_target(dist, "1.31").multiples[0]) == "4.361995204"
        with localcontext() as ctx:
            ctx.prec = 6
            assert str(rescale_to_target(dist, "1.31").multiples[0]) == "4.361995204"
    def test_hits_targets_within_tolerance(self):
        dist = synthesize_distribution(seed=5)
        for target in ("0.5", "1.10", "1.31", "1.50", "2.0", "3.7"):
            scaled = rescale_to_target(dist, target)
            assert abs(mean(scaled) - Decimal(target)) < Decimal("0.000001")

    def test_rescales_share_the_fund_ids(self):
        # fund_ids is built once per synthesis; every rescale reuses it.
        dist = synthesize_distribution(seed=5)
        for target in ("0", "0.3", "1.31"):
            assert rescale_to_target(dist, target).fund_ids is dist.fund_ids

    def test_rank_order_preserved_on_unclamped(self):
        dist = synthesize_distribution(seed=13)
        scaled = rescale_to_target(dist, "0.6")  # big downshift, clamps some
        pairs = [(o, s) for o, s in zip(dist.multiples, scaled.multiples) if s > 0]
        before = [p[0] for p in pairs]
        after = [p[1] for p in pairs]
        assert rank_correlation(before, after) == pytest.approx(1.0, abs=1e-12)

    def test_spread_preserved_exactly_on_unclamped(self):
        dist = synthesize_distribution(seed=21)
        scaled = rescale_to_target(dist, "1.31")
        orig = dist.multiples
        new = scaled.multiples
        # uniform shift: consecutive diffs identical where nothing clamped
        for i in range(len(orig) - 1):
            if new[i] > 0 and new[i + 1] > 0:
                assert orig[i] - orig[i + 1] == new[i] - new[i + 1]

    def test_clamped_entries_sit_at_zero_and_mean_still_lands(self):
        dist = synthesize_distribution(seed=17)
        scaled = rescale_to_target(dist, "0.3")
        values = scaled.multiples
        assert any(v == 0 for v in values)
        assert abs(mean(scaled) - Decimal("0.3")) < Decimal("0.000001")

    def test_target_zero_and_infeasible(self):
        dist = synthesize_distribution(seed=1)
        zeroed = rescale_to_target(dist, "0")
        assert all(v == 0 for v in zeroed.multiples)
        assert set(zeroed.outcomes) == {FAILURE}
        with pytest.raises(InfeasibleTargetError):
            rescale_to_target(dist, "-0.5")

    def test_reclassification_moves_with_shift(self):
        dist = synthesize_distribution(seed=5)
        up = rescale_to_target(dist, "2.2")
        assert failures(up) < failures(dist)
        down = rescale_to_target(dist, "0.55")
        assert failures(down) > failures(dist)

    def test_randomized_targets_match_mean(self):
        rng = random.Random(99)
        dist = synthesize_distribution(seed=31)
        for _ in range(50):
            target = Decimal(str(round(rng.uniform(0.0, 5.0), 3)))
            scaled = rescale_to_target(dist, target)
            assert abs(mean(scaled) - target) < Decimal("0.000001")
