"""Multiplier engine tests: frozen values, oracle agreement, invariants."""

import random
from decimal import Decimal

import pytest

from venturebank.errors import EvaluationBudgetError, InvalidParameterError
from venturebank.multipliers import (
    CapitalLimits,
    KrakenParams,
    capital_limits,
    classical_multiplier,
    din_capital_fraction,
    kraken_multiplier,
    moc_schedule,
)

from oracles import classical_hand_sum, kraken_brute_force

REL = 1e-9


def relerr(a, b):
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) / scale


class TestClassicalMultiplier:
    def test_hand_sum_two_rounds(self):
        # 1 + 0.5 + 0.25, frozen from the hand sum
        assert classical_multiplier(0.5, 2) == pytest.approx(1.75, abs=1e-12)

    def test_asymptote_r5_percent(self):
        assert classical_multiplier(0.05, 100_000) == pytest.approx(20.0, abs=1e-9)

    def test_matches_term_by_term_oracle(self):
        rng = random.Random(1001)
        for _ in range(200):
            r = rng.uniform(0.02, 1.0)
            n = rng.randrange(0, 400)
            assert relerr(classical_multiplier(r, n), classical_hand_sum(r, n)) < REL

    def test_never_exceeds_asymptote_and_gap_decays_geometrically(self):
        r = 0.08
        prev_gap = None
        for n in range(0, 60):
            value = classical_multiplier(r, n)
            assert value <= 1.0 / r + 1e-12
            gap = 1.0 / r - value
            if prev_gap is not None and prev_gap > 1e-15:
                assert gap / prev_gap == pytest.approx(1.0 - r, rel=1e-6)
            prev_gap = gap

    def test_domain_validation(self):
        with pytest.raises(InvalidParameterError):
            classical_multiplier(0.0, 10)
        with pytest.raises(InvalidParameterError):
            classical_multiplier(1.1, 10)
        with pytest.raises(InvalidParameterError):
            classical_multiplier(0.05, -1)


class TestKrakenMultiplier:
    def test_uninsured_collapses_to_classical_any_depth(self):
        for depth in (1, 2, 3, 7, 20):
            p = KrakenParams(0.05, 30, depth, insurance_price=0.0,
                             origination=1.0, tranche_insured=0.0)
            assert kraken_multiplier(p) == classical_multiplier(0.05, 30)

    def test_fees_offsetting_insurance_collapse_too(self):
        p = KrakenParams(0.1, 12, 5, insurance_price=0.04, origination=1.04,
                         tranche_insured=0.0)
        assert kraken_multiplier(p) == classical_multiplier(0.1, 12)

    def test_full_reserve_keeps_only_first_terms(self):
        # R = 1 kills every power of (1-R); level one keeps 1 plus the
        # coupling into the innermost bare term.
        p = KrakenParams(1.0, 3, 2, insurance_price=0.005, origination=1.02,
                         tranche_insured=1.0)
        assert kraken_multiplier(p) == pytest.approx(2.015, abs=1e-12)

    def test_matches_brute_force_oracle_randomized(self):
        rng = random.Random(42)
        for _ in range(100):
            depth = rng.randrange(1, 4)
            n = rng.randrange(0, {1: 300, 2: 200, 3: 60}[depth])
            p = KrakenParams(
                reserve_fraction=rng.uniform(0.02, 0.9),
                iteration_limit=n,
                depth=depth,
                insurance_price=rng.uniform(0.0, 0.08),
                origination=1.0 + rng.uniform(0.0, 0.08),
                tranche_insured=rng.uniform(0.0, 1.0),
            )
            fast = kraken_multiplier(p)
            slow = kraken_brute_force(p.reserve_fraction, p.iteration_limit, p.depth,
                                      p.insurance_price, p.origination, p.tranche_insured)
            assert relerr(fast, slow) < REL

    def test_monotonicity_by_parameter_perturbation(self):
        rng = random.Random(7)
        base = dict(reserve_fraction=0.06, iteration_limit=40, depth=4,
                    insurance_price=0.02, origination=1.05, tranche_insured=0.8)
        for _ in range(300):
            params = dict(base)
            params["reserve_fraction"] = rng.uniform(0.03, 0.5)
            params["iteration_limit"] = rng.randrange(1, 80)
            params["depth"] = rng.randrange(1, 8)
            params["insurance_price"] = rng.uniform(0.0, 0.9)
            params["origination"] = 1.0 + rng.uniform(0.0, 0.1)
            params["tranche_insured"] = rng.uniform(0.0, 1.0)
            if params["insurance_price"] >= params["origination"]:
                continue
            value = kraken_multiplier(KrakenParams(**params))

            up = dict(params); up["depth"] += 1
            assert kraken_multiplier(KrakenParams(**up)) >= value - 1e-12
            up = dict(params); up["iteration_limit"] += 1
            assert kraken_multiplier(KrakenParams(**up)) >= value - abs(value) * 1e-12
            up = dict(params); up["tranche_insured"] = min(1.0, params["tranche_insured"] + 0.05)
            assert kraken_multiplier(KrakenParams(**up)) >= value - 1e-12
            up = dict(params); up["origination"] += 0.05
            assert kraken_multiplier(KrakenParams(**up)) >= value - 1e-12
            down = dict(params)
            down["insurance_price"] = min(params["insurance_price"] + 0.02,
                                          params["origination"] - 1e-9)
            assert kraken_multiplier(KrakenParams(**down)) <= value + 1e-12
            up = dict(params); up["reserve_fraction"] = min(1.0, params["reserve_fraction"] + 0.05)
            assert kraken_multiplier(KrakenParams(**up)) <= value + 1e-12

    def test_result_at_least_classical_when_coupling_nonnegative(self):
        rng = random.Random(9)
        for _ in range(200):
            r = rng.uniform(0.02, 1.0)
            n = rng.randrange(0, 100)
            p = KrakenParams(r, n, rng.randrange(1, 6),
                             insurance_price=rng.uniform(0.0, 0.05),
                             origination=1.0 + rng.uniform(0.0, 0.05),
                             tranche_insured=rng.uniform(0.0, 1.0))
            assert kraken_multiplier(p) >= classical_multiplier(r, n) - 1e-12

    def test_budget_guard(self):
        p = KrakenParams(0.05, 10_000, 200, insurance_price=0.01,
                         origination=1.02, tranche_insured=1.0)
        with pytest.raises(EvaluationBudgetError):
            kraken_multiplier(p)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            kraken_multiplier(KrakenParams(0.05, 10, 0))
        with pytest.raises(InvalidParameterError):
            kraken_multiplier(KrakenParams(0.05, 10, 2, insurance_price=1.2,
                                           origination=1.1))
        with pytest.raises(InvalidParameterError):
            kraken_multiplier(KrakenParams(0.05, 10, 2, origination=0.9))
        with pytest.raises(InvalidParameterError):
            kraken_multiplier(KrakenParams(0.05, 10, 2, tranche_insured=1.5))

    @pytest.mark.parametrize("field", ["reserve_fraction", "insurance_price",
                                       "origination", "tranche_insured"])
    @pytest.mark.parametrize("value", ["0.05", True, Decimal("0.05"), None,
                                       float("inf"), float("-inf"), float("nan")])
    def test_float_field_is_a_finite_number(self, field, value):
        params = dict(reserve_fraction=0.05, iteration_limit=10, depth=2,
                      origination=1.01, tranche_insured=0.5) | {field: value}
        with pytest.raises(InvalidParameterError, match=f"^{field} must be"):
            kraken_multiplier(KrakenParams(**params))
        if field == "reserve_fraction":
            with pytest.raises(InvalidParameterError, match=f"^{field} must be"):
                classical_multiplier(value, 10)

    @pytest.mark.parametrize("field", ["iteration_limit", "depth"])
    @pytest.mark.parametrize("value", [True, 2.0, "2"])
    def test_count_field_is_an_int(self, field, value):
        params = dict(reserve_fraction=0.05, iteration_limit=10, depth=2) | {field: value}
        with pytest.raises(InvalidParameterError, match=f"^{field} must be an int"):
            kraken_multiplier(KrakenParams(**params))


class TestCapitalLimits:
    def test_headline_limits_at_unit_capital(self):
        limits = capital_limits(1, "0.05")
        assert limits.tier1_limit == Decimal("1.176470588")
        assert limits.reserves_limit == Decimal("2.352941176")
        # 47.0588..., the headline ceiling
        assert abs(limits.max_loan_limit - Decimal("47")) < Decimal("0.06")
        assert limits.max_loan_limit == Decimal("47.058823520")

    def test_derived_example_c10_r10(self):
        limits = capital_limits(10, "0.10")
        assert limits.tier1_limit == Decimal("11.764705882")
        assert limits.reserves_limit == Decimal("23.529411764")
        assert limits.max_loan_limit == Decimal("235.294117640")

    def test_exact_decimal_identities(self):
        # Exactness across reserve fractions whose reciprocal terminates.
        for c in ("1", "3", "10", "250.5"):
            for r in ("0.5", "0.25", "0.2", "0.1", "0.08", "0.05", "0.04",
                      "0.025", "0.02", "0.01"):
                limits = capital_limits(c, r)
                assert limits.reserves_limit == 2 * limits.tier1_limit
                assert isinstance(limits, CapitalLimits)
                assert (limits.max_loan_limit * Decimal(r)).quantize(
                    Decimal("0.000000001")) == limits.reserves_limit

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            capital_limits(0, "0.05")
        with pytest.raises(InvalidParameterError):
            capital_limits(1, "0")
        with pytest.raises(InvalidParameterError):
            capital_limits(1, "1.5")


class TestMocSchedule:
    def test_headline_cycle(self):
        sched = moc_schedule()
        caps = dict(sched.cumulative)
        assert abs(caps[0] - Decimal("47.058823520")) < Decimal("0.000001")
        assert abs(caps[5] - Decimal("82.352941160")) < Decimal("0.000001")
        assert abs(caps[11] - Decimal("132.352941150")) < Decimal("0.01")
        # coarse anchors, +-1.5 band
        assert abs(caps[0] - 47) < Decimal("1.5")
        assert abs(caps[5] - 82) < Decimal("1.5")
        assert abs(caps[11] - 133) < Decimal("1.5")

    def test_year5_increment_at_half_failures(self):
        sched = moc_schedule(failure_fraction="0.5")
        caps = dict(sched.cumulative)
        increment = caps[5] - caps[0]
        assert abs(increment - Decimal("23.529411760")) < Decimal("0.000001")

    def test_no_failures_flat_through_exit_year(self):
        sched = moc_schedule(failure_fraction="0", horizon=10)
        assert len(sched.cumulative) == 1
        for year in range(0, 11):
            assert sched.capacity_at(year) == sched.capacity_at(0)

    def test_ledger_replay_oracle(self):
        # Independent replay: running capacity stepped event by event.
        ff = Decimal("0.75")
        unit = Decimal("2") / Decimal("0.85") / Decimal("0.05")
        cohort1 = unit
        freed5 = cohort1 * ff
        survivors = cohort1 * (1 - ff)
        replay = {0: cohort1, 5: cohort1 + freed5,
                  11: cohort1 + freed5 + 2 * survivors + freed5 * ff}
        sched = moc_schedule()
        for year, cap in sched.cumulative:
            assert abs(cap - replay[year]) < Decimal("0.000001")

    def test_nondecreasing_and_capacity_queries(self):
        for ff in ("0", "0.3", "0.75", "1"):
            sched = moc_schedule(failure_fraction=ff, horizon=15)
            values = [cap for _, cap in sched.cumulative]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert sched.capacity_at(0) == values[0]
            assert sched.capacity_at(15) == values[-1]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            moc_schedule(failure_year=10, exit_year=5)
        with pytest.raises(InvalidParameterError):
            moc_schedule(failure_fraction="1.5")


class TestDinCapitalFraction:
    def test_against_two_period_totals(self):
        # round 82x base
        frac82 = din_capital_fraction(1, "0.05", 82)
        assert abs(frac82 - Decimal("0.0287")) < Decimal("0.001")
        # derived two-period total from the schedule itself
        sched = moc_schedule()
        total = sched.capacity_at(5)
        frac = din_capital_fraction(1, "0.05", total)
        assert Decimal("0.0278") <= frac <= Decimal("0.0298")
        assert Decimal("0.0278") <= frac82 <= Decimal("0.0298")

    def test_per_unit_loan_total_returns_reserve_fraction(self):
        limits = capital_limits(1, "0.05")
        frac = din_capital_fraction(1, "0.05", limits.max_loan_limit)
        assert frac == Decimal("0.050000000")

    def test_denominator_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            din_capital_fraction(1, "0.05", 0)
