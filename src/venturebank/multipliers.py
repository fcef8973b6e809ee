"""Money-creation multipliers and regulatory capital limits.

Three families of results live here:

* classical_multiplier / kraken_multiplier: how much loan money a banking
  system can create from one unit of reserves. The classical multiplier is
  the finite geometric sum over re-deposit rounds. The kraken multiplier
  nests that sum k levels deep: every level couples into the next through
  the net fee margin (origination minus insurance price) times the insured
  tranche fraction, so insured lending capacity compounds instead of
  converging.
* capital_limits: the headline limits a venture bank must respect. Tier 1
  capital may be at most 85 percent of capital reserves, reserves at most
  twice that, and loans at most reserves over the reserve fraction.
* moc_schedule / din_capital_fraction: maximum outstanding capacity over a
  two-cohort portfolio cycle (failures free capacity early, exits recycle
  it late) and the fraction of insured loan value that must be carried as
  capital against that cycle.

Multiplier evaluation is plain float arithmetic (the results are ratios).
Everything denominated in currency is Decimal, scale 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

from .errors import EvaluationBudgetError, InvalidParameterError
from .money import fraction, money, ZERO

# Guard for k*n on the nested evaluator. Generous: the evaluator is O(k)
# after the geometric sum, the guard exists to bound deliberate abuse.
DEFAULT_EVAL_BUDGET = 1_000_000


@dataclass(frozen=True)
class KrakenParams:
    """Inputs of the nested multiplier.

    reserve_fraction: R, fraction of each deposit held back, 0 < R <= 1.
    iteration_limit: n, number of re-deposit rounds per level, >= 0.
    depth: k, nesting depth, >= 1. Depth 1 reduces to the classical sum.
    insurance_price: I, per-unit insurance cost, 0 <= I < origination.
    origination: O, 1 plus the origination fee, >= 1.
    tranche_insured: T, insured fraction of each loan, 0 <= T <= 1.
    """

    reserve_fraction: float
    iteration_limit: int
    depth: int
    insurance_price: float = 0.0
    origination: float = 1.0
    tranche_insured: float = 0.0

    def validate(self) -> None:
        _validate_rn(self.reserve_fraction, self.iteration_limit)
        if _not_int(self.depth) or self.depth < 1:
            raise InvalidParameterError(f"depth must be an int >= 1, got {self.depth!r}")
        for name in ("insurance_price", "origination", "tranche_insured"):
            _check_finite_number(getattr(self, name), name)
        if self.origination < 1.0:
            raise InvalidParameterError(f"origination must be >= 1, got {self.origination}")
        if not 0.0 <= self.insurance_price < self.origination:
            raise InvalidParameterError(
                f"insurance_price must satisfy 0 <= I < origination, got {self.insurance_price}")
        if not 0.0 <= self.tranche_insured <= 1.0:
            raise InvalidParameterError(
                f"tranche_insured must be in [0, 1], got {self.tranche_insured}")


@dataclass(frozen=True)
class CapitalLimits:
    """Capital structure limits for initial capital C, all Decimal.

    tier1_limit = C / 0.85
    reserves_limit = 2 * tier1_limit        (tier 2 may equal tier 1)
    max_loan_limit = reserves_limit / R
    """

    tier1_limit: Decimal
    reserves_limit: Decimal
    max_loan_limit: Decimal


def classical_multiplier(reserve_fraction: float, iteration_limit: int) -> float:
    """Finite re-deposit sum: sum of (1-R)^i for i in 0..n.

    Equals (1 - (1-R)^(n+1)) / R, monotone in n with limit 1/R.
    """
    _validate_rn(reserve_fraction, iteration_limit)
    retained = 1.0 - reserve_fraction
    # Closed form is exact enough and avoids an O(n) loop for large n.
    return (1.0 - retained ** (iteration_limit + 1)) / reserve_fraction


def kraken_multiplier(params: KrakenParams) -> float:
    """Evaluate the nested multiplier by recursive descent.

    The innermost level is the plain geometric partial sum G. Each level
    above it contributes (1-R)^i plus (1-R)^i * (O - I) * T times the sum
    one level in, for i in 0..n. Factoring (1-R)^i out of each level gives
    the descent

        s_k = G
        s_j = G + G * c * s_{j+1},   c = (O - I) * T

    evaluated from the innermost level outward. With c = 0 (uninsured, or
    fees exactly offset by insurance) every level collapses to G and the
    result is the classical multiplier exactly, at any depth.
    """
    params.validate()
    if params.depth * max(params.iteration_limit, 1) > DEFAULT_EVAL_BUDGET:
        raise EvaluationBudgetError(
            f"depth * iteration_limit = {params.depth * params.iteration_limit} "
            f"exceeds evaluation budget {DEFAULT_EVAL_BUDGET}")
    geometric = classical_multiplier(params.reserve_fraction, params.iteration_limit)
    coupling = (params.origination - params.insurance_price) * params.tranche_insured
    if coupling == 0.0:
        return geometric
    total = geometric
    for _ in range(params.depth - 1):
        total = geometric + geometric * coupling * total
    return total


def capital_limits(initial_capital, reserve_fraction) -> CapitalLimits:
    """Limits for one unit of paid-in capital C and reserve fraction R.

    Tier 1 must be at least 85 percent of capital reserves, so the tier 1
    ceiling is C / 0.85 and reserves top out at twice that (tier 2 bounded
    by tier 1). The loan ceiling is reserves over R. reserves_limit is
    defined as exactly twice tier1_limit at the working scale so the
    doubling identity survives quantization.
    """
    capital = money(initial_capital)
    rf = fraction(reserve_fraction, "reserve_fraction", open_low=True)
    if capital <= ZERO:
        raise InvalidParameterError(f"initial_capital must be > 0, got {capital}")
    tier1 = money(capital / Decimal("0.85"))
    reserves = money(tier1 * 2)
    max_loans = money(reserves / rf)
    return CapitalLimits(tier1_limit=tier1, reserves_limit=reserves, max_loan_limit=max_loans)


@dataclass(frozen=True)
class MocSchedule:
    """Cumulative lending capacity per year over one two-cohort cycle.

    cumulative: tuple of (year, capacity) pairs, capacity in units of
    initial capital, nondecreasing in year. Year 0 holds the plain loan
    limit. At failure_year the written-off share of the first cohort frees
    capacity that is re-lent the same year (the second cohort). The first
    cohort's survivors exit at exit_year; their repaid principal plus the
    matching redeployment of exit proceeds, together with the second
    cohort's own failure share, become available the following year.
    """

    initial_capital: Decimal
    reserve_fraction: Decimal
    failure_fraction: Decimal
    failure_year: int
    exit_year: int
    horizon: int
    cumulative: tuple[tuple[int, Decimal], ...]

    def capacity_at(self, year: int) -> Decimal:
        for y, cap in reversed(self.cumulative):
            if y <= year:
                return cap
        raise InvalidParameterError(f"year {year} precedes the schedule start")


def moc_schedule(initial_capital="1", reserve_fraction="0.05", failure_fraction="0.75",
                 failure_year: int = 5, exit_year: int = 10, horizon: int = 11) -> MocSchedule:
    """Build the maximum-outstanding-capacity schedule.

    Defaults describe the headline cycle: 75 percent of the first cohort
    written off at year 5 (capacity re-lent immediately), survivors exiting
    at year 10 with their freed principal and its redeployment landing at
    year 11 alongside the second cohort's failure share.
    """
    capital = money(initial_capital)
    rf = fraction(reserve_fraction, "reserve_fraction", open_low=True)
    ff = fraction(failure_fraction, "failure_fraction")
    if not 0 < failure_year < exit_year:
        raise InvalidParameterError(
            f"need 0 < failure_year < exit_year, got {failure_year}, {exit_year}")
    if horizon < 0:
        raise InvalidParameterError(f"horizon must be >= 0, got {horizon}")

    limits = capital_limits(capital, rf)
    unit = money(limits.max_loan_limit / capital)  # capacity per unit capital

    cohort1 = unit
    points: list[tuple[int, Decimal]] = [(0, cohort1)]
    running = cohort1

    if failure_year <= horizon:
        freed_at_failure = money(cohort1 * ff)
        cohort2 = freed_at_failure  # re-lent in full the year it frees
        running = money(running + freed_at_failure)
        if freed_at_failure > ZERO:
            points.append((failure_year, running))
    else:
        cohort2 = ZERO

    if exit_year + 1 <= horizon:
        survivors = money(cohort1 * (Decimal(1) - ff))
        # Exits repay principal (freeing headroom) and return proceeds that
        # are redeployed as fresh loans of the same size; the second
        # cohort's failure share frees in the same settlement window.
        exit_freed = money(survivors * 2)
        cohort2_failures = money(cohort2 * ff)
        increment = money(exit_freed + cohort2_failures)
        if increment > ZERO:
            running = money(running + increment)
            points.append((exit_year + 1, running))

    return MocSchedule(
        initial_capital=capital,
        reserve_fraction=rf,
        failure_fraction=ff,
        failure_year=failure_year,
        exit_year=exit_year,
        horizon=horizon,
        cumulative=tuple(points),
    )


def din_capital_fraction(initial_capital, reserve_fraction, total_insured_loans) -> Decimal:
    """Capital reserves required per unit of insured loans outstanding.

    reserves_limit(C, R) divided by the insured loan total the caller
    chooses to measure against. The denominator is an argument on purpose:
    the reference two-period cycle gives roughly 82x capital, and the
    fraction is only meaningful against a stated loan base.
    """
    total = money(total_insured_loans)
    if total <= ZERO:
        raise InvalidParameterError(f"total_insured_loans must be > 0, got {total}")
    limits = capital_limits(initial_capital, reserve_fraction)
    return money(limits.reserves_limit / total)


def _not_int(value) -> bool:
    return isinstance(value, bool) or not isinstance(value, int)


def _check_finite_number(value, name: str) -> None:
    """Refuse anything but a finite int or float, naming the field.  The
    evaluators compute in binary floats, where an infinite origination
    passes its range check and every multiplier above depth 1 is inf."""
    if _not_int(value) and not (isinstance(value, float) and math.isfinite(value)):
        raise InvalidParameterError(f"{name} must be a finite number, got {value!r}")


def _validate_rn(reserve_fraction: float, iteration_limit: int) -> None:
    _check_finite_number(reserve_fraction, "reserve_fraction")
    if not 0.0 < reserve_fraction <= 1.0:
        raise InvalidParameterError(
            f"reserve_fraction must be in (0, 1], got {reserve_fraction}")
    if _not_int(iteration_limit) or iteration_limit < 0:
        raise InvalidParameterError(
            f"iteration_limit must be an int >= 0, got {iteration_limit!r}")
