"""Venture fund return distributions.

The reference shape is a right-skewed set of ten-year fund multiples:
roughly three quarters of funds finish below 1.0 and a short upper tail
clears 3.0. synthesize_distribution builds such a set deterministically
from a seed; rescale_to_target shifts it to any portfolio mean without
reordering the funds.

Multiples are Decimal at scale 9 so downstream cash flows stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal

import numpy as np

from .errors import InfeasibleTargetError, InvalidParameterError
from .money import money, ZERO

FAILURE = "failure"
SURVIVOR = "survivor"


@dataclass(frozen=True)
class SpreadParams:
    """Shape knobs for the synthesized distribution.

    loser_fraction of funds land uniformly (stratified, jittered) between
    loser_floor and loser_ceiling; the rest rise from 1.0 to survivor_max
    along a power curve with exponent survivor_shape (larger = thinner
    tail). Defaults give a mean near 1.0 with 70 percent of funds below
    1.0 and a top fund above 4.
    """

    loser_fraction: float = 0.70
    loser_floor: float = 0.16
    loser_ceiling: float = 0.985
    survivor_max: float = 4.2
    survivor_shape: float = 2.0

    def validate(self) -> None:
        if not 0.0 < self.loser_fraction < 1.0:
            raise InvalidParameterError(
                f"loser_fraction must be in (0, 1), got {self.loser_fraction}")
        if not 0.0 <= self.loser_floor < self.loser_ceiling < 1.0:
            raise InvalidParameterError(
                "need 0 <= loser_floor < loser_ceiling < 1, got "
                f"{self.loser_floor}, {self.loser_ceiling}")
        if self.survivor_max <= 1.0:
            raise InvalidParameterError(
                f"survivor_max must exceed 1, got {self.survivor_max}")
        if self.survivor_shape <= 0.0:
            raise InvalidParameterError(
                f"survivor_shape must be > 0, got {self.survivor_shape}")


@dataclass(frozen=True)
class FundOutcome:
    fund_id: str
    ten_year_multiple: Decimal
    classification: str  # FAILURE or SURVIVOR


@dataclass(frozen=True)
class ReturnDistribution:
    """A seeded, ordered set of fund outcomes.

    outcomes are sorted by descending multiple. target_mean is the labeled
    portfolio mean; it always matches the realized mean to well under 1e-6.
    """

    seed: int
    outcomes: tuple[FundOutcome, ...]
    target_mean: Decimal
    failure_threshold: Decimal
    spread: SpreadParams

    def multiples(self) -> list[Decimal]:
        return [o.ten_year_multiple for o in self.outcomes]

    def mean(self) -> Decimal:
        total = sum(self.multiples(), start=ZERO)
        return total / len(self.outcomes)

    def failure_count(self) -> int:
        return sum(1 for o in self.outcomes if o.classification == FAILURE)

    def to_csv(self) -> str:
        lines = ["fund_id,ten_year_multiple,classification"]
        for o in self.outcomes:
            lines.append(f"{o.fund_id},{o.ten_year_multiple},{o.classification}")
        return "\n".join(lines) + "\n"


def synthesize_distribution(seed: int, n_funds: int = 50,
                            spread: SpreadParams | None = None,
                            failure_threshold="1.0") -> ReturnDistribution:
    """Build the reference-shaped distribution deterministically from a seed.

    Losers fill stratified slots across [loser_floor, loser_ceiling] and
    survivors climb a jittered power curve from 1.0 to survivor_max, so
    the shape is stable across seeds while individual funds move a little.
    """
    if n_funds < 2:
        raise InvalidParameterError(f"n_funds must be >= 2, got {n_funds}")
    spread = spread or SpreadParams()
    spread.validate()
    threshold = money(failure_threshold)

    rng = np.random.default_rng(seed)
    n_losers = int(round(n_funds * spread.loser_fraction))
    n_losers = min(max(n_losers, 1), n_funds - 1)
    n_survivors = n_funds - n_losers

    values: list[float] = []
    width = spread.loser_ceiling - spread.loser_floor
    for i in range(n_losers):
        slot = (i + rng.uniform(0.2, 0.8)) / n_losers
        values.append(spread.loser_floor + width * slot)
    for i in range(n_survivors):
        q = (i + rng.uniform(0.2, 0.8)) / n_survivors
        values.append(1.0 + (spread.survivor_max - 1.0) * q ** spread.survivor_shape)

    values.sort(reverse=True)
    outcomes = tuple(
        _classified(f"f{i:03d}", money(v), threshold) for i, v in enumerate(values)
    )
    dist = ReturnDistribution(
        seed=seed,
        outcomes=outcomes,
        target_mean=ZERO,  # replaced just below with the realized mean
        failure_threshold=threshold,
        spread=spread,
    )
    return replace(dist, target_mean=money(dist.mean()))


def rescale_to_target(dist: ReturnDistribution, target_mean) -> ReturnDistribution:
    """Shift every multiple by one constant so the mean hits target_mean.

    Entries pushed below zero clamp at zero and the constant is re-solved
    over the unclamped remainder, so rank order and pairwise spreads of
    unclamped entries are untouched. The shift amount is quantized to the
    working scale, keeping every shifted multiple exact at scale 9.
    """
    target = money(target_mean)
    if target < ZERO:
        raise InfeasibleTargetError(
            f"target_mean must be >= 0 with nonnegative multiples, got {target}")

    n = len(dist.outcomes)
    ascending = sorted(dist.multiples())
    if target == ZERO:
        shifted = [ZERO] * n
    else:
        shift = _solve_shift(ascending, target)
        shifted = None
        if shift is not None:
            shifted = [max(m + shift, ZERO) for m in dist.multiples()]
        if shifted is None:
            raise InfeasibleTargetError(f"no shift reaches mean {target}")

    new_outcomes = tuple(
        _classified(o.fund_id, value, dist.failure_threshold)
        for o, value in zip(dist.outcomes, shifted)
    )
    return replace(dist, outcomes=new_outcomes, target_mean=target)


def _classified(fund_id: str, multiple: Decimal, threshold: Decimal) -> FundOutcome:
    kind = FAILURE if multiple < threshold else SURVIVOR
    return FundOutcome(fund_id=fund_id, ten_year_multiple=multiple, classification=kind)


def _solve_shift(ascending: list[Decimal], target: Decimal) -> Decimal | None:
    """Find the constant c with mean(max(v + c, 0)) = target.

    Scans the clamp count k from 0 upward; for each k the candidate shift
    is exact Decimal algebra over the unclamped tail, then verified against
    the clamp boundaries before being quantized to scale 9.
    """
    n = len(ascending)
    total = sum(ascending, start=ZERO)
    tail_sum = total
    for k in range(n):
        candidate = (Decimal(n) * target - tail_sum) / Decimal(n - k)
        lower_ok = k == 0 or ascending[k - 1] + candidate <= ZERO
        upper_ok = ascending[k] + candidate > ZERO
        if lower_ok and upper_ok:
            return money(candidate)
        tail_sum -= ascending[k]
    return None
