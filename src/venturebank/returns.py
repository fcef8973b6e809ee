"""Venture fund return distributions.

The reference shape is a right-skewed set of ten-year fund multiples:
roughly three quarters of funds finish below 1.0 and a short upper tail
clears 3.0. synthesize_distribution builds such a set deterministically
from a seed; rescale_to_target shifts it to any portfolio mean without
reordering the funds.  A spread is columns: fund ids, multiples, outcomes.

Multiples are Decimal at scale 9 so downstream cash flows stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from decimal import Decimal
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleTargetError, InvalidParameterError
from .money import (DECIMAL_CONTEXT, MONEY_LIMIT, ONE, ZERO, in_money_context, money,
                    money_products)

FAILURE = "failure"
SURVIVOR = "survivor"
# A fund finishing below this multiple is a failure.
FAILURE_THRESHOLD = money(ONE)
# Beyond this a portfolio is refused before anything is allocated for it.
MAX_FUNDS = 100_000


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
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise InvalidParameterError(
                    f"{f.name} must be a finite number, got {value!r}")
        if not 0.0 < self.loser_fraction < 1.0:
            raise InvalidParameterError(
                f"loser_fraction must be in (0, 1), got {self.loser_fraction}")
        if not 0.0 <= self.loser_floor < self.loser_ceiling < 1.0:
            raise InvalidParameterError(
                "need 0 <= loser_floor < loser_ceiling < 1, got "
                f"{self.loser_floor}, {self.loser_ceiling}")
        # Survivor multiples reach up to survivor_max, and each is money.
        if not 1.0 < self.survivor_max < MONEY_LIMIT:
            raise InvalidParameterError(
                "survivor_max must exceed 1 and stay below 1E+19, the money "
                f"scale, got {self.survivor_max}")
        if self.survivor_shape <= 0.0:
            raise InvalidParameterError(
                f"survivor_shape must be > 0, got {self.survivor_shape}")


class ReturnDistribution(NamedTuple):
    """A seeded spread as columns in descending-multiple order: fund
    fund_ids[i] finished at multiples[i], and outcomes[i] is FAILURE below
    failure_threshold, else SURVIVOR.  perfbench's rescale tracer keys a
    spread on seed, len(outcomes) (the fund count), spread and
    failure_threshold, so those four stay readable."""

    seed: int
    fund_ids: tuple[str, ...]
    multiples: tuple[Decimal, ...]
    outcomes: tuple[str, ...]
    failure_threshold: Decimal
    spread: SpreadParams


def check_draw(seed, n_funds) -> None:
    """Refuse, as InvalidParameterError, a fund count or a seed that is no
    int (a bool included), a count outside [2, MAX_FUNDS] and a negative
    seed: before anything is drawn or allocated."""
    for name, value in (("n_funds", n_funds), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if not 2 <= n_funds <= MAX_FUNDS:
        raise InvalidParameterError(
            f"n_funds must be >= 2 and <= {MAX_FUNDS}, got {n_funds}")
    if seed < 0:
        raise InvalidParameterError("seed must be >= 0")


def synthesize_distribution(seed: int, n_funds: int = 50,
                            spread: SpreadParams | None = None) -> ReturnDistribution:
    """Build the reference-shaped distribution deterministically from a seed.

    Losers fill stratified slots across [loser_floor, loser_ceiling] and
    survivors climb a jittered power curve from 1.0 to survivor_max, so
    the shape is stable across seeds while individual funds move a little.
    """
    check_draw(seed, n_funds)
    spread = spread or SpreadParams()
    spread.validate()

    rng = np.random.default_rng(seed)
    n_losers = int(round(n_funds * spread.loser_fraction))
    n_losers = min(max(n_losers, 1), n_funds - 1)
    n_survivors = n_funds - n_losers

    # One draw: NumPy fills an array from the same stream as repeated
    # scalar draws, so the losers take the front and the survivors the back.
    jitter = rng.uniform(0.2, 0.8, n_funds).tolist()
    width = spread.loser_ceiling - spread.loser_floor
    values = [spread.loser_floor + width * ((i + u) / n_losers)
              for i, u in enumerate(jitter[:n_losers])]
    rise, shape = spread.survivor_max - 1.0, spread.survivor_shape
    values += [1.0 + rise * ((i + u) / n_survivors) ** shape
               for i, u in enumerate(jitter[n_losers:])]

    values.sort(reverse=True)
    # Each float read as it prints, as money.finite reads it, and the
    # column rounded at once: times ONE, each is its money().
    multiples = tuple(money_products(list(map(Decimal, map(str, values))), repeat(ONE)))
    return ReturnDistribution(
        seed=seed,
        fund_ids=tuple([f"f{i:03d}" for i in range(n_funds)]),
        multiples=multiples,
        outcomes=_classified(multiples, FAILURE_THRESHOLD),
        failure_threshold=FAILURE_THRESHOLD,
        spread=spread,
    )


@in_money_context
def rescale_to_target(dist: ReturnDistribution, target_mean) -> ReturnDistribution:
    """Shift every multiple by one constant so the mean hits target_mean.

    Entries pushed below zero clamp at zero and the constant is re-solved
    over the unclamped remainder, so rank order and pairwise spreads of
    unclamped entries are untouched. The shift amount is quantized to the
    working scale, keeping every shifted multiple exact at scale 9.  The
    rescaled spread shares dist's fund_ids.
    """
    target = money(target_mean)
    if target < ZERO:
        raise InfeasibleTargetError(
            f"target_mean must be >= 0 with nonnegative multiples, got {target}")

    if target == ZERO:
        shifted = (ZERO,) * len(dist.multiples)
    else:
        shift = _solve_shift(sorted(dist.multiples), target)
        if shift is None:
            raise InfeasibleTargetError(f"no shift reaches mean {target}")
        shifted = tuple(map(max, map(DECIMAL_CONTEXT.add, dist.multiples, repeat(shift)),
                            repeat(ZERO)))
    return dist._replace(multiples=shifted,
                         outcomes=_classified(shifted, dist.failure_threshold))


def _classified(multiples, threshold: Decimal) -> tuple[str, ...]:
    """FAILURE for each multiple below threshold, else SURVIVOR."""
    return tuple([FAILURE if m < threshold else SURVIVOR for m in multiples])


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
