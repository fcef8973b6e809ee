"""Independent oracles used by the test suite.

Each oracle re-derives a result by the most literal method available, with
no imports from the code paths it checks. Deliberately slow and dumb.
"""

from __future__ import annotations

import csv
import io
from decimal import ROUND_HALF_EVEN, Decimal

import numpy as np

ORACLE_TERM_BUDGET = 400_000  # max (n+1)^depth the brute-force evaluator will touch


def kraken_brute_force(reserve_fraction: float, iteration_limit: int, depth: int,
                       insurance_price: float, origination: float,
                       tranche_insured: float) -> float:
    """Literal nested-loop evaluation of the layered re-deposit sum.

    Level j (1-based) contributes, for each i in 0..n, the term (1-R)^i
    plus (1-R)^i * (O-I) * T times the full evaluation of level j+1; the
    deepest level contributes the bare (1-R)^i terms. The inner evaluation
    is recomputed inside every loop iteration on purpose: no factoring, no
    memoization, so this shares nothing with the fast path.
    """
    if (iteration_limit + 1) ** depth > ORACLE_TERM_BUDGET:
        raise ValueError("oracle term budget exceeded; shrink n or depth")
    retained = 1.0 - reserve_fraction
    coupling = (origination - insurance_price) * tranche_insured

    def level(j: int) -> float:
        total = 0.0
        for i in range(iteration_limit + 1):
            term = retained ** i
            if j < depth:
                term += (retained ** i) * coupling * level(j + 1)
            total += term
        return total

    return level(1)


def classical_hand_sum(reserve_fraction: float, iteration_limit: int) -> float:
    """Term-by-term geometric sum, no closed form."""
    total = 0.0
    for i in range(iteration_limit + 1):
        total += (1.0 - reserve_fraction) ** i
    return total


def compound_interest(principal: Decimal, rate: Decimal, periods: int) -> Decimal:
    """Multiply-in-a-loop compound growth."""
    value = principal
    for _ in range(periods):
        value = value * (Decimal(1) + rate)
    return value


def streaming_mean(values) -> float:
    """Welford-style running mean."""
    mean = 0.0
    count = 0
    for v in values:
        count += 1
        mean += (float(v) - mean) / count
    return mean


def rank_sequence(values) -> list[int]:
    """Ranks by value, ties broken by position. Used for rank-order checks."""
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    ranks = [0] * len(values)
    for rank, idx in enumerate(order):
        ranks[idx] = rank
    return ranks


def rank_correlation(a, b) -> float:
    """Spearman rho via hand-computed Pearson on ranks."""
    ra, rb = rank_sequence(a), rank_sequence(b)
    n = len(ra)
    if n == 0:
        raise ValueError("empty sequences")
    ma = sum(ra) / n
    mb = sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    if va == 0 or vb == 0:
        raise ValueError("degenerate rank variance")
    return cov / (va * vb) ** 0.5


def sign_scan_local_minimum(values) -> bool:
    """True when finite differences go negative then positive: an interior
    local minimum exists in the sampled curve."""
    diffs = [b - a for a, b in zip(values, values[1:])]
    seen_down = False
    for d in diffs:
        if d < 0:
            seen_down = True
        elif d > 0 and seen_down:
            return True
    return False


def is_nondecreasing(values, tolerance=0) -> bool:
    return all(b - a >= -tolerance for a, b in zip(values, values[1:]))


def count_events(events, kind: str) -> int:
    """Event-count oracle over any iterable with a .kind attribute."""
    return sum(1 for e in events if e.kind == kind)


def event_log_csv(events) -> str:
    """events.csv written one csv.writer row per event: the amount as its
    str, and a detail record as its name=value pairs in field order,
    joined by "|"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seq", "year", "kind", "fund_id", "amount", "detail"])
    for e in events:
        detail = ""
        if e.detail is not None:
            detail = "|".join(f"{name}={getattr(e.detail, name)}"
                              for name in e.detail._fields)
        writer.writerow([e.seq, e.year, e.kind, e.fund_id, str(e.amount), detail])
    return buf.getvalue()


def per_fund_synthesis(seed: int, n_funds: int, spread) -> list[tuple[str, Decimal, str]]:
    """(fund_id, multiple, classification) of every fund, sorted by
    descending multiple: one scalar rng.uniform(0.2, 0.8) per fund, losers
    first, then each value read through str() and rounded half-even to 9
    places, as money() does."""
    rng = np.random.default_rng(seed)
    n_losers = min(max(int(round(n_funds * spread.loser_fraction)), 1), n_funds - 1)
    n_survivors = n_funds - n_losers
    values = []
    for i in range(n_losers):
        slot = (i + rng.uniform(0.2, 0.8)) / n_losers
        values.append(spread.loser_floor + (spread.loser_ceiling - spread.loser_floor) * slot)
    for i in range(n_survivors):
        q = (i + rng.uniform(0.2, 0.8)) / n_survivors
        values.append(1.0 + (spread.survivor_max - 1.0) * q ** spread.survivor_shape)
    values.sort(reverse=True)
    funds = []
    for i, v in enumerate(values):
        m = Decimal(str(v)).quantize(Decimal("0.000000001"), rounding=ROUND_HALF_EVEN)
        funds.append((f"f{i:03d}", m, "failure" if m < 1 else "survivor"))
    return funds
