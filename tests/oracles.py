"""Independent oracles used by the test suite.

Each oracle re-derives a result by the most literal method available, with
no imports from the code paths it checks. Deliberately slow and dumb.
"""

from __future__ import annotations

import csv
import io
import re
from decimal import ROUND_HALF_EVEN, Context, Decimal, InvalidOperation, localcontext
from typing import get_type_hints

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


def row_event_log(text: str) -> tuple:
    """events.csv read row by row, one Event built per row: the reference
    reader that simulation.events_from_csv must equal, refusing the same
    texts with the same error type and message.  The text has a final
    newline and no '"', '\\r' or NUL, no line is longer than MAX_LINE, and
    line 1 is the header; row i is line i + 2 split on ',' into six cells.
    seq is i as str() writes it, year and a lien's origin are plain
    integers in [0, TERM_CAP_YEARS], a kind is one of EVENT_KINDS, a
    detail is its kind's name=value pairs in field order joined by "|"
    (or empty, for a kind with no record), and every decimal cell is
    spelled as its str().  Cells are read in a pinned context."""
    from venturebank.contracts import TERM_CAP_YEARS
    from venturebank.errors import InvalidParameterError
    from venturebank.simulation import EVENT_DETAILS, EVENT_KINDS, MAX_LINE, Event

    columns = ("seq", "year", "kind", "fund_id", "amount", "detail")
    years = [str(year) for year in range(TERM_CAP_YEARS + 1)]

    def year_of(cell: str, name: str) -> int:
        if cell not in years:
            raise ValueError(f"{name} must be an integer in [0, {TERM_CAP_YEARS}], "
                             f"got {cell!r}")
        return int(cell)

    def decimal_of(cell: str, name: str) -> Decimal:
        try:
            value = Decimal(cell)
        except ArithmeticError:
            value = None
        if value is None or not value.is_finite():
            raise InvalidParameterError(f"{name} must be a finite decimal, got {cell!r}")
        if str(value) != cell:
            raise ValueError(f"{name} must be written {value}, got {cell!r}")
        return value

    def detail_of(kind: str, cell: str):
        if kind not in EVENT_DETAILS:
            raise ValueError(f"{kind} carries no detail, got {cell!r}")
        record = EVENT_DETAILS[kind]
        match = re.fullmatch(r"\|".join(f"{name}=([^|]*)" for name in record._fields), cell)
        if match is None:
            raise ValueError(f"{kind} detail {cell!r} does not have the keys {record._fields}")
        hints = get_type_hints(record)
        return record(*[year_of(value, name) if hints[name] is int else decimal_of(value, name)
                        for name, value in zip(record._fields, match.groups())])

    with localcontext(Context(prec=28, rounding=ROUND_HALF_EVEN, capitals=1,
                              traps=[InvalidOperation])):
        lines = text.split("\n")
        if lines.pop():
            raise InvalidParameterError(f"event log line {len(lines) + 1}: no final newline")
        for line, row in enumerate(lines, start=1):
            for char in row:
                if char in '"\r\0':
                    raise InvalidParameterError(
                        f"event log line {line}: {char!r} is outside the event-log grammar")
        for line, row in enumerate(lines, start=1):
            if len(row) > MAX_LINE:
                raise InvalidParameterError(
                    f"event log line {line}: longer than {MAX_LINE} characters")
        if lines[:1] != [",".join(columns)]:
            raise InvalidParameterError("not an event-log CSV")
        events = []
        for position, row in enumerate(lines[1:]):
            cells = row.split(",") if row else []
            try:
                if len(cells) != len(columns):
                    raise ValueError(f"expected {len(columns)} columns, got {len(cells)}")
                seq, year, kind, fund_id, amount, detail = cells
                if kind not in EVENT_KINDS:
                    raise ValueError(f"unknown event kind {kind!r}")
                value = decimal_of(amount, "amount")
                if seq != str(position):
                    raise ValueError(f"seq must be {position}, the row's position, "
                                     f"got {seq!r}")
                year = year_of(year, "year")
                parsed = None
                if detail or kind in EVENT_DETAILS:
                    parsed = detail_of(kind, detail)
                events.append(Event(position, year, kind, fund_id, value, parsed))
            except ValueError as exc:  # InvalidParameterError is one
                raise InvalidParameterError(f"event log line {position + 2}: {exc}") from exc
        return tuple(events)


def event_order_replay(events, initial_capital: Decimal, exit_equity_mode: str) -> dict:
    """The report figures of a log by one running total per figure, each
    added in log order at 28 digits.  A log that refers to a fund's loan
    before it is issued, or issues it twice, raises ValueError; no config
    renders such a log, so replay refuses each one by its first event
    that differs from the rendering."""
    sums = dict.fromkeys(("premium_paid", "bankruptcy_payout", "equity_accepted",
                          "lien_settled", "carrying_cost", "uw", "bank", "terminal"),
                         Decimal(0))
    faces = {}
    with localcontext(Context(prec=28, rounding=ROUND_HALF_EVEN)):
        for e in events:
            if e.kind == "loan_issued":
                if e.fund_id in faces:
                    raise ValueError(f"second loan_issued for {e.fund_id!r}")
                faces[e.fund_id] = e.amount
            if e.kind in ("bankruptcy_payout", "exit_proceeds") and e.fund_id not in faces:
                raise ValueError(f"{e.kind} for {e.fund_id!r} with no loan_issued")
            if e.kind in sums:
                sums[e.kind] += e.amount
            if e.kind == "bankruptcy_payout":
                worth = (e.detail.multiple * faces[e.fund_id]).quantize(Decimal("1E-9"))
                sums["terminal"] += worth
            elif e.kind == "exit_proceeds":
                sums["terminal"] += e.amount
                sums["uw"] += e.detail.uw_share
                sums["bank"] += e.detail.bank_share
        premiums, payouts = sums["premium_paid"], sums["bankruptcy_payout"]
        clawed, uw = sums["lien_settled"], sums["uw"]
        outlay = payouts - sums["equity_accepted"] + sums["carrying_cost"] - clawed
        if exit_equity_mode == "investment_offset":
            outlay -= uw
            earnings = premiums
        else:
            earnings = premiums + uw
        ten_year = float(earnings / abs(outlay)) if outlay else float("inf")
        bank_gains = payouts - premiums + sums["bank"] - clawed
        loans = sum(faces.values(), Decimal(0))
        return dict(
            classical_return=float(sums["terminal"] / loans) if faces else 0.0,
            underwriter_investment=-outlay,
            premium_earnings_10y=earnings,
            din_net_profit=earnings - outlay,
            din_10y_return=ten_year,
            din_yearly_return=ten_year ** 0.1 - 1,
            bank_10y_return=float((initial_capital + bank_gains) / initial_capital),
        )


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


def per_note_settlements(funds, config) -> list[tuple]:
    """(fund_id, payout, lien base, lien terms, amount clawed, settled
    terms) of every failed fund, each from apply_trigger on that fund's own
    note, checked when built, and settle_clawback on that note's own lien.
    A fund with no lien has None for the last four.  It checks that the
    engine's one settlement per failure class is every fund's own."""
    from venturebank.contracts import (
        BANKRUPTCY, DinContract, TriggerEvent, apply_trigger, settle_clawback)

    out = []
    for fund, face, failure in zip(funds.fund_id, funds.face, funds.failure):
        if failure is None:
            continue
        note = DinContract(fund, face, config.coverage, config.equity_fraction)
        trigger = TriggerEvent(BANKRUPTCY, config.failure_year, failure.equity_valuation)
        _, settlement = apply_trigger(note, trigger, clawback=config.clawback_policy())
        lien = settlement.lien
        if lien is None:
            out.append((fund, settlement.cash_to_bank, None, None, None, None))
            continue
        assert lien.contract_id == fund
        clawed, settled = settle_clawback(lien, config.exit_year, config.bank_rate,
                                          verdict=config.audit_verdict)
        out.append((fund, settlement.cash_to_bank, lien.base,
                    (lien.fraction, lien.origin_year), clawed, settled.fraction))
    return out


def per_fund_amounts(dist, config) -> list[tuple]:
    """(fund_id, amount, exit split) of every fund of the spread dist, each
    from its own fund_id, multiple and outcome columns: the amount is its
    multiple times its loan face rounded half-even to 9 places at 28
    digits, its proceeds if it exits and its worth if it fails, and an
    exit's split is (uw_share, bank_share) from the checked
    contracts.exit_equity_split, None for a failure.  The loan faces are
    the book moc * initial_capital split evenly to 9 places, the last fund
    taking the remainder."""
    from venturebank.contracts import exit_equity_split

    scale = Decimal("1E-9")
    out = []
    with localcontext(Context(prec=28, rounding=ROUND_HALF_EVEN)):
        book = (config.moc * config.initial_capital).quantize(scale)
        n = len(dist.fund_ids)
        per = (book / n).quantize(scale)
        for i, (fund, multiple, classification) in enumerate(
                zip(dist.fund_ids, dist.multiples, dist.outcomes, strict=True)):
            face = per if i < n - 1 else book - per * (n - 1)
            amount = (multiple * face).quantize(scale)
            split = None
            if classification != "failure":
                split = exit_equity_split(amount, config.coverage, config.equity_fraction)
            out.append((fund, amount, split))
    return out
