"""Scenario engine: `fund_rows` drives every fund's note through its
lifecycle into one row per fund; `render` writes the rows as the run's
event log, `rows_of` folds a log back into rows, and `price` prices rows
into the report figures.  `replay` is `rows_of` then `price`, and
`run_scenario` renders and prices the same rows; its report keeps the
log, so `post_books(report.events, report.config)` gives its books.  The
return-sweep curves price each point's rows and never build a log.

Every reported number is priced from rows that the run's log folds back
to, so a serialized log replays to the identical report.
"""
from __future__ import annotations

import csv
import functools
import io
import re
from dataclasses import dataclass, field, replace
from decimal import Decimal, Inexact, localcontext
from typing import NamedTuple, get_type_hints

from .contracts import (
    BANKRUPTCY,
    TERM_CAP_YEARS,
    ClawbackPolicy,
    DinContract,
    DinState,
    TriggerEvent,
    _exit_equity_split,
    annual_premium,
    apply_trigger,
    # Notes build their liens inside apply_trigger; the name stays bound here
    # because the benchmark's layer tracer (perfbench/tracing.py) wraps
    # venturebank.simulation.create_clawback.
    create_clawback,
    settle_clawback,
)
from .errors import (
    InvalidParameterError,
    LoanLimitError,
    SimulationError,
    VentureBankError,
)
from .ledger import (
    Account,
    CapitalAccount,
    Ledger,
    _carrying_cost,
    book_din_to_capital,
    cr,
    dr,
    write_investment_loan,
)
from .money import (
    DECIMAL_CONTEXT,
    MONEY_LIMIT,
    ZERO,
    finite,
    fmt,
    fraction,
    in_money_context,
    money,
)

# Config validation checks the loan book against the engine's post-booking
# lending limit (_opening_book), not this ceiling; the name stays bound
# because the benchmark's layer tracer wraps
# venturebank.simulation.capital_limits.
from .multipliers import capital_limits
from .returns import (
    FAILURE,
    ReturnDistribution,
    SpreadParams,
    rescale_to_target,
    synthesize_distribution,
)

SALVAGE_MODES = ("classical_multiple", "zero")
EXIT_EQUITY_MODES = ("investment_offset", "earnings")
ALLOWED_CLAWBACK = (Decimal("0"), Decimal("0.77"), Decimal("1.0"))

REPORT_COLUMNS = (
    "DIN rate",
    "Classical Portfolio return",
    "DIN Underwriter investment (using year 5 as payout year)",
    "DIN Underwriter 10 year premium earnings",
    "DIN 10 year Net profit",
    "DIN Underwriter 10 year return. (1.00 = break-even)",
    "DIN Underwriter yearly return",
    "DIN Equity fraction",
)

EVENT_COLUMNS = ("seq", "year", "kind", "fund_id", "amount", "detail")

# Beyond this a portfolio is refused before anything is allocated for it.
MAX_FUNDS = 100_000

# A float survivor multiple exceeds survivor_max by at most two roundings,
# each below survivor_max * 2**-52.
_FLOAT_SLACK = 1 + Decimal(2) ** -50

# Sums that must not round: the totals of a log and of a run's rows.
_EXACT = DECIMAL_CONTEXT.copy()
_EXACT.traps[Inexact] = True


def _finite_decimal(name: str, value) -> Decimal:
    """finite(value, name), held to the money scale as well."""
    try:
        d = finite(value, name)
        if d.adjusted() >= 18:  # below 1E+18 money() cannot refuse it
            money(d)  # refuses a value past the money scale
        return d
    except InvalidParameterError:
        raise InvalidParameterError(
            f"{name} must be a finite decimal of at most 19 digits before the "
            f"point, got {str(value)!r}") from None


@dataclass(frozen=True)
class ScenarioConfig:
    reserve_fraction: Decimal = Decimal("0.05")
    premium_rate: Decimal = Decimal("0.05")
    equity_fraction: Decimal = Decimal("0.5")
    coverage: Decimal = Decimal("1")
    clawback_fraction: Decimal = Decimal("0.77")
    bank_rate: Decimal = Decimal("0.03")
    moc: Decimal = Decimal("47")
    n_funds: int = 50
    target_classical_return: Decimal | None = None
    failure_year: int = 5
    exit_year: int = 10
    seed: int = 2024
    initial_capital: Decimal = Decimal("1")
    salvage_mode: str = "classical_multiple"
    exit_equity_mode: str = "investment_offset"
    audit_verdict: bool | None = None
    spread: SpreadParams = field(default_factory=SpreadParams)

    @in_money_context
    def __post_init__(self) -> None:
        for name in ("n_funds", "seed", "failure_year", "exit_year"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        names = ["reserve_fraction", "premium_rate", "equity_fraction", "coverage",
                 "clawback_fraction", "bank_rate", "moc", "initial_capital"]
        if self.target_classical_return is not None:
            names.append("target_classical_return")
        for name in names:
            object.__setattr__(self, name, _finite_decimal(name, getattr(self, name)))
        fraction(self.reserve_fraction, "reserve_fraction", open_low=True)
        for name in ("premium_rate", "equity_fraction", "coverage", "bank_rate"):
            fraction(getattr(self, name), name)
        if self.clawback_fraction not in ALLOWED_CLAWBACK:
            raise InvalidParameterError("clawback_fraction must be 0, 0.77, or 1.0")
        if not 2 <= self.n_funds <= MAX_FUNDS:
            raise InvalidParameterError(
                f"n_funds must be >= 2 and <= {MAX_FUNDS}, got {self.n_funds}")
        if self.seed < 0:
            raise InvalidParameterError("seed must be >= 0")
        if not 1 <= self.failure_year < self.exit_year <= TERM_CAP_YEARS:
            raise InvalidParameterError(
                f"need 1 <= failure_year < exit_year <= {TERM_CAP_YEARS}")
        if money(self.initial_capital) <= 0:
            raise InvalidParameterError(
                f"initial_capital must be > 0 at 9 decimal places, "
                f"got {self.initial_capital:f}")
        if self.moc <= 0:
            raise InvalidParameterError("moc must be > 0")
        if self.salvage_mode not in SALVAGE_MODES:
            raise InvalidParameterError(f"salvage_mode must be one of {SALVAGE_MODES}")
        if self.exit_equity_mode not in EXIT_EQUITY_MODES:
            raise InvalidParameterError(
                f"exit_equity_mode must be one of {EXIT_EQUITY_MODES}")
        if self.audit_verdict is not None and not isinstance(self.audit_verdict, bool):
            raise InvalidParameterError("audit_verdict must be true, false or null")
        if self.clawback_fraction == Decimal("1.0") and self.audit_verdict is None:
            raise InvalidParameterError(
                "option B settles its liens by the audit_verdict, which must be "
                "true or false, got null")
        self.spread.validate()
        try:
            book, capital, _, per, last = self.opening_book
            limit = capital.lending_limit
        except InvalidParameterError as exc:
            raise InvalidParameterError(
                f"moc {self.moc}, initial_capital {self.initial_capital} and "
                f"reserve_fraction {self.reserve_fraction} give a capital "
                f"stack past the money scale: {exc}") from None
        if book > limit:
            raise InvalidParameterError(
                f"moc {self.moc} puts a loan book of {book:f} past the lending "
                f"limit {limit:f} that initial_capital "
                f"{self.initial_capital:f} and the insured notes at coverage "
                f"{self.coverage} allow"
            )
        if per <= 0 or last <= 0:
            raise InvalidParameterError(
                f"moc * initial_capital / n_funds leaves a loan face <= 0 at "
                f"9 decimal places (moc {self.moc}, initial_capital "
                f"{self.initial_capital}, n_funds {self.n_funds})"
            )
        # Every amount of a run, every total of its log and every figure
        # priced from them is at most `reach`: the capital, plus the book
        # times its premiums over exit_year, its payouts, its funds' values
        # at failure or exit, and its liens and carrying costs grown at
        # bank_rate to closeout.  A multiple is at most survivor_max, up to
        # two float roundings, plus the rescaling shift, itself at most the
        # target; each 1 covers rounding to 9 places.  Below MONEY_LIMIT
        # every sum of them is exact at 28 digits, in any order.
        largest = (Decimal(self.spread.survivor_max) * _FLOAT_SLACK
                   + max(self.target_classical_return or ZERO, ZERO) + 1)
        growth = (1 + self.bank_rate) ** (self.exit_year - self.failure_year)
        reach = self.initial_capital + 1 + book * (
            1 + self.premium_rate * self.exit_year + largest + 2 * growth)
        if reach >= MONEY_LIMIT:
            raise InvalidParameterError(
                f"initial_capital {self.initial_capital} and moc {self.moc} with "
                f"target_classical_return {self.target_classical_return}, "
                f"spread.survivor_max {self.spread.survivor_max}, premium_rate "
                f"{self.premium_rate} over exit_year {self.exit_year} and "
                f"bank_rate {self.bank_rate} from failure_year "
                f"{self.failure_year} let a run's amounts reach {reach:.3E}, "
                f"past the money scale of 19 digits before the point")

    @functools.cached_property
    def opening_book(self) -> tuple[Decimal, CapitalAccount, Decimal, Decimal, Decimal]:
        """_opening_book(self): built once, by __post_init__, and kept off
        the fields, so ==, hash, repr and replace do not see it."""
        return _opening_book(self)

    def clawback_policy(self) -> ClawbackPolicy | None:
        """None when the notes are written without the clawback rider; the
        full base is option B, settled by the audit verdict, and 0.77 is A."""
        if self.clawback_fraction == 0:
            return None
        return ClawbackPolicy(option="B" if self.clawback_fraction == 1 else "A",
                              fraction=self.clawback_fraction)

    @classmethod
    def calibration(cls, **overrides) -> "ScenarioConfig":
        """The benchmark parameterization: nothing salvaged at failure, exit
        equity counted as earnings, 6% carry, full 47X money creation."""
        base = dict(
            salvage_mode="zero",
            exit_equity_mode="earnings",
            bank_rate=Decimal("0.06"),
            moc=Decimal("47"),
        )
        base.update(overrides)
        return cls(**base)


# Typed event details.  In events.csv a detail is one cell of key=value
# pairs in field order, joined by "|".


class DinBooked(NamedTuple):
    tier1: Decimal
    tier2: Decimal


class BankruptcyPayout(NamedTuple):
    equity_valuation: Decimal
    multiple: Decimal


class LienCreated(NamedTuple):
    fraction: Decimal
    origin: int


class ExitProceeds(NamedTuple):
    face: Decimal
    uw_share: Decimal
    bank_share: Decimal


class LienSettled(NamedTuple):
    fraction: Decimal


EventDetail = DinBooked | BankruptcyPayout | LienCreated | ExitProceeds | LienSettled

EVENT_DETAILS = {
    "din_booked": DinBooked,
    "bankruptcy_payout": BankruptcyPayout,
    "lien_created": LienCreated,
    "exit_proceeds": ExitProceeds,
    "lien_settled": LienSettled,
}

# Every kind the engine emits; events_from_csv refuses any other.
EVENT_KINDS = frozenset((
    "capital_injection",
    "din_booked",
    "loan_issued",
    "deposit_drawdown",
    "premium_paid",
    "bankruptcy_payout",
    "loan_written_off",
    "equity_accepted",
    "lien_created",
    "exit_proceeds",
    "lien_settled",
    "carrying_cost",
    "din_released",
))


class Event(NamedTuple):
    seq: int
    year: int
    kind: str
    fund_id: str
    amount: Decimal
    detail: EventDetail | None = None


# Every year a log may hold, by the one cell that writes it.
_YEARS = {str(year): year for year in range(TERM_CAP_YEARS + 1)}


def _year(text: str, name: str) -> int:
    """A year cell as events_to_csv writes it, or ValueError naming it."""
    year = _YEARS.get(text)
    if year is None:
        raise ValueError(f"{name} must be an integer in [0, {TERM_CAP_YEARS}], "
                         f"got {text!r}")
    return year


def _decimal(text: str, name: str) -> Decimal:
    """A decimal cell as events_to_csv writes it, or ValueError naming it."""
    value = finite(text, name)
    if str(value) != text:
        raise ValueError(f"{name} must be written {value}, got {text!r}")
    return value


# The CSV cell template of each record type, and for each kind that
# carries a detail: its record, a regex with one group per field, and one
# parser per field, _year or _decimal, naming the field.
_DETAIL_FORMATS = {
    record: "|".join(f"{name}={{}}" for name in record._fields)
    for record in EVENT_DETAILS.values()
}
_DETAIL_READERS = {
    kind: (
        record,
        re.compile(r"\|".join(f"{name}=([^|]*)" for name in record._fields)),
        tuple(functools.partial(_year if hint is int else _decimal, name=name)
              for name, hint in get_type_hints(record).items()),
    )
    for kind, record in EVENT_DETAILS.items()
}


_EVENT_HEADER = ",".join(EVENT_COLUMNS)

# The event-log grammar: no field is None, no cell holds a character of
# _OUTSIDE_GRAMMAR (each is quoted, or refused, by csv.writer on some Python
# version), and no line is longer than MAX_LINE, csv's default field limit.
_OUTSIDE_GRAMMAR = re.compile('[,"\r\n\0]')
MAX_LINE = 131072


@in_money_context
def events_to_csv(events) -> str:
    """events.csv: one row per event, each cell its str() and a detail its
    name=value pairs in field order, joined by "|".  The rows are f-strings;
    the text stands when it has 5 commas and 1 newline per row and no '"',
    '\\r', NUL or 'None'.  Otherwise the first event outside the grammar, a
    detail that is no detail record included, raises InvalidParameterError
    naming its seq and field; a log with none (a fund id 'None') stands."""
    events = tuple(events)
    formats = _DETAIL_FORMATS
    try:
        text = "\n".join([_EVENT_HEADER, *[
            f"{seq!s},{year!s},{kind!s},{fund_id!s},{amount!s},"
            f"{'' if detail is None else formats[type(detail)].format(*detail)}"
            for seq, year, kind, fund_id, amount, detail in events
        ], ""])
    except KeyError:  # a detail that is not a detail record
        text = None
    rows = len(events) + 1
    if (text is None or text.count(",") != 5 * rows or text.count("\n") != rows
            or '"' in text or "\r" in text or "\0" in text or "None" in text):
        for e in events:
            if e.detail is not None and type(e.detail) not in formats:
                raise InvalidParameterError(
                    f"event {e.seq}: detail {e.detail!r} is outside the event-log grammar")
            detail = () if e.detail is None else zip(e.detail._fields, e.detail)
            for name, value in (*zip(EVENT_COLUMNS, e[:5]), *detail):
                if value is None or _OUTSIDE_GRAMMAR.search(str(value)):
                    raise InvalidParameterError(
                        f"event {e.seq}: {name} {value!r} is outside the event-log grammar")
    return text


def _parse_detail(kind: str, text: str) -> EventDetail:
    if kind not in _DETAIL_READERS:
        raise ValueError(f"{kind} carries no detail, got {text!r}")
    record, pattern, parsers = _DETAIL_READERS[kind]
    match = pattern.fullmatch(text)
    if match is None:
        raise ValueError(f"{kind} detail {text!r} does not have the keys {record._fields}")
    return record(*[parse(value) for parse, value in zip(parsers, match.groups())])


@in_money_context
def events_from_csv(text: str) -> tuple[Event, ...]:
    """Parse events.csv.  Text that events_to_csv could not have written
    raises InvalidParameterError naming its line: no newline at the end,
    a '"', '\\r' or NUL anywhere, a line longer than MAX_LINE, or a
    malformed row.  Row i is line i + 2 split on ','; it is malformed
    unless seq is its position, year and a lien's origin plain integers
    in [0, TERM_CAP_YEARS], and every decimal cell spelled as its str()."""
    lines = text.split("\n")
    if lines.pop():  # the last row's terminator
        raise InvalidParameterError(f"event log line {len(lines) + 1}: no final newline")
    if '"' in text or "\r" in text or "\0" in text:
        first = min(at for at in map(text.find, '"\r\0') if at >= 0)
        line = text.count("\n", 0, first) + 1
        raise InvalidParameterError(
            f"event log line {line}: {text[first]!r} is outside the event-log grammar")
    if max(map(len, lines), default=0) > MAX_LINE:
        line = [len(row) > MAX_LINE for row in lines].index(True) + 1
        raise InvalidParameterError(f"event log line {line}: longer than {MAX_LINE} characters")
    if lines[:1] != [_EVENT_HEADER]:
        raise InvalidParameterError("not an event-log CSV")
    out = []
    append, new, columns, years = out.append, tuple.__new__, len(EVENT_COLUMNS), _YEARS
    # A log repeats a few amounts (each fund's premium, the loan face) and
    # details (each failure class's payout, lien and settlement) many
    # times; each distinct cell is read once.
    amounts: dict[str, Decimal] = {}
    details: dict[tuple[str, str], EventDetail | None] = {}
    for position, row in enumerate(lines[1:]):
        row = row.split(",") if row else []
        try:
            if len(row) != columns:
                raise ValueError(f"expected {columns} columns, got {len(row)}")
            seq, year, kind, fund_id, amount, detail = row
            if kind not in EVENT_KINDS:
                raise ValueError(f"unknown event kind {kind!r}")
            value = amounts.get(amount)
            if value is None:
                value = amounts[amount] = _decimal(amount, "amount")
            if seq != str(position):
                raise ValueError(f"seq must be {position}, the row's position, "
                                 f"got {seq!r}")
            year_value = years.get(year)
            if year_value is None:
                year_value = _year(year, "year")  # raises
            parsed = None
            if detail or kind in _DETAIL_READERS:
                parsed = details.get((kind, detail))
                if parsed is None:
                    parsed = details[kind, detail] = _parse_detail(kind, detail)
            append(new(Event, (position, year_value, kind, fund_id, value, parsed)))
        except ValueError as exc:  # InvalidParameterError is one
            raise InvalidParameterError(f"event log line {position + 2}: {exc}") from exc
    return tuple(out)


@dataclass(frozen=True)
class SimulationReport:
    """One run's figures and event log.  Its books are
    `post_books(report.events, report.config)`."""

    config: ScenarioConfig
    classical_return: float
    underwriter_investment: Decimal
    premium_earnings_10y: Decimal
    din_net_profit: Decimal
    din_10y_return: float
    din_yearly_return: float
    bank_10y_return: float
    events: tuple[Event, ...]
    # Nothing in the package sets these; perfbench's worker still passes
    # None for both.
    bank_ledger: Ledger | None = None
    underwriter_ledger: Ledger | None = None

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(REPORT_COLUMNS)
        w.writerow(
            [
                str(self.config.premium_rate),
                f"{self.classical_return:.6f}",
                fmt(self.underwriter_investment),
                fmt(self.premium_earnings_10y),
                fmt(self.din_net_profit),
                f"{self.din_10y_return:.6f}",
                f"{self.din_yearly_return:.6f}",
                str(self.config.equity_fraction),
            ]
        )
        return buf.getvalue()


def _opening_book(config: ScenarioConfig
                  ) -> tuple[Decimal, CapitalAccount, Decimal, Decimal, Decimal]:
    """Year 0 before any loan: the loan book moc * initial_capital, the
    capital stack once the insured-note value on that book is booked as
    capital (widening the lending limit the book must fit), the amount
    booked, and the loan faces: every fund's but the last, and the last,
    which takes the remainder so that they sum to the book.  Config
    validation and fund_rows both take it from here, so a config that
    validates is a book the engine can write."""
    book = money(config.moc * config.initial_capital)
    capital, booked, _ = book_din_to_capital(
        CapitalAccount(tier1_core=config.initial_capital,
                       reserve_fraction=config.reserve_fraction),
        money(book * config.coverage),
    )
    per = money(book / config.n_funds)
    return book, capital, booked, per, book - per * (config.n_funds - 1)


class FundRow(NamedTuple):
    """One fund's run: render logs it, rows_of folds it back from a log,
    price prices it.  A field whose event the fund does not log is None."""

    fund_id: str
    face: Decimal | None  # loan_issued
    premium: Decimal | None  # the first premium_paid
    years: int  # premiums paid
    premiums: Decimal | None  # their total
    payout: Decimal | None  # bankruptcy_payout and its detail
    failure: BankruptcyPayout | None
    worth: Decimal | None  # multiple * face at failure
    salvage: Decimal | None  # equity_accepted
    lien: Decimal | None  # lien_created and its detail
    lien_terms: LienCreated | None
    clawed: Decimal | None  # lien_settled and its detail
    settled: LienSettled | None
    carrying: Decimal | None  # carrying_cost
    proceeds: Decimal | None  # exit_proceeds and its detail
    exit: ExitProceeds | None


@in_money_context
def fund_rows(config: ScenarioConfig) -> tuple[FundRow, ...]:
    """Run one scenario: one row per fund, in distribution order."""
    dist = synthesize_distribution(
        seed=config.seed, n_funds=config.n_funds, spread=config.spread
    )
    if config.target_classical_return is not None:
        dist = rescale_to_target(dist, config.target_classical_return)
    return _fund_rows(config, dist)


def _fund_rows(config: ScenarioConfig, dist: ReturnDistribution) -> tuple[FundRow, ...]:
    """fund_rows' engine, on a spread already synthesized and rescaled for
    config; the sweep calls it directly to share one spread between the
    curves of a grid point.  Failures of one class (equal faces and
    valuations) are adjacent, so the trigger, the lien's settlement and the
    carrying cost are reused until their inputs change."""
    # Notes, triggers and the arithmetic take their inputs unchecked: the
    # config was checked when built, which also refused a loan face <= 0
    # and any amount past the money scale.  A row, a note or a detail is
    # built by tuple.__new__ itself.
    _, _, _, per, last = config.opening_book
    coverage, equity_fraction = config.coverage, config.equity_fraction
    terms = (coverage, equity_fraction, DinState.ACTIVE, ())
    policy, rate, zero = config.clawback_policy(), config.bank_rate, config.salvage_mode == "zero"
    failed, closeout, new, rows = config.failure_year, config.exit_year, tuple.__new__, []
    # Every note but the last has the same face and terms: one premium,
    # and one total to each trigger year.
    paid = {}
    for face in {per, last}:
        premium = annual_premium(new(DinContract, ("", face, *terms)), config.premium_rate)
        paid[face] = (premium, failed, premium * failed), (premium, closeout, premium * closeout)
    trigger = lien_key = parked_at = None
    for (fund, multiple, classification), face in zip(
            dist.outcomes, [per] * (config.n_funds - 1) + [last]):
        if classification != FAILURE:
            # An exit settles nothing a row records: its trigger is not applied.
            proceeds = money(multiple * face)
            shares = _exit_equity_split(proceeds, coverage, equity_fraction)
            rows.append(new(FundRow, (fund, face, *paid[face][1], *(None,) * 9, proceeds,
                                      new(ExitProceeds, (face, *shares)))))
            continue
        worth = money(multiple * face)
        valuation = ZERO if zero else worth
        if trigger is None or trigger.payload != valuation:
            trigger = TriggerEvent._make((BANKRUPTCY, failed, valuation))
        _, settlement = apply_trigger(new(DinContract, (fund, face, *terms)), trigger,
                                      clawback=policy)
        payout, lien = settlement.cash_to_bank, settlement.lien
        # A lien's settlement depends on every field but its contract_id.
        if lien is not None and lien[1:] != lien_key:
            lien_key = lien[1:]
            clawed, resolved = settle_clawback(lien, closeout, rate, verdict=config.audit_verdict)
            settled = (LienCreated(lien.fraction, lien.origin_year), clawed,
                       LienSettled(resolved.fraction))
        # Parked to closeout, the payout costs the underwriter its interest.
        parked = payout - valuation
        if parked > 0 and parked != parked_at:
            parked_at, cost = parked, _carrying_cost(parked, closeout - failed, rate)
        rows.append(new(FundRow, (
            fund, face, *paid[face][0], payout, new(BankruptcyPayout, (valuation, multiple)),
            worth, valuation if valuation > 0 else None,
            *((None,) * 4 if lien is None else (lien.base, *settled)),
            cost if parked > 0 and cost > 0 else None, None, None)))
    return tuple(rows)


@in_money_context
def render(rows: tuple[FundRow, ...], config: ScenarioConfig) -> tuple[Event, ...]:
    """The event log of a run's rows.  Year 0 injects capital, books the
    insured-note value and writes one loan per fund.  Each year every
    active note pays its premium; then, in distribution order, the failures
    settle at failure_year.  Closeout at exit_year logs the exits, then
    the liens settled and the payouts' carrying costs in note order, and
    releases the capital booking."""
    events: list[Event] = []
    new = tuple.__new__  # an Event's six fields make an Event

    def emit(year: int, kind: str, fund_id: str, amount: Decimal, detail=None) -> None:
        events.append(new(Event, (len(events), year, kind, fund_id, amount, detail)))

    book, capital, booked, _, _ = config.opening_book
    emit(0, "capital_injection", "", money(config.initial_capital))
    if booked > 0:
        emit(0, "din_booked", "", booked, DinBooked(capital.tier1_insured, capital.tier2_insured))
    for row in rows:
        emit(0, "loan_issued", row.fund_id, row.face)
    drawdown = money(book * Decimal("0.5"))
    if drawdown > 0:
        emit(0, "deposit_drawdown", "", drawdown)
    failed = [row for row in rows if row.failure is not None]
    paying = [(row.fund_id, row.premium) for row in rows]
    for year in range(1, config.exit_year + 1):
        events.extend([new(Event, (seq, year, "premium_paid", fund, premium, None))
                       for seq, (fund, premium) in enumerate(paying, len(events))])
        if year == config.failure_year:
            for row in failed:
                emit(year, "bankruptcy_payout", row.fund_id, row.payout, row.failure)
                emit(year, "loan_written_off", row.fund_id, row.face)
                if row.salvage is not None:
                    emit(year, "equity_accepted", row.fund_id, row.salvage)
                if row.lien_terms is not None:
                    emit(year, "lien_created", row.fund_id, row.lien, row.lien_terms)
            paying = [(row.fund_id, row.premium) for row in rows if row.failure is None]
    closeout = config.exit_year
    for row in rows:
        if row.exit is not None:
            emit(closeout, "exit_proceeds", row.fund_id, row.proceeds, row.exit)
    for row in failed:
        if row.settled is not None:
            emit(closeout, "lien_settled", row.fund_id, row.clawed, row.settled)
    for row in failed:
        if row.carrying is not None:
            emit(closeout, "carrying_cost", row.fund_id, row.carrying)
    if booked > 0:
        emit(closeout, "din_released", "", booked)
    return tuple(events)


@in_money_context
def post_books(events, config: ScenarioConfig) -> tuple[Ledger, Ledger]:
    """Derive the bank's and the underwriter's books from an event log.

    The log is folded in order with one posting rule per event kind, so
    a serialized log rebuilds both journals exactly.
    """
    bank = Ledger("bank")
    underwriter = Ledger("underwriter")
    capital = None
    obligations: dict[str, Decimal] = {}  # lien obligation per fund

    def capital_at(e: Event) -> CapitalAccount:
        if capital is None:
            raise SimulationError(f"{e.kind} before capital_injection",
                                  year=e.year, account="tier1_core")
        return capital

    def post(ledger: Ledger, year: int, memo: str, debit: Account,
             credit: Account, amount: Decimal) -> None:
        ledger.post(year, memo, [dr(debit, amount), cr(credit, amount)])

    def mirror(year: int, memo: str, debit: Account, credit: Account,
               amount: Decimal) -> None:
        """The bank debits `debit` and credits `credit`; the underwriter
        books the same amount the other way."""
        post(bank, year, memo, debit, credit, amount)
        post(underwriter, year, memo, credit, debit, amount)

    for e in events:
        year, kind, fund, amount = e.year, e.kind, e.fund_id, e.amount
        if kind == "premium_paid":
            if amount > 0:
                mirror(year, f"premium {fund}", Account.PREMIUMS_PAID, Account.CASH, amount)
        elif kind == "capital_injection":
            post(bank, year, "paid-in capital", Account.CASH, Account.TIER1_CORE, amount)
            capital = CapitalAccount(tier1_core=amount,
                                     reserve_fraction=config.reserve_fraction)
        elif kind == "din_booked":
            t1, t2 = e.detail
            capital = replace(capital_at(e), tier1_insured=t1, tier2_insured=t2)
            postings = [dr(Account.TIER1_INSURED, t1)] if t1 > 0 else []
            if t2 > 0:
                postings.append(dr(Account.TIER2_INSURED, t2))
            postings.append(cr(Account.EQUITY_HOLDINGS, amount))
            bank.post(year, "insured-asset capital recognition", postings)
        elif kind == "din_released":
            booking = capital_at(e)
            postings = [dr(Account.EQUITY_HOLDINGS, amount)]
            if booking.tier1_insured > 0:
                postings.append(cr(Account.TIER1_INSURED, booking.tier1_insured))
            if booking.tier2_insured > 0:
                postings.append(cr(Account.TIER2_INSURED, booking.tier2_insured))
            bank.post(year, "capital booking unwound", postings)
        elif kind == "loan_issued":
            try:
                write_investment_loan(bank, capital_at(e), amount, year=year,
                                      memo=f"loan {fund}")
            except LoanLimitError as exc:
                raise SimulationError(str(exc), year=year, account="loans") from exc
        elif kind == "deposit_drawdown":
            post(bank, year, "investor drawdowns", Account.DEPOSITS, Account.CASH, amount)
        elif kind == "bankruptcy_payout":
            mirror(year, f"note payout {fund}", Account.CASH, Account.PAYOUTS_RECEIVED, amount)
        elif kind == "loan_written_off":
            post(bank, year, f"write off {fund}",
                 Account.PAYOUTS_RECEIVED, Account.LOANS, amount)
        elif kind == "equity_accepted":
            post(underwriter, year, f"salvage equity {fund}",
                 Account.EQUITY_HOLDINGS, Account.PAYOUTS_RECEIVED, amount)
        elif kind == "lien_created":
            obligation = obligations[fund] = money(e.detail.fraction * amount)
            if obligation > 0:
                mirror(year, f"clawback lien {fund}",
                       Account.PAYOUTS_RECEIVED, Account.LIEN_OBLIGATIONS, obligation)
        elif kind == "exit_proceeds":
            face, uw_share, bank_share = e.detail
            postings = [dr(Account.CASH, face + bank_share), cr(Account.LOANS, face)]
            if bank_share > 0:
                postings.append(cr(Account.EQUITY_HOLDINGS, bank_share))
            bank.post(year, f"exit {fund}", postings)
            if uw_share > 0:
                post(underwriter, year, f"exit {fund}",
                     Account.CASH, Account.EQUITY_HOLDINGS, uw_share)
        elif kind == "lien_settled":
            if fund not in obligations:
                raise SimulationError(f"lien_settled for {fund!r} with no lien_created",
                                      year=year, account="lien_obligations")
            delta = amount - obligations[fund]
            if delta > 0:  # accrued interest joins the obligation
                mirror(year, f"lien interest {fund}",
                       Account.PAYOUTS_RECEIVED, Account.LIEN_OBLIGATIONS, delta)
            elif delta < 0:  # option-B verdict released part of the pending base
                mirror(year, f"lien release {fund}",
                       Account.LIEN_OBLIGATIONS, Account.PAYOUTS_RECEIVED, -delta)
            if amount > 0:
                mirror(year, f"lien settled {fund}",
                       Account.LIEN_OBLIGATIONS, Account.CASH, amount)
        # carrying_cost is the underwriter's foregone interest: it posts nothing.
    return bank, underwriter


# The row field each folded kind fills with its amount; a kind that
# carries a detail fills the next field with it.
_FOLDED = {kind: FundRow._fields.index(name) for kind, name in (
    ("loan_issued", "face"), ("bankruptcy_payout", "payout"),
    ("equity_accepted", "salvage"), ("lien_created", "lien"),
    ("lien_settled", "clawed"), ("carrying_cost", "carrying"),
    ("exit_proceeds", "proceeds"))}


def _rounded(name: str) -> InvalidParameterError:
    """The refusal of a total that rounds: it is not the same sum in every
    order."""
    return InvalidParameterError(
        f"the {name} total is past the 28 digits of the money context")


@in_money_context
def rows_of(events) -> tuple[FundRow, ...]:
    """Fold a log into its rows, the inverse of render.  Each event fills
    its fund's latest row; one whose field that row holds already (a second
    payout, which no run logs) opens a new row for the fund.  Refused: a
    second loan_issued for a fund, a payout or exit before its
    loan_issued, and a premium total that rounds."""
    rows: list[list] = []
    latest: dict[str, list] = {}  # each fund's latest row; its premiums a list
    faces: dict[str, Decimal] = {}
    row_of, folded, blank = latest.get, _FOLDED.get, (None,) * 11
    for event in events:
        if event[2] == "premium_paid":  # most of a log
            row = row_of(event[3])
            if row is None:
                row = latest[event[3]] = [event[3], None, None, 0, [], *blank]
                rows.append(row)
            row[4].append(event[4])
            continue
        _, year, kind, fund, amount, detail = event
        at = folded(kind)
        if at is None:
            continue
        row = row_of(fund)
        if row is None or row[at] is not None:
            row = latest[fund] = [fund, None, None, 0, [], *blank]
            rows.append(row)
        if kind == "loan_issued":
            if fund in faces:
                raise SimulationError(f"second loan_issued for {fund!r}",
                                      year=year, account="loans")
            faces[fund] = amount
        elif kind == "bankruptcy_payout" or kind == "exit_proceeds":
            if fund not in faces:
                raise SimulationError(f"{kind} for {fund!r} with no loan_issued",
                                      year=year, account="loans")
            if kind == "bankruptcy_payout":
                row[7] = money(detail.multiple * faces[fund])  # worth
        row[at] = amount
        if kind in EVENT_DETAILS:
            row[at + 1] = detail
    try:
        with localcontext(_EXACT):
            for row in rows:  # premium, years, premiums
                paid = row[4]
                if paid:
                    row[2], row[3], row[4] = paid[0], len(paid), sum(paid, ZERO)
                else:
                    row[4] = None
    except Inexact:
        raise _rounded(f"premiums of {row[0]!r}") from None
    return tuple([tuple.__new__(FundRow, row) for row in rows])


@in_money_context
def price(rows: tuple[FundRow, ...], config: ScenarioConfig) -> dict:
    """The report figures of a run's rows: the one pricing routine, which
    run_scenario and the sweep call on the engine's rows and replay on a
    log's, so a serialized log reproduces the report exactly."""
    columns = dict(zip(FundRow._fields, zip(*rows))) if rows else dict.fromkeys(FundRow._fields, ())
    exits = [e for e in columns["exit"] if e is not None]
    columns["uw_share"] = [e.uw_share for e in exits]
    columns["bank_share"] = [e.bank_share for e in exits]
    totals = {}
    try:
        with localcontext(_EXACT):
            for name in ("premiums", "payout", "salvage", "clawed", "carrying", "worth",
                         "proceeds", "face", "uw_share", "bank_share"):
                totals[name] = sum([a for a in columns[name] if a is not None], ZERO)
            name = "terminal value"  # every fund's, at its failure or exit
            terminal = totals["worth"] + totals["proceeds"]
    except Inexact:
        raise _rounded(name) from None
    premiums, payouts, clawed = totals["premiums"], totals["payout"], totals["clawed"]
    uw_exit, loans = totals["uw_share"], totals["face"]

    outlay = (payouts - totals["salvage"]) + totals["carrying"] - clawed
    if config.exit_equity_mode == "investment_offset":
        outlay -= uw_exit
        earnings = premiums
    else:
        earnings = premiums + uw_exit
    if earnings < 0:
        # Its tenth root would be complex; no run earns below 0.
        raise InvalidParameterError(f"the premium earnings {earnings} are below 0")
    investment = -outlay

    net = earnings + investment
    magnitude = abs(investment)
    ten_year = float(earnings / magnitude) if magnitude > 0 else float("inf")
    yearly = ten_year ** 0.1 - 1 if ten_year != float("inf") else float("inf")

    c = config.initial_capital
    bank_gains = payouts - premiums + totals["bank_share"] - clawed
    bank_ten_year = float((c + bank_gains) / c)

    # The capital-weighted mean fund multiple.
    has_loans = any(face is not None for face in columns["face"])
    classical = float(terminal / loans) if has_loans else 0.0

    return dict(classical_return=classical, underwriter_investment=investment,
                premium_earnings_10y=earnings, din_net_profit=net, din_10y_return=ten_year,
                din_yearly_return=yearly, bank_10y_return=bank_ten_year)


@in_money_context
def replay(events, config: ScenarioConfig) -> dict:
    """The report figures of an event log: price(rows_of(events), config)."""
    return price(rows_of(events), config)


@in_money_context
def run_scenario(config: ScenarioConfig) -> SimulationReport:
    """A run's rows, rendered as the report's log and priced for its
    figures.  The books are `post_books(report.events, report.config)`."""
    rows = fund_rows(config)
    return SimulationReport(config=config, events=render(rows, config), **price(rows, config))


@dataclass(frozen=True)
class SweepPoint:
    curve: str
    classical_return: Decimal
    value: float


@dataclass(frozen=True)
class SweepFailure:
    curve: str
    classical_return: Decimal
    message: str


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    failures: tuple[SweepFailure, ...]

    def curve(self, name: str) -> list[tuple[Decimal, float]]:
        return [
            (p.classical_return, p.value) for p in self.points if p.curve == name
        ]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["curve", "classical_return", "value"])
        for p in self.points:
            w.writerow([p.curve, str(p.classical_return), f"{p.value:.6f}"])
        return buf.getvalue()


SWEEP_CURVES = (
    ("bank_moc30", dict(moc=Decimal("30")), "bank_10y_return"),
    ("bank_moc43", dict(moc=Decimal("43")), "bank_10y_return"),
    ("din_10y", {}, "din_10y_return"),
    ("din_net_profit", {}, "din_net_profit"),
    ("bank_claw0", dict(clawback_fraction=Decimal("0")), "bank_10y_return"),
    ("bank_claw077", dict(clawback_fraction=Decimal("0.77")), "bank_10y_return"),
)


@in_money_context
def sweep_classical_return(config: ScenarioConfig, grid) -> SweepResult:
    """Rerun the scenario over a grid of portfolio returns, one row per
    (curve, grid point).  Each point is priced from its event log alone;
    no books are kept.  Point failures are recorded, not fatal.

    No curve overrides the seed, n_funds or the spread, so one synthesized
    spread serves the whole sweep, rescaled once per grid point.  Each
    distinct override set builds one config per point, and curves whose
    configs compare equal share one run: the rows keep only floats of
    replay's figures, which equal configs price equally."""
    targets = [Decimal(str(t)) for t in grid]
    if not targets:
        raise InvalidParameterError("sweep grid is empty")

    synthesized = synthesize_distribution(
        seed=config.seed, n_funds=config.n_funds, spread=config.spread
    )
    points: list[SweepPoint] = []
    failures: list[SweepFailure] = []
    for target in targets:
        # Rescaled at the first config that validates, so a target that
        # fails validation never reaches rescale_to_target.
        dist: ReturnDistribution | VentureBankError | None = None
        configs: dict[tuple, ScenarioConfig | VentureBankError] = {}
        runs: dict[ScenarioConfig, dict | VentureBankError] = {}
        for name, overrides, attr in SWEEP_CURVES:
            key = tuple(overrides.items())
            if key not in configs:
                try:
                    configs[key] = replace(
                        config, target_classical_return=target, **overrides
                    )
                except VentureBankError as exc:
                    configs[key] = exc
            cfg = configs[key]
            if isinstance(cfg, VentureBankError):
                failures.append(SweepFailure(name, target, str(cfg)))
                continue
            if dist is None:
                try:
                    dist = rescale_to_target(synthesized, cfg.target_classical_return)
                except VentureBankError as exc:
                    dist = exc
            if cfg not in runs:
                runs[cfg] = dist if isinstance(dist, VentureBankError) else _priced(cfg, dist)
            run = runs[cfg]
            if isinstance(run, VentureBankError):
                failures.append(SweepFailure(name, target, str(run)))
            else:
                points.append(SweepPoint(name, target, float(run[attr])))
    return SweepResult(points=tuple(points), failures=tuple(failures))


def _priced(config: ScenarioConfig, dist: ReturnDistribution) -> dict | VentureBankError:
    """price's figures for one sweep run, or the error that stopped it."""
    try:
        return price(_fund_rows(config, dist), config)
    except VentureBankError as exc:
        return exc
