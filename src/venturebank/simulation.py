"""Scenario engine: a run is `Funds`, one column per field in
distribution order.  `_fund_columns` drives every fund's note through its
lifecycle a column at a time, `render` writes a run's `Funds` as its
`EventLog`, `funds_of` folds a log back into `Funds`, and `price` prices
`Funds` into the report figures.  `replay` prices a log's `funds_of`,
and `run_scenario` renders and prices the engine's `Funds`; its report
keeps the log, so `post_books(report.events, report.config)` gives its
books.  The return-sweep curves price each point's `Funds` and never
build a log.

Every reported number is priced from the `Funds` that the run's log
folds back to, so a serialized log replays to the identical report under
the config that wrote it; `replay` refuses it under any other.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from decimal import Decimal, Inexact, localcontext
from itertools import compress, count, islice, repeat, zip_longest
from typing import NamedTuple, get_type_hints

from .contracts import (
    BANKRUPTCY,
    TERM_CAP_YEARS,
    ClawbackPolicy,
    DinContract,
    DinState,
    TriggerEvent,
    annual_premium,
    apply_trigger,
    # Notes build their liens inside apply_trigger; the name stays bound here
    # because the benchmark's layer tracer (perfbench/tracing.py) wraps
    # venturebank.simulation.create_clawback.
    create_clawback,
    settle_clawback,
)
from .errors import InvalidParameterError, VentureBankError
from .ledger import (
    Account,
    CapitalAccount,
    Ledger,
    _carrying_cost,
    book_din_to_capital,
    cr,
    dr,
    # Loans post by their _TWO_LEG rule; the name stays bound here because
    # the benchmark's layer tracer wraps
    # venturebank.simulation.write_investment_loan.
    write_investment_loan,
)
from .money import (
    DECIMAL_CONTEXT,
    MONEY_LIMIT,
    MONEY_SCALE,
    ZERO,
    csv_text,
    finite,
    fmt,
    fraction,
    in_money_context,
    money,
    money_products,
)

# Config validation checks the loan book against the engine's post-booking
# lending limit (_opening_book), not this ceiling; the name stays bound
# because the benchmark's layer tracer wraps
# venturebank.simulation.capital_limits.
from .multipliers import capital_limits
from .returns import (
    FAILURE,
    MAX_FUNDS,
    ReturnDistribution,
    SpreadParams,
    check_draw,
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

# A float survivor multiple exceeds survivor_max by at most two roundings,
# each below survivor_max * 2**-52.
_FLOAT_SLACK = 1 + Decimal(2) ** -50

# Sums that must not round: the totals of a run's Funds, from a log or not.
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
        for name in ("reserve_fraction", "premium_rate", "equity_fraction", "coverage",
                     "clawback_fraction", "bank_rate", "moc", "initial_capital"):
            object.__setattr__(self, name, _finite_decimal(name, getattr(self, name)))
        fraction(self.reserve_fraction, "reserve_fraction", open_low=True)
        for name in ("premium_rate", "equity_fraction", "coverage", "bank_rate"):
            fraction(getattr(self, name), name)
        if self.clawback_fraction not in ALLOWED_CLAWBACK:
            raise InvalidParameterError("clawback_fraction must be 0, 0.77, or 1.0")
        check_draw(self.seed, self.n_funds)
        if not 1 <= self.failure_year < self.exit_year <= TERM_CAP_YEARS:
            raise InvalidParameterError(
                f"need 1 <= failure_year < exit_year <= {TERM_CAP_YEARS}")
        # money(initial_capital) <= 0: it rounds half-even to 9 places.
        if self.initial_capital <= MONEY_SCALE / 2:
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
            book, _, _, per, last, _, limit = self.opening_book
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
        self._check_target()

    def _check_target(self) -> None:
        """The checks that read target_classical_return, which come last in
        __post_init__: the target is a finite decimal on the money scale,
        and the amounts of a run stay below it."""
        target = self.target_classical_return
        if target is not None:
            target = _finite_decimal("target_classical_return", target)
            object.__setattr__(self, "target_classical_return", target)
        # Every amount of a run, every total of its log and every figure
        # priced from them is at most `reach`: the capital, plus the book
        # times its premiums over exit_year, its payouts, its funds' values
        # at failure or exit, and its liens and carrying costs grown at
        # bank_rate to closeout.  A multiple is at most survivor_max, up to
        # two float roundings, plus the rescaling shift, itself at most the
        # target; each 1 covers rounding to 9 places.  Below MONEY_LIMIT
        # every sum of them is exact at 28 digits, in any order.
        capital, book, survivor, premiums, growth = self._reach_terms
        largest = survivor + max(target or ZERO, ZERO) + 1
        reach = capital + book * (premiums + largest + growth)
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
    def _reach_terms(self) -> tuple[Decimal, Decimal, Decimal, Decimal, Decimal]:
        """The terms of _check_target's bound that do not read the target,
        in the order it adds them: the capital plus 1, the opening book, the
        largest multiple before the shift, 1 plus the premiums over
        exit_year, and twice the growth at bank_rate to closeout.  Built
        once, in the money context of __post_init__; a config from
        _at_target keeps its source's."""
        growth = (1 + self.bank_rate) ** (self.exit_year - self.failure_year)
        return (self.initial_capital + 1, self.opening_book[0],
                Decimal(self.spread.survivor_max) * _FLOAT_SLACK,
                1 + self.premium_rate * self.exit_year, 2 * growth)

    @in_money_context
    def _at_target(self, target) -> "ScenarioConfig":
        """replace(self, target_classical_return=target), for a config that
        validated: every other field was checked when self was built, so
        only _check_target runs again, and the copy keeps self's
        opening_book and _reach_terms."""
        derived = object.__new__(type(self))
        derived.__dict__.update(self.__dict__)
        object.__setattr__(derived, "target_classical_return", target)
        derived._check_target()
        return derived

    @functools.cached_property
    def opening_book(self) -> tuple[Decimal, CapitalAccount, Decimal, Decimal, Decimal,
                                    Decimal, Decimal]:
        """_opening_book(self): built once, by __post_init__, and kept off
        the fields, so ==, hash, repr and replace do not see it.  A config
        from _at_target keeps the one its source built."""
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


# The declared type of each field of a detail record: int or Decimal.
_DECLARED = {name: hint for record in EVENT_DETAILS.values()
             for name, hint in get_type_hints(record).items()}


@dataclass(frozen=True, init=False)
class EventLog:
    """A log as (year, rows) blocks, a row an event's last four fields, and
    a block a maximal run of rows that share one year and one "is
    premium_paid", never empty.  Only render and events_from_csv build one,
    through _of: a log is a run's rendering or text the reader checked, so
    nothing that takes a log checks its types again, and EventLog(blocks)
    raises TypeError.  Iteration builds each Event, its seq its position,
    as it is read."""

    blocks: tuple[tuple[int, tuple], ...]

    @classmethod
    def _of(cls, blocks: tuple[tuple[int, tuple], ...]) -> "EventLog":
        log = object.__new__(cls)
        object.__setattr__(log, "blocks", blocks)
        return log

    def __iter__(self):
        seq = count()
        return (tuple.__new__(Event, (next(seq), year, *row))
                for year, rows in self.blocks for row in rows)


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
    try:
        value = Decimal(text)
        if value.is_finite() and str(value) == text:
            return value
    except ArithmeticError:
        pass
    value = finite(text, name)  # refuses text that is no finite decimal
    raise ValueError(f"{name} must be written {value}, got {text!r}")


# The CSV cell template of each record type, and for each kind that
# carries a detail: its record, each field's key as its cell spells it
# ("name="), and for each field the length of that key, its name and its
# parser, _year or _decimal.
_DETAIL_FORMATS = {
    record: "|".join(f"{name}={{}}" for name in record._fields)
    for record in EVENT_DETAILS.values()
}
_DETAIL_READERS = {
    kind: (record, tuple(f"{name}=" for name in record._fields),
           tuple((len(name) + 1, name, _year if _DECLARED[name] is int else _decimal)
                 for name in record._fields))
    for kind, record in EVENT_DETAILS.items()
}


_EVENT_HEADER = ",".join(EVENT_COLUMNS)

# The event-log grammar: no cell holds ',', '"', '\r', '\n' or NUL (each is
# quoted, or refused, by csv.writer on some Python version), and no line is
# longer than MAX_LINE, csv's default field limit.
MAX_LINE = 131072


@in_money_context
def events_to_csv(log: EventLog) -> str:
    """events.csv: one row per event, each cell its str() and a detail its
    name=value pairs in field order, joined by "|", in f-strings; the cells
    after the year are formatted once per rows tuple.  A log is a run's
    rendering or text events_from_csv read, so its cells are in the
    grammar, and the text is not read again."""
    formats, lines, shared = _DETAIL_FORMATS, [], None
    for year, block in log.blocks:
        if block is not shared:
            shared, tails = block, [
                f",{kind!s},{fund_id!s},{amount!s},"
                f"{'' if detail is None else formats[type(detail)].format(*detail)}"
                for kind, fund_id, amount, detail in block]
        year = f",{year}"
        lines += [f"{seq}{year}{tail}" for seq, tail in zip(count(len(lines)), tails)]
    return "\n".join([_EVENT_HEADER, *lines, ""])


def _parse_detail(kind: str, text: str) -> EventDetail:
    if kind not in _DETAIL_READERS:
        raise ValueError(f"{kind} carries no detail, got {text!r}")
    record, keys, fields = _DETAIL_READERS[kind]
    pairs = text.split("|")
    if len(pairs) != len(keys) or not all(map(str.startswith, pairs, keys)):
        raise ValueError(f"{kind} detail {text!r} does not have the keys {record._fields}")
    return tuple.__new__(record, [parse(pair[at:], name)
                                  for (at, name, parse), pair in zip(fields, pairs)])


@in_money_context
def events_from_csv(text: str) -> EventLog:
    """Parse events.csv into an EventLog, in one pass that builds no Event:
    a block per run of rows with one year cell and one "is premium_paid",
    the blocks render writes.  Text that events_to_csv could not have
    written raises InvalidParameterError naming its line: no newline at the
    end, a '"', '\\r' or NUL anywhere, a line longer than MAX_LINE, or a
    malformed row.  Row i is line i + 2 split on ','; it is malformed unless
    seq is its position, year and a lien's origin plain integers in
    [0, TERM_CAP_YEARS], and every decimal cell spelled as its str()."""
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
    blocks: list[tuple[int, list]] = []
    block_year = block_premium = None
    # A log repeats a few amounts (each fund's premium, the loan face) and
    # details (each failure class's payout, lien and settlement) many
    # times; each distinct cell is read once, a detail into its kind's
    # dict, which for a kind with no detail holds the empty cell alone.
    amounts: dict[str, Decimal] = {}
    details = {kind: {} if kind in EVENT_DETAILS else {"": None} for kind in EVENT_KINDS}
    try:
        for cells, position in zip(map(str.split, islice(lines, 1, None), repeat(",")),
                                   map(str, count())):
            seq, year, kind, fund_id, amount, detail = cells
            read = details.get(kind)
            if read is None:
                raise ValueError(f"unknown event kind {kind!r}")
            value = amounts.get(amount)
            if value is None:
                value = amounts[amount] = _decimal(amount, "amount")
            if seq != position:
                raise ValueError(f"seq must be {position}, the row's position, got {seq!r}")
            premium = kind == "premium_paid"
            if year != block_year or premium is not block_premium:
                blocks.append((_year(year, "year"), rows := []))
                block_year, block_premium = year, premium
            try:
                parsed = read[detail]
            except KeyError:
                parsed = read[detail] = _parse_detail(kind, detail)
            rows.append((kind, fund_id, value, parsed))
    except ValueError as exc:  # InvalidParameterError is one
        if len(cells) != len(EVENT_COLUMNS):  # the row did not unpack
            exc = ValueError(f"expected {len(EVENT_COLUMNS)} columns, "
                             f"got {0 if cells == [''] else len(cells)}")
        raise InvalidParameterError(f"event log line {int(position) + 2}: {exc}") from exc
    return EventLog._of(tuple((year, tuple(rows)) for year, rows in blocks))


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
    events: EventLog
    # Nothing in the package sets these; perfbench's worker still passes
    # None for both.
    bank_ledger: Ledger | None = None
    underwriter_ledger: Ledger | None = None

    def to_csv(self) -> str:
        return csv_text(REPORT_COLUMNS, [[
            str(self.config.premium_rate),
            f"{self.classical_return:.6f}",
            fmt(self.underwriter_investment),
            fmt(self.premium_earnings_10y),
            fmt(self.din_net_profit),
            f"{self.din_10y_return:.6f}",
            f"{self.din_yearly_return:.6f}",
            str(self.config.equity_fraction),
        ]])


def _opening_book(config: ScenarioConfig) -> tuple[Decimal, CapitalAccount, Decimal, Decimal,
                                                  Decimal, Decimal, Decimal]:
    """Year 0 before any loan: the loan book moc * initial_capital, the
    capital stack once the insured-note value on that book is booked as
    capital (widening the lending limit the book must fit), the amount
    booked, the loan faces: every fund's but the last, and the last,
    which takes the remainder so that they sum to the book, and the
    investors' drawdown of half the book, and the capital stack's lending
    limit.  Config validation, the engine and price all take it from here,
    so a config that validates is a book the engine can write."""
    book = money(config.moc * config.initial_capital)
    capital, booked, _ = book_din_to_capital(
        CapitalAccount(tier1_core=config.initial_capital,
                       reserve_fraction=config.reserve_fraction),
        money(book * config.coverage),
    )
    per = money(book / config.n_funds)
    return (book, capital, booked, per, book - per * (config.n_funds - 1),
            money(book * Decimal("0.5")), capital.lending_limit)


class Funds(NamedTuple):
    """A run, one column per field: each a tuple in distribution order,
    None where a fund logs no such event.  The engine computes it, render
    logs it, funds_of folds it back from a log, and price prices it."""

    fund_id: tuple[str, ...]
    face: tuple[Decimal, ...]  # loan_issued, which opens a fund's entry
    premium: tuple[Decimal | None, ...]  # premium_paid, each year to failure or exit
    payout: tuple[Decimal | None, ...]  # bankruptcy_payout and its detail
    failure: tuple[BankruptcyPayout | None, ...]
    worth: tuple[Decimal | None, ...]  # multiple * face at failure
    salvage: tuple[Decimal | None, ...]  # equity_accepted
    lien: tuple[Decimal | None, ...]  # lien_created and its detail
    lien_terms: tuple[LienCreated | None, ...]
    clawed: tuple[Decimal | None, ...]  # lien_settled and its detail
    settled: tuple[LienSettled | None, ...]
    carrying: tuple[Decimal | None, ...]  # carrying_cost
    proceeds: tuple[Decimal | None, ...]  # exit_proceeds and its detail
    exit: tuple[ExitProceeds | None, ...]


def _fund_columns(config: ScenarioConfig, dist: ReturnDistribution) -> Funds:
    """The engine, on a spread already synthesized and rescaled for config:
    the portfolio's Funds.  run_scenario renders and prices them; the sweep
    prices them alone, sharing one spread between the curves of a grid
    point.

    Exits and failures are picked out by their classification, in
    whatever order they come.  Every per-fund product is taken a column at
    a time by money_products: each fund's multiple * face, its exit
    proceeds or its worth at failure, and each exit's insured amount and
    underwriter share.  A failure's payout, lien, lien settlement and
    carrying cost depend on its note only through its loan face and equity
    valuation, its class.  Failures of one class are adjacent, so each run
    of them is settled once, by one apply_trigger on the run's first note,
    and every fund of the run repeats that settlement; a lien settlement
    and a carrying cost are also kept across runs until their inputs
    change."""
    # Notes, triggers and the arithmetic take their inputs unchecked: the
    # config was checked when built, which also refused a loan face <= 0
    # and any amount past the money scale.  A note or a detail is built by
    # tuple.__new__ itself.
    per, last = config.opening_book[3:5]
    coverage, equity_fraction = config.coverage, config.equity_fraction
    terms = (coverage, equity_fraction, DinState.ACTIVE, ())
    policy, rate, zero = config.clawback_policy(), config.bank_rate, config.salvage_mode == "zero"
    failed, closeout, new = config.failure_year, config.exit_year, tuple.__new__
    funds, multiples, classes = dist.fund_ids, dist.multiples, dist.outcomes
    faces = (per,) * (config.n_funds - 1) + (last,)
    exiting = [c != FAILURE for c in classes]
    failing = [not exits for exits in exiting]
    values = money_products(multiples, faces)  # an exit's proceeds, a failure's worth

    # Every note but the last has the same face and terms, so one premium.
    premium = {face: annual_premium(new(DinContract, ("", face, *terms)), config.premium_rate)
               for face in {per, last}}

    # Each exit's fields from payout on: None up to its proceeds and their
    # split.  An exit settles nothing a field records: its trigger is not
    # applied.
    proceeds = list(compress(values, exiting))
    insured = money_products(proceeds, repeat(coverage))
    uw_shares = money_products(insured, repeat(equity_fraction))
    exit_fields = zip(*(repeat(None),) * 9, proceeds, map(new, repeat(ExitProceeds), zip(
        compress(faces, exiting), uw_shares, map(DECIMAL_CONTEXT.subtract, insured, uw_shares))))

    # Each failure's: its payout, detail and worth, then the fields from
    # salvage on, which its class shares with its payout.  A run of
    # failures of one class repeats the fields of its first.
    worth = list(compress(values, failing))
    valuations = [ZERO] * len(worth) if zero else worth
    payouts: list[Decimal] = []
    shared: list[tuple] = []
    class_face = class_valuation = lien_key = parked_at = None
    for fund, face, valuation in zip(compress(funds, failing), compress(faces, failing),
                                     valuations):
        if valuation != class_valuation or face != class_face:
            class_face, class_valuation = face, valuation
            _, settlement = apply_trigger(new(DinContract, (fund, face, *terms)),
                                          TriggerEvent._make((BANKRUPTCY, failed, valuation)),
                                          clawback=policy)
            payout, lien = settlement.cash_to_bank, settlement.lien
            # A lien's settlement depends on every field but its contract_id.
            if lien is not None and lien[1:] != lien_key:
                lien_key = lien[1:]
                clawed, resolved = settle_clawback(lien, closeout, rate,
                                                   verdict=config.audit_verdict)
                lien_fields = (lien.base, LienCreated(lien.fraction, lien.origin_year), clawed,
                               LienSettled(resolved.fraction))
            # Parked to closeout, the payout costs the underwriter its interest.
            parked = payout - valuation
            if parked > 0 and parked != parked_at:
                parked_at, cost = parked, _carrying_cost(parked, closeout - failed, rate)
            fields = (valuation if valuation > 0 else None,
                      *((None,) * 4 if lien is None else lien_fields),
                      cost if parked > 0 and cost > 0 else None, None, None)
        payouts.append(payout)
        shared.append(fields)
    failure_fields = map(tuple.__add__, zip(payouts, map(new, repeat(BankruptcyPayout), zip(
        valuations, compress(multiples, failing))), worth), shared)

    # Exits and failures merged back into distribution order.
    merged = [next(exit_fields) if exits else next(failure_fields) for exits in exiting]
    return Funds(funds, faces, (premium[per],) * (len(faces) - 1) + (premium[last],),
                 *zip(*merged))


@in_money_context
def render(funds: Funds, config: ScenarioConfig) -> EventLog:
    """The event log of a run's Funds.  Year 0 injects capital, books the
    insured-note value and writes one loan per fund.  Each year every
    active note pays its one premium; then, in distribution order, the failures
    settle at failure_year.  Closeout at exit_year logs the exits, then
    the liens settled and the payouts' carrying costs in note order, and
    releases the capital booking.  Every amount but the opening book's is
    the Funds' own, and a block with no row is left out."""
    _, capital, booked, _, _, drawdown, _ = config.opening_book
    rows = [("capital_injection", "", capital.tier1_core, None)]
    if booked > 0:
        rows.append(("din_booked", "", booked,
                     DinBooked(capital.tier1_insured, capital.tier2_insured)))
    rows += zip(repeat("loan_issued"), funds.fund_id, funds.face, repeat(None))
    if drawdown > 0:
        rows.append(("deposit_drawdown", "", drawdown, None))
    blocks = [(0, tuple(rows))]
    failing = [failure is not None for failure in funds.failure]
    paying = tuple(zip(repeat("premium_paid"), funds.fund_id, funds.premium, repeat(None)))
    for year in range(1, config.exit_year + 1):
        blocks.append((year, paying))
        if year == config.failure_year:
            rows = []
            for fund, face, payout, failure, salvage, lien, terms in compress(zip(
                    funds.fund_id, funds.face, funds.payout, funds.failure, funds.salvage,
                    funds.lien, funds.lien_terms), failing):
                rows += (("bankruptcy_payout", fund, payout, failure),
                         ("loan_written_off", fund, face, None))
                if salvage is not None:
                    rows.append(("equity_accepted", fund, salvage, None))
                if terms is not None:
                    rows.append(("lien_created", fund, lien, terms))
            blocks.append((year, tuple(rows)))
            paying = tuple(compress(paying, [not fails for fails in failing]))
    rows = [("exit_proceeds", fund, proceeds, exit)
            for fund, proceeds, exit in zip(funds.fund_id, funds.proceeds, funds.exit)
            if exit is not None]
    rows += [("lien_settled", fund, clawed, settled) for fund, clawed, settled, terms in zip(
        funds.fund_id, funds.clawed, funds.settled, funds.lien_terms)
        if settled is not None and terms is not None]  # a settlement needs its lien
    rows += [("carrying_cost", fund, carrying, None)
             for fund, carrying in zip(funds.fund_id, funds.carrying) if carrying is not None]
    if booked > 0:
        rows.append(("din_released", "", booked, None))
    blocks.append((config.exit_year, tuple(rows)))
    return EventLog._of(tuple(block for block in blocks if block[1]))


# The two-leg kinds: the memo, formatted with the fund id; the bank's debit
# and credit; whether the bank books it and whether the underwriter books its
# mirror; and whether an amount of 0 posts, as it does for all but a premium.
_TWO_LEG = {
    "capital_injection": ("paid-in capital", Account.CASH, Account.TIER1_CORE, True, False, True),
    "loan_issued": ("loan {}", Account.LOANS, Account.DEPOSITS, True, False, True),
    "deposit_drawdown": ("investor drawdowns", Account.DEPOSITS, Account.CASH, True, False, True),
    "premium_paid": ("premium {}", Account.PREMIUMS_PAID, Account.CASH, True, True, False),
    "bankruptcy_payout": ("note payout {}", Account.CASH, Account.PAYOUTS_RECEIVED,
                          True, True, True),
    "loan_written_off": ("write off {}", Account.PAYOUTS_RECEIVED, Account.LOANS,
                         True, False, True),
    "equity_accepted": ("salvage equity {}", Account.PAYOUTS_RECEIVED,
                        Account.EQUITY_HOLDINGS, False, True, True),
}


def _post_flow(books: tuple[Ledger, Ledger], year: int, memo: str, amount: Decimal,
               debit: Account, credit: Account, banked=True, mirrored=True, zero_posts=False):
    """Post amount, if above 0 or zero_posts, as the bank's debit and credit
    if banked, and as the underwriter's mirror of them if mirrored."""
    if amount > 0 or zero_posts:
        if banked:
            books[0].post(year, memo, [dr(debit, amount), cr(credit, amount)])
        if mirrored:
            books[1].post(year, memo, [dr(credit, amount), cr(debit, amount)])


@in_money_context
def post_books(log: EventLog, config: ScenarioConfig) -> tuple[Ledger, Ledger]:
    """The bank's and the underwriter's books of a log that replay accepts
    under config, so config's rendering; any other is refused as replay
    refuses it, a loan past the lending limit among them.  The capital
    stack is config's opening book.  A two-leg kind posts by its _TWO_LEG
    rule; carrying_cost, foregone interest, posts nothing."""
    replay(log, config)
    capital = config.opening_book[1]
    tiers = [tier for tier in ((Account.TIER1_INSURED, capital.tier1_insured),
                               (Account.TIER2_INSURED, capital.tier2_insured)) if tier[1] > 0]
    books = bank, _ = Ledger("bank"), Ledger("underwriter")
    obligations: dict[str, Decimal] = {}  # lien obligation per fund
    for year, rows in log.blocks:
        for kind, fund, amount, detail in rows:
            rule = _TWO_LEG.get(kind)
            if rule is not None:
                memo, *flow = rule
                _post_flow(books, year, memo.format(fund), amount, *flow)
            elif kind == "din_booked":
                bank.post(year, "insured-asset capital recognition", [
                    *(dr(*tier) for tier in tiers), cr(Account.EQUITY_HOLDINGS, amount)])
            elif kind == "din_released":
                bank.post(year, "capital booking unwound", [
                    dr(Account.EQUITY_HOLDINGS, amount), *(cr(*tier) for tier in tiers)])
            elif kind == "exit_proceeds":
                face, uw_share, bank_share = detail
                bank.post(year, f"exit {fund}", [
                    dr(Account.CASH, face + bank_share), cr(Account.LOANS, face),
                    *([cr(Account.EQUITY_HOLDINGS, bank_share)] if bank_share > 0 else [])])
                _post_flow(books, year, f"exit {fund}", uw_share, Account.EQUITY_HOLDINGS,
                           Account.CASH, banked=False)
            elif kind == "lien_created":
                obligation = obligations[fund] = money(detail.fraction * amount)
                _post_flow(books, year, f"clawback lien {fund}", obligation,
                           Account.PAYOUTS_RECEIVED, Account.LIEN_OBLIGATIONS)
            elif kind == "lien_settled":
                delta = amount - obligations[fund]  # interest, or below 0 a verdict's release
                _post_flow(books, year, f"lien interest {fund}", delta,
                           Account.PAYOUTS_RECEIVED, Account.LIEN_OBLIGATIONS)
                _post_flow(books, year, f"lien release {fund}", -delta,
                           Account.LIEN_OBLIGATIONS, Account.PAYOUTS_RECEIVED)
                _post_flow(books, year, f"lien settled {fund}", amount,
                           Account.LIEN_OBLIGATIONS, Account.CASH)
    return books


# The Funds field each folded kind fills with its amount; a kind that
# carries a detail fills the next field with it.
_FOLDED = {kind: Funds._fields.index(name) for kind, name in (
    ("loan_issued", "face"), ("premium_paid", "premium"),
    ("bankruptcy_payout", "payout"), ("equity_accepted", "salvage"),
    ("lien_created", "lien"), ("lien_settled", "clawed"),
    ("carrying_cost", "carrying"), ("exit_proceeds", "proceeds"))}
_FACE, _FAILURE, _WORTH = (Funds._fields.index(name) for name in ("face", "failure", "worth"))


def _rounded(name: str) -> InvalidParameterError:
    """The refusal of a total that rounds: it is not the same sum in every
    order."""
    return InvalidParameterError(
        f"the {name} total is past the 28 digits of the money context")


@in_money_context
def funds_of(log: EventLog) -> Funds:
    """Fold a log's blocks into its Funds, the inverse of render: one
    entry per fund, opened by its loan_issued, in log order, whose fields
    its rows fill, each field from its first row; a row of a fund with no
    loan before it is skipped.  Then one money_products takes the worth of
    each entry with a failure.  It refuses nothing; replay refuses a log
    it does not render."""
    entries: dict[str, list] = {}
    entry_of, folded, blank = entries.get, _FOLDED.get, (None,) * (len(Funds._fields) - 1)
    for _, rows in log.blocks:
        for kind, fund, amount, detail in rows:
            at = folded(kind)
            if at is not None:
                entry = entry_of(fund)
                if entry is None:
                    if kind != "loan_issued":
                        continue
                    entry = entries[fund] = [fund, *blank]
                if entry[at] is None:
                    entry[at] = amount
                    if kind in EVENT_DETAILS:
                        entry[at + 1] = detail
    failed = [entry for entry in entries.values() if entry[_FAILURE] is not None]
    for entry, worth in zip(failed, money_products(
            [entry[_FAILURE].multiple for entry in failed],
            [entry[_FACE] for entry in failed])):
        entry[_WORTH] = worth
    return Funds._make(zip(*entries.values()) if entries else repeat((), len(Funds._fields)))


@in_money_context
def price(funds: Funds, config: ScenarioConfig) -> dict:
    """The report figures of a run's Funds: the one pricing routine, which
    run_scenario and the sweep call on the engine's Funds and replay on a
    log's, so a serialized log reproduces the report exactly.  A fund pays
    its premium to failure_year, or exit_year if it does not fail.  A
    total that would round at 28 digits is refused by name, as are premium
    earnings below 0, a loan face or total not above 0 and a loan total
    past the opening book's lending limit, none of which a run logs."""
    totals = {}
    try:
        with localcontext(_EXACT):
            name, pairs = "premiums", [*zip(funds.premium, funds.failure)]
            failing = [p for p, failure in pairs if failure is not None and p is not None]
            exiting = [p for p, failure in pairs if failure is None and p is not None]
            totals[name] = (config.failure_year * sum(failing, ZERO)
                            + config.exit_year * sum(exiting, ZERO))
            for name in ("payout", "salvage", "clawed", "carrying", "worth",
                         "proceeds", "face"):
                totals[name] = sum([a for a in getattr(funds, name) if a is not None], ZERO)
            for name in ("uw_share", "bank_share"):
                totals[name] = sum([getattr(e, name) for e in funds.exit if e is not None],
                                   ZERO)
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
    if funds.face:
        # The mean fund multiple is per unit lent.  The books write each
        # loan in turn against the lending limit; with every face above 0,
        # the total is the largest book they reach.
        lowest, limit = min(funds.face), config.opening_book[6]
        if loans <= 0:
            raise InvalidParameterError(f"the loan total {loans} is not above 0")
        if lowest <= 0:
            raise InvalidParameterError(f"the loan face {lowest} is not above 0")
        if loans > limit:
            raise InvalidParameterError(
                f"the loan total {loans} is past the lending limit {limit}")
    investment = -outlay

    net = earnings + investment
    magnitude = abs(investment)
    ten_year = float(earnings / magnitude) if magnitude > 0 else float("inf")
    yearly = ten_year ** 0.1 - 1 if ten_year != float("inf") else float("inf")

    c = config.initial_capital
    bank_gains = payouts - premiums + totals["bank_share"] - clawed
    bank_ten_year = float((c + bank_gains) / c)

    # The capital-weighted mean fund multiple.
    classical = float(terminal / loans) if funds.face else 0.0

    return dict(classical_return=classical, underwriter_investment=investment,
                premium_earnings_10y=earnings, din_net_profit=net, din_10y_return=ten_year,
                din_yearly_return=yearly, bank_10y_return=bank_ten_year)


@in_money_context
def replay(log: EventLog, config: ScenarioConfig) -> dict:
    """The report figures of an event log under the config that wrote it:
    the price of its funds_of.  A log that config does not render from its
    funds_of (a loan issued twice or never, a second payout, uneven
    premiums) is refused as InvalidParameterError naming the first event
    and field that differ, an event missing from either side with seq
    None; price refuses the rest by name, loans past the lending limit
    among them."""
    funds = funds_of(log)
    rendering = render(funds, config)
    if rendering != log:
        pairs = zip_longest(log, rendering, fillvalue=(None,) * len(EVENT_COLUMNS))
        for seq, pair in enumerate(pairs):
            for name, value, rendered in zip(EVENT_COLUMNS, *pair):
                if value != rendered:
                    raise InvalidParameterError(
                        f"event {seq}: {name} {value!r} where the config renders "
                        f"{rendered!r}; the log was not written under this config")
    return price(funds, config)


@in_money_context
def run_scenario(config: ScenarioConfig) -> SimulationReport:
    """A run's Funds, rendered as the report's log and priced for its
    figures.  The books are `post_books(report.events, report.config)`."""
    dist = synthesize_distribution(
        seed=config.seed, n_funds=config.n_funds, spread=config.spread
    )
    if config.target_classical_return is not None:
        dist = rescale_to_target(dist, config.target_classical_return)
    funds = _fund_columns(config, dist)
    return SimulationReport(config=config, events=render(funds, config),
                            **price(funds, config))


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
        return csv_text(["curve", "classical_return", "value"],
                        [[p.curve, str(p.classical_return), f"{p.value:.6f}"]
                         for p in self.points])


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
    """Rerun the scenario over a grid of portfolio returns, one point or
    failure per (curve, grid point).  Each point prices the engine's
    Funds; no event log or book is built.  Point failures are
    recorded, not fatal; a grid point that is no decimal at all is
    refused, before any spread is synthesized.

    No curve overrides the seed, n_funds or the spread, so one synthesized
    spread serves the whole sweep, rescaled once per grid point.  Each
    distinct override set builds one config per point, and curves whose
    configs compare equal share one run: a point keeps only a float of
    price's figures, which equal configs price equally.

    Only the target changes from point to point.  An override set's config
    is built in full, by replace, until it validates at some point; at each
    later point it is that config's _at_target, which checks the target
    alone, keeps the opening book, and equals the replace it stands for or
    raises its error."""
    targets = [_grid_point(position, t) for position, t in enumerate(grid)]
    if not targets:
        raise InvalidParameterError("sweep grid is empty")

    synthesized = synthesize_distribution(
        seed=config.seed, n_funds=config.n_funds, spread=config.spread
    )
    points: list[SweepPoint] = []
    failures: list[SweepFailure] = []
    validated: dict[tuple, ScenarioConfig] = {}  # per override set, once it validates
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
                    if key in validated:
                        configs[key] = validated[key]._at_target(target)
                    else:
                        configs[key] = validated[key] = replace(
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


def _grid_point(position: int, value) -> Decimal:
    """A sweep point as a Decimal, read as money.finite reads it.  NaN, an
    infinity and a decimal past the money scale pass, to fail as a row on
    each curve; text that is not a decimal, None and a bool (an int to
    Python, but JSON's true or false, not a number) raise
    InvalidParameterError naming the point."""
    if not isinstance(value, bool):
        try:
            return Decimal(value if isinstance(value, (str, int)) else str(value))
        except ArithmeticError:  # the text is not a decimal
            pass
    raise InvalidParameterError(
        f"sweep grid point {position} must be a decimal, got {str(value)!r}")


def _priced(config: ScenarioConfig, dist: ReturnDistribution) -> dict | VentureBankError:
    """price's figures for one sweep run, or the error that stopped it."""
    try:
        return price(_fund_columns(config, dist), config)
    except VentureBankError as exc:
        return exc
