"""Scenario engine: `simulate` drives every fund's note through its
lifecycle and returns the run's event log; `post_books` derives both sets
of books from a log and `replay` prices it.  `run_scenario` is `simulate`
then `replay`; its report derives the books from the log when they are
first read.  The return-sweep curves price each point with `replay`.

Every reported number is an aggregate over the run's event log, so a
serialized log replays to the identical report.
"""
from __future__ import annotations

import csv
import enum
import io
import re
from dataclasses import dataclass, field, replace
from decimal import Decimal
from typing import NamedTuple, get_type_hints

from .contracts import (
    BANKRUPTCY,
    EXIT,
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
    exit_equity_split,
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
    book_din_to_capital,
    carrying_cost,
    cr,
    dr,
    write_investment_loan,
)
from .money import fmt, in_money_context, money

# Config validation checks the loan book against the engine's post-booking
# lending limit (_opening_book), not this ceiling; the name stays bound
# because the benchmark's layer tracer wraps
# venturebank.simulation.capital_limits.
from .multipliers import capital_limits
from .returns import (
    FAILURE,
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


def _finite_decimal(name: str, value) -> Decimal:
    try:
        d = Decimal(str(value))
        if d.is_finite():
            return d
    except ArithmeticError:
        pass
    raise InvalidParameterError(f"{name} must be a finite decimal, got {str(value)!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    reserve_fraction: Decimal = Decimal("0.05")
    premium_rate: Decimal = Decimal("0.05")
    equity_fraction: Decimal = Decimal("0.5")
    coverage: Decimal = Decimal("1")
    clawback_fraction: Decimal = Decimal("0.77")
    clawback_option: str = "A"
    bank_rate: Decimal = Decimal("0.03")
    moc: Decimal = Decimal("47")
    n_funds: int = 50
    target_classical_return: Decimal | None = None
    failure_year: int = 5
    exit_year: int = 10
    horizon: int = 10
    seed: int = 2024
    initial_capital: Decimal = Decimal("1")
    salvage_mode: str = "classical_multiple"
    exit_equity_mode: str = "investment_offset"
    audit_verdict: bool | None = None
    spread: SpreadParams = field(default_factory=SpreadParams)

    @in_money_context
    def __post_init__(self) -> None:
        for name in ("n_funds", "seed", "failure_year", "exit_year", "horizon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        names = ["reserve_fraction", "premium_rate", "equity_fraction", "coverage",
                 "clawback_fraction", "bank_rate", "moc", "initial_capital"]
        if self.target_classical_return is not None:
            names.append("target_classical_return")
        for name in names:
            object.__setattr__(self, name, _finite_decimal(name, getattr(self, name)))
        if not Decimal(0) < self.reserve_fraction <= 1:
            raise InvalidParameterError("reserve_fraction must be in (0, 1]")
        for name in ("premium_rate", "equity_fraction", "coverage"):
            v = getattr(self, name)
            if not Decimal(0) <= v <= 1:
                raise InvalidParameterError(f"{name} must be in [0, 1]")
        if self.clawback_fraction not in ALLOWED_CLAWBACK:
            raise InvalidParameterError("clawback_fraction must be 0, 0.77, or 1.0")
        if self.clawback_option not in ("A", "B", "C"):
            raise InvalidParameterError("clawback_option must be A, B, or C")
        if self.clawback_fraction == Decimal("1.0") and self.clawback_option != "B":
            raise InvalidParameterError("full clawback runs through option B")
        if self.clawback_fraction == Decimal("0.77") and self.clawback_option == "B":
            raise InvalidParameterError("option B carries the full base, not 0.77")
        if self.bank_rate < 0:
            raise InvalidParameterError("bank_rate must be >= 0")
        if not 2 <= self.n_funds <= MAX_FUNDS:
            raise InvalidParameterError(
                f"n_funds must be >= 2 and <= {MAX_FUNDS}, got {self.n_funds}")
        if self.seed < 0:
            raise InvalidParameterError("seed must be >= 0")
        if not 1 <= self.failure_year < self.exit_year:
            raise InvalidParameterError("need 1 <= failure_year < exit_year")
        if not self.exit_year <= self.horizon <= 15:
            raise InvalidParameterError("need exit_year <= horizon <= 15")
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
        if self.audit_verdict not in (None, True, False):
            raise InvalidParameterError("audit_verdict must be true, false or null")
        self.spread.validate()
        book, capital, _ = _opening_book(self)
        if book > capital.lending_limit:
            raise InvalidParameterError(
                f"moc {self.moc} puts a loan book of {book:f} past the lending "
                f"limit {capital.lending_limit:f} that initial_capital "
                f"{self.initial_capital:f} and the insured notes at coverage "
                f"{self.coverage} allow"
            )
        per, last = _loan_faces(self)
        if per <= 0 or last <= 0:
            raise InvalidParameterError(
                f"moc * initial_capital / n_funds leaves a loan face <= 0 at "
                f"9 decimal places (moc {self.moc}, initial_capital "
                f"{self.initial_capital}, n_funds {self.n_funds})"
            )

    def clawback_policy(self) -> ClawbackPolicy | None:
        """None when the notes are written without the clawback rider."""
        if self.clawback_fraction == 0:
            return None
        return ClawbackPolicy(
            option=self.clawback_option,
            fraction=self.clawback_fraction,
            bank_rate=self.bank_rate,
        )

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
EVENT_KINDS = (
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
)


@dataclass(frozen=True)
class Event:
    seq: int
    year: int
    kind: str
    fund_id: str
    amount: Decimal
    detail: EventDetail | None = None


# The CSV cell template of each record type, and for each kind that
# carries a detail: its record, a regex with one group per field, and the
# field types, which parse those groups.
_DETAIL_FORMATS = {
    record: "|".join(f"{name}={{}}" for name in record._fields)
    for record in EVENT_DETAILS.values()
}
_DETAIL_READERS = {
    kind: (
        record,
        re.compile(r"\|".join(f"{name}=([^|]*)" for name in record._fields)),
        tuple(get_type_hints(record).values()),
    )
    for kind, record in EVENT_DETAILS.items()
}


def events_to_csv(events) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(EVENT_COLUMNS)
    for e in events:
        d = e.detail
        detail = "" if d is None else _DETAIL_FORMATS[type(d)].format(*d)
        w.writerow([e.seq, e.year, e.kind, e.fund_id, str(e.amount), detail])
    return buf.getvalue()


def _parse_detail(kind: str, text: str) -> EventDetail:
    if kind not in _DETAIL_READERS:
        raise ValueError(f"{kind} carries no detail, got {text!r}")
    record, pattern, types = _DETAIL_READERS[kind]
    match = pattern.fullmatch(text)
    if match is None:
        raise ValueError(f"{kind} detail {text!r} does not have the keys {record._fields}")
    return record(*[parse(value) for parse, value in zip(types, match.groups())])


def events_from_csv(text: str) -> tuple[Event, ...]:
    """Parse events.csv.  A malformed row raises InvalidParameterError
    naming its line."""
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != list(EVENT_COLUMNS):
        raise InvalidParameterError("not an event-log CSV")
    out = []
    for row in reader:
        try:
            if len(row) != len(EVENT_COLUMNS):
                raise ValueError(f"expected {len(EVENT_COLUMNS)} columns, got {len(row)}")
            seq, year, kind, fund_id, amount, detail = row
            if kind not in EVENT_KINDS:
                raise ValueError(f"unknown event kind {kind!r}")
            out.append(
                Event(int(seq), int(year), kind, fund_id, Decimal(amount),
                      _parse_detail(kind, detail)
                      if detail or kind in _DETAIL_READERS else None)
            )
        except (ValueError, ArithmeticError) as exc:
            reason = exc if isinstance(exc, ValueError) else "a value is not a decimal"
            raise InvalidParameterError(
                f"event log line {reader.line_num}: {reason}"
            ) from exc
    return tuple(out)


class _OnDemand(enum.Enum):
    # An enum member, so that a pickled report's unread ledger is still
    # ON_DEMAND when loaded.
    ON_DEMAND = "on_demand"


# A report ledger field's value until a read derives the ledger.
ON_DEMAND = _OnDemand.ON_DEMAND


class _Book:
    """A SimulationReport ledger field.  The constructor's value is kept
    as given, unless it is ON_DEMAND: then the first read of either ledger
    derives every ON_DEMAND ledger of the report from its events, by one
    post_books call, and keeps them."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:
            # No class-level value, so the dataclass field has no default.
            raise AttributeError(self.name)
        books = report.__dict__
        if books[self.name] is ON_DEMAND:
            bank, underwriter = post_books(report.events, report.config)
            for name, ledger in (("bank_ledger", bank),
                                 ("underwriter_ledger", underwriter)):
                if books[name] is ON_DEMAND:
                    books[name] = ledger
        return books[self.name]

    def __set__(self, report, value) -> None:
        report.__dict__[self.name] = value


@dataclass(frozen=True)
class SimulationReport:
    """One run's figures and event log.  The two ledgers are given to the
    constructor, or ON_DEMAND: derived from the events on first read."""

    config: ScenarioConfig
    classical_return: float
    underwriter_investment: Decimal
    premium_earnings_10y: Decimal
    din_net_profit: Decimal
    din_10y_return: float
    din_yearly_return: float
    bank_10y_return: float
    events: tuple[Event, ...]
    bank_ledger: Ledger = _Book()
    underwriter_ledger: Ledger = _Book()

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


def _opening_book(config: ScenarioConfig) -> tuple[Decimal, CapitalAccount, Decimal]:
    """Year 0 before any loan: the loan book moc * initial_capital, the
    capital stack once the insured-note value on that book is booked as
    capital, and the amount booked.  The booking widens the lending limit
    the book must fit; config validation and simulate both take it from
    here, so a config that validates is a book the engine can write."""
    book = money(config.moc * config.initial_capital)
    capital, booked, _ = book_din_to_capital(
        CapitalAccount(tier1_core=config.initial_capital,
                       reserve_fraction=config.reserve_fraction),
        money(book * config.coverage),
    )
    return book, capital, booked


def _loan_faces(config: ScenarioConfig) -> tuple[Decimal, Decimal]:
    """The loan face of every fund but the last, and the last fund's face,
    which takes the rounding remainder so the faces sum to the book."""
    total = money(config.moc * config.initial_capital)
    per = money(total / config.n_funds)
    return per, total - per * (config.n_funds - 1)


@in_money_context
def simulate(config: ScenarioConfig) -> tuple[Event, ...]:
    """Run one scenario and return its event log.

    Year 0 injects capital, books the insured-note value and writes one
    loan per fund.  Each year every active note pays its premium; then, in
    distribution order, the failures settle at failure_year and the exits
    at exit_year.  Closeout at exit_year settles the liens in note order,
    charges the carrying cost of each parked payout, and releases the
    capital booking.
    """
    events: list[Event] = []

    def emit(year: int, kind: str, fund_id: str, amount: Decimal,
             detail=None) -> Event:
        # Every amount arrives quantized to 9 places.
        event = Event(len(events), year, kind, fund_id, amount, detail)
        events.append(event)
        return event

    dist = synthesize_distribution(
        seed=config.seed, n_funds=config.n_funds, spread=config.spread
    )
    if config.target_classical_return is not None:
        dist = rescale_to_target(dist, config.target_classical_return)

    emit(0, "capital_injection", "", money(config.initial_capital))

    # Insured-note value stands in as capital first, widening the loan
    # ceiling before the book is written; config validation has checked
    # that the book fits it.
    total_loans, capital, booked = _opening_book(config)
    if booked > 0:
        emit(0, "din_booked", "", booked,
             DinBooked(capital.tier1_insured, capital.tier2_insured))

    per, last = _loan_faces(config)
    faces = [per] * (config.n_funds - 1) + [last]
    notes = []  # one per fund, in distribution order
    for outcome, face in zip(dist.outcomes, faces):
        emit(0, "loan_issued", outcome.fund_id, face)
        notes.append(
            DinContract(
                outcome.fund_id,
                face,
                coverage=config.coverage,
                equity_fraction=config.equity_fraction,
                term_years=config.horizon,
            )
        )

    drawdown = money(total_loans * Decimal("0.5"))
    if drawdown > 0:
        emit(0, "deposit_drawdown", "", drawdown)

    policy = config.clawback_policy()
    premiums = [annual_premium(note, config.premium_rate) for note in notes]
    payouts: list[Event] = []
    liens = []
    for year in range(1, config.horizon + 1):
        for note, premium in zip(notes, premiums):
            if note.state is DinState.ACTIVE:
                emit(year, "premium_paid", note.contract_id, premium)

        if year == config.failure_year:
            for i, outcome in enumerate(dist.outcomes):
                if outcome.classification != FAILURE:
                    continue
                note = notes[i]
                fund, face = note.contract_id, note.principal
                if config.salvage_mode == "zero":
                    equity_valuation = Decimal("0")
                else:
                    equity_valuation = money(outcome.ten_year_multiple * face)
                notes[i], settlement = apply_trigger(
                    note,
                    TriggerEvent(BANKRUPTCY, year, payload=equity_valuation),
                    clawback=policy,
                )
                payouts.append(emit(
                    year, "bankruptcy_payout", fund, settlement.cash_to_bank,
                    BankruptcyPayout(equity_valuation, outcome.ten_year_multiple),
                ))
                emit(year, "loan_written_off", fund, face)
                if equity_valuation > 0:
                    emit(year, "equity_accepted", fund, equity_valuation)
                lien = settlement.lien
                if lien is not None:
                    liens.append(lien)
                    emit(year, "lien_created", fund, lien.base,
                         LienCreated(lien.fraction, lien.origin_year))

        if year == config.exit_year:
            for i, outcome in enumerate(dist.outcomes):
                if outcome.classification == FAILURE:
                    continue
                note = notes[i]
                notes[i], _ = apply_trigger(note, TriggerEvent(EXIT, year))
                proceeds = money(outcome.ten_year_multiple * note.principal)
                uw_share, bank_share = exit_equity_split(
                    proceeds, note.coverage, note.equity_fraction
                )
                emit(year, "exit_proceeds", note.contract_id, proceeds,
                     ExitProceeds(note.principal, uw_share, bank_share))

    closeout = config.exit_year
    for lien in liens:
        try:
            amount, settled = settle_clawback(
                lien, closeout, config.bank_rate, verdict=config.audit_verdict
            )
        except VentureBankError as exc:
            raise SimulationError(
                str(exc), year=closeout, account="lien_obligations"
            ) from exc
        emit(closeout, "lien_settled", lien.contract_id, amount,
             LienSettled(settled.fraction))

    # Payouts are parked from failure_year; their carrying cost to the
    # closeout year is the underwriter's foregone interest.
    for payout in payouts:
        parked = payout.amount - payout.detail.equity_valuation
        if parked > 0:
            cost = carrying_cost(parked, payout.year, closeout, config.bank_rate)
            if cost > 0:
                emit(closeout, "carrying_cost", payout.fund_id, cost)

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


@in_money_context
def replay(events, config: ScenarioConfig) -> dict:
    """Aggregate an event log back into the report figures, in one pass.

    This is the single pricing routine: run_scenario and the sweep both
    report through it, so a serialized log reproduces the report exactly.
    """
    premiums = Decimal("0")
    payouts = Decimal("0")
    salvage = Decimal("0")
    clawed = Decimal("0")
    carrying = Decimal("0")
    uw_exit = Decimal("0")
    bank_exit = Decimal("0")
    faces: dict[str, Decimal] = {}  # loan face per fund
    terminal = Decimal("0")  # every fund's value at its failure or exit

    def face_of(e: Event) -> Decimal:
        if e.fund_id not in faces:
            raise SimulationError(f"{e.kind} for {e.fund_id!r} with no loan_issued",
                                  year=e.year, account="loans")
        return faces[e.fund_id]

    for e in events:
        kind = e.kind
        if kind == "premium_paid":
            premiums += e.amount
        elif kind == "loan_issued":
            faces[e.fund_id] = e.amount
        elif kind == "bankruptcy_payout":
            payouts += e.amount
            terminal += money(e.detail.multiple * face_of(e))
        elif kind == "equity_accepted":
            salvage += e.amount
        elif kind == "lien_settled":
            clawed += e.amount
        elif kind == "carrying_cost":
            carrying += e.amount
        elif kind == "exit_proceeds":
            face_of(e)
            terminal += e.amount
            uw_exit += e.detail.uw_share
            bank_exit += e.detail.bank_share

    outlay = (payouts - salvage) + carrying - clawed
    if config.exit_equity_mode == "investment_offset":
        outlay -= uw_exit
        earnings = premiums
    else:
        earnings = premiums + uw_exit
    investment = -outlay

    net = earnings + investment
    magnitude = abs(investment)
    if magnitude > 0:
        ten_year = float(earnings / magnitude)
    else:
        ten_year = float("inf")
    yearly = ten_year ** 0.1 - 1 if ten_year != float("inf") else float("inf")

    c = config.initial_capital
    bank_gains = payouts - premiums + bank_exit - clawed
    bank_ten_year = float((c + bank_gains) / c)

    # The capital-weighted mean fund multiple.
    loans = sum(faces.values(), Decimal("0"))
    classical = float(terminal / loans) if faces else 0.0

    return dict(
        classical_return=classical,
        underwriter_investment=investment,
        premium_earnings_10y=earnings,
        din_net_profit=net,
        din_10y_return=ten_year,
        din_yearly_return=yearly,
        bank_10y_return=bank_ten_year,
    )


@in_money_context
def run_scenario(config: ScenarioConfig) -> SimulationReport:
    """simulate, then replay's figures; the books wait for a reader."""
    events = simulate(config)
    return SimulationReport(
        config=config,
        events=events,
        bank_ledger=ON_DEMAND,
        underwriter_ledger=ON_DEMAND,
        **replay(events, config),
    )


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
    (
        "bank_claw077",
        dict(clawback_fraction=Decimal("0.77"), clawback_option="A"),
        "bank_10y_return",
    ),
)


@in_money_context
def sweep_classical_return(config: ScenarioConfig, grid) -> SweepResult:
    """Rerun the scenario over a grid of portfolio returns, one row per
    (curve, grid point).  Each point is priced from its event log alone;
    no books are kept.  Point failures are recorded, not fatal."""
    targets = [Decimal(str(t)) for t in grid]
    if not targets:
        raise InvalidParameterError("sweep grid is empty")

    points: list[SweepPoint] = []
    failures: list[SweepFailure] = []
    for target in targets:
        for name, overrides, attr in SWEEP_CURVES:
            try:
                cfg = replace(
                    config, target_classical_return=target, **overrides
                )
                value = replay(simulate(cfg), cfg)[attr]
                points.append(SweepPoint(name, target, float(value)))
            except VentureBankError as exc:
                failures.append(SweepFailure(name, target, str(exc)))
    return SweepResult(points=tuple(points), failures=tuple(failures))
