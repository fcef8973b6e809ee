"""Scenario engine: full portfolio runs wiring fund outcomes through
note lifecycles and both sets of books, plus the return-sweep curves.

Every reported number is an aggregate over the run's event log, so a
serialized log replays to the identical report.
"""
from __future__ import annotations

import csv
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
    release_din_capital,
    write_investment_loan,
)
from .money import fmt, money
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

    def __post_init__(self) -> None:
        for name in (
            "reserve_fraction",
            "premium_rate",
            "equity_fraction",
            "coverage",
            "clawback_fraction",
            "bank_rate",
            "moc",
            "initial_capital",
        ):
            object.__setattr__(self, name, _finite_decimal(name, getattr(self, name)))
        if self.target_classical_return is not None:
            object.__setattr__(
                self,
                "target_classical_return",
                _finite_decimal(
                    "target_classical_return", self.target_classical_return
                ),
            )
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
        if self.n_funds < 1:
            raise InvalidParameterError("n_funds must be >= 1")
        if not 1 <= self.failure_year < self.exit_year:
            raise InvalidParameterError("need 1 <= failure_year < exit_year")
        if not self.exit_year <= self.horizon <= 15:
            raise InvalidParameterError("need exit_year <= horizon <= 15")
        if self.initial_capital <= 0:
            raise InvalidParameterError("initial_capital must be > 0")
        if self.moc <= 0:
            raise InvalidParameterError("moc must be > 0")
        limits = capital_limits(self.initial_capital, self.reserve_fraction)
        if money(self.moc * self.initial_capital) > limits.max_loan_limit:
            raise InvalidParameterError(
                f"moc {self.moc} exceeds the lending ceiling "
                f"{limits.max_loan_limit} for this capital base"
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


@dataclass(frozen=True)
class Event:
    seq: int
    year: int
    kind: str
    fund_id: str
    amount: Decimal
    detail: EventDetail | None = None


class _EventLog:
    def __init__(self) -> None:
        self._events: list[Event] = []

    def add(self, year: int, kind: str, fund_id: str, amount, detail=None) -> None:
        self._events.append(
            Event(len(self._events), year, kind, fund_id, money(amount), detail)
        )

    def events(self) -> tuple[Event, ...]:
        return tuple(self._events)


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


@dataclass(frozen=True)
class SimulationReport:
    config: ScenarioConfig
    classical_return: float
    underwriter_investment: Decimal
    premium_earnings_10y: Decimal
    din_net_profit: Decimal
    din_10y_return: float
    din_yearly_return: float
    bank_10y_return: float
    events: tuple[Event, ...]
    bank_ledger: Ledger
    underwriter_ledger: Ledger

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


@dataclass
class _RunState:
    config: ScenarioConfig
    distribution: ReturnDistribution
    notes: list[DinContract]  # one per fund, in distribution order
    bank: Ledger
    underwriter: Ledger
    capital: CapitalAccount
    log: _EventLog
    booked: Decimal


def _loan_faces(config: ScenarioConfig) -> list[Decimal]:
    total = money(config.moc * config.initial_capital)
    per = money(total / config.n_funds)
    faces = [per] * (config.n_funds - 1)
    faces.append(total - per * (config.n_funds - 1))
    return faces


def _mirror(state: _RunState, year: int, memo: str, debit: Account,
            credit: Account, amount: Decimal) -> None:
    """Post a bank-underwriter flow: the bank debits `debit` and credits
    `credit`, and the underwriter books the same amount the other way."""
    state.bank.post(year, memo, [dr(debit, amount), cr(credit, amount)])
    state.underwriter.post(year, memo, [dr(credit, amount), cr(debit, amount)])


def _initialize(config: ScenarioConfig) -> _RunState:
    dist = synthesize_distribution(
        seed=config.seed, n_funds=config.n_funds, spread=config.spread
    )
    if config.target_classical_return is not None:
        dist = rescale_to_target(dist, config.target_classical_return)

    bank = Ledger("bank")
    underwriter = Ledger("underwriter")
    log = _EventLog()
    capital = CapitalAccount(
        tier1_core=config.initial_capital, reserve_fraction=config.reserve_fraction
    )

    c = config.initial_capital
    bank.post(0, "paid-in capital", [dr(Account.CASH, c), cr(Account.TIER1_CORE, c)])
    log.add(0, "capital_injection", "", c)

    faces = _loan_faces(config)
    total_loans = sum(faces, Decimal("0"))
    insured_value = money(total_loans * config.coverage)

    # Insured-note value stands in as capital first, widening the loan
    # ceiling before the book is written.
    capital, booked, _ = book_din_to_capital(capital, insured_value)
    if booked > 0:
        before = CapitalAccount(
            tier1_core=config.initial_capital,
            reserve_fraction=config.reserve_fraction,
        )
        t1_part = capital.tier1_insured - before.tier1_insured
        t2_part = capital.tier2_insured - before.tier2_insured
        postings = []
        if t1_part > 0:
            postings.append(dr(Account.TIER1_INSURED, t1_part))
        if t2_part > 0:
            postings.append(dr(Account.TIER2_INSURED, t2_part))
        postings.append(cr(Account.EQUITY_HOLDINGS, booked))
        bank.post(0, "insured-asset capital recognition", postings)
        log.add(0, "din_booked", "", booked, DinBooked(t1_part, t2_part))

    if total_loans > capital.lending_limit:
        raise SimulationError(
            f"loan book {total_loans} exceeds post-booking limit "
            f"{capital.lending_limit}",
            year=0,
            account="loans",
        )

    notes = []
    for outcome, face in zip(dist.outcomes, faces):
        try:
            write_investment_loan(bank, capital, face, year=0, memo=f"loan {outcome.fund_id}")
        except LoanLimitError as exc:
            raise SimulationError(str(exc), year=0, account="loans") from exc
        log.add(0, "loan_issued", outcome.fund_id, face)
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
        bank.post(
            0,
            "investor drawdowns",
            [dr(Account.DEPOSITS, drawdown), cr(Account.CASH, drawdown)],
        )
        log.add(0, "deposit_drawdown", "", drawdown)

    return _RunState(
        config=config,
        distribution=dist,
        notes=notes,
        bank=bank,
        underwriter=underwriter,
        capital=capital,
        log=log,
        booked=booked,
    )


def _run_years(state: _RunState) -> None:
    """Collect premiums on every active note each year, then fire the
    bankruptcy and exit triggers in their years."""
    config = state.config
    policy = config.clawback_policy()
    premiums = [annual_premium(note, config.premium_rate) for note in state.notes]

    for year in range(1, config.horizon + 1):
        for note, premium in zip(state.notes, premiums):
            if note.state is DinState.ACTIVE:
                if premium > 0:
                    _mirror(state, year, f"premium {note.contract_id}",
                            Account.PREMIUMS_PAID, Account.CASH, premium)
                state.log.add(year, "premium_paid", note.contract_id, premium)

        if year == config.failure_year:
            _settle_failures(state, year, policy)
        if year == config.exit_year:
            _settle_exits(state, year)


def _settle_failures(state: _RunState, year: int, policy: ClawbackPolicy | None) -> None:
    config = state.config
    notes = state.notes
    for i, outcome in enumerate(state.distribution.outcomes):
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
        payout = settlement.cash_to_bank
        _mirror(state, year, f"note payout {fund}",
                Account.CASH, Account.PAYOUTS_RECEIVED, payout)
        state.log.add(
            year, "bankruptcy_payout", fund, payout,
            BankruptcyPayout(equity_valuation, outcome.ten_year_multiple),
        )

        state.bank.post(
            year,
            f"write off {fund}",
            [dr(Account.PAYOUTS_RECEIVED, face), cr(Account.LOANS, face)],
        )
        state.log.add(year, "loan_written_off", fund, face)

        if equity_valuation > 0:
            state.underwriter.post(
                year,
                f"salvage equity {fund}",
                [
                    dr(Account.EQUITY_HOLDINGS, equity_valuation),
                    cr(Account.PAYOUTS_RECEIVED, equity_valuation),
                ],
            )
            state.log.add(year, "equity_accepted", fund, equity_valuation)

        lien = settlement.lien
        if lien is not None:
            obligation = money(lien.fraction * lien.base)
            if obligation > 0:
                _mirror(state, year, f"clawback lien {fund}",
                        Account.PAYOUTS_RECEIVED, Account.LIEN_OBLIGATIONS, obligation)
            state.log.add(
                year, "lien_created", fund, lien.base,
                LienCreated(lien.fraction, lien.origin_year),
            )


def _settle_exits(state: _RunState, year: int) -> None:
    notes = state.notes
    for i, outcome in enumerate(state.distribution.outcomes):
        if outcome.classification == FAILURE:
            continue
        note = notes[i]
        fund, face = note.contract_id, note.principal
        notes[i], _ = apply_trigger(note, TriggerEvent(EXIT, year))
        proceeds = money(outcome.ten_year_multiple * face)
        uw_share, bank_share = exit_equity_split(
            proceeds, note.coverage, note.equity_fraction
        )

        postings = [dr(Account.CASH, face + bank_share), cr(Account.LOANS, face)]
        if bank_share > 0:
            postings.append(cr(Account.EQUITY_HOLDINGS, bank_share))
        state.bank.post(year, f"exit {fund}", postings)
        if uw_share > 0:
            state.underwriter.post(
                year,
                f"exit {fund}",
                [dr(Account.CASH, uw_share), cr(Account.EQUITY_HOLDINGS, uw_share)],
            )
        state.log.add(
            year, "exit_proceeds", fund, proceeds,
            ExitProceeds(face, uw_share, bank_share),
        )


def portfolio_closeout(state: _RunState, year: int | None = None) -> SimulationReport:
    """Settle every lien, release the capital booking, and close the books.

    Payouts have been parked since failure_year; their carrying cost to the
    closeout year is charged to the underwriter as event-log entries.
    """
    config = state.config
    closeout_year = config.exit_year if year is None else year

    for lien in (lien for note in state.notes for lien in note.liens):
        try:
            amount, settled = settle_clawback(
                lien, closeout_year, config.bank_rate, verdict=config.audit_verdict
            )
        except VentureBankError as exc:
            raise SimulationError(
                str(exc), year=closeout_year, account="lien_obligations"
            ) from exc
        fund = lien.contract_id
        delta = amount - money(lien.fraction * lien.base)
        if delta > 0:  # accrued interest joins the obligation
            _mirror(state, closeout_year, f"lien interest {fund}",
                    Account.PAYOUTS_RECEIVED, Account.LIEN_OBLIGATIONS, delta)
        elif delta < 0:  # option-B verdict released part of the pending base
            _mirror(state, closeout_year, f"lien release {fund}",
                    Account.LIEN_OBLIGATIONS, Account.PAYOUTS_RECEIVED, -delta)
        if amount > 0:
            _mirror(state, closeout_year, f"lien settled {fund}",
                    Account.LIEN_OBLIGATIONS, Account.CASH, amount)
        state.log.add(
            closeout_year, "lien_settled", fund, amount, LienSettled(settled.fraction)
        )

    for e in state.log.events():
        if e.kind != "bankruptcy_payout":
            continue
        parked = e.amount - e.detail.equity_valuation
        if parked > 0 and closeout_year > e.year:
            cost = carrying_cost(parked, e.year, closeout_year, config.bank_rate)
            if cost > 0:
                state.log.add(closeout_year, "carrying_cost", e.fund_id, cost)

    if state.booked > 0:
        acct = state.capital
        postings = [dr(Account.EQUITY_HOLDINGS, state.booked)]
        if acct.tier1_insured > 0:
            postings.append(cr(Account.TIER1_INSURED, acct.tier1_insured))
        if acct.tier2_insured > 0:
            postings.append(cr(Account.TIER2_INSURED, acct.tier2_insured))
        state.bank.post(closeout_year, "capital booking unwound", postings)
        state.capital, released = release_din_capital(acct)
        state.log.add(closeout_year, "din_released", "", released)

    figures = replay(state.log.events(), config)
    return SimulationReport(
        config=config,
        events=state.log.events(),
        bank_ledger=state.bank,
        underwriter_ledger=state.underwriter,
        **figures,
    )


def replay(events, config: ScenarioConfig) -> dict:
    """Aggregate an event log back into the report figures.

    This is the single pricing routine: run_scenario itself reports through
    it, so a serialized log reproduces the report exactly.
    """
    premiums = Decimal("0")
    payouts = Decimal("0")
    salvage = Decimal("0")
    clawed = Decimal("0")
    carrying = Decimal("0")
    uw_exit = Decimal("0")
    bank_exit = Decimal("0")

    for e in events:
        if e.kind == "premium_paid":
            premiums += e.amount
        elif e.kind == "bankruptcy_payout":
            payouts += e.amount
        elif e.kind == "equity_accepted":
            salvage += e.amount
        elif e.kind == "lien_settled":
            clawed += e.amount
        elif e.kind == "carrying_cost":
            carrying += e.amount
        elif e.kind == "exit_proceeds":
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

    classical = _classical_mean(events, config)

    return dict(
        classical_return=classical,
        underwriter_investment=investment,
        premium_earnings_10y=earnings,
        din_net_profit=net,
        din_10y_return=ten_year,
        din_yearly_return=yearly,
        bank_10y_return=bank_ten_year,
    )


def _classical_mean(events, config: ScenarioConfig) -> float:
    """Capital-weighted mean fund multiple, recovered from the log alone."""
    terminal: dict[str, Decimal] = {}
    faces: dict[str, Decimal] = {}
    for e in events:
        if e.kind == "loan_issued":
            faces[e.fund_id] = e.amount
        elif e.kind == "exit_proceeds":
            terminal[e.fund_id] = e.amount
        elif e.kind == "bankruptcy_payout":
            terminal[e.fund_id] = money(e.detail.multiple * faces[e.fund_id])
    if not faces:
        return 0.0
    total = sum((terminal.get(f, Decimal("0")) for f in faces), Decimal("0"))
    return float(total / sum(faces.values(), Decimal("0")))


def run_scenario(config: ScenarioConfig) -> SimulationReport:
    state = _initialize(config)
    _run_years(state)
    return portfolio_closeout(state)


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


def sweep_classical_return(config: ScenarioConfig, grid) -> SweepResult:
    """Rerun the scenario over a grid of portfolio returns, one row per
    (curve, grid point).  Point failures are recorded, not fatal."""
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
                report = run_scenario(cfg)
                value = getattr(report, attr)
                points.append(
                    SweepPoint(name, target, float(value))
                )
            except VentureBankError as exc:
                failures.append(SweepFailure(name, target, str(exc)))
    return SweepResult(points=tuple(points), failures=tuple(failures))
