"""Double-entry books and regulatory capital tracking."""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from decimal import Decimal

from .errors import (
    CapitalCapError,
    InvalidParameterError,
    LedgerBalanceError,
    LoanLimitError,
)
from .money import compound, money, money_floor


class Account(enum.Enum):
    TIER1_CORE = "tier1_core"
    TIER1_INSURED = "tier1_insured"
    TIER2_INSURED = "tier2_insured"
    LOANS = "loans"
    DEPOSITS = "deposits"
    CASH = "cash"
    PREMIUMS_PAID = "premiums_paid"
    PAYOUTS_RECEIVED = "payouts_received"
    LIEN_OBLIGATIONS = "lien_obligations"
    EQUITY_HOLDINGS = "equity_holdings"


@dataclass(frozen=True)
class Posting:
    account: Account
    debit: Decimal = Decimal("0")
    credit: Decimal = Decimal("0")

    def __post_init__(self) -> None:
        object.__setattr__(self, "debit", money(self.debit))
        object.__setattr__(self, "credit", money(self.credit))
        if self.debit < 0 or self.credit < 0:
            raise InvalidParameterError("posting amounts must be >= 0")
        if self.debit != 0 and self.credit != 0:
            raise InvalidParameterError("posting must be one-sided")


def dr(account: Account, amount) -> Posting:
    return Posting(account, debit=money(amount))


def cr(account: Account, amount) -> Posting:
    return Posting(account, credit=money(amount))


@dataclass(frozen=True)
class Transaction:
    year: int
    memo: str
    postings: tuple[Posting, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "postings", tuple(self.postings))
        debits = sum((p.debit for p in self.postings), Decimal("0"))
        credits = sum((p.credit for p in self.postings), Decimal("0"))
        if debits != credits:
            raise LedgerBalanceError(
                f"unbalanced transaction {self.memo!r}: "
                f"debits {debits} != credits {credits}"
            )


class Ledger:
    """Append-only journal.  Balances are signed debit-minus-credit, so
    asset accounts run positive and liability accounts negative."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._entries: list[Transaction] = []

    def post(self, year: int, memo: str, postings) -> Transaction:
        txn = Transaction(year=year, memo=memo, postings=tuple(postings))
        self._entries.append(txn)
        return txn

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        return tuple(self._entries)

    def balance(self, account: Account) -> Decimal:
        total = Decimal("0")
        for txn in self._entries:
            for p in txn.postings:
                if p.account is account:
                    total += p.debit - p.credit
        return total

    def balances(self) -> dict[Account, Decimal]:
        out = {account: Decimal("0") for account in Account}
        for txn in self._entries:
            for p in txn.postings:
                out[p.account] += p.debit - p.credit
        return out

    def trial_balance(self) -> Decimal:
        # zero by construction; kept as an audit hook
        return sum(self.balances().values(), Decimal("0"))


# Insured assets may stand in for at most 15% of tier 1, i.e. 3/17 of core.
TIER1_INSURED_NUM = Decimal(3)
TIER1_INSURED_DEN = Decimal(17)


@dataclass(frozen=True)
class CapitalAccount:
    """Regulatory capital stack: paid-in core plus insured-asset capital."""

    tier1_core: Decimal
    tier1_insured: Decimal = Decimal("0")
    tier2_insured: Decimal = Decimal("0")
    reserve_fraction: Decimal = Decimal("0.05")

    def __post_init__(self) -> None:
        object.__setattr__(self, "tier1_core", money(self.tier1_core))
        object.__setattr__(self, "tier1_insured", money(self.tier1_insured))
        object.__setattr__(self, "tier2_insured", money(self.tier2_insured))
        object.__setattr__(
            self, "reserve_fraction", Decimal(str(self.reserve_fraction))
        )
        if self.tier1_core <= 0:
            raise InvalidParameterError("tier1_core must be > 0")
        if not Decimal(0) < self.reserve_fraction <= 1:
            raise InvalidParameterError("reserve_fraction must be in (0, 1]")
        if self.tier1_insured > self.tier1_insured_cap:
            raise CapitalCapError("tier1_insured exceeds 15% of tier 1")
        if self.tier2_insured > self.tier1_total:
            raise CapitalCapError("tier 2 exceeds tier 1")

    @property
    def tier1_insured_cap(self) -> Decimal:
        # floored so a full booking never breaches the 15% test
        return money_floor(self.tier1_core * TIER1_INSURED_NUM / TIER1_INSURED_DEN)

    @property
    def tier1_total(self) -> Decimal:
        return self.tier1_core + self.tier1_insured

    @property
    def reserves_total(self) -> Decimal:
        return self.tier1_total + self.tier2_insured

    @property
    def lending_limit(self) -> Decimal:
        return money(self.reserves_total / self.reserve_fraction)


def book_din_to_capital(
    account: CapitalAccount, din_value
) -> tuple[CapitalAccount, Decimal, Decimal]:
    """Recognize insurance-note value as capital, respecting both caps.

    Fills tier 2 to the current tier 1 ceiling, then tier 1's insured slot,
    then tier 2 again (its ceiling rises with tier 1).  Returns the new
    account plus (booked, unbooked); booked + unbooked == din_value exactly.
    """
    remaining = money(din_value)
    if remaining < 0:
        raise InvalidParameterError("din_value must be >= 0")
    total = remaining

    t1i = account.tier1_insured
    t2 = account.tier2_insured

    take = min(remaining, account.tier1_core + t1i - t2)
    t2 += take
    remaining -= take

    take = min(remaining, account.tier1_insured_cap - t1i)
    t1i += take
    remaining -= take

    take = min(remaining, account.tier1_core + t1i - t2)
    t2 += take
    remaining -= take

    booked = total - remaining
    return (
        replace(account, tier1_insured=t1i, tier2_insured=t2),
        booked,
        remaining,
    )


def release_din_capital(account: CapitalAccount) -> tuple[CapitalAccount, Decimal]:
    """Unwind all insured-asset capital (portfolio close).  Returns the
    stripped account and the amount released."""
    released = account.tier1_insured + account.tier2_insured
    return replace(account, tier1_insured=Decimal("0"), tier2_insured=Decimal("0")), released


def write_investment_loan(
    ledger: Ledger, account: CapitalAccount, amount, year: int, memo: str = "investment loan"
) -> Transaction:
    """Create loan-funded deposits, refusing volume past the reserve limit."""
    amt = money(amount)
    if amt <= 0:
        raise InvalidParameterError("loan amount must be > 0")
    outstanding = ledger.balance(Account.LOANS)
    if outstanding + amt > account.lending_limit:
        raise LoanLimitError(
            f"loan book {outstanding + amt} would exceed limit {account.lending_limit}"
        )
    return ledger.post(
        year, memo, [dr(Account.LOANS, amt), cr(Account.DEPOSITS, amt)]
    )


def carrying_cost(amount, from_year: int, to_year: int, rate) -> Decimal:
    """Interest foregone on capital parked from one year to another."""
    if to_year < from_year:
        raise InvalidParameterError("to_year precedes from_year")
    base = money(amount)
    return money(compound(base, rate, to_year - from_year) - base)
