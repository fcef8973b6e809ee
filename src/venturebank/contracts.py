"""Insurance note lifecycle: trigger events, payout choices, clawback liens."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from decimal import Decimal

from .errors import (
    ForcedTriggerError,
    InvalidParameterError,
    MissingVerdictError,
    StateTransitionError,
    TermCapError,
    TerminalStateError,
)
from .money import compound, money


class DinState(enum.Enum):
    ACTIVE = "active"
    TRIGGERED = "triggered"
    PAID_OUT = "paid_out"
    EXITED = "exited"
    CLOSED = "closed"
    VOID = "void"


TERMINAL_STATES = frozenset(
    {DinState.PAID_OUT, DinState.EXITED, DinState.CLOSED, DinState.VOID}
)
LIVE_STATES = frozenset({DinState.ACTIVE, DinState.TRIGGERED})

# Trigger kinds.
BANKRUPTCY = "bankruptcy"
EXIT = "exit"
PREMIUM_DEFAULT = "premium_default"
OFFER_REFUSAL = "offer_refusal"
FAILURE_TO_INFORM = "failure_to_inform"

# Bankruptcy and exit admit no waiver: the payout/transfer happens by contract.
FORCED_TRIGGERS = frozenset({BANKRUPTCY, EXIT})

TERM_CAP_YEARS = 15
DEFAULT_SEIZURE_FRACTION = Decimal("1")


class LienResolution(enum.Enum):
    UNRESOLVED = "unresolved"
    RELEASED23 = "released23"  # 77% collected, remaining 23% released
    FULL_RECOVERY = "full_recovery"


@dataclass(frozen=True)
class TriggerEvent:
    """A lifecycle event observed on the insured loan.

    payload meaning depends on kind: bankruptcy carries the residual equity
    valuation, exit carries sale proceeds, offer_refusal carries the refused
    offer amount.  Other kinds leave it None.
    """

    kind: str
    year: int
    payload: Decimal | None = None

    def __post_init__(self) -> None:
        if self.kind not in (
            BANKRUPTCY,
            EXIT,
            PREMIUM_DEFAULT,
            OFFER_REFUSAL,
            FAILURE_TO_INFORM,
        ):
            raise InvalidParameterError(f"unknown trigger kind: {self.kind!r}")
        if self.payload is not None:
            object.__setattr__(self, "payload", money(self.payload))


@dataclass(frozen=True)
class Choice:
    """Underwriter's election when a trigger fires."""

    kind: str
    payment: Decimal | None = None


EXERCISE = Choice("exercise")
WAIVE = Choice("waive")


def renegotiate_for(payment) -> Choice:
    """Keep the note alive in exchange for a one-off payment to the underwriter."""
    amount = money(payment)
    if amount < 0:
        raise InvalidParameterError("renegotiation payment must be >= 0")
    return Choice("renegotiate", amount)


@dataclass(frozen=True)
class ClawbackPolicy:
    """Lien terms attached at payout time.

    option A: fixed 77% recovery, no audit involvement.
    option B: recovery pending an audit verdict (77% or 100% at settlement).
    option C: fixed 77% but the lien is flagged for audit follow-up.
    """

    option: str = "A"
    fraction: Decimal = Decimal("0.77")
    bank_rate: Decimal = Decimal("0.03")

    def __post_init__(self) -> None:
        if self.option not in ("A", "B", "C"):
            raise InvalidParameterError(f"unknown clawback option: {self.option!r}")
        object.__setattr__(self, "fraction", Decimal(str(self.fraction)))
        object.__setattr__(self, "bank_rate", Decimal(str(self.bank_rate)))
        if self.option == "B" and self.fraction != Decimal("1"):
            raise InvalidParameterError("option B liens carry the full base until verdict")
        if not Decimal(0) <= self.fraction <= Decimal(1):
            raise InvalidParameterError("clawback fraction must be in [0, 1]")


@dataclass(frozen=True)
class ClawbackLien:
    """Bank's claim against future recoveries on a paid-out note."""

    contract_id: str
    base: Decimal
    fraction: Decimal  # 0.77 fixed, or 1.00 while an option-B verdict is pending
    origin_year: int
    option: str = "A"
    audit_flagged: bool = False
    resolution: LienResolution = LienResolution.UNRESOLVED


@dataclass(frozen=True)
class Settlement:
    """Cash and equity movements produced by resolving one trigger."""

    cash_to_bank: Decimal = Decimal("0")
    cash_to_underwriter: Decimal = Decimal("0")
    equity_to_underwriter: Decimal = Decimal("0")  # fraction of investor equity
    lien: ClawbackLien | None = None


@dataclass(frozen=True)
class DinContract:
    contract_id: str
    principal: Decimal
    coverage: Decimal = Decimal("1")  # insured fraction of principal
    equity_fraction: Decimal = Decimal("0.5")
    term_years: int = 10
    state: DinState = DinState.ACTIVE
    pending: TriggerEvent | None = None
    liens: tuple[ClawbackLien, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "principal", money(self.principal))
        object.__setattr__(self, "coverage", Decimal(str(self.coverage)))
        object.__setattr__(self, "equity_fraction", Decimal(str(self.equity_fraction)))
        if self.principal < 0:
            raise InvalidParameterError("principal must be >= 0")
        if not Decimal(0) <= self.coverage <= Decimal(1):
            raise InvalidParameterError("coverage must be in [0, 1]")
        if not Decimal(0) <= self.equity_fraction <= Decimal(1):
            raise InvalidParameterError("equity_fraction must be in [0, 1]")
        if not 1 <= self.term_years <= TERM_CAP_YEARS:
            raise InvalidParameterError(
                f"term_years must be in [1, {TERM_CAP_YEARS}]"
            )

    @property
    def insured_value(self) -> Decimal:
        return money(self.principal * self.coverage)


def _require_live(contract: DinContract) -> None:
    if contract.state in TERMINAL_STATES:
        raise TerminalStateError(
            f"{contract.contract_id} is {contract.state.value}; no further transitions"
        )


def _require_active(contract: DinContract) -> None:
    _require_live(contract)
    if contract.state is not DinState.ACTIVE:
        raise StateTransitionError(
            f"{contract.contract_id} already has a pending trigger"
        )


def record_trigger(contract: DinContract, event: TriggerEvent) -> DinContract:
    """Move an active note into the triggered state, holding the event."""
    _require_active(contract)
    return replace(contract, state=DinState.TRIGGERED, pending=event)


def resolve_trigger(
    contract: DinContract,
    choice: Choice,
    clawback: ClawbackPolicy | None = None,
    seizure_fraction: Decimal = DEFAULT_SEIZURE_FRACTION,
) -> tuple[DinContract, Settlement]:
    """Resolve the pending trigger per the underwriter's choice.

    Returns the successor contract and the settlement it produces.  A
    clawback policy of None means the note was written without the lien
    rider; bankruptcy payouts then leave no claim behind.
    """
    _require_live(contract)
    if contract.state is not DinState.TRIGGERED or contract.pending is None:
        raise StateTransitionError(f"{contract.contract_id} has no pending trigger")
    return _resolve(contract, contract.pending, choice, clawback, seizure_fraction)


def _resolve(
    contract: DinContract,
    event: TriggerEvent,
    choice: Choice,
    clawback: ClawbackPolicy | None,
    seizure_fraction: Decimal,
) -> tuple[DinContract, Settlement]:
    """Settle `event` on a live note: the successor, in one replace, and
    its settlement."""
    if event.kind in FORCED_TRIGGERS and choice.kind != "exercise":
        raise ForcedTriggerError(
            f"{event.kind} admits no {choice.kind}; payout is contractual"
        )

    if event.kind == BANKRUPTCY:
        payout = contract.insured_value
        equity_valuation = event.payload if event.payload is not None else Decimal("0")
        lien = None
        if clawback is not None:
            lien = create_clawback(
                contract.contract_id,
                max(payout - equity_valuation, Decimal("0")),
                clawback,
                origin_year=event.year,
            )
        nxt = replace(
            contract,
            state=DinState.PAID_OUT,
            pending=None,
            liens=contract.liens + ((lien,) if lien else ()),
        )
        return nxt, Settlement(
            cash_to_bank=payout,
            equity_to_underwriter=Decimal("1"),
            lien=lien,
        )

    if event.kind == EXIT:
        nxt = replace(contract, state=DinState.EXITED, pending=None)
        return nxt, Settlement(
            equity_to_underwriter=contract.coverage * contract.equity_fraction
        )

    if event.kind == PREMIUM_DEFAULT:
        if choice.kind == "exercise":
            nxt = replace(contract, state=DinState.CLOSED, pending=None)
            return nxt, Settlement(equity_to_underwriter=Decimal("1"))
        if choice.kind == "renegotiate":
            nxt = replace(contract, state=DinState.ACTIVE, pending=None)
            return nxt, Settlement(cash_to_underwriter=choice.payment or Decimal("0"))
        nxt = replace(contract, state=DinState.ACTIVE, pending=None)
        return nxt, Settlement()

    if event.kind == OFFER_REFUSAL:
        if choice.kind == "exercise":
            offer = event.payload if event.payload is not None else Decimal("0")
            # Underwriter recovers the bank-side slice of the refused upside.
            upside = max(offer - contract.insured_value, Decimal("0"))
            nxt = replace(contract, state=DinState.CLOSED, pending=None)
            return nxt, Settlement(
                cash_to_bank=money((Decimal(1) - contract.equity_fraction) * upside),
                equity_to_underwriter=Decimal("1"),
            )
        nxt = replace(contract, state=DinState.ACTIVE, pending=None)
        return nxt, Settlement()

    # FAILURE_TO_INFORM
    if choice.kind == "exercise":
        nxt = replace(contract, state=DinState.CLOSED, pending=None)
        return nxt, Settlement(equity_to_underwriter=Decimal(str(seizure_fraction)))
    nxt = replace(contract, state=DinState.ACTIVE, pending=None)
    return nxt, Settlement()


def apply_trigger(
    contract: DinContract,
    event: TriggerEvent,
    choice: Choice = EXERCISE,
    clawback: ClawbackPolicy | None = None,
    seizure_fraction: Decimal = DEFAULT_SEIZURE_FRACTION,
) -> tuple[DinContract, Settlement]:
    """record_trigger + resolve_trigger in one step, from the active note
    straight to its successor."""
    _require_active(contract)
    return _resolve(contract, event, choice, clawback, seizure_fraction)


def detach(contract: DinContract) -> DinContract:
    """Sever the note from its loan.  A detached note is void, not tradable."""
    _require_live(contract)
    return replace(contract, state=DinState.VOID, pending=None)


def annual_premium(contract: DinContract, rate) -> Decimal:
    """Premium due this year: rate on the insured value.  Active notes only.

    Rounded once, as money(rate * principal * coverage); rounding the
    insured value first moves some premiums by one unit when coverage < 1.
    """
    if contract.state is not DinState.ACTIVE:
        raise StateTransitionError(
            f"premium due only on active notes, not {contract.state.value}"
        )
    return money(Decimal(str(rate)) * contract.principal * contract.coverage)


def extend_term(contract: DinContract, new_term_years: int) -> DinContract:
    if contract.state is not DinState.ACTIVE:
        raise StateTransitionError("only active notes can be extended")
    if new_term_years <= contract.term_years:
        raise InvalidParameterError("extension must lengthen the term")
    if new_term_years > TERM_CAP_YEARS:
        raise TermCapError(
            f"term capped at {TERM_CAP_YEARS} years, got {new_term_years}"
        )
    return replace(contract, term_years=new_term_years)


def exit_equity_split(
    investor_equity, coverage, equity_fraction
) -> tuple[Decimal, Decimal]:
    """Split insured exit equity between underwriter and bank.

    The insured slice of the investor's equity is coverage * investor_equity;
    the underwriter keeps its contracted fraction, the bank the remainder.
    """
    value = money(investor_equity)
    insured = money(value * Decimal(str(coverage)))
    to_underwriter = money(insured * Decimal(str(equity_fraction)))
    return to_underwriter, money(insured - to_underwriter)


def create_clawback(
    contract_id: str, base, policy: ClawbackPolicy, origin_year: int
) -> ClawbackLien:
    amount = money(base)
    if amount < 0:
        raise InvalidParameterError("lien base must be >= 0")
    return ClawbackLien(
        contract_id=contract_id,
        base=amount,
        fraction=policy.fraction,
        origin_year=origin_year,
        option=policy.option,
        audit_flagged=(policy.option == "C"),
    )


def settle_clawback(
    lien: ClawbackLien,
    settlement_year: int,
    bank_rate,
    verdict: bool | None = None,
) -> tuple[Decimal, ClawbackLien]:
    """Collect a lien at settlement_year: base grown at bank_rate from origin,
    times the recovery fraction.

    Option B requires an audit verdict; fraud confirmed collects the full
    base, otherwise the standard 77% with the rest released.
    """
    if lien.resolution is not LienResolution.UNRESOLVED:
        raise StateTransitionError("lien already settled")
    if settlement_year < lien.origin_year:
        raise InvalidParameterError("settlement year precedes lien origin")

    fraction = lien.fraction
    if lien.option == "B":
        if verdict is None:
            raise MissingVerdictError(
                f"option B lien on {lien.contract_id} needs an audit verdict"
            )
        fraction = Decimal("1") if verdict else Decimal("0.77")

    resolution = (
        LienResolution.FULL_RECOVERY
        if fraction == Decimal("1")
        else LienResolution.RELEASED23
    )
    grown = compound(lien.base, bank_rate, settlement_year - lien.origin_year)
    settled = replace(lien, fraction=fraction, resolution=resolution)
    return money(fraction * grown), settled
