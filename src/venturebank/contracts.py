"""Insurance note lifecycle: trigger events, payout choices, clawback liens."""
from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal
from typing import NamedTuple

from .errors import (
    ForcedTriggerError,
    InvalidParameterError,
    MissingVerdictError,
    StateTransitionError,
    TerminalStateError,
)
from .money import DECIMAL_CONTEXT, ONE, ZERO, compound, finite, fraction, money


class DinState(enum.Enum):
    # apply_trigger settles a trigger in one step and never enters
    # TRIGGERED; registry records may carry it, and it counts as live.
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

# No note runs past this; ScenarioConfig bounds exit_year by it.
TERM_CAP_YEARS = 15
DEFAULT_SEIZURE_FRACTION = Decimal("1")


CLAWBACK_OPTIONS = ("A", "B")


class LienResolution(enum.Enum):
    UNRESOLVED = "unresolved"
    RELEASED23 = "released23"  # 77% collected, remaining 23% released
    FULL_RECOVERY = "full_recovery"


class _TriggerFields(NamedTuple):
    kind: str
    year: int
    payload: Decimal | None


class TriggerEvent(_TriggerFields):
    """A lifecycle event observed on the insured loan.

    payload meaning depends on kind: bankruptcy carries the residual equity
    valuation, exit carries sale proceeds, offer_refusal carries the refused
    offer amount.  Other kinds leave it None.

    Checked once when built.  _make and _replace build an event without
    checking it; the engine builds its bankruptcy events with _make from
    values already checked.
    """

    __slots__ = ()

    def __new__(cls, kind, year, payload=None):
        if kind not in (
            BANKRUPTCY,
            EXIT,
            PREMIUM_DEFAULT,
            OFFER_REFUSAL,
            FAILURE_TO_INFORM,
        ):
            raise InvalidParameterError(f"unknown trigger kind: {kind!r}")
        if payload is not None:
            payload = money(payload)
        # Type checks come last, so a call that also holds a bad value
        # keeps the refusal it had before types were checked.
        if isinstance(year, bool) or not isinstance(year, int):
            raise InvalidParameterError(f"year must be an int, got {year!r}")
        return tuple.__new__(cls, (kind, year, payload))


@dataclass(frozen=True)
class Choice:
    """Underwriter's election when a trigger fires."""

    kind: str


EXERCISE = Choice("exercise")
WAIVE = Choice("waive")


@dataclass(frozen=True)
class ClawbackPolicy:
    """Lien terms attached at payout time.

    option A: fixed 77% recovery, no audit involvement.
    option B: recovery pending an audit verdict (77% or 100% at settlement).
    """

    option: str = "A"
    fraction: Decimal = Decimal("0.77")

    def __post_init__(self) -> None:
        if self.option not in CLAWBACK_OPTIONS:
            raise InvalidParameterError(f"unknown clawback option: {self.option!r}")
        object.__setattr__(self, "fraction", fraction(self.fraction, "clawback fraction"))
        if self.option == "B" and self.fraction != Decimal("1"):
            raise InvalidParameterError("option B liens carry the full base until verdict")


class _LienFields(NamedTuple):
    contract_id: str
    base: Decimal
    fraction: Decimal  # 0.77 fixed, or 1.00 while an option-B verdict is pending
    origin_year: int
    option: str = "A"
    resolution: LienResolution = LienResolution.UNRESOLVED


# ClawbackLien.__new__ has a parameter named fraction.
_fraction = fraction


class ClawbackLien(_LienFields):
    """Bank's claim against future recoveries on a paid-out note.

    Checked once when built, as TriggerEvent is.  create_clawback and
    settle_clawback build their liens with _make from values already
    checked.
    """

    __slots__ = ()

    def __new__(cls, contract_id, base, fraction, origin_year, option="A",
                resolution=LienResolution.UNRESOLVED):
        base = money(base)
        if base < 0:
            raise InvalidParameterError("lien base must be >= 0")
        fraction = _fraction(fraction, "fraction")
        # Type checks come last, as in TriggerEvent.
        _check_lien_keys(contract_id, origin_year)
        if option not in CLAWBACK_OPTIONS:
            raise InvalidParameterError(f"unknown clawback option: {option!r}")
        if not isinstance(resolution, LienResolution):
            raise InvalidParameterError(
                f"resolution must be a LienResolution, got {resolution!r}")
        return tuple.__new__(cls, (contract_id, base, fraction, origin_year,
                                   option, resolution))


def _check_lien_keys(contract_id, origin_year) -> None:
    """The two lien fields create_clawback takes from its caller as given."""
    if not isinstance(contract_id, str):
        raise InvalidParameterError(
            f"contract_id must be a string, got {contract_id!r}")
    if isinstance(origin_year, bool) or not isinstance(origin_year, int):
        raise InvalidParameterError(
            f"origin_year must be an int, got {origin_year!r}")


class Settlement(NamedTuple):
    """Cash and equity movements produced by resolving one trigger."""

    cash_to_bank: Decimal = Decimal("0")
    equity_to_underwriter: Decimal = Decimal("0")  # fraction of investor equity
    lien: ClawbackLien | None = None


class _NoteFields(NamedTuple):
    contract_id: str
    principal: Decimal
    coverage: Decimal  # insured fraction of principal
    equity_fraction: Decimal
    state: DinState
    liens: tuple[ClawbackLien, ...]


class DinContract(_NoteFields):
    """One insurance note, checked once when built.  A note is an immutable
    tuple: it compares equal to a plain tuple of the same fields.  _make
    and _replace build a note without checking it."""

    __slots__ = ()

    def __new__(cls, contract_id, principal, coverage=Decimal("1"),
                equity_fraction=Decimal("0.5"), state=DinState.ACTIVE, liens=()):
        principal = money(principal)
        coverage = fraction(coverage, "coverage")
        equity_fraction = fraction(equity_fraction, "equity_fraction")
        if principal < 0:
            raise InvalidParameterError("principal must be >= 0")
        # Type checks come last, as in TriggerEvent.
        if not isinstance(contract_id, str):
            raise InvalidParameterError(
                f"contract_id must be a string, got {contract_id!r}")
        if not isinstance(state, DinState):
            raise InvalidParameterError(f"state must be a DinState, got {state!r}")
        if not isinstance(liens, tuple):
            raise InvalidParameterError(f"liens must be a tuple, got {liens!r}")
        return tuple.__new__(cls, (contract_id, principal, coverage,
                                   equity_fraction, state, liens))

    @property
    def insured_value(self) -> Decimal:
        return money(self.principal * self.coverage)


def _successor(contract: DinContract, state: DinState,
               liens: tuple[ClawbackLien, ...]) -> DinContract:
    """contract._replace(state=state, liens=liens), built in one step: the
    terms are the predecessor's, which were checked when it was built."""
    return tuple.__new__(DinContract, (*contract[:4], state, liens))


def apply_trigger(
    contract: DinContract,
    event: TriggerEvent,
    choice: Choice = EXERCISE,
    clawback: ClawbackPolicy | None = None,
) -> tuple[DinContract, Settlement]:
    """Settle `event` on an active note per the underwriter's choice.

    Returns the successor contract, built from the note without checking
    its terms again, and the settlement it produces.  A waived trigger
    leaves the note as it was.  A clawback policy of None means the note
    was written without the lien rider; bankruptcy payouts then leave no
    claim behind.
    """
    if contract.state is not DinState.ACTIVE:
        error = (TerminalStateError if contract.state in TERMINAL_STATES
                 else StateTransitionError)
        raise error(
            f"{contract.contract_id} is {contract.state.value}; "
            "only an active note takes a trigger"
        )
    if choice.kind != "exercise":
        if event.kind in FORCED_TRIGGERS:
            raise ForcedTriggerError(
                f"{event.kind} admits no {choice.kind}; payout is contractual"
            )
        return contract, Settlement()

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
        nxt = _successor(contract, DinState.PAID_OUT,
                         contract.liens + ((lien,) if lien else ()))
        return nxt, Settlement._make((payout, ONE, lien))

    if event.kind == EXIT:
        return _successor(contract, DinState.EXITED, contract.liens), Settlement._make(
            (ZERO, contract.coverage * contract.equity_fraction, None))

    closed = _successor(contract, DinState.CLOSED, contract.liens)
    if event.kind == OFFER_REFUSAL:
        offer = event.payload if event.payload is not None else Decimal("0")
        # Underwriter recovers the bank-side slice of the refused upside.
        upside = max(offer - contract.insured_value, Decimal("0"))
        return closed, Settlement._make(
            (money((ONE - contract.equity_fraction) * upside), ONE, None))
    if event.kind == FAILURE_TO_INFORM:
        return closed, Settlement._make((ZERO, DEFAULT_SEIZURE_FRACTION, None))
    # PREMIUM_DEFAULT
    return closed, Settlement._make((ZERO, ONE, None))


def annual_premium(contract: DinContract, rate) -> Decimal:
    """Premium due this year: rate on the insured value.  Active notes only.

    Rounded once, as money(rate * principal * coverage); rounding the
    insured value first moves some premiums by one unit when coverage < 1.
    """
    if contract.state is not DinState.ACTIVE:
        raise StateTransitionError(
            f"premium due only on active notes, not {contract.state.value}"
        )
    return money(finite(rate, "rate") * contract.principal * contract.coverage)


def exit_equity_split(
    investor_equity, coverage, equity_fraction
) -> tuple[Decimal, Decimal]:
    """Split insured exit equity between underwriter and bank.

    The insured slice of the investor's equity is coverage * investor_equity;
    the underwriter keeps its contracted fraction, the bank the remainder.
    """
    return _exit_equity_split(money(investor_equity), fraction(coverage, "coverage"),
                              fraction(equity_fraction, "equity_fraction"))


def _exit_equity_split(value: Decimal, coverage: Decimal,
                       equity_fraction: Decimal) -> tuple[Decimal, Decimal]:
    """exit_equity_split's arithmetic, on a money-scale value and two
    fractions already checked.  The bank's share is the difference of two
    money-scale amounts, exact at 9 places in DECIMAL_CONTEXT."""
    insured = money(value * coverage)
    to_underwriter = money(insured * equity_fraction)
    return to_underwriter, DECIMAL_CONTEXT.subtract(insured, to_underwriter)


def create_clawback(
    contract_id: str, base, policy: ClawbackPolicy, origin_year: int
) -> ClawbackLien:
    """An unresolved lien on base under policy's terms, which
    ClawbackPolicy checked."""
    amount = money(base)
    if amount < 0:
        raise InvalidParameterError("lien base must be >= 0")
    _check_lien_keys(contract_id, origin_year)
    return ClawbackLien._make((contract_id, amount, policy.fraction, origin_year,
                               policy.option, LienResolution.UNRESOLVED))


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

    share = lien.fraction
    if lien.option == "B":
        if verdict is None:
            raise MissingVerdictError(
                f"option B lien on {lien.contract_id} needs an audit verdict"
            )
        share = Decimal("1") if verdict else Decimal("0.77")

    resolution = (
        LienResolution.FULL_RECOVERY
        if share == Decimal("1")
        else LienResolution.RELEASED23
    )
    grown = compound(lien.base, bank_rate, settlement_year - lien.origin_year)
    settled = ClawbackLien._make((lien.contract_id, lien.base, share, lien.origin_year,
                                  lien.option, resolution))
    return money(share * grown), settled
