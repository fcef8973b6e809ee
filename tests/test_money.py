"""The numeric gate: every outside amount, rate and fraction becomes a
finite Decimal in money.py, and anything else fails typed."""
from decimal import Decimal, InvalidOperation, localcontext

import pytest

from venturebank.contracts import (
    BANKRUPTCY,
    ClawbackLien,
    ClawbackPolicy,
    DinContract,
    TriggerEvent,
    annual_premium,
    create_clawback,
    exit_equity_split,
    settle_clawback,
)
from venturebank.errors import InvalidParameterError
from venturebank.ledger import (
    CapitalAccount,
    Ledger,
    book_din_to_capital,
    cr,
    dr,
    write_investment_loan,
)
from venturebank.money import compound, finite, fraction, money
from venturebank.multipliers import capital_limits, din_capital_fraction, moc_schedule
from venturebank.registry import ForwardPeriod, Registry, RegistryRecord, build_package
from venturebank.returns import rescale_to_target, synthesize_distribution
from venturebank.simulation import EVENT_COLUMNS, ScenarioConfig, events_from_csv

NOT_FINITE = ("NaN", "sNaN", "Infinity", "-Infinity", "abc", float("nan"))
# JSON's true and false: ints to Python, but no amount, rate or fraction.
NOT_NUMBERS = (True, False)


def record(**fields) -> RegistryRecord:
    base = dict(din_id="p", kind="primary", underwriter_id="uw", bank_id="b",
                investment_id="i", principal="100", sector="s", vintage_year=2024)
    return RegistryRecord(**{**base, **fields})


def event_log(amount) -> str:
    return ",".join(EVENT_COLUMNS) + f"\n0,0,capital_injection,,{amount},\n"


# Every public entry point that takes an amount, a rate or a fraction, by
# the argument that carries the bad value.
ENTRY_POINTS = {
    "money": lambda v: money(v),
    "TriggerEvent.payload": lambda v: TriggerEvent(BANKRUPTCY, 1, payload=v),
    "compound.principal": lambda v: compound(v, "0.03", 5),
    "compound.rate": lambda v: compound("100", v, 5),
    "annual_premium.rate": lambda v: annual_premium(DinContract("d", "100"), v),
    "exit_equity_split.investor_equity": lambda v: exit_equity_split(v, "1", "0.5"),
    "exit_equity_split.coverage": lambda v: exit_equity_split("10", v, "0.5"),
    "DinContract.principal": lambda v: DinContract("d", v),
    "DinContract.coverage": lambda v: DinContract("d", "100", coverage=v),
    "DinContract.equity_fraction": lambda v: DinContract("d", "100", equity_fraction=v),
    "ClawbackPolicy.fraction": lambda v: ClawbackPolicy(fraction=v),
    "create_clawback.base": lambda v: create_clawback(
        "d", v, ClawbackPolicy(), origin_year=1),
    "ClawbackLien.base": lambda v: ClawbackLien("d", v, "0.77", 1),
    "ClawbackLien.fraction": lambda v: ClawbackLien("d", "10", v, 1),
    "settle_clawback.bank_rate": lambda v: settle_clawback(
        create_clawback("d", "10", ClawbackPolicy(), origin_year=1), 5, v),
    "CapitalAccount.tier1_core": lambda v: CapitalAccount(tier1_core=v),
    "CapitalAccount.reserve_fraction": lambda v: CapitalAccount(
        tier1_core="1", reserve_fraction=v),
    "book_din_to_capital.din_value": lambda v: book_din_to_capital(
        CapitalAccount(tier1_core="1"), v),
    "write_investment_loan.amount": lambda v: write_investment_loan(
        Ledger("bank"), CapitalAccount(tier1_core="1"), v, year=0),
    "dr.amount": lambda v: dr(None, v),
    "cr.amount": lambda v: cr(None, v),
    "capital_limits.initial_capital": lambda v: capital_limits(v, "0.05"),
    "capital_limits.reserve_fraction": lambda v: capital_limits("1", v),
    "moc_schedule.reserve_fraction": lambda v: moc_schedule(reserve_fraction=v),
    "moc_schedule.failure_fraction": lambda v: moc_schedule(failure_fraction=v),
    "moc_schedule.initial_capital": lambda v: moc_schedule(initial_capital=v),
    "din_capital_fraction.initial_capital": lambda v: din_capital_fraction(v, "0.05", "1"),
    "din_capital_fraction.reserve_fraction": lambda v: din_capital_fraction("1", v, "1"),
    "din_capital_fraction.total_insured_loans": lambda v: din_capital_fraction("1", "0.05", v),
    "build_package.public_fraction": lambda v: build_package(
        Registry(), "uw", ForwardPeriod(2020), v),
    "RegistryRecord.principal": lambda v: record(principal=v),
    "RegistryRecord.expected_multiple": lambda v: record(expected_multiple=v),
    "ScenarioConfig.premium_rate": lambda v: ScenarioConfig(premium_rate=v),
    # Checked only when given: the default None means no rescale.
    "ScenarioConfig.target_classical_return": lambda v: ScenarioConfig(
        target_classical_return=v),
    "rescale_to_target.target_mean": lambda v: rescale_to_target(
        synthesize_distribution(seed=0, n_funds=4), v),
    "events_from_csv.amount": lambda v: events_from_csv(event_log(v)),
}


@pytest.mark.parametrize("value", NOT_FINITE + NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_input_is_refused_typed(entry, value):
    # Whether or not the caller's context traps InvalidOperation, the
    # refusal is InvalidParameterError: never a bare decimal signal, and
    # never a NaN result.
    for trap in (True, False):
        with localcontext() as ctx:
            ctx.traps[InvalidOperation] = trap
            try:
                result = ENTRY_POINTS[entry](value)
            except InvalidParameterError:
                continue
            pytest.fail(f"{entry}({value!r}) returned {result!r}")


class TestFinite:
    def test_decimal_is_returned_as_given(self):
        d = Decimal("0.060")
        assert finite(d, "rate") is d

    @pytest.mark.parametrize("value, want", [
        (0.1, "0.1"), (3, "3"), ("1.250", "1.250"), (10**40, "1" + "0" * 40)])
    def test_other_values_are_read_exactly(self, value, want):
        assert str(finite(value, "x")) == want

    @pytest.mark.parametrize(
        "value", NOT_FINITE + (Decimal("NaN"), float("inf"), None) + NOT_NUMBERS)
    def test_refusal_names_the_value(self, value):
        with pytest.raises(InvalidParameterError,
                           match=f"^premium must be a finite decimal, got '{value}'$"):
            finite(value, "premium")


class TestFraction:
    @pytest.mark.parametrize("value", ["0", "0.5", "1", 1, 0.25])
    def test_closed_interval(self, value):
        assert fraction(value, "f") == Decimal(str(value))

    @pytest.mark.parametrize("value, open_low", [
        ("-0.5", False), ("1.5", False), ("0", True), ("2", True)])
    def test_out_of_range_names_field_and_bound(self, value, open_low):
        bound = r"\(0, 1\]" if open_low else r"\[0, 1\]"
        with pytest.raises(InvalidParameterError, match=f"^f must be in {bound}, got {value}$"):
            fraction(value, "f", open_low=open_low)

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("open_low", [False, True])
    def test_bool_is_refused_by_name(self, value, open_low):
        with pytest.raises(InvalidParameterError,
                           match=f"^f must be a finite decimal, got '{value}'$"):
            fraction(value, "f", open_low=open_low)
