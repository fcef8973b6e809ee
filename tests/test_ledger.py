"""Journal integrity, capital caps, and loan-volume enforcement."""
import random
import re
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venturebank.errors import (
    CapitalCapError,
    InvalidParameterError,
    LedgerBalanceError,
    LoanLimitError,
)
from venturebank.ledger import (
    Account,
    CapitalAccount,
    Ledger,
    Posting,
    Transaction,
    _carrying_cost,
    book_din_to_capital,
    cr,
    dr,
    write_investment_loan,
)
from venturebank import money as money_module
from venturebank.money import DECIMAL_CONTEXT, compound, money
from venturebank.multipliers import capital_limits
from oracles import compound_interest


# Every input type money() accepts, within the 28 digits it can quantize.
MONEY_INPUTS = st.one_of(
    st.integers(min_value=-10**15, max_value=10**15),
    st.decimals(min_value=-10**15, max_value=10**15, allow_nan=False, allow_infinity=False),
    st.decimals(min_value=-10**15, max_value=10**15, allow_nan=False,
                allow_infinity=False).map(str),
    st.floats(min_value=-1e15, max_value=1e15, allow_nan=False, allow_infinity=False),
)


def folded_balances(ledger):
    """Balances recomputed from the whole journal: the running totals' oracle."""
    out = {account: Decimal("0") for account in Account}
    for txn in ledger.transactions:
        for p in txn.postings:
            out[p.account] += p.debit - p.credit
    return out


class TestPostings:
    @given(MONEY_INPUTS)
    def test_money_is_idempotent(self, value):
        once = money(value)
        assert str(money(once)) == str(once)

    @pytest.mark.parametrize(
        "amount", [7, "1.2345678905", "2.5e-9", 0.1, 1e-10, Decimal("2.0000000015"), 0]
    )
    def test_dr_cr_quantize_like_money(self, amount):
        for posting, expected in (
            (dr(Account.CASH, amount), Posting(Account.CASH, money(amount))),
            (cr(Account.CASH, amount), Posting(Account.CASH, credit=money(amount))),
        ):
            assert posting == expected
            assert (str(posting.debit), str(posting.credit)) == (
                str(expected.debit), str(expected.credit))

    def test_account_must_be_an_account(self):
        with pytest.raises(InvalidParameterError):
            Posting("cash", debit="1")

    def test_one_sided_only(self):
        with pytest.raises(InvalidParameterError):
            Posting(Account.CASH, debit="1", credit="1")
        with pytest.raises(InvalidParameterError):
            Posting(Account.CASH, debit="-1")

    def test_unbalanced_transaction_rejected(self):
        with pytest.raises(LedgerBalanceError):
            Transaction(0, "bad", (dr(Account.LOANS, "5"), cr(Account.DEPOSITS, "4")))

    def test_multi_leg_balance(self):
        txn = Transaction(
            3,
            "exit proceeds",
            (
                dr(Account.CASH, "3.75"),
                cr(Account.LOANS, "1.5"),
                cr(Account.EQUITY_HOLDINGS, "2.25"),
            ),
        )
        assert len(txn.postings) == 3


class TestLedger:
    def test_signed_balances(self):
        led = Ledger("bank")
        led.post(0, "loan", [dr(Account.LOANS, "80"), cr(Account.DEPOSITS, "80")])
        led.post(0, "drawdown", [dr(Account.DEPOSITS, "40"), cr(Account.CASH, "40")])
        assert led.balance(Account.LOANS) == Decimal("80")
        assert led.balance(Account.DEPOSITS) == Decimal("-40")
        assert led.balance(Account.CASH) == Decimal("-40")

    def test_trial_balance_zero_under_random_activity(self):
        rng = random.Random(511)
        accounts = list(Account)
        led = Ledger("fuzz")
        for year in range(200):
            amount = Decimal(rng.randrange(1, 10**7)) / Decimal(1000)
            a, b = rng.sample(accounts, 2)
            led.post(year, "fuzz", [dr(a, amount), cr(b, amount)])
        assert led.trial_balance() == 0
        assert sum(led.balances().values(), Decimal("0")) == 0

    @settings(deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["balanced", "unbalanced", "loan"]),
        st.sampled_from(list(Account)),
        st.sampled_from(list(Account)),
        st.decimals(min_value=-1, max_value=30, places=9),
    ), max_size=25))
    def test_running_balances_equal_a_fold_of_the_journal(self, ops):
        capital = CapitalAccount(tier1_core="1")  # lends up to 20
        led = Ledger("prop")
        for kind, a, b, amount in ops:
            before = (led.transactions, led.balances())
            try:
                if kind == "balanced":
                    led.post(1, kind, [dr(a, amount), cr(b, amount)])
                elif kind == "unbalanced":
                    led.post(1, kind, [dr(a, amount), cr(b, amount + Decimal("1E-9"))])
                else:
                    write_investment_loan(led, capital, amount, year=1)
            except (InvalidParameterError, LedgerBalanceError, LoanLimitError):
                assert (led.transactions, led.balances()) == before
            expected = folded_balances(led)
            assert {acct: str(v) for acct, v in led.balances().items()} == {
                acct: str(v) for acct, v in expected.items()}
            assert all(led.balance(acct) == expected[acct] for acct in Account)
            assert led.trial_balance() == 0

    def test_caller_context_does_not_change_balances(self):
        led = Ledger("bank")
        with localcontext() as ctx:
            ctx.prec = 3
            for _ in range(2):
                led.post(0, "loan", [dr(Account.LOANS, "1234.5"),
                                     cr(Account.DEPOSITS, "1234.5")])
        assert str(led.balance(Account.LOANS)) == "2469.000000000"
        assert str(led.balances()[Account.DEPOSITS]) == "-2469.000000000"

    def test_balances_returns_a_copy(self):
        led = Ledger("bank")
        led.post(0, "loan", [dr(Account.LOANS, "80"), cr(Account.DEPOSITS, "80")])
        led.balances()[Account.LOANS] = Decimal("0")
        del led.balances()[Account.CASH]
        assert led.balance(Account.LOANS) == Decimal("80")
        assert led.balances() == folded_balances(led)

    def test_accounts_hash_by_identity_and_key_the_balances(self):
        assert all(hash(account) == object.__hash__(account) for account in Account)
        led = Ledger("bank")
        led.post(0, "loan", [dr(Account.LOANS, "80"), cr(Account.DEPOSITS, "80")])
        balances = led.balances()
        assert list(balances) == list(Account)
        assert balances[Account("loans")] == Decimal("80")
        assert balances[Account["DEPOSITS"]] == Decimal("-80")

    def test_append_only_snapshot(self):
        led = Ledger("bank")
        led.post(0, "a", [dr(Account.CASH, "1"), cr(Account.DEPOSITS, "1")])
        before = led.transactions
        led.post(1, "b", [dr(Account.CASH, "1"), cr(Account.DEPOSITS, "1")])
        assert len(before) == 1
        assert len(led.transactions) == 2


class TestCapitalAccount:
    def test_insured_tier1_cap_is_15_percent_of_tier1(self):
        acct = CapitalAccount(tier1_core="1")
        assert acct.tier1_insured_cap == Decimal("0.176470588")
        # at the cap, insured is 15% of tier 1 (to the floor's precision)
        full = CapitalAccount(tier1_core="1", tier1_insured="0.176470588")
        share = full.tier1_insured / full.tier1_total
        assert abs(share - Decimal("0.15")) < Decimal("0.0000001")

    def test_overfull_slots_rejected(self):
        with pytest.raises(CapitalCapError):
            CapitalAccount(tier1_core="1", tier1_insured="0.18")
        with pytest.raises(CapitalCapError):
            CapitalAccount(tier1_core="1", tier2_insured="1.2")

    def test_saturation_matches_structural_limits(self):
        for core, rf in (("1", "0.05"), ("10", "0.10")):
            acct = CapitalAccount(tier1_core=core, reserve_fraction=rf)
            acct, booked, _ = book_din_to_capital(acct, "10000")
            limits = capital_limits(initial_capital=core, reserve_fraction=rf)
            assert acct.reserves_total == limits.reserves_limit
            assert acct.lending_limit == limits.max_loan_limit

    def test_saturation_never_exceeds_structural_limits(self):
        # floored slot caps keep component bookings inside the envelope even
        # when the tier 1 target does not land on the money grid
        rng = random.Random(613)
        for _ in range(100):
            core = Decimal(rng.randrange(1, 10**4)) / Decimal(100)
            acct, _, _ = book_din_to_capital(CapitalAccount(tier1_core=core), "100000")
            limits = capital_limits(initial_capital=core, reserve_fraction="0.05")
            assert acct.reserves_total <= limits.reserves_limit
            assert limits.reserves_limit - acct.reserves_total <= Decimal("0.000000002")
            assert acct.lending_limit <= limits.max_loan_limit

    def test_saturated_split_for_unit_core(self):
        acct, booked, unbooked = book_din_to_capital(CapitalAccount(tier1_core="1"), "10")
        assert acct.tier1_insured == Decimal("0.176470588")
        assert acct.tier2_insured == Decimal("1.176470588")
        assert acct.reserves_total == Decimal("2.352941176")
        assert booked == Decimal("1.352941176")
        assert booked + unbooked == Decimal("10")

    def test_partial_booking_fills_tier2_first(self):
        acct, booked, unbooked = book_din_to_capital(CapitalAccount(tier1_core="1"), "0.5")
        assert acct.tier2_insured == Decimal("0.5")
        assert acct.tier1_insured == 0
        assert (booked, unbooked) == (Decimal("0.5"), Decimal("0"))

    def test_second_tier2_pass_uses_raised_ceiling(self):
        acct, booked, unbooked = book_din_to_capital(CapitalAccount(tier1_core="1"), "1.2")
        assert acct.tier1_insured == Decimal("0.176470588")
        assert acct.tier2_insured == Decimal("1.023529412")
        assert booked == Decimal("1.2") and unbooked == 0

    def test_booking_conserves_value_exactly(self):
        rng = random.Random(8080)
        for _ in range(300):
            core = Decimal(rng.randrange(1, 10**4)) / Decimal(100)
            value = Decimal(rng.randrange(0, 10**6)) / Decimal(1000)
            acct, booked, unbooked = book_din_to_capital(
                CapitalAccount(tier1_core=core), value
            )
            assert booked + unbooked == value
            assert acct.tier1_insured <= acct.tier1_insured_cap
            assert acct.tier2_insured <= acct.tier1_total

    def test_saturated_account_books_nothing_more(self):
        acct, _, _ = book_din_to_capital(CapitalAccount(tier1_core="1"), "10")
        again, booked, unbooked = book_din_to_capital(acct, "5")
        assert booked == 0 and unbooked == Decimal("5")
        assert again == acct


class TestLoanLimit:
    def saturated(self):
        acct, _, _ = book_din_to_capital(CapitalAccount(tier1_core="1"), "10")
        return acct

    def test_volume_enforced_at_boundary(self):
        acct = self.saturated()
        assert acct.lending_limit == Decimal("47.058823520")
        led = Ledger("bank")
        for _ in range(10):
            write_investment_loan(led, acct, "4.7", year=0)
        with pytest.raises(LoanLimitError):
            write_investment_loan(led, acct, "0.2", year=0)
        write_investment_loan(led, acct, "0.05", year=0)
        assert led.balance(Account.LOANS) == Decimal("47.05")
        # up to the limit exactly is fine, one grain past is not
        write_investment_loan(led, acct, "0.008823520", year=0)
        with pytest.raises(LoanLimitError):
            write_investment_loan(led, acct, "0.000000001", year=0)

    def test_rejected_loan_leaves_no_trace(self):
        acct = self.saturated()
        led = Ledger("bank")
        write_investment_loan(led, acct, "47", year=0)
        n = len(led.transactions)
        with pytest.raises(LoanLimitError):
            write_investment_loan(led, acct, "1", year=0)
        assert len(led.transactions) == n

    def test_unsaturated_account_lends_less(self):
        bare = CapitalAccount(tier1_core="1")
        assert bare.lending_limit == Decimal("20")
        led = Ledger("bank")
        with pytest.raises(LoanLimitError):
            write_investment_loan(led, bare, "20.000000001", year=0)


class TestShortTermAndCarry:
    def test_carrying_cost_matches_loop_oracle(self):
        cost = _carrying_cost(Decimal("1.2"), 5, Decimal("0.03"))
        grown = compound_interest(Decimal("1.2"), Decimal("0.03"), 5)
        assert abs(cost - (grown - Decimal("1.2"))) < Decimal("0.000001")

    def test_zero_span_zero_cost(self):
        assert _carrying_cost(Decimal("1.2"), 0, Decimal("0.03")) == 0


def uncached_compound(principal, rate, periods: int) -> Decimal:
    """compound's formula with no growth cache."""
    ctx = DECIMAL_CONTEXT
    growth = ctx.power(ctx.add(1, Decimal(str(rate))), periods)
    return money(ctx.multiply(Decimal(str(principal)), growth))


class TestCompound:
    SPELLINGS = ("0.06", "0.060", Decimal("0.06"), 0.06)

    @pytest.mark.parametrize("prec", [None, 5])
    def test_cached_growth_equals_the_formula(self, prec):
        # The cache keys 0.06 and 0.060 alike; each spelling, whichever
        # fills the cache, gives the uncached figure, in any caller context.
        money_module._growth.cache_clear()
        with localcontext() as ctx:
            if prec is not None:
                ctx.prec = prec
            for periods in range(16):
                for principal in ("1.2", "37.5", "123456.789012345"):
                    want = uncached_compound(principal, "0.06", periods)
                    for rate in self.SPELLINGS:
                        assert str(compound(principal, rate, periods)) == str(want)

    # A non-finite rate is refused at the money gate, typed and naming the
    # rate, before it can reach the growth cache.

    @pytest.mark.parametrize("rate", ["NaN", Decimal("NaN"), float("nan")])
    def test_quiet_nan_rate_gives_nan(self, rate):
        for periods in (0, 1, 5):
            with pytest.raises(InvalidParameterError, match="rate must be a finite decimal"):
                compound("100", rate, periods)

    @pytest.mark.parametrize("rate", ["sNaN", Decimal("sNaN")])
    def test_signalling_nan_rate_traps(self, rate):
        money_module._growth.cache_clear()
        for periods in (0, 1, 5):
            with pytest.raises(InvalidParameterError, match="rate must be a finite decimal"):
                compound("100", rate, periods)
        assert money_module._growth.cache_info().currsize == 0

    @pytest.mark.parametrize("principal, rate, periods", [
        ("100", "1e500000", 5),  # the growth factor overflows
        ("1e999999", "9", 1),  # principal times growth overflows
    ])
    def test_growth_past_the_decimal_range_names_the_rate(self, principal, rate, periods):
        with pytest.raises(InvalidParameterError, match=re.escape(f"rate {Decimal(rate)} over")):
            compound(principal, rate, periods)

    def test_infinite_rate_as_uncached(self):
        for periods in (0, 1):
            with pytest.raises(InvalidParameterError, match="rate must be a finite decimal"):
                compound("100", "Infinity", periods)
