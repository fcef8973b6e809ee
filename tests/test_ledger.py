"""Journal integrity, capital caps, and loan-volume enforcement."""
import random
from decimal import Decimal

import pytest

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
    book_din_to_capital,
    carrying_cost,
    cr,
    dr,
    release_din_capital,
    write_investment_loan,
)
from venturebank.multipliers import capital_limits
from oracles import compound_interest


class TestPostings:
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

    def test_release_strips_insured_capital(self):
        acct, booked, _ = book_din_to_capital(CapitalAccount(tier1_core="1"), "10")
        stripped, released = release_din_capital(acct)
        assert released == booked
        assert stripped.reserves_total == stripped.tier1_core


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
        cost = carrying_cost("1.2", 5, 10, "0.03")
        grown = compound_interest(Decimal("1.2"), Decimal("0.03"), 5)
        assert abs(cost - (grown - Decimal("1.2"))) < Decimal("0.000001")

    def test_zero_span_zero_cost(self):
        assert carrying_cost("1.2", 5, 5, "0.03") == 0
        with pytest.raises(InvalidParameterError):
            carrying_cost("1.2", 6, 5, "0.03")
