"""Scenario runs: report identities, determinism, replay, and sweep shapes."""
import pickle
from dataclasses import replace
from decimal import Decimal, getcontext, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venturebank.errors import InvalidParameterError, SimulationError
from venturebank.ledger import Account, Ledger
from venturebank.money import money
from venturebank.returns import FAILURE
from venturebank import simulation
from venturebank.simulation import (
    ScenarioConfig,
    events_from_csv,
    events_to_csv,
    post_books,
    replay,
    run_scenario,
    simulate,
    sweep_classical_return,
)
from oracles import count_events, is_nondecreasing, sign_scan_local_minimum


TARGETS = ("1.10", "1.31", "1.50")


class TestReportIdentities:
    def test_exact_for_calibration_rows(self):
        for t in TARGETS:
            r = run_scenario(ScenarioConfig.calibration(target_classical_return=t))
            assert r.din_net_profit == r.premium_earnings_10y + r.underwriter_investment
            ratio = float(r.premium_earnings_10y / abs(r.underwriter_investment))
            assert r.din_10y_return == pytest.approx(ratio, abs=1e-12)
            assert r.din_yearly_return == pytest.approx(
                r.din_10y_return ** 0.1 - 1, abs=1e-12
            )

    def test_exact_for_default_config(self):
        r = run_scenario(ScenarioConfig(target_classical_return="1.31"))
        assert r.din_net_profit == r.premium_earnings_10y + r.underwriter_investment

    def test_classical_return_hits_target(self):
        for t in TARGETS:
            r = run_scenario(ScenarioConfig.calibration(target_classical_return=t))
            assert r.classical_return == pytest.approx(float(t), abs=1e-6)

    def test_net_profit_same_under_both_equity_modes(self):
        # the exit-equity switch moves value between columns, never creates it
        offset = run_scenario(
            ScenarioConfig(target_classical_return="1.31", exit_equity_mode="investment_offset")
        )
        earnings = run_scenario(
            ScenarioConfig(target_classical_return="1.31", exit_equity_mode="earnings")
        )
        assert offset.din_net_profit == earnings.din_net_profit
        assert earnings.premium_earnings_10y > offset.premium_earnings_10y

    def test_zero_salvage_costs_underwriter_more(self):
        keep = run_scenario(
            ScenarioConfig(target_classical_return="1.31", salvage_mode="classical_multiple")
        )
        burn = run_scenario(
            ScenarioConfig(target_classical_return="1.31", salvage_mode="zero")
        )
        assert burn.underwriter_investment < keep.underwriter_investment


class TestBooksAndEvents:
    def test_trial_balances_close(self):
        r = run_scenario(ScenarioConfig.calibration(target_classical_return="1.31"))
        assert r.bank_ledger.trial_balance() == 0
        assert r.underwriter_ledger.trial_balance() == 0

    def test_loan_faces_sum_exactly(self):
        r = run_scenario(ScenarioConfig(target_classical_return="1.31", n_funds=7))
        faces = [e.amount for e in r.events if e.kind == "loan_issued"]
        assert len(faces) == 7
        assert sum(faces) == Decimal("47")

    def test_premium_event_counts(self):
        cfg = ScenarioConfig(target_classical_return="1.31")
        r = run_scenario(cfg)
        per_fund = {}
        for e in r.events:
            if e.kind == "premium_paid":
                per_fund[e.fund_id] = per_fund.get(e.fund_id, 0) + 1
        failed = {e.fund_id for e in r.events if e.kind == "bankruptcy_payout"}
        exited = {e.fund_id for e in r.events if e.kind == "exit_proceeds"}
        for fund, n in per_fund.items():
            assert n == (cfg.failure_year if fund in failed else cfg.exit_year)
        assert failed | exited == set(per_fund)
        assert count_events(r.events, "bankruptcy_payout") == len(failed)
        assert count_events(r.events, "lien_created") == len(failed)
        assert count_events(r.events, "lien_settled") == len(failed)

    def test_determinism_byte_identical(self):
        cfg = ScenarioConfig.calibration(target_classical_return="1.31")
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.to_csv() == b.to_csv()
        assert events_to_csv(a.events) == events_to_csv(b.events)
        c = run_scenario(ScenarioConfig.calibration(target_classical_return="1.31", seed=7))
        assert events_to_csv(c.events) != events_to_csv(a.events)

    def test_replay_from_serialized_log(self):
        cfg = ScenarioConfig.calibration(target_classical_return="1.50")
        r = run_scenario(cfg)
        parsed = events_from_csv(events_to_csv(r.events))
        assert parsed == r.events
        figures = replay(parsed, cfg)
        assert figures["underwriter_investment"] == r.underwriter_investment
        assert figures["premium_earnings_10y"] == r.premium_earnings_10y
        assert figures["din_net_profit"] == r.din_net_profit
        assert figures["din_10y_return"] == r.din_10y_return
        assert figures["din_yearly_return"] == r.din_yearly_return
        assert figures["bank_10y_return"] == r.bank_10y_return
        assert figures["classical_return"] == r.classical_return

    def test_bank_return_recomputed_from_events(self):
        cfg = ScenarioConfig.calibration(target_classical_return="1.31")
        r = run_scenario(cfg)
        payouts = sum((e.amount for e in r.events if e.kind == "bankruptcy_payout"), Decimal(0))
        premiums = sum((e.amount for e in r.events if e.kind == "premium_paid"), Decimal(0))
        clawed = sum((e.amount for e in r.events if e.kind == "lien_settled"), Decimal(0))
        bank_exit = sum(
            (e.detail.bank_share for e in r.events if e.kind == "exit_proceeds"),
            Decimal(0),
        )
        gains = payouts - premiums + bank_exit - clawed
        c = cfg.initial_capital
        assert r.bank_10y_return == pytest.approx(float((c + gains) / c), abs=1e-12)


class TestBooksOnDemand:
    CFG = ScenarioConfig.calibration(target_classical_return="1.31")

    @pytest.fixture
    def post_books_calls(self, monkeypatch):
        calls = []

        def counting(events, config):
            calls.append(config)
            return post_books(events, config)

        monkeypatch.setattr(simulation, "post_books", counting)
        return calls

    def test_no_books_until_a_ledger_is_read(self, post_books_calls):
        report = run_scenario(self.CFG)
        report.to_csv(), events_to_csv(report.events)
        assert post_books_calls == []
        bank = report.bank_ledger
        assert post_books_calls == [self.CFG]
        underwriter = report.underwriter_ledger
        assert report.bank_ledger is bank and report.underwriter_ledger is underwriter
        assert post_books_calls == [self.CFG]
        expected = post_books(report.events, self.CFG)
        assert (bank.transactions, underwriter.transactions) == tuple(
            ledger.transactions for ledger in expected)

    def test_given_ledgers_come_back_unchanged(self, post_books_calls):
        report = run_scenario(self.CFG)
        bank = Ledger("given")
        figures = {name: getattr(report, name) for name in replay(report.events, self.CFG)}
        given = simulation.SimulationReport(
            config=self.CFG, events=report.events, bank_ledger=bank,
            underwriter_ledger=None, **figures)
        assert given.bank_ledger is bank and given.underwriter_ledger is None
        assert post_books_calls == []
        half = simulation.SimulationReport(
            config=self.CFG, events=report.events, bank_ledger=bank,
            underwriter_ledger=simulation.ON_DEMAND, **figures)
        assert half.underwriter_ledger.transactions == \
            post_books(report.events, self.CFG)[1].transactions
        assert half.bank_ledger is bank and len(post_books_calls) == 1

    def test_unread_books_survive_pickling(self):
        report = pickle.loads(pickle.dumps(run_scenario(self.CFG)))
        bank, underwriter = post_books(report.events, self.CFG)
        assert report.bank_ledger.transactions == bank.transactions
        assert report.underwriter_ledger.transactions == underwriter.transactions


class TestEventLogParsing:
    GOOD_ROWS = (
        "0,0,capital_injection,,1.000000000,",
        "1,0,din_booked,,1.000000000,tier1=0.1|tier2=0.9",
    )

    @pytest.mark.parametrize(
        "row",
        [
            "2,0,loan_issued,f000,1.000000000",  # five columns
            "2,0,loan_issued,f000,1.000000000,,extra",  # seven columns
            "x,0,loan_issued,f000,1.000000000,",  # seq not an integer
            "2,1.5,loan_issued,f000,1.000000000,",  # year not an integer
            "2,0,loan_issued,f000,abc,",  # amount not a decimal
            "2,0,loan_issued,f000,1.000000000,face=1",  # kind carries no detail
            "2,5,lien_settled,f000,1.000000000,",  # detail missing
            "2,5,lien_settled,f000,1.000000000,share=0.77",  # wrong key
            "2,5,lien_created,f000,1,origin=5|fraction=0.77",  # keys out of order
            "2,5,lien_created,f000,1,fraction=0.77|origin=five",  # bad int value
            "2,5,exit_proceeds,f000,1,face=1|uw_share=x|bank_share=1",  # bad decimal
            "2,1,premium_payed,f000,0.050000000,",  # unknown kind
        ],
    )
    def test_malformed_row_names_its_line(self, row):
        text = "\n".join((",".join(simulation.EVENT_COLUMNS),) + self.GOOD_ROWS + (row,))
        with pytest.raises(InvalidParameterError, match="line 4"):
            events_from_csv(text + "\n")

    def test_good_rows_parse_to_typed_details(self):
        text = "\n".join((",".join(simulation.EVENT_COLUMNS),) + self.GOOD_ROWS)
        injection, booked = events_from_csv(text + "\n")
        assert injection.detail is None
        assert booked.detail == simulation.DinBooked(Decimal("0.1"), Decimal("0.9"))


class TestNoteLifecycle:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(clawback_option="C"),
            dict(clawback_fraction="1.0", clawback_option="B", audit_verdict=True),
            dict(salvage_mode="classical_multiple"),
            dict(clawback_fraction="0"),
        ],
    )
    def test_each_payout_attaches_exactly_one_lien(self, overrides):
        cfg = ScenarioConfig.calibration(target_classical_return="1.31", **overrides)
        r = run_scenario(cfg)
        paid = [e.fund_id for e in r.events if e.kind == "bankruptcy_payout"]
        exited = {e.fund_id for e in r.events if e.kind == "exit_proceeds"}
        liens = [e.fund_id for e in r.events if e.kind == "lien_created"]
        assert paid and exited
        assert sorted(liens) == (sorted(paid) if cfg.clawback_policy() else [])
        assert not exited & set(liens)


class TestCloseout:
    def test_payout_of_100_keeps_23(self):
        # loans of 100, total failure, zero salvage, zero rate: each payout
        # of 100 parks at year 5 and 77 of it is repaid at year 10
        cfg = ScenarioConfig(
            initial_capital="10",
            moc="20",
            n_funds=2,
            target_classical_return="0",
            salvage_mode="zero",
            bank_rate="0",
        )
        r = run_scenario(cfg)
        payouts = [e for e in r.events if e.kind == "bankruptcy_payout"]
        settlements = [e for e in r.events if e.kind == "lien_settled"]
        assert [e.amount for e in payouts] == [Decimal("100")] * 2
        assert [e.amount for e in settlements] == [Decimal("77")] * 2
        assert payouts[0].amount - settlements[0].amount == Decimal("23")
        assert r.bank_ledger.balance(Account.LIEN_OBLIGATIONS) == 0

    def test_no_failures_no_liens(self):
        r = run_scenario(ScenarioConfig(target_classical_return="2.5"))
        assert count_events(r.events, "bankruptcy_payout") == 0
        assert count_events(r.events, "lien_created") == 0
        assert count_events(r.events, "lien_settled") == 0
        assert count_events(r.events, "carrying_cost") == 0

    def test_settlements_match_compounded_bases(self):
        cfg = ScenarioConfig.calibration(target_classical_return="1.31")
        r = run_scenario(cfg)
        growth = (Decimal("1.06")) ** 5
        for settle in (e for e in r.events if e.kind == "lien_settled"):
            created = next(
                e for e in r.events
                if e.kind == "lien_created" and e.fund_id == settle.fund_id
            )
            expect = Decimal("0.77") * created.amount * growth
            assert abs(settle.amount - expect) <= Decimal("0.000000001")

    def test_option_b_needs_verdict(self):
        cfg = ScenarioConfig(
            target_classical_return="1.31",
            clawback_fraction="1.0",
            clawback_option="B",
        )
        with pytest.raises(SimulationError) as err:
            run_scenario(cfg)
        assert "lien_obligations" in str(err.value)

    def test_option_b_verdicts_set_recovery(self):
        base = dict(target_classical_return="1.31", clawback_fraction="1.0",
                    clawback_option="B")
        confirmed = run_scenario(ScenarioConfig(audit_verdict=True, **base))
        cleared = run_scenario(ScenarioConfig(audit_verdict=False, **base))
        standard = run_scenario(
            ScenarioConfig(target_classical_return="1.31",
                           clawback_fraction="0.77", clawback_option="A")
        )
        total = lambda r: sum(
            (e.amount for e in r.events if e.kind == "lien_settled"), Decimal(0)
        )
        assert total(cleared) == total(standard)
        assert total(confirmed) > total(cleared)

    def test_no_rider_means_no_clawback_flow(self):
        r = run_scenario(
            ScenarioConfig(target_classical_return="1.10", clawback_fraction="0")
        )
        assert count_events(r.events, "lien_created") == 0
        assert count_events(r.events, "lien_settled") == 0
        assert r.bank_ledger.balance(Account.LIEN_OBLIGATIONS) == 0


class TestBookKeeper:
    def test_loan_past_the_lending_limit_names_year_and_account(self):
        log = [
            simulation.Event(0, 0, "capital_injection", "", Decimal("1")),
            simulation.Event(1, 0, "loan_issued", "f0", Decimal("21")),
        ]
        with pytest.raises(SimulationError) as err:
            post_books(log, ScenarioConfig())
        assert err.value.year == 0 and err.value.account == "loans"

    @pytest.mark.parametrize(
        "first, account",
        [
            (simulation.Event(0, 0, "loan_issued", "f0", Decimal("1")), "tier1_core"),
            (simulation.Event(0, 0, "din_booked", "", Decimal("1"),
                              simulation.DinBooked(Decimal("0"), Decimal("1"))),
             "tier1_core"),
            (simulation.Event(0, 10, "din_released", "", Decimal("1")), "tier1_core"),
            (simulation.Event(0, 10, "lien_settled", "f027", Decimal("1"),
                              simulation.LienSettled(Decimal("0.77"))),
             "lien_obligations"),
        ],
    )
    def test_out_of_order_log_names_year_and_account(self, first, account):
        later = simulation.Event(1, 0, "capital_injection", "", Decimal("1"))
        with pytest.raises(SimulationError) as err:
            post_books([first, later], ScenarioConfig())
        assert (err.value.year, err.value.account) == (first.year, account)

    @pytest.mark.parametrize(
        "dropped, year",
        [({"loan_issued"}, "failure_year"),
         ({"loan_issued", "bankruptcy_payout"}, "exit_year")],
    )
    def test_replay_names_a_fund_with_no_loan(self, dropped, year):
        cfg = ScenarioConfig.calibration(target_classical_return="1.31")
        events = [e for e in simulate(cfg) if e.kind not in dropped]
        with pytest.raises(SimulationError) as err:
            replay(events, cfg)
        assert (err.value.year, err.value.account) == (getattr(cfg, year), "loans")

    def test_carrying_cost_posts_nothing(self):
        cfg = ScenarioConfig.calibration(target_classical_return="1.31")
        events = run_scenario(cfg).events
        assert any(e.kind == "carrying_cost" for e in events)
        kept = [e for e in events if e.kind != "carrying_cost"]
        books, without = post_books(events, cfg), post_books(kept, cfg)
        for ledger, bare in zip(books, without):
            assert ledger.transactions == bare.transactions


class TestDecimalContext:
    def test_caller_precision_does_not_change_outputs(self):
        cfg = ScenarioConfig.calibration(initial_capital="1000000")
        expected = run_scenario(cfg)
        with localcontext() as ctx:
            ctx.prec = 12
            report = run_scenario(ScenarioConfig.calibration(initial_capital="1000000"))
            report_csv, events_csv = report.to_csv(), events_to_csv(report.events)
            replayed = replay(events_from_csv(events_csv), cfg)
            simulated_csv = events_to_csv(simulate(cfg))
            books = report.bank_ledger.balances(), report.underwriter_ledger.balances()
            assert getcontext().prec == 12
        assert report_csv == expected.to_csv()
        assert events_csv == events_to_csv(expected.events)
        assert simulated_csv == events_csv
        assert replayed["underwriter_investment"] == expected.underwriter_investment
        assert books == (expected.bank_ledger.balances(),
                         expected.underwriter_ledger.balances())


class TestConfigValidation:
    def test_moc_past_lending_ceiling(self):
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(moc="48")

    def test_uninsured_book_cannot_reach_47x(self):
        with pytest.raises(InvalidParameterError,
                           match="moc 47 puts a loan book of 47.000000000 past the "
                                 "lending limit 20.000000000"):
            ScenarioConfig(coverage="0", target_classical_return="1.31")

    def test_clawback_option_consistency(self):
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(clawback_fraction="1.0", clawback_option="A")
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(clawback_fraction="0.77", clawback_option="B")

    @pytest.mark.parametrize("field", ["premium_rate", "target_classical_return"])
    @pytest.mark.parametrize("value", ["abc", "NaN", "-Infinity"])
    def test_non_finite_decimal_rejected(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"{field} must be a finite decimal"):
            ScenarioConfig(**{field: value})

    def test_n_funds_is_capped(self):
        ScenarioConfig(n_funds=simulation.MAX_FUNDS)
        for n in (simulation.MAX_FUNDS + 1, 10**12):
            with pytest.raises(InvalidParameterError, match="n_funds"):
                ScenarioConfig(n_funds=n)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(moc="0.000001", n_funds=10000),  # every face rounds to 0
            dict(initial_capital="0.000000017", n_funds=44, moc="43"),  # last face 0
            dict(initial_capital="0.000000017", n_funds=44, moc="30"),  # last face < 0
        ],
    )
    def test_zero_loan_face_rejected(self, fields):
        with pytest.raises(InvalidParameterError,
                           match="moc .*initial_capital .*n_funds") as err:
            ScenarioConfig(**fields)
        assert "loan face" in str(err.value)

    def test_book_past_the_post_booking_limit_rejected(self):
        # 47X of this capital fits the 47.06X ceiling of multipliers'
        # capital_limits, but the floored insured slot leaves a limit of 44X.
        with pytest.raises(InvalidParameterError,
                           match=r"moc 47 puts a loan book of 0\.000000470 past the "
                                 r"lending limit 0\.000000440 that initial_capital "
                                 r"0\.00000001 and"):
            ScenarioConfig.calibration(initial_capital="0.00000001", n_funds=45)

    def test_capital_is_checked_after_rounding(self):
        with pytest.raises(InvalidParameterError,
                           match="initial_capital must be > 0 at 9 decimal places, "
                                 "got 0.0000000002$"):
            ScenarioConfig(initial_capital="0.0000000002")

    def test_fraction_domains(self):
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(clawback_fraction="0.5")
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(premium_rate="1.5")
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(horizon=16)
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(failure_year=10, exit_year=10)


class TestSweep:
    GRID = [Decimal("0.5") + Decimal("0.25") * i for i in range(7)]  # 0.5..2.0

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            sweep_classical_return(ScenarioConfig.calibration(), [])

    def test_all_curves_emitted_in_grid_order(self):
        res = sweep_classical_return(ScenarioConfig.calibration(), self.GRID)
        assert not res.failures
        for name in ("bank_moc30", "bank_moc43", "din_10y", "din_net_profit",
                      "bank_claw0", "bank_claw077"):
            pts = res.curve(name)
            assert [t for t, _ in pts] == self.GRID

    def test_point_failures_recorded_not_fatal(self):
        res = sweep_classical_return(
            ScenarioConfig.calibration(), [Decimal("1.0"), Decimal("-1.0")]
        )
        assert res.failures
        assert all(f.classical_return == Decimal("-1.0") for f in res.failures)
        assert res.curve("din_10y")[0][0] == Decimal("1.0")

    def test_non_finite_targets_become_rows_naming_the_rule(self):
        res = sweep_classical_return(ScenarioConfig.calibration(), ["NaN", "Infinity"])
        assert not res.points
        assert len(res.failures) == 12
        for f in res.failures:
            assert "target_classical_return must be a finite decimal" in f.message

    def test_programming_error_propagates(self, monkeypatch):
        def broken(config):
            raise RuntimeError("bug")

        monkeypatch.setattr(simulation, "simulate", broken)
        with pytest.raises(RuntimeError, match="bug"):
            sweep_classical_return(ScenarioConfig.calibration(), self.GRID[:1])

    def test_sweep_keeps_no_books(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("the sweep touched the books")

        for name in ("post_books", "run_scenario", "Ledger", "SimulationReport"):
            monkeypatch.setattr(simulation, name, broken)
        res = sweep_classical_return(ScenarioConfig.calibration(), self.GRID[:2])
        assert not res.failures
        assert len(res.points) == 2 * len(simulation.SWEEP_CURVES)

    def test_lending_limit_fails_points_without_books(self):
        # At coverage 0.02 the booked notes widen the loan ceiling to 32X
        # for a 30X book but only to 37.2X for a 43X book, so the base
        # config validates and the bank_moc43 curve's configs do not.
        grid = [Decimal("0.9"), Decimal("1.31")]
        cfg = ScenarioConfig.calibration(coverage="0.02", moc="30")
        res = sweep_classical_return(cfg, grid)
        assert [(f.curve, f.classical_return) for f in res.failures] == [
            ("bank_moc43", t) for t in grid]
        assert len(res.points) == 5 * len(grid)
        for f in res.failures:
            assert "moc 43 puts a loan book of 43.000000000 past the lending limit " \
                   "37.200000000" in f.message

    def test_zero_loan_face_points_are_failures(self):
        # 47X of this capital splits into 44 positive faces; 30X and 43X
        # leave the last fund a face below zero and of exactly zero.
        cfg = ScenarioConfig.calibration(initial_capital="0.000000017", n_funds=44)
        grid = [Decimal("0.9"), Decimal("1.31")]
        res = sweep_classical_return(cfg, grid)
        moc_curves = {"bank_moc30", "bank_moc43"}
        assert {p.curve for p in res.points} == {
            name for name, _, _ in simulation.SWEEP_CURVES} - moc_curves
        assert sorted((f.curve, f.classical_return) for f in res.failures) == sorted(
            (curve, t) for t in grid for curve in moc_curves)
        for f in res.failures:
            assert "loan face <= 0" in f.message

    @pytest.mark.parametrize(
        "cfg",
        [ScenarioConfig(), ScenarioConfig(coverage="0.75")],
        ids=["defaults", "coverage_075"],
    )
    def test_each_point_equals_its_full_run(self, cfg):
        grid = [Decimal("0.9"), Decimal("1.31")]
        res = sweep_classical_return(cfg, grid)
        assert not res.failures
        for name, overrides, attr in simulation.SWEEP_CURVES:
            expected = [
                (t, float(getattr(run_scenario(
                    replace(cfg, target_classical_return=t, **overrides)), attr)))
                for t in grid
            ]
            assert res.curve(name) == expected

    def test_underwriter_profit_nondecreasing_under_defaults(self):
        res = sweep_classical_return(ScenarioConfig(), self.GRID)
        values = [v for _, v in res.curve("din_net_profit")]
        assert is_nondecreasing(values, tolerance=1e-9)

    def test_bank_clawback_shapes(self):
        grid = [Decimal("0.5") + Decimal("0.05") * i for i in range(31)]
        res = sweep_classical_return(ScenarioConfig.calibration(), grid)
        with_claw = [v for _, v in res.curve("bank_claw077")]
        without = [v for _, v in res.curve("bank_claw0")]
        assert is_nondecreasing(with_claw, tolerance=1e-9)
        assert sign_scan_local_minimum(without)
        lowest = min(range(len(without)), key=lambda i: without[i])
        assert 0 < lowest < len(without) - 1

    def test_sweep_csv_deterministic(self):
        res1 = sweep_classical_return(ScenarioConfig.calibration(), self.GRID[:3])
        res2 = sweep_classical_return(ScenarioConfig.calibration(), self.GRID[:3])
        assert res1.to_csv() == res2.to_csv()
        assert res1.to_csv().splitlines()[0] == "curve,classical_return,value"

    def test_premiumless_run_earns_equity_only(self):
        cfg = ScenarioConfig.calibration(
            premium_rate="0", target_classical_return="2.5"
        )
        r = run_scenario(cfg)
        premiums = sum(
            (e.amount for e in r.events if e.kind == "premium_paid"), Decimal(0)
        )
        assert premiums == 0
        assert r.premium_earnings_10y > 0  # exit equity only


# Valid clawback riders: (fraction, option, audit verdict).
RIDERS = (
    ("0", "A", None),
    ("0.77", "A", None),
    ("0.77", "C", None),
    ("1.0", "B", True),
    ("1.0", "B", False),
)


@st.composite
def small_configs(draw):
    fraction, option, verdict = draw(st.sampled_from(RIDERS))
    horizon = draw(st.integers(min_value=2, max_value=15))
    exit_year = draw(st.integers(min_value=2, max_value=horizon))
    failure_year = draw(st.integers(min_value=1, max_value=exit_year - 1))
    return ScenarioConfig(
        n_funds=draw(st.integers(min_value=2, max_value=40)),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        coverage=draw(st.decimals(min_value="0.05", max_value="1", places=2)),
        premium_rate=draw(st.decimals(min_value="0", max_value="0.2", places=3)),
        clawback_fraction=fraction,
        clawback_option=option,
        audit_verdict=verdict,
        salvage_mode=draw(st.sampled_from(simulation.SALVAGE_MODES)),
        exit_equity_mode=draw(st.sampled_from(simulation.EXIT_EQUITY_MODES)),
        target_classical_return=draw(st.sampled_from([None, "0.5", "1.31", "2.5"])),
        failure_year=failure_year,
        exit_year=exit_year,
        horizon=horizon,
    )


@st.composite
def capital_configs(draw):
    """Any loan book and capital stack, valid or not: capital from 1E-9 to
    1E+4, reserve fraction, coverage and moc across and past the limit."""
    capital = draw(st.integers(1, 10**4)) * Decimal(10) ** draw(st.integers(-9, 0))
    return dict(
        initial_capital=capital,
        reserve_fraction=draw(st.decimals(min_value="0.01", max_value="1", places=2)),
        coverage=draw(st.decimals(min_value="0", max_value="1", places=3)),
        moc=draw(st.decimals(min_value="0.5", max_value="60", places=1)),
        n_funds=draw(st.integers(min_value=2, max_value=40)),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
    )


class TestEngineProperty:
    @settings(max_examples=100, deadline=None)
    @given(capital_configs())
    def test_a_valid_config_writes_its_whole_loan_book(self, fields):
        try:
            cfg = ScenarioConfig(**fields)
        except InvalidParameterError:
            return
        events = simulate(cfg)
        # post_books refuses a loan past the lending limit with a year-0
        # SimulationError; a config that validates never reaches it.
        bank, _ = post_books(events, cfg)
        lent = sum(p.debit for txn in bank.transactions if txn.year == 0
                   for p in txn.postings if p.account is Account.LOANS)
        assert lent == money(cfg.moc * cfg.initial_capital)

    @settings(max_examples=40, deadline=None)
    @given(small_configs())
    def test_saved_log_reproduces_report_and_books(self, cfg):
        report = run_scenario(cfg)
        simulated = simulate(cfg)
        # Every amount is quantized at its source, as money() would.
        assert [str(e.amount) for e in simulated] == [
            str(money(e.amount)) for e in simulated]
        events = events_from_csv(events_to_csv(simulated))
        assert events == report.events
        figures = replay(events, cfg)
        assert figures == {name: getattr(report, name) for name in figures}
        bank, underwriter = post_books(events, cfg)
        assert bank.transactions == report.bank_ledger.transactions
        assert underwriter.transactions == report.underwriter_ledger.transactions
