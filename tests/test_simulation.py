"""Scenario runs: report identities, determinism, replay, and sweep shapes."""
import csv
import pickle
import random
import re
from collections import Counter
from dataclasses import replace
from decimal import Decimal, InvalidOperation, getcontext, localcontext
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venturebank.contracts import TERM_CAP_YEARS, ClawbackLien, settle_clawback
from venturebank.errors import InvalidParameterError, VentureBankError
from venturebank.ledger import Account, _carrying_cost
from venturebank.money import DECIMAL_CONTEXT, money
from venturebank.returns import SpreadParams
from venturebank import simulation
from venturebank.simulation import (
    ScenarioConfig,
    events_from_csv,
    events_to_csv,
    post_books,
    replay,
    run_scenario,
    sweep_classical_return,
)
from oracles import (
    count_events,
    event_log_csv,
    event_order_replay,
    is_nondecreasing,
    per_fund_amounts,
    per_note_settlements,
    row_event_log,
    sign_scan_local_minimum,
)
from test_golden import CASES as GOLDEN_CASES


TARGETS = ("1.10", "1.31", "1.50")


def logged(events):
    """The log of hand-edited Events, each renumbered to its position, as
    events_from_csv reads it from their text."""
    return events_from_csv(event_log_csv(e._replace(seq=seq) for seq, e in enumerate(events)))


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
        cfg = ScenarioConfig.calibration(target_classical_return="1.31")
        bank, underwriter = post_books(run_scenario(cfg).events, cfg)
        assert bank.trial_balance() == 0
        assert underwriter.trial_balance() == 0

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


class TestReportIsAValue:
    CFG = ScenarioConfig.calibration(target_classical_return="1.31")

    @pytest.fixture
    def post_books_calls(self, monkeypatch):
        calls = []

        def counting(events, config):
            calls.append(config)
            return post_books(events, config)

        monkeypatch.setattr(simulation, "post_books", counting)
        return calls

    def test_two_runs_compare_and_hash_equal(self, post_books_calls):
        a, b = run_scenario(self.CFG), run_scenario(self.CFG)
        assert a == b
        assert hash(a) == hash(b)
        assert post_books_calls == []

    def test_pickled_report_round_trips_equal(self, post_books_calls):
        report = run_scenario(self.CFG)
        assert pickle.loads(pickle.dumps(report)) == report
        assert post_books_calls == []

    def test_repr_posts_no_books(self, post_books_calls):
        text = repr(run_scenario(self.CFG))
        assert "bank_ledger=None, underwriter_ledger=None" in text
        assert post_books_calls == []


class TestEventLogParsing:
    GOOD_ROWS = (
        "0,0,capital_injection,,1.000000000,",
        "1,0,din_booked,,1.000000000,tier1=0.1|tier2=0.9",
    )

    MALFORMED_ROWS = (
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
        # a lien's origin is a plain integer in [0, TERM_CAP_YEARS]
        "2,5,lien_created,f000,1,fraction=0.77|origin=+1_0",
        "2,5,lien_created,f000,1,fraction=0.77|origin=05",
        f"2,5,lien_created,f000,1,fraction=0.77|origin={TERM_CAP_YEARS + 1}",
        "2,5,exit_proceeds,f000,1,face=1|uw_share=x|bank_share=1",  # bad decimal
        "2,1,premium_payed,f000,0.050000000,",  # unknown kind
        "2,0,loan_issued,f000,NaN,",  # amount not finite
        "2,5,lien_settled,f000,1,fraction=Infinity",  # detail not finite
        # seq is the row's position, as str() writes it
        "+2,0,loan_issued,f000,1.000000000,",
        " 2 ,0,loan_issued,f000,1.000000000,",
        "02,0,loan_issued,f000,1.000000000,",
        "1,0,loan_issued,f000,1.000000000,",  # repeated
        "3,0,loan_issued,f000,1.000000000,",  # out of order
        # year is a plain integer in [0, TERM_CAP_YEARS]
        "2,+7,loan_issued,f000,1.000000000,",
        "2, 0 ,loan_issued,f000,1.000000000,",
        "2,1_0,loan_issued,f000,1.000000000,",
        "2,-1,loan_issued,f000,1.000000000,",
        f"2,{TERM_CAP_YEARS + 1},loan_issued,f000,1.000000000,",
        "",  # an empty line is a row of no columns
        # no '"', '\r' or NUL, and each decimal cell spelled as its str()
        '2,0,loan_issued,"f000",1.000000000,',
        "2,0,loan_issued,f\0000,1.000000000,",
        "2,0,loan_issued,f000, 1.000000000,",
        "2,0,loan_issued,f000,1e2,",
        "2,5,lien_settled,f000,1,fraction=+0.77",
    )

    @staticmethod
    def log(*rows: str) -> str:
        return "\n".join((",".join(simulation.EVENT_COLUMNS),) + rows) + "\n"

    @pytest.mark.parametrize("row", MALFORMED_ROWS)
    def test_malformed_row_names_its_line(self, row):
        text = self.log(*self.GOOD_ROWS, row)
        with pytest.raises(InvalidParameterError, match="line 4") as err:
            events_from_csv(text)
        with pytest.raises(InvalidParameterError) as reference:
            row_event_log(text)
        assert str(err.value) == str(reference.value)

    @pytest.mark.parametrize("row", ("2,0,loan_issued,f000,1.000000000,",) + MALFORMED_ROWS)
    def test_a_character_outside_the_grammar_is_refused_ahead_of_any_row(self, row):
        # csv.reader would read '""' as an empty cell; the grammar refuses the
        # character itself, at its line, whatever a later row holds.
        text = self.log(*self.GOOD_ROWS, row)
        for char, cell in (('"', '""'), ("\r", "\r"), ("\0", "\0")):
            with pytest.raises(InvalidParameterError, match=f"line 2: {re.escape(repr(char))} "):
                events_from_csv(text.replace("capital_injection,,",
                                             f"capital_injection,{cell},", 1))

    def test_neither_path_calls_csv(self, monkeypatch):
        class Unusable:
            def __getattr__(self, name):
                raise AssertionError(f"csv.{name} called")

        events = run_scenario(ScenarioConfig()).events
        text = events_to_csv(events)
        # money.csv_text, the package's one use of csv, writes no event log.
        monkeypatch.setattr("venturebank.money.csv", Unusable())
        assert (events_to_csv(events), events_from_csv(text)) == (text, events)
        with pytest.raises(InvalidParameterError, match="line 2: '\"'"):
            events_from_csv(text.replace("\n", '\n"', 1))

    def test_oversized_cell_names_its_line(self):
        row = f"2,0,loan_issued,{'x' * simulation.MAX_LINE},1.000000000,"
        with pytest.raises(InvalidParameterError, match="line 4: longer than 131072"):
            events_from_csv(self.log(*self.GOOD_ROWS, row))

    def test_oversized_header_names_line_1(self):
        header = ",".join(simulation.EVENT_COLUMNS) + "x" * simulation.MAX_LINE
        with pytest.raises(InvalidParameterError, match="line 1: longer than 131072"):
            events_from_csv(header + "\n")

    @pytest.mark.parametrize("text, match", [
        ("0,0,capital_injection,,1\r,\n1,0,loan_issued,\"f000\",1,\n", r"line 2: '\\r'"),
        ("0,0,capital_injection,,1,", "line 2: no final newline"),
    ])
    def test_text_the_writer_cannot_produce_names_its_first_line(self, text, match):
        with pytest.raises(InvalidParameterError, match=match):
            events_from_csv(",".join(simulation.EVENT_COLUMNS) + "\n" + text)

    def test_ambient_state_leaves_the_log_unchanged(self):
        # Neither a lowered csv field limit nor the caller's decimal capitals.
        events = logged([simulation.Event(
            0, 0, "din_booked", "", Decimal("0E-9"),
            simulation.DinBooked(Decimal("0E-9"), Decimal("1E+2")))])
        text, limit = events_to_csv(events), csv.field_size_limit(10)
        try:
            with localcontext() as ctx:
                ctx.capitals = 0
                assert (events_to_csv(events), events_from_csv(text)) == (text, events)
        finally:
            csv.field_size_limit(limit)

    def test_each_distinct_detail_cell_is_parsed_once(self, monkeypatch):
        text = events_to_csv(run_scenario(ScenarioConfig.calibration(
            n_funds=200, target_classical_return="1.31")).events)
        cells = [tuple(line.split(",")[2::3]) for line in text.splitlines()[1:]]
        parsed = []
        parse = simulation._parse_detail
        monkeypatch.setattr(simulation, "_parse_detail",
                            lambda kind, detail: parsed.append((kind, detail))
                            or parse(kind, detail))
        events_from_csv(text)
        assert sorted(parsed) == sorted({cell for cell in cells if cell[1]})
        assert len(parsed) < sum(1 for cell in cells if cell[1])

    def test_good_rows_parse_to_typed_details(self):
        text = "\n".join((",".join(simulation.EVENT_COLUMNS),) + self.GOOD_ROWS)
        injection, booked = events_from_csv(text + "\n")
        assert injection.detail is None
        assert booked.detail == simulation.DinBooked(Decimal("0.1"), Decimal("0.9"))


class TestOpeningBook:
    def test_kept_off_the_fields(self):
        cfg = ScenarioConfig.calibration(target_classical_return="1.31")
        with localcontext(DECIMAL_CONTEXT):
            assert cfg.opening_book == simulation._opening_book(cfg)
        copy = replace(cfg)
        assert copy == cfg and hash(copy) == hash(cfg) and repr(copy) == repr(cfg)
        assert "opening_book" not in repr(cfg)
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_a_built_config_runs_on_its_kept_book(self, monkeypatch):
        # Under zero salvage the liens of 200 funds of two loan faces have
        # at most two sets of terms: settled at most twice, not per fund.
        # Nor does the run call money() here: the book, the loan faces, the
        # capital injected and the drawdown are the kept book's.
        cfg = ScenarioConfig.calibration(n_funds=200, target_classical_return="1.31")
        calls = Counter()
        for name in ("settle_clawback", "_opening_book", "money"):
            def counted(*args, _name=name, _fn=getattr(simulation, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(simulation, name, counted)
        events = run_scenario(cfg).events
        assert count_events(events, "lien_settled") > 2
        assert calls["_opening_book"] == calls["money"] == 0
        assert 1 <= calls["settle_clawback"] <= 2


class TestNoteLifecycle:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(failure_year=2, exit_year=15),
            dict(clawback_fraction="1.0", audit_verdict=True),
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

    @pytest.mark.parametrize("salvage_mode", ["zero", "classical_multiple"])
    def test_only_failures_are_triggered(self, monkeypatch, salvage_mode):
        # Each run of adjacent failures of one class (loan face, equity
        # valuation) takes one bankruptcy trigger: under zero salvage the
        # two loan faces make at most two runs, and under
        # classical_multiple every failure is its own.  An exit records no
        # settlement, so survivors take none.
        cfg = ScenarioConfig.calibration(n_funds=2000, salvage_mode=salvage_mode)
        calls = Counter()
        def counted(note, event, *args, _fn=simulation.apply_trigger, **kwargs):
            calls[event.kind] += 1
            return _fn(note, event, *args, **kwargs)
        monkeypatch.setattr(simulation, "apply_trigger", counted)
        events = run_scenario(cfg).events
        failed = [e.fund_id for e in events if e.kind == "bankruptcy_payout"]
        faces = {e.fund_id: e.amount for e in events if e.kind == "loan_issued"}
        classes = [(faces[e.fund_id], e.detail.equity_valuation)
                   for e in events if e.kind == "bankruptcy_payout"]
        runs = 1 + sum(a != b for a, b in zip(classes, classes[1:]))
        assert calls == Counter(bankruptcy=runs)
        assert runs <= 2 if salvage_mode == "zero" else runs == len(failed)
        created = [e.fund_id for e in events if e.kind == "lien_created"]
        assert created == [e.fund_id for e in events if e.kind == "lien_settled"]
        assert created == failed

    @pytest.mark.parametrize("coverage", ["1", "0.3"])
    @pytest.mark.parametrize("clawback, verdict", [("0", None), ("0.77", None),
                                                   ("1.0", True), ("1.0", False)])
    @pytest.mark.parametrize("salvage_mode", simulation.SALVAGE_MODES)
    def test_each_failure_settles_as_its_own_note(self, salvage_mode, clawback, verdict,
                                                   coverage):
        # The engine settles each failure class once; every failed fund's
        # fields hold what its own note's trigger and lien settle to.  At 201
        # funds the last loan face, a failure's, differs from the others.
        cfg = ScenarioConfig.calibration(
            n_funds=201, target_classical_return="1.31", salvage_mode=salvage_mode,
            clawback_fraction=clawback, audit_verdict=verdict, coverage=coverage)
        funds = simulation._fund_columns(cfg, spread_of(cfg))
        expected = per_note_settlements(funds, cfg)
        assert len(expected) > 2
        assert len({face for face, failure in zip(funds.face, funds.failure)
                    if failure is not None}) == 2
        assert engine_settlements(funds) == expected


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
        bank, _ = post_books(r.events, cfg)
        assert bank.balance(Account.LIEN_OBLIGATIONS) == 0

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
        with pytest.raises(InvalidParameterError, match="audit_verdict"):
            ScenarioConfig(
                target_classical_return="1.31",
                clawback_fraction="1.0",
            )

    def test_option_b_verdicts_set_recovery(self):
        base = dict(target_classical_return="1.31", clawback_fraction="1.0")
        confirmed = run_scenario(ScenarioConfig(audit_verdict=True, **base))
        cleared = run_scenario(ScenarioConfig(audit_verdict=False, **base))
        standard = run_scenario(
            ScenarioConfig(target_classical_return="1.31", clawback_fraction="0.77")
        )
        total = lambda r: sum(
            (e.amount for e in r.events if e.kind == "lien_settled"), Decimal(0)
        )
        assert total(cleared) == total(standard)
        assert total(confirmed) > total(cleared)

    def test_no_rider_means_no_clawback_flow(self):
        cfg = ScenarioConfig(target_classical_return="1.10", clawback_fraction="0")
        r = run_scenario(cfg)
        assert count_events(r.events, "lien_created") == 0
        assert count_events(r.events, "lien_settled") == 0
        bank, _ = post_books(r.events, cfg)
        assert bank.balance(Account.LIEN_OBLIGATIONS) == 0


def assert_books_refused_as_replayed(log, cfg) -> VentureBankError:
    """post_books refuses log under cfg with replay's error and message."""
    with pytest.raises(VentureBankError) as replayed:
        replay(log, cfg)
    with pytest.raises(type(replayed.value)) as posted:
        post_books(log, cfg)
    assert str(posted.value) == str(replayed.value)
    return replayed.value


class TestBookKeeper:
    def test_a_log_the_config_does_not_render_is_refused_as_replay_refuses_it(self):
        # Its loan is past the lending limit, but no capital booking
        # follows the injection as the config renders it.
        log = logged([
            simulation.Event(0, 0, "capital_injection", "", Decimal("1")),
            simulation.Event(1, 0, "loan_issued", "f0", Decimal("21")),
        ])
        err = assert_books_refused_as_replayed(log, ScenarioConfig())
        assert str(err) == ("event 1: kind 'loan_issued' where the config renders "
                            "'din_booked'; the log was not written under this config")

    @pytest.mark.parametrize("face, refusal", [
        ("1000.000000000",
         "the loan total 1046.060000000 is past the lending limit 47.058823520"),
        ("0", "the loan face 0 is not above 0"),
        ("-1", "the loan face -1 is not above 0"),
    ])
    def test_loans_off_the_opening_book_are_refused_as_replay_refuses_them(self, face, refusal):
        # f000 exits, so its face is read from its loan alone: the config
        # renders the edited log, and price holds its loans to the opening
        # book, each above 0 and their total within the lending limit.
        cfg = ScenarioConfig.calibration(target_classical_return="1.31")
        events = list(run_scenario(cfg).events)
        at = next(i for i, e in enumerate(events) if e.kind == "loan_issued")
        assert events[at].fund_id in {e.fund_id for e in events if e.kind == "exit_proceeds"}
        events[at] = events[at]._replace(amount=Decimal(face))
        err = assert_books_refused_as_replayed(logged(events), cfg)
        assert isinstance(err, InvalidParameterError) and str(err) == refusal

    def test_a_settlement_with_no_lien_is_refused_as_replay_refuses_it(self):
        # With a fund's lien_created dropped, the config renders no
        # settlement for it, so the log is not that rendering.
        cfg = ScenarioConfig.calibration(target_classical_return="1.31")
        events = list(run_scenario(cfg).events)
        lien = next(e for e in events if e.kind == "lien_created")
        events.remove(lien)
        err = assert_books_refused_as_replayed(logged(events), cfg)
        assert isinstance(err, InvalidParameterError)
        assert str(err).endswith(f"fund_id {lien.fund_id!r} where the config renders "
                                 f"'f028'; the log was not written under this config")

    @pytest.mark.parametrize(
        "first, differs",
        [
            (simulation.Event(0, 0, "loan_issued", "f0", Decimal("1")),
             "kind 'loan_issued' where the config renders 'capital_injection'"),
            (simulation.Event(0, 0, "din_booked", "", Decimal("1"),
                              simulation.DinBooked(Decimal("0"), Decimal("1"))),
             "kind 'din_booked' where the config renders 'capital_injection'"),
            (simulation.Event(0, 10, "din_released", "", Decimal("1")),
             "year 10 where the config renders 0"),
            (simulation.Event(0, 10, "lien_settled", "f027", Decimal("1"),
                              simulation.LienSettled(Decimal("0.77"))),
             "year 10 where the config renders 0"),
        ],
    )
    def test_an_out_of_order_log_is_refused_as_replay_refuses_it(self, first, differs):
        later = simulation.Event(1, 0, "capital_injection", "", Decimal("1"))
        err = assert_books_refused_as_replayed(logged([first, later]), ScenarioConfig())
        assert isinstance(err, InvalidParameterError)
        assert str(err) == f"event 0: {differs}; the log was not written under this config"

    @pytest.mark.parametrize("edit, differs", [
        ("a duplicated loan_issued", "event 3: fund_id 'f000' where the config renders 'f001'"),
        # With no loan, f000 has no Funds entry and none of its rows fold:
        # the first of them is the first difference.
        ("a dropped loan_issued", "event 52: fund_id 'f000' where the config renders 'f001'"),
        ("a second bankruptcy_payout",
         "event 304: kind 'bankruptcy_payout' where the config renders 'loan_written_off'"),
        ("a premium of another amount",
         "event 103: amount Decimal('0.048000000') where the config renders "
         "Decimal('0.047000000')"),
        # A fund keeps its first premium, so the edited row is named.
        ("the last premium of another amount",
         "event 480: amount Decimal('0.048000000') where the config renders "
         "Decimal('0.047000000')"),
        ("a dropped premium", "event 103: fund_id 'f001' where the config renders 'f000'"),
        # f049 fails in year 5, so it pays no premium in year 6.
        ("a premium copied into another year",
         "event 372: fund_id 'f049' where the config renders 'f000'"),
    ])
    def test_a_log_that_is_not_its_rendering_is_refused_by_its_first_difference(
            self, edit, differs):
        # funds_of folds any log; replay's render check alone refuses a
        # loan issued twice or never, a second payout and uneven premiums.
        cfg = ScenarioConfig.calibration(target_classical_return="1.31")
        events = list(run_scenario(cfg).events)
        loan, payout, premium, later = (
            next(i for i, e in enumerate(events) if e.kind == kind and e.year == year)
            for kind, year in (("loan_issued", 0), ("bankruptcy_payout", 5),
                               ("premium_paid", 2), ("premium_paid", 6)))
        last = max(i for i, e in enumerate(events)
                   if e.kind == "premium_paid" and e.fund_id == events[loan].fund_id)
        if edit == "a duplicated loan_issued":
            events.insert(loan + 1, events[loan])
        elif edit == "a dropped loan_issued":
            del events[loan]
        elif edit == "a second bankruptcy_payout":
            events.insert(payout + 1, events[payout])
        elif edit == "a premium of another amount":
            events[premium] = events[premium]._replace(amount=Decimal("0.048000000"))
        elif edit == "the last premium of another amount":
            events[last] = events[last]._replace(amount=Decimal("0.048000000"))
        elif edit == "a dropped premium":
            del events[premium]
        else:
            events.insert(later, events[premium + 49]._replace(year=6))  # f049's
        err = assert_books_refused_as_replayed(logged(events), cfg)
        assert isinstance(err, InvalidParameterError)
        assert str(err) == f"{differs}; the log was not written under this config"

    def test_carrying_cost_posts_nothing(self):
        # With no clawback rider, the bank rate moves only the carrying
        # costs: at 0 the log has none, and the books are the same.
        cfg = ScenarioConfig.calibration(target_classical_return="1.31", clawback_fraction="0")
        bare = replace(cfg, bank_rate=Decimal(0))
        events, kept = run_scenario(cfg).events, run_scenario(bare).events
        assert any(e.kind == "carrying_cost" for e in events)
        assert [e[2:] for e in events if e.kind != "carrying_cost"] == [e[2:] for e in kept]
        for ledger, without in zip(post_books(events, cfg), post_books(kept, bare)):
            assert ledger.transactions == without.transactions


class TestDecimalContext:
    def test_caller_precision_does_not_change_outputs(self):
        cfg = ScenarioConfig.calibration(initial_capital="1000000")
        expected = run_scenario(cfg)
        with localcontext() as ctx:
            ctx.prec = 12
            report = run_scenario(ScenarioConfig.calibration(initial_capital="1000000"))
            report_csv, events_csv = report.to_csv(), events_to_csv(report.events)
            replayed = replay(events_from_csv(events_csv), cfg)
            books = [ledger.balances() for ledger in post_books(report.events, cfg)]
            assert getcontext().prec == 12
        assert report_csv == expected.to_csv()
        assert events_csv == events_to_csv(expected.events)
        assert replayed["underwriter_investment"] == expected.underwriter_investment
        assert books == [ledger.balances() for ledger in post_books(expected.events, cfg)]


class TestConfigValidation:
    def test_moc_past_lending_ceiling(self):
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(moc="48")

    def test_uninsured_book_cannot_reach_47x(self):
        with pytest.raises(InvalidParameterError,
                           match="moc 47 puts a loan book of 47.000000000 past the "
                                 "lending limit 20.000000000"):
            ScenarioConfig(coverage="0", target_classical_return="1.31")

    # JSON's true and false are ints to Python; neither is a rate or amount.
    @pytest.mark.parametrize("field", [
        "premium_rate", "target_classical_return", "reserve_fraction",
        "equity_fraction", "coverage", "clawback_fraction", "bank_rate", "moc",
        "initial_capital"])
    @pytest.mark.parametrize("value", ["abc", "NaN", "-Infinity", True, False])
    def test_non_finite_decimal_rejected(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"{field} must be a finite decimal"):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("verdict", [1, 0, 1.0, 0.0, "yes"])
    def test_audit_verdict_is_a_bool_or_null(self, verdict):
        with pytest.raises(InvalidParameterError,
                           match="^audit_verdict must be true, false or null$"):
            ScenarioConfig(clawback_fraction="1.0", audit_verdict=verdict)

    @pytest.mark.parametrize(
        "field, value",
        [("target_classical_return", "1E+30"), ("target_classical_return", "-1E+30"),
         ("target_classical_return", "1E+19"), ("moc", "1E+30"),
         ("initial_capital", "1E+30"), ("bank_rate", "1E+30")],
    )
    def test_decimal_past_the_money_scale_rejected(self, field, value):
        with pytest.raises(InvalidParameterError,
                           match=re.escape(f"{field} must be a finite decimal of at "
                                           f"most 19 digits before the point, got "
                                           f"'{value}'")):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize(
        "fields",
        [dict(moc="1E+10", initial_capital="1E+10"),  # the book itself
         dict(initial_capital="1E+18"),  # 47X of it
         dict(reserve_fraction="1E-30")],  # the lending limit
    )
    def test_capital_stack_past_the_money_scale_rejected(self, fields):
        with pytest.raises(InvalidParameterError,
                           match="moc .*initial_capital .*reserve_fraction .*past "
                                 "the money scale"):
            ScenarioConfig(**fields)

    @pytest.mark.parametrize(
        "fields, named",
        [(dict(initial_capital="1E+10", target_classical_return="1E+10"),
          ["initial_capital 1E+10", "target_classical_return 1E+10"]),
         (dict(spread=SpreadParams(survivor_max=9e18)), ["spread.survivor_max 9e+18"]),
         # 15 years of premiums at rate 1; at rate 0.05 the same book runs.
         (dict(initial_capital="1E+16", premium_rate="1", exit_year=15),
          ["premium_rate 1 over exit_year 15"])],
        ids=["target", "survivor_max", "premiums"],
    )
    def test_amounts_past_the_money_scale_rejected(self, fields, named):
        with pytest.raises(InvalidParameterError,
                           match="let a run's amounts reach .* past the money scale") as err:
            ScenarioConfig(**fields)
        for name in named:
            assert name in str(err.value)

    def test_amounts_below_the_money_scale_run(self):
        run_scenario(ScenarioConfig(initial_capital="1E+16", exit_year=15))

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
        ScenarioConfig(bank_rate="1")
        for value in ("-0.01", "1.01"):
            with pytest.raises(InvalidParameterError, match=r"bank_rate must be in \[0, 1\]"):
                ScenarioConfig(bank_rate=value)
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(exit_year=16)
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

    @pytest.mark.parametrize("grid, position, text", [
        (["abc"], 0, "abc"), ([None], 0, "None"), ([True], 0, "True"),
        (["1.31", False], 1, "False"), ([Decimal("1.31"), "1.31x"], 1, "1.31x")])
    def test_a_point_that_is_no_decimal_is_refused_by_name(self, monkeypatch, grid,
                                                           position, text):
        # Refused before any spread is synthesized, whatever the caller's
        # context traps.
        def broken(*args, **kwargs):
            raise RuntimeError("the sweep synthesized a spread")

        monkeypatch.setattr(simulation, "synthesize_distribution", broken)
        for trap in (True, False):
            with localcontext() as ctx:
                ctx.traps[InvalidOperation] = trap
                with pytest.raises(InvalidParameterError, match=(
                        f"^sweep grid point {position} must be a decimal, got '{text}'$")):
                    sweep_classical_return(ScenarioConfig.calibration(), grid)

    @pytest.mark.parametrize("text", ["NaN", "1E+999999999"])
    def test_a_decimal_no_config_takes_is_a_row_on_every_curve(self, text):
        res = sweep_classical_return(ScenarioConfig.calibration(), [text, "1.31"])
        assert [f.curve for f in res.failures] == [
            name for name, _, _ in simulation.SWEEP_CURVES]
        for f in res.failures:
            assert str(f.classical_return) == text
            assert "target_classical_return must be a finite decimal" in f.message
        assert {p.classical_return for p in res.points} == {Decimal("1.31")}

    def test_target_past_the_money_scale_is_a_row_on_every_curve(self):
        res = sweep_classical_return(ScenarioConfig(), ["1E+30", "1"])
        assert [f.curve for f in res.failures] == [
            name for name, _, _ in simulation.SWEEP_CURVES]
        for f in res.failures:
            assert f.classical_return == Decimal("1E+30")
            assert "target_classical_return must be a finite decimal" in f.message
        assert {p.classical_return for p in res.points} == {Decimal("1")}

    def test_run_past_the_money_scale_is_a_row_on_every_curve(self, monkeypatch):
        # Each field fits the money scale; the exit proceeds of the run do
        # not, so every curve's config is refused before anything runs.
        monkeypatch.setattr(simulation, "_fund_columns", None)
        res = sweep_classical_return(ScenarioConfig(initial_capital="1E+10"), ["1E+10"])
        assert not res.points
        assert len(res.failures) == len(simulation.SWEEP_CURVES)
        for f in res.failures:
            assert "initial_capital 1E+10" in f.message
            assert "target_classical_return 1E+10" in f.message
            assert "past the money scale" in f.message

    def test_programming_error_propagates(self, monkeypatch):
        def broken(config, dist):
            raise RuntimeError("bug")

        monkeypatch.setattr(simulation, "_fund_columns", broken)
        with pytest.raises(RuntimeError, match="bug"):
            sweep_classical_return(ScenarioConfig.calibration(), self.GRID[:1])

    @pytest.mark.parametrize(
        "cfg, runs",
        [(ScenarioConfig.calibration(), 4),
         (ScenarioConfig.calibration(clawback_fraction="0.770"), 4),
         (ScenarioConfig.calibration(clawback_fraction="1.0", audit_verdict=True), 5)],
        ids=["calibration", "clawback_0770", "option_b"],
    )
    def test_one_spread_and_one_run_per_distinct_config(self, monkeypatch, cfg, runs):
        # On calibration bank_claw077 is the base config (also at 0.770,
        # which compares equal to 0.77) and din_10y and din_net_profit
        # share it; under full clawback bank_claw077 differs.
        calls = Counter()
        for name in ("synthesize_distribution", "rescale_to_target", "_fund_columns"):
            def counted(*args, _name=name, _fn=getattr(simulation, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(simulation, name, counted)
        res = sweep_classical_return(cfg, self.GRID[:3])
        assert not res.failures
        assert len(res.points) == 3 * len(simulation.SWEEP_CURVES)
        assert calls == {"synthesize_distribution": 1, "rescale_to_target": 3,
                         "_fund_columns": 3 * runs}

    def test_every_point_shares_the_synthesized_fund_ids(self, monkeypatch):
        # The spread's fund_ids tuple is built once per sweep: each point's
        # rescale reuses it, and each run takes it as its fund_id column.
        spreads, columns = [], []

        def recorded(config, dist, _fn=simulation._fund_columns):
            funds = _fn(config, dist)
            spreads.append(dist)
            columns.append(funds.fund_id)
            return funds
        monkeypatch.setattr(simulation, "_fund_columns", recorded)
        assert not sweep_classical_return(ScenarioConfig.calibration(), self.GRID[:3]).failures
        assert len({id(dist) for dist in spreads}) == 3
        assert len({id(ids) for ids in [dist.fund_ids for dist in spreads] + columns}) == 1

    def test_a_refused_override_set_fails_each_of_its_curves(self, monkeypatch):
        # din_10y and din_net_profit share the override set {}: it is
        # validated once per point, and each curve gets its own row.
        cfg, validated = ScenarioConfig.calibration(), []
        post_init = ScenarioConfig.__post_init__
        monkeypatch.setattr(ScenarioConfig, "__post_init__",
                            lambda c: validated.append(c) or post_init(c))
        res = sweep_classical_return(cfg, ["NaN"])
        assert not res.points
        assert [f.curve for f in res.failures] == [
            name for name, _, _ in simulation.SWEEP_CURVES]
        messages = {f.curve: f.message for f in res.failures}
        assert messages["din_10y"] == messages["din_net_profit"]
        assert "target_classical_return must be a finite decimal" in messages["din_10y"]
        assert len(validated) == len(simulation.SWEEP_CURVES) - 1

    def test_points_and_failures_equal_one_run_per_curve(self):
        # Points, validation failures (NaN, and bank_moc43 at coverage
        # 0.02) and rescale failures (-1) in the order and text of a loop
        # that runs every (target, curve) on its own.
        cfg = ScenarioConfig.calibration(coverage="0.02", moc="30")
        grid = ["1.31", "-1", "NaN", "0.9"]
        points, failures = [], []
        for text in grid:
            target = Decimal(text)
            for name, overrides, attr in simulation.SWEEP_CURVES:
                try:
                    c = replace(cfg, target_classical_return=target, **overrides)
                    points.append((name, text, float(replay(run_scenario(c).events, c)[attr])))
                except VentureBankError as exc:
                    failures.append((name, text, str(exc)))
        res = sweep_classical_return(cfg, grid)
        assert [(p.curve, str(p.classical_return), p.value) for p in res.points] == points
        assert [(f.curve, str(f.classical_return), f.message)
                for f in res.failures] == failures
        assert {text for _, text, _ in failures} == {"1.31", "-1", "NaN", "0.9"}
        assert len(points) == 2 * 5

    @pytest.mark.parametrize("cfg, grid", [
        (ScenarioConfig.calibration(coverage="0.02", moc="30"),
         ["NaN", "1E+30", "-1", "1.31", "NaN", "0.9"]),
        # 1E+10 at this capital takes a run past the money scale.
        (ScenarioConfig.calibration(initial_capital="1E+10"),
         ["1E+10", "NaN", "1.31", "1E+30", "1E+10", "-1", "0.9"]),
    ], ids=["refused_first", "reach_bound"])
    def test_refused_points_before_and_after_an_accepted_one(self, cfg, grid):
        # Each override set's config is built in full at the first point
        # where it validates and derived at the later ones: points and
        # failures are still those of one run per (target, curve).
        points, failures = [], []
        for text in grid:
            target = Decimal(text)
            for name, overrides, attr in simulation.SWEEP_CURVES:
                try:
                    c = replace(cfg, target_classical_return=target, **overrides)
                    points.append((name, text, float(replay(run_scenario(c).events, c)[attr])))
                except VentureBankError as exc:
                    failures.append((name, text, str(exc)))
        res = sweep_classical_return(cfg, grid)
        assert [(p.curve, str(p.classical_return), p.value) for p in res.points] == points
        assert [(f.curve, str(f.classical_return), f.message)
                for f in res.failures] == failures
        assert {text for _, text, _ in points} == {"1.31", "0.9"}

    @pytest.mark.parametrize("overrides", [o for _, o, _ in simulation.SWEEP_CURVES],
                             ids=[name for name, _, _ in simulation.SWEEP_CURVES])
    def test_a_derived_config_is_the_replace_it_stands_for(self, overrides):
        # NaN and 1E+30 fail the target's own check, 1E+10 the amount
        # bound at this capital; -1 and 1.31 validate.
        base = ScenarioConfig.calibration(initial_capital="1E+10")
        grid = [Decimal(t) for t in ("NaN", "-1", "1E+30", "1.31", "1E+10")]
        first = replace(base, target_classical_return=grid[1], **overrides)
        outcomes = []
        for target in grid:
            try:
                expected = replace(base, target_classical_return=target, **overrides)
            except VentureBankError as exc:
                with pytest.raises(type(exc)) as err:
                    first._at_target(target)
                assert type(err.value) is type(exc) and str(err.value) == str(exc)
                outcomes.append(type(exc))
                continue
            derived = first._at_target(target)
            assert derived == expected
            assert hash(derived) == hash(expected)
            assert repr(derived) == repr(expected)
            assert derived.opening_book == expected.opening_book
            assert derived.opening_book is first.opening_book
            assert derived._reach_terms == expected._reach_terms
            assert derived._reach_terms is first._reach_terms
            outcomes.append(None)
        assert outcomes == [InvalidParameterError, None, InvalidParameterError, None,
                            InvalidParameterError]

    def test_each_override_set_is_validated_in_full_once(self, monkeypatch):
        # Later points check only their target and keep the opening book.
        cfg, calls = ScenarioConfig.calibration(), Counter()
        for name in ("_opening_book", "replace"):
            def counted(*args, _name=name, _fn=getattr(simulation, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(simulation, name, counted)
        res = sweep_classical_return(cfg, self.GRID)
        assert len(res.points) == len(self.GRID) * len(simulation.SWEEP_CURVES)
        sets = len({tuple(o.items()) for _, o, _ in simulation.SWEEP_CURVES})
        assert calls == {"_opening_book": sets, "replace": sets}

    def test_sweep_keeps_no_books(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("the sweep touched the books")

        for name in ("post_books", "run_scenario", "Ledger", "SimulationReport"):
            monkeypatch.setattr(simulation, name, broken)
        res = sweep_classical_return(ScenarioConfig.calibration(), self.GRID[:2])
        assert not res.failures
        assert len(res.points) == 2 * len(simulation.SWEEP_CURVES)

    def test_sweep_builds_no_event_log(self, monkeypatch):
        # Each point prices the engine's Funds: nothing renders, folds,
        # replays or builds an Event.
        def broken(*args, **kwargs):
            raise RuntimeError("the sweep touched an event log")

        for name in ("render", "funds_of", "replay", "events_to_csv", "Event"):
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
        [ScenarioConfig(), ScenarioConfig(coverage="0.75"), ScenarioConfig.calibration(),
         ScenarioConfig(clawback_fraction="0.770")],
        ids=["defaults", "coverage_075", "calibration", "clawback_0770"],
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


# Valid clawback riders: (fraction, audit verdict).
RIDERS = (
    ("0", None),
    ("0.77", None),
    ("1.0", True),
    ("1.0", False),
)


@st.composite
def small_configs(draw):
    fraction, verdict = draw(st.sampled_from(RIDERS))
    exit_year = draw(st.integers(min_value=2, max_value=15))
    failure_year = draw(st.integers(min_value=1, max_value=exit_year - 1))
    return ScenarioConfig(
        n_funds=draw(st.integers(min_value=2, max_value=40)),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        coverage=draw(st.decimals(min_value="0.05", max_value="1", places=2)),
        premium_rate=draw(st.decimals(min_value="0", max_value="0.2", places=3)),
        clawback_fraction=fraction,
        audit_verdict=verdict,
        salvage_mode=draw(st.sampled_from(simulation.SALVAGE_MODES)),
        exit_equity_mode=draw(st.sampled_from(simulation.EXIT_EQUITY_MODES)),
        target_classical_return=draw(st.sampled_from([None, "0.5", "1.31", "2.5"])),
        failure_year=failure_year,
        exit_year=exit_year,
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
        events = run_scenario(cfg).events
        # replay and post_books refuse a loan total past the lending limit;
        # a config that validates never logs one.
        bank, _ = post_books(events, cfg)
        lent = sum(p.debit for txn in bank.transactions if txn.year == 0
                   for p in txn.postings if p.account is Account.LOANS)
        assert lent == money(cfg.moc * cfg.initial_capital)

    @settings(max_examples=40, deadline=None)
    @given(small_configs(), st.decimals(min_value="0", max_value="0.2", places=3))
    def test_each_fund_settles_its_own_lien_and_payout(self, cfg, bank_rate):
        # The engine settles each distinct set of lien terms, and costs each
        # distinct parked payout, once; each fund's rows still equal the
        # public functions applied to that fund's own lien and payout.
        cfg = replace(cfg, bank_rate=bank_rate)
        events = run_scenario(cfg).events
        closeout = cfg.exit_year
        settled = {e.fund_id: e for e in events if e.kind == "lien_settled"}
        created = [e for e in events if e.kind == "lien_created"]
        assert len(settled) == len(created)
        for e in created:
            lien = ClawbackLien(e.fund_id, e.amount, e.detail.fraction, e.detail.origin,
                                cfg.clawback_policy().option)
            amount, lien = settle_clawback(lien, closeout, cfg.bank_rate,
                                           verdict=cfg.audit_verdict)
            row = settled[e.fund_id]
            assert (row.year, str(row.amount), row.detail) == (
                closeout, str(amount), simulation.LienSettled(lien.fraction))
        expected = {}
        for e in events:
            if e.kind == "bankruptcy_payout":
                cost = _carrying_cost(e.amount - e.detail.equity_valuation,
                                      closeout - e.year, cfg.bank_rate)
                if cost > 0:
                    expected[e.fund_id] = str(cost)
        assert {e.fund_id: str(e.amount) for e in events
                if e.kind == "carrying_cost"} == expected

    @settings(max_examples=40, deadline=None)
    @given(small_configs())
    def test_saved_log_reproduces_report_and_books(self, cfg):
        report = run_scenario(cfg)
        simulated = run_scenario(cfg).events
        # Every amount is quantized at its source, as money() would.
        assert [str(e.amount) for e in simulated] == [
            str(money(e.amount)) for e in simulated]
        events = events_from_csv(events_to_csv(simulated))
        assert events == report.events
        figures = replay(events, cfg)
        assert figures == {name: getattr(report, name) for name in figures}
        assert [ledger.transactions for ledger in post_books(events, cfg)] == [
            ledger.transactions for ledger in post_books(report.events, cfg)]

    @settings(max_examples=40, deadline=None)
    @given(small_configs(), st.data())
    def test_books_post_the_logs_replay_accepts(self, cfg, data):
        # An unedited log posts balanced books.  A log edited by one row
        # (moved to another year, dropped, copied or repriced) that replay
        # refuses, post_books refuses with replay's message; one that
        # replay accepts, its loans within the lending limit, posts
        # balanced books.
        events = list(run_scenario(cfg).events)
        for ledger in post_books(logged(events), cfg):
            assert ledger.trial_balance() == 0
        at = data.draw(st.integers(0, len(events) - 1))
        edit = data.draw(st.sampled_from(["year", "drop", "copy", "amount"]))
        if edit == "year":
            year = (events[at].year + data.draw(st.integers(1, cfg.exit_year))) % (
                cfg.exit_year + 1)
            events[at] = events[at]._replace(year=year)
        elif edit == "drop":
            del events[at]
        elif edit == "copy":
            events.insert(at, events[at])
        else:
            events[at] = events[at]._replace(amount=events[at].amount + Decimal(1))
        log = logged(events)
        try:
            replay(log, cfg)
        except VentureBankError:
            assert_books_refused_as_replayed(log, cfg)
            return
        assert edit != "year"
        assert sum(e.amount for e in events if e.kind == "loan_issued") <= cfg.opening_book[6]
        for ledger in post_books(log, cfg):
            assert ledger.trial_balance() == 0


# The golden configs, the defaults, a target low enough that rescaling
# clamps some multiples at zero, and one at which every fund fails, so
# that no premium is paid after failure_year.
ROW_CASES = dict(GOLDEN_CASES, defaults=ScenarioConfig,
                 clamped=lambda: ScenarioConfig(target_classical_return="0.3"),
                 all_fail=lambda: ScenarioConfig.calibration(
                     n_funds=3, target_classical_return="0.01"))


def assert_block_shape(log):
    """Each block a maximal run of rows of one year and one "is
    premium_paid", and no block empty."""
    keys = [(year, {row[0] == "premium_paid" for row in rows}) for year, rows in log.blocks]
    assert all(len(premium) == 1 for _, premium in keys)
    assert all(a != b for a, b in zip(keys, keys[1:]))


@st.composite
def edited_logs(draw):
    """A small run's log after a few hand edits: an event dropped, copied
    or moved, or an amount changed (so premiums may be uneven)."""
    cfg = draw(st.sampled_from([
        ScenarioConfig.calibration(target_classical_return="1.31", n_funds=5),
        ScenarioConfig(target_classical_return="0.9", n_funds=4, clawback_fraction="1.0",
                       audit_verdict=False),
        ScenarioConfig(target_classical_return="1.31", n_funds=4, clawback_fraction="0",
                       exit_equity_mode="earnings"),
    ]))
    events = list(run_scenario(cfg).events)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(events) - 1))
        edit = draw(st.sampled_from(["drop", "copy", "move", "amount"]))
        if edit == "drop":
            del events[at]
        elif edit == "amount":
            events[at] = events[at]._replace(amount=draw(
                st.decimals(min_value="0.000000001", max_value="1000", places=9)))
        else:
            event = events[at] if edit == "copy" else events.pop(at)
            events.insert(draw(st.integers(0, len(events))), event)
    return cfg, events


class TestRows:
    """A run's Funds are its economics: its log is their rendering,
    funds_of the rendering's inverse, and price the one pricing routine."""

    @staticmethod
    def check_rows(cfg):
        funds = simulation._fund_columns(cfg, spread_of(cfg))
        events = simulation.render(funds, cfg)
        assert list(funds.fund_id) == [e.fund_id for e in events if e.kind == "loan_issued"]
        text = events_to_csv(events)
        read = events_from_csv(text)
        assert_block_shape(events)
        assert read == events and read.blocks == events.blocks
        assert simulation.funds_of(events) == simulation.funds_of(read) == funds
        assert events_to_csv(read) == text == event_log_csv(tuple(events))
        assert simulation.price(funds, cfg) == replay(events, cfg)

    @pytest.mark.parametrize("name", sorted(ROW_CASES))
    def test_log_folds_back_to_its_rows(self, name):
        self.check_rows(ROW_CASES[name]())

    @settings(max_examples=40, deadline=None)
    @given(small_configs())
    def test_log_folds_back_to_its_rows_on_any_config(self, cfg):
        self.check_rows(cfg)

    @settings(max_examples=150, deadline=None)
    @given(edited_logs())
    def test_any_log_prices_as_its_event_order_totals(self, edited):
        # replay prices only a log that its config renders back from its
        # Funds, and prices it as its event-order totals; it refuses any
        # other by its first differing event, among them every log that an
        # event-order replay refuses.
        cfg, events = edited
        try:
            expected = event_order_replay(events, cfg.initial_capital, cfg.exit_equity_mode)
        except ValueError:  # a loan issued twice, or after its payout or exit
            expected = None
        try:
            figures = replay(logged(events), cfg)
        except InvalidParameterError as exc:
            assert re.match("^event [0-9]+: .* where the config renders .*; "
                            "the log was not written under this config$", str(exc))
        else:
            assert expected is not None and figures == expected

    @pytest.mark.parametrize("overrides, differs", [
        (dict(initial_capital=2, failure_year=4),
         "event 0: amount Decimal('1.000000000') where the config renders "
         "Decimal('2.000000000')"),
        (dict(failure_year=4), "event 253: year 5 where the config renders 4"),
        (dict(exit_year=11), "event 507: year 10 where the config renders 11"),
        (dict(moc=40), "event 52: amount Decimal('23.500000000') where the config renders "
                       "Decimal('20.000000000')"),
    ])
    def test_replay_refuses_a_log_under_another_config(self, overrides, differs):
        # A log replays to its report under the config that wrote it; a
        # config that renders its Funds as another log is refused, by the
        # first event that differs, before anything is priced.
        cfg = ScenarioConfig.calibration(target_classical_return="1.31")
        log = run_scenario(cfg).events
        assert replay(log, cfg)["bank_10y_return"] == pytest.approx(5.220929471, abs=1e-9)
        with pytest.raises(InvalidParameterError, match=(
                f"^{re.escape(differs)}; the log was not written under this config$")):
            replay(log, replace(cfg, **overrides))

    @pytest.mark.parametrize("funds", [["f0", "f0"], ["f0", "f1"]])
    def test_a_premium_total_that_rounds_is_refused_by_name(self, funds):
        # Each premium fits the money scale; its total over 11 years takes
        # 29 digits, as does the sum of two.
        big = Decimal("9000000000000000000.000000001")
        log = [simulation.Event(0, 0, "loan_issued", "f0", Decimal(1)),
               *[simulation.Event(1 + i, 1, "premium_paid", fund, big)
                 for i, fund in enumerate(funds)]]
        # Priced alone: replay would refuse the log, which no config renders.
        with pytest.raises(InvalidParameterError,
                           match="^the premiums total is past the 28 digits"):
            simulation.price(simulation.funds_of(logged(log)), ScenarioConfig(exit_year=11))

    def test_negative_premium_earnings_are_refused_by_name(self):
        # No run pays a premium below 0, but a hand-edited log may: its
        # earnings' tenth root, the yearly return, would be complex.
        cfg = ScenarioConfig(target_classical_return="1.31", n_funds=4)
        negated = logged(e._replace(amount=-e.amount) if e.kind == "premium_paid" else e
                         for e in run_scenario(cfg).events)
        earnings = sum(e.amount for e in negated if e.kind == "premium_paid")
        assert earnings < 0
        with pytest.raises(InvalidParameterError, match=(
                f"^the premium earnings {re.escape(str(earnings))} are below 0$")):
            replay(negated, cfg)

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_a_loan_total_not_above_0_is_refused_by_name(self, scale):
        # No run lends 0 or less, but a hand-edited log may: the mean fund
        # multiple would divide its terminal value by that total.  Each loan
        # is written off at its face, so both rows are edited.
        cfg = ScenarioConfig(target_classical_return="1.31", n_funds=4)
        edited = logged(e._replace(amount=e.amount * Decimal(scale))
                        if e.kind in ("loan_issued", "loan_written_off") else e
                        for e in run_scenario(cfg).events)
        loans = sum(e.amount for e in edited if e.kind == "loan_issued")
        assert loans <= 0
        with pytest.raises(InvalidParameterError, match=(
                f"^the loan total {re.escape(str(loans))} is not above 0$")):
            replay(edited, cfg)


def spread_of(cfg):
    """The spread a run of cfg prices, as run_scenario builds it."""
    dist = simulation.synthesize_distribution(seed=cfg.seed, n_funds=cfg.n_funds,
                                              spread=cfg.spread)
    if cfg.target_classical_return is not None:
        dist = simulation.rescale_to_target(dist, cfg.target_classical_return)
    return dist


def shuffled_spread(salvage_mode):
    """A calibration config at 41 funds and its spread in a shuffled order,
    so that its failures are interleaved with its exits."""
    cfg = ScenarioConfig.calibration(n_funds=41, target_classical_return="1.31",
                                     salvage_mode=salvage_mode)
    dist = spread_of(cfg)
    order = list(range(cfg.n_funds))
    random.Random(7).shuffle(order)
    return cfg, dist._replace(**{name: tuple(getattr(dist, name)[i] for i in order)
                                 for name in ("fund_ids", "multiples", "outcomes")})


def engine_settlements(funds):
    """per_note_settlements's tuple of every failed fund, as the engine
    settled it."""
    return [(fund, payout, lien, terms, clawed, None if settled is None else settled.fraction)
            for fund, failure, payout, lien, terms, clawed, settled in zip(
                funds.fund_id, funds.failure, funds.payout, funds.lien, funds.lien_terms,
                funds.clawed, funds.settled) if failure is not None]


class TestColumns:
    """The engine computes a run's Funds a column at a time, and each
    fund's amounts are its own."""

    @staticmethod
    def check_columns(cfg, dist):
        columns = simulation._fund_columns(cfg, dist)
        assert type(columns) is simulation.Funds
        assert all(type(column) is tuple and len(column) == len(dist.fund_ids)
                   for column in columns)
        engine = [(fund, str(worth if proceeds is None else proceeds),
                   None if exit is None else (str(exit.uw_share), str(exit.bank_share)))
                  for fund, worth, proceeds, exit in zip(
                      columns.fund_id, columns.worth, columns.proceeds, columns.exit)]
        assert engine == [(fund, str(amount), None if split is None else tuple(map(str, split)))
                          for fund, amount, split in per_fund_amounts(dist, cfg)]
        return columns

    @settings(max_examples=40, deadline=None)
    @given(small_configs())
    def test_a_run_renders_the_engine_columns(self, cfg):
        columns = self.check_columns(cfg, spread_of(cfg))
        assert run_scenario(cfg).events == simulation.render(columns, cfg)

    @pytest.mark.parametrize("coverage", ["0.3", "0.75", "1"])
    @pytest.mark.parametrize("clawback, verdict", RIDERS)
    @pytest.mark.parametrize("salvage_mode", simulation.SALVAGE_MODES)
    def test_each_fund_takes_its_own_amounts(self, salvage_mode, clawback, verdict, coverage):
        # At 201 funds the last loan face, a failure's, differs from the
        # others.
        cfg = ScenarioConfig.calibration(
            n_funds=201, target_classical_return="1.31", salvage_mode=salvage_mode,
            clawback_fraction=clawback, audit_verdict=verdict, coverage=coverage)
        self.check_columns(cfg, spread_of(cfg))

    @pytest.mark.parametrize("salvage_mode", simulation.SALVAGE_MODES)
    def test_failures_need_not_form_a_suffix(self, salvage_mode):
        # A spread is sorted, so its failures come last; the engine selects
        # them by classification, and an interleaved spread gives every
        # fund its own amounts and settlement all the same, and its log
        # folds back to its Funds and prices as they do.
        cfg, dist = shuffled_spread(salvage_mode)
        classes = list(dist.outcomes)
        assert classes[-1] != "failure" and classes != sorted(classes)
        funds = self.check_columns(cfg, dist)
        assert engine_settlements(funds) == per_note_settlements(funds, cfg)
        events = simulation.render(funds, cfg)
        for log in (events, events_from_csv(events_to_csv(events))):
            assert simulation.funds_of(log) == funds
            assert simulation.price(funds, cfg) == replay(log, cfg)

    def test_an_empty_log_prices_as_no_columns(self):
        # The header line alone reads as an empty log.  No config renders
        # no columns as an empty log, so replay refuses it.
        cfg = ScenarioConfig()
        log = events_from_csv(",".join(simulation.EVENT_COLUMNS) + "\n")
        assert log.blocks == ()
        empty = simulation.funds_of(log)
        assert empty == simulation.Funds(*((),) * len(simulation.Funds._fields))
        assert simulation.price(empty, cfg)["classical_return"] == 0.0
        with pytest.raises(InvalidParameterError, match=(
                "^event 0: seq None where the config renders 0; the log was not written")):
            replay(log, cfg)


@st.composite
def large_configs(draw):
    """Target, spread, rates and years across the money scale."""
    return dict(
        target_classical_return=draw(st.none() | st.builds(
            lambda digits, exponent: Decimal(digits) * Decimal(10) ** exponent,
            st.integers(0, 999), st.integers(-3, 16))),
        spread=SpreadParams(survivor_max=draw(st.floats(1.5, 1e18))),
        premium_rate=draw(st.decimals(min_value="0", max_value="1", places=2)),
        bank_rate=draw(st.decimals(min_value="0", max_value="1", places=2)),
        failure_year=draw(st.integers(1, 7)),
        exit_year=draw(st.integers(8, 15)),
        n_funds=draw(st.integers(2, 6)),
        salvage_mode=draw(st.sampled_from(simulation.SALVAGE_MODES)),
        exit_equity_mode=draw(st.sampled_from(simulation.EXIT_EQUITY_MODES)),
    )


class TestAmountBound:
    @settings(max_examples=60, deadline=None)
    @given(large_configs())
    def test_the_largest_capital_that_validates_runs_and_replays(self, fields):
        # The bound is a true upper bound: at the largest capital it lets
        # through (to 1), no amount of the run is refused late and every
        # total is exact.
        def validates(capital):
            try:
                return ScenarioConfig(initial_capital=capital, **fields)
            except InvalidParameterError:
                return None

        low, high = 1, 10**19
        if validates(low) is None:
            return
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (middle, high) if validates(middle) else (low, middle)
        cfg = validates(low)
        report = run_scenario(cfg)
        report.to_csv()
        events = events_from_csv(events_to_csv(report.events))
        assert replay(events, cfg) == {
            name: getattr(report, name) for name in replay(events, cfg)}


# Cells in the event-log grammar.
GRAMMAR_TEXT = st.sampled_from(["", "f000", "None"]) | st.text(
    alphabet=st.characters(exclude_characters=',"\r\n\0'), max_size=6)
DETAIL_DECIMALS = st.decimals(min_value=-10**6, max_value=10**6, places=9)
# Finite decimals of any exponent, at a third of the cost of st.decimals().
DECIMALS = st.builds(lambda digits, exponent: Decimal(f"{digits}E{exponent}"),
                     st.integers(-10**20, 10**20), st.integers(-10**6, 10**6))


def details_of(record, years):
    hints = get_type_hints(record)
    return st.builds(record, *[years if hints[name] is int else DETAIL_DECIMALS
                               for name in record._fields])


# Logs the reader takes back: seq is the row's position, year and a lien's
# origin are in [0, TERM_CAP_YEARS], a kind carries its own detail record
# or none, and every cell is in the grammar.
YEARS = st.integers(0, TERM_CAP_YEARS)
readable_logs = st.lists(st.one_of([
    st.tuples(YEARS, st.just(kind), GRAMMAR_TEXT, DECIMALS,
              details_of(simulation.EVENT_DETAILS[kind], YEARS)
              if kind in simulation.EVENT_DETAILS else st.none())
    for kind in sorted(simulation.EVENT_KINDS)
]), max_size=6).map(lambda rows: tuple(
    simulation.Event(seq, *row) for seq, row in enumerate(rows)))


@pytest.fixture(scope="module")
def golden_lines():
    return [events_to_csv(run_scenario(case()).events).split("\n")
            for case in GOLDEN_CASES.values()]


class TestEventLogReader:
    @settings(max_examples=300, deadline=None)
    @given(readable_logs)
    def test_round_trip(self, events):
        # The text of a csv.writer loop reads back as the Events, and
        # events_to_csv writes the log read as those bytes.
        text = event_log_csv(events)
        log = events_from_csv(text)
        assert tuple(log) == events and events_to_csv(log) == text
        read = events_from_csv(events_to_csv(log))
        assert read == log and read.blocks == log.blocks

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_accepted_text_is_written_back(self, golden_lines, data):
        # A slice of one cell of a golden log is replaced by drawn text.
        lines = list(data.draw(st.sampled_from(golden_lines)))
        row = data.draw(st.integers(0, len(lines) - 2))
        cells = lines[row].split(",")
        column = data.draw(st.integers(0, len(cells) - 1))
        start, end = sorted(data.draw(st.tuples(*[st.integers(0, len(cells[column]))] * 2)))
        cells[column] = cells[column][:start] + data.draw(
            st.text(alphabet='0123456789.-+Ee_ |=xN,"\r\n\0', max_size=3)) + cells[column][end:]
        lines[row] = ",".join(cells)
        try:
            events = events_from_csv("\n".join(lines))
        except InvalidParameterError:
            return
        assert events_to_csv(events) == "\n".join(lines)

    @pytest.mark.parametrize("prec", [None, 6])
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reads_as_the_row_reader(self, golden_lines, prec, data):
        # Both readers take the same mutated texts to equal Events, or refuse
        # them with one type and message, whatever the caller's precision.
        lines = data.draw(mutated_logs(golden_lines))
        text = "\n".join(lines)
        with localcontext() as ctx:
            if prec is not None:
                ctx.prec = prec
            assert read_outcome(events_from_csv, text) == read_outcome(row_event_log, text)


# Cells a mutated log writes over one of a golden log's: text no decimal,
# seq or year cell may hold as it stands, a year past TERM_CAP_YEARS, and
# every kind; and details with wrong keys or a signed origin.
MUTANT_CELLS = ("", "x", "1e2", "+1", "01", "16", *sorted(simulation.EVENT_KINDS))
MUTANT_DETAILS = ("share=0.77", "origin=5|fraction=0.77", "fraction=0.77|origin=+1",
                  "fraction=0.77|origin=5|x=1", "tier1=1|tier2=1", "fraction=0.77")


@st.composite
def mutated_logs(draw, golden_lines):
    """A golden log's lines after one to three edits: one or two cells of a
    row set to MUTANT_CELLS, a detail set to one of MUTANT_DETAILS, a cell
    added or dropped, or a blank line inserted."""
    lines = list(draw(st.sampled_from(golden_lines)))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("cell", "cell", "detail", "detail", "extra", "missing",
                                     "blank")))
        rows = range(1, len(lines) - 1)
        if edit == "detail":  # a row that carries one, if any still does
            rows = [row for row in rows if lines[row].split(",")[-1]] or rows
        row = draw(st.sampled_from(rows))
        cells = lines[row].split(",")
        if edit == "blank":
            lines.insert(row, "")
            continue
        if edit == "cell":  # one or two, so that the reader's check order shows
            for column in draw(st.lists(st.integers(0, len(cells) - 1), min_size=1,
                                        max_size=2, unique=True)):
                cells[column] = draw(st.sampled_from(MUTANT_CELLS))
        elif edit == "detail":
            cells[-1] = draw(st.sampled_from(MUTANT_DETAILS))
        elif edit == "extra":
            cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(MUTANT_CELLS)))
        elif len(cells) > 1:
            del cells[draw(st.integers(0, len(cells) - 1))]
        lines[row] = ",".join(cells)
    return lines


def read_outcome(read, text):
    """The Events read reads from text, or the type and message of its refusal."""
    try:
        return tuple(read(text))
    except Exception as exc:
        return type(exc), str(exc)


class TestEventLogWriter:
    """events_to_csv writes the bytes of a literal csv.writer loop."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_logs_equal_csv_writer(self, name):
        events = run_scenario(GOLDEN_CASES[name]()).events
        assert events_to_csv(events) == event_log_csv(events)


def writer_cases():
    """(config, spread) pairs the block writer is checked on: both salvage
    modes under each clawback rider, the shuffled spreads, and a config
    with no insured-note booking (coverage 0, so no din_booked)."""
    cases = {}
    for salvage_mode in simulation.SALVAGE_MODES:
        for clawback, verdict in RIDERS:
            cfg = ScenarioConfig.calibration(
                n_funds=201, target_classical_return="1.31", salvage_mode=salvage_mode,
                clawback_fraction=clawback, audit_verdict=verdict)
            cases[f"{salvage_mode}-{clawback}-{verdict}"] = cfg, spread_of(cfg)
        cases[f"shuffled-{salvage_mode}"] = shuffled_spread(salvage_mode)
    cfg = ScenarioConfig(coverage="0", moc="20", n_funds=201, target_classical_return="1.31")
    cases["coverage-0"] = cfg, spread_of(cfg)
    return cases


WRITER_CASES = writer_cases()


class TestEventLog:
    """A log is its Events in blocks of one shape: render and the reader
    build equal blocks for equal events, nothing else builds a log, and
    events_to_csv writes one as a csv.writer loop writes the Events."""

    @pytest.mark.parametrize("name", sorted(WRITER_CASES))
    def test_blocks_write_the_rows_text(self, name):
        # TestRows.check_rows makes the same check on small_configs().
        cfg, dist = WRITER_CASES[name]
        funds = simulation._fund_columns(cfg, dist)
        log = simulation.render(funds, cfg)
        text = events_to_csv(log)
        assert text == event_log_csv(tuple(log))
        read = events_from_csv(text)
        assert isinstance(read, simulation.EventLog) and read == log
        assert read.blocks == log.blocks
        assert simulation.funds_of(read) == funds and events_to_csv(read) == text
        kinds = Counter(e.kind for e in log)
        assert kinds["din_booked"] == (0 if name == "coverage-0" else 1)
        assert kinds["bankruptcy_payout"] > 0 and kinds["exit_proceeds"] > 0

    @pytest.mark.parametrize("salvage_mode", simulation.SALVAGE_MODES)
    @settings(max_examples=40, deadline=None)
    @given(small_configs())
    def test_a_run_reads_back_as_its_log(self, salvage_mode, cfg):
        # What the writer guarantees of a run's log, with no scan of its
        # own text: the reader takes the text back to the same log.
        run = run_scenario(replace(cfg, salvage_mode=salvage_mode))
        assert events_from_csv(events_to_csv(run.events)) == run.events

    def test_iteration_equality_and_pickle(self):
        cfg, dist = WRITER_CASES["classical_multiple-0.77-None"]
        log = simulation.render(simulation._fund_columns(cfg, dist), cfg)
        events = list(log)
        assert all(type(e) is simulation.Event for e in events)
        assert [e.seq for e in events] == list(range(sum(len(rows) for _, rows in log.blocks)))
        read = events_from_csv(events_to_csv(log))
        assert read == log and hash(read) == hash(log) and repr(read) == repr(log)
        assert repr(log).startswith("EventLog(blocks=((0, (('capital_injection', '', ")
        copy = pickle.loads(pickle.dumps(log))
        assert copy == log and copy.blocks == log.blocks and hash(copy) == hash(log)

    def test_only_render_and_the_reader_build_a_log(self):
        log = run_scenario(ScenarioConfig(n_funds=4)).events
        for build in (lambda: simulation.EventLog(log.blocks),
                      lambda: simulation.EventLog(blocks=log.blocks),
                      lambda: replace(log)):
            with pytest.raises(TypeError):
                build()

    def test_a_fund_id_none_as_text_stands(self):
        cfg, dist = WRITER_CASES["zero-0.77-None"]
        funds = simulation._fund_columns(cfg, dist)
        log = simulation.render(funds._replace(fund_id=("None",) + funds.fund_id[1:]), cfg)
        assert events_to_csv(log) == event_log_csv(tuple(log))
        assert ",loan_issued,None," in events_to_csv(log)
