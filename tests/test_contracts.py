"""Lifecycle state machine, settlements, and clawback liens."""
import copy
import pickle
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from venturebank.contracts import (
    BANKRUPTCY,
    EXERCISE,
    EXIT,
    FAILURE_TO_INFORM,
    FORCED_TRIGGERS,
    OFFER_REFUSAL,
    PREMIUM_DEFAULT,
    TERMINAL_STATES,
    WAIVE,
    ClawbackLien,
    ClawbackPolicy,
    DinContract,
    DinState,
    LienResolution,
    Settlement,
    TriggerEvent,
    _exit_equity_split,
    annual_premium,
    apply_trigger,
    create_clawback,
    exit_equity_split,
    settle_clawback,
)
from venturebank.errors import (
    ForcedTriggerError,
    InvalidParameterError,
    MissingVerdictError,
    StateTransitionError,
    TerminalStateError,
)
from venturebank.money import compound, money
from oracles import compound_interest


def note(**kw) -> DinContract:
    base = dict(contract_id="d1", principal="2", coverage="1", equity_fraction="0.5")
    base.update(kw)
    return DinContract(**base)


POLICY_A = ClawbackPolicy(option="A", fraction="0.77")
POLICY_B = ClawbackPolicy(option="B", fraction="1")


class TestBankruptcy:
    def test_payout_and_equity_transfer(self):
        ev = TriggerEvent(BANKRUPTCY, year=5, payload="0.8")
        nxt, stl = apply_trigger(note(), ev, EXERCISE, clawback=POLICY_A)
        assert nxt.state is DinState.PAID_OUT
        assert stl.cash_to_bank == Decimal("2.000000000")
        assert stl.equity_to_underwriter == Decimal("1")
        assert stl.lien is not None
        assert stl.lien.base == Decimal("1.200000000")  # payout 2 less equity 0.8
        assert stl.lien.fraction == Decimal("0.77")

    def test_partial_coverage_scales_payout(self):
        ev = TriggerEvent(BANKRUPTCY, year=5, payload="0")
        _, stl = apply_trigger(note(coverage="0.5"), ev, EXERCISE, clawback=POLICY_A)
        assert stl.cash_to_bank == Decimal("1.000000000")
        assert stl.lien.base == Decimal("1.000000000")

    def test_equity_above_payout_floors_lien_at_zero(self):
        ev = TriggerEvent(BANKRUPTCY, year=5, payload="3.5")
        _, stl = apply_trigger(note(), ev, EXERCISE, clawback=POLICY_A)
        assert stl.lien.base == Decimal("0")

    def test_no_rider_means_no_lien(self):
        ev = TriggerEvent(BANKRUPTCY, year=5, payload="0.8")
        nxt, stl = apply_trigger(note(), ev, EXERCISE, clawback=None)
        assert nxt.state is DinState.PAID_OUT
        assert stl.lien is None
        assert nxt.liens == ()

    def test_waive_refused(self):
        ev = TriggerEvent(BANKRUPTCY, year=5, payload="0.8")
        with pytest.raises(ForcedTriggerError):
            apply_trigger(note(), ev, WAIVE)


class TestExit:
    def test_equity_share_no_cash(self):
        ev = TriggerEvent(EXIT, year=10, payload="7.5")
        nxt, stl = apply_trigger(note(), ev, EXERCISE)
        assert nxt.state is DinState.EXITED
        assert stl.cash_to_bank == 0
        assert stl.equity_to_underwriter == Decimal("0.5")

    def test_partial_coverage_scales_share(self):
        ev = TriggerEvent(EXIT, year=10)
        _, stl = apply_trigger(note(coverage="0.4"), ev, EXERCISE)
        assert stl.equity_to_underwriter == Decimal("0.2")

    def test_waive_refused(self):
        with pytest.raises(ForcedTriggerError):
            apply_trigger(note(), TriggerEvent(EXIT, year=10), WAIVE)


class TestPremiumDefault:
    def test_exercise_closes_and_takes_equity(self):
        nxt, stl = apply_trigger(note(), TriggerEvent(PREMIUM_DEFAULT, year=3), EXERCISE)
        assert nxt.state is DinState.CLOSED
        assert stl.equity_to_underwriter == Decimal("1")
        assert stl.cash_to_bank == 0 and stl.lien is None

    def test_waive_restores_active(self):
        nxt, stl = apply_trigger(note(), TriggerEvent(PREMIUM_DEFAULT, year=3), WAIVE)
        assert nxt.state is DinState.ACTIVE
        assert stl == type(stl)()  # empty settlement


class TestOfferRefusal:
    def test_exercise_claims_bank_slice_of_upside(self):
        # insured value 2, refused offer 30: upside 28, bank slice half
        ev = TriggerEvent(OFFER_REFUSAL, year=6, payload="30")
        nxt, stl = apply_trigger(note(), ev, EXERCISE)
        assert nxt.state is DinState.CLOSED
        assert stl.cash_to_bank == Decimal("14.000000000")
        assert stl.equity_to_underwriter == Decimal("1")
        assert stl.lien is None

    def test_offer_below_insured_value_pays_nothing(self):
        ev = TriggerEvent(OFFER_REFUSAL, year=6, payload="1.5")
        _, stl = apply_trigger(note(), ev, EXERCISE)
        assert stl.cash_to_bank == 0

    def test_waive_restores_active(self):
        ev = TriggerEvent(OFFER_REFUSAL, year=6, payload="30")
        nxt, _ = apply_trigger(note(), ev, WAIVE)
        assert nxt.state is DinState.ACTIVE


class TestFailureToInform:
    def test_exercise_seizes_everything_by_default(self):
        nxt, stl = apply_trigger(note(), TriggerEvent(FAILURE_TO_INFORM, year=4), EXERCISE)
        assert nxt.state is DinState.CLOSED
        assert stl.equity_to_underwriter == Decimal("1")

    def test_waive_restores_active(self):
        nxt, _ = apply_trigger(note(), TriggerEvent(FAILURE_TO_INFORM, year=4), WAIVE)
        assert nxt.state is DinState.ACTIVE


class TestStateMachine:
    def terminal_notes(self):
        ev = TriggerEvent(BANKRUPTCY, year=5, payload="0")
        paid, _ = apply_trigger(note(), ev, EXERCISE, clawback=POLICY_A)
        exited, _ = apply_trigger(note(), TriggerEvent(EXIT, year=10), EXERCISE)
        closed, _ = apply_trigger(note(), TriggerEvent(PREMIUM_DEFAULT, year=3), EXERCISE)
        void = note(state=DinState.VOID)
        return [paid, exited, closed, void]

    def test_terminal_states_refuse_everything(self):
        ev = TriggerEvent(PREMIUM_DEFAULT, year=3)
        for dead in self.terminal_notes():
            assert dead.state in TERMINAL_STATES
            with pytest.raises(TerminalStateError):
                apply_trigger(dead, ev, WAIVE)
            with pytest.raises(StateTransitionError):
                annual_premium(dead, "0.05")

    def test_no_double_trigger(self):
        # A registry record may hold a note in TRIGGERED; it takes no
        # second trigger, and it is not terminal.
        held = note(state=DinState.TRIGGERED)
        with pytest.raises(StateTransitionError) as err:
            apply_trigger(held, TriggerEvent(EXIT, year=10))
        assert not isinstance(err.value, TerminalStateError)

    @pytest.mark.parametrize(
        "kind, payload",
        [(BANKRUPTCY, "1"), (EXIT, None), (PREMIUM_DEFAULT, None),
         (OFFER_REFUSAL, "9"), (FAILURE_TO_INFORM, None)],
    )
    @pytest.mark.parametrize("choice", [EXERCISE, WAIVE])
    def test_one_trigger_one_replace(self, kind, payload, choice):
        # An exercised trigger yields one new note, equal field for field
        # to one replace of the note it was given, under every clawback
        # policy; a waived trigger hands back that very note.
        ev = TriggerEvent(kind, year=5, payload=payload)
        prior = (create_clawback("d1", "1", POLICY_A, origin_year=1),)
        expected_state = {BANKRUPTCY: DinState.PAID_OUT,
                          EXIT: DinState.EXITED}.get(kind, DinState.CLOSED)
        for policy in (None, POLICY_A, POLICY_B):
            active = note(liens=prior)
            if kind in FORCED_TRIGGERS and choice is WAIVE:
                with pytest.raises(ForcedTriggerError):
                    apply_trigger(active, ev, choice, clawback=policy)
                continue
            nxt, stl = apply_trigger(active, ev, choice, clawback=policy)
            if choice is WAIVE:
                assert nxt is active
                continue
            expected = active._replace(
                state=expected_state,
                liens=prior + ((stl.lien,) if stl.lien is not None else ()),
            )
            assert nxt is not active and type(nxt) is DinContract
            assert nxt == expected and nxt._asdict() == expected._asdict()
            assert active == note(liens=prior)


class LifecycleMachine(RuleBasedStateMachine):
    """One note under any sequence of triggers and choices, written with
    or without the clawback rider, and the lien a payout leaves settled
    any number of times."""

    @initialize(
        policy=st.sampled_from([POLICY_A, POLICY_B, None]),
        state=st.sampled_from([DinState.ACTIVE, DinState.TRIGGERED, DinState.VOID]),
    )
    def write_note(self, policy, state):
        self.policy = policy
        self.note = note(state=state)
        self.lien = None  # the payout's lien, once settled its settled copy

    @rule(
        kind=st.sampled_from(
            [BANKRUPTCY, EXIT, PREMIUM_DEFAULT, OFFER_REFUSAL, FAILURE_TO_INFORM]),
        choice=st.sampled_from([EXERCISE, WAIVE]),
        year=st.integers(min_value=1, max_value=15),
        payload=st.integers(min_value=0, max_value=40),
    )
    def trigger(self, kind, choice, year, payload):
        before = self.note
        event = TriggerEvent(
            kind, year, payload=None if kind == PREMIUM_DEFAULT else str(payload))
        if before.state in TERMINAL_STATES:
            with pytest.raises(TerminalStateError):
                apply_trigger(before, event, choice, clawback=self.policy)
            return
        if before.state is not DinState.ACTIVE:
            with pytest.raises(StateTransitionError):
                apply_trigger(before, event, choice, clawback=self.policy)
            return
        if kind in FORCED_TRIGGERS and choice is WAIVE:
            with pytest.raises(ForcedTriggerError):
                apply_trigger(before, event, choice, clawback=self.policy)
            return
        self.note, settlement = apply_trigger(before, event, choice, clawback=self.policy)
        if choice is WAIVE:
            assert self.note is before and settlement == Settlement()
            return
        expected = {BANKRUPTCY: DinState.PAID_OUT, EXIT: DinState.EXITED}
        assert self.note.state is expected.get(kind, DinState.CLOSED)
        lien = settlement.lien
        assert self.note.liens == ((lien,) if lien else ())
        if lien is not None:
            assert (lien.fraction, lien.origin_year) == (self.policy.fraction, year)
            self.lien = lien

    @precondition(lambda self: self.lien is not None)
    @rule(
        years=st.integers(min_value=0, max_value=15),
        rate=st.sampled_from(["0", "0.03", "0.06", "0.125"]),
        verdict=st.booleans(),
    )
    def settle(self, years, rate, verdict):
        lien = self.lien
        year = lien.origin_year + years
        if lien.resolution is not LienResolution.UNRESOLVED:
            with pytest.raises(StateTransitionError):
                settle_clawback(lien, year, rate, verdict=verdict)
            return
        if lien.option == "B":
            with pytest.raises(MissingVerdictError):
                settle_clawback(lien, year, rate)
        amount, self.lien = settle_clawback(lien, year, rate, verdict=verdict)
        # Option A collects its fixed fraction whatever the verdict.
        share = lien.fraction if lien.option == "A" else Decimal("1" if verdict else "0.77")
        assert str(amount) == str(money(share * compound(lien.base, rate, years)))
        assert self.lien == lien._replace(fraction=share, resolution=(
            LienResolution.FULL_RECOVERY if share == 1 else LienResolution.RELEASED23))

    @invariant()
    def one_lien_per_payout(self):
        if self.note.state is DinState.PAID_OUT and self.policy is not None:
            assert len(self.note.liens) == 1
        else:
            assert self.note.liens == ()


LifecycleMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=10, deadline=None)
TestLifecycleMachine = LifecycleMachine.TestCase


class TestPremiumAndTerm:
    def test_premium_is_rate_on_insured_value(self):
        assert annual_premium(note(), "0.05") == Decimal("0.100000000")
        assert annual_premium(note(coverage="0.5"), "0.05") == Decimal("0.050000000")


class TestEquitySplit:
    def test_even_split_exact(self):
        uw, bank = exit_equity_split("0.20", "1.0", "0.50")
        assert uw == Decimal("0.100000000")
        assert bank == Decimal("0.100000000")

    def test_shares_always_recompose(self):
        rng = random.Random(99)
        for _ in range(200):
            equity = Decimal(rng.randrange(1, 10**6)) / Decimal(100)
            cov = Decimal(rng.randrange(0, 101)) / Decimal(100)
            frac = Decimal(rng.randrange(0, 101)) / Decimal(100)
            uw, bank = exit_equity_split(equity, cov, frac)
            assert uw + bank == money(money(equity) * cov)


class TestClawbackSettlement:
    def test_option_b_fraud_not_confirmed(self):
        lien = create_clawback("d1", "100", POLICY_B, origin_year=5)
        amount, settled = settle_clawback(lien, 10, "0.03", verdict=False)
        assert abs(amount - Decimal("89.26")) < Decimal("0.01")
        assert amount == Decimal("89.264103721")
        assert settled.resolution is LienResolution.RELEASED23
        assert settled.fraction == Decimal("0.77")

    def test_option_b_fraud_confirmed(self):
        lien = create_clawback("d1", "100", POLICY_B, origin_year=5)
        amount, settled = settle_clawback(lien, 10, "0.03", verdict=True)
        assert amount == Decimal("115.927407430")
        assert settled.resolution is LienResolution.FULL_RECOVERY

    def test_option_b_requires_verdict(self):
        lien = create_clawback("d1", "100", POLICY_B, origin_year=5)
        with pytest.raises(MissingVerdictError):
            settle_clawback(lien, 10, "0.03")

    def test_option_a_ignores_verdict_machinery(self):
        lien = create_clawback("d1", "100", POLICY_A, origin_year=5)
        amount, settled = settle_clawback(lien, 10, "0.03")
        assert amount == Decimal("89.264103721")
        assert settled.resolution is LienResolution.RELEASED23

    def test_growth_matches_loop_oracle(self):
        lien = create_clawback("d1", "37.5", POLICY_A, origin_year=2)
        amount, _ = settle_clawback(lien, 9, "0.04")
        expect = Decimal("0.77") * compound_interest(Decimal("37.5"), Decimal("0.04"), 7)
        assert abs(amount - expect) < Decimal("0.000001")

    def test_same_year_settlement_skips_growth(self):
        lien = create_clawback("d1", "100", POLICY_A, origin_year=5)
        amount, _ = settle_clawback(lien, 5, "0.03")
        assert amount == Decimal("77.000000000")

    def test_no_double_settlement(self):
        lien = create_clawback("d1", "100", POLICY_A, origin_year=5)
        _, settled = settle_clawback(lien, 10, "0.03")
        with pytest.raises(StateTransitionError):
            settle_clawback(settled, 11, "0.03")

    def test_a_built_lien_settles_as_a_created_one(self):
        # The constructor reads its amounts as create_clawback does.
        built = ClawbackLien("d1", "100", "0.77", 5)
        created = create_clawback("d1", "100", POLICY_A, origin_year=5)
        assert [str(v) for v in built] == [str(v) for v in created]
        assert settle_clawback(built, 10, "0.03") == settle_clawback(created, 10, "0.03")

    def test_settlement_cannot_precede_origin(self):
        lien = create_clawback("d1", "100", POLICY_A, origin_year=5)
        with pytest.raises(InvalidParameterError):
            settle_clawback(lien, 4, "0.03")


class TestValidation:
    def test_unknown_trigger_kind(self):
        with pytest.raises(InvalidParameterError):
            TriggerEvent("meteor_strike", year=1)

    def test_option_b_must_carry_full_base(self):
        with pytest.raises(InvalidParameterError):
            ClawbackPolicy(option="B", fraction="0.77")

    def test_unknown_option(self):
        for option in ("C", "D"):
            with pytest.raises(InvalidParameterError):
                ClawbackPolicy(option=option)

    def test_contract_bounds(self):
        with pytest.raises(InvalidParameterError):
            note(coverage="1.5")
        with pytest.raises(InvalidParameterError):
            note(equity_fraction="-0.1")


SCALE_PAST = " is past the money scale of 19 digits before the point"


class TestRecordParity:
    """Every refusal of the note records and of the two checked arithmetic
    functions: the exception type and its whole message.  Where a call
    holds several faults, the first one checked is reported."""

    REFUSALS = [
        # TriggerEvent
        (lambda: TriggerEvent("meteor_strike", 1), InvalidParameterError,
         "unknown trigger kind: 'meteor_strike'"),
        (lambda: TriggerEvent(None, 1), InvalidParameterError,
         "unknown trigger kind: None"),
        (lambda: TriggerEvent(BANKRUPTCY, 1, payload="NaN"), InvalidParameterError,
         "amount must be a finite decimal, got 'NaN'"),
        (lambda: TriggerEvent(BANKRUPTCY, 1, payload=float("inf")),
         InvalidParameterError, "amount must be a finite decimal, got 'inf'"),
        (lambda: TriggerEvent(BANKRUPTCY, 1, payload=Decimal("1E+30")),
         InvalidParameterError, "1E+30" + SCALE_PAST),
        (lambda: TriggerEvent(EXIT, True), InvalidParameterError,
         "year must be an int, got True"),
        (lambda: TriggerEvent(EXIT, 2.5), InvalidParameterError,
         "year must be an int, got 2.5"),
        (lambda: TriggerEvent(BANKRUPTCY, "5"), InvalidParameterError,
         "year must be an int, got '5'"),
        (lambda: TriggerEvent("meteor_strike", "5", payload="NaN"),
         InvalidParameterError, "unknown trigger kind: 'meteor_strike'"),
        (lambda: TriggerEvent(BANKRUPTCY, "5", payload="NaN"),
         InvalidParameterError, "amount must be a finite decimal, got 'NaN'"),
        # DinContract
        (lambda: DinContract("d", "NaN"), InvalidParameterError,
         "amount must be a finite decimal, got 'NaN'"),
        (lambda: DinContract("d", 10**19), InvalidParameterError,
         "10000000000000000000" + SCALE_PAST),
        (lambda: DinContract("d", "-1"), InvalidParameterError,
         "principal must be >= 0"),
        (lambda: DinContract("d", "1", coverage="1.5"), InvalidParameterError,
         "coverage must be in [0, 1], got 1.5"),
        (lambda: DinContract("d", "1", coverage=None), InvalidParameterError,
         "coverage must be a finite decimal, got 'None'"),
        (lambda: DinContract("d", "1", equity_fraction="-0.1"),
         InvalidParameterError, "equity_fraction must be in [0, 1], got -0.1"),
        (lambda: DinContract("d", "1", equity_fraction="sNaN"),
         InvalidParameterError,
         "equity_fraction must be a finite decimal, got 'sNaN'"),
        (lambda: DinContract("d", "-1", coverage="2"), InvalidParameterError,
         "coverage must be in [0, 1], got 2"),
        (lambda: DinContract("d", "-1", coverage="1", equity_fraction="2"),
         InvalidParameterError, "equity_fraction must be in [0, 1], got 2"),
        (lambda: DinContract(5, "1"), InvalidParameterError,
         "contract_id must be a string, got 5"),
        (lambda: DinContract("d", "1", state="active"), InvalidParameterError,
         "state must be a DinState, got 'active'"),
        (lambda: DinContract("d", "1", liens=[]), InvalidParameterError,
         "liens must be a tuple, got []"),
        (lambda: DinContract("d", "1", liens=None), InvalidParameterError,
         "liens must be a tuple, got None"),
        (lambda: DinContract(5, "-1", state="active"), InvalidParameterError,
         "principal must be >= 0"),
        (lambda: DinContract(None, "1", state="active", liens=[]),
         InvalidParameterError, "contract_id must be a string, got None"),
        (lambda: DinContract("d", "1", state="active", liens=[]),
         InvalidParameterError, "state must be a DinState, got 'active'"),
        # exit_equity_split
        (lambda: exit_equity_split("NaN", "1", "0.5"), InvalidParameterError,
         "amount must be a finite decimal, got 'NaN'"),
        (lambda: exit_equity_split(10**19, "1", "0.5"), InvalidParameterError,
         "10000000000000000000" + SCALE_PAST),
        (lambda: exit_equity_split("10", "1.5", "0.5"), InvalidParameterError,
         "coverage must be in [0, 1], got 1.5"),
        (lambda: exit_equity_split("10", None, "0.5"), InvalidParameterError,
         "coverage must be a finite decimal, got 'None'"),
        (lambda: exit_equity_split("10", "1", "2"), InvalidParameterError,
         "equity_fraction must be in [0, 1], got 2"),
        (lambda: exit_equity_split("10", "1", "abc"), InvalidParameterError,
         "equity_fraction must be a finite decimal, got 'abc'"),
        (lambda: exit_equity_split("NaN", "2", "2"), InvalidParameterError,
         "amount must be a finite decimal, got 'NaN'"),
        (lambda: exit_equity_split("10", "2", "2"), InvalidParameterError,
         "coverage must be in [0, 1], got 2"),
        # settle_clawback
        (lambda: settle_clawback(create_clawback("d", "1", ClawbackPolicy(), 5), 10,
                                 "1e500000"), InvalidParameterError,
         "rate 1E+500000 over 5 periods grows principal 1.000000000 past the "
         "decimal range"),
        # ClawbackLien
        (lambda: ClawbackLien("d", "NaN", "0.77", 5), InvalidParameterError,
         "amount must be a finite decimal, got 'NaN'"),
        (lambda: ClawbackLien("d", "1", "1.5", 5), InvalidParameterError,
         "fraction must be in [0, 1], got 1.5"),
        (lambda: ClawbackLien("d", "1", None, 5), InvalidParameterError,
         "fraction must be a finite decimal, got 'None'"),
        (lambda: ClawbackLien(5, "1", "0.77", 5), InvalidParameterError,
         "contract_id must be a string, got 5"),
        (lambda: ClawbackLien("d", "1", "0.77", "5"), InvalidParameterError,
         "origin_year must be an int, got '5'"),
        (lambda: ClawbackLien("d", "1", "0.77", True), InvalidParameterError,
         "origin_year must be an int, got True"),
        (lambda: ClawbackLien("d", "1", "0.77", 5, option="D"), InvalidParameterError,
         "unknown clawback option: 'D'"),
        (lambda: ClawbackLien("d", "1", "0.77", 5, resolution="unresolved"),
         InvalidParameterError, "resolution must be a LienResolution, got 'unresolved'"),
        (lambda: ClawbackLien(5, "NaN", "0.77", "5"), InvalidParameterError,
         "amount must be a finite decimal, got 'NaN'"),
        # create_clawback
        (lambda: create_clawback(5, "1", POLICY_A, 5), InvalidParameterError,
         "contract_id must be a string, got 5"),
        (lambda: create_clawback("d", "1", POLICY_A, 5.0), InvalidParameterError,
         "origin_year must be an int, got 5.0"),
        # ClawbackLien refuses the base create_clawback refuses
        (lambda: ClawbackLien("f", -5, "0.77", 1), InvalidParameterError,
         "lien base must be >= 0"),
    ]

    @pytest.mark.parametrize("build, error, message", REFUSALS,
                             ids=[f"{row}: {message}"
                                  for row, (_, _, message) in enumerate(REFUSALS)])
    def test_refusal(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error
        assert str(info.value) == message


def records():
    lien = create_clawback("d1", "1.5", POLICY_A, origin_year=5)
    return (
        TriggerEvent(BANKRUPTCY, 5, payload="0.8"),
        TriggerEvent(EXIT, 10),
        Settlement(),
        Settlement(cash_to_bank=Decimal("2"), lien=lien),
        lien,
        note(),
        note(state=DinState.PAID_OUT, liens=(lien,)),
    )


class TestRecordCopies:
    @pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
    def test_copies_are_equal_records(self, record):
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record), record._replace(),
                      type(record)._make(record)):
            assert type(clone) is type(record)
            assert clone == record == tuple(record)
            assert clone._asdict() == record._asdict()

    def test_replace_changes_only_the_named_fields(self):
        active = note()
        closed = active._replace(state=DinState.CLOSED)
        assert closed.state is DinState.CLOSED
        assert closed._replace(state=DinState.ACTIVE) == active
        assert closed.insured_value == active.insured_value

    def test_make_and_replace_do_not_check(self):
        # The engine builds its notes from values ScenarioConfig checked;
        # only the constructor checks.
        raw = DinContract._make(("d", Decimal("2"), Decimal("1"), Decimal("0.5"),
                                 DinState.ACTIVE, ()))
        assert raw.principal == Decimal("2") and str(raw.principal) == "2"
        assert note()._replace(principal="-1").principal == "-1"
        assert TriggerEvent._make(("meteor_strike", 1, None)).kind == "meteor_strike"

    def test_lien_settlement_keeps_the_lien_type(self):
        lien = create_clawback("d1", "100", POLICY_A, origin_year=5)
        _, settled = settle_clawback(lien, 10, "0.03")
        assert type(settled) is ClawbackLien
        assert settled == lien._replace(resolution=LienResolution.RELEASED23)


MONEY_AMOUNTS = st.decimals(min_value=-10**12, max_value=10**12, places=9,
                            allow_nan=False, allow_infinity=False)
FRACTIONS = st.decimals(min_value=0, max_value=1, places=6,
                        allow_nan=False, allow_infinity=False)


class TestCheckedEqualsArithmetic:
    """A public function is its checks followed by its private arithmetic:
    on money-scale inputs the two give the same Decimals, exponent and
    sign of zero included."""

    @settings(max_examples=200, deadline=None)
    @given(MONEY_AMOUNTS, FRACTIONS, FRACTIONS)
    def test_exit_equity_split(self, equity, coverage, equity_fraction):
        public = exit_equity_split(equity, coverage, equity_fraction)
        private = _exit_equity_split(equity, coverage, equity_fraction)
        assert [str(d) for d in public] == [str(d) for d in private]
        # The bank's share, computed without a quantize, is the money()
        # of the difference.
        to_underwriter, to_bank = private
        assert str(to_bank) == str(money(money(equity * coverage) - to_underwriter))
