"""Lifecycle state machine, settlements, and clawback liens."""
import random
from dataclasses import replace
from decimal import Decimal

import pytest

from venturebank import contracts
from venturebank.contracts import (
    BANKRUPTCY,
    EXERCISE,
    EXIT,
    FAILURE_TO_INFORM,
    OFFER_REFUSAL,
    PREMIUM_DEFAULT,
    TERMINAL_STATES,
    WAIVE,
    ClawbackPolicy,
    DinContract,
    DinState,
    LienResolution,
    TriggerEvent,
    annual_premium,
    apply_trigger,
    create_clawback,
    detach,
    exit_equity_split,
    extend_term,
    record_trigger,
    renegotiate_for,
    resolve_trigger,
    settle_clawback,
)
from venturebank.errors import (
    ForcedTriggerError,
    InvalidParameterError,
    MissingVerdictError,
    StateTransitionError,
    TermCapError,
    TerminalStateError,
)
from oracles import compound_interest


def note(**kw) -> DinContract:
    base = dict(contract_id="d1", principal="2", coverage="1", equity_fraction="0.5")
    base.update(kw)
    return DinContract(**base)


POLICY_A = ClawbackPolicy(option="A", fraction="0.77")
POLICY_B = ClawbackPolicy(option="B", fraction="1")
POLICY_C = ClawbackPolicy(option="C", fraction="0.77")


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

    def test_renegotiate_refused(self):
        ev = TriggerEvent(BANKRUPTCY, year=5, payload="0.8")
        with pytest.raises(ForcedTriggerError):
            apply_trigger(note(), ev, renegotiate_for("1"))

    def test_option_c_flags_lien_for_audit(self):
        ev = TriggerEvent(BANKRUPTCY, year=5, payload="0")
        _, stl = apply_trigger(note(), ev, EXERCISE, clawback=POLICY_C)
        assert stl.lien.audit_flagged
        _, stl_a = apply_trigger(note(), ev, EXERCISE, clawback=POLICY_A)
        assert not stl_a.lien.audit_flagged


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
        assert stl.cash_to_bank == 0 and stl.cash_to_underwriter == 0

    def test_waive_restores_active(self):
        nxt, stl = apply_trigger(note(), TriggerEvent(PREMIUM_DEFAULT, year=3), WAIVE)
        assert nxt.state is DinState.ACTIVE
        assert stl == type(stl)()  # empty settlement

    def test_renegotiation_payment_recorded(self):
        nxt, stl = apply_trigger(
            note(), TriggerEvent(PREMIUM_DEFAULT, year=3), renegotiate_for("0.25")
        )
        assert nxt.state is DinState.ACTIVE
        assert stl.cash_to_underwriter == Decimal("0.250000000")


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

    def test_partial_seizure(self):
        _, stl = apply_trigger(
            note(),
            TriggerEvent(FAILURE_TO_INFORM, year=4),
            EXERCISE,
            seizure_fraction="0.6",
        )
        assert stl.equity_to_underwriter == Decimal("0.6")

    def test_waive_restores_active(self):
        nxt, _ = apply_trigger(note(), TriggerEvent(FAILURE_TO_INFORM, year=4), WAIVE)
        assert nxt.state is DinState.ACTIVE


class TestStateMachine:
    def terminal_notes(self):
        ev = TriggerEvent(BANKRUPTCY, year=5, payload="0")
        paid, _ = apply_trigger(note(), ev, EXERCISE, clawback=POLICY_A)
        exited, _ = apply_trigger(note(), TriggerEvent(EXIT, year=10), EXERCISE)
        closed, _ = apply_trigger(note(), TriggerEvent(PREMIUM_DEFAULT, year=3), EXERCISE)
        void = detach(note())
        return [paid, exited, closed, void]

    def test_terminal_states_refuse_everything(self):
        ev = TriggerEvent(PREMIUM_DEFAULT, year=3)
        for dead in self.terminal_notes():
            assert dead.state in TERMINAL_STATES
            with pytest.raises(TerminalStateError):
                apply_trigger(dead, ev, WAIVE)
            with pytest.raises(TerminalStateError):
                detach(dead)
            with pytest.raises(StateTransitionError):
                annual_premium(dead, "0.05")
            with pytest.raises(StateTransitionError):
                extend_term(dead, 12)

    def test_two_step_trigger_holds_event(self):
        held = record_trigger(note(), TriggerEvent(PREMIUM_DEFAULT, year=3))
        assert held.state is DinState.TRIGGERED
        assert held.pending is not None
        nxt, _ = resolve_trigger(held, WAIVE)
        assert nxt.state is DinState.ACTIVE and nxt.pending is None

    def test_no_double_trigger(self):
        held = record_trigger(note(), TriggerEvent(PREMIUM_DEFAULT, year=3))
        with pytest.raises(StateTransitionError):
            record_trigger(held, TriggerEvent(EXIT, year=10))
        with pytest.raises(StateTransitionError):
            apply_trigger(held, TriggerEvent(EXIT, year=10))

    @pytest.mark.parametrize(
        "kind, payload",
        [(BANKRUPTCY, "1"), (EXIT, None), (PREMIUM_DEFAULT, None),
         (OFFER_REFUSAL, "9"), (FAILURE_TO_INFORM, None)],
    )
    @pytest.mark.parametrize("choice", [EXERCISE, WAIVE, renegotiate_for("1")])
    def test_one_step_equals_two_steps_in_one_replace(self, monkeypatch, kind,
                                                       payload, choice):
        ev = TriggerEvent(kind, year=5, payload=payload)
        held = record_trigger(note(), ev)
        if kind in (BANKRUPTCY, EXIT) and choice is not EXERCISE:
            with pytest.raises(ForcedTriggerError):
                resolve_trigger(held, choice, clawback=POLICY_A)
            with pytest.raises(ForcedTriggerError):
                apply_trigger(note(), ev, choice, clawback=POLICY_A)
            return
        two_steps = resolve_trigger(held, choice, clawback=POLICY_A)
        active, built = note(), []

        def counting_replace(*args, **kwargs):
            built.append(args[0])
            return replace(*args, **kwargs)

        monkeypatch.setattr(contracts, "replace", counting_replace)
        assert apply_trigger(active, ev, choice, clawback=POLICY_A) == two_steps
        assert built == [active]

    def test_resolve_needs_pending_event(self):
        with pytest.raises(StateTransitionError):
            resolve_trigger(note(), WAIVE)

    def test_detach_voids_triggered_note(self):
        held = record_trigger(note(), TriggerEvent(OFFER_REFUSAL, year=6, payload="9"))
        assert detach(held).state is DinState.VOID

    def test_random_sequences_preserve_lien_invariant(self):
        # Whatever the event order, a paid-out note carries exactly one lien
        # (when written with the rider) and terminal notes never move again.
        rng = random.Random(4242)
        kinds = [BANKRUPTCY, EXIT, PREMIUM_DEFAULT, OFFER_REFUSAL, FAILURE_TO_INFORM]
        for trial in range(300):
            c = note(contract_id=f"d{trial}")
            for year in range(1, 11):
                if c.state in TERMINAL_STATES:
                    break
                kind = rng.choice(kinds)
                payload = str(rng.randint(0, 40)) if kind != PREMIUM_DEFAULT else None
                if kind in (BANKRUPTCY, EXIT):
                    choice = EXERCISE
                else:
                    choice = rng.choice([EXERCISE, WAIVE])
                c, _ = apply_trigger(
                    c, TriggerEvent(kind, year=year, payload=payload),
                    choice, clawback=POLICY_A,
                )
            if c.state is DinState.PAID_OUT:
                assert len(c.liens) == 1
            else:
                assert c.liens == ()


class TestPremiumAndTerm:
    def test_premium_is_rate_on_insured_value(self):
        assert annual_premium(note(), "0.05") == Decimal("0.100000000")
        assert annual_premium(note(coverage="0.5"), "0.05") == Decimal("0.050000000")

    def test_extension_up_to_cap(self):
        assert extend_term(note(), 15).term_years == 15
        with pytest.raises(TermCapError):
            extend_term(note(), 16)
        with pytest.raises(InvalidParameterError):
            extend_term(note(), 10)  # not an extension


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
            from venturebank.money import money
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
        with pytest.raises(InvalidParameterError):
            ClawbackPolicy(option="D")

    def test_contract_bounds(self):
        with pytest.raises(InvalidParameterError):
            note(coverage="1.5")
        with pytest.raises(InvalidParameterError):
            note(equity_fraction="-0.1")
        with pytest.raises(InvalidParameterError):
            note(term_years=20)
