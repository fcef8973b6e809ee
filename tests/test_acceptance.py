"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see every verdict.
"""
import random
import time
from decimal import Decimal

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
    TriggerEvent,
    apply_trigger,
    exit_equity_split,
)
from venturebank.errors import LoanLimitError, PackagingError
from venturebank.ledger import (
    Account,
    CapitalAccount,
    Ledger,
    book_din_to_capital,
    cr,
    dr,
    write_investment_loan,
)
from venturebank.multipliers import (
    KrakenParams,
    capital_limits,
    classical_multiplier,
    din_capital_fraction,
    kraken_multiplier,
    moc_schedule,
)
from venturebank.registry import (
    ForwardPeriod,
    RandomN,
    Registry,
    RegistryRecord,
    audit_representativeness,
    build_package,
)
from venturebank.simulation import (
    ScenarioConfig,
    SimulationReport,
    events_from_csv,
    events_to_csv,
    replay,
    run_scenario,
    sweep_classical_return,
)
from oracles import (
    ORACLE_TERM_BUDGET,
    is_nondecreasing,
    kraken_brute_force,
    sign_scan_local_minimum,
)


def verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" :: {detail}" if detail else ""
    print(f"[{status}] criterion {num}: {label}{tail}")
    assert ok, f"criterion {num} failed: {label}{tail}"


def test_criterion_1_capital_limits():
    limits = capital_limits(initial_capital="1", reserve_fraction="0.05")
    exact = Decimal(800) / Decimal(17)  # 47.0588...
    ok = (
        abs(limits.max_loan_limit - exact) < Decimal("0.000001")
        and abs(limits.max_loan_limit - Decimal("47")) <= Decimal("0.06")
        and limits.reserves_limit == limits.tier1_limit * 2
    )
    verdict(1, "47X lending ceiling", ok, f"max_loan_limit={limits.max_loan_limit}")


def test_criterion_2_moc_schedule():
    schedule = moc_schedule()
    points = {
        0: Decimal("47"),
        5: Decimal("82"),
        11: Decimal("133"),
    }
    got = {year: schedule.capacity_at(year) for year in points}
    ok = all(abs(got[y] - target) <= Decimal("1.5") for y, target in points.items())
    verdict(
        2, "cumulative capacity 47/82/133", ok,
        "got " + ", ".join(f"yr{y}={got[y]:.2f}" for y in sorted(got)),
    )


def test_criterion_3_capital_adequacy_fraction():
    fraction = din_capital_fraction(
        initial_capital="1", reserve_fraction="0.05", total_insured_loans="82"
    )
    lo, hi = Decimal("0.0278"), Decimal("0.0298")
    ok = lo <= fraction <= hi
    verdict(3, "2.88% capital fraction", ok, f"fraction={fraction:.6f} in [{lo}, {hi}]")


def test_criterion_4_kraken_reduction():
    started = time.perf_counter()
    rng = random.Random(20240)

    worst_t0 = 0.0
    for _ in range(1000):
        params = KrakenParams(
            reserve_fraction=rng.uniform(0.01, 1.0),
            iteration_limit=rng.randint(0, 400),
            depth=rng.randint(1, 8),
            insurance_price=rng.uniform(0.0, 0.05),
            origination=rng.uniform(1.0, 1.5),
            tranche_insured=0.0,
        )
        got = kraken_multiplier(params)
        want = classical_multiplier(params.reserve_fraction, params.iteration_limit)
        worst_t0 = max(worst_t0, abs(got - want) / abs(want))
    ok_t0 = worst_t0 <= 1e-9

    caps = {1: 300, 2: 200, 3: 60}
    worst_oracle = 0.0
    for _ in range(100):
        depth = rng.randint(1, 3)
        n = rng.randint(0, caps[depth])
        while (n + 1) ** depth > ORACLE_TERM_BUDGET:
            n //= 2
        rf = rng.uniform(0.02, 0.9)
        price = rng.uniform(0.0, 0.05)
        orig = rng.uniform(1.0, 1.2)
        tranche = rng.uniform(0.0, 1.0)
        got = kraken_multiplier(
            KrakenParams(rf, n, depth, insurance_price=price,
                         origination=orig, tranche_insured=tranche)
        )
        want = kraken_brute_force(rf, n, depth, insurance_price=price,
                                  origination=orig, tranche_insured=tranche)
        worst_oracle = max(worst_oracle, abs(got - want) / max(abs(want), 1e-12))
    ok_oracle = worst_oracle <= 1e-9

    elapsed = time.perf_counter() - started
    ok = ok_t0 and ok_oracle and elapsed < 60
    verdict(
        4, "nested multiplier reduction and oracle agreement", ok,
        f"worst T=0 rel err {worst_t0:.2e}, worst oracle rel err {worst_oracle:.2e}, "
        f"{elapsed:.1f}s",
    )


BENCHMARK_ROWS = {
    "1.50": (54.07, 4.82, 11.22, 0.2735),
    "1.31": (50.14, 8.43, 5.95, 0.1952),
    "1.10": (44.23, 13.84, 3.20, 0.1232),
}


def test_criterion_5_report_identities_and_calibration():
    # the benchmark rows satisfy their own identities
    anchors_ok = True
    for premiums, inv, ten_year, yearly in BENCHMARK_ROWS.values():
        anchors_ok &= abs(premiums / inv - ten_year) < 0.01
        anchors_ok &= abs(ten_year ** 0.1 - 1 - yearly) < 0.0005

    identity_ok = True
    band_ok = True
    details = []
    for target, (_, _, ten_year, yearly) in BENCHMARK_ROWS.items():
        report = run_scenario(ScenarioConfig.calibration(target_classical_return=target))
        identity_ok &= (
            report.din_net_profit
            == report.premium_earnings_10y + report.underwriter_investment
        )
        ratio = float(report.premium_earnings_10y / abs(report.underwriter_investment))
        identity_ok &= abs(report.din_10y_return - ratio) < 1e-12
        identity_ok &= abs(report.din_yearly_return - (ratio ** 0.1 - 1)) < 1e-12
        band_ok &= abs(report.din_10y_return - ten_year) / ten_year <= 0.20
        band_ok &= abs(report.din_yearly_return - yearly) / yearly <= 0.20
        details.append(f"t={target}: {report.din_10y_return:.2f}/{ten_year}")

    # identities hold off the calibration config too
    for config in (
        ScenarioConfig(target_classical_return="1.31"),
        ScenarioConfig(target_classical_return="0.9", clawback_fraction="0"),
    ):
        r = run_scenario(config)
        identity_ok &= (
            r.din_net_profit == r.premium_earnings_10y + r.underwriter_investment
        )

    ok = anchors_ok and identity_ok and band_ok
    verdict(
        5, "report identities exact, calibrated rows within 20%", ok,
        "; ".join(details),
    )


def test_criterion_6_ordering_across_targets():
    config = ScenarioConfig.calibration
    reports = [
        run_scenario(config(target_classical_return=t)) for t in ("1.10", "1.31", "1.50")
    ]
    magnitudes = [abs(r.underwriter_investment) for r in reports]
    returns = [r.din_10y_return for r in reports]
    ok = (
        magnitudes[0] > magnitudes[1] > magnitudes[2]
        and returns[0] < returns[1] < returns[2]
    )
    verdict(
        6, "investment shrinks, return grows with classical return", ok,
        f"|inv|={[str(m) for m in magnitudes]}, 10y={[f'{r:.2f}' for r in returns]}",
    )


def test_criterion_7_clawback_curve_shapes():
    started = time.perf_counter()
    grid = [Decimal("0.5") + Decimal("0.05") * i for i in range(31)]
    result = sweep_classical_return(ScenarioConfig.calibration(), grid)
    with_claw = [v for _, v in result.curve("bank_claw077")]
    without = [v for _, v in result.curve("bank_claw0")]
    lowest = min(range(len(without)), key=lambda i: without[i])
    elapsed = time.perf_counter() - started
    ok = (
        not result.failures
        and is_nondecreasing(with_claw, tolerance=1e-9)
        and sign_scan_local_minimum(without)
        and 0 < lowest < len(without) - 1
        and elapsed < 60
    )
    verdict(
        7, "0.77 clawback monotone, 0 clawback trough", ok,
        f"trough at t={grid[lowest]}, {elapsed:.1f}s",
    )


def test_criterion_8_equity_split_exact():
    share_uw, share_bank = exit_equity_split("0.20", "1.0", "0.50")
    ok = share_uw == Decimal("0.1") and share_bank == Decimal("0.1")
    verdict(8, "equity split 0.20 -> (0.10, 0.10)", ok, f"got ({share_uw}, {share_bank})")


def test_criterion_9_property_suite():
    started = time.perf_counter()
    rng = random.Random(4201)
    policy = ClawbackPolicy(option="A", fraction="0.77")
    kinds = [BANKRUPTCY, EXIT, PREMIUM_DEFAULT, OFFER_REFUSAL, FAILURE_TO_INFORM]

    lien_ok = True
    for trial in range(5000):
        contract = DinContract(
            contract_id=f"a{trial}",
            principal=Decimal(rng.randrange(1, 500)) / 10,
            coverage=Decimal(rng.randrange(0, 101)) / 100,
            equity_fraction=Decimal(rng.randrange(0, 101)) / 100,
        )
        for year in range(1, 11):
            if contract.state in TERMINAL_STATES:
                break
            kind = rng.choice(kinds)
            payload = str(rng.randint(0, 40)) if kind != PREMIUM_DEFAULT else None
            choice = EXERCISE if kind in (BANKRUPTCY, EXIT) else rng.choice([EXERCISE, WAIVE])
            contract, _ = apply_trigger(
                contract, TriggerEvent(kind, year=year, payload=payload),
                choice, clawback=policy,
            )
        if contract.state is DinState.PAID_OUT:
            lien_ok &= len(contract.liens) == 1
        else:
            lien_ok &= contract.liens == ()

    books_ok = True
    for trial in range(5000):
        core = Decimal(rng.randrange(50, 500)) / 100
        account = CapitalAccount(tier1_core=core)
        ledger = Ledger(f"fuzz{trial}")
        for op in range(rng.randint(1, 6)):
            roll = rng.random()
            amount = Decimal(rng.randrange(1, 10**4)) / 100
            if roll < 0.4:
                account, booked, unbooked = book_din_to_capital(account, amount)
                books_ok &= booked + unbooked == amount
            elif roll < 0.8:
                try:
                    write_investment_loan(ledger, account, amount, year=op)
                except LoanLimitError:
                    pass
            else:
                # free postings never issue loans; that path is guarded
                pool = [acct for acct in Account if acct is not Account.LOANS]
                a, b = rng.sample(pool, 2)
                ledger.post(op, "fuzz", [dr(a, amount), cr(b, amount)])
            books_ok &= account.tier1_insured <= account.tier1_insured_cap
            books_ok &= account.tier2_insured <= account.tier1_total
            books_ok &= ledger.balance(Account.LOANS) <= account.lending_limit
            books_ok &= ledger.trial_balance() == 0

    replay_ok = True
    replay_configs = [
        ScenarioConfig.calibration(target_classical_return=t)
        for t in ("1.10", "1.31", "1.50")
    ] + [
        ScenarioConfig(target_classical_return="1.31"),
        ScenarioConfig(target_classical_return="1.10", clawback_fraction="0"),
        ScenarioConfig(
            target_classical_return="1.31", clawback_fraction="1.0",
            audit_verdict=True,
        ),
    ]
    for config in replay_configs:
        report = run_scenario(config)
        events = events_from_csv(events_to_csv(report.events))
        figures = replay(events, config)
        twin = SimulationReport(config=config, events=events, **figures)
        replay_ok &= twin.to_csv() == report.to_csv()

    elapsed = time.perf_counter() - started
    ok = lien_ok and books_ok and replay_ok and elapsed < 120
    verdict(
        9, "10,000 op sequences keep caps/balance/lien/replay invariants", ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_10_registry_audit_suite():
    started = time.perf_counter()
    rng = random.Random(606)

    def record(din_id, kind="primary", **kw):
        base = dict(
            din_id=din_id, kind=kind, underwriter_id="uw1", bank_id="b1",
            investment_id=f"i-{din_id}", principal="10", sector="deeptech",
            vintage_year=2024,
        )
        base.update(kw)
        return RegistryRecord(**base)

    involution_ok = True
    for _ in range(50):
        registry = Registry()
        n = rng.randint(5, 25)
        primaries = [f"p{i}" for i in range(n)]
        secondaries = [f"s{i}" for i in range(n)]
        for p in primaries:
            registry.register(record(p))
        for s in secondaries:
            registry.register(record(s, kind="secondary"))
        chosen = rng.sample(primaries, rng.randint(1, n))
        targets = rng.sample(secondaries, len(chosen))
        for p, s in zip(chosen, targets):
            registry.link_secondary(p, s)
        for p, s in zip(chosen, targets):
            involution_ok &= registry.get(p).counterpart_ref == s
            involution_ok &= registry.get(s).counterpart_ref == p
        involution_ok &= registry.gross_notional() >= registry.true_outstanding()

    quality = Registry()
    for i in range(48):
        quality.register(
            record(
                f"q{i:03d}",
                vintage_year=2020 + i // 12,
                expected_multiple=Decimal("0.1") * (i + 1),
            )
        )
    worst = build_package(quality, "uw1", ForwardPeriod(2020, 2020), "0.5")
    flagged_ok = audit_representativeness(worst, quality).flagged

    passes = 0
    for seed in range(200):
        pkg = build_package(quality, "uw1", RandomN(24, seed=seed), "0.5")
        if not audit_representativeness(pkg, quality).flagged:
            passes += 1
    monte_carlo_ok = passes >= 190

    ceiling_ok = True
    for fraction in ("0.700000001", "0.71", "0.85", "1.0"):
        try:
            build_package(quality, "uw1", RandomN(5, seed=1), fraction)
            ceiling_ok = False
        except PackagingError:
            pass

    elapsed = time.perf_counter() - started
    ok = involution_ok and flagged_ok and monte_carlo_ok and ceiling_ok and elapsed < 120
    verdict(
        10, "involution, worst-quartile flag, 95% random-half pass, 70% ceiling", ok,
        f"random-half passes {passes}/200, {elapsed:.1f}s",
    )
