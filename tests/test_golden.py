"""Byte-level golden digests for the scenario engine's outputs.

Each case pins the SHA-256 of report.csv, events.csv and both ledgers'
journals (one ``year|memo|account:debit:credit|...`` line per transaction),
so a refactor of the engine cannot move a single byte unnoticed.  The
configs together reach every event kind that carries a detail and every
settlement branch: premium rounding below full coverage, no clawback
rider, full clawback (the paper's option B) with both verdicts (lien
interest and lien release), and salvaged failures with investment-offset
exits.  Both journals must also rebuild exactly from the run's saved
events.csv through ``post_books``.

Run ``PYTHONPATH=src python tests/test_golden.py`` to print the digests of
the current code.
"""
import hashlib

import pytest

from venturebank.simulation import (
    ScenarioConfig,
    events_from_csv,
    events_to_csv,
    post_books,
    run_scenario,
    sweep_classical_return,
)

CASES = {
    "calibration": lambda: ScenarioConfig.calibration(target_classical_return="1.31"),
    # At 76 funds, 75 premiums differ between rounding rate * principal *
    # coverage once and rounding the insured value first.
    "coverage_075": lambda: ScenarioConfig.calibration(
        target_classical_return="1.31", coverage="0.75", n_funds=76
    ),
    "clawback_0": lambda: ScenarioConfig.calibration(
        target_classical_return="1.31", clawback_fraction="0"
    ),
    "option_b_fraud": lambda: ScenarioConfig.calibration(
        target_classical_return="1.31", clawback_fraction="1.0",
        audit_verdict=True,
    ),
    "option_b_cleared": lambda: ScenarioConfig.calibration(
        target_classical_return="1.31", clawback_fraction="1.0",
        audit_verdict=False, bank_rate="0.03",
    ),
    "salvage_offset": lambda: ScenarioConfig(
        target_classical_return="1.31", salvage_mode="classical_multiple",
        exit_equity_mode="investment_offset",
    ),
}

SWEEP_GRID = ("0.9", "1.31", "1.8")

GOLDEN = {
    "calibration": {
        "report.csv": "b324324b0544c94d591c65fd467b94785b75d56d0f83b3537647596b1d204492",
        "events.csv": "620ebf37901766b57aa2d6ce5e3cb4599b80e117bcf9ff549c3ce74dfd874d77",
        "bank_journal": "a27fe628cef8672a8044e7d56f2d90058f427d7740951507a21c4b67c44280a4",
        "underwriter_journal": "3e73408625b37d50088991075722eddf07e13d8b70038736f0e41a6ba04e1f35",
    },
    "clawback_0": {
        "report.csv": "07b5cb042fc793d80596e8e64a74dc754e13620243132ba97c730a1a09bc3143",
        "events.csv": "74f687a3d6d42c001cb8cfdb30715400ae4ca2dec26e4b8c1ebefd17e878dd3f",
        "bank_journal": "b7820812f4a3f04acd2f1a64c0e097807cadd720dafdddc18cbcf0fccc12b918",
        "underwriter_journal": "5aaf2a262d25fbc77f14c826659fea63e8af6b5dd5631fbc88d10c4bbd24ba64",
    },
    "coverage_075": {
        "report.csv": "13bd1d3d053a813c02bf5379830b3e3ed5a9166a4fe5a5c0e9945942aad1b00b",
        "events.csv": "b952e34fc275a0c7750cf03dab1ba1f3284d994ca09269e37c98373b3e20cce3",
        "bank_journal": "927b1c7268c647735e661b82a52561b2bc530948b539f1698c74fa24774d7bf9",
        "underwriter_journal": "69255a09c90d42cc4aaa6e410c7d1d6e42dac502b1d8d39c4d639745fe666455",
    },
    "option_b_cleared": {
        "report.csv": "07a11688925cdf8e05a42956582c3e6ca237bd6824ea5baa11be803d8e40bbcf",
        "events.csv": "71c34a0510a10bc23f6fbb0f3c0b1ad3cd558f1a529059aec86abba091faeea3",
        "bank_journal": "2300cfa9f8409d86b25112e05cbd2d49da661dcf04c37ce1715367359315d1c4",
        "underwriter_journal": "f56a0791145c191b2db096232c503d3d0e43dbb97701611a7602203477a0af5f",
    },
    "option_b_fraud": {
        "report.csv": "d88e6cb21b36fb980b0a4c6f2e930f3df391ca01aa62e641f45e4c9e1c24b5ce",
        "events.csv": "c0d8a21e229faabf4ebf083eb1c9561f487c442627468ca45169f9056db1baab",
        "bank_journal": "1c184df270f98aaa429c9f7af72b89f128bfd0d587e8d096b9e5c99f162ef87c",
        "underwriter_journal": "216f15e34a9db1dc2e177705500375b2de7627d16487bcb54ea3896e4d6819cf",
    },
    "salvage_offset": {
        "report.csv": "6b97d58e6d2b11ae10225ec58e8d035400bcb36277040b40af8e2ccdf5c80545",
        "events.csv": "7bbfd55e8d47626134094dcd6a204a691ca3fb87e66d1e246ed4e4b43b37a397",
        "bank_journal": "8b6664378e6a266824efd7c41547c1011bc150db4305eafdefa1fc49925f3fe4",
        "underwriter_journal": "37901727c0b80bcc03535615332ac52a16b76dffa7dfeb24c2acdfccadd79cc1",
    },
}

GOLDEN_CURVES = (
    "27d52aa9b9f72d9be79c54a09d75555f6504712a3007f1dcef49d05f34838585"
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def journal(ledger) -> str:
    lines = []
    for txn in ledger.transactions:
        postings = "|".join(
            f"{p.account.value}:{p.debit}:{p.credit}" for p in txn.postings
        )
        lines.append(f"{txn.year}|{txn.memo}|{postings}\n")
    return "".join(lines)


def digests(config: ScenarioConfig) -> dict:
    report = run_scenario(config)
    bank, underwriter = post_books(report.events, config)
    return {
        "report.csv": sha(report.to_csv()),
        "events.csv": sha(events_to_csv(report.events)),
        "bank_journal": sha(journal(bank)),
        "underwriter_journal": sha(journal(underwriter)),
    }


def curves_digest() -> str:
    config = ScenarioConfig.calibration()
    return sha(sweep_classical_return(config, SWEEP_GRID).to_csv())


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name):
    assert digests(CASES[name]()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_books_rebuild_from_saved_log(name):
    config = CASES[name]()
    report = run_scenario(config)
    saved = events_from_csv(events_to_csv(report.events))
    assert [journal(ledger) for ledger in post_books(saved, config)] == [
        journal(ledger) for ledger in post_books(report.events, config)]


def test_sweep_curves_match_golden_digest():
    assert curves_digest() == GOLDEN_CURVES


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {digests(CASES[name]())!r},")
    print(f"GOLDEN_CURVES = {curves_digest()!r}")
