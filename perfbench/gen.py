"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the benchmark seed: the same seed
gives byte-identical files.  The program under test only ever sees the
files these functions write.
"""
from __future__ import annotations

import json
import os
import random

SCHEMA_VERSION = 1

# Calibration settings (ScenarioConfig.calibration) spelled out as config
# fields, so the CLI builds the same scenario the acceptance gate uses.
CALIBRATION = {
    "salvage_mode": "zero",
    "exit_equity_mode": "earnings",
    "bank_rate": "0.06",
    "moc": "47",
}

PORTFOLIO_FUNDS = 2000
SWEEP_FUNDS = 50
# Acceptance criterion 7: 31 targets from 0.5 by 0.05, times six curves.
SWEEP_GRID = {"start": "0.5", "stop": "2.0", "step": "0.05"}
SWEEP_POINTS = 31 * 6

REGISTRY_PRIMARIES = 20_000
UNDERWRITERS = 4
SECONDARY_SHARE = 0.10
DETACHED_SHARE = 0.05
PACKAGE_SIZE = 500
SECTORS = ("biotech", "climate", "deeptech", "fintech", "health", "saas")
LIVE = ("active", "triggered")


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def portfolio_config(seed: int, n_funds: int = PORTFOLIO_FUNDS) -> dict:
    """`simulate` config: the calibration scenario at target return 1.31."""
    scenario = dict(CALIBRATION, target_classical_return="1.31",
                    n_funds=n_funds, seed=seed)
    return {"schema_version": SCHEMA_VERSION, "scenario": scenario}


def sweep_config(seed: int) -> dict:
    """`sweep` config: the criterion-7 grid over a calibration scenario."""
    scenario = dict(CALIBRATION, n_funds=SWEEP_FUNDS, seed=seed)
    return {"schema_version": SCHEMA_VERSION, "scenario": scenario,
            "sweep": dict(SWEEP_GRID)}


def registry_records(seed: int, n_primaries: int = REGISTRY_PRIMARIES) -> list[dict]:
    """Registry rows: primaries over four underwriters, about 10% of them
    resold as linked secondaries, about 5% of all notes detached from
    their investment, and some notes already in a terminal state."""
    rng = random.Random(seed)
    rows: list[dict] = []
    for i in range(n_primaries):
        primary = {
            "din_id": f"din-{i:06d}",
            "kind": "primary",
            "underwriter_id": f"uw-{rng.randrange(UNDERWRITERS)}",
            "bank_id": f"bank-{rng.randrange(40)}",
            "investment_id": f"fund-{i:06d}",
            "principal": f"{rng.randrange(100, 1_000_000) / 100:.9f}",
            "sector": rng.choice(SECTORS),
            "vintage_year": rng.randrange(2008, 2025),
            "terms_digest": "",
            "attached": rng.random() >= DETACHED_SHARE,
            "status": rng.choices(
                ("active", "triggered", "paid_out", "exited", "closed"),
                weights=(80, 5, 5, 7, 3),
            )[0],
            "counterpart_ref": None,
            "expected_multiple": f"{rng.lognormvariate(0.0, 0.6):.2f}",
        }
        rows.append(primary)
        if rng.random() < SECONDARY_SHARE:
            secondary = dict(
                primary,
                din_id=f"din-sec-{i:06d}",
                kind="secondary",
                underwriter_id=f"uw-{rng.randrange(UNDERWRITERS)}",
                attached=rng.random() >= DETACHED_SHARE,
                counterpart_ref=primary["din_id"],
                expected_multiple=None,
            )
            primary["counterpart_ref"] = secondary["din_id"]
            rows.append(secondary)
    return rows


def expected_violations(rows: list[dict]) -> list[str]:
    """din_ids the attachment audit must void: detached and still live."""
    return sorted(r["din_id"] for r in rows
                  if not r["attached"] and r["status"] in LIVE)


def audit_config(seed: int, registry_path: str, package_size: int = PACKAGE_SIZE) -> dict:
    """`audit` config over registry_path with a seeded random_n package."""
    rng = random.Random(seed ^ 0x5EED)
    return {
        "schema_version": SCHEMA_VERSION,
        "audit": {
            "registry_path": registry_path,
            "significance": 0.05,
            "package": {
                "rule": "random_n",
                "n": package_size,
                "seed": rng.randrange(2**31),
                "underwriter_id": f"uw-{rng.randrange(UNDERWRITERS)}",
                "public_fraction": "0.5",
                "package_id": f"offering-{seed}",
            },
        },
    }


def write_portfolio_inputs(directory: str, seed: int, n_funds: int = PORTFOLIO_FUNDS) -> None:
    _write_json(os.path.join(directory, "portfolio.json"), portfolio_config(seed, n_funds))


def write_sweep_inputs(directory: str, seed: int) -> None:
    _write_json(os.path.join(directory, "sweep.json"), sweep_config(seed))


def write_registry_inputs(directory: str, seed: int, n_primaries: int = REGISTRY_PRIMARIES,
                          package_size: int = PACKAGE_SIZE) -> None:
    """Write registry.jsonl and audit.json.  The config names the registry
    by its path relative to the working directory, as the CLI resolves it."""
    registry_path = os.path.join(directory, "registry.jsonl")
    with open(registry_path, "w", encoding="utf-8") as handle:
        for row in registry_records(seed, n_primaries):
            handle.write(json.dumps(row, sort_keys=True))
            handle.write("\n")
    _write_json(os.path.join(directory, "audit.json"),
                audit_config(seed, registry_path, package_size))


def write_event_log(directory: str, seed: int, n_funds: int = PORTFOLIO_FUNDS) -> None:
    """Save the portfolio scenario's events.csv and report.csv by running
    the `simulate` command on the portfolio config for this seed."""
    import contextlib
    import io

    from venturebank import cli

    write_portfolio_inputs(directory, seed, n_funds)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", os.path.join(directory, "portfolio.json"),
                         "--out", directory])
    if code != 0:
        raise RuntimeError(f"simulate exited {code} while generating the event log")
