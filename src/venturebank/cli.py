"""Command-line interface: config in, deterministic CSV files out.

Subcommands: kraken (multiplier curves), simulate (one scenario report),
sweep (return-grid curves), audit (registry checks).  Every output is
written atomically; identical configs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from decimal import Decimal

from .errors import ConfigError, VentureBankError
from .multipliers import KrakenParams, classical_multiplier, kraken_multiplier
from .registry import (
    ForwardPeriod,
    RandomN,
    audit_attachment,
    audit_representativeness,
    build_package,
    import_records,
)
from .returns import SpreadParams
from .simulation import (
    ScenarioConfig,
    events_to_csv,
    run_scenario,
    sweep_classical_return,
)

SCHEMA_VERSION = 1

DEFAULT_KRAKEN_GRID = {
    "reserve_fractions": ["0.05", "0.025"],
    "depths": list(range(1, 11)),
    "iteration_limit": 100,
    "insurance_price": "0.005",
    "origination": "1.0",
    "tranche_insured": "1.0",
}


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} (line {exc.lineno}, "
            f"column {exc.colno})"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version {version!r} unsupported (expected {SCHEMA_VERSION})"
        )
    return data


def scenario_from_config(data: dict, seed_override: int | None) -> ScenarioConfig:
    section = dict(data.get("scenario", {}))
    spread = section.pop("spread", None)
    if seed_override is not None:
        section["seed"] = seed_override
    try:
        if spread is not None:
            section["spread"] = SpreadParams(**spread)
        return ScenarioConfig(**section)
    except TypeError as exc:
        raise ConfigError(f"bad scenario field: {exc}") from exc


def cmd_kraken(data: dict, out_dir: str, seed_override: int | None) -> list[str]:
    grid = dict(DEFAULT_KRAKEN_GRID)
    grid.update(data.get("kraken", {}))

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["reserve_fraction", "depth", "iteration_limit", "classical", "multiplier"]
    )
    for rf in grid["reserve_fractions"]:
        for depth in grid["depths"]:
            params = KrakenParams(
                reserve_fraction=float(rf),
                iteration_limit=int(grid["iteration_limit"]),
                depth=int(depth),
                insurance_price=float(grid["insurance_price"]),
                origination=float(grid["origination"]),
                tranche_insured=float(grid["tranche_insured"]),
            )
            value = kraken_multiplier(params)
            base = classical_multiplier(
                params.reserve_fraction, params.iteration_limit
            )
            w.writerow([rf, depth, grid["iteration_limit"], f"{base:.9f}", f"{value:.9f}"])

    path = os.path.join(out_dir, "kraken_curves.csv")
    _atomic_write(path, buf.getvalue())
    return [path]


def cmd_simulate(data: dict, out_dir: str, seed_override: int | None) -> list[str]:
    config = scenario_from_config(data, seed_override)
    report = run_scenario(config)
    report_path = os.path.join(out_dir, "report.csv")
    events_path = os.path.join(out_dir, "events.csv")
    _atomic_write(report_path, report.to_csv())
    _atomic_write(events_path, events_to_csv(report.events))
    return [report_path, events_path]


def _sweep_grid(section: dict) -> list[Decimal]:
    if "grid" in section:
        return [Decimal(str(v)) for v in section["grid"]]
    if {"start", "stop", "step"} <= set(section):
        start = Decimal(str(section["start"]))
        stop = Decimal(str(section["stop"]))
        step = Decimal(str(section["step"]))
        if step <= 0:
            raise ConfigError("sweep step must be > 0")
        grid = []
        t = start
        while t <= stop:
            grid.append(t)
            t += step
        return grid
    raise ConfigError("sweep section needs either grid or start/stop/step")


def cmd_sweep(data: dict, out_dir: str, seed_override: int | None) -> list[str]:
    config = scenario_from_config(data, seed_override)
    grid = _sweep_grid(data.get("sweep", {}))
    result = sweep_classical_return(config, grid)

    curves_path = os.path.join(out_dir, "curves.csv")
    failures_path = os.path.join(out_dir, "sweep_failures.csv")
    fail_buf = io.StringIO()
    w = csv.writer(fail_buf, lineterminator="\n")
    w.writerow(["curve", "classical_return", "message"])
    for f in result.failures:
        w.writerow([f.curve, str(f.classical_return), f.message])

    _atomic_write(curves_path, result.to_csv())
    _atomic_write(failures_path, fail_buf.getvalue())
    return [curves_path, failures_path]


def _package_rule(section: dict):
    kind = section.get("rule")
    if kind == "forward_period":
        return ForwardPeriod(
            from_year=int(section["from_year"]),
            to_year=int(section["to_year"]) if "to_year" in section else None,
        )
    if kind == "random_n":
        return RandomN(n=int(section["n"]), seed=int(section["seed"]))
    raise ConfigError("package rule must be forward_period or random_n")


def cmd_audit(data: dict, out_dir: str, seed_override: int | None) -> list[str]:
    section = data.get("audit", {})
    registry_path = section.get("registry_path")
    if not registry_path:
        raise ConfigError("audit section needs registry_path")
    try:
        with open(registry_path, encoding="utf-8") as handle:
            registry = import_records(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read registry {registry_path}: {exc}") from exc

    written: list[str] = []
    violations = audit_attachment(registry)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["din_id", "status_before", "reason"])
    for v in violations:
        w.writerow([v.din_id, v.status_before.value, v.reason])
    path = os.path.join(out_dir, "attachment_violations.csv")
    _atomic_write(path, buf.getvalue())
    written.append(path)

    package_section = section.get("package")
    if package_section:
        package = build_package(
            registry,
            underwriter_id=package_section["underwriter_id"],
            rule=_package_rule(package_section),
            public_fraction=package_section.get("public_fraction", "0.5"),
            package_id=package_section.get("package_id", "pkg"),
        )
        report = audit_representativeness(
            package, registry,
            threshold=float(section.get("significance", 0.05)),
        )
        path = os.path.join(out_dir, "representativeness.csv")
        _atomic_write(path, report.to_csv())
        written.append(path)
    return written


COMMANDS = {
    "kraken": cmd_kraken,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "audit": cmd_audit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="venturebank",
        description="Deterministic venture-banking scenario engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--format", choices=["csv"], default="csv")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            data = load_config(args.config)
        else:
            data = {"schema_version": SCHEMA_VERSION}
        os.makedirs(args.out, exist_ok=True)
        written = COMMANDS[args.command](data, args.out, args.seed)
        for path in written:
            print(path)
        return 0
    except VentureBankError as exc:
        json.dump(
            {"error": str(exc), "kind": type(exc).__name__},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
