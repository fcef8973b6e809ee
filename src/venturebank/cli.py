"""Command-line interface: config in, deterministic CSV files out.

Subcommands: kraken (multiplier curves), simulate (one scenario report),
sweep (return-grid curves), audit (registry checks).  Every output is
written atomically; identical configs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from decimal import Decimal

from .errors import ConfigError, InvalidParameterError, VentureBankError
from .money import csv_text, in_money_context
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

# Most points a sweep grid may have; each point runs one scenario per curve.
MAX_SWEEP_POINTS = 1000

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


def _write_csv(path: str, header: list[str], rows) -> None:
    """header and rows as one CSV file at path, every line ending in a
    newline.  It writes through the module's _atomic_write, which the
    benchmark's tracer wraps by name."""
    _atomic_write(path, csv_text(header, rows))


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} (line {exc.lineno}, "
            f"column {exc.colno})"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # An integer past the interpreter's digit limit, or nesting deeper
        # than its recursion limit.
        raise ConfigError(f"config {path} cannot be read as JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    version = data.get("schema_version")
    # Only the JSON integer 1: true and 1.0 compare equal to it in Python.
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version {version!r} unsupported (expected {SCHEMA_VERSION})"
        )
    return data


def _section(data: dict, name: str) -> dict:
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    return section


def _config_decimal(name: str, value) -> Decimal:
    try:
        d = Decimal(str(value))
        if d.is_finite():
            return d
    except ArithmeticError:
        pass
    raise ConfigError(f"{name} must be a finite decimal, got {str(value)!r}")


def scenario_from_config(data: dict, seed_override: int | None) -> ScenarioConfig:
    section = dict(_section(data, "scenario"))
    spread = section.pop("spread", None)
    if seed_override is not None:
        section["seed"] = seed_override
    try:
        if spread is not None:
            section["spread"] = SpreadParams(**spread)
        return ScenarioConfig(**section)
    except TypeError as exc:
        raise ConfigError(f"bad scenario field: {exc}") from exc


def _grid_float(name: str, value) -> float:
    if isinstance(value, bool):  # which float() reads as 0.0 or 1.0
        raise ConfigError(f"bad kraken field: {name} must be a number, got {value!r}")
    return float(value)


def cmd_kraken(data: dict, out_dir: str, seed_override: int | None) -> list[str]:
    grid = dict(DEFAULT_KRAKEN_GRID)
    grid.update(_section(data, "kraken"))
    # One row per (reserve fraction, depth): the grid is bounded like the
    # sweep's before any row is built.
    for name in ("reserve_fractions", "depths"):
        if not isinstance(grid[name], list):
            raise ConfigError(f"kraken {name} must be a JSON array")
    if len(grid["reserve_fractions"]) * len(grid["depths"]) > MAX_SWEEP_POINTS:
        raise ConfigError(f"a kraken grid may have at most {MAX_SWEEP_POINTS} rows "
                          f"(reserve_fractions times depths)")
    # The counts go to KrakenParams as given: it refuses a float or a bool
    # by name, where int() would truncate one and the row still print it.
    try:
        rows = [
            (rf, depth, KrakenParams(
                reserve_fraction=_grid_float("reserve_fractions", rf),
                iteration_limit=grid["iteration_limit"],
                depth=depth,
                insurance_price=_grid_float("insurance_price", grid["insurance_price"]),
                origination=_grid_float("origination", grid["origination"]),
                tranche_insured=_grid_float("tranche_insured", grid["tranche_insured"]),
            ))
            for rf in grid["reserve_fractions"]
            for depth in grid["depths"]
        ]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad kraken field: {exc}") from exc

    curves = []
    try:
        for rf, depth, params in rows:
            value = kraken_multiplier(params)
            base = classical_multiplier(params.reserve_fraction, params.iteration_limit)
            curves.append([rf, depth, grid["iteration_limit"], f"{base:.9f}", f"{value:.9f}"])
    except InvalidParameterError as exc:
        # float() reads "Infinity" and "NaN"; validate refuses them, and
        # counts that are not ints, by name.
        raise ConfigError(f"bad kraken field: {exc}") from exc

    path = os.path.join(out_dir, "kraken_curves.csv")
    _write_csv(path, ["reserve_fraction", "depth", "iteration_limit", "classical",
                      "multiplier"], curves)
    return [path]


def cmd_simulate(data: dict, out_dir: str, seed_override: int | None) -> list[str]:
    config = scenario_from_config(data, seed_override)
    report = run_scenario(config)
    report_path = os.path.join(out_dir, "report.csv")
    events_path = os.path.join(out_dir, "events.csv")
    _atomic_write(report_path, report.to_csv())
    _atomic_write(events_path, events_to_csv(report.events))
    return [report_path, events_path]


def _sweep_grid(section: dict) -> list:
    too_many = f"a sweep grid may have at most {MAX_SWEEP_POINTS} points"
    if "grid" in section:
        values = section["grid"]
        if not isinstance(values, list):
            raise ConfigError("sweep grid must be a JSON array")
        if len(values) > MAX_SWEEP_POINTS:
            raise ConfigError(too_many)
        # sweep_classical_return reads each point, and names one that is no
        # decimal; a non-finite point is priced like any other and fails
        # per curve.
        return values
    if {"start", "stop", "step"} <= set(section):
        start, stop, step = (
            _config_decimal(f"sweep {name}", section[name])
            for name in ("start", "stop", "step")
        )
        if step <= 0:
            raise ConfigError("sweep step must be > 0")
        try:
            count = (stop - start) / step + 1
            # A step lost to rounding next to start or stop never advances.
            stalls = stop + step == stop or start + step == start
        except ArithmeticError as exc:  # past the decimal exponent range
            raise ConfigError("sweep start/stop/step are out of range") from exc
        if count > MAX_SWEEP_POINTS:
            raise ConfigError(too_many)
        if stalls:
            raise ConfigError("sweep step is below the precision of start/stop")
        grid = []
        t = start
        while t <= stop:
            grid.append(t)
            t += step
        return grid
    raise ConfigError("sweep section needs either grid or start/stop/step")


def cmd_sweep(data: dict, out_dir: str, seed_override: int | None) -> list[str]:
    config = scenario_from_config(data, seed_override)
    grid = _sweep_grid(_section(data, "sweep"))
    result = sweep_classical_return(config, grid)

    curves_path = os.path.join(out_dir, "curves.csv")
    failures_path = os.path.join(out_dir, "sweep_failures.csv")
    _atomic_write(curves_path, result.to_csv())
    _write_csv(failures_path, ["curve", "classical_return", "message"],
               [[f.curve, str(f.classical_return), f.message] for f in result.failures])
    return [curves_path, failures_path]


def _package_args(section: dict) -> dict:
    """The build_package arguments an audit package section declares."""
    for name in ("from_year", "to_year", "n", "seed"):
        value = section.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"audit package {name} must be an integer, got {value!r}")
    package_id = section.get("package_id", "pkg")
    if not isinstance(package_id, str):
        raise ConfigError(f"audit package package_id must be a string, got {package_id!r}")
    kind = section.get("rule")
    try:
        if kind == "forward_period":
            rule = ForwardPeriod(from_year=section["from_year"], to_year=section.get("to_year"))
        elif kind == "random_n":
            rule = RandomN(n=section["n"], seed=section["seed"])
        else:
            raise ConfigError("package rule must be forward_period or random_n")
        return dict(
            underwriter_id=section["underwriter_id"],
            rule=rule,
            public_fraction=_config_decimal(
                "public_fraction", section.get("public_fraction", "0.5")
            ),
            package_id=package_id,
        )
    except KeyError as exc:
        raise ConfigError(f"audit package needs {exc}") from exc


def cmd_audit(data: dict, out_dir: str, seed_override: int | None) -> list[str]:
    section = _section(data, "audit")
    registry_path = section.get("registry_path")
    if not registry_path or not isinstance(registry_path, str):
        raise ConfigError("audit section needs registry_path")
    package_section = _section(section, "package")
    package_args = _package_args(package_section) if package_section else None
    # Read as a decimal, not by float(), which takes true as 1.0 and "NaN".
    threshold = _config_decimal("audit significance", section.get("significance", 0.05))
    if not 0 <= threshold <= 1:
        raise ConfigError(f"audit significance must be in [0, 1], got {threshold}")
    try:
        with open(registry_path, encoding="utf-8") as handle:
            registry = import_records(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read registry {registry_path}: {exc}") from exc

    written: list[str] = []
    path = os.path.join(out_dir, "attachment_violations.csv")
    _write_csv(path, ["din_id", "status_before", "reason"],
               [[v.din_id, v.status_before.value, v.reason]
                for v in audit_attachment(registry)])
    written.append(path)

    if package_args is not None:
        package = build_package(registry, **package_args)
        report = audit_representativeness(package, registry, threshold=float(threshold))
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
    return parser


@in_money_context
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
