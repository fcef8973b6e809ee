"""Command-line interface: config in, deterministic CSV files out.

Subcommands: kraken (multiplier curves), simulate (one scenario report),
sweep (return-grid curves), audit (registry checks).  Every output is
written atomically; identical configs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
import tempfile
from dataclasses import MISSING, fields

from .errors import ConfigError, InvalidParameterError, VentureBankError
from .money import csv_text, finite, in_money_context
from .multipliers import KrakenParams, classical_multiplier, kraken_multiplier
from .registry import (
    DEFAULT_SIGNIFICANCE,
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

# JSON types as json.loads returns them: a bool is never a number, nor a float
# an integer.  A DECIMAL is read as a finite Decimal; [T] is a JSON array of T.
INTEGER, DECIMAL, STRING, OBJECT = (int,), (int, float, str), (str,), (dict,)
TYPE_NAMES = {INTEGER: "an integer", DECIMAL: "a number or a string",
              STRING: "a string", OBJECT: "a JSON object"}
OMITTED = object()  # a key left out when absent, for its reader's own default

# Every section's keys: the JSON types each takes (None for any) and its
# default, MISSING for a key the section must have.  The scenario's keys are
# the fields of ScenarioConfig and SpreadParams, which keep their own checks.
SCHEMA = {
    "config": dict.fromkeys(("schema_version", "scenario", "kraken", "sweep", "audit"),
                            (None, OMITTED)),
    "scenario": {f.name: (None, OMITTED) for f in fields(ScenarioConfig)},
    "scenario.spread": {f.name: (None, OMITTED) for f in fields(SpreadParams)},
    "kraken": {
        "reserve_fractions": ([DECIMAL], ["0.05", "0.025"]),
        "iteration_limit": (INTEGER, 100),
        "depths": ([INTEGER], list(range(1, 11))),
        "insurance_price": (DECIMAL, "0.005"),
        "origination": (DECIMAL, "1.0"),
        "tranche_insured": (DECIMAL, "1.0"),
    },
    "sweep": {"grid": ([DECIMAL], OMITTED)}
    | dict.fromkeys(("start", "stop", "step"), (DECIMAL, OMITTED)),
    "audit": {
        "registry_path": (STRING, MISSING),
        "significance": (DECIMAL, DEFAULT_SIGNIFICANCE),
        "package": (OBJECT, OMITTED),
    },
    "audit.package": {
        "rule": (STRING, MISSING),
        "underwriter_id": (STRING, MISSING),
        "public_fraction": (DECIMAL, "0.5"),
        "package_id": (STRING, "pkg"),
    },
}
# Each audit.package rule: its fields are JSON integers it adds to that section.
PACKAGE_RULES = {"forward_period": ForwardPeriod, "random_n": RandomN}


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
    read_section("config", data)
    return data


def read_section(path: str, section, keys: dict | None = None) -> dict:
    """Each key of SCHEMA[path] (or of keys): section's value, checked, or its default."""
    keys = SCHEMA[path] if keys is None else keys
    if type(section) is not dict:
        raise ConfigError(f"config section {path!r} must be a JSON object")
    for key in section:
        if key not in keys:
            near = difflib.get_close_matches(key, keys, n=1)
            hint = f"did you mean {near[0]!r}?" if near else f"its keys are {', '.join(keys)}"
            raise ConfigError(f"{path} has no key {key!r}; {hint}")
    read = {}
    for key, (types, default) in keys.items():
        name, value = f"{path}.{key}", section.get(key, default)
        if value is MISSING:
            raise ConfigError(f"{path} needs {key}")
        if key in section:
            _check_type(name, value, types)
        if value is not OMITTED:
            try:
                read[key] = finite(value, name) if types is DECIMAL else value
            except InvalidParameterError as exc:
                raise ConfigError(str(exc)) from exc
    return read


def _check_type(name: str, value, types) -> None:
    """Refuse value unless json.loads gave it as one of types (each item, for [T])."""
    if isinstance(types, list):
        if type(value) is not list:
            raise ConfigError(f"{name} must be a JSON array, got {value!r}")
        for item in value:
            _check_type(f"each of {name}", item, types[0])
    elif types is not None and type(value) not in types:
        raise ConfigError(f"{name} must be {TYPE_NAMES[types]}, got {value!r}")


def scenario_from_config(data: dict, seed_override: int | None) -> ScenarioConfig:
    scenario = read_section("scenario", data.get("scenario", {}))
    spread = scenario.pop("spread", None)
    if spread is not None:
        scenario["spread"] = SpreadParams(**read_section("scenario.spread", spread))
    if seed_override is not None:
        scenario["seed"] = seed_override
    return ScenarioConfig(**scenario)


def cmd_kraken(data: dict, out_dir: str, seed_override: int | None) -> list[str]:
    grid = read_section("kraken", data.get("kraken", {}))
    limit = grid["iteration_limit"]
    # One row per (reserve fraction, depth), bounded before any is built.
    if len(grid["reserve_fractions"]) * len(grid["depths"]) > MAX_SWEEP_POINTS:
        raise ConfigError(f"a kraken grid may have at most {MAX_SWEEP_POINTS} rows "
                          f"(reserve_fractions times depths)")
    curves = []
    try:
        # Each decimal is priced as a float; KrakenParams checks its domain.
        prices = {name: float(grid[name])
                  for name in ("insurance_price", "origination", "tranche_insured")}
        for rf in grid["reserve_fractions"]:
            fraction = float(finite(rf, "reserve_fractions"))
            for depth in grid["depths"]:
                value = kraken_multiplier(KrakenParams(fraction, limit, depth, **prices))
                base = classical_multiplier(fraction, limit)
                curves.append([rf, depth, limit, f"{base:.9f}", f"{value:.9f}"])
    except InvalidParameterError as exc:
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
    section = read_section("sweep", section)
    too_many = f"a sweep grid may have at most {MAX_SWEEP_POINTS} points"
    bounds = [name for name in ("start", "stop", "step") if name in section]
    if "grid" in section:
        if bounds:
            raise ConfigError(f"a sweep names grid or start/stop/step, not both: "
                              f"drop grid or {', '.join(bounds)}")
        values = section["grid"]
        if len(values) > MAX_SWEEP_POINTS:
            raise ConfigError(too_many)
        # sweep_classical_return reads each point, and names one that is no
        # decimal; a non-finite point is priced like any other and fails
        # per curve.
        return values
    if len(bounds) == 3:
        start, stop, step = (section[name] for name in bounds)
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
    grid = _sweep_grid(data.get("sweep", {}))
    result = sweep_classical_return(config, grid)

    curves_path = os.path.join(out_dir, "curves.csv")
    failures_path = os.path.join(out_dir, "sweep_failures.csv")
    _atomic_write(curves_path, result.to_csv())
    _write_csv(failures_path, ["curve", "classical_return", "message"],
               [[f.curve, str(f.classical_return), f.message] for f in result.failures])
    return [curves_path, failures_path]


def _package_args(section: dict) -> dict:
    """The build_package arguments an audit.package section declares."""
    if section.get("rule") not in tuple(PACKAGE_RULES):
        raise ConfigError(f"audit.package rule must be one of {', '.join(PACKAGE_RULES)}")
    rule = PACKAGE_RULES[section["rule"]]
    rule_keys = {f.name: (INTEGER, f.default) for f in fields(rule)}
    args = read_section("audit.package", section, SCHEMA["audit.package"] | rule_keys)
    args["rule"] = rule(**{key: args.pop(key) for key in rule_keys})
    return args


def cmd_audit(data: dict, out_dir: str, seed_override: int | None) -> list[str]:
    audit = read_section("audit", data.get("audit", {}))
    # An empty package section, like none, builds no package.
    package_args = _package_args(audit["package"]) if audit.get("package") else None
    threshold = audit["significance"]
    if not 0 <= threshold <= 1:
        raise ConfigError(f"audit significance must be in [0, 1], got {threshold}")
    try:
        with open(audit["registry_path"], encoding="utf-8") as handle:
            registry = import_records(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read registry {audit['registry_path']}: {exc}") from exc

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
        data = {"schema_version": SCHEMA_VERSION}
        if args.config is not None:
            data = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        written = COMMANDS[args.command](data, args.out, args.seed)
        for path in written:
            print(path)
        return 0
    except VentureBankError as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
