"""One benchmark process: set up a workload, or set up and measure it.

run.py starts this file in a fresh single-threaded interpreter whose
working directory is the run's input directory.  Roles:

  import   import venturebank and report how long that took
  setup    import venturebank, generate the inputs, warm up; report the
           import time and the time since the parent spawned the process
  measure  import venturebank, warm up, then run the workload in a closed
           loop (one caller, next command when the previous returns) for
           --seconds, checking every output; with --trace 1, half the time
           untraced and half with every layer wrapped

The last line of standard output is one JSON object for run.py.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import checks
import gen
import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

OUT = "out"
WARM = "warm"


@dataclass
class Outcome:
    """One command's outputs (file name -> bytes) and its failures."""

    outputs: dict[str, bytes]
    errors: list[str]


def run_cli(argv: list[str], expected_paths: list[str]) -> list[str]:
    """Call `venturebank.cli.main` in-process; return contract breaches."""
    from venturebank import cli

    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    errors = [] if code == 0 else [f"{argv[0]} exited {code}"]
    if printed.getvalue().splitlines() != expected_paths:
        errors.append(f"{argv[0]} printed {printed.getvalue()!r}")
    return errors


def read_outputs(*names: str) -> dict[str, bytes]:
    outputs = {}
    for name in names:
        with open(os.path.join(OUT, name), "rb") as handle:
            outputs[name] = handle.read()
    return outputs


def replayed_report(events_text: str) -> bytes:
    """report.csv rebuilt from a saved event log and the portfolio config."""
    from venturebank import cli
    from venturebank import simulation as sim

    config = cli.scenario_from_config(cli.load_config("portfolio.json"), None)
    events = sim.events_from_csv(events_text)
    figures = sim.replay(events, config)
    report = sim.SimulationReport(config=config, events=events, bank_ledger=None,
                                  underwriter_ledger=None, **figures)
    return report.to_csv().encode("utf-8")


def digest_check(family: str, seed: int, outputs: dict[str, bytes]) -> list[str]:
    expected = checks.load_digests(family, seed)
    return [] if expected is None else checks.digest_errors(outputs, expected)


class PortfolioScale:
    """`simulate` on the calibration scenario at 2000 funds."""

    item = "funds"

    def generate(self, seed: int) -> None:
        gen.write_portfolio_inputs(".", seed)

    def warm_up(self, seed: int) -> None:
        os.makedirs(WARM, exist_ok=True)
        gen.write_portfolio_inputs(WARM, seed, n_funds=50)
        run_cli(["simulate", "--config", os.path.join(WARM, "portfolio.json"), "--out", WARM], [
            os.path.join(WARM, "report.csv"), os.path.join(WARM, "events.csv")])

    def load(self, seed: int) -> None:
        self.seed = seed

    def iterate(self) -> tuple[int, dict[str, Outcome]]:
        errors = run_cli(["simulate", "--config", "portfolio.json", "--out", OUT], [
            os.path.join(OUT, "report.csv"), os.path.join(OUT, "events.csv")])
        return gen.PORTFOLIO_FUNDS, {"simulate": Outcome(read_outputs("report.csv", "events.csv"),
                                                         errors)}

    def first_checks(self, outcomes: dict[str, Outcome]) -> None:
        out = outcomes["simulate"]
        out.errors += digest_check("simulate", self.seed, out.outputs)
        if replayed_report(out.outputs["events.csv"].decode("utf-8")) != out.outputs["report.csv"]:
            out.errors.append("replaying events.csv does not reproduce report.csv")


class ReturnSweep:
    """`sweep` over the criterion-7 grid: 31 targets x 6 curves at 50 funds."""

    item = "sweep points"

    def generate(self, seed: int) -> None:
        gen.write_sweep_inputs(".", seed)

    def warm_up(self, seed: int) -> None:
        os.makedirs(WARM, exist_ok=True)
        config = gen.sweep_config(seed)
        config["sweep"] = {"grid": ["1.31"]}
        with open(os.path.join(WARM, "sweep.json"), "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        run_cli(["sweep", "--config", os.path.join(WARM, "sweep.json"), "--out", WARM], [
            os.path.join(WARM, "curves.csv"), os.path.join(WARM, "sweep_failures.csv")])

    def load(self, seed: int) -> None:
        self.seed = seed

    def iterate(self) -> tuple[int, dict[str, Outcome]]:
        errors = run_cli(["sweep", "--config", "sweep.json", "--out", OUT], [
            os.path.join(OUT, "curves.csv"), os.path.join(OUT, "sweep_failures.csv")])
        return gen.SWEEP_POINTS, {"sweep": Outcome(read_outputs("curves.csv", "sweep_failures.csv"),
                                                   errors)}

    def first_checks(self, outcomes: dict[str, Outcome]) -> None:
        out = outcomes["sweep"]
        out.errors += digest_check("sweep", self.seed, out.outputs)
        failures = out.outputs["sweep_failures.csv"].decode("utf-8").splitlines()[1:]
        if failures:
            out.errors.append(f"{len(failures)} sweep_failures.csv rows, first {failures[0]!r}")
        rows = out.outputs["curves.csv"].decode("utf-8").splitlines()[1:]
        if len(rows) != gen.SWEEP_POINTS:
            out.errors.append(f"curves.csv has {len(rows)} rows, expected {gen.SWEEP_POINTS}")


class LogReplay:
    """Parse the saved portfolio events.csv and replay it into the report."""

    item = "events"

    def generate(self, seed: int) -> None:
        gen.write_event_log(".", seed)

    def warm_up(self, seed: int) -> None:
        os.makedirs(WARM, exist_ok=True)
        gen.write_event_log(WARM, seed, n_funds=50)
        with open(os.path.join(WARM, "events.csv"), encoding="utf-8") as handle:
            replayed_report(handle.read())

    def load(self, seed: int) -> None:
        self.seed = seed
        with open("report.csv", "rb") as handle:
            self.saved_report = handle.read()
        with open("events.csv", "rb") as handle:
            self.saved_events = handle.read()

    def iterate(self) -> tuple[int, dict[str, Outcome]]:
        with open("events.csv", encoding="utf-8") as handle:
            text = handle.read()
        report = replayed_report(text)
        errors = [] if report == self.saved_report else [
            "replayed report differs from the saved report.csv"]
        # One event per data row; "detail" never holds a newline.
        return text.count("\n") - 1, {"replay": Outcome({"report.csv": report}, errors)}

    def first_checks(self, outcomes: dict[str, Outcome]) -> None:
        saved = {"report.csv": self.saved_report, "events.csv": self.saved_events}
        outcomes["replay"].errors += digest_check("simulate", self.seed, saved)


class RegistryAudit:
    """`audit` over a 20k-primary registry, then `kraken` on its default grid."""

    item = "records"

    def generate(self, seed: int) -> None:
        gen.write_registry_inputs(".", seed)

    def warm_up(self, seed: int) -> None:
        os.makedirs(WARM, exist_ok=True)
        gen.write_registry_inputs(WARM, seed, n_primaries=200, package_size=10)
        run_cli(["audit", "--config", os.path.join(WARM, "audit.json"), "--out", WARM], [
            os.path.join(WARM, "attachment_violations.csv"),
            os.path.join(WARM, "representativeness.csv")])
        run_cli(["kraken", "--out", WARM], [os.path.join(WARM, "kraken_curves.csv")])

    def load(self, seed: int) -> None:
        self.seed = seed
        with open("registry.jsonl", encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle]
        self.records = len(rows)
        self.violations = gen.expected_violations(rows)

    def iterate(self) -> tuple[int, dict[str, Outcome]]:
        audit_errors = run_cli(["audit", "--config", "audit.json", "--out", OUT], [
            os.path.join(OUT, "attachment_violations.csv"),
            os.path.join(OUT, "representativeness.csv")])
        audit = Outcome(read_outputs("attachment_violations.csv", "representativeness.csv"),
                        audit_errors)
        kraken_errors = run_cli(["kraken", "--out", OUT], [os.path.join(OUT, "kraken_curves.csv")])
        kraken = Outcome(read_outputs("kraken_curves.csv"), kraken_errors)
        return self.records, {"audit": audit, "kraken": kraken}

    def first_checks(self, outcomes: dict[str, Outcome]) -> None:
        audit, kraken = outcomes["audit"], outcomes["kraken"]
        audit.errors += digest_check("audit", self.seed, audit.outputs)
        kraken.errors += digest_check("kraken", self.seed, kraken.outputs)
        rows = audit.outputs["attachment_violations.csv"].decode("utf-8").splitlines()[1:]
        if sorted(row.split(",")[0] for row in rows) != self.violations:
            audit.errors.append("attachment violations differ from the generated detached live notes")
        report = audit.outputs["representativeness.csv"].decode("utf-8").splitlines()
        if len(report) != 2 or report[1].split(",")[1] != str(gen.PACKAGE_SIZE):
            audit.errors.append(f"representativeness.csv is {report!r}")
        curves = kraken.outputs["kraken_curves.csv"].decode("utf-8").splitlines()
        if len(curves) != 21:
            kraken.errors.append(f"kraken_curves.csv has {len(curves)} lines, expected 21")


WORKLOADS = {
    "portfolio_scale": PortfolioScale,
    "return_sweep": ReturnSweep,
    "log_replay": LogReplay,
    "registry_audit": RegistryAudit,
}


def import_program() -> float:
    started = time.perf_counter()
    import venturebank
    elapsed = time.perf_counter() - started
    where = os.path.dirname(os.path.abspath(venturebank.__file__))
    if where != os.path.join(SRC, "venturebank"):
        raise SystemExit(f"venturebank imported from {where}, not from {SRC}")
    return elapsed


class Loop:
    """Closed-loop measurement with output checks on every iteration."""

    def __init__(self, workload, ticker: reference.Ticker | None = None):
        self.workload = workload
        self.ticker = ticker
        self.first_outputs: dict[str, dict[str, bytes]] | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, seconds: float, step=None) -> tuple[list[float], list[float], list[int]]:
        """Iterate until the next iteration would end past `seconds`.

        Returns per-iteration wall times, the same times at reference speed
        (equal to the wall times without a ticker), and item counts."""
        step = step or self.workload.iterate
        times: list[float] = []
        normalized: list[float] = []
        items: list[int] = []
        started = time.perf_counter()
        while True:
            mark = self.ticker.mark() if self.ticker else None
            begin = time.perf_counter()
            try:
                count, outcomes = step()
            except Exception:
                count, outcomes = 0, None
                self._fail(1, traceback.format_exc(limit=4))
            times.append(time.perf_counter() - begin)
            normalized.append(self.ticker.normalized(times[-1], mark) if self.ticker else times[-1])
            items.append(count)
            if outcomes is not None:
                self._check(outcomes)
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(times) > seconds:
                return times, normalized, items

    def _check(self, outcomes: dict[str, Outcome]) -> None:
        if self.first_outputs is None:
            self.workload.first_checks(outcomes)
            self.first_outputs = {name: out.outputs for name, out in outcomes.items()}
        else:
            for name, out in outcomes.items():
                out.errors += checks.identity_errors(out.outputs, self.first_outputs[name])
        for name, out in outcomes.items():
            self.attempted += 1
            if out.errors:
                self._fail(0, f"{name}: " + "; ".join(out.errors))

    def _fail(self, attempted: int, message: str) -> None:
        self.attempted += attempted
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def measure(workload, seconds: float, spans_path: str | None,
            ticker: reference.Ticker | None) -> dict:
    loop = Loop(workload, ticker)
    result: dict = {}
    if spans_path is None:
        times, normalized, items = loop.run(seconds)
        result.update(times=times, normalized=normalized, items=items)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        untraced, _, _ = loop.run(seconds / 2)
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            traced, _, _ = loop.run(seconds / 2, installed.iteration(workload.iterate))
        finally:
            installed.restore()
        layers = tracing.layer_metrics(installed, len(traced))
        # The ROOT span encloses each traced iteration; the loop's own timing
        # of the step also covers the wrapper around that span.
        layers["trace.iteration_s"] = statistics.fmean(
            end - start for name, start, end, _ in tracer.spans if name == tracing.ROOT)
        layers["trace.untraced_iteration_s"] = statistics.fmean(untraced)
        layers["trace.overhead_s"] = layers["trace.iteration_s"] - layers["trace.untraced_iteration_s"]
        layers["trace.self_sum_s"] = sum(layers[f"{name}.self_s"] for name in tracing.LAYER_NAMES)
        layers["trace.spans"] = len(tracer.spans) / len(traced)
        if abs(layers["trace.self_sum_s"] - layers["trace.iteration_s"]) > 1e-6 * layers["trace.iteration_s"]:
            loop._fail(0, "layer self times do not sum to the traced iteration time")
        tracer.write_spans(spans_path)
        result["layers"] = layers
    result.update(attempted=loop.attempted, failed=loop.failed, errors=loop.errors)
    return result


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=["import", "setup", "measure"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", default=None, help="trace the run and write spans here")
    args = parser.parse_args()

    # The traced run reports raw per-layer times, so ticks stay out of it.
    ticker = None if args.spans else reference.Ticker()
    if ticker:
        ticker.start()
    mark = ticker.mark() if ticker else None
    import_wall_s = import_program()
    result = {"import_wall_s": import_wall_s}
    if ticker:
        result["import_s"] = ticker.normalized(import_wall_s, mark)
    workload = WORKLOADS[args.workload]()
    if args.role == "setup":
        workload.generate(args.seed)
        workload.warm_up(args.seed)
        setup_wall_s = time.monotonic() - args.spawned_at
        result.update(setup_wall_s=setup_wall_s,
                      setup_s=ticker.normalized(setup_wall_s, (0, 0.0)))
    elif args.role == "measure":
        workload.load(args.seed)
        workload.warm_up(args.seed)
        result.update(measure(workload, args.seconds, args.spans, ticker))
        result.update(item=workload.item, versions=versions())
    if ticker:
        ticker.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
