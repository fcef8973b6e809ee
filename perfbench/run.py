"""venturebank benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every workload runs in fresh,
single-threaded interpreters started one at a time (see worker.py):

  --trace 0  SETUPS set-up processes (median set-up time), IMPORT_PROBES
             import-only processes (median import time, with the set-up
             and measuring processes), then one process that measures
             for S seconds; prints every
             end-to-end metric, timings at reference speed (reference.py)
  --trace 1  one set-up process, `-X importtime` probes, then one process
             that measures S/2 seconds untraced and S/2 traced; prints
             every per-layer metric and writes the spans under .perfbench/

Human-readable lines come first; the last line of standard output is the
JSON result.  Exits non-zero without a result if the program cannot be
set up or measured.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("portfolio_scale", "return_sweep", "log_replay", "registry_audit")
# What each workload's throughput counts; the JSON reports it as items_per_s.
THROUGHPUT_NAMES = {
    "portfolio_scale": "funds_per_s",
    "return_sweep": "sweep_points_per_s",
    "log_replay": "events_per_s",
    "registry_audit": "records_per_s",
}
SETUPS = 4
IMPORT_PROBES = 3
IMPORTTIME_PROBES = 3
DEADLINE_S = 170.0

# Single-threaded children with a fixed hash seed; the program is found in
# this checkout's src/ and nowhere else.
CHILD_ENV = {
    "PYTHONPATH": SRC,
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LC_ALL": "C.UTF-8",
}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(CHILD_ENV, PATH=os.environ.get("PATH", "/usr/bin:/bin"))

    def child(self, argv: list[str], cwd: str) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting " + " ".join(argv[1:3]))
        try:
            done = subprocess.run([sys.executable, "-s", *argv], cwd=cwd, env=self.env,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(argv)}") from exc
        if done.returncode != 0:
            raise BenchError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
        return done

    def worker(self, role: str, workload: str, seed: int, cwd: str, *extra: str) -> dict:
        argv = [WORKER, role, "--workload", workload, "--seed", str(seed),
                "--spawned-at", repr(time.monotonic()), *extra]
        done = self.child(argv, cwd)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def registry_import_s(self) -> float:
        """Cumulative import time of venturebank.registry from -X importtime."""
        done = self.child(["-X", "importtime", "-c", "import venturebank"], ROOT)
        for line in done.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "venturebank.registry":
                return int(fields[1]) / 1e6
        raise BenchError("venturebank.registry missing from -X importtime output")


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    source = hashlib.sha256()
    package = os.path.join(SRC, "venturebank")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {"cpu": cpu, "nproc": os.cpu_count(), "git_sha": sha,
            "src_sha256": source.hexdigest()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float, run_dir: str):
    setups = []
    for k in range(SETUPS):
        setup_dir = os.path.join(run_dir, f"setup-{k}")
        os.makedirs(setup_dir)
        setups.append(runner.worker("setup", workload, seed, setup_dir))
    probes = [runner.worker("import", workload, seed, run_dir) for _ in range(IMPORT_PROBES)]
    # The last set-up process's inputs are the ones measured.
    result = runner.worker("measure", workload, seed, setup_dir, "--seconds", str(seconds))
    rates = [n / t for n, t in zip(result["items"], result["normalized"])]
    wall_rates = [n / t for n, t in zip(result["items"], result["times"])]
    imports = [s["import_s"] for s in setups + probes + [result]]
    metrics = {
        "items_per_s": metric(statistics.median(rates), "1/s"),
        "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "import_s": metric(statistics.median(imports), "s"),
        "peak_rss_mib": metric(result["peak_rss_mib"], "MiB"),
    }
    error_rate = result["failed"] / result["attempted"]
    print(f"  {THROUGHPUT_NAMES[workload]} = {statistics.median(rates):.6g} 1/s at reference speed, "
          f"{statistics.median(wall_rates):.6g} 1/s wall (reported as items_per_s; median of "
          f"{len(rates)} iterations, {statistics.median(result['items']):g} {result['item']} each)")
    print(f"  setup_s = {metrics['setup_s']['value']:.6g} s at reference speed, "
          f"{statistics.median(s['setup_wall_s'] for s in setups):.6g} s wall (median of {SETUPS})")
    print(f"  import_s = {metrics['import_s']['value']:.6g} s at reference speed, "
          f"{statistics.median(s['import_wall_s'] for s in setups + probes + [result]):.6g} s wall "
          f"(median of {len(imports)} fresh interpreters)")
    print(f"  peak_rss_mib = {result['peak_rss_mib']:.6g} MiB (measuring process)")
    print(f"  error_rate = {error_rate:g} ({result['failed']} of {result['attempted']} commands; "
          "reported as failed/attempted)")
    return result, metrics


def traced(runner: Runner, workload: str, seed: int, seconds: float, run_dir: str,
           spans_path: str):
    setup_dir = os.path.join(run_dir, "setup")
    os.makedirs(setup_dir)
    runner.worker("setup", workload, seed, setup_dir)
    probes = [runner.registry_import_s() for _ in range(IMPORTTIME_PROBES)]
    result = runner.worker("measure", workload, seed, setup_dir, "--seconds", str(seconds),
                           "--spans", spans_path)
    layers = result["layers"]
    layers["import.venturebank.registry_s"] = statistics.median(probes)
    metrics = {name: metric(value, layer_unit(name)) for name, value in layers.items()}
    print(f"  traced iteration {layers['trace.iteration_s']:.6g} s, untraced "
          f"{layers['trace.untraced_iteration_s']:.6g} s, overhead {layers['trace.overhead_s']:.6g} s; "
          f"layer self times sum to {layers['trace.self_sum_s']:.6g} s")
    for name in sorted(layers):
        print(f"  {name} = {layers[name]:.6g} {layer_unit(name)}")
    print(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
    return result, metrics


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "trace.spans":
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def main() -> int:
    parser = argparse.ArgumentParser(description="venturebank benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    runner = Runner(time.monotonic() + DEADLINE_S)
    if not os.path.isfile(os.path.join(SRC, "venturebank", "__init__.py")):
        print(f"no venturebank sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        env = environment()
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        if args.trace:
            spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
            result, metrics = traced(runner, args.workload, args.seed, args.seconds,
                                     run_dir, spans_path)
        else:
            result, metrics = end_to_end(runner, args.workload, args.seed, args.seconds, run_dir)
        env.update(result["versions"])
        print("  environment " + json.dumps(env, sort_keys=True))
        for message in result["errors"]:
            print("  error: " + message)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
