"""Record the SHA-256 digests of each workload's outputs for seeds 0-15.

    python3 perfbench/record_digests.py

Run from the root of a source checkout; rewrites perfbench/digests.json.
The digests pin the program's outputs, so rerun this only when the
generators in gen.py change, never to accept a change in the program.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import worker  # noqa: E402

SEEDS = range(16)
FAMILIES = {  # workload -> input family of each command it runs
    "portfolio_scale": {"simulate": "simulate"},
    "return_sweep": {"sweep": "sweep"},
    "registry_audit": {"audit": "audit", "kraken": "kraken"},
}


def main() -> int:
    table: dict[str, dict[str, dict[str, str]]] = {}
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench", "digests")
    home = os.getcwd()
    for seed in SEEDS:
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        os.chdir(workdir)
        try:
            for name, families in FAMILIES.items():
                workload = worker.WORKLOADS[name]()
                workload.generate(seed)
                workload.load(seed)
                _, outcomes = workload.iterate()
                for command, outcome in outcomes.items():
                    if outcome.errors:
                        raise SystemExit(f"seed {seed} {command}: {outcome.errors}")
                    digests = {f: checks.sha256(b) for f, b in sorted(outcome.outputs.items())}
                    table.setdefault(families[command], {})[str(seed)] = digests
        finally:
            os.chdir(home)
        print(f"seed {seed} recorded", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
