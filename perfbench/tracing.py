"""Layer tracing from outside the program.

`Tracer.wrap` times a function and keeps, per layer name, a call count and
a self time: the call's duration minus the time spent in traced calls it
made.  Layers that run a handful of times per iteration also record one
span each (name, start, end, parent span); hot leaves such as `money()`
only aggregate, so tracing them stays cheap and memory stays flat.

`install` replaces each public function at the binding its caller looks
up at run time (for example `venturebank.simulation.dr`, not only
`venturebank.ledger.dr`), so `src/` is never edited.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple | None] = []
        # One frame per active traced call: [child time, span index that
        # children should name as their parent].
        self._stack: list[list] = []

    def wrap(self, name: str, fn, span: bool = True):
        clock = self.clock
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        spans = self.spans

        def traced(*args, **kwargs):
            parent_span = stack[-1][1] if stack else None
            if span:
                index = len(spans)
                spans.append(None)
            else:
                index = parent_span
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span:
                    spans[index] = (name, start, end, parent_span)

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                name, start, end, parent = record
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent}))
                handle.write("\n")


# (layer name, hot leaf?, [(module, attribute), ...]).  A module entry of
# the form "module:Class" names a method on that class.
LAYERS = (
    ("money.money", True, [
        ("venturebank.money", "money"),
        ("venturebank.ledger", "money"),
        ("venturebank.simulation", "money"),
        ("venturebank.returns", "money"),
        ("venturebank.multipliers", "money"),
        ("venturebank.contracts", "money"),
        ("venturebank.registry", "money"),
    ]),
    ("ledger.dr_cr", True, [
        ("venturebank.ledger", "dr"),
        ("venturebank.ledger", "cr"),
        ("venturebank.simulation", "dr"),
        ("venturebank.simulation", "cr"),
    ]),
    ("ledger.post", True, [("venturebank.ledger:Ledger", "post")]),
    ("ledger.balance", False, [("venturebank.ledger:Ledger", "balance")]),
    ("ledger.write_investment_loan", False,
     [("venturebank.simulation", "write_investment_loan")]),
    ("returns.synthesize_distribution", False,
     [("venturebank.simulation", "synthesize_distribution")]),
    ("returns.rescale_to_target", False,
     [("venturebank.simulation", "rescale_to_target")]),
    ("contracts.clawback", False, [
        ("venturebank.simulation", "create_clawback"),
        ("venturebank.simulation", "settle_clawback"),
    ]),
    ("multipliers.capital_limits", False,
     [("venturebank.simulation", "capital_limits")]),
    ("multipliers.kraken_multiplier", False,
     [("venturebank.cli", "kraken_multiplier")]),
    ("simulation.run_scenario", False, [
        ("venturebank.cli", "run_scenario"),
        ("venturebank.simulation", "run_scenario"),
    ]),
    ("simulation.events_to_csv", False, [("venturebank.cli", "events_to_csv")]),
    ("simulation.events_from_csv", False,
     [("venturebank.simulation", "events_from_csv")]),
    ("simulation.replay", False, [("venturebank.simulation", "replay")]),
    ("registry.import_records", False, [("venturebank.cli", "import_records")]),
    ("registry.audit_attachment", False, [("venturebank.cli", "audit_attachment")]),
    ("registry.build_package", False, [("venturebank.cli", "build_package")]),
    ("registry.audit_representativeness", False,
     [("venturebank.cli", "audit_representativeness")]),
    ("cli.main", False, [("venturebank.cli", "main")]),
    ("cli.load_config", False, [("venturebank.cli", "load_config")]),
    ("cli.atomic_write", False, [("venturebank.cli", "_atomic_write")]),
)

# The benchmark wraps each whole iteration in this span, so every moment of
# an iteration belongs to exactly one layer's self time.
ROOT = "bench.iteration"
LAYER_NAMES = (ROOT,) + tuple(name for name, _, _ in LAYERS)


def _owner(target: str):
    import importlib

    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Installation:
    """The wrappers `install` put in place, plus the counters that need a
    call's arguments: distinct spread requests and bytes written."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.spread_keys: set = set()
        self.distinct_spreads = 0
        self.bytes_written = 0
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def iteration(self, step):
        """`step` as one traced iteration: the ROOT span, with spread reuse
        counted within the iteration only."""
        def one_iteration():
            self.spread_keys.clear()
            try:
                return step()
            finally:
                self.distinct_spreads += len(self.spread_keys)
        return self.tracer.wrap(ROOT, one_iteration)


def install(tracer: Tracer) -> Installation:
    inst = Installation(tracer)
    for name, hot, bindings in LAYERS:
        for target, attribute in bindings:
            owner = _owner(target)
            fn = getattr(owner, attribute)
            if name == "returns.rescale_to_target":
                fn = _counting_rescale(inst, fn)
            elif name == "cli.atomic_write":
                fn = _counting_write(inst, fn)
            inst.patch(owner, attribute, tracer.wrap(name, fn, span=not hot))
    return inst


def _counting_rescale(inst: Installation, fn):
    # A spread is fully determined by the synthesis inputs plus the target.
    def rescale(dist, target_mean):
        inst.spread_keys.add((dist.seed, len(dist.outcomes), dist.spread,
                              dist.failure_threshold, str(target_mean)))
        return fn(dist, target_mean)
    return rescale


def _counting_write(inst: Installation, fn):
    def atomic_write(path, text):
        inst.bytes_written += len(text.encode("utf-8"))
        return fn(path, text)
    return atomic_write


def layer_metrics(inst: Installation, iterations: int) -> dict[str, float]:
    """Per-iteration call counts and self times for every layer, plus the
    spread reuse ratio and bytes written."""
    tracer = inst.tracer
    out: dict[str, float] = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = tracer.calls.get(name, 0) / iterations
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / iterations
    rescales = tracer.calls.get("returns.rescale_to_target", 0)
    out["returns.spread_reuse_ratio"] = inst.distinct_spreads / rescales if rescales else 0.0
    out["cli.atomic_write.bytes"] = inst.bytes_written / iterations
    return out
