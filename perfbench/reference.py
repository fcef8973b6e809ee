"""Machine-speed reference for steadier timings on a shared host.

On a shared machine the speed of the CPU a benchmark gets drifts by tens
of percent within a minute, and every interpreted workload slows down
with it.  While a benchmark process measures, `Ticker` interrupts it
every INTERVAL_S of wall time (SIGALRM) and times a fixed kernel three
times in a row, keeping the median; a timed interval is then reported at
a nominal machine speed:

    normalized seconds = (wall seconds - seconds spent in ticks)
                         * NOMINAL_S / median kernel seconds in the interval

On the machine the benchmark was defined on this halved the spread of
iteration times within a run; it does not remove it, because contention
slows the kernel and the program by similar but not equal factors.

The kernel is shaped like the program's hot path (Decimal quantize,
frozen dataclasses, dict updates, string joins), so contention slows both
alike.  It never calls venturebank and runs under its own decimal context,
so no change to the program moves it and it never touches the program's
state.
"""
from __future__ import annotations

import decimal
import signal
import statistics
import time
from dataclasses import dataclass

# Median kernel time on the machine the benchmark was defined on (Intel
# Xeon, 2 vCPU) when it was quiet.  Only the scale of reported values
# depends on it.
NOMINAL_S = 0.0025
INTERVAL_S = 0.1
RUNS_PER_TICK = 3

_CONTEXT = decimal.Context(prec=28)
_SCALE = decimal.Decimal("0.000000001")
_ZERO = decimal.Decimal(0)


@dataclass(frozen=True)
class _Row:
    key: str
    amount: decimal.Decimal


def kernel() -> int:
    ctx = _CONTEXT
    rows = []
    totals: dict[str, decimal.Decimal] = {}
    for i in range(1500):
        amount = ctx.quantize(ctx.divide(decimal.Decimal(i), 7), _SCALE)
        row = _Row(f"k{i % 97}", amount)
        rows.append(row)
        totals[row.key] = ctx.add(totals.get(row.key, _ZERO), row.amount)
    return len(",".join(str(r.amount) for r in rows)) + len(totals)


class Ticker:
    """Samples the kernel's time from a SIGALRM handler while started."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused_s = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        runs = []
        for _ in range(RUNS_PER_TICK):
            begin = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - begin)
        self.samples.append(statistics.median(runs))
        self.paused_s += time.perf_counter() - started

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.paused_s

    def normalized(self, wall_s: float, mark: tuple[int, float]) -> float:
        """`wall_s`, an interval that began at `mark`, without the time
        spent in ticks and rescaled to nominal speed.  An interval with
        fewer than three ticks uses the last three."""
        count, paused_s = mark
        recent = self.samples[count:]
        if len(recent) < 3:
            recent = self.samples[-3:]
        if not recent:
            raise RuntimeError("no reference samples yet")
        return (wall_s - (self.paused_s - paused_s)) * NOMINAL_S / statistics.median(recent)
