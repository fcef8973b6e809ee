"""Tests of the benchmark itself: generators, output checks, tracing."""
import contextlib
import io
import json

import pytest

import checks
import gen
import tracing
import worker


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def test_generators_are_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for run in ("a", "b", "c"):
        (tmp_path / run).mkdir()
        seed = 7 if run != "c" else 8
        gen.write_portfolio_inputs(run, seed)
        gen.write_sweep_inputs(run, seed)
        gen.write_registry_inputs(run, seed, n_primaries=300, package_size=10)
    a, b, c = (_files(tmp_path / run) for run in ("a", "b", "c"))
    assert set(a) == {"portfolio.json", "sweep.json", "registry.jsonl", "audit.json"}
    # The audit config names its registry by path, so compare it with the
    # run directory taken out.
    assert {k: v.replace(b'"a/', b'"b/') for k, v in a.items()} == b
    assert all(a[name] != c[name] for name in a)


def test_registry_shape():
    rows = gen.registry_records(3, n_primaries=4000)
    primaries = [r for r in rows if r["kind"] == "primary"]
    secondaries = [r for r in rows if r["kind"] == "secondary"]
    assert len(primaries) == 4000
    assert 0.08 < len(secondaries) / len(primaries) < 0.12
    assert 0.04 < sum(not r["attached"] for r in rows) / len(rows) < 0.06
    assert {r["underwriter_id"] for r in primaries} == {f"uw-{i}" for i in range(4)}
    by_id = {r["din_id"]: r for r in rows}
    for s in secondaries:
        assert by_id[s["counterpart_ref"]]["counterpart_ref"] == s["din_id"]


def test_event_log_generator_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        gen.write_event_log(run, 11, n_funds=40)
    assert _files(tmp_path / "a")["events.csv"] == _files(tmp_path / "b")["events.csv"]
    assert _files(tmp_path / "a")["report.csv"] == _files(tmp_path / "b")["report.csv"]


def test_flipped_byte_is_caught():
    good = {"report.csv": b"a,b\n1,2\n", "events.csv": b"seq\n0\n1\n"}
    digests = {name: checks.sha256(data) for name, data in good.items()}
    assert checks.digest_errors(good, digests) == []
    assert checks.identity_errors(good, good) == []
    for name, data in good.items():
        for position in range(len(data)):
            flipped = bytearray(data)
            flipped[position] ^= 0x01
            bad = dict(good, **{name: bytes(flipped)})
            assert checks.digest_errors(bad, digests)
            assert checks.identity_errors(bad, good)


class _FlippingWorkload:
    """Yields the same output except for one flipped byte on call 3."""

    def __init__(self):
        self.calls = 0

    def iterate(self):
        self.calls += 1
        data = b"curve,value\nx,1.000000\n"
        if self.calls == 3:
            data = data.replace(b"1.0", b"1.1")
        return 1, {"sweep": worker.Outcome({"curves.csv": data}, [])}

    def first_checks(self, outcomes):
        pass


def test_loop_counts_a_flipped_byte_as_a_failure():
    loop = worker.Loop(_FlippingWorkload())
    times = []
    while len(times) < 4:
        t, _, _ = loop.run(0.0)
        times += t
    assert loop.attempted == 4
    assert loop.failed == 1
    assert "curves.csv" in loop.errors[0]


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_on_a_synthetic_span_tree():
    clock = _Clock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 1.0

    hot = tracer.wrap("hot", leaf, span=False)

    def middle():
        clock.now += 2.0
        hot()
        hot()
        clock.now += 0.5

    mid = tracer.wrap("mid", middle)

    def top():
        clock.now += 0.25
        mid()
        hot()
        clock.now += 0.125

    root = tracer.wrap("root", top)
    root()

    assert dict(tracer.calls) == {"hot": 3, "mid": 1, "root": 1}
    assert tracer.self_s["hot"] == 3.0
    assert tracer.self_s["mid"] == 2.5
    assert tracer.self_s["root"] == 0.375
    assert sum(tracer.self_s.values()) == clock.now == 5.875
    # Hot leaves aggregate without spans; the rest keep name, start, end, parent.
    assert tracer.spans == [("root", 0.0, 5.875, None), ("mid", 0.25, 4.75, 0)]


def test_self_time_survives_an_exception():
    clock = _Clock()
    tracer = tracing.Tracer(clock)

    def failing():
        clock.now += 1.0
        raise ValueError("boom")

    inner = tracer.wrap("inner", failing)

    def outer():
        with contextlib.suppress(ValueError):
            inner()
        clock.now += 2.0

    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"inner": 1.0, "outer": 2.0}
    assert tracer._stack == []


def _simulate_outputs(directory):
    from venturebank import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", str(directory / "portfolio.json"),
                         "--out", str(directory)]) == 0
    return (directory / "report.csv").read_bytes(), (directory / "events.csv").read_bytes()


def test_install_traces_without_changing_outputs(tmp_path):
    from venturebank import cli, ledger, simulation

    gen.write_portfolio_inputs(str(tmp_path), 5, n_funds=60)
    originals = (cli.main, simulation.money, ledger.Ledger.post)
    untraced = _simulate_outputs(tmp_path)

    installed = tracing.install(tracing.Tracer())
    try:
        traced = installed.iteration(lambda: _simulate_outputs(tmp_path))()
    finally:
        installed.restore()

    assert traced == untraced
    assert (cli.main, simulation.money, ledger.Ledger.post) == originals
    layers = tracing.layer_metrics(installed, 1)
    assert layers["cli.main.calls"] == 1
    assert layers["simulation.run_scenario.calls"] == 1
    (root,) = [s for s in installed.tracer.spans if s[0] == tracing.ROOT]
    total = sum(layers[f"{name}.self_s"] for name in tracing.LAYER_NAMES)
    assert total == pytest.approx(root[2] - root[1], abs=1e-9)
    json.dumps(layers)  # every value is a plain number
