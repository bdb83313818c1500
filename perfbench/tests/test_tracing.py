"""Self-time accounting and import-site patching of the traced run."""

import sys
import types

import layers
import report


class FakeClock:
    """perf_counter stand-in that only moves when a test says so."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_wrapped_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layers.time, "perf_counter", clock)
    recorder = layers.Recorder()

    def leaf():
        clock.advance(3.0)

    timed_leaf = recorder.wrap(layers.Target("leaf", "m", "leaf"), leaf)

    def middle():
        clock.advance(1.0)
        timed_leaf()
        timed_leaf()
        clock.advance(0.5)

    timed_middle = recorder.wrap(layers.Target("middle", "m", "middle"), middle)
    with recorder.span(report.ROOT_SPAN):
        clock.advance(2.0)
        timed_middle()

    spans, _ = recorder.totals()
    assert spans["leaf"] == {"calls": 2, "total_s": 6.0, "self_s": 6.0}
    assert spans["middle"] == {"calls": 1, "total_s": 7.5, "self_s": 1.5}
    assert spans[report.ROOT_SPAN] == {"calls": 1, "total_s": 9.5, "self_s": 2.0}
    metrics = report.layer_metrics(spans, {})
    assert metrics["trace.wall_s"] == 9.5
    assert metrics["trace.attributed_frac"] == 7.5 / 9.5
    # Every span is also an event of the chrome trace.
    document = recorder.document({"workload": "test"})
    names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
    assert sorted(names) == ["bench.run", "leaf", "leaf", "middle"]
    assert document["otherData"]["spans"]["middle"]["self_s"] == 1.5


def test_counts_and_deltas_are_credited(monkeypatch):
    recorder = layers.Recorder()
    inner = recorder.wrap(
        layers.Target("inner", "m", "f", lambda a, k, r: {"work": float(r)}),
        lambda n: n,
    )
    outer = recorder.wrap(
        layers.Target("outer", "m", "g", deltas=("work",)),
        lambda: inner(2) + inner(3),
    )
    outer()
    inner(10)
    _, counters = recorder.totals()
    assert counters["work"] == 15.0
    assert counters["outer.work"] == 5.0


def test_install_patches_every_import_site_and_the_class(monkeypatch):
    source = types.ModuleType("repro._bench_source")

    def solve(x):
        return x + 1

    class Device:
        def current(self, v):
            return 2 * v

    source.solve, source.Device = solve, Device
    user = types.ModuleType("repro._bench_user")
    user.solve = solve  # as `from repro._bench_source import solve` binds it
    monkeypatch.setitem(sys.modules, "repro._bench_source", source)
    monkeypatch.setitem(sys.modules, "repro._bench_user", user)
    monkeypatch.setattr(Device, "current", Device.current)

    recorder = layers.Recorder()
    layers.install(
        recorder,
        (
            layers.Target("solve", "repro._bench_source", "solve"),
            layers.Target("current", "repro._bench_source", "Device.current"),
        ),
    )
    assert user.solve is source.solve and user.solve is not solve
    assert user.solve(1) == 2 and Device().current(4) == 8
    spans, _ = recorder.totals()
    assert spans["solve"]["calls"] == 1 and spans["current"]["calls"] == 1


def test_tap_counts_without_timing():
    tap = layers.Tap()
    counted = tap.wrap(layers.Target("c", "m", "f", lambda a, k, r: {"n": 1.0}), abs)
    kept = tap.wrap(layers.Target("k", "m", "g"), abs)
    counted(-1)
    counted(-2)
    kept(-3)
    assert tap.counters == {"n": 2.0}
    assert tap.results == {"k": [((-3,), 3)]}
