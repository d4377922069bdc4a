"""Span-tree self-time arithmetic and wrapper install / restore."""

import json
import types

import pytest

from perf.trace import Tracer

from .fakes import FakeHost


def test_self_time_is_duration_minus_direct_children():
    host = FakeHost()
    tracer = Tracer(host.clock)
    tracer.round, tracer.op = 0, 0
    with tracer.span("parent"):
        host.work(1.0)
        with tracer.span("child"):
            host.work(2.0)
            with tracer.span("grandchild"):
                host.work(4.0)
        with tracer.span("child"):
            host.work(3.0)
        host.work(0.5)
    parent, first, grandchild, second = tracer.spans
    assert parent.duration == pytest.approx(10.5)
    assert parent.self_time == pytest.approx(1.5)  # not minus the grandchild
    assert first.self_time == pytest.approx(2.0)
    assert grandchild.self_time == pytest.approx(4.0)
    assert (first.parent, grandchild.parent, second.parent) == (0, 1, 0)

    totals = tracer.self_times()
    assert totals["child"].seconds == pytest.approx(5.0)
    assert totals["child"].calls == 2 and totals["child"].ops == 1
    assert sum(t.seconds for t in totals.values()) == pytest.approx(parent.duration)
    # Normalised by the round's speed factor.
    assert tracer.self_times({0: 0.5})["grandchild"].seconds == pytest.approx(2.0)


class _Layer:
    def read(self, rows):
        return [row * 2 for row in rows]

    def gather(self, rows):
        return self.read(rows)  # internal calls go through the instance


def test_wrappers_exist_only_while_installed():
    host = FakeHost()
    tracer = Tracer(host.clock)
    layer = _Layer()
    module = types.ModuleType("fake_module")
    module.send = lambda payload: len(payload)
    original_send = module.send
    seen = []
    tracer.wrap(layer, "read", "layer.read", units=lambda a, k, r: len(a[0]))
    tracer.wrap(layer, "gather", "layer.gather")
    tracer.wrap(module, "send", "module.send", tap=lambda a, k, r: seen.append(a[0]))

    assert layer.gather([1, 2]) == [2, 4] and not tracer.spans
    with tracer.installed():
        assert layer.gather([1, 2, 3]) == [2, 4, 6]
        assert module.send("abc") == 3
    assert [span.name for span in tracer.spans] == [
        "layer.gather",
        "layer.read",
        "module.send",
    ]
    assert tracer.spans[1].parent == 0 and tracer.spans[1].units == 3
    assert seen == ["abc"]
    # Restored: the instance shadows are gone, the module function is back.
    assert "read" not in vars(layer) and "gather" not in vars(layer)
    assert module.send is original_send
    count = len(tracer.spans)
    layer.gather([1])
    assert len(tracer.spans) == count


def test_chrome_trace_is_loadable(tmp_path):
    host = FakeHost()
    tracer = Tracer(host.clock)
    with tracer.span("a"):
        host.work(0.25)
    path = tmp_path / "nested" / "trace.json"
    tracer.write(path)
    document = json.loads(path.read_text("utf-8"))
    (event,) = document["traceEvents"]
    assert event["ph"] == "X" and event["dur"] == pytest.approx(250000.0)
