import pytest

from spans import COUNT_SPAN, Span, Tracer, busy_times, self_times


def test_self_time_subtracts_children_only():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_busy_time_sums_spans_by_name():
    spans = [
        Span("f", 0.0, 4.0, None),
        Span("g", 2.0, 3.0, 0),
        Span("f", 5.0, 6.0, None),
    ]
    assert busy_times(spans) == {"f": 5.0, "g": 1.0}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wrapped_calls_record_parents_names_and_count_spans():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("layer.inner", lambda x: x + 1, count=lambda a, k: f"n{a[0]}")
    outer = tracer.wrap("layer.outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    names = [s.name for s in tracer.spans]
    assert names == ["layer.outer", COUNT_SPAN, "layer.inner.n3"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    own = self_times(tracer.spans)
    assert sum(own) == pytest.approx(tracer.spans[0].duration)


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("layer.boom", boom)()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.open("next") == 1
    assert tracer.spans[1].parent is None
