import pytest

import spans


def test_self_time_on_nested_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]; b runs again at the top.
    rows = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 0, 5.0, 9.0],
        ["d", 2, 6.0, 7.0],
        ["b", -1, 10.0, 12.0],
    ]
    out = spans.summarize(rows, {"d.cells": 7})
    assert out["a.self_s"] == pytest.approx(3.0)
    assert out["b.self_s"] == pytest.approx(5.0)
    assert out["c.self_s"] == pytest.approx(3.0)
    assert out["d.self_s"] == pytest.approx(1.0)
    assert (out["a.calls"], out["b.calls"], out["c.calls"], out["d.calls"]) == (1, 2, 1, 1)
    assert out["d.cells"] == 7


def test_wrappers_record_parents_and_self_time():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    # outer starts at 0 and ends at 5; the two inner spans take [1, 2] and [3, 4].
    assert [row[:2] for row in tracer.spans] == [["outer", -1], ["inner", 0], ["inner", 0]]
    out = tracer.summary()
    assert out["outer.self_s"] == pytest.approx(3.0)
    assert out["inner.self_s"] == pytest.approx(2.0)


def test_failing_call_closes_its_span():
    tracer = spans.Tracer(clock=iter(range(100)).__next__)

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.span("boom", boom)()
    assert tracer.spans == [["boom", -1, 0, 1]] and tracer._open == []


def test_install_patches_every_binding_and_uninstall_restores():
    from ratelab import estimator, harness, lower_bounds, mercer

    before = (estimator.fit, harness.fit, lower_bounds.fit, mercer.TargetFunction.evaluate)
    with spans.Tracer():
        assert harness.fit is estimator.fit is lower_bounds.fit
        assert estimator.fit is not before[0]
        assert mercer.TargetFunction.evaluate is not before[3]
    after = (estimator.fit, harness.fit, lower_bounds.fit, mercer.TargetFunction.evaluate)
    assert after == before
