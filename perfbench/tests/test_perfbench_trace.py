"""Span bookkeeping: self time, recursion, and wrapper installation."""

from __future__ import annotations

import pytest

from perfbench.trace import Span, Target, Tracer, install, self_times, uninstall


def _span(span_id: int, parent: int, start: float, end: float) -> Span:
    return Span(span_id, parent, f"s{span_id}", start, end, False)


def test_self_time_subtracts_the_union_of_children() -> None:
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 4.0),  # overlaps span 2: [1, 4] counted once
        _span(4, 1, 8.0, 12.0),  # clipped to the parent's end
        _span(5, 2, 1.5, 2.5),  # a grandchild is not the parent's child
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(1.0)


def test_recursive_calls_count_once_in_totals() -> None:
    tracer = Tracer("t")

    def countdown(n: int) -> int:
        if n == 0:
            return 0
        return tracer.call("countdown", countdown, (n - 1,), {}) + 1

    assert tracer.call("countdown", countdown, (3,), {}) == 3
    totals = tracer.totals()["countdown"]
    assert totals["count"] == 1
    outer = max(tracer.spans, key=lambda s: s.duration)
    assert totals["total_s"] == pytest.approx(outer.duration)
    # Self times partition the outermost span exactly.
    assert totals["self_s"] == pytest.approx(outer.duration)
    parents = {s.span_id: s.parent for s in tracer.spans}
    assert sorted(parents.values()).count(0) == 1


def test_install_reaches_name_imports_and_uninstall_restores() -> None:
    import repro.engine.sweep as sweep_module
    import repro.workloads.suite as suite_module

    original = suite_module.perfect_club_like
    tracer = Tracer("t")
    done = install(
        tracer, [Target("workloads.suite", "repro.workloads.suite", "perfect_club_like")]
    )
    try:
        # ``repro.engine.sweep`` imported the function by name.
        assert sweep_module.perfect_club_like is suite_module.perfect_club_like
        assert suite_module.perfect_club_like is not original
        sweep_module.perfect_club_like(3)
    finally:
        uninstall(done)
    assert suite_module.perfect_club_like is original
    assert sweep_module.perfect_club_like is original
    assert tracer.totals()["workloads.suite"]["count"] == 1


def test_method_and_hit_counter_wrappers() -> None:
    from repro.pipeline.context import ArtifactStore

    tracer = Tracer("t")
    done = install(
        tracer,
        [
            Target("store.memo", "repro.pipeline.context", "ArtifactStore.memo"),
            Target("artifact", "repro.pipeline.context", "ArtifactStats.record", "hit"),
        ],
    )
    try:
        store = ArtifactStore()
        assert store.memo(("k", 1), lambda: 5) == 5
        assert store.memo(("k", 1), lambda: 6) == 5
    finally:
        uninstall(done)
    assert tracer.counters == {"artifact.lookups": 2, "artifact.hits": 1}
    assert tracer.totals()["store.memo"]["count"] == 2
