"""Tests for the full-grid static validation driver."""

from __future__ import annotations

import dataclasses

from repro.api.types import LoopSpec
from repro.check import CHECK_MODELS, run_static_validation
from repro.core.models import Model
from repro.pipeline.fingerprint import graph_fingerprint
from repro.workloads.kernels import all_kernels, make_kernel
from repro.workloads.suite import perfect_club_like


def _same_loop(a, b) -> bool:
    return (
        a.name == b.name
        and a.trip_count == b.trip_count
        and graph_fingerprint(a.graph) == graph_fingerprint(b.graph)
    )


def test_small_grid_proves_everything():
    result = run_static_validation(n_loops=6)
    assert result.ok, result.format()
    assert len(result.points) == 6 * len(CHECK_MODELS)
    assert result.findings_count == 0
    assert result.failures == ()


def test_describe_and_format_surfaces():
    result = run_static_validation(n_loops=4)
    text = result.describe()
    assert "statically verified" in text
    assert "all proved" in text
    full = result.format()
    assert full.startswith("static check:")
    assert "proved legal" in full


def test_explicit_loops_override():
    kernels = all_kernels()[:2]
    result = run_static_validation(
        loops=kernels, models=((Model.UNIFIED, 32),)
    )
    assert len(result.points) == 2
    assert result.ok, result.format()


def test_progress_callback_counts_points():
    seen: list[tuple[int, int]] = []
    result = run_static_validation(
        n_loops=3,
        models=((Model.IDEAL, None),),
        progress=lambda done, total: seen.append((done, total)),
    )
    assert result.ok
    assert seen[-1] == (len(result.points), len(result.points))


def test_reproducers_round_trip_the_wire_shape():
    result = run_static_validation(n_loops=2)
    for point in result.points:
        loop_spec = point.reproducer["loop"]
        assert loop_spec["kind"] == "suite"
        assert loop_spec["n_loops"] == 2
        assert point.reproducer["machine"]["kind"] == "paper"
        assert point.reproducer["static"] is True


def test_generated_suite_reproducers_resolve_to_their_loops():
    result = run_static_validation(n_loops=3, models=((Model.IDEAL, None),))
    suite = list(perfect_club_like(3))
    for point, loop in zip(result.points, suite):
        spec = LoopSpec.from_dict(point.reproducer["loop"])
        assert _same_loop(spec.resolve(), loop)


def test_explicit_kernel_reproducers_resolve_to_their_loops():
    """Hand-written kernels passed explicitly are named as kernels, not
    as the suite loop that happens to sit at their position."""
    kernels = [make_kernel("daxpy"), make_kernel("iccg")]
    result = run_static_validation(
        loops=kernels, models=((Model.UNIFIED, 32),)
    )
    assert result.ok, result.format()
    for point, loop in zip(result.points, kernels):
        assert point.reproducer["loop"]["kind"] == "kernel"
        spec = LoopSpec.from_dict(point.reproducer["loop"])
        assert _same_loop(spec.resolve(), loop)


def test_altered_kernel_is_not_named_as_the_kernel():
    """A loop reusing a kernel's name with a different body must not be
    reproduced as that kernel."""
    loop = dataclasses.replace(
        make_kernel("daxpy"), graph=make_kernel("iccg").graph
    )
    result = run_static_validation(
        loops=[loop], models=((Model.UNIFIED, 32),)
    )
    assert result.points[0].reproducer["loop"] == {"name": "daxpy"}
