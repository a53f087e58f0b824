"""Static mutation tests: the verifier must reject injected bugs.

The dynamic twin of this file (``tests/validate/test_mutations.py``)
proves the *simulator* catches each corruption by executing it; here the
same classes of corruption must be rejected **without execution**, from
the schedule/allocation structures alone, with actionable coordinates.

Each test corrupts a real artifact through the
:func:`repro.check.invariants.allocation_of` seam -- the evaluation's
claims stay untouched, so the verifier's independent re-derivation is
what detects the lie.  The batch-path tests at the end corrupt
:meth:`repro.kernel.batch.LoopChain.witness` outputs -- the points the
static gate actually proves -- and the chain itself, where the witness
consistency checks must turn the disagreement into a finding.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check import check_evaluation, run_static_validation
from repro.check import invariants
from repro.check.invariants import allocation_of, rebuild_lifetimes
from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.ir.operation import OpType
from repro.kernel import batch as kbatch
from repro.machine.config import paper_config
from repro.sched.mii import edge_delay
from repro.pipeline.pipelines import run_evaluation
from repro.regalloc.firstfit import AllocationResult, PlacedLifetime, first_fit
from repro.workloads.kernels import all_kernels, make_kernel

SEAM = "repro.check.invariants.allocation_of"


@pytest.fixture(scope="module")
def machine():
    return paper_config(6)


@pytest.fixture(scope="module")
def loop():
    return {k.name: k for k in all_kernels()}["daxpy"]


def test_clean_point_is_proved(loop, machine):
    evaluation = run_evaluation(loop, machine, Model.UNIFIED, 32)
    check = check_evaluation(evaluation)
    assert check.ok, check.describe()
    assert check.edges_checked > 0
    assert check.values_checked > 0


def test_shift_clobber_is_caught(loop, machine, monkeypatch):
    """All register shifts forced to 0: simultaneously live values land in
    the same cell of the rotating file, visible as interval overlap on the
    sheared line -- no simulation required."""
    evaluation = run_evaluation(loop, machine, Model.UNIFIED, 32)
    schedule, allocation = allocation_of(evaluation)
    flattened = AllocationResult(
        allocation.result.ii,
        {
            op_id: PlacedLifetime(placed.lifetime, 0, placed.ii)
            for op_id, placed in allocation.result.placements.items()
        },
    )
    corrupted = dataclasses.replace(allocation, result=flattened)
    monkeypatch.setattr(SEAM, lambda _ev: (schedule, corrupted))

    check = check_evaluation(evaluation)
    assert not check.ok
    overlaps = [f for f in check.findings if f.kind == "allocation"]
    assert overlaps, check.describe()
    finding = overlaps[0]
    assert "overlap" in finding.message
    assert finding.op is not None
    assert finding.cycle is not None
    assert finding.file is not None
    assert finding.register is not None
    assert "reproduce:" in check.describe()


def test_dropped_reload_placement_is_caught(loop, machine, monkeypatch):
    """A spilled point whose reload placement is deleted: the placement
    table no longer covers every value the schedule defines."""
    evaluation = run_evaluation(loop, machine, Model.UNIFIED, 6)
    assert evaluation.spilled_values > 0, "budget must force spills"
    schedule, allocation = allocation_of(evaluation)
    reloads = [
        op
        for op in schedule.graph.operations
        if op.is_spill and op.optype is OpType.LOAD
    ]
    assert reloads, "spilled schedule must carry sld ops"
    victim = reloads[0]
    placements = dict(allocation.result.placements)
    del placements[victim.op_id]
    corrupted = dataclasses.replace(
        allocation,
        result=AllocationResult(allocation.result.ii, placements),
    )
    monkeypatch.setattr(SEAM, lambda _ev: (schedule, corrupted))

    check = check_evaluation(evaluation)
    assert not check.ok
    missing = [
        f
        for f in check.findings
        if f.kind == "allocation" and "no register placement" in f.message
    ]
    assert missing, check.describe()
    assert missing[0].op is not None
    assert victim.name in missing[0].op
    assert missing[0].file is not None


def test_shrunk_lifetime_is_caught(loop, machine, monkeypatch):
    """The longest lifetime truncated and the file repacked: the placed
    interval no longer matches the schedule's own operand distances."""
    evaluation = run_evaluation(loop, machine, Model.UNIFIED, 32)
    schedule, allocation = allocation_of(evaluation)
    lts = dict(allocation.lifetimes)
    longest = max(lts.values(), key=lambda lt: lt.end - lt.start)
    assert longest.end - longest.start > schedule.ii
    lts[longest.op_id] = dataclasses.replace(longest, end=longest.start + 1)
    corrupted = dataclasses.replace(
        allocation,
        lifetimes=lts,
        result=first_fit(lts.values(), schedule.ii),
    )
    monkeypatch.setattr(SEAM, lambda _ev: (schedule, corrupted))

    check = check_evaluation(evaluation)
    assert not check.ok
    fidelity = [f for f in check.findings if f.kind == "lifetime"]
    assert fidelity, check.describe()
    finding = fidelity[0]
    assert finding.op is not None
    assert finding.cycle is not None
    assert finding.file is not None
    assert finding.expected is not None
    assert finding.observed is not None


def test_oversubscribed_reservation_row_is_caught(loop, machine, monkeypatch):
    """One op moved onto another's exact issue slot: two operations now
    claim the same (row, pool, instance) cell of the reservation table."""
    evaluation = run_evaluation(loop, machine, Model.UNIFIED, 32)
    schedule, allocation = allocation_of(evaluation)
    by_pool: dict[str, list[int]] = {}
    for op_id, placement in schedule.placements.items():
        by_pool.setdefault(placement.pool, []).append(op_id)
    pool, ids = next(
        (pool, sorted(ids))
        for pool, ids in sorted(by_pool.items())
        if len(ids) >= 2
    )
    first, second = ids[0], ids[1]
    placements = dict(schedule.placements)
    placements[second] = placements[first]
    corrupted = dataclasses.replace(schedule, placements=placements)
    monkeypatch.setattr(SEAM, lambda _ev: (corrupted, allocation))

    check = check_evaluation(evaluation)
    assert not check.ok
    clashes = [
        f
        for f in check.findings
        if f.kind == "resource" and "oversubscribed" in f.message
    ]
    assert clashes, check.describe()
    finding = clashes[0]
    assert finding.op is not None
    assert finding.cycle is not None
    assert finding.file is not None and pool in finding.file


def test_inflated_register_claim_is_caught(loop, machine, monkeypatch):
    """A claim of more registers than the placements span: the verifier
    recomputes the span minimum and reports the requirement lie."""
    evaluation = run_evaluation(loop, machine, Model.UNIFIED, 32)
    schedule, allocation = allocation_of(evaluation)
    stretched = dict(allocation.result.placements)
    op_id, placed = max(stretched.items(), key=lambda kv: kv[1].start)
    stretched[op_id] = PlacedLifetime(
        placed.lifetime, placed.shift + 4, placed.ii
    )
    corrupted = dataclasses.replace(
        allocation,
        result=AllocationResult(allocation.result.ii, stretched),
    )
    monkeypatch.setattr(SEAM, lambda _ev: (schedule, corrupted))

    check = check_evaluation(evaluation)
    assert not check.ok
    kinds = {f.kind for f in check.findings}
    assert "requirement" in kinds, check.describe()


def test_mutation_seam_is_module_level(monkeypatch):
    """The seam these teeth rely on must stay monkeypatchable."""
    sentinel = object()
    monkeypatch.setattr(SEAM, lambda _ev: sentinel)
    assert invariants.allocation_of(None) is sentinel


# ----------------------------------------------------------------------
# Batch-path witnesses: the points the static gate proves
# ----------------------------------------------------------------------
def _witness(loop, machine, model, budget):
    chain = kbatch.LoopChain(loop.graph, machine)
    return chain.witness(model, budget, SwapEstimator.MAXLIVE, loop=loop)


def test_clean_witnesses_are_proved(loop, machine):
    for model, budget in (
        (Model.UNIFIED, 6),
        (Model.PARTITIONED, 16),
        (Model.SWAPPED, 16),
    ):
        check = check_evaluation(_witness(loop, machine, model, budget))
        assert check.ok, check.describe()


def test_witness_shift_clobber_is_caught(loop, machine, monkeypatch):
    """A spilled batch witness whose register shifts are flattened."""
    evaluation = _witness(loop, machine, Model.UNIFIED, 6)
    assert evaluation.spilled_values > 0, "budget must force spills"
    schedule, allocation = allocation_of(evaluation)
    flattened = AllocationResult(
        allocation.result.ii,
        {
            op_id: PlacedLifetime(placed.lifetime, 0, placed.ii)
            for op_id, placed in allocation.result.placements.items()
        },
    )
    corrupted = dataclasses.replace(allocation, result=flattened)
    monkeypatch.setattr(SEAM, lambda _ev: (schedule, corrupted))

    check = check_evaluation(evaluation)
    assert not check.ok
    overlaps = [f for f in check.findings if f.kind == "allocation"]
    assert overlaps, check.describe()
    assert overlaps[0].op is not None


def test_witness_placement_shifted_one_cycle_is_caught(
    loop, machine, monkeypatch
):
    """One op of a dual-file witness issued a cycle early across a tight
    dependence: the edge is violated and the allocated lifetimes no
    longer match the schedule."""
    evaluation = _witness(loop, machine, Model.PARTITIONED, 16)
    schedule, allocation = allocation_of(evaluation)
    graph = schedule.graph
    tight = next(
        edge
        for edge in graph.edges()
        if schedule.time_of(edge.dst)
        - schedule.time_of(edge.src)
        + schedule.ii * edge.distance
        == edge_delay(edge, graph, machine)
        and schedule.time_of(edge.dst) > 0
        and edge.src != edge.dst
    )
    placements = dict(schedule.placements)
    moved = placements[tight.dst]
    placements[tight.dst] = dataclasses.replace(moved, time=moved.time - 1)
    shifted = dataclasses.replace(schedule, placements=placements)
    assert rebuild_lifetimes(shifted) != rebuild_lifetimes(schedule)
    monkeypatch.setattr(SEAM, lambda _ev: (shifted, allocation))

    check = check_evaluation(evaluation)
    assert not check.ok
    violated = [f for f in check.findings if f.kind == "dependence"]
    assert violated, check.describe()
    assert graph.op(tight.dst).name in violated[0].op
    assert any(f.kind == "lifetime" for f in check.findings)


def test_walk_register_disagreement_is_a_finding(monkeypatch):
    """A chain node whose exact requirement is off by one: the witness
    materializes the true allocation, disagrees with the walk, and the
    static gate reports a disproved point instead of crashing."""
    exact = kbatch._Node.requirement
    monkeypatch.setattr(
        kbatch._Node,
        "requirement",
        lambda node, model, estimator: exact(node, model, estimator) + 1,
    )
    result = run_static_validation(
        loops=[make_kernel("daxpy")], models=((Model.UNIFIED, 32),)
    )
    assert not result.ok
    (point,) = result.failures
    (finding,) = point.findings
    assert finding.kind == "witness"
    assert finding.observed == finding.expected - 1
    assert point.reproducer["loop"] == {
        "type": "loop",
        "kind": "kernel",
        "name": "daxpy",
    }
    assert point.reproducer["static"] is True
    assert "reproduce:" in point.describe()


def test_rebuilt_graph_disagreement_is_a_finding(monkeypatch):
    """Spill replay that does not reproduce the chain's op ids (here: a
    spill rewrite that silently does nothing) is caught on spilled points
    only."""
    monkeypatch.setattr(kbatch, "spill_value", lambda graph, _op: graph)
    result = run_static_validation(
        loops=[make_kernel("daxpy")],
        models=((Model.IDEAL, None), (Model.UNIFIED, 6)),
    )
    ideal, spilled = result.points
    assert ideal.ok, ideal.describe()
    assert not spilled.ok
    (finding,) = spilled.findings
    assert finding.kind == "witness"
    assert "op ids" in finding.message
