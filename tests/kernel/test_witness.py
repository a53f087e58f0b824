"""Differential: ``LoopChain.witness`` == the per-point ``run_evaluation``.

The static gate proves the batch chain's exit states as materialized by
:meth:`repro.kernel.batch.LoopChain.witness`.  Those witnesses must be
the very evaluations the per-point pass pipeline produces: same II and
placements, same allocation (register count, placements, lifetimes and
the cluster assignment for the dual models), same spill/escalation
counters and verdict, same memory and spill traffic.  Graphs are
compared by content (the witness rebuilds its graph by replaying the
spills, so it is a different object with the same operations).
"""

from __future__ import annotations

import pytest

from repro.check.coverage import CHECK_MODELS
from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.ir.operation import OpType
from repro.kernel.batch import ARRAY_POLICIES, LoopChain
from repro.machine.config import paper_config
from repro.pipeline.fingerprint import graph_fingerprint
from repro.pipeline.pipelines import run_evaluation
from repro.spill.spiller import LoopEvaluation
from repro.workloads.kernels import make_kernel
from repro.workloads.suite import perfect_club_like

SUITE = list(perfect_club_like(24))
#: Loops whose grid points spill (and, for the last two, escalate the II).
KNOB_LOOPS = [1, 11, 6, 19]


def _allocation(evaluation: LoopEvaluation) -> tuple:
    requirement = evaluation.requirement
    if requirement.unified is not None:
        unified = requirement.unified
        return (
            "unified",
            unified.result.placements,
            unified.lifetimes,
            unified.max_live,
        )
    dual = requirement.dual
    return (
        "dual",
        dual.schedule.placements,
        dual.assignment,
        dual.classes.value_clusters,
        dual.placements,
        dual.lifetimes,
    )


def _view(evaluation: LoopEvaluation) -> tuple:
    """Everything a figure or the static proof reads off one point."""
    return (
        evaluation.ii,
        evaluation.schedule.placements,
        graph_fingerprint(evaluation.schedule.graph),
        [op.name for op in evaluation.schedule.graph.operations],
        evaluation.requirement.registers,
        _allocation(evaluation),
        evaluation.mii,
        evaluation.spilled_values,
        evaluation.ii_increases,
        evaluation.fits,
        evaluation.memory_ops_per_iteration,
        evaluation.spill_ops_per_iteration,
    )


def _assert_same(loop, machine, model, budget, **knobs) -> LoopEvaluation:
    max_rounds = knobs.pop("max_rounds", 200)
    chain = LoopChain(loop.graph, machine, **knobs)
    witness = chain.witness(
        model, budget, SwapEstimator.MAXLIVE, max_rounds, loop=loop
    )
    reference = run_evaluation(
        loop, machine, model, budget, max_rounds=max_rounds, **knobs
    )
    assert _view(witness) == _view(reference), (loop.name, model, budget)
    assert witness.loop is loop
    assert witness.register_budget == budget
    return witness


@pytest.mark.parametrize("latency", [3, 6])
@pytest.mark.parametrize("index", range(len(SUITE)))
def test_suite_grid(index, latency):
    loop = SUITE[index]
    machine = paper_config(latency)
    chain = LoopChain(loop.graph, machine)
    for model, budget in CHECK_MODELS:
        witness = chain.witness(model, budget, SwapEstimator.MAXLIVE, loop=loop)
        reference = run_evaluation(loop, machine, model, budget)
        assert _view(witness) == _view(reference), (loop.name, model)
        # The same walk serves evaluate(): the figures' numbers.
        published = chain.evaluate(model, budget, SwapEstimator.MAXLIVE)
        assert published.ii == witness.ii
        assert published.registers == witness.requirement.registers
        assert published.memory_ops == witness.memory_ops_per_iteration


def test_suite_grid_spills_somewhere():
    """The grid above must exercise rebuilt (spilled) graphs, not only roots."""
    machine = paper_config(6)
    spilled = 0
    for loop in SUITE:
        chain = LoopChain(loop.graph, machine)
        for model, budget in CHECK_MODELS:
            spilled += chain.evaluate(
                model, budget, SwapEstimator.MAXLIVE
            ).spilled_values
    assert spilled > 0


@pytest.mark.parametrize("policy", sorted(ARRAY_POLICIES))
@pytest.mark.parametrize("index", KNOB_LOOPS)
def test_victim_policies(policy, index):
    loop = SUITE[index]
    machine = paper_config(6)
    for model, budget in CHECK_MODELS[1:]:
        _assert_same(loop, machine, model, budget, victim_policy=policy)


@pytest.mark.parametrize("index", KNOB_LOOPS)
def test_increase_ii_strategy(index):
    loop = SUITE[index]
    machine = paper_config(6)
    for model, budget in CHECK_MODELS[1:]:
        _assert_same(
            loop, machine, model, budget, pressure_strategy="increase_ii"
        )


def test_round_cap_reports_the_last_measured_state():
    """Under a round cap the walk's final spill is never scheduled: the
    witness reports the last measured state, one spill behind the count."""
    loop = make_kernel("daxpy")
    machine = paper_config(6)
    witness = _assert_same(loop, machine, Model.UNIFIED, 4, max_rounds=2)
    stores = sum(
        1
        for op in witness.schedule.graph.operations
        if op.is_spill and op.optype is OpType.STORE
    )
    assert witness.spilled_values == 2
    assert stores == 1
    assert not witness.fits


def test_increase_ii_escalates_somewhere():
    machine = paper_config(6)
    loop = SUITE[KNOB_LOOPS[-1]]
    witness = _assert_same(
        loop, machine, Model.UNIFIED, 8, pressure_strategy="increase_ii"
    )
    assert witness.ii_increases > 0
