"""Full-grid static verification: prove 100% of points, not a sample.

The dynamic gate (:mod:`repro.validate.sampling`) executes a seeded
sample because cycle-accurate simulation costs ``cycles x iterations``
per point.  The static proof is O(ops + edges) per point, so this module
walks the *entire* suite grid -- every loop under every register file
model -- and proves each point with
:func:`repro.check.invariants.check_evaluation`.  ``repro validate
--static`` and the report's check gate call this; the bench ``check``
scenario times it.

The points proved are the published ones: each loop gets one
:class:`repro.kernel.batch.LoopChain` -- the engine's batch path behind
the figures and served results -- and every grid point is that chain's
exit state, materialized by :meth:`~repro.kernel.batch.LoopChain.witness`.
Nothing is re-evaluated per point.  Measured at 200 loops (800 points,
one process, 2-vCPU host) the pass takes ~7 s: ~6.1 s of chain walks and
witness materialization, ~0.8 s of proofs.  A per-point re-evaluation
through ``pipeline.run_evaluation`` costs ~22 s for the same grid.

Layering: ``check`` sits below ``validate`` (validate imports check and
folds findings into its reports), so the model grid and suite defaults
are defined here rather than imported from the sampling module.  This
module imports :mod:`repro.kernel.batch`; the prover
(:mod:`repro.check.invariants`) stays independent of ``kernel``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.check.invariants import Finding, StaticCheck, check_evaluation
from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.ir.loop import Loop
from repro.kernel.batch import LoopChain, WitnessError
from repro.machine.config import paper_config
from repro.pipeline.fingerprint import graph_fingerprint
from repro.workloads.kernels import kernel_names, make_kernel
from repro.workloads.suite import DEFAULT_SEED, perfect_club_like

DEFAULT_LATENCY = 6

# Same grid the sampled dynamic gate draws from: the unconstrained
# baseline plus the paper's three register-file organizations.
CHECK_MODELS: tuple[tuple[Model, int | None], ...] = (
    (Model.IDEAL, None),
    (Model.UNIFIED, 32),
    (Model.PARTITIONED, 16),
    (Model.SWAPPED, 16),
)

ProgressFn = Callable[[int, int], None]


@dataclass(frozen=True)
class StaticValidation:
    """Outcome of statically proving a whole suite grid."""

    n_loops: int
    suite_seed: int
    latency: int
    models: tuple[tuple[Model, int | None], ...]
    points: tuple[StaticCheck, ...]
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return all(point.ok for point in self.points)

    @property
    def failures(self) -> tuple[StaticCheck, ...]:
        return tuple(point for point in self.points if not point.ok)

    @property
    def findings_count(self) -> int:
        return sum(len(point.findings) for point in self.points)

    @property
    def points_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.points) / self.wall_seconds

    def describe(self) -> str:
        """One footer-sized line: what was proved and at what rate."""
        verdict = (
            "all proved"
            if self.ok
            else f"{len(self.failures)} point(s) disproved "
            f"({self.findings_count} finding(s))"
        )
        return (
            f"{self.n_loops} loops x {len(self.models)} models = "
            f"{len(self.points)} points statically verified, {verdict} "
            f"({self.points_per_second:.0f} points/sec)"
        )

    def format(self) -> str:
        """Full text form (the ``repro validate --static`` output)."""
        lines = [
            f"static check: {self.describe()}",
            f"suite: {self.n_loops} loops (seed {self.suite_seed}), "
            f"paper machine L{self.latency}",
            f"wall time: {self.wall_seconds:.1f}s",
        ]
        for point in self.failures:
            lines.append(point.describe())
        if self.ok:
            lines.append(
                "every point's schedule and allocation is proved legal"
            )
        return "\n".join(lines)


def _kernel_spec(loop: Loop) -> dict[str, object]:
    """Wire coordinates of a hand-supplied loop.

    A ``kernel`` spec when the loop *is* that hand-written kernel (same
    name, trip count and graph content), else just its name: a suite
    index would point at whatever loop sits there, not at this one.
    """
    if loop.name in kernel_names():
        kernel = make_kernel(loop.name)
        if kernel.trip_count == loop.trip_count and graph_fingerprint(
            kernel.graph
        ) == graph_fingerprint(loop.graph):
            return {"type": "loop", "kind": "kernel", "name": loop.name}
    return {"name": loop.name}


def _witness_failure(
    error: WitnessError,
    reproducer: dict[str, object],
    model: Model,
    budget: int | None,
) -> StaticCheck:
    """A point whose witness disagrees with its own walk: disproved."""
    return StaticCheck(
        reproducer=dict(reproducer, static=True),
        model=model.value,
        register_budget=budget,
        ii=error.ii,
        edges_checked=0,
        values_checked=0,
        findings=(
            Finding(
                kind="witness",
                message=error.message,
                expected=error.expected,
                observed=error.observed,
            ),
        ),
    )


def run_static_validation(
    n_loops: int = 200,
    suite_seed: int = DEFAULT_SEED,
    latency: int = DEFAULT_LATENCY,
    models: Sequence[tuple[Model, int | None]] = CHECK_MODELS,
    loops: Iterable[Loop] | None = None,
    progress: ProgressFn | None = None,
) -> StaticValidation:
    """Statically verify every point of the suite grid.

    Unlike the sampled simulator gate this covers 100% of points, each
    the exit state of its loop's batch chain.  Reproducers carry suite
    coordinates when this function generated the suite, and kernel specs
    (or the bare name) for explicitly passed ``loops``.
    """
    start = time.perf_counter()
    generated = loops is None
    suite = (
        list(perfect_club_like(n_loops, seed=suite_seed))
        if loops is None
        else list(loops)
    )
    machine = paper_config(latency)
    machine_spec = {"type": "machine", "kind": "paper", "latency": latency}
    grid = tuple(models)
    total = len(suite) * len(grid)
    points: list[StaticCheck] = []
    for index, loop in enumerate(suite):
        loop_spec: dict[str, object] = (
            {
                "type": "loop",
                "kind": "suite",
                "index": index,
                "n_loops": len(suite),
                "seed": suite_seed,
            }
            if generated
            else _kernel_spec(loop)
        )
        chain = LoopChain(loop.graph, machine)
        for model, budget in grid:
            reproducer: dict[str, object] = {
                "loop": loop_spec,
                "machine": machine_spec,
                "model": model.value,
                "register_budget": budget,
            }
            try:
                evaluation = chain.witness(
                    model, budget, SwapEstimator.MAXLIVE, loop=loop
                )
            except WitnessError as error:
                points.append(
                    _witness_failure(error, reproducer, model, budget)
                )
            else:
                points.append(
                    check_evaluation(evaluation, reproducer=reproducer)
                )
            if progress is not None:
                progress(len(points), total)
    return StaticValidation(
        n_loops=len(suite),
        suite_seed=suite_seed,
        latency=latency,
        models=grid,
        points=tuple(points),
        wall_seconds=time.perf_counter() - start,
    )


__all__ = [
    "CHECK_MODELS",
    "DEFAULT_LATENCY",
    "StaticValidation",
    "run_static_validation",
]
