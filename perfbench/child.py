"""One cold repetition of a batch workload, in a fresh interpreter.

``python perfbench/child.py sweep|report --seed N --cache-dir D
[--workers K] [--trace-out FILE] [--setup-only]`` prints one JSON object
on its last stdout line.  A fresh process per repetition keeps every
in-process memo (suite caches, artifact stores) cold, like a user's
first command; ``--cache-dir`` must be an empty directory.

Set-up (``setup_s``) runs from interpreter start to the timed window:
the imports, and for the sweep one suite and job-grid build, whose
points the output check reuses.  The timed call builds its own suite
and grid as the program does; the traced run wraps the layers only
after set-up, so the layer spans cover the timed call alone.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402 - START must precede every import
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SWEEP_LOOPS = 800
REPORT_LOOPS = 200
#: Grid points re-derived and proved after each sweep.
SWEEP_VERIFY = 24


def _import_program() -> None:
    """Every program module a workload touches, so imports count as set-up."""
    import repro.api  # noqa: F401
    import repro.check.coverage  # noqa: F401
    import repro.engine.sweep  # noqa: F401
    import repro.report.build  # noqa: F401
    import repro.validate  # noqa: F401


def _tracer(args: argparse.Namespace) -> tuple[object, object]:
    from perfbench.layers import TARGETS
    from perfbench.trace import Tracer, install

    # The run id is the span file's name: one file per traced child.
    tracer = Tracer(run_id=Path(args.trace_out).stem)
    return tracer, install(tracer, TARGETS)


def _finish_trace(args: argparse.Namespace, tracer: object, out: dict) -> None:
    from perfbench.layers import span_metrics

    out["layers"] = span_metrics(tracer.totals())
    out["counters"] = dict(tracer.counters)
    tracer.write(Path(args.trace_out))


def _cold_cache(cache_dir: str) -> bool:
    from repro.engine.cache import ResultCache

    return ResultCache(directory=cache_dir).entry_count() == 0


# ----------------------------------------------------------------------
# sweep_paper
# ----------------------------------------------------------------------
def _verify_sweep(points: list, cache_dir: str, seed: int) -> tuple[int, int, list[str]]:
    """Re-derive :data:`SWEEP_VERIFY` seeded sweep points and prove each.

    The stored result (read back from the on-disk cache the sweep wrote)
    must equal a per-point ``run_evaluation`` of the same job in ii,
    registers, spills and memory operations, and that evaluation must
    pass ``check_evaluation``.  Returns ``(checked, failed, reasons)``.
    """
    from repro.check.invariants import check_evaluation
    from repro.core.models import Model
    from repro.core.swapping import SwapEstimator
    from repro.engine.cache import ResultCache
    from repro.pipeline.pipelines import run_evaluation

    cache = ResultCache(directory=cache_dir)
    picked = random.Random(seed).sample(range(len(points)), SWEEP_VERIFY)
    failed = 0
    reasons: list[str] = []
    for index in picked:
        job = points[index].job
        stored = cache.get(job)
        evaluation = run_evaluation(
            job.loop,
            job.machine,
            Model(job.model),
            job.register_budget,
            swap_estimator=SwapEstimator(job.swap_estimator),
            max_rounds=job.max_rounds,
            victim_policy=job.victim_policy,
            pressure_strategy=job.pressure_strategy,
            ii_escalation=job.ii_escalation,
        )
        proof = check_evaluation(evaluation)
        expected = (
            evaluation.ii,
            evaluation.requirement.registers,
            evaluation.spilled_values,
            evaluation.memory_ops_per_iteration,
            evaluation.spill_ops_per_iteration,
        )
        got = (
            None
            if stored is None
            else (
                stored.ii,
                stored.registers_required,
                stored.spilled_values,
                stored.memory_ops_per_iteration,
                stored.spill_ops_per_iteration,
            )
        )
        if got != expected or not proof.ok:
            failed += 1
            if len(reasons) < 3:
                reasons.append(
                    f"point {index}: stored {got} vs re-derived {expected}, "
                    f"proof ok={proof.ok}"
                )
    return len(picked), failed, reasons


def run_sweep(args: argparse.Namespace) -> dict:
    _import_program()
    from repro.api import Session, SweepRequest
    from repro.engine.cache import ResultCache
    from repro.engine.jobs import EvalResult
    from repro.engine.pool import Engine
    from repro.engine.sweep import build_points, named_sweep

    # Set-up: one build of the suite and the job grid the sweep executes.
    points = build_points(
        named_sweep("performance", n_loops=SWEEP_LOOPS, seeds=(args.seed,))
    )
    setup_s = time.perf_counter() - START
    out: dict = {"setup_s": setup_s, "points": len(points)}
    if args.setup_only:
        return out
    tracer = installation = None
    if args.trace_out:
        tracer, installation = _tracer(args)

    cold = _cold_cache(args.cache_dir)
    witness = {"ii_increases": 0, "values_spilled": 0}

    def on_result(_index: int, _job: object, result: object) -> None:
        if isinstance(result, EvalResult):
            witness["ii_increases"] += result.ii_increases
            witness["values_spilled"] += result.spilled_values

    engine = Engine(
        workers=args.workers,
        cache=ResultCache(directory=args.cache_dir),
        on_result=on_result,
    )
    request = SweepRequest(
        name="performance", n_loops=SWEEP_LOOPS, seeds=(args.seed,)
    )
    start = time.perf_counter()
    with Session(engine=engine) as session:
        response = session.sweep(request)
    wall = time.perf_counter() - start
    if installation is not None:
        from perfbench.trace import uninstall

        uninstall(installation)
    out.update(
        wall_s=wall,
        answered=response.points,
        cold=cold and response.cache_hits == 0,
        cache_hits=response.cache_hits,
        cache_misses=response.cache_misses,
        cache_stores=engine.cache.stats.stores,
        bytes_written=ResultCache(directory=args.cache_dir).total_bytes(),
        witness=witness,
    )
    checked, failed, reasons = _verify_sweep(points, args.cache_dir, args.seed)
    out.update(checked=checked, check_failed=failed, reasons=reasons)
    if tracer is not None:
        _finish_trace(args, tracer, out)
    return out


# ----------------------------------------------------------------------
# report_check
# ----------------------------------------------------------------------
def run_report(args: argparse.Namespace) -> dict:
    _import_program()
    from repro.api import ReportRequest, Session
    from repro.engine.cache import ResultCache
    from repro.engine.pool import Engine

    # Set-up is the imports: the report builds its own suite when run.
    setup_s = time.perf_counter() - START
    out: dict = {"setup_s": setup_s}
    if args.setup_only:
        return out
    tracer = installation = None
    if args.trace_out:
        tracer, installation = _tracer(args)

    cold = _cold_cache(args.cache_dir)
    # The request ``repro report --check --loops 200 --sim-seed N`` builds.
    request = ReportRequest(
        n_loops=REPORT_LOOPS, check=True, out_dir=None, sim_seed=args.seed
    )
    engine = Engine(
        workers=args.workers, cache=ResultCache(directory=args.cache_dir)
    )
    start = time.perf_counter()
    with Session(engine=engine) as session:
        response = session.report(request)
    wall = time.perf_counter() - start
    if installation is not None:
        from perfbench.trace import uninstall

        uninstall(installation)
    stats = engine.cache.stats
    out.update(
        wall_s=wall,
        cold=cold,
        cache_hits=stats.hits,
        cache_misses=stats.misses,
        cache_stores=stats.stores,
        bytes_written=ResultCache(directory=args.cache_dir).total_bytes(),
        ok=response.ok,
        failed_keys=list(response.failed_keys),
        gates_passed=response.checks_gated - len(response.failed_keys),
        static_points=response.static_points,
        static_findings=response.static_findings,
        sim_points=response.sim_points,
        sim_mismatches=response.sim_mismatches,
        summary=response.summary,
    )
    if tracer is not None:
        _finish_trace(args, tracer, out)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=("sweep", "report"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    runner = run_sweep if args.workload == "sweep" else run_report
    print(json.dumps(runner(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
