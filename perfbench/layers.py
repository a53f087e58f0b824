"""What the traced run wraps, and which end-to-end metric each layer moves.

``TARGETS`` names the public functions wrapped from outside (one span
per call).  ``PER_LAYER`` is the per-layer metric table: name, unit,
which direction is better, and the (end-to-end metric, workload) pair
the layer should move -- written down before any measurement, so a
claimed gain can be traced to the layer it came from.
"""

from __future__ import annotations

from typing import NamedTuple

from perfbench.trace import Target

TARGETS: tuple[Target, ...] = (
    Target("workloads.suite", "repro.workloads.suite", "perfect_club_like"),
    Target("kernel.chain_init", "repro.kernel.batch", "LoopChain.__init__"),
    Target("kernel.chain_evaluate", "repro.kernel.batch", "LoopChain.evaluate"),
    Target("kernel.lower", "repro.kernel.loop", "lower_loop"),
    Target("kernel.array_mii", "repro.kernel.batch", "array_mii"),
    Target("engine.fingerprint", "repro.engine.jobs", "EvalJob.key"),
    Target("engine.execute_batch", "repro.engine.jobs", "execute_batch"),
    Target("engine.cache.put", "repro.engine.cache", "ResultCache.put"),
    Target("engine.cache.get", "repro.engine.cache", "ResultCache.get"),
    Target("pipeline.run_evaluation", "repro.pipeline.pipelines", "run_evaluation"),
    Target("pipeline.artifact", "repro.pipeline.context", "ArtifactStats.record", "hit"),
    Target("sched.minimum_ii", "repro.sched.mii", "minimum_ii"),
    Target("sched.modulo_schedule", "repro.sched.modulo", "modulo_schedule"),
    Target("regalloc.lifetimes", "repro.regalloc.lifetimes", "lifetimes"),
    Target("regalloc.allocate_unified", "repro.regalloc.allocation", "allocate_unified"),
    Target("core.allocate_dual", "repro.core.dualfile", "allocate_dual"),
    Target("core.greedy_swap", "repro.core.swapping", "greedy_swap"),
    Target("spill.spill_value", "repro.spill.spiller", "spill_value"),
    Target("check.check_evaluation", "repro.check.invariants", "check_evaluation"),
    Target("validate.sampled", "repro.validate.sampling", "run_sampled_validation"),
    Target("sim.execute_kernel", "repro.sim.executor", "execute_kernel"),
    # The report runs one registry experiment: the paper suite.
    Target("experiments.suite", "repro.api.registry", "Experiment.run"),
    Target("report.expectations", "repro.report.expected", "evaluate_expectations"),
    Target("report.build_document", "repro.report.sections", "build_document"),
    Target("report.render_markdown", "repro.report.document", "render_markdown"),
    Target("report.render_html", "repro.report.document", "render_html"),
)

#: Spans whose self time is reported beside their total as ``<name>.self_s``.
SELF_TIMED = (
    "kernel.chain_evaluate",
    "engine.execute_batch",
    "pipeline.run_evaluation",
    "sched.modulo_schedule",
    "check.check_evaluation",
    "validate.sampled",
    "experiments.suite",
)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # "<end-to-end metric> on <workload>"


PER_LAYER: tuple[Metric, ...] = (
    Metric("workloads.suite_s", "s", "lower", "setup_s on sweep_paper"),
    Metric("kernel.chain_init_s", "s", "lower", "points_per_s on sweep_paper"),
    Metric("kernel.chain_evaluate_s", "s", "lower", "points_per_s on sweep_paper"),
    Metric("kernel.chain_evaluate.self_s", "s", "lower", "points_per_s on sweep_paper"),
    Metric("kernel.chain_evaluate.count", "count", "lower", "points_per_s on sweep_paper"),
    Metric("kernel.lower_s", "s", "lower", "points_per_s on sweep_paper"),
    Metric("kernel.array_mii_s", "s", "lower", "points_per_s on sweep_paper"),
    Metric("engine.fingerprint_s", "s", "lower", "points_per_s on sweep_paper"),
    Metric("engine.execute_batch_s", "s", "lower", "points_per_s on sweep_paper"),
    Metric("engine.execute_batch.self_s", "s", "lower", "points_per_s on sweep_paper"),
    Metric("engine.groups.count", "count", "lower", "points_per_s on sweep_paper"),
    Metric("engine.pool.speedup", "x", "higher", "points_per_s on sweep_paper"),
    Metric("engine.cache.put_s", "s", "lower", "points_per_s on sweep_paper"),
    Metric("engine.cache.stores", "count", "lower", "points_per_s on sweep_paper"),
    Metric("engine.cache.bytes_written", "bytes", "lower", "points_per_s on sweep_paper"),
    Metric("engine.cache.get_s", "s", "lower", "latency_p50_ms on serve_mixed"),
    Metric("engine.cache.hits", "count", "higher", "latency_p50_ms on serve_mixed"),
    Metric("engine.cache.misses", "count", "lower", "latency_p50_ms on serve_mixed"),
    Metric("pipeline.run_evaluation_s", "s", "lower", "wall_s on report_check"),
    Metric("pipeline.run_evaluation.self_s", "s", "lower", "wall_s on report_check"),
    Metric("pipeline.run_evaluation.count", "count", "lower", "wall_s on report_check"),
    Metric("pipeline.artifact_hit_ratio", "ratio", "higher", "wall_s on report_check"),
    Metric("sched.minimum_ii_s", "s", "lower", "wall_s on report_check"),
    Metric("sched.modulo_schedule_s", "s", "lower", "wall_s on report_check"),
    Metric("sched.modulo_schedule.self_s", "s", "lower", "wall_s on report_check"),
    Metric("regalloc.lifetimes_s", "s", "lower", "wall_s on report_check"),
    Metric("regalloc.allocate_unified_s", "s", "lower", "wall_s on report_check"),
    Metric("core.allocate_dual_s", "s", "lower", "wall_s on report_check"),
    Metric("core.greedy_swap_s", "s", "lower", "wall_s on report_check"),
    Metric("spill.spill_value_s", "s", "lower", "wall_s on report_check"),
    Metric("check.check_evaluation_s", "s", "lower", "wall_s on report_check"),
    Metric("check.check_evaluation.self_s", "s", "lower", "wall_s on report_check"),
    Metric("check.points_proved", "count", "higher", "wall_s on report_check"),
    Metric("check.findings", "count", "lower", "wall_s on report_check"),
    Metric("validate.sampled_s", "s", "lower", "wall_s on report_check"),
    Metric("validate.sampled.self_s", "s", "lower", "wall_s on report_check"),
    Metric("sim.execute_kernel_s", "s", "lower", "wall_s on report_check"),
    Metric("sim.executions", "count", "lower", "wall_s on report_check"),
    Metric("experiments.suite_s", "s", "lower", "wall_s on report_check"),
    Metric("experiments.suite.self_s", "s", "lower", "wall_s on report_check"),
    Metric("report.expectations_s", "s", "lower", "wall_s on report_check"),
    Metric("report.render_s", "s", "lower", "wall_s on report_check"),
    Metric("report.gates_passed", "count", "higher", "wall_s on report_check"),
    Metric("api.session.evaluate_ms", "ms", "lower", "latency_p50_ms on serve_mixed"),
    Metric("api.client.connect_ms", "ms", "lower", "latency_p50_ms on serve_mixed"),
    Metric("api.client.ttfb_ms", "ms", "lower", "latency_p50_ms on serve_mixed"),
    Metric("api.client.body_ms", "ms", "lower", "latency_p50_ms on serve_mixed"),
    Metric("api.client.queue_wait_ms", "ms", "lower", "latency_p99_ms on serve_mixed"),
    Metric("api.serve.overhead_ms", "ms", "lower", "latency_p50_ms on serve_mixed"),
    Metric("api.serve.cached_share", "ratio", "higher", "max_rate_ok_rps on serve_mixed"),
    Metric("api.serve.throttled", "count", "lower", "max_rate_ok_rps on serve_mixed"),
    Metric("api.serve.generator_lag_ms", "ms", "lower", "max_rate_ok_rps on serve_mixed"),
    Metric("sched.ii_increases", "count", "lower", "witness: constant across commits"),
    Metric("spill.values_spilled", "count", "lower", "witness: constant across commits"),
    Metric("trace.overhead_pct", "%", "lower", "traced minus untraced headline time"),
)


def span_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """The span-derived per-layer values of one traced run."""

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def count(name: str) -> float:
        return totals.get(name, {}).get("count", 0)

    # Per-call render spans are folded into report.render_s below; the
    # rest map one span name to one ``<name>_s`` metric.
    out = {f"{t.name}_s": total(t.name) for t in TARGETS if t.kind == "span"}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = totals.get(name, {}).get("self_s", 0.0)
    out["report.render_s"] = (
        total("report.build_document")
        + total("report.render_markdown")
        + total("report.render_html")
    )
    out["kernel.chain_evaluate.count"] = count("kernel.chain_evaluate")
    out["engine.groups.count"] = count("engine.execute_batch")
    out["pipeline.run_evaluation.count"] = count("pipeline.run_evaluation")
    out["sim.executions"] = count("sim.execute_kernel")
    out["check.points_proved"] = count("check.check_evaluation")
    return out
