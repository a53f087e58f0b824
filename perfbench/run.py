"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_paper --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is the separate traced run that prints the per-layer
metrics (and writes its spans under ``.perfbench/traces/``).  Every
metric is printed as ``name = value unit``; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
program is run from ``src/`` of the checkout the script sits in; with
no ``src/repro`` there the script exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import procs, stats  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402

#: End-to-end metrics: name -> unit.  Every workload reports each one;
#: ``perfbench/README.md`` defines them per workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "latency_p99_ms": "ms",
    "max_rate_ok_rps": "1/s",
    "peak_rss_mb": "MB",
}
#: Printed beside them but given no bound: the served median is mostly
#: timer and thread wake-ups, and on a 2-vCPU VM its spread over ten
#: seeds ranged from 0.14 to 0.44 as the host's load moved.
UNBOUNDED = {"latency_p50_ms": "ms"}

#: Set-up samples per run: each repetition gives one, set-up-only
#: children make up the rest.
SETUP_SAMPLES = 3
#: Nominal seconds of one cold sweep and of one cold report, each with
#: its set-up and output check, on a 2-vCPU VM.  They fix how many
#: repetitions ``--seconds`` buys (four sweeps, one report at 30 s), so
#: the count, and with it the inputs, never depends on how fast the
#: program under test is.
SWEEP_REP_S = 7.5
REPORT_REP_S = 25.0


def repetitions(seconds: float, nominal: float) -> int:
    """Repetitions that fill ``seconds`` at ``nominal`` seconds each."""
    return max(1, round(seconds / nominal))


def _child(args: list[str]) -> dict:
    cache_dir = procs.fresh_dir("cache")
    try:
        return procs.run_child([*args, "--cache-dir", str(cache_dir)], cache_dir)
    finally:
        procs.remove(cache_dir)


def _setups(kind: str, seed: int, reps: list[dict]) -> list[float]:
    """Every repetition's set-up time, topped up to :data:`SETUP_SAMPLES`."""
    extra = [
        _child([kind, "--seed", str(seed), "--setup-only"])
        for _ in range(SETUP_SAMPLES - len(reps))
    ]
    return [r["setup_s"] for r in reps + extra]


def _trace_file(workload: str, seed: int, name: str) -> Path:
    return procs.WORK / "traces" / f"{workload}-{seed}-{name}.jsonl"


def _traced_child(workload: str, seed: int, name: str, args: list[str]) -> dict:
    """A child run with wrappers installed, writing its spans when done."""
    return _child([*args, "--trace-out", str(_trace_file(workload, seed, name))])


# ----------------------------------------------------------------------
# sweep_paper
# ----------------------------------------------------------------------
def _suite_seed(seed: int, rep: int) -> int:
    """Each sweep repetition sweeps its own suite, seeded from the run seed.

    One 800-loop suite's cost moves by a fifth with its heaviest loops
    (more spills, deeper spill walks); a run's figures pool its suites.
    """
    return seed * 1000 + rep


def sweep_paper(seed: int, seconds: float, traced: bool) -> dict:
    first = str(_suite_seed(seed, 0))
    with procs.RssSampler() as rss:
        if traced:
            plain = _child(["sweep", "--seed", first])
            pooled = _traced_child(
                "sweep_paper", seed, "pooled", ["sweep", "--seed", first]
            )
            serial = _traced_child(
                "sweep_paper", seed, "serial",
                ["sweep", "--seed", first, "--workers", "0"],
            )
            reps = [plain, pooled, serial]
        else:
            reps = [
                _child(["sweep", "--seed", str(_suite_seed(seed, rep))])
                for rep in range(repetitions(seconds, SWEEP_REP_S))
            ]
        setups = _setups("sweep", int(first), reps)
    attempted = sum(r["points"] + r["checked"] for r in reps)
    failed = sum(
        r["points"] - r["answered"] + r["check_failed"] for r in reps
    )
    correct = failed == 0 and all(r["cold"] for r in reps)
    walls = [r["wall_s"] for r in reps]
    wall_ms = [w * 1000.0 for w in walls]
    rate = sum(r["answered"] for r in reps) / sum(walls)
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "setup_s": stats.median(setups),
        "wall_s": sum(walls) / len(walls),
        "points_per_s": rate,
        "latency_p50_ms": stats.median(wall_ms),
        "latency_p99_ms": stats.tail(wall_ms)[1],
        "max_rate_ok_rps": rate,
        "peak_rss_mb": rss.peak_mb,
        "detail": {
            "repetitions": len(reps),
            "walls_s": walls,
            "witness": [r["witness"] for r in reps],
            "reasons": [x for r in reps for x in r["reasons"]],
        },
    }
    if traced:
        layers = dict(serial["layers"])
        layers.update(
            {
                "engine.pool.speedup": serial["wall_s"] / pooled["wall_s"],
                "engine.cache.stores": serial["cache_stores"],
                "engine.cache.bytes_written": serial["bytes_written"],
                "engine.cache.hits": serial["cache_hits"],
                "engine.cache.misses": serial["cache_misses"],
                "check.points_proved": serial["checked"] - serial["check_failed"],
                "check.findings": serial["check_failed"],
                "sched.ii_increases": serial["witness"]["ii_increases"],
                "spill.values_spilled": serial["witness"]["values_spilled"],
                "trace.overhead_pct": 100.0
                * (pooled["wall_s"] - plain["wall_s"])
                / plain["wall_s"],
            }
        )
        out["layers"] = layers
    return out


# ----------------------------------------------------------------------
# report_check
# ----------------------------------------------------------------------
def report_check(seed: int, seconds: float, traced: bool) -> dict:
    with procs.RssSampler() as rss:
        if traced:
            plain = _child(["report", "--seed", str(seed)])
            tracked = _traced_child(
                "report_check", seed, "report", ["report", "--seed", str(seed)]
            )
            reps = [plain, tracked]
        else:
            reps = [
                _child(["report", "--seed", str(seed)])
                for _ in range(repetitions(seconds, REPORT_REP_S))
            ]
        setups = _setups("report", seed, reps)
    failed = sum(
        1
        for r in reps
        if not (r["ok"] and r["static_findings"] == 0 and r["sim_mismatches"] == 0)
    )
    walls = [r["wall_s"] for r in reps]
    rate = stats.median([r["static_points"] / r["wall_s"] for r in reps])
    wall_ms = [w * 1000.0 for w in walls]
    out = {
        "correct": failed == 0 and all(r["cold"] for r in reps),
        "attempted": len(reps),
        "failed": failed,
        "setup_s": stats.median(setups),
        "wall_s": stats.median(walls),
        "points_per_s": rate,
        "latency_p50_ms": stats.median(wall_ms),
        "latency_p99_ms": stats.tail(wall_ms)[1],
        "max_rate_ok_rps": rate,
        "peak_rss_mb": rss.peak_mb,
        "detail": {
            "repetitions": len(reps),
            "walls_s": walls,
            "summary": reps[-1]["summary"],
            "failed_keys": [k for r in reps for k in r["failed_keys"]],
        },
    }
    if traced:
        layers = dict(tracked["layers"])
        counters = tracked["counters"]
        layers.update(
            {
                "pipeline.artifact_hit_ratio": counters.get(
                    "pipeline.artifact.hits", 0
                )
                / max(1, counters.get("pipeline.artifact.lookups", 0)),
                "check.points_proved": tracked["static_points"]
                if tracked["static_findings"] == 0
                else 0,
                "check.findings": tracked["static_findings"],
                "report.gates_passed": tracked["gates_passed"],
                "engine.cache.hits": tracked["cache_hits"],
                "engine.cache.misses": tracked["cache_misses"],
                "engine.cache.stores": tracked["cache_stores"],
                "engine.cache.bytes_written": tracked["bytes_written"],
                "trace.overhead_pct": 100.0
                * (tracked["wall_s"] - plain["wall_s"])
                / plain["wall_s"],
            }
        )
        out["layers"] = layers
    return out


def serve_mixed(seed: int, seconds: float, traced: bool) -> dict:
    from perfbench import serve_mixed as workload

    return workload.run(seed, seconds, traced)


WORKLOADS = {
    "sweep_paper": sweep_paper,
    "report_check": report_check,
    "serve_mixed": serve_mixed,
}


def _emit(result: dict, traced: bool) -> dict:
    if traced:
        layers = result.get("layers", {})
        metrics = {
            m.name: {"value": float(layers.get(m.name, 0.0)), "unit": m.unit}
            for m in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": float(result[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, unit in UNBOUNDED.items():
        print(f"{name} = {result[name]:.6g} {unit} (no bound)")
    error_rate = result["failed"] / max(1, result["attempted"])
    print(f"error_rate = {error_rate:.6g} ({result['failed']}/{result['attempted']})")
    print("detail: " + json.dumps(result.get("detail", {})))
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (procs.SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {procs.SRC / 'repro'}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(procs.SRC))
    os.environ.update(procs.child_env())
    tempfile.tempdir = os.environ["TMPDIR"]
    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    print(json.dumps(_emit(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
