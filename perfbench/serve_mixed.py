"""``serve_mixed``: ``repro serve --workers 2`` under open-loop traffic.

Each phase offers a fresh mix: the grid points (Ideal plus 3 models x
budgets 32/64 on the paper machine at latency 6) of its own slice of
loops from one small suite seeded by the run seed, every point twice,
shuffled by the seed -- so about half the requests are cache reads
beside compute-and-write misses, and no phase can hit on an earlier
phase's points.  Three kinds of phase run, in this order:

- the reference phase, Poisson arrivals at a fixed rate well below the
  seed commit's capacity (the latency metrics);
- the burst, every request due at once, so the server runs flat out on
  a fixed amount of work (``wall_s`` and ``points_per_s``);
- the ladder, Poisson phases at geometrically rising rates until the
  server falls behind (``max_rate_ok_rps``).
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from perfbench import loadgen, procs, stats
from perfbench.layers import TARGETS, span_metrics
from perfbench.trace import Tracer, install, uninstall

#: Offered rate of the reference phase, requests/second.
REFERENCE_RPS = 12.0
#: Requests of the burst phase, all due at its start.
BURST_REQUESTS = 200
#: Rate of the ladder's first rung, requests/second; each next rung
#: offers :data:`LADDER_GROWTH` times the rate of the one before.
LADDER_START_RPS = 24.0
LADDER_GROWTH = 1.25
#: The ladder stops after this many rungs (the last offers ~680 req/s),
#: or earlier: at a rung with a failure or a growing backlog, or at the
#: :data:`OVER_LIMIT_RUNGS`-th rung whose tail passes the limit.
MAX_RUNGS = 16
OVER_LIMIT_RUNGS = 2
#: Requests offered per ladder rate.
RUNG_REQUESTS = 100
#: A phase meets the limit when its qualifying tail latency is within it.
LATENCY_LIMIT_MS = 200.0
#: Share of the run's seconds spent in the reference phase.
REFERENCE_SHARE = 0.6
SERVE_SHARDS = 2
#: Keep-alive connections of the generator (at most one per core).
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
SETUP_REPEATS = 3

MODELS = ("unified", "partitioned", "swapped")
BUDGETS = (32, 64)


POINTS_PER_LOOP = 1 + len(MODELS) * len(BUDGETS)


def loops_for(requests: int) -> int:
    return math.ceil(math.ceil(requests / 2) / POINTS_PER_LOOP)


def phase_bodies(
    seed: int, phase: int, requests: int, first_loop: int, n_loops: int
) -> list[dict]:
    """``requests`` bodies (rounded up to even): each point twice, shuffled.

    Every phase of a run draws from one seeded suite of ``n_loops``
    loops, each phase from its own slice starting at ``first_loop``, so
    no phase hits on another's points and the server builds one suite.
    """
    machine = {"kind": "paper", "latency": 6}
    grid: list[dict] = []
    for index in range(first_loop, first_loop + loops_for(requests)):
        loop = {"kind": "suite", "n_loops": n_loops, "index": index, "seed": seed}
        grid.append(
            {"loop": loop, "machine": machine, "model": "ideal",
             "register_budget": None}
        )
        for budget in BUDGETS:
            for model in MODELS:
                grid.append(
                    {"loop": loop, "machine": machine, "model": model,
                     "register_budget": budget}
                )
    grid = grid[: math.ceil(requests / 2)]
    bodies = grid + grid
    random.Random(seed * 1000 + phase).shuffle(bodies)
    return bodies


@dataclass
class Phase:
    rate: float
    bodies: list[dict]
    outcomes: list[loadgen.Outcome]

    @property
    def ok_outcomes(self) -> list[loadgen.Outcome]:
        return [o for o in self.outcomes if o.status == 200]

    @property
    def failed(self) -> int:
        return len(self.outcomes) - len(self.ok_outcomes)

    def latencies_ms(self) -> list[float]:
        return [o.latency * 1000.0 for o in self.ok_outcomes]

    def tail_ms(self) -> float:
        """Qualifying tail latency; infinite with any failure or a backlog
        still growing when the schedule ended.

        Latency counts from the due time, so queueing shows in the tail
        well before the backlog check (a quarter of the phase unsent when
        its last request fell due) fires.
        """
        backlog = loadgen.backlog_at_end(self.outcomes)
        if self.failed or backlog > len(self.outcomes) // 4:
            return math.inf
        return stats.tail(self.latencies_ms())[1]


def ladder_rates() -> list[float]:
    return [LADDER_START_RPS * LADDER_GROWTH**k for k in range(MAX_RUNGS)]


def ladder_done(rungs: list[Phase], capacity: float) -> bool:
    """True once the ladder has passed the server's limit: the last rung
    failed or fell behind, or offered at least ``capacity`` (the burst's
    throughput, past which every backlog grows), or
    :data:`OVER_LIMIT_RUNGS` rungs had their tail over the limit (so the
    fit has points on both sides of it)."""
    last = rungs[-1]
    if not math.isfinite(last.tail_ms()) or last.rate >= capacity:
        return True
    over = sum(1 for p in rungs if p.tail_ms() > LATENCY_LIMIT_MS)
    return over >= OVER_LIMIT_RUNGS


def max_rate_ok(phases: list[Phase], capacity: float) -> float:
    """The offered rate at which the ladder's tail latency reaches the limit.

    ``phases`` is the reference phase followed by the ladder, in rising
    rate order.  The tail of one short phase is noisy, so instead of
    reading off the highest rung that happened to pass, the qualifying
    tails of the ladder phases are fitted log-linearly against the rate
    (Theil-Sen: the median pairwise slope, so one disturbed phase does
    not tilt the line) and the fit is solved for :data:`LATENCY_LIMIT_MS`.

    No rate above ``capacity``, the throughput the server sustained in
    the burst, can hold its backlog steady, so that caps the answer.  A
    rung is too short to show a backlog growing just past capacity; a
    rung with failures or with a backlog that did show is left out and
    caps the answer at its rate too.  The answer stays between the
    reference rate (when the reference phase meets the limit) and the
    lowest cap, or the highest rung when nothing capped it; a fit that
    does not rise with the rate falls back to the highest phase within
    the limit.
    """
    unusable = [p.rate for p in phases if not math.isfinite(p.tail_ms())]
    cap = min(unusable, default=math.inf)
    usable = [p for p in phases if p.rate < cap and math.isfinite(p.tail_ms())]
    passing = [p.rate for p in usable if p.tail_ms() <= LATENCY_LIMIT_MS]
    if not passing:
        return 0.0
    reference, ladder = usable[0], usable[1:]
    floor = reference.rate if reference.tail_ms() <= LATENCY_LIMIT_MS else 0.0
    top = min(cap, capacity)
    if not math.isfinite(top):
        top = max(p.rate for p in usable)
    points = [(p.rate, math.log(p.tail_ms())) for p in ladder]
    slopes = sorted(
        (y2 - y1) / (x2 - x1)
        for i, (x1, y1) in enumerate(points)
        for x2, y2 in points[i + 1 :]
    )
    if not slopes or statistics.median(slopes) <= 0:
        return min(top, max(passing))
    slope = statistics.median(slopes)
    intercept = statistics.median(y - slope * x for x, y in points)
    crossing = (math.log(LATENCY_LIMIT_MS) - intercept) / slope
    return max(floor, min(top, crossing))


def run_phase(url: str, rate: float, bodies: list[dict],
              dues: list[float]) -> Phase:
    split = urlsplit(url)
    outcomes = loadgen.run_open_loop(
        split.hostname, split.port, "/v1/evaluate", bodies, dues,
        connections=CONNECTIONS,
    )
    return Phase(rate=rate, bodies=bodies, outcomes=outcomes)


def _healthy(server: object, deadline: float) -> None:
    while time.monotonic() < deadline:
        try:
            status, _payload = server.request("health", timeout=2.0)
            if status == 200:
                return
        except OSError:
            pass
        time.sleep(0.01)
    raise RuntimeError("server never answered /v1/health")


def start_server(cache_dir: Path) -> tuple[object, float]:
    """A running ``repro serve --workers 2``; seconds from spawn to health."""
    from repro.api.loadtest import ServerProcess

    server = ServerProcess(workers=SERVE_SHARDS, cache_dir=str(cache_dir))
    start = time.perf_counter()
    server.__enter__()
    try:
        _healthy(server, time.monotonic() + 30.0)
    except BaseException:
        server.__exit__(None, None, None)
        raise
    return server, time.perf_counter() - start


def _expected(bodies: list[dict], cache_dir: Path,
              timings: list[float] | None = None) -> list[dict]:
    """In-process ``Session.evaluate`` answers for ``bodies``, in order."""
    from repro.api import EvaluateRequest, Session

    answers = []
    with Session(workers=0, cache_dir=cache_dir) as session:
        for body in bodies:
            request = EvaluateRequest.from_dict(body)
            start = time.perf_counter()
            response = session.evaluate(request)
            if timings is not None:
                timings.append(time.perf_counter() - start)
            answer = response.to_dict()
            answer.pop("cached", None)
            answers.append(answer)
    return answers


def _request_shutdown(server: object) -> None:
    """Ask for the graceful exit without waiting for it (the shards take
    seconds to wind down; the benchmark overlaps that with other work)."""
    try:
        server.request("shutdown", {})
    except OSError:
        pass


def _stop(server: object) -> bool:
    """Wait for a server asked to shut down; True when it exited 0."""
    try:
        server.process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        pass
    server.__exit__(None, None, None)
    return bool(server.clean_exit)


def run(seed: int, seconds: float, traced: bool) -> dict:
    """Set up, offer every phase, check every answer, shut down."""
    from repro.workloads.kernels import all_kernels

    rng = random.Random(seed)
    # Hand-written kernels come first in every suite and do not depend on
    # the seed; the mix uses the seeded synthetic loops after them.  The
    # suite has room for every rung, so it is the same however far the
    # ladder climbs.
    kernels = len(all_kernels())
    sizes = [round(REFERENCE_RPS * seconds * REFERENCE_SHARE), BURST_REQUESTS]
    sizes += [RUNG_REQUESTS] * MAX_RUNGS
    n_loops = kernels + sum(loops_for(n) for n in sizes)
    mixes, first = [], kernels
    for phase, requests in enumerate(sizes):
        mixes.append(phase_bodies(seed, phase, requests, first, n_loops))
        first += loops_for(requests)
    servers: list[object] = []
    dirs = [procs.fresh_dir("serve-cache"), procs.fresh_dir("serve-replay")]
    rungs: list[Phase] = []
    session_s: list[float] = []
    traced_s: list[float] = []
    mismatches = 0
    tracer = Tracer(run_id=f"serve_mixed-{seed}") if traced else None
    try:
        with procs.RssSampler() as rss:
            server, setup_s = start_server(dirs[0])
            servers.append(server)
            setups = [setup_s]
            reference_bodies, burst_bodies, *rung_bodies = mixes
            reference = run_phase(
                server.url, REFERENCE_RPS, reference_bodies,
                loadgen.poisson_dues(
                    rng, len(reference_bodies),
                    len(reference_bodies) / REFERENCE_RPS,
                ),
            )
            burst = run_phase(
                server.url, math.inf, burst_bodies, [0.0] * len(burst_bodies)
            )
            # The requests are all due at 0: the burst's wall is the time
            # the server takes to answer a fixed amount of work.
            burst_wall = max(o.done for o in burst.outcomes)
            capacity = len(burst.ok_outcomes) / burst_wall
            for rate, bodies in zip(ladder_rates(), rung_bodies):
                dues = loadgen.poisson_dues(rng, len(bodies), len(bodies) / rate)
                rungs.append(run_phase(server.url, rate, bodies, dues))
                if ladder_done(rungs, capacity):
                    break
        _request_shutdown(server)
        phases = [reference, burst, *rungs]

        # Correctness, outside the timed window: every 200 answer must
        # equal the in-process Session's answer for the same body.
        for phase in phases:
            expected = _expected(phase.bodies, dirs[1])
            for outcome in phase.ok_outcomes:
                got = json.loads(outcome.body)["result"]
                got.pop("cached", None)
                if got != expected[outcome.index]:
                    mismatches += 1
        if tracer is not None:
            # The reference phase replayed in-process on fresh caches, now
            # that imports and suite memos are warm like a serving
            # process's: once plain (the Session's own latency), once
            # traced (its layers, and what tracing costs).
            for timings, traced_replay in ((session_s, False), (traced_s, True)):
                dirs.append(procs.fresh_dir("serve-replay"))
                installation = install(tracer, TARGETS) if traced_replay else None
                try:
                    _expected(reference.bodies, dirs[-1], timings)
                finally:
                    if installation is not None:
                        uninstall(installation)

        # More set-up samples, each on a fresh cache directory.
        for _ in range(SETUP_REPEATS - 1):
            dirs.append(procs.fresh_dir("serve-setup"))
            extra, setup_s = start_server(dirs[-1])
            servers.append(extra)
            setups.append(setup_s)
            _request_shutdown(extra)
    finally:
        clean_exit = all([_stop(s) for s in servers])
        for path in dirs:
            procs.remove(path)

    attempted = sum(len(p.outcomes) for p in phases)
    failed = sum(p.failed for p in phases) + mismatches
    lat = reference.latencies_ms() or [math.nan]
    tail_q, tail_ms = stats.tail(lat)
    result = {
        "correct": failed == 0 and clean_exit,
        "attempted": attempted,
        "failed": failed,
        "setup_s": stats.median(setups),
        "wall_s": burst_wall,
        "points_per_s": capacity,
        "latency_p50_ms": stats.median(lat),
        "latency_p99_ms": tail_ms,
        "max_rate_ok_rps": max_rate_ok([reference, *rungs], capacity),
        "peak_rss_mb": rss.peak_mb,
        "detail": {
            "tail_percentile": tail_q,
            "reference_samples": len(lat),
            "mismatches": mismatches,
            "clean_exit": clean_exit,
            "burst": {"requests": len(burst.outcomes), "wall_s": burst_wall},
            "phases": [
                {
                    "rate": p.rate,
                    "requests": len(p.outcomes),
                    "failed": p.failed,
                    "p50_ms": stats.median(p.latencies_ms() or [math.nan]),
                    "tail": stats.tail(p.latencies_ms() or [math.nan]),
                    "backlog_at_end": loadgen.backlog_at_end(p.outcomes),
                    "judged_tail_ms": (
                        p.tail_ms() if math.isfinite(p.tail_ms()) else None
                    ),
                }
                for p in (reference, *rungs)
            ],
        },
    }
    if tracer is not None:
        record_requests(tracer, reference)
        layers = span_metrics(tracer.totals())
        layers.update(layer_metrics(reference, phases, session_s))
        layers["trace.overhead_pct"] = (
            100.0 * (sum(traced_s) - sum(session_s)) / sum(session_s)
        )
        result["layers"] = layers
        tracer.write(procs.WORK / "traces" / f"serve_mixed-{seed}.jsonl")
    return result


def record_requests(tracer: Tracer, phase: Phase) -> None:
    """The request ledger: each served request split into its waits.

    Built from the timestamps the generator takes on every run, so the
    traced run adds no work inside the timed window.
    """
    for o in phase.ok_outcomes:
        request = tracer.record("api.client.request", o.due, o.done)
        connect = o.connect_s or 0.0
        tracer.record("api.client.queue", o.due, o.sent - connect, request)
        if o.connect_s is not None:
            tracer.record("api.client.connect", o.sent - connect, o.sent, request)
        tracer.record("api.client.ttfb", o.sent, o.first_byte, request)
        tracer.record("api.client.body", o.first_byte, o.done, request)


def layer_metrics(reference: Phase, phases: list[Phase],
                  session_s: list[float]) -> dict:
    ok = reference.ok_outcomes
    answers = [json.loads(o.body)["result"] for o in ok]
    connects = [
        o.connect_s * 1000.0
        for p in phases for o in p.outcomes if o.connect_s is not None
    ]
    session_ms = stats.median([s * 1000.0 for s in session_s])
    return {
        "api.session.evaluate_ms": session_ms,
        "api.client.connect_ms": stats.median(connects),
        "api.client.ttfb_ms": stats.median(
            [(o.first_byte - o.sent) * 1000.0 for o in ok]
        ),
        "api.client.body_ms": stats.median(
            [(o.done - o.first_byte) * 1000.0 for o in ok]
        ),
        "api.client.queue_wait_ms": stats.median(
            [o.queue_wait * 1000.0 for o in ok]
        ),
        "api.serve.overhead_ms": stats.median(reference.latencies_ms())
        - session_ms,
        "api.serve.cached_share": sum(1 for a in answers if a.get("cached"))
        / max(1, len(answers)),
        "api.serve.throttled": sum(
            1 for p in phases for o in p.outcomes if o.status == 429
        ),
        "api.serve.generator_lag_ms": stats.tail(
            [o.lag * 1000.0 for p in phases for o in p.outcomes]
        )[1],
        "engine.cache.hits": sum(1 for a in answers if a.get("cached")),
        "engine.cache.misses": sum(1 for a in answers if not a.get("cached")),
        "sched.ii_increases": sum(a["ii_increases"] for a in answers),
        "spill.values_spilled": sum(a["spilled_values"] for a in answers),
    }
