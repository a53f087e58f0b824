"""Open-loop timing: latency runs from the due time, not the send time."""

from __future__ import annotations

import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import loadgen

inf = float("inf")

DELAY_S = 0.05


class _SlowHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(DELAY_S)
        body = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: object) -> None:
        pass


@pytest.fixture()
def slow_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_queued_requests_are_timed_from_their_due_time(slow_server: int) -> None:
    # Three requests due at once on one connection: the second waits for
    # the first reply, the third for both.  A closed-loop clock would
    # report ~DELAY_S for each; the open loop charges the waits.
    outcomes = loadgen.run_open_loop(
        "127.0.0.1", slow_server, "/", [{}, {}, {}], [0.0, 0.0, 0.0],
        connections=1,
    )
    assert [o.status for o in outcomes] == [200, 200, 200]
    waits = [o.queue_wait for o in outcomes]
    lats = [o.latency for o in outcomes]
    for k in range(3):
        assert lats[k] >= (k + 1) * DELAY_S
        assert waits[k] >= k * DELAY_S - 0.005
        assert lats[k] - waits[k] == pytest.approx(
            outcomes[k].done - outcomes[k].sent
        )
    # The dispatcher itself kept to the schedule.
    assert max(o.lag for o in outcomes) < DELAY_S


def test_spread_schedule_has_no_queueing(slow_server: int) -> None:
    outcomes = loadgen.run_open_loop(
        "127.0.0.1", slow_server, "/", [{}, {}], [0.0, 3 * DELAY_S],
        connections=1,
    )
    assert outcomes[1].queue_wait < DELAY_S
    assert loadgen.backlog_at_end(outcomes) == 0


def test_poisson_dues_are_seeded_sorted_and_bounded() -> None:
    a = loadgen.poisson_dues(random.Random(7), 50, 5.0)
    b = loadgen.poisson_dues(random.Random(7), 50, 5.0)
    assert a == b == sorted(a)
    assert len(a) == 50 and 0.0 <= a[0] and a[-1] < 5.0
    assert a != loadgen.poisson_dues(random.Random(8), 50, 5.0)


def test_backlog_counts_requests_unsent_at_the_last_due_time() -> None:
    outcomes = [
        loadgen.Outcome(index=i, due=due, sent=sent)
        for i, (due, sent) in enumerate(
            [(0.0, 0.0), (1.0, 2.5), (1.5, 2.7), (2.0, 3.0)]
        )
    ]
    # The last request itself is never backlog; the two before it are.
    assert loadgen.backlog_at_end(outcomes) == 2


def _phase(rate: float, latency_ms: float, failed: int = 0):
    from perfbench.serve_mixed import Phase

    outcomes = [
        loadgen.Outcome(index=i, due=0.0, sent=0.0, done=latency_ms / 1000.0,
                        status=200 if i >= failed else 0)
        for i in range(100)
    ]
    return Phase(rate=rate, bodies=[], outcomes=outcomes)


def test_max_rate_solves_the_fitted_tail_for_the_limit() -> None:
    from perfbench.serve_mixed import LATENCY_LIMIT_MS, max_rate_ok

    ref = _phase(10, 50)
    # Tails doubling every 10 req/s cross the limit halfway in log space.
    low, high = LATENCY_LIMIT_MS / 2 ** 0.5, LATENCY_LIMIT_MS * 2 ** 0.5
    assert max_rate_ok([ref, _phase(20, low), _phase(30, high)], inf) == pytest.approx(25)
    # One disturbed rung above the crossing does not tilt the median
    # pairwise slope, whether its tail came out high or low.
    clean = [_phase(20, low), _phase(30, high), _phase(40, high * 2)]
    for last in (high * 4, high * 16, high):
        assert max_rate_ok([ref, *clean, _phase(50, last)], inf) == pytest.approx(25)
    # Every rung within the limit: the top rung, never an extrapolation.
    assert max_rate_ok([ref, _phase(20, 10), _phase(30, 20)], inf) == 30
    # A fit that does not rise: the highest phase within the limit.
    assert max_rate_ok([ref, _phase(20, 300), _phase(30, 120), _phase(40, 250)], inf) == 30
    # A rung with a failure is left out and caps the answer at its rate.
    capped = [ref, _phase(20, low), _phase(25, 10, failed=1), _phase(30, high)]
    assert max_rate_ok(capped, inf) == 20
    assert max_rate_ok([_phase(20, 10, failed=1)], inf) == 0.0
    # The crossing may lie past the last rung within the limit, up to the
    # rung that fell behind: the answer is not clamped to a tested rate.
    rising = [_phase(20, LATENCY_LIMIT_MS / 4), _phase(30, LATENCY_LIMIT_MS / 2)]
    assert max_rate_ok([ref, *rising, _phase(60, 10, failed=1)], inf) == pytest.approx(40)
    assert max_rate_ok([ref, *rising, _phase(35, 10, failed=1)], inf) == 35
    # The burst's throughput caps it as well: a short rung past capacity
    # can pass the limit before its backlog shows.
    assert max_rate_ok([ref, *rising, _phase(60, 10, failed=1)], 33.5) == 33.5
    assert max_rate_ok([ref, _phase(20, 10), _phase(30, 20)], 25.0) == 25


def test_ladder_climbs_until_the_server_falls_behind() -> None:
    from perfbench.serve_mixed import (
        LADDER_START_RPS, LATENCY_LIMIT_MS, MAX_RUNGS, ladder_done, ladder_rates,
    )

    rates = ladder_rates()
    assert len(rates) == MAX_RUNGS and rates[0] == LADDER_START_RPS
    assert rates == sorted(rates) and rates[-1] > 20 * rates[0]
    within, over = LATENCY_LIMIT_MS / 2, LATENCY_LIMIT_MS * 2
    assert not ladder_done([_phase(24, within), _phase(30, within)], inf)
    # One rung over the limit: climb once more so the fit straddles it.
    assert not ladder_done([_phase(24, within), _phase(30, over)], inf)
    assert ladder_done([_phase(24, within), _phase(30, over), _phase(37, over)], inf)
    # A failure or a growing backlog ends the ladder at once.
    assert ladder_done([_phase(24, within), _phase(30, within, failed=1)], inf)
    # So does a rung offered at or past the burst's throughput.
    assert ladder_done([_phase(24, within), _phase(30, within)], 29.0)
    backlogged = _phase(30, within)
    for o in backlogged.outcomes:
        o.due, o.sent = o.index / 100.0, 5.0
    assert ladder_done([_phase(24, within), backlogged], inf)
