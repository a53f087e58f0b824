"""Open-loop HTTP load: requests go out on a seeded schedule, not on replies.

One process: a dispatcher thread releases each request at its due time
into a queue, and ``connections`` keep-alive client threads send them in
order.  A slow reply therefore delays the requests queued behind it, and
that wait is counted: every latency is measured from the request's due
time, not from when it was sent.  The dispatcher's own lateness (how far
behind schedule it released a request) is reported separately, so a
generator that cannot keep up is visible rather than silently lowering
the offered rate.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import threading
import time
from dataclasses import dataclass

#: Seconds between starting the threads and the first due time.
LEAD_S = 0.05
#: Socket timeout of every request, seconds.
TIMEOUT_S = 30.0


def poisson_dues(rng: random.Random, n: int, duration: float) -> list[float]:
    """Arrival offsets of a Poisson process with exactly ``n`` arrivals in
    ``[0, duration)``: sorted uniform draws.  Conditioning on the count
    keeps every run's schedule the same length and mean rate."""
    return sorted(rng.uniform(0.0, duration) for _ in range(n))


@dataclass
class Outcome:
    """One request; times are seconds after the schedule's zero."""

    index: int
    due: float
    released: float = 0.0  # dispatcher put it in the send queue
    sent: float = 0.0  # a connection started writing it
    first_byte: float = 0.0  # status line and headers read
    done: float = 0.0  # body read
    connect_s: float | None = None  # a new connection was opened first
    status: int = 0  # 0: transport error
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def queue_wait(self) -> float:
        return self.sent - self.due

    @property
    def lag(self) -> float:
        return self.released - self.due


def run_open_loop(
    host: str,
    port: int,
    path: str,
    bodies: list[dict],
    dues: list[float],
    connections: int,
) -> list[Outcome]:
    """Send ``bodies[i]`` at ``dues[i]``; every outcome, in schedule order.

    A transport error or any non-200 status is recorded, not retried: an
    open loop does not re-offer load the system refused.
    """
    if len(bodies) != len(dues):
        raise ValueError("one due time per body")
    outcomes = [Outcome(index=i, due=due) for i, due in enumerate(dues)]
    payloads = [json.dumps(body).encode("utf-8") for body in bodies]
    ready: queue.SimpleQueue = queue.SimpleQueue()
    zero = time.perf_counter() + LEAD_S

    def dispatch() -> None:
        for outcome in outcomes:
            wait = zero + outcome.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            outcome.released = time.perf_counter() - zero
            ready.put(outcome)
        for _ in range(connections):
            ready.put(None)

    def client() -> None:
        conn: http.client.HTTPConnection | None = None
        while True:
            outcome = ready.get()
            if outcome is None:
                break
            try:
                if conn is None:
                    opened = time.perf_counter()
                    conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
                    conn.connect()
                    outcome.connect_s = time.perf_counter() - opened
                outcome.sent = time.perf_counter() - zero
                conn.request(
                    "POST",
                    path,
                    body=payloads[outcome.index],
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                outcome.first_byte = time.perf_counter() - zero
                outcome.body = response.read()
                outcome.done = time.perf_counter() - zero
                outcome.status = response.status
            except (OSError, http.client.HTTPException) as exc:
                outcome.done = time.perf_counter() - zero
                outcome.error = repr(exc)
                if conn is not None:
                    conn.close()
                conn = None
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=dispatch, name="loadgen-dispatch")]
    threads += [
        threading.Thread(target=client, name=f"loadgen-conn-{i}")
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def backlog_at_end(outcomes: list[Outcome]) -> int:
    """Requests due before the last due time but not yet sent at it."""
    last = max(o.due for o in outcomes)
    return sum(1 for o in outcomes if o.due < last and o.sent > last)
