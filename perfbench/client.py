"""The load-generating client: closed and open loops over ``Server.submit``.

The client keeps no futures.  Each future the server creates is a
:class:`StampedResponse` that writes its outcome into a slot of a flat
:class:`Window` when it resolves, so the benchmark adds no objects for the
garbage collector to scan while the window runs, and the completion time is
taken when the future resolves rather than when the client gets round to
looking at it.
"""

from __future__ import annotations

import resource
import time
from typing import Optional

import numpy as np

from repro.serve import QueueFullError, Response, Server

import traffic

PENDING, SERVED, FAILED, REFUSED = 0, 1, 2, 3
SCRAPE_INTERVAL = 0.1
# Open-loop arrivals served, unmeasured, between the warm-up and the window.
SETTLE_S = 0.5
RESULT_TIMEOUT = 60.0
# Slots preallocated per second of closed-loop window; far above any rate
# this server reaches.  Untouched slots cost no memory.
MAX_CLOSED_RATE = 50_000


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Window:
    """Per-request outcomes of one window, indexed by submission order."""

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.count = 0
        self.state = np.zeros(capacity, dtype=np.int8)
        self.key = np.zeros(capacity, dtype=np.int64)
        self.label = np.zeros(capacity, dtype=np.int64)
        self.due = np.zeros(capacity)
        self.sent = np.zeros(capacity)
        self.done = np.zeros(capacity)
        self.prediction = np.zeros(capacity, dtype=np.int64)
        self.exit = np.zeros(capacity, dtype=np.int64)
        self.edp = np.zeros(capacity)
        self.queue_wait = np.zeros(capacity)  # start_time - arrival_time
        self.start = self.end = 0.0
        self.cpu_self = self.cpu_children = 0.0  # process; live replica processes

    def view(self, name: str) -> np.ndarray:
        return getattr(self, name)[: self.count]

    def counts(self, state: int) -> int:
        return int(np.count_nonzero(self.view("state") == state))

    @property
    def completed(self) -> int:
        return self.counts(SERVED)

    def submit(self, server: Server, inputs, label: int, key: int, due: float,
               block: bool) -> None:
        slot = self.count
        if slot >= self.capacity:
            raise RuntimeError("window capacity exhausted")
        self.key[slot], self.label[slot], self.due[slot] = key, label, due
        StampedResponse.target = (self, slot)
        self.count += 1
        self.sent[slot] = time.monotonic()
        try:
            server.submit(inputs, label, block=block,
                          timeout=RESULT_TIMEOUT if block else None)
        except QueueFullError:
            self.done[slot] = np.nan
            self.state[slot] = REFUSED

    def collect(self, poll: float = 0.002) -> None:
        """Wait until every submitted request resolved; stamp the window end."""
        deadline = time.monotonic() + RESULT_TIMEOUT
        while np.any(self.view("state") == PENDING):
            if time.monotonic() > deadline:
                raise TimeoutError("requests did not resolve within the timeout")
            time.sleep(poll)
        resolved = self.view("state") <= FAILED
        self.end = float(self.view("done")[resolved].max()) if resolved.any() else time.monotonic()


class StampedResponse(Response):
    """A future that writes its outcome into its window slot.

    ``Server.submit`` constructs exactly one future per call, on the calling
    thread, right after :meth:`Window.submit` set :attr:`target`.
    """

    target = None

    def __init__(self):
        super().__init__()
        self._window, self._slot = StampedResponse.target

    def set_result(self, result) -> None:
        window, slot = self._window, self._slot
        window.done[slot] = time.monotonic()
        window.prediction[slot] = result.prediction
        window.exit[slot] = result.exit_timestep
        window.edp[slot] = np.nan if result.edp is None else result.edp
        window.queue_wait[slot] = result.start_time - result.arrival_time
        window.state[slot] = SERVED
        super().set_result(result)

    def set_exception(self, exception: BaseException) -> None:
        window, slot = self._window, self._slot
        window.done[slot] = time.monotonic()
        window.state[slot] = FAILED
        super().set_exception(exception)


def serve_closed(server: Server, source, count: Optional[int] = None,
                 seconds: Optional[float] = None) -> Window:
    """One client blocking on backpressure, for ``count`` requests or
    ``seconds`` of submissions.  A request is due when the client is ready
    to send it."""
    window = Window(count if count is not None else int(MAX_CLOSED_RATE * seconds) + 1)
    cpu = cpu_seconds()
    window.start = time.monotonic()
    stop = None if seconds is None else window.start + seconds
    while window.count < window.capacity:
        now = time.monotonic()
        if stop is not None and now >= stop:
            break
        inputs, label, key = source.next()
        window.submit(server, inputs, label, key, now, block=True)
    window.collect()
    window.cpu_self = cpu_seconds() - cpu
    return window


def serve_open(server: Server, source, rate: float, seconds: float, seed: int,
               part: int) -> Window:
    """Seeded Poisson arrivals at ``rate``; a refused request is not retried.

    The schedule runs for SETTLE_S before the measured ``seconds`` begin, so
    the switch from the closed-loop warm-up is not measured.  The same
    thread also reads ``Server.stats()`` every SCRAPE_INTERVAL, so a slow
    scrape delays the arrivals behind it, and the due-time latency charges
    that delay to them.
    """
    offsets = traffic.poisson_offsets(seed, rate, SETTLE_S + seconds, part)
    settle = offsets[offsets < SETTLE_S]
    offsets = offsets[settle.size:]
    window = Window(len(offsets))
    warmup = Window(len(settle))
    origin = time.monotonic()
    next_scrape = origin + SCRAPE_INTERVAL
    cpu = None
    for index, offset in enumerate(np.concatenate([settle, offsets])):
        due = origin + offset
        while True:
            now = time.monotonic()
            if now >= next_scrape:
                server.stats()
                next_scrape += SCRAPE_INTERVAL
                continue
            if now >= due:
                break
            time.sleep(min(due, next_scrape) - now)
        if index == settle.size:
            cpu = cpu_seconds()
            window.start = origin + SETTLE_S
        target = warmup if index < settle.size else window
        inputs, label, key = source.next()
        target.submit(server, inputs, label, key, due, block=False)
    window.collect()
    warmup.collect()
    window.cpu_self = cpu_seconds() - cpu
    return window
