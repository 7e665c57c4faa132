"""Open-loop load generation against a ``ServingRuntime``.

One generator thread sends requests on a seeded Poisson schedule,
whatever the state of the system, so a stall makes the queue grow
instead of slowing the sender.  Each request is timed from when it was
due, not from when it was sent, and the generator records how late it
sent each request.  Each level runs on a fresh runtime (default
``RuntimeConfig``) over the same service, so the adaptive batch size
one level ends with cannot carry over into the next.  A second thread
may issue snapshot refreshes at a fixed cadence while the requests run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve import OverloadError, ServingRuntime

from pipeline import K
from spans import pct

#: p99 latency limit (ms): the runtime's default ``slo_ms``.
SLO_MS = 50.0
#: How long a finished level may take to drain before it counts as stuck.
DRAIN_TIMEOUT_S = 30.0
#: Requests per window of the windowed p99 (>= 10 samples beyond p99).
P99_WINDOW = 1000
#: A ladder rung lasts long enough to send at least this many requests.
MIN_RUNG_REQUESTS = 500


def user_sampler(num_users: int, rng):
    """``draw(n)`` of uniformly drawn user ids."""
    return lambda n: rng.integers(0, num_users, size=n)


@dataclass
class Level:
    """Outcome of one fixed-rate open-loop level."""

    name: str
    rate: float
    sent: int = 0
    succeeded: int = 0
    shed: int = 0
    errors: int = 0
    latencies_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    late_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    queue_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    service_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    backlog: int = 0
    responses: list = field(default_factory=list)
    refresh_ms: list = field(default_factory=list)
    #: the level's runtime counters (``RuntimeStats`` fields)
    stats: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.shed + self.errors

    @property
    def p50(self) -> float:
        return pct(self.latencies_ms, 50)

    @property
    def p99(self) -> float:
        """Median over consecutive windows of ``P99_WINDOW`` requests of
        each window's p99 (the whole level's p99 if it is shorter).

        One scheduler stall delays the requests behind it together;
        taking the median over windows keeps a single stall from
        setting the figure of the whole level, while a stall that
        recurs still shows in every window.
        """
        lat = self.latencies_ms
        windows = len(lat) // P99_WINDOW
        if windows < 2:
            return pct(lat, 99)
        return float(np.median([
            pct(chunk, 99) for chunk in np.array_split(lat, windows)]))

    def meets_limit(self, max_backlog: int) -> bool:
        """p99 within the limit, nothing shed or failed, queue drained."""
        return (self.failed == 0 and self.succeeded > 0
                and self.p99 <= SLO_MS and self.backlog <= max_backlog)


RUNTIME_FIELDS = ("completed", "batches", "refreshes", "refresh_s",
                  "deadline_expired", "rejected")


def run_level(service, name: str, rate: float, duration_s: float,
              draw_users, rng, *, keep_every: int = 0,
              refresher=None) -> Level:
    """Send Poisson(``rate``) requests for ``duration_s`` seconds.

    ``keep_every`` > 0 keeps every n-th response for the output checks.
    ``refresher(runtime)`` runs on a second thread and returns the
    refresh durations it measured; the level then also lasts until the
    refresher has finished.
    """
    runtime = ServingRuntime(service).start()
    try:
        level = _drive(runtime, name, rate, duration_s, draw_users, rng,
                       keep_every, refresher)
    finally:
        runtime.stop()
    level.stats = {f: getattr(runtime.stats, f) for f in RUNTIME_FIELDS}
    return level


def _drive(runtime, name, rate, duration_s, draw_users, rng, keep_every,
           refresher) -> Level:
    level = Level(name, rate)
    handles, late = [], []
    refresh_out: list = []
    thread = None
    if refresher is not None:
        thread = threading.Thread(
            target=lambda: refresh_out.extend(refresher(runtime)),
            name="bench-refresher")
    clock, sleep = time.perf_counter, time.sleep
    t0 = clock() + 0.005
    end = t0 + duration_s
    if thread is not None:
        thread.start()
    due = t0
    block = 256
    while True:
        gaps = np.cumsum(rng.exponential(1.0 / rate, size=block))
        users = draw_users(block).tolist()
        for i in range(block):
            due_i = due + gaps[i]
            if due_i >= end and (thread is None or not thread.is_alive()):
                break
            now = clock()
            while now < due_i:
                sleep(min(due_i - now, 0.002))
                now = clock()
            late.append(now - due_i)
            try:
                handles.append((due_i, runtime.submit(users[i], k=K)))
            except OverloadError:
                level.shed += 1
        else:
            due += gaps[-1]
            continue
        break
    level.backlog = runtime.pending
    if thread is not None:
        thread.join()
    level.refresh_ms = refresh_out
    level.sent = len(late)
    lat, queue, service = [], [], []
    for i, (due_i, handle) in enumerate(handles):
        try:
            rec = handle.result(timeout=DRAIN_TIMEOUT_S)
        except Exception:  # noqa: BLE001 - any failed request counts
            level.errors += 1
            continue
        level.succeeded += 1
        lat.append(1e3 * (handle.finished_at - due_i))
        queue.append(handle.queue_ms)
        service.append(handle.service_ms)
        if keep_every and i % keep_every == 0:
            level.responses.append(rec)
    level.latencies_ms = np.asarray(lat)
    level.queue_ms = np.asarray(queue)
    level.service_ms = np.asarray(service)
    level.late_ms = 1e3 * np.asarray(late)
    return level


def merge(levels: list[Level]) -> Level:
    """One level out of segments run at the same rate, in time order."""
    out = Level(levels[0].name, levels[0].rate)
    for field_name in ("sent", "succeeded", "shed", "errors", "backlog"):
        setattr(out, field_name,
                sum(getattr(level, field_name) for level in levels))
    for field_name in ("latencies_ms", "late_ms", "queue_ms", "service_ms"):
        setattr(out, field_name, np.concatenate(
            [getattr(level, field_name) for level in levels]))
    for level in levels:
        out.responses.extend(level.responses)
        out.refresh_ms.extend(level.refresh_ms)
    out.stats = {f: sum(level.stats[f] for level in levels)
                 for f in RUNTIME_FIELDS}
    return out


def goodput(service, rates, duration_s: float, draw_users, rng,
            max_backlog: int) -> tuple[float, list[Level]]:
    """Highest sustainable rate on a fixed ladder of ``rates``.

    Climbs the ladder until a rung misses the limit.  The result is
    interpolated on p99 between the last rung that met the limit and
    the first that did not, so it moves smoothly rather than in rung
    steps; with every rung met it is the top rung's rate.
    """
    levels: list[Level] = []
    passed = None
    for rate in rates:
        level = run_level(service, f"ladder@{rate:.0f}", rate,
                          max(duration_s, MIN_RUNG_REQUESTS / rate),
                          draw_users, rng)
        levels.append(level)
        if not level.meets_limit(max_backlog):
            if passed is None:
                return 0.0, levels
            over = level.p99 if level.failed == 0 else float("inf")
            span = over - passed.p99
            frac = (SLO_MS - passed.p99) / span if span > 0 else 0.0
            frac = min(max(frac, 0.0), 1.0)
            return passed.rate + frac * (rate - passed.rate), levels
        passed = level
    return passed.rate, levels
