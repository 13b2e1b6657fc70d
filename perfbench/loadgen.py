"""Open-loop HTTP load generator for the serving stage.

Requests are sent on a fixed schedule (evenly spaced at the phase's
rate), each timed from the moment it was due, so a stall also delays the
requests queued behind it.  At most ``nproc`` keep-alive connections are
used, one worker thread each; a request waits for a free connection, and
that wait is the generator's lateness.

The rate ladder is geometric (steps of at most 1.5x) from 10 req/s to
1384 req/s.  The steps up to 30 req/s always run, because the reported
latencies are taken at 10 and 30 req/s; above that the ladder stops at
the first step that fails.  The two reported steps share ``seconds``
(``REPORT_SHARE``), the others last ``STEP_SECONDS``.

A reported step runs as ``REPORT_WINDOWS`` windows of equal length, each
on fresh keep-alive connections, and its latency is the median over the
windows of each window's p50 and tail.  ``run_reported`` runs the
windows of the two reported steps in turns, in as many batches as the
caller spreads over its session, and ``run_ladder`` then runs the other
steps.  A slow spell of a shared host lasts seconds: spread out this
way, it hits a minority of either step's windows, and the median drops
them.  At 30 req/s a pause in the server can also start a delayed-ACK
stall episode (see README.md) that lasts as long as its connection
does; fresh connections confine it to one window.

The tail is the ``TAIL_Q`` quantile, which leaves more than ten samples
of each reported step beyond it.  Quantiles are Harrell-Davis
estimates, a weighted mean of the order statistics around the
quantile.  On a shared host a few requests more or fewer fall
into a slow mode from run to run; such an estimate moves smoothly with
that share, where a single order statistic jumps between the modes.  A
step fails when its tail exceeds ``LIMIT_MS``, when any request fails,
or when the generator's p95 lateness exceeds ``LIMIT_MS``.
"""

from __future__ import annotations

import http.client
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from scipy.stats import beta

# No step lies between 36 and 54 req/s: over two keep-alive connections
# the delayed-ACK stall (see README.md) sets in near 44 req/s, and a step
# right at the ceiling would pass or fail by chance.
RATES = (10.0, 15.0, 20.0, 30.0, 36.0) + tuple(54.0 * 1.5**k for k in range(9))
REPORT_RATES = (10.0, 30.0)
# Share of ``seconds`` each reported step gets: the 10 req/s step needs
# the longer time to collect as many samples.
REPORT_SHARE = {10.0: 0.6, 30.0: 0.4}
REPORT_WINDOWS = 6
TAIL_Q = 0.90
STEP_SECONDS = 1.0
LIMIT_MS = 50.0
TIMEOUT_S = 5.0
EXPLAIN_EVERY = 10
ZIPF_EXPONENT = 1.1


@dataclass
class Request:
    rid: int
    method: str
    path: str
    kind: str
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: Optional[dict] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None

    @property
    def latency_ms(self) -> float:
        """Due-to-done latency; a failed request misses any limit."""
        return 1000.0 * (self.done - self.due) if self.ok else math.inf


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: the order statistics
    weighted by a Beta((n+1)q, (n+1)(1-q)) density over their ranks."""
    ordered = np.sort(np.asarray(list(values), dtype=float))
    n = len(ordered)
    if n == 0:
        return math.inf
    edges = beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1 - q))
    return float(np.dot(np.diff(edges), ordered))


def p50_tail(values) -> tuple:
    # A failed request counts as one that timed out.
    values = [min(v, 1000.0 * TIMEOUT_S) for v in values]
    return harrell_davis(values, 0.5), harrell_davis(values, TAIL_Q)


@dataclass
class Phase:
    rate: float
    windows: List[List[Request]]
    scrape: dict = field(default_factory=dict)

    @property
    def requests(self) -> List[Request]:
        return [r for w in self.windows for r in w]

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.requests)

    def latency(self) -> tuple:
        """Median over windows of (p50, tail) latency in ms."""
        stats = [p50_tail(r.latency_ms for r in w) for w in self.windows]
        return (
            statistics.median(p50 for p50, _ in stats),
            statistics.median(tail for _, tail in stats),
        )

    def completion_rate(self) -> float:
        """Median over windows of requests completed per second."""
        rates = []
        for window in self.windows:
            done = sorted(r.done for r in window)
            rates.append((len(done) - 1) / (done[-1] - done[0]))
        return statistics.median(rates)

    @property
    def lateness_p95_ms(self) -> float:
        return harrell_davis((1000.0 * (r.sent - r.due) for r in self.requests), 0.95)

    @property
    def passed(self) -> bool:
        return (
            self.failed == 0
            and self.latency()[1] <= LIMIT_MS
            and self.lateness_p95_ms <= LIMIT_MS
        )

    def summary(self) -> str:
        p50, tail = self.latency()
        line = (
            f"rate {self.rate:8.1f} req/s  n {len(self.requests):4d}  "
            f"p50 {p50:7.1f} ms  tail {tail:7.1f} ms  "
            f"late p95 {self.lateness_p95_ms:7.1f} ms  failed {self.failed}  "
            f"{'pass' if self.passed else 'FAIL'}"
        )
        if len(self.windows) > 1:
            tails = (p50_tail(r.latency_ms for r in w)[1] for w in self.windows)
            line += "  window tails " + " ".join(f"{t:.1f}" for t in tails)
        return line


class UserStream:
    """The request mix of one serve workload.

    ``hot``: Zipf-distributed users, one ``/explain`` in every
    ``EXPLAIN_EVERY`` ladder requests, and a ``POST /reload`` in each
    warm-up, at ``reload_at``.  The reload clears the cache under
    concurrent reads; the rest of the warm-up refills it, so the cache
    clear cannot move the hit/miss mix of a reported step.  ``cold``: a
    shuffled cycle over every user, so with more users than cache
    entries no lookup ever hits.
    """

    def __init__(self, workload: str, num_users: int, num_items: int, seed: int):
        self.workload = workload
        self.num_users = num_users
        self.num_items = num_items
        self.rng = np.random.default_rng(seed)
        self.order = self.rng.permutation(num_users)
        self.count = 0

    def _user(self) -> int:
        if self.workload == "cold":
            return int(self.order[self.count % self.num_users])
        rank = self.num_users
        while rank >= self.num_users:
            rank = int(self.rng.zipf(ZIPF_EXPONENT)) - 1
        return int(self.order[rank])

    def warm_up(self, n: int, reload_at: int) -> List[Request]:
        requests = [self._recommend() for _ in range(n)]
        if self.workload == "hot":
            requests.insert(reload_at, self._next("POST", "/reload", "reload"))
        return requests

    def phase(self, n: int) -> List[Request]:
        requests = []
        for _ in range(n):
            if self.workload == "hot" and self.count % EXPLAIN_EVERY == EXPLAIN_EVERY - 1:
                item = int(self.rng.integers(self.num_items))
                requests.append(self._next("GET", f"/explain?item={item}", "explain"))
            else:
                requests.append(self._recommend())
        return requests

    def _recommend(self) -> Request:
        return self._next("GET", f"/recommend?user={self._user()}", "recommend")

    def _next(self, method: str, path: str, kind: str) -> Request:
        self.count += 1
        return Request(self.count, method, path, kind)


def _send(conn: http.client.HTTPConnection, req: Request, validate, headers=()) -> None:
    req.sent = time.perf_counter()
    try:
        conn.request(
            req.method, req.path, headers={"X-Request-Id": str(req.rid), **dict(headers)}
        )
        resp = conn.getresponse()
        raw = resp.read()
        req.done = time.perf_counter()
        req.status = resp.status
        req.body = json.loads(raw)
        if req.status == 200:
            req.error = validate(req)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        req.done = time.perf_counter()
        req.error = f"{type(exc).__name__}: {exc}"
        conn.close()  # reconnects on the next request


def run_window(port: int, nconn: int, rate: float, requests: List[Request],
               validate) -> List[Request]:
    """Send ``requests`` evenly spaced at ``rate`` over ``nconn`` fresh
    keep-alive connections, one worker thread each."""
    start = time.perf_counter() + 0.02
    for i, req in enumerate(requests):
        req.due = start + i / rate
    lock = threading.Lock()
    cursor = iter(requests)

    def worker(conn) -> None:
        while True:
            with lock:
                req = next(cursor, None)
            if req is None:
                return
            delay = req.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _send(conn, req, validate)

    conns = [
        http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        for _ in range(nconn)
    ]
    threads = [threading.Thread(target=worker, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for conn in conns:
        conn.close()
    return requests


def scrape(port: int) -> dict:
    """Counters from ``/metrics`` and cache stats from ``/healthz``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode("utf-8")
        conn.request("GET", "/healthz")
        health = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    totals = {"scored_pairs": 0.0, "shed": 0.0, "degraded": 0.0}
    families = {
        "repro_serve_scored_pairs_total": "scored_pairs",
        "repro_serve_shed_total": "shed",
        "repro_serve_degraded_total": "degraded",
    }
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if name in families:
            totals[families[name]] += float(line.rsplit(" ", 1)[1])
    totals["cache"] = health.get("cache", {})
    return totals


def warm_up(port: int, stream: UserStream, n: int, reload_at: int, nconn: int,
            validate) -> List[Request]:
    """Fill the result cache with ``n`` requests before anything is timed;
    on ``hot``, request ``reload_at`` is a reload.

    Each request uses its own connection (``Connection: close``): back to
    back on a keep-alive connection every request would wait out the
    server's delayed-ACK stall.
    """
    requests = stream.warm_up(n, reload_at)
    lock = threading.Lock()
    cursor = iter(requests)

    def worker() -> None:
        while True:
            with lock:
                req = next(cursor, None)
            if req is None:
                return
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
            try:
                _send(conn, req, validate, {"Connection": "close"})
            finally:
                conn.close()

    threads = [threading.Thread(target=worker) for _ in range(nconn)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return requests


def run_reported(port: int, stream: UserStream, nconn: int, seconds: float,
                 validate, count: int) -> Dict[float, List[List[Request]]]:
    """Run ``count`` windows of each reported step, the steps in turns.

    All ``REPORT_WINDOWS`` windows of the steps together last ``seconds``.
    ``validate(request)`` checks each 200 response and returns an error
    string for a response that must count as failed.
    """
    windows = {rate: [] for rate in REPORT_RATES}
    for _ in range(count):
        for rate in REPORT_RATES:
            n = round(rate * seconds * REPORT_SHARE[rate] / REPORT_WINDOWS)
            windows[rate].append(run_window(port, nconn, rate, stream.phase(n), validate))
    return windows


def run_ladder(port: int, stream: UserStream, nconn: int, validate,
               reported: Dict[float, List[List[Request]]]) -> List[Phase]:
    """Run the rate ladder around the windows ``reported`` already holds
    for the reported steps; stop at the first failed step above them."""
    phases: List[Phase] = []
    for rate in RATES:
        if rate in reported:
            windows = reported[rate]
        else:
            n = round(rate * STEP_SECONDS)
            windows = [run_window(port, nconn, rate, stream.phase(n), validate)]
        phase = Phase(rate, windows, scrape(port))
        phases.append(phase)
        print(phase.summary(), flush=True)
        if rate > max(REPORT_RATES) and not phase.passed:
            break
    return phases


def max_rate(phases: List[Phase]) -> float:
    """Completion rate measured in the highest step below the first failed one."""
    best = 0.0
    for phase in phases:
        if not phase.passed:
            break
        best = phase.completion_rate()
    return best
