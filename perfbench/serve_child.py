"""Server process of the ``serve`` workload.

Runs :class:`repro.serve.service.QueryService` behind
:class:`repro.serve.httpd.HTTPServer` on an ephemeral localhost port with
``ServeConfig`` defaults except ``seconds_per_minute=0.002``, and the
durable journal on (fsync of every record) in ``--journal-dir``.  Prints
``READY <port>`` once listening; after ``POST /shutdown`` has drained
the service it runs the correctness audits and prints one JSON line of
results.  Started by ``serve_load.py`` with ``PYTHONPATH`` naming the
repository's ``src`` and root directories.

Every ``OnlineSession.handle`` call is timed on the loop thread's CPU
clock (handle, re-optimization and arrival CPU time), and its wall lag
behind the event's due time is recorded.  The process's CPU seconds from
``READY`` until drained are reported, and so are its busy seconds: that
wall time less the event loop's blocking ``select`` calls, which are
timed too.  With ``--trace 1`` the per-layer span wrappers are installed
as well, the idle calls become spans, and the spans are written to
``--spans-dir``.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import os
import sys
import time

from perfbench.layers import IdleTimedSelector, Probe, layer_metrics
from perfbench.stats import p99_ms, peak_rss_mb
from repro.durable import verify_journal
from repro.mqo.online import OnlineSession
from repro.serve.httpd import HTTPServer
from repro.serve.service import (
    QueryService,
    ServeConfig,
    build_serve_scheduler,
    journal_serve_config,
)

SECONDS_PER_MINUTE = 0.002


class HandleTimer:
    """Times every ``OnlineSession.handle`` call from outside, in CPU
    seconds of the calling thread."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.reopt: list[float] = []
        self.arrival: list[float] = []
        self.lag: list[float] = []
        self._original = OnlineSession.__dict__["handle"]

    def install(self) -> None:
        original = OnlineSession.handle
        timer = self

        @functools.wraps(original)
        def handle(session, now, tag, payload):
            clock = session.clock
            if session.accepting:
                timer.lag.append(
                    (clock.now - now) * clock.seconds_per_minute
                )
            ga_before = session.stats.ga_runs
            began = time.thread_time()
            try:
                return original(session, now, tag, payload)
            finally:
                elapsed = time.thread_time() - began
                timer.seconds.append(elapsed)
                if tag == "arrival":
                    timer.arrival.append(elapsed)
                if session.stats.ga_runs != ga_before:
                    timer.reopt.append(elapsed)

        OnlineSession.handle = handle

    def restore(self) -> None:
        OnlineSession.handle = self._original


def wrap_decision_wait(waits: list[float]) -> None:
    """Time from each ``submit`` return to its decision future resolving."""
    original = QueryService.submit

    @functools.wraps(original)
    def submit(service, *args, **kwargs):
        qid, decision, result = original(service, *args, **kwargs)
        returned = time.perf_counter()
        decision.add_done_callback(
            lambda _future: waits.append(time.perf_counter() - returned)
        )
        return qid, decision, result

    QueryService.submit = submit


def audit(service: QueryService, journal: str) -> list[str]:
    """Correctness problems of a drained service (empty when correct)."""
    problems = []
    violations = service.check_trace()
    if violations:
        problems.append(f"{len(violations)} trace violations: {violations[0]}")
    if service.replay().decisions != service.session.decisions:
        problems.append("SimClock replay decisions differ from the live run")
    config = journal_serve_config(journal)
    report = verify_journal(
        journal, lambda: build_serve_scheduler(config)[0]
    )
    if not report["ok"]:
        problems.append(f"journal audit failed: {report['mismatches']}")
    for qid in range(len(service.workload)):
        if qid not in service.results:
            problems.append(f"query {qid} has no result at drain")
    return problems


async def serve(args, probe: Probe | None,
                selector: IdleTimedSelector) -> dict:
    timer = HandleTimer()
    timer.install()
    waits: list[float] = []
    if probe is not None:
        wrap_decision_wait(waits)
    journal = os.path.join(args.journal_dir, "serve.journal")
    started = time.perf_counter()
    service = QueryService(
        ServeConfig(seconds_per_minute=SECONDS_PER_MINUTE), journal=journal
    )
    server = HTTPServer(service, host="127.0.0.1", port=0)
    await server.start()
    ready = time.perf_counter()
    cpu_ready = time.process_time()
    idle_before = selector.idle
    print(f"READY {server.address[1]}", flush=True)
    await server.serve_until_shutdown()
    ended = time.perf_counter()
    cpu = time.process_time() - cpu_ready
    wall = ended - started
    rss = peak_rss_mb()
    timer.restore()
    if probe is not None:
        probe.restore()
    stats = service.session.stats
    submitted = len(service.workload)
    result = {
        "problems": audit(service, journal),
        "dispatched": stats.dispatched,
        "total_iv": sum(entry.reported_iv for entry in service.ledgers),
        "peak_rss_mb": rss,
        "busy_s": (ended - ready) - (selector.idle - idle_before),
        "cpu_s": cpu,
        "handle": timer.seconds,
        "reopt": timer.reopt,
        "arrival": timer.arrival,
    }
    if probe is not None:
        result["layers"] = layer_metrics(
            probe, wall, [service.session], [service.session.evaluator],
            extra={
                "service.decision_wait_p99_ms": p99_ms(waits),
                "service.loop_lag_p99_ms": p99_ms(timer.lag),
                "journal.bytes_per_query": (
                    os.path.getsize(journal) / submitted if submitted else 0.0
                ),
            },
        )
        probe.recorder.write(args.spans_dir)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--journal-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-dir")
    args = parser.parse_args(argv)
    probe = Probe().install() if args.trace else None
    selector = IdleTimedSelector(probe.recorder if probe else None)
    loop = asyncio.SelectorEventLoop(selector)
    try:
        result = loop.run_until_complete(serve(args, probe, selector))
    finally:
        loop.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
