"""The ``serve`` workload: spawn the server, drive it open-loop, audit it.

This process is the load generator.  It sends a seeded Poisson schedule
of ``POST /submit {"wait": false}`` at :data:`RATE` requests per second
for ``--seconds`` seconds, cycling through a seeded permutation of the
service's templates, with at most :data:`MAX_IN_FLIGHT` connections
open.  Each request's wall latency runs from its *scheduled* send time
to the admission response, so a stalled generator counts against the
server, and the generator reports how late it sent.  Those latencies are
printed, not gated: the metrics come from the server's CPU clocks.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import selectors
import shutil
import subprocess
import sys
import tempfile
import time

from perfbench.stats import end_to_end, high_tails, p99_ms, wall_latencies

RATE = 40.0
MAX_IN_FLIGHT = 2
#: Servers spawned only to time their set-up, from spawn to the first
#: accepted connection, before the loaded server and as many after it:
#: the host's speed drifts over seconds, and two windows half a minute
#: apart meet more of it than one.  The median over these and the loaded
#: server is ``setup_s``.
SETUP_SPAWNS_EACH_SIDE = 4
REQUEST_TIMEOUT = 10.0
READY_TIMEOUT = 60.0
FINISH_TIMEOUT = 150.0


def plan(seed: int, seconds: float, templates: int = 12):
    """The seeded load: (due offset in seconds, template) per request."""
    rng = random.Random(seed)
    order = rng.sample(range(templates), templates)
    schedule = []
    due = 0.0
    for index in range(int(RATE * seconds)):
        due += rng.expovariate(RATE)
        schedule.append((due, order[index % templates]))
    return schedule


class Server:
    """One server child process (see ``serve_child.py``)."""

    def __init__(self, root: str, work_dir: str, trace: bool):
        self.journal_dir = tempfile.mkdtemp(prefix="journal-", dir=work_dir)
        command = [
            sys.executable, os.path.join(root, "perfbench", "serve_child.py"),
            "--journal-dir", self.journal_dir, "--trace", str(int(trace)),
            "--spans-dir", os.path.join(work_dir, "spans-serve"),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
        )
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env, cwd=root,
        )
        try:
            self.port = self._read_port()
            asyncio.run(_request(self.port, "GET", "/healthz"))
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _read_port(self) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(READY_TIMEOUT):
                raise RuntimeError("server did not start listening in time")
        line = self.process.stdout.readline()
        if not line.startswith("READY "):
            raise RuntimeError(f"server failed to start: {line!r}")
        return int(line.split()[1])

    def finish(self) -> dict:
        """Request a graceful drain; return the child's result line."""
        try:
            asyncio.run(_request(self.port, "POST", "/shutdown"))
            output, _ = self.process.communicate(timeout=FINISH_TIMEOUT)
        finally:
            self.close()
        if self.process.returncode != 0:
            raise RuntimeError(
                f"server exited with code {self.process.returncode}"
            )
        return json.loads(output.strip().splitlines()[-1])

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        shutil.rmtree(self.journal_dir, ignore_errors=True)


async def _request(port: int, method: str, path: str, body=None):
    from repro.serve.httpd import http_request

    status, payload = await http_request(
        "127.0.0.1", port, method, path, body, timeout=REQUEST_TIMEOUT,
    )
    if status != 200:
        raise RuntimeError(f"{method} {path}: HTTP {status} {payload!r}")
    return payload


async def drive(port: int, schedule) -> dict:
    """Send the schedule open-loop; per-request latency and lateness."""
    from repro.serve.httpd import http_request

    slots = asyncio.Semaphore(MAX_IN_FLIGHT)
    latencies: list[float] = []
    late: list[float] = []
    failures = 0
    tasks = []

    async def send(due: float, template: int) -> None:
        nonlocal failures
        try:
            status, body = await asyncio.wait_for(
                http_request(
                    "127.0.0.1", port, "POST", "/submit",
                    {"template": template, "wait": False},
                    timeout=REQUEST_TIMEOUT,
                ),
                REQUEST_TIMEOUT,
            )
            ok = status == 200 and isinstance(body, dict) and "outcome" in body
        except (OSError, asyncio.TimeoutError, ValueError):
            ok = False
        finally:
            slots.release()
        if ok:
            latencies.append(time.perf_counter() - due)
        else:
            failures += 1

    origin = time.perf_counter()
    for offset, template in schedule:
        due = origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        late.append(time.perf_counter() - due)
        tasks.append(asyncio.create_task(send(due, template)))
    await asyncio.gather(*tasks)
    return {
        "latencies": latencies,
        "late": late,
        "failures": failures,
    }


def run_serve(root: str, work_dir: str, seed: int, seconds: int,
              trace: bool) -> dict:
    """One ``serve`` run: one server takes the whole seeded schedule.

    Every server is timed from spawn to its first accepted connection.
    :data:`SETUP_SPAWNS_EACH_SIDE` servers are spawned, drained and
    audited before the loaded server, and as many after it; the loaded
    server is sent the schedule, then drained and audited.  Neither the
    server nor this generator is pinned to a CPU: pinned, each waits for
    its own core whenever anything else is scheduled there, even while
    the other core is idle.
    """
    schedule = plan(seed, seconds)
    setups: list[float] = []
    problems: list[str] = []

    def spawn_unloaded() -> None:
        # Untraced even in the traced run, whose spans are the loaded
        # server's alone.
        server = Server(root, work_dir, False)
        setups.append(server.setup_seconds)
        problems.extend(server.finish()["problems"])

    for _ in range(SETUP_SPAWNS_EACH_SIDE):
        spawn_unloaded()
    server = Server(root, work_dir, trace)
    try:
        setups.append(server.setup_seconds)
        load = asyncio.run(drive(server.port, schedule))
        child = server.finish()
    finally:
        server.close()
    for _ in range(SETUP_SPAWNS_EACH_SIDE):
        spawn_unloaded()
    problems += child["problems"]
    latencies, failures = load["latencies"], load["failures"]
    sent = len(load["late"])
    metrics = end_to_end(
        setups, child["dispatched"] / child["cpu_s"], child["handle"],
        child["reopt"], child["arrival"], child["total_iv"],
        child["peak_rss_mb"],
    )
    return {
        "attempted": max(1, sent),
        "failed": min(sent, failures + len(problems)),
        "problems": problems,
        "metrics": metrics,
        "generator": {
            "gen.sent": sent,
            "gen.succeeded": len(latencies),
            "gen.failed": failures,
            "gen.late_p99_ms": p99_ms(load["late"]),
        },
        "info": {
            **high_tails(child["reopt"], child["arrival"]),
            **wall_latencies("submit_wall", latencies),
            "server_busy_s": child["busy_s"],
            "server_cpu_s": child["cpu_s"],
        },
        "layers": child.get("layers"),
    }
