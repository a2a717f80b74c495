"""One benchmark for the online IV scheduler.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady|burst|serve \\
        --seed N --seconds S --trace 0|1

Workloads
---------
``steady``
    The EXT5 steady shape (Poisson arrivals, mean interarrival 1 stream
    minute, 12 templates over 6 tables and 3 sites, 2 shards, GA
    population 4 x 2 generations, scalar evaluator); the seed selects the
    arrival stream.
``burst``
    The EXT5 burst shape (bursts of 16 arrivals 0.05 min apart every 25
    min, ``max_pending`` 64, GA 24 x 8 through the numpy batch
    evaluator); the seed delays each burst's start by up to 2 minutes.
``serve``
    ``QueryService`` + ``HTTPServer`` in a child process with a fsync'd
    journal, one server driven open-loop at 40 requests/s (at most 2 in
    flight) for the whole run; the seed selects the Poisson schedule and
    the template order.

``BENCHMARK.json`` names ``burst`` and ``serve``; ``steady`` runs the same
way but is left out of it, because three workloads leave too little
time per run for CPU-bound timings to settle on a shared 2-core host.

Both simulated workloads run the EXT5 pipeline in this process — range
derivation, incremental conflict groups, shard assignment, then each
shard's online session one after another — on a stream sized by
``--seconds`` (see ``sim.QUERIES_PER_SECOND``).

End-to-end metrics
------------------
``setup_s``
    Median set-up time: on sim workloads catalog, cost model, stream and
    scheduler objects until the first event pops, repeated between
    ``handle`` calls all through the pipeline (``sim.SetupTimer``); on
    ``serve`` spawn to first accepted connection, for the loaded server
    and for servers spawned before and after it (``serve_load``).
``queries_per_cpu_s``
    Dispatched queries per CPU second of the process that schedules them:
    from stream hand-off to the last shard drained (sim); the server's,
    from accepting connections until drained (``serve``).
``handle_cpu_mean_ms`` / ``handle_cpu_p99_ms``
    CPU time of each ``OnlineSession.handle`` call: mean and p99.
``reopt_cpu_p50_ms`` / ``reopt_cpu_p90_ms``
    The same, over calls during which ``stats.ga_runs`` advanced.
``total_iv``
    Realised IV; deterministic per seed on sim workloads, the sum of the
    ledger on ``serve`` (where wall-clock timing moves it).
``peak_rss_mb``
    ``ru_maxrss`` of the process that ran the workload (the server that
    took the load on ``serve``).
``submit_cpu_mean_ms`` / ``submit_cpu_p90_ms``
    The admission decision: CPU time of the ``handle`` calls of arrival
    events.

Timings other than ``setup_s`` are CPU time, not wall time: the host is
a few cores of a shared machine, and wall time there measures how long
the neighbours kept a core busy (see ``stats.end_to_end``).  On
``serve`` the wall-clock latency a client sees — from each request's
scheduled send time to its admission response — is printed as
``submit_wall_p50_ms``/``_p90_ms``/``_p99_ms``, ungated, and so are the
server's busy and CPU seconds.

Why means and p90s where p50s and p99s might be expected: see
``stats.end_to_end``; the p99s are printed too, ungated.  ``failed``
counts, out of ``attempted`` queries, those not dispatched or shed
exactly once or whose ledger IV does not recompute bit-equal (sim),
or requests that failed, timed out or got no result, plus any failed
trace, replay or journal audit (``serve``).

Output
------
Human-readable lines, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value and
unit).  ``--trace 0`` prints the end-to-end metrics, each percentile with
its sample count on its human-readable line.  ``--trace 1`` runs the
workload untraced in a fresh process (the tracing-overhead baseline),
then again with span wrappers around the public functions of every
layer, prints the per-layer metrics, and writes the spans to
``.perfbench/spans-<workload>/``.  The process exits
non-zero when a correctness check fails or the repository's sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("steady", "burst", "serve")
#: EXT5's arrival seed, so the default steady stream is the committed one.
DEFAULT_SEED = 7
CHILD_TIMEOUT = 150


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark the online IV scheduler on one workload."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def sim_untraced(workload: str, seed: int, seconds: int) -> dict:
    """One untraced steady/burst run: every end-to-end metric."""
    from perfbench import sim
    from perfbench.stats import end_to_end, high_tails, peak_rss_mb

    config, spec, stream, setups = sim.prepare(workload, seed, seconds)
    times = sim.HandleTimes()
    with setups:
        result = sim.run_pipeline(config, spec, stream, times, setups)
    problems = sim.check(result)
    metrics = end_to_end(
        setups.seconds, result.dispatched / result.cpu_seconds, times.seconds,
        times.reopt, times.arrival, result.total_iv, peak_rss_mb(),
    )
    return {
        "attempted": len(stream),
        "failed": min(len(stream), len(problems)),
        "problems": problems,
        "metrics": metrics,
        "info": {
            "queries": len(stream),
            "shards": [len(ids) for ids in result.shards],
            "wall_s": result.wall_seconds,
            "cpu_s": result.cpu_seconds,
            **high_tails(times.reopt, times.arrival),
        },
    }


def untraced_child(workload: str, seed: int, seconds: int) -> dict:
    """The untraced run in a fresh process: the tracing-overhead baseline.

    A fresh process, so the traced run that follows in this one starts
    from the same interpreter state the baseline did.
    """
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def sim_traced(workload: str, seed: int, seconds: int) -> dict:
    """The workload with every layer wrapped, after an untraced baseline.

    The traced run does what the baseline does — the same stream, the
    same timed pipeline with the same set-ups inside it — so the span
    wrappers are the only difference between the two.  Its wall time is
    all of that but the waits for the set-up worker (which is untraced):
    the stretch every span falls in.
    """
    from perfbench import sim
    from perfbench.layers import Probe, layer_metrics

    baseline = untraced_child(workload, seed, seconds)
    probe = Probe().install()
    try:
        started = time.perf_counter()
        config, spec, stream, setups = sim.prepare(workload, seed, seconds)
        with setups:
            result = sim.run_pipeline(
                config, spec, stream, sim.HandleTimes(), setups
            )
        wall = time.perf_counter() - started - setups.spent
    finally:
        probe.restore()
    problems = sim.check(result)
    if not baseline["correct"]:
        problems.append("the untraced baseline run failed its checks")
    sizes = [len(ids) for ids in result.shards]
    untraced_qps = baseline["metrics"]["queries_per_cpu_s"]["value"]
    traced_qps = result.dispatched / result.cpu_seconds
    values = layer_metrics(
        probe, wall, result.sessions,
        [result.evaluator] + [s.evaluator for s in result.sessions],
        extra={
            "scale.shard_skew": max(sizes) / (sum(sizes) / len(sizes)),
            "trace.overhead_pct": (untraced_qps / traced_qps - 1.0) * 100.0,
        },
    )
    probe.recorder.write(os.path.join(OUT_DIR, f"spans-{workload}"))
    return {
        "attempted": len(stream),
        "failed": min(len(stream), len(problems)),
        "problems": problems,
        "layers": values,
        "info": {"spans": len(probe.recorder)},
    }


def serve_run(seed: int, seconds: int, trace: bool) -> dict:
    from perfbench import serve_load

    os.makedirs(OUT_DIR, exist_ok=True)
    if not trace:
        return serve_load.run_serve(ROOT, OUT_DIR, seed, seconds, False)
    untraced = serve_load.run_serve(ROOT, OUT_DIR, seed, seconds, False)
    traced = serve_load.run_serve(ROOT, OUT_DIR, seed, seconds, True)
    layers = dict(traced["layers"])
    layers.update(traced["generator"])
    qps = "queries_per_cpu_s"
    layers["trace.overhead_pct"] = (
        untraced["metrics"][qps]["value"] / traced["metrics"][qps]["value"]
        - 1.0
    ) * 100.0
    traced["layers"] = layers
    traced["problems"] = untraced["problems"] + traced["problems"]
    traced["failed"] = min(
        traced["attempted"], untraced["failed"] + traced["failed"]
    )
    return traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"error: no repro sources under {ROOT}/src; run from a full "
            f"checkout of the repository", file=sys.stderr,
        )
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.layers import render

    trace = bool(args.trace)
    if args.workload == "serve":
        outcome = serve_run(args.seed, args.seconds, trace)
    elif trace:
        outcome = sim_traced(args.workload, args.seed, args.seconds)
    else:
        outcome = sim_untraced(args.workload, args.seed, args.seconds)

    metrics = render(outcome["layers"]) if trace else outcome["metrics"]
    for problem in outcome["problems"][:20]:
        print(f"FAILED CHECK: {problem}")
    for name, value in outcome.get("generator", {}).items():
        print(f"{name}: {value}")
    for name, value in outcome.get("info", {}).items():
        print(f"{name}: {value}")
    for name, entry in metrics.items():
        samples = entry.get("samples")
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"{name}: {entry['value']} {entry['unit']}{suffix}")
    correct = outcome["failed"] == 0 and not outcome["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
