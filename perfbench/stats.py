"""Small statistics helpers shared by every workload."""

from __future__ import annotations

import math
import resource
import statistics


def percentile(values, fraction: float) -> float:
    """Linearly interpolated percentile of ``values`` (``fraction`` in
    [0, 1]; the inclusive method of :func:`statistics.quantiles`)."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def percentile_ms(seconds, fraction: float) -> float:
    """A percentile of wall-second samples in milliseconds (0 if none)."""
    return percentile(seconds, fraction) * 1000.0 if len(seconds) else 0.0


def p99_ms(seconds) -> float:
    return percentile_ms(seconds, 0.99)


def metric(value: float, unit: str, samples: int | None = None) -> dict:
    """One printed metric; percentiles carry their sample count."""
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    return entry


def end_to_end(setups, queries_per_cpu_s: float, handle, reopt, submit,
               total_iv: float, rss_mb: float) -> dict:
    """Every end-to-end metric, in ``BENCHMARK.json`` order.

    ``setups`` are wall-second samples; ``handle``, ``reopt`` and
    ``submit`` are CPU-second samples of ``handle`` calls (thread CPU
    clock).  The host is a share of a shared machine: a call that waits
    for its CPU — preempted, or its virtual CPU stolen — does not count
    the wait, so these figures follow the program, not the neighbours.
    Handle and submit times are summarised by their means: their
    medians fall in gaps between clusters of cheap and costly calls
    (completions against the rest; on ``serve``, one template's
    admissions against another's), so they jump with the event mix.  Re-optimization and submit tails are p90: on ``serve``
    the growing server heap's full collections touch about one arrival in
    twenty, so p95 sits at their edge and p99 on them, and across seeds
    both vary by more than any bound could allow.  :func:`high_tails`
    prints the p99s next to the metrics.
    """

    def timing(name: str, value: float, samples) -> tuple[str, dict]:
        return name, metric(value, "ms", len(samples))

    return dict([
        ("setup_s", metric(statistics.median(setups), "s", len(setups))),
        ("queries_per_cpu_s", metric(queries_per_cpu_s, "queries/s")),
        timing("handle_cpu_mean_ms", 1000.0 * sum(handle) / len(handle),
               handle),
        timing("handle_cpu_p99_ms", percentile_ms(handle, 0.99), handle),
        timing("reopt_cpu_p50_ms", percentile_ms(reopt, 0.50), reopt),
        timing("reopt_cpu_p90_ms", percentile_ms(reopt, 0.90), reopt),
        ("total_iv", metric(total_iv, "IV")),
        ("peak_rss_mb", metric(rss_mb, "MB")),
        timing("submit_cpu_mean_ms", 1000.0 * sum(submit) / len(submit),
               submit),
        timing("submit_cpu_p90_ms", percentile_ms(submit, 0.90), submit),
    ])


def high_tails(reopt, submit) -> dict:
    """The p99s the gated p90s stand in for, as printed, ungated lines."""
    return {
        "reopt_cpu_p99_ms": f"{p99_ms(reopt)} ms (n={len(reopt)}, not gated)",
        "submit_cpu_p99_ms":
            f"{p99_ms(submit)} ms (n={len(submit)}, not gated)",
    }


def wall_latencies(name: str, seconds) -> dict:
    """Wall-clock percentiles of ``seconds``, as printed, ungated lines."""
    return {
        f"{name}_p{int(fraction * 100)}_ms":
            f"{percentile_ms(seconds, fraction)} ms "
            f"(n={len(seconds)}, not gated)"
        for fraction in (0.50, 0.90, 0.99)
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
