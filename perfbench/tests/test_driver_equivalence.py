"""The benchmark's own tests.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.

The benchmark drives the EXT5 pipeline with its own event loop, so these
tests pin that loop to the program's drivers: per shard it must make the
decisions :meth:`OnlineMQOScheduler.run` makes, and in total it must
realize the IV :func:`run_schedule` reports — on the committed burst
shape, bit for bit the ``total_iv.online`` committed in
``BENCH_scale.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import sim
from perfbench.layers import PER_LAYER, Probe
from perfbench.run import WORKLOADS
from perfbench.spans import SpanRecorder
from repro.experiments.scale import ScaleConfig, run_schedule

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: ``schedules.burst.total_iv.online`` of ``BENCH_scale.json``: 4,096
#: burst queries under the default ScaleConfig seeds.
BURST_ANCHOR_IV = 2811.2960082517448


def _run(config, spec, stream):
    """The benchmark's pipeline, set-ups and all, on ``stream``."""
    with sim.SetupTimer(config, spec, None, len(stream)) as setups:
        result = sim.run_pipeline(
            config, spec, stream, sim.HandleTimes(), setups
        )
    assert len(setups.seconds) == sim.SETUP_REPEATS
    return result


def _scheduler_run_session(config, spec, workload):
    """The session :meth:`OnlineMQOScheduler.run` drives internally."""
    scheduler = sim.make_scheduler(config, spec)
    sessions = []
    make_session = scheduler.session

    def capture(workload, clock):
        sessions.append(make_session(workload, clock))
        return sessions[-1]

    scheduler.session = capture
    decision = scheduler.run(workload)
    return sessions[0], decision


@pytest.mark.parametrize("name,queries", [("steady", 900), ("burst", 256)])
def test_loop_matches_scheduler_run_and_run_schedule(name, queries):
    config = ScaleConfig(executor="serial")
    spec = sim.schedule(name, queries)
    stream = sim.make_stream(config, spec, seed=None)
    result = _run(config, spec, stream)
    assert sim.check(result) == []
    assert len(result.sessions) == config.shards
    for shard_ids, session in zip(result.shards, result.sessions):
        reference, decision = _scheduler_run_session(
            config, spec, sim.shard_workload(stream, shard_ids)
        )
        assert session.decisions == reference.decisions
        assert (
            session.decision.total_information_value
            == decision.total_information_value
        )
    metrics = run_schedule(config, spec)
    assert result.total_iv == metrics["total_iv"]["online"]
    assert result.dispatched == metrics["dispatched"]


def test_seeded_streams_keep_the_shape():
    config = ScaleConfig(executor="serial", arrival_seed=3)
    burst = sim.schedule("burst", 64)
    base = sim.make_stream(config, burst, seed=None)
    jittered = sim.make_stream(config, burst, seed=3)
    assert [q.name for q in jittered.queries] == [q.name for q in base.queries]
    assert jittered.arrivals != sim.make_stream(config, burst, seed=4).arrivals
    for query in base.queries:
        shift = jittered.arrival_of(query.query_id) - base.arrival_of(
            query.query_id
        )
        assert 0.0 <= shift < sim.BURST_JITTER
    steady = sim.schedule("steady", 64)
    assert sim.make_stream(config, steady, seed=3).arrivals != sim.make_stream(
        ScaleConfig(executor="serial", arrival_seed=4), steady, seed=4
    ).arrivals


def test_check_flags_a_query_dispatched_twice():
    config = ScaleConfig(executor="serial")
    spec = sim.schedule("steady", 120)
    result = _run(config, spec, sim.make_stream(config, spec, seed=None))
    session = result.sessions[0]
    start = next(e for e in session.decisions if e[0] == "start")
    session.decisions.append(start)
    problems = sim.check(result)
    assert problems == [f"query {start[1]} dispatched/shed 2 times"]


def test_self_times_and_unattributed_add_up():
    recorder = SpanRecorder()
    outer, inner = recorder.name_id("outer"), recorder.name_id("inner")
    top = recorder.open(outer, 5)
    child = recorder.open(inner)
    recorder.close(child)
    recorder.close(top)
    calls, self_s = recorder.self_times()
    assert calls == {"outer": 1, "inner": 1}
    assert recorder.rid.tolist() == [5, 5]
    assert recorder.parent.tolist() == [-1, 0]
    total = recorder.end[0] - recorder.start[0]
    assert self_s["outer"] + self_s["inner"] == pytest.approx(total)


def test_traced_run_leaves_decisions_unchanged():
    config = ScaleConfig(executor="serial")
    spec = sim.schedule("burst", 128)
    stream = sim.make_stream(config, spec, seed=None)
    plain = _run(config, spec, stream)
    probe = Probe().install()
    try:
        traced = _run(config, spec, stream)
    finally:
        probe.restore()
    assert traced.total_iv == plain.total_iv
    assert [s.decisions for s in traced.sessions] == [
        s.decisions for s in plain.sessions
    ]
    calls, _self_s = probe.recorder.self_times()
    assert calls["online.handle.arrival"] == 128
    assert calls["ga.run"] == len(probe.ga_results) > 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in PER_LAYER]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(WORKLOADS)
    output = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "burst",
         "--seed", "2", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(output.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == e2e
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_repository_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "burst",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


@pytest.mark.slow
def test_committed_burst_shape_reproduces_bench_scale():
    config = ScaleConfig(executor="serial")
    spec = sim.schedule("burst", 4096)
    result = _run(config, spec, sim.make_stream(config, spec, seed=None))
    assert result.total_iv == BURST_ANCHOR_IV
    with open(os.path.join(ROOT, "BENCH_scale.json")) as handle:
        committed = json.load(handle)["schedules"]["burst"]
    assert result.total_iv == committed["total_iv"]["online"]
    assert result.dispatched == committed["dispatched"]
