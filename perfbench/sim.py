"""The simulated workloads: the EXT5 pipeline driven in one process.

:func:`run_pipeline` mirrors :func:`repro.experiments.scale.run_schedule`
with ``executor="serial"``, piece by public piece — stream, one
evaluator's execution ranges, incremental conflict groups, greedy shard
assignment — and then runs each shard's :class:`OnlineSession` over a
:class:`SimClock` exactly as :meth:`OnlineMQOScheduler.run` does, but with
the event loop in this file so every ``handle`` call can be timed from
outside.  Module attributes (``scale.build_stream``,
``scale.shard_assignments``) are looked up at call time so the traced run
can wrap them.  Only the repeated set-ups behind ``setup_s`` run in
another process (:class:`SetupTimer`).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

from repro.core.value import DiscountRates
from repro.experiments import scale
from repro.experiments.scale import ScaleConfig, ScheduleSpec
from repro.federation.costmodel import CostModel, CostParameters
from repro.mqo.conflict import IncrementalConflictGroups, execution_ranges
from repro.mqo.evaluator import WorkloadEvaluator
from repro.mqo.ga import GAConfig
from repro.mqo.online import OnlineConfig, OnlineMQOScheduler, OnlineSession
from repro.mqo.vector import HAS_NUMPY
from repro.obs.ledger import completion_ledger
from repro.sim.clocks import SimClock
from repro.workload.query import Workload

#: Queries per stream, per second of ``--seconds``.  On a 2-core x86
#: container a run's pipeline then takes 0.6-1 x ``--seconds`` on
#: ``steady`` (30k queries at 30 s: long enough for cache growth, GC and
#: RSS to show) and 1.2-2 x on ``burst`` (about 2,200 GA-bearing passes
#: at 30 s).  ``burst`` overruns on purpose: the host's speed swings from
#: run to run, and its timings settle only over a longer run.
QUERIES_PER_SECOND = {"steady": 1_000, "burst": 600}

#: Set-up repetitions in a run, spread over its pipeline (see
#: :class:`SetupTimer`); their median is ``setup_s``.
SETUP_REPEATS = 15
WORKER_TIMEOUT = 30

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Largest random delay (stream minutes) added to each burst's start.
BURST_JITTER = 2.0


def schedule(name: str, queries: int) -> ScheduleSpec:
    """The EXT5 schedule shapes, at a chosen stream length."""
    if name == "steady":
        return ScheduleSpec(
            "steady", queries=queries, arrival="poisson", interarrival=1.0
        )
    if name == "burst":
        return ScheduleSpec(
            "burst", queries=queries, arrival="burst", interarrival=25.0,
            burst_size=16, max_pending=64,
            population_size=24, generations=8, vectorized=True,
        )
    raise ValueError(f"unknown simulated workload {name!r}")


def infrastructure(config: ScaleConfig):
    """Catalog, cost model and rates exactly as an EXT5 shard builds them."""
    catalog = scale.build_catalog(config)
    return catalog, CostModel(catalog, params=CostParameters()), (
        DiscountRates.symmetric(0.1)
    )


def make_stream(config: ScaleConfig, spec: ScheduleSpec, seed: int | None):
    """The workload's arrival stream.

    Poisson streams are seeded through ``config.arrival_seed``.  The burst
    shape has no randomness of its own, so with a ``seed`` each burst's
    start is delayed by a seeded uniform draw in ``[0, BURST_JITTER)``
    minutes (bursts stay about 25 minutes apart); ``seed=None`` keeps the
    committed EXT5 schedule.
    """
    stream = scale.build_stream(config, spec)
    if spec.arrival != "burst" or seed is None:
        return stream
    rng = random.Random(seed)
    bursts = -(-spec.queries // spec.burst_size)
    offsets = [rng.uniform(0.0, BURST_JITTER) for _ in range(bursts)]
    arrivals = [
        stream.arrival_of(query.query_id)
        + offsets[index // spec.burst_size]
        for index, query in enumerate(stream.queries)
    ]
    return Workload.from_queries(stream.queries, arrivals=arrivals)


def make_scheduler(
    config: ScaleConfig, spec: ScheduleSpec, infra=None
) -> OnlineMQOScheduler:
    """The scheduler an EXT5 shard builds (``verify_groups=False``)."""
    catalog, cost_model, rates = infra or infrastructure(config)
    return OnlineMQOScheduler(
        catalog, cost_model, rates,
        ga_config=GAConfig(
            population_size=spec.population_size,
            generations=spec.generations,
        ),
        seed=config.seed,
        max_candidates=config.max_candidates,
        config=OnlineConfig(
            window=config.window,
            max_pending=spec.max_pending,
            iv_floor=spec.iv_floor,
            verify_groups=False,
            vectorized_ga=spec.vectorized and HAS_NUMPY,
        ),
    )


def shard_workload(stream: Workload, shard_ids) -> Workload:
    """A shard's subset of the stream (original ids, arrivals, order)."""
    members = set(shard_ids)
    workload = Workload()
    for query in stream.queries:
        if query.query_id in members:
            workload.add(query, arrival=stream.arrival_of(query.query_id))
    return workload


def start_session(scheduler: OnlineMQOScheduler, workload: Workload):
    """A session over a fresh SimClock with every arrival pushed."""
    clock = SimClock()
    session = scheduler.session(workload, clock)
    ordered = workload.sorted_by_arrival()
    session.arrivals_expected = len(ordered)
    for query in ordered:
        clock.push(
            workload.arrival_of(query.query_id), "arrival", query.query_id
        )
    return session, clock


@dataclass
class HandleTimes:
    """CPU seconds of ``handle`` calls: all, arrivals only, GA-bearing."""

    seconds: array = field(default_factory=lambda: array("d"))
    arrival: array = field(default_factory=lambda: array("d"))
    reopt: array = field(default_factory=lambda: array("d"))


class SetupTimer:
    """Times :data:`SETUP_REPEATS` set-ups spread evenly over a pipeline.

    One set-up follows every ``len(stream) // SETUP_REPEATS``-th arrival
    handled, between two ``handle`` calls.  The host's speed drifts over
    seconds, so set-ups bunched together all meet one speed; spread out,
    they meet the speeds the pipeline meets.  Each set-up runs in a
    worker process (``setup_child.py``) from a collected heap while the
    pipeline waits, so the pipeline's heap, collector and peak RSS stay
    its own.  Use as a context manager: leaving it stops the worker.
    """

    def __init__(self, config: ScaleConfig, spec: ScheduleSpec,
                 seed: int | None, arrivals: int) -> None:
        self.every = max(1, arrivals // SETUP_REPEATS)
        self.seconds: list[float] = []
        #: Wall seconds the pipeline waited for set-ups.
        self.spent = 0.0
        self._arrivals = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
        self._worker = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "setup_child.py"),
             spec.name, str(spec.queries), str(config.arrival_seed),
             "-" if seed is None else str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT,
        )
        if self._worker.stdout.readline() != "READY\n":
            self.close()
            raise RuntimeError("the set-up worker failed to start")

    def __enter__(self) -> "SetupTimer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def arrival(self) -> None:
        """Count one handled arrival; set up again every ``every``."""
        self._arrivals += 1
        if (self._arrivals % self.every == 0
                and len(self.seconds) < SETUP_REPEATS):
            self.sample()

    def sample(self) -> None:
        began = time.perf_counter()
        self._worker.stdin.write("\n")
        self._worker.stdin.flush()
        line = self._worker.stdout.readline()
        if not line:
            raise RuntimeError("the set-up worker exited")
        self.seconds.append(float(line))
        self.spent += time.perf_counter() - began

    def close(self) -> None:
        """Stop the worker and wait for it."""
        self._worker.stdin.close()
        try:
            self._worker.wait(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._worker.kill()
            self._worker.wait()
        self._worker.stdout.close()


def run_session(session: OnlineSession, clock: SimClock, times: HandleTimes,
                setups: SetupTimer):
    """Pop-and-handle until the clock empties, then drain.

    The loop of :meth:`OnlineMQOScheduler.run`, with each ``handle`` call
    timed into ``times`` on this thread's CPU clock; calls that advanced
    ``stats.ga_runs`` are also filed as re-optimization passes.  Arrivals
    drive ``setups``.
    """
    handle = session.handle
    stats = session.stats
    cpu = time.thread_time
    all_times, arrival_times, reopt_times = (
        times.seconds, times.arrival, times.reopt
    )
    while clock:
        now, tag, payload = clock.pop()
        ga_before = stats.ga_runs
        began = cpu()
        handle(now, tag, payload)
        elapsed = cpu() - began
        all_times.append(elapsed)
        if tag == "arrival":
            arrival_times.append(elapsed)
            setups.arrival()
        if stats.ga_runs != ga_before:
            reopt_times.append(elapsed)
    session.drain()
    return session


@dataclass
class PipelineResult:
    """Everything one pipeline run leaves behind for metrics and checks."""

    stream: Workload
    sessions: list
    shards: list
    #: Pipeline wall seconds, less the set-ups timed inside it.
    wall_seconds: float
    #: CPU seconds of this thread over the pipeline (set-ups run in
    #: their own process, so none of theirs).
    cpu_seconds: float
    evaluator: WorkloadEvaluator

    @property
    def dispatched(self) -> int:
        return sum(s.stats.dispatched for s in self.sessions)

    @property
    def total_iv(self) -> float:
        return sum(
            s.decision.total_information_value for s in self.sessions
        )


def run_pipeline(
    config: ScaleConfig, spec: ScheduleSpec, stream: Workload,
    times: HandleTimes, setups: SetupTimer,
) -> PipelineResult:
    """Ranges, groups, shards, then every shard run, one after another."""
    started = time.perf_counter()
    cpu_started = time.thread_time()
    catalog, cost_model, rates = infrastructure(config)
    evaluator = WorkloadEvaluator(
        catalog, cost_model, rates, stream,
        max_candidates=config.max_candidates,
    )
    tracker = IncrementalConflictGroups()
    for rng in execution_ranges(evaluator):
        tracker.add(rng)
    groups = tracker.groups()
    shards = [
        shard_ids
        for shard_ids in scale.shard_assignments(groups, config.shards)
        if shard_ids
    ]
    sessions = []
    for shard_ids in shards:
        scheduler = make_scheduler(config, spec)
        session, clock = start_session(
            scheduler, shard_workload(stream, shard_ids)
        )
        sessions.append(run_session(session, clock, times, setups))
    cpu = time.thread_time() - cpu_started
    wall = time.perf_counter() - started - setups.spent
    return PipelineResult(
        stream=stream, sessions=sessions, shards=shards,
        wall_seconds=wall, cpu_seconds=cpu, evaluator=evaluator,
    )


def timed_setup(config: ScaleConfig, spec: ScheduleSpec, seed: int | None):
    """One set-up: infrastructure, stream and scheduler objects over the
    whole stream, until the first event pops.  Returns (seconds, stream)."""
    started = time.perf_counter()
    infra = infrastructure(config)
    stream = make_stream(config, spec, seed)
    _session, clock = start_session(
        make_scheduler(config, spec, infra), stream
    )
    clock.pop()
    return time.perf_counter() - started, stream


def check(result: PipelineResult) -> list[str]:
    """Correctness problems of one pipeline run (empty when correct).

    Every query is dispatched or shed exactly once across shards; every
    dispatched assignment's ledger entry recomputes bit-equal to its
    reported IV and to the assignment's own IV; per shard, the entries sum
    bit-equal to the shard's total IV.  One problem string per failing
    query (a total mismatch is one more).
    """
    problems: list[str] = []
    seen: Counter = Counter()
    for session in result.sessions:
        for entry in session.decisions:
            if entry[0] in ("start", "shed"):
                seen[entry[1]] += 1
    for query in result.stream.queries:
        count = seen.pop(query.query_id, 0)
        if count != 1:
            problems.append(
                f"query {query.query_id} dispatched/shed {count} times"
            )
    problems.extend(f"unknown query {qid} dispatched" for qid in seen)
    for shard, session in enumerate(result.sessions):
        workload = session.workload
        ledger_total = 0.0
        for assignment in session.decision.result.assignments:
            query = assignment.query
            entry = completion_ledger(
                query.name, query.query_id, query.business_value,
                assignment.plan.rates,
                submitted_at=workload.arrival_of(query.query_id),
                begin=assignment.begin,
                completed_at=assignment.completed,
                data_timestamp=assignment.data_timestamp,
            )
            iv = entry.reported_iv
            if entry.recompute_iv() != iv or iv != assignment.information_value:
                problems.append(
                    f"query {query.query_id} ledger IV {iv!r} does not "
                    f"recompute bit-equal"
                )
            ledger_total += iv
        if ledger_total != session.decision.total_information_value:
            problems.append(
                f"shard {shard} ledger total {ledger_total!r} != total_iv "
                f"{session.decision.total_information_value!r}"
            )
    return problems


def configure(workload: str, seed: int, seconds: int):
    """The run's config and schedule (stream sized by ``seconds``)."""
    spec = schedule(workload, QUERIES_PER_SECOND[workload] * seconds)
    return ScaleConfig(executor="serial", arrival_seed=seed), spec


def prepare(workload: str, seed: int, seconds: int):
    """Config, schedule, stream and set-up timer (worker started) for a run."""
    config, spec = configure(workload, seed, seconds)
    stream = make_stream(config, spec, seed)
    return config, spec, stream, SetupTimer(config, spec, seed, len(stream))
