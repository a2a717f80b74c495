"""Per-layer attribution: which public functions the traced run wraps,
and the per-layer metrics it prints.

Each layer is a ``repro`` package; each span wraps one public function of
it, installed at run time by :func:`install`.  Every ``<span>.s`` metric
is *self* time (duration minus child spans), so the self times of all
layers plus ``unattributed.s`` add up to the traced wall time.
"""

from __future__ import annotations

import functools
import selectors
import time

from perfbench.spans import NO_REQUEST, Patcher, SpanRecorder, window_request
from perfbench.stats import p99_ms

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = [
    ("workload.build_stream.s", "s"),
    ("costmodel.combo_cost.calls", "count"),
    ("costmodel.combo_cost.s", "s"),
    ("enumeration.enumerate_plans.calls", "count"),
    ("enumeration.enumerate_plans.s", "s"),
    ("evaluator.candidates.calls", "count"),
    ("evaluator.candidates.s", "s"),
    ("evaluator.range_of.calls", "count"),
    ("evaluator.range_of.s", "s"),
    ("evaluator.upper_bound.calls", "count"),
    ("evaluator.upper_bound.s", "s"),
    ("evaluator.choose_best.calls", "count"),
    ("evaluator.choose_best.s", "s"),
    ("evaluator.sequence_fitness.calls", "count"),
    ("evaluator.sequence_fitness.s", "s"),
    ("evaluator.realize_calls", "count"),
    ("evaluator.choice_hit_ratio", "ratio"),
    ("evaluator.prefix_hits", "count"),
    ("conflict.add.calls", "count"),
    ("conflict.add.s", "s"),
    ("conflict.remove.calls", "count"),
    ("conflict.remove.s", "s"),
    ("conflict.groups.calls", "count"),
    ("conflict.groups.s", "s"),
    ("conflict.largest_group", "queries"),
    ("ga.run.calls", "count"),
    ("ga.run.s", "s"),
    ("ga.run.p99_ms", "ms"),
    ("ga.fitness_calls", "count"),
    ("ga.cache_hit_ratio", "ratio"),
    ("ga.generations", "count"),
    ("vector.build.s", "s"),
    ("vector.fitness_batch.calls", "count"),
    ("vector.fitness_batch.s", "s"),
    ("online.handle.arrival.s", "s"),
    ("online.handle.window.s", "s"),
    ("online.handle.completion.s", "s"),
    ("online.passes", "count"),
    ("online.ga_pass_ratio", "ratio"),
    ("online.warm_seed_ratio", "ratio"),
    ("online.shed", "count"),
    ("online.deferred", "count"),
    ("online.requeued", "count"),
    ("clock.pop.calls", "count"),
    ("clock.pop.s", "s"),
    ("clock.push.calls", "count"),
    ("scale.shard_assignments.s", "s"),
    ("scale.shard_skew", "ratio"),
    ("service.submit.calls", "count"),
    ("service.submit.s", "s"),
    ("service.decision_wait_p99_ms", "ms"),
    ("service.loop_lag_p99_ms", "ms"),
    ("serve.loop_idle.s", "s"),
    ("journal.append.calls", "count"),
    ("journal.append.s", "s"),
    ("journal.append.p99_ms", "ms"),
    ("journal.bytes_per_query", "bytes/query"),
    ("obs.tracer.emit.calls", "count"),
    ("obs.tracer.emit.s", "s"),
    ("gen.sent", "count"),
    ("gen.succeeded", "count"),
    ("gen.failed", "count"),
    ("gen.late_p99_ms", "ms"),
    ("trace.wall.s", "s"),
    ("unattributed.s", "s"),
    ("unattributed.share", "ratio"),
    ("trace.overhead_pct", "%"),
]

#: Spans whose call count and self time are printed as ``.calls``/``.s``.
COUNTED_SPANS = [
    "costmodel.combo_cost", "enumeration.enumerate_plans",
    "evaluator.candidates", "evaluator.range_of", "evaluator.upper_bound",
    "evaluator.choose_best", "evaluator.sequence_fitness",
    "conflict.add", "conflict.remove", "conflict.groups",
    "ga.run", "vector.fitness_batch", "clock.pop", "clock.push",
    "service.submit", "journal.append", "obs.tracer.emit",
]

HANDLE_TAGS = ("arrival", "window", "completion")

#: Spans printed by self time alone, as ``<span>.s``.
SELF_TIMED_SPANS = [
    "workload.build_stream", "vector.build", "scale.shard_assignments",
    "serve.loop_idle", *(f"online.handle.{tag}" for tag in HANDLE_TAGS),
]


class Probe:
    """Installs every span wrapper and keeps what the wrappers observe."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.patcher = Patcher(self.recorder)
        self.ga_results: list = []
        self.largest_group = 0
        self.windows = 0

    def install(self) -> "Probe":
        from repro.durable.journal import JournalWriter
        from repro.experiments import scale
        from repro.federation.costmodel import CostModel
        from repro.mqo import evaluator as evaluator_module
        from repro.mqo.conflict import IncrementalConflictGroups
        from repro.mqo.evaluator import WorkloadEvaluator
        from repro.mqo.ga import GeneticAlgorithm
        from repro.mqo.online import OnlineSession
        from repro.mqo.vector import VectorizedEvaluator
        from repro.serve.service import QueryService
        from repro.sim.clocks import SimClock, WallClock
        from repro.sim.trace import Tracer

        span = self.patcher.span
        span(scale, "build_stream", "workload.build_stream")
        span(scale, "shard_assignments", "scale.shard_assignments")
        span(CostModel, "combo_cost", "costmodel.combo_cost")
        # Patched where the evaluator looks the name up.
        span(evaluator_module, "enumerate_plans",
             "enumeration.enumerate_plans")
        span(WorkloadEvaluator, "candidates", "evaluator.candidates")
        for attr in ("range_of", "upper_bound", "choose_best"):
            span(WorkloadEvaluator, attr, f"evaluator.{attr}", request_arg=1)
        span(WorkloadEvaluator, "sequence_fitness",
             "evaluator.sequence_fitness")
        span(IncrementalConflictGroups, "add", "conflict.add")
        span(IncrementalConflictGroups, "remove", "conflict.remove",
             request_arg=1)
        span(VectorizedEvaluator, "__init__", "vector.build")
        span(VectorizedEvaluator, "fitness_batch", "vector.fitness_batch")
        span(SimClock, "pop", "clock.pop")
        span(SimClock, "push", "clock.push")
        span(WallClock, "push", "clock.push")
        span(Tracer, "emit", "obs.tracer.emit")
        span(JournalWriter, "append", "journal.append")
        span(QueryService, "submit", "service.submit")
        self._wrap_groups(IncrementalConflictGroups)
        self._wrap_ga(GeneticAlgorithm)
        self._wrap_handle(OnlineSession)
        return self

    def restore(self) -> None:
        self.patcher.restore()

    def _wrap_groups(self, cls) -> None:
        original = self.patcher.span(cls, "groups", "conflict.groups")
        traced = cls.groups
        probe = self

        @functools.wraps(original)
        def groups(tracker):
            result = traced(tracker)
            for group in result:
                if len(group) > probe.largest_group:
                    probe.largest_group = len(group)
            return result

        self.patcher.replace(cls, "groups", groups)

    def _wrap_ga(self, cls) -> None:
        self.patcher.span(cls, "run", "ga.run")
        traced = cls.run
        results = self.ga_results

        @functools.wraps(traced)
        def run(ga, *args, **kwargs):
            result = traced(ga, *args, **kwargs)
            results.append(
                (result.fitness_calls, result.cache_hits,
                 result.generations_run)
            )
            return result

        self.patcher.replace(cls, "run", run)

    def _wrap_handle(self, cls) -> None:
        original = cls.__dict__["handle"]
        recorder = self.recorder
        ids = {
            tag: recorder.name_id(f"online.handle.{tag}")
            for tag in HANDLE_TAGS
        }
        open_span, close_span = recorder.open, recorder.close
        probe = self

        @functools.wraps(original)
        def handle(session, now, tag, payload):
            if tag == "window":
                request = window_request(probe.windows)
                probe.windows += 1
            else:
                request = payload
            index = open_span(ids[tag], request)
            try:
                return original(session, now, tag, payload)
            finally:
                close_span(index)

        self.patcher.replace(cls, "handle", handle)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    probe: Probe,
    wall_seconds: float,
    sessions,
    evaluators,
    extra: dict | None = None,
) -> dict[str, float]:
    """Every per-layer value (unit-less) from one traced run.

    ``sessions`` are the run's :class:`OnlineSession` objects,
    ``evaluators`` every :class:`WorkloadEvaluator` whose stats count;
    ``extra`` supplies values only the caller knows (shard skew, serve
    and generator figures).  Layers a workload does not exercise read 0.
    """
    calls, self_s = probe.recorder.self_times()
    values: dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    for span_name in COUNTED_SPANS:
        values[f"{span_name}.calls"] = calls.get(span_name, 0)
        values[f"{span_name}.s"] = self_s.get(span_name, 0.0)
    for span_name in SELF_TIMED_SPANS:
        values[f"{span_name}.s"] = self_s.get(span_name, 0.0)
    values["ga.run.p99_ms"] = p99_ms(probe.recorder.durations("ga.run"))
    fitness = sum(item[0] for item in probe.ga_results)
    hits = sum(item[1] for item in probe.ga_results)
    values["ga.fitness_calls"] = fitness
    values["ga.cache_hit_ratio"] = _ratio(hits, hits + fitness)
    values["ga.generations"] = sum(item[2] for item in probe.ga_results)
    values["journal.append.p99_ms"] = p99_ms(
        probe.recorder.durations("journal.append")
    )

    stats = [evaluator.stats for evaluator in evaluators]
    values["evaluator.realize_calls"] = sum(s.realize_calls for s in stats)
    values["evaluator.prefix_hits"] = sum(s.prefix_hits for s in stats)
    values["evaluator.choice_hit_ratio"] = _ratio(
        sum(s.choice_hits for s in stats),
        calls.get("evaluator.choose_best", 0),
    )
    values["conflict.largest_group"] = probe.largest_group

    online = [session.stats for session in sessions]
    windows = [w for session in sessions for w in session.decision.windows]
    ga_total = sum(s.ga_runs for s in online)
    values["online.passes"] = len(windows)
    values["online.ga_pass_ratio"] = _ratio(
        sum(1 for w in windows if w.ga_runs > 0), len(windows)
    )
    values["online.warm_seed_ratio"] = _ratio(
        sum(s.warm_seeds for s in online), ga_total
    )
    for counter in ("shed", "deferred", "requeued"):
        values[f"online.{counter}"] = sum(getattr(s, counter) for s in online)

    attributed = sum(self_s.values())
    values["trace.wall.s"] = wall_seconds
    values["unattributed.s"] = wall_seconds - attributed
    values["unattributed.share"] = _ratio(
        wall_seconds - attributed, wall_seconds
    )
    values.update(extra or {})
    return values


def render(values: dict[str, float]) -> dict[str, dict]:
    """The printed form: every per-layer metric with its unit."""
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER
    }


class IdleTimedSelector(selectors.DefaultSelector):
    """An epoll selector that times its blocking ``select`` calls.

    Their total is :attr:`idle` seconds, so an event loop's busy time is
    its wall time minus :attr:`idle`.  With a ``recorder`` each call is
    also a ``serve.loop_idle`` span, so the idle time is attributed.
    """

    def __init__(self, recorder: SpanRecorder | None = None) -> None:
        super().__init__()
        self.idle = 0.0
        self._recorder = recorder
        if recorder is not None:
            self._nid = recorder.name_id("serve.loop_idle")

    def select(self, timeout=None):
        recorder = self._recorder
        began = time.perf_counter()
        index = None if recorder is None else recorder.open(
            self._nid, NO_REQUEST
        )
        try:
            return super().select(timeout)
        finally:
            if index is not None:
                recorder.close(index)
            self.idle += time.perf_counter() - began
