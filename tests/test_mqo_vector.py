"""Equivalence of the numpy batch evaluator with the scalar fast path.

``VectorizedEvaluator.evaluate_batch`` must realize every order exactly
like ``WorkloadEvaluator.evaluate_sequence`` — same candidate choices,
same commit arithmetic — modulo the documented ``REL_TOLERANCE`` (numpy's
``power`` and libm's ``pow`` can differ in the last ulp).  These tests
drive randomized workloads through both paths, hold the kernel bit for
bit to the per-table loop it replaced (``tests/support/
vector_reference.py``), bound the sync history it copies, check the GA's
``fitness_batch`` hook scores consistently with its per-chromosome
fallback, and exercise the online scheduler's opt-in end to end.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.value import DiscountRates
from repro.errors import OptimizationError
from repro.experiments import scale
from repro.federation.catalog import (
    Catalog,
    FixedSyncSchedule,
    SharedSyncFeed,
    StreamSyncSchedule,
    TableDef,
)
from repro.federation.costmodel import CostModel, CostParameters
from repro.federation.site import LOCAL_SITE_ID
from repro.mqo.evaluator import WorkloadEvaluator
from repro.mqo.ga import GAConfig, GeneticAlgorithm
from repro.mqo.online import OnlineConfig, OnlineMQOScheduler
from repro.mqo.vector import HAS_NUMPY, REL_TOLERANCE, VectorizedEvaluator
from repro.sim.rng import RandomSource
from repro.sim.streams import ExponentialStream
from repro.workload.query import DSSQuery, Workload
from tests.support.vector_reference import ReferenceVectorizedEvaluator

pytestmark = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")

NUM_TABLES = 8
NUM_SITES = 3


def build_catalog(sync: str = "fixed") -> Catalog:
    """Staggered replicas: a fixed list with a periodic tail by default,
    else every replica on its own ``"stream"`` or one ``"shared"`` feed."""
    catalog = Catalog()
    source = RandomSource(5, "vector-sync")
    feed = SharedSyncFeed(ExponentialStream(1.5, source.spawn("shared")))
    for index in range(NUM_TABLES):
        name = f"t{index}"
        catalog.add_table(
            TableDef(name, site=index % NUM_SITES, row_count=3_000)
        )
        if sync == "shared":
            schedule = feed.member()
        elif sync == "stream":
            schedule = StreamSyncSchedule(
                ExponentialStream(6.0, source.spawn(name)), offset=0.5 * index
            )
        else:
            schedule = FixedSyncSchedule(
                [1.0 + index * 0.5 + k * 6.0 for k in range(30)],
                tail_period=6.0,
            )
        catalog.add_replica(name, schedule)
    return catalog


def build_workload(query_specs: list[tuple[int, float, float]]) -> Workload:
    """Queries from (table_offset, arrival, base_work) triples."""
    workload = Workload()
    for index, (offset, arrival, work) in enumerate(query_specs):
        tables = tuple(
            f"t{(offset + j) % NUM_TABLES}" for j in range(1 + offset % 3)
        )
        workload.add(
            DSSQuery(
                query_id=index + 1, name=f"q{index + 1}", tables=tables,
                base_work=work,
            ),
            arrival=arrival,
        )
    return workload


def build_evaluator(
    workload: Workload, sync: str = "fixed", **kwargs
) -> WorkloadEvaluator:
    catalog = build_catalog(sync)
    cost_model = CostModel(catalog, params=CostParameters())
    rates = DiscountRates.symmetric(0.1)
    return WorkloadEvaluator(catalog, cost_model, rates, workload, **kwargs)


def assert_batch_matches_scalar(
    evaluator: WorkloadEvaluator, orders: list[list[int]]
) -> None:
    vector = VectorizedEvaluator(evaluator)
    totals = vector.evaluate_batch(orders)
    for order, total in zip(orders, totals):
        scalar = evaluator.evaluate_sequence(order).total_information_value
        assert math.isclose(
            float(total), scalar, rel_tol=REL_TOLERANCE, abs_tol=1e-12
        ), f"batch total diverged on {order}: {total} vs {scalar}"


query_spec = st.tuples(
    st.integers(min_value=0, max_value=NUM_TABLES - 1),
    st.floats(min_value=0.0, max_value=30.0),
    st.floats(min_value=1_000.0, max_value=20_000.0),
)


class TestBatchEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(specs=st.lists(query_spec, min_size=2, max_size=6), data=st.data())
    def test_random_workloads_and_batches(self, specs, data):
        workload = build_workload(specs)
        evaluator = build_evaluator(workload)
        qids = [q.query_id for q in workload.queries]
        orders = [
            list(data.draw(st.permutations(qids))) for _ in range(4)
        ]
        assert_batch_matches_scalar(evaluator, orders)

    def test_partial_orders_score_like_sequence_fitness(self):
        # One conflict group's GA scores permutations of a *subset*.
        workload = build_workload(
            [(0, 1.0, 8_000.0), (1, 1.2, 8_000.0),
             (2, 1.4, 8_000.0), (3, 1.6, 8_000.0)]
        )
        evaluator = build_evaluator(workload)
        orders = [[1, 3], [3, 1], [2, 4], [4, 2]]
        assert_batch_matches_scalar(evaluator, orders)

    def test_honours_rebased_availability(self):
        workload = build_workload(
            [(0, 1.0, 8_000.0), (1, 1.2, 8_000.0), (2, 1.4, 8_000.0)]
        )
        evaluator = build_evaluator(workload)
        evaluator.rebase({LOCAL_SITE_ID: 9.0, 1: 4.0})
        assert_batch_matches_scalar(evaluator, [[1, 2, 3], [3, 2, 1]])
        # The vector path reads the base at call time, not compile time.
        vector = VectorizedEvaluator(evaluator)
        before = float(vector.evaluate_batch([[1, 2, 3]])[0])
        evaluator.rebase({LOCAL_SITE_ID: 400.0})
        after = float(vector.evaluate_batch([[1, 2, 3]])[0])
        scalar = evaluator.evaluate_sequence([1, 2, 3])
        assert math.isclose(
            after, scalar.total_information_value,
            rel_tol=REL_TOLERANCE, abs_tol=1e-12,
        )
        assert after < before  # later availability can only cost IV here

    def test_empty_batch_and_contract_errors(self):
        workload = build_workload([(0, 1.0, 8_000.0), (1, 1.2, 8_000.0)])
        evaluator = build_evaluator(workload)
        vector = VectorizedEvaluator(evaluator)
        assert list(vector.evaluate_batch([])) == []
        with pytest.raises(OptimizationError, match="same length"):
            vector.evaluate_batch([[1, 2], [1]])
        with pytest.raises(OptimizationError, match="not compiled"):
            vector.evaluate_batch([[99, 1]])
        with pytest.raises(OptimizationError, match=">= 1 query"):
            VectorizedEvaluator(evaluator, query_ids=[])

    def test_rejects_repeated_query_ids(self):
        # Scoring [1, 1] used to realize query 1 twice and double-count
        # its IV; the scalar path rejects the same order.
        workload = build_workload([(0, 1.0, 8_000.0), (1, 1.2, 8_000.0)])
        evaluator = build_evaluator(workload)
        vector = VectorizedEvaluator(evaluator)
        with pytest.raises(OptimizationError, match="must not repeat"):
            evaluator.evaluate_sequence([1, 1])
        with pytest.raises(OptimizationError, match="must not repeat"):
            vector.evaluate_batch([[1, 1]])
        with pytest.raises(OptimizationError, match="must not repeat"):
            vector.evaluate_batch([[1, 2], [2, 2]])


def assert_bit_equal(actual: "np.ndarray", expected: "np.ndarray") -> None:
    assert actual.shape == expected.shape
    assert (actual.view(np.int64) == expected.view(np.int64)).all(), (
        f"kernel {actual.tolist()} != reference {expected.tolist()}"
    )


#: Arrivals reach well past the fixed sync lists (last entry ~178.5), so
#: schedules extend through their periodic tails.
late_query_spec = st.tuples(
    st.integers(min_value=0, max_value=NUM_TABLES - 1),
    st.floats(min_value=0.0, max_value=400.0),
    st.floats(min_value=1_000.0, max_value=20_000.0),
)


class TestReferenceBitEquality:
    """The kernel against the per-table loop it replaced, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        specs=st.lists(late_query_spec, min_size=2, max_size=7),
        sync=st.sampled_from(["fixed", "fixed", "stream", "shared"]),
        data=st.data(),
    )
    def test_bit_equal_to_reference_loop(self, specs, sync, data):
        workload = build_workload(specs)
        evaluator = build_evaluator(workload, sync)
        qids = [q.query_id for q in workload.queries]
        compiled = data.draw(
            st.lists(st.sampled_from(qids), min_size=1, unique=True)
        )
        length = data.draw(st.integers(1, len(compiled)))
        orders = data.draw(st.lists(
            st.permutations(compiled).map(lambda order: order[:length]),
            min_size=1, max_size=32,
        ))
        base = data.draw(st.dictionaries(
            st.sampled_from([LOCAL_SITE_ID, 1, 2]),
            st.floats(min_value=0.0, max_value=1_000.0),
        ))
        evaluator.rebase(base)
        vector = VectorizedEvaluator(evaluator, query_ids=compiled)
        reference = ReferenceVectorizedEvaluator(evaluator, query_ids=compiled)
        assert_bit_equal(
            vector.evaluate_batch(orders), reference.evaluate_batch(orders)
        )

    @pytest.mark.parametrize("sync", ["fixed", "stream", "shared"])
    def test_rebuilds_the_window_when_a_batch_runs_past_it(self, sync):
        workload = build_workload(
            [(0, 170.0, 8_000.0), (1, 171.0, 9_000.0), (2, 172.0, 7_000.0)]
        )
        evaluator = build_evaluator(workload, sync)
        vector = VectorizedEvaluator(evaluator)
        reference = ReferenceVectorizedEvaluator(evaluator)
        horizon = vector._horizon
        orders = [[1, 2, 3], [3, 1, 2], [2, 3, 1]]
        assert_bit_equal(
            vector.evaluate_batch(orders), reference.evaluate_batch(orders)
        )
        # Servers busy far past the copied window: every begin lands
        # beyond it, so the batch must re-copy before it can be exact.
        evaluator.rebase({LOCAL_SITE_ID: horizon + 500.0, 1: horizon})
        assert_bit_equal(
            vector.evaluate_batch(orders), reference.evaluate_batch(orders)
        )
        assert vector._horizon > horizon + 500.0


class TestSyncWindowBound:
    """A pass copies the sync window it can read, never the history."""

    @staticmethod
    def _copied_near(start: float) -> int:
        config = scale.ScaleConfig()
        spec = scale.ScheduleSpec(
            "burst", queries=16, arrival="burst", burst_size=16
        )
        stream = scale.build_stream(config, spec)
        workload = Workload.from_queries(stream.queries, arrivals=[
            start + stream.arrival_of(q.query_id) for q in stream.queries
        ])
        catalog = scale.build_catalog(config)
        evaluator = WorkloadEvaluator(
            catalog, CostModel(catalog, params=CostParameters()),
            DiscountRates.symmetric(0.1), workload,
            max_candidates=config.max_candidates,
        )
        return VectorizedEvaluator(evaluator)._union.size

    def test_copy_does_not_grow_with_stream_time(self):
        # Both starts sit at the same phase of the 6-minute sync cycle;
        # the whole history behind them differs a hundredfold.
        near = self._copied_near(6.0 * 167)
        far = self._copied_near(6.0 * 16_667)
        assert near == far
        assert near <= 100


class TestGABatchFitness:
    def _ga_pair(self, fitness_batch):
        workload = build_workload(
            [(0, 1.0, 9_000.0), (1, 1.1, 7_000.0),
             (2, 1.3, 8_000.0), (3, 1.5, 6_000.0)]
        )
        evaluator = build_evaluator(workload)
        genes = [q.query_id for q in workload.queries]
        config = GAConfig(population_size=8, generations=6)
        scalar_ga = GeneticAlgorithm(
            genes, evaluator.sequence_fitness, config=config, seed=11
        )
        vector = VectorizedEvaluator(evaluator)
        batch_ga = GeneticAlgorithm(
            genes, evaluator.sequence_fitness, config=config, seed=11,
            fitness_batch=vector.fitness_batch if fitness_batch else None,
        )
        return scalar_ga, batch_ga

    def test_batch_hook_matches_scalar_ga(self):
        scalar_ga, batch_ga = self._ga_pair(fitness_batch=True)
        scalar = scalar_ga.run()
        batch = batch_ga.run()
        # Same RNG stream, and every scored value agrees within tolerance,
        # so the runs visit the same populations; the winning permutation
        # can only differ if a near-tie flipped (none in this workload).
        assert batch.best == scalar.best
        assert math.isclose(
            batch.best_fitness, scalar.best_fitness,
            rel_tol=REL_TOLERANCE, abs_tol=1e-12,
        )
        assert batch.fitness_calls == scalar.fitness_calls
        assert batch.cache_hits == scalar.cache_hits

    def test_none_hook_is_the_scalar_path(self):
        scalar_ga, batch_ga = self._ga_pair(fitness_batch=False)
        scalar = scalar_ga.run()
        plain = batch_ga.run()
        assert plain.best == scalar.best
        assert plain.best_fitness == scalar.best_fitness

    def test_score_fallback_routes_through_batch_hook(self):
        # _score cache misses must use the batch scorer too, so the GA
        # never mixes values from two arithmetic paths for one chromosome.
        calls: list[list[list[int]]] = []

        def fake_batch(chromosomes):
            calls.append([list(c) for c in chromosomes])
            return [float(sum(c)) for c in chromosomes]

        def exploding_fitness(chromosome):  # pragma: no cover - must not run
            raise AssertionError("scalar fitness called despite batch hook")

        ga = GeneticAlgorithm(
            [1, 2, 3], exploding_fitness,
            config=GAConfig(population_size=4, generations=2),
            seed=3, fitness_batch=fake_batch,
        )
        result = ga.run()
        assert result.best_fitness == 6.0
        assert calls  # the hook did all the scoring


class TestOnlineVectorizedOptIn:
    def _run(self, vectorized: bool):
        catalog = build_catalog()
        cost_model = CostModel(catalog, params=CostParameters())
        rates = DiscountRates.symmetric(0.1)
        workload = build_workload(
            [(0, 1.0, 9_000.0), (1, 1.05, 8_000.0), (2, 1.1, 7_000.0),
             (3, 1.15, 9_500.0), (4, 1.2, 6_500.0), (5, 1.25, 8_500.0)]
        )
        scheduler = OnlineMQOScheduler(
            catalog, cost_model, rates,
            ga_config=GAConfig(population_size=8, generations=5),
            seed=17,
            config=OnlineConfig(
                window=4.0, max_pending=16, vectorized_ga=vectorized
            ),
        )
        return scheduler.run(workload)

    def test_vectorized_run_matches_scalar_run(self):
        scalar = self._run(vectorized=False)
        vectorized = self._run(vectorized=True)
        assert vectorized.stats.dispatched == scalar.stats.dispatched
        assert math.isclose(
            vectorized.total_information_value,
            scalar.total_information_value,
            rel_tol=1e-6,
        )
