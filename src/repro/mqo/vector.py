"""Vectorized batch realization of candidate orders (numpy).

The GA scores a whole population of same-length permutations every
generation; the scalar fast path replays them one position at a time in
Python.  This module lowers the evaluator's compiled candidate records
into dense numpy arrays and realizes **all B orders of one batch in
lock-step**: each position is a fixed couple of dozen array operations
over a ``[B, maxC]`` candidate matrix instead of ``B`` Python loops.

The batches are small (tens of orders, a handful of candidates), so the
kernel is shaped to issue few numpy calls rather than few flops:

* every static per-candidate array is gathered **once per batch** into
  position-major ``[L, B, maxC(, ...)]`` form;
* freshness is **one lookup per position** for all read tables at once.
  At build time the completions of every read replica are merged into
  one sorted union ``U``, and a stamp table holds, for each table and
  each ``r``, the table's latest completion ``≤ U[r-1]`` (its initial
  timestamp for none).  A position then costs one
  ``r = searchsorted(U, begin, "right")`` and a masked ``min`` over
  ``stamp[:, r]`` — exact, because each table's completions are a subset
  of ``U`` and ``min`` is exact;
* only the **sync window** a batch can read is copied: per replica, from
  the last completion at or before the compiled set's earliest begin up
  to a horizon.  A batch whose site clocks run past the horizon widens
  the window and is scored again, so the copy is O(window), not
  O(history), however long the stream ran.

Equivalence contract
--------------------

The arithmetic mirrors :meth:`WorkloadEvaluator._choose_fast` exactly:

* ``completed = (begin + processing) + transmission`` — the same two-add
  association order;
* discount factors with rate-zero elision: a rate of zero is compiled as
  base ``0.0`` and stored here as ``1.0``, and ``1.0 ** y`` is exactly
  ``1`` for every ``y`` (C99 Annex F), so the factor is exactly ``1``;
* freshness equal to a right-bisect into each replica's completions;
* candidate choice by **first** strict maximum (``np.argmax`` returns the
  first of equal maxima, matching the scalar loop's strict ``>``).

numpy's ``power`` and libm's ``pow`` may still disagree in the last ulp,
and a near-tie between two candidates can then flip a choice, so batch
totals agree with :meth:`WorkloadEvaluator.evaluate_sequence` within
``REL_TOLERANCE`` relative rather than bit-for-bit
(``tests/test_mqo_vector.py`` property-tests the bound, and holds this
kernel bit for bit to the per-table loop it replaced).  The golden
scenarios keep the scalar path; ``OnlineConfig(vectorized_ga=True)`` opts
in, as the EXT5 burst schedule (``BENCH_scale.json``) and the benchmark's
``burst`` workload do.

numpy is optional at import time: ``HAS_NUMPY`` gates construction so the
rest of ``repro.mqo`` works without it.
"""

from __future__ import annotations

import typing
from bisect import bisect_right

from repro.errors import OptimizationError
from repro.mqo.evaluator import _TIMELINE_SLACK

try:  # pragma: no cover - import guard
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - numpy is present in CI
    np = None  # type: ignore[assignment]
    HAS_NUMPY = False

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence

    from repro.mqo.evaluator import WorkloadEvaluator

__all__ = ["HAS_NUMPY", "REL_TOLERANCE", "VectorizedEvaluator"]

#: Documented relative tolerance between batch totals and the scalar
#: fast path (last-ulp ``pow`` differences, see module docstring).
REL_TOLERANCE = 1e-9


class VectorizedEvaluator:
    """Scores batches of candidate orders against compiled numpy tables.

    Built over a :class:`WorkloadEvaluator`'s compiled per-query records
    for a fixed set of query ids; :meth:`evaluate_batch` then realizes
    any batch of equal-length, distinct-id orders drawn from that set.
    The committed base availability is read from the evaluator at call
    time, so :meth:`WorkloadEvaluator.rebase` is honoured automatically.
    """

    def __init__(
        self,
        evaluator: "WorkloadEvaluator",
        query_ids: "Sequence[int] | None" = None,
    ) -> None:
        if not HAS_NUMPY:
            raise OptimizationError(
                "vectorized evaluation requires numpy, which is not installed"
            )
        self.evaluator = evaluator
        if query_ids is None:
            query_ids = [q.query_id for q in evaluator.workload.queries]
        ids = list(query_ids)
        if not ids:
            raise OptimizationError("vectorized evaluation needs >= 1 query")
        compiled = [evaluator._compiled_query(qid) for qid in ids]
        self._row_of = {qid: row for row, qid in enumerate(ids)}

        sites: set[int] = set()
        replicas = {}  # table -> replica, in first-read order
        max_cands = 1
        for record in compiled:
            max_cands = max(max_cands, len(record.candidates))
            for cand in record.candidates:
                sites.update(cand.sites)
                for timeline in cand.timelines:
                    replica = timeline.replica
                    replicas.setdefault(replica.name, replica)
        self._sites = sorted(sites)
        site_col = {site: col for col, site in enumerate(self._sites)}
        table_col = {table: col for col, table in enumerate(replicas)}
        self._replicas = list(replicas.values())
        n, c, s = len(ids), max_cands, len(self._sites)

        self._arrival = np.zeros((n, c))
        self._earliest = np.zeros((n, c))
        self._processing = np.zeros((n, c))
        self._transmission = np.zeros((n, c))
        # Padding candidates score -inf, so they never win a position.
        self._bv = np.full((n, c), -np.inf)
        # Rate-zero-guarded discount bases: 1.0 where the factor is elided.
        self._comp_base = np.ones((n, c))
        self._sync_base = np.ones((n, c))
        self._has_base = np.zeros((n, c), dtype=bool)
        # Site and table axes lead, so per-candidate reductions run over
        # axis 0 (elementwise across [B, maxC] slabs, the fast direction).
        self._involved = np.zeros((s, n, c), dtype=bool)
        self._legs = np.full((s, n, c), -np.inf)
        self._member = np.zeros((len(table_col), n, c), dtype=bool)

        for row, record in enumerate(compiled):
            self._arrival[row] = record.arrival
            for col, cand in enumerate(record.candidates):
                self._earliest[row, col] = cand.earliest_begin
                self._processing[row, col] = cand.processing
                self._transmission[row, col] = cand.transmission
                self._bv[row, col] = cand.business_value
                if cand.comp_base != 0.0:
                    self._comp_base[row, col] = cand.comp_base
                if cand.sync_base != 0.0:
                    self._sync_base[row, col] = cand.sync_base
                self._has_base[row, col] = cand.has_base
                for site in cand.sites:
                    self._involved[site_col[site], row, col] = True
                for site, minutes in cand.commit_legs:
                    self._legs[site_col[site], row, col] = minutes
                for timeline in cand.timelines:
                    table = table_col[timeline.replica.name]
                    self._member[table, row, col] = True
        # Every begin is >= its candidate's earliest begin, so no lookup
        # reads a completion older than the last one at or before this.
        earliest = [
            cand.earliest_begin for record in compiled
            for cand in record.candidates
        ]
        self._floor = min(earliest)
        self._sync(max(earliest) + _TIMELINE_SLACK)

    def _sync(self, horizon: float) -> None:
        """Copy each replica's sync window through ``horizon`` and build
        the union ``_union`` plus the ``[tables, |U| + 1]`` stamp table."""
        windows = []
        for replica in self._replicas:
            times = replica.completions_through(horizon)
            first = max(bisect_right(times, self._floor) - 1, 0)
            windows.append(times[first:bisect_right(times, horizon)])
        self._union = np.array(sorted(set().union(*windows)), dtype=float)
        probes = np.append(-np.inf, self._union)
        columns = [
            np.append(replica.initial_timestamp, window)[
                np.searchsorted(window, probes, side="right")
            ]
            for replica, window in zip(self._replicas, windows)
        ]
        self._stamps = np.array(columns).reshape(len(columns), probes.size)
        self._horizon = horizon

    # -- batch realization -------------------------------------------------

    def evaluate_batch(
        self, orders: "Sequence[Sequence[int]]"
    ) -> "np.ndarray":
        """Total realized IV of each order, as one ``[B]`` array.

        All orders must have the same length and draw distinct ids from
        the compiled set; base availability comes from the evaluator's
        current :meth:`~WorkloadEvaluator.rebase` state.
        """
        if not orders:
            return np.zeros(0)
        length = len(orders[0])
        if any(len(order) != length for order in orders):
            raise OptimizationError(
                "batch orders must all have the same length"
            )
        try:
            index = np.array(
                [[self._row_of[qid] for qid in order] for order in orders],
                dtype=np.intp,
            )
        except KeyError as exc:
            raise OptimizationError(
                f"query {exc.args[0]} was not compiled into this batch evaluator"
            ) from exc
        batch = len(orders)
        # One occupancy mask per batch: a repeated id leaves a row short.
        # (Not np.sort: its SIMD kernels add ~0.5 MB of resident code.)
        seen = np.zeros((batch, len(self._arrival)), dtype=bool)
        seen[np.arange(batch)[:, None], index] = True
        if np.count_nonzero(seen) != index.size:
            raise OptimizationError("sequence must not repeat query ids")
        base = self.evaluator._base_free_at
        free = np.array([[base.get(site, 0.0)] for site in self._sites])
        totals = np.zeros(batch)
        offsets = np.arange(batch) * self._bv.shape[1]
        rows = index.T  # position-major: every gather below is [L, ...]

        def gather(table):  # [n, c] -> [L, B, c]
            return table.take(rows, axis=0)

        def by_position(table):  # [K, n, c] -> [L, K, B, c] (a view)
            return table.take(rows, axis=1).swapaxes(0, 1)

        for (arrival, earliest, processing, transmission, bv, comp_base,
             sync_base, has_base, involved, legs, member) in zip(
            *map(gather, (
                self._arrival, self._earliest, self._processing,
                self._transmission, self._bv, self._comp_base,
                self._sync_base, self._has_base,
            )),
            *map(by_position, (self._involved, self._legs, self._member)),
        ):
            busy = np.where(involved, free[:, :, None], -np.inf).max(0)
            begin = np.maximum(earliest, busy)
            # Two adds in scalar order: (begin + processing) + transmission.
            completed = (begin + processing) + transmission
            found = self._union.searchsorted(begin, "right")
            stamp = np.where(  # inf where a candidate reads no replica
                member, self._stamps.take(found, axis=1), np.inf
            ).min(0, initial=np.inf)
            np.minimum(stamp, begin, out=stamp, where=has_base)
            sync_latency = np.maximum(completed - stamp, 0.0)
            ivs = bv * np.power(comp_base, completed - arrival) * np.power(
                sync_base, sync_latency
            )
            chosen = ivs.argmax(axis=1) + offsets  # first max, like ">"
            totals += ivs.take(chosen)
            free = np.maximum(
                free,
                begin.take(chosen) + legs.reshape(len(legs), -1).take(
                    chosen, axis=1
                ),
            )
        # A begin is max(earliest, busy): earliest lies below the horizon
        # and busy below the final free, which only grows.  If free passed
        # the copied window a lookup may have too: widen it and rescore.
        peak = float(free.max())
        if peak > self._horizon:
            self._sync(peak + _TIMELINE_SLACK)
            return self.evaluate_batch(orders)
        return totals

    def fitness_batch(
        self, chromosomes: "Sequence[Sequence[int]]"
    ) -> list[float]:
        """GA batch-fitness hook (``GeneticAlgorithm(fitness_batch=...)``)."""
        return [float(value) for value in self.evaluate_batch(chromosomes)]
