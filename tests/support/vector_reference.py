"""The per-table lock-step batch loop, kept verbatim as a test oracle.

This is the numpy batch evaluator as it stood before the position-major
kernel in :mod:`repro.mqo.vector`: every position gathers each static
per-candidate array afresh, resolves freshness with one ``searchsorted``
per read table, and each table copies its replica's whole materialised
sync history.  It is slow but obviously right, so the property tests in
``tests/test_mqo_vector.py`` hold the production kernel to it bit for bit.
Do not optimise it.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.errors import OptimizationError
from repro.mqo.evaluator import _TIMELINE_SLACK

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence

    from repro.mqo.evaluator import WorkloadEvaluator

__all__ = ["ReferenceVectorizedEvaluator"]


class _TableTimes:
    """One replica's sync completions as a numpy array with a watermark."""

    __slots__ = ("replica", "times", "initial", "covered")

    def __init__(self, replica, covered: float) -> None:
        self.replica = replica
        self.times = np.asarray(
            replica.completions_through(covered), dtype=np.float64
        )
        self.initial = replica.initial_timestamp
        self.covered = covered

    def ensure(self, through: float) -> None:
        if through > self.covered:
            horizon = through + _TIMELINE_SLACK
            self.times = np.asarray(
                self.replica.completions_through(horizon), dtype=np.float64
            )
            self.covered = horizon


class ReferenceVectorizedEvaluator:
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
        self.evaluator = evaluator
        if query_ids is None:
            query_ids = [q.query_id for q in evaluator.workload.queries]
        ids = list(query_ids)
        if not ids:
            raise OptimizationError("vectorized evaluation needs >= 1 query")
        compiled = [evaluator._compiled_query(qid) for qid in ids]
        self._row_of = {qid: row for row, qid in enumerate(ids)}

        sites: set[int] = set()
        tables: set[str] = set()
        max_cands = 1
        for record in compiled:
            max_cands = max(max_cands, len(record.candidates))
            for cand in record.candidates:
                sites.update(cand.sites)
                tables.update(t.replica.name for t in cand.timelines)
        self._sites = sorted(sites)
        site_col = {site: col for col, site in enumerate(self._sites)}
        n, c, s = len(ids), max_cands, len(self._sites)

        self._arrival = np.zeros(n)
        self._valid = np.zeros((n, c), dtype=bool)
        self._earliest = np.zeros((n, c))
        self._processing = np.zeros((n, c))
        self._transmission = np.zeros((n, c))
        self._bv = np.zeros((n, c))
        self._comp_base = np.zeros((n, c))
        self._sync_base = np.zeros((n, c))
        self._has_base = np.zeros((n, c), dtype=bool)
        self._involved = np.zeros((n, c, s), dtype=bool)
        self._legs = np.full((n, c, s), -np.inf)
        # table -> (sync completion times, bool[n, c] read-membership)
        self._reads: dict[str, tuple[_TableTimes, "np.ndarray"]] = {}
        member_of = {table: np.zeros((n, c), dtype=bool) for table in tables}

        for row, record in enumerate(compiled):
            self._arrival[row] = record.arrival
            for col, cand in enumerate(record.candidates):
                self._valid[row, col] = True
                self._earliest[row, col] = cand.earliest_begin
                self._processing[row, col] = cand.processing
                self._transmission[row, col] = cand.transmission
                self._bv[row, col] = cand.business_value
                self._comp_base[row, col] = cand.comp_base
                self._sync_base[row, col] = cand.sync_base
                self._has_base[row, col] = cand.has_base
                for site in cand.sites:
                    self._involved[row, col, site_col[site]] = True
                for site, minutes in cand.commit_legs:
                    self._legs[row, col, site_col[site]] = minutes
                covered = cand.earliest_begin + _TIMELINE_SLACK
                for timeline in cand.timelines:
                    table = timeline.replica.name
                    member_of[table][row, col] = True
                    read = self._reads.get(table)
                    if read is None:
                        self._reads[table] = (
                            _TableTimes(timeline.replica, covered),
                            member_of[table],
                        )
                    else:
                        read[0].ensure(covered)

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
                [[self._row_of[qid] for qid in order] for order in orders]
            )
        except KeyError as exc:
            raise OptimizationError(
                f"query {exc.args[0]} was not compiled into this batch evaluator"
            ) from exc
        batch = len(orders)
        rows_arange = np.arange(batch)
        base = self.evaluator._base_free_at
        free = np.zeros((batch, len(self._sites)))
        for col, site in enumerate(self._sites):
            free[:, col] = base.get(site, 0.0)
        totals = np.zeros(batch)
        for position in range(length):
            rows = index[:, position]
            valid = self._valid[rows]
            busy = np.where(
                self._involved[rows], free[:, None, :], -np.inf
            ).max(axis=2)
            begin = np.maximum(self._earliest[rows], busy)
            # Two adds in scalar order: (begin + processing) + transmission.
            completed = (begin + self._processing[rows]) + (
                self._transmission[rows]
            )
            stamps = np.full_like(begin, np.inf)
            peak = float(begin.max())
            for table_times, member in self._reads.values():
                mem = member[rows]
                if not mem.any():
                    continue
                table_times.ensure(peak)
                times = table_times.times
                found = np.searchsorted(times, begin, side="right")
                if times.size:
                    at = times[np.maximum(found - 1, 0)]
                else:  # pragma: no cover - schedules are never empty
                    at = np.full_like(begin, table_times.initial)
                stamp = np.where(found > 0, at, table_times.initial)
                stamps = np.where(mem, np.minimum(stamps, stamp), stamps)
            stamp = np.where(
                self._has_base[rows], np.minimum(stamps, begin), stamps
            )
            comp_latency = completed - self._arrival[rows][:, None]
            sync_latency = np.maximum(completed - stamp, 0.0)
            comp_base = self._comp_base[rows]
            sync_base = self._sync_base[rows]
            ivs = self._bv[rows] * np.where(
                comp_base != 0.0,
                np.power(np.where(comp_base != 0.0, comp_base, 1.0),
                         comp_latency),
                1.0,
            ) * np.where(
                sync_base != 0.0,
                np.power(np.where(sync_base != 0.0, sync_base, 1.0),
                         sync_latency),
                1.0,
            )
            ivs = np.where(valid, ivs, -np.inf)
            choice = np.argmax(ivs, axis=1)  # first max, like scalar ">"
            chosen_begin = begin[rows_arange, choice]
            totals += ivs[rows_arange, choice]
            free = np.maximum(
                free, chosen_begin[:, None] + self._legs[rows, choice]
            )
        return totals
