"""Incremental false-positive bookkeeping for the tree search.

A CoverState holds the false positives (negatives some classifier currently
scores above its threshold) as a packed bitset ``fp``: one bit per negative,
little-endian in ceil(N/64) uint64 words.  The search lowers a classifier
only ever just enough to cover one live positive (one no classifier covers
at the root), so rows are packed for those edges alone: ``rows[j, d]``,
d >= 1, packs the negatives scoring strictly above the candidate at
``row_position[j, d]``, classifier j's cover position of live positive
``live[d - 1]``, under the rule ``compute_loss`` uses; ``rows[j, 0]`` is the
empty row of the tightest candidate, position 0.  That is E x (L + 1) x
ceil(N/64) x 8 bytes for L live positives, packed by
``thresholds.packed_above`` as the oracle's masks are.

Positives need no bits: positive p is covered once some classifier j has
reached ``cover_position[j, p]``, its first candidate strictly below p's
score, so coverage is read off the current positions.  At the root,
covering p through classifier j concedes ``cost[j, p]`` negatives, the
candidate's count in ``CandidateGrid.conceded``.

A search node is one step over its level's row d.  ``peek_edge(d, bound)``
first tests the level's positive against every position; if it is not yet
covered, every edge lowers its classifier, and one vectorized call prices
them as unions ``rows[j, d] | fp`` and their popcounts, the children's
false-positive totals.  Packed bits are canonical, so equal unions are
byte-equal.  ``apply_edge`` enters one child with the total already
priced, and ORs its row into a new set without recounting it.

An edge's child concedes at least the edge's own row, ``edge_cost[j, d]``
negatives.  Under a bound U, the search's incumbent loss, an edge whose
cost reaches U can lie on no better leaf, so ``peek_edge`` prices only the
live edges, those costing less than U, in ascending j.  Their rows are
copied together the first time a row is priced under each bound; the
search's local search reads the same copies below its own bound.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyJournal, MonotonicityViolation
from .problem import Problem
from .thresholds import CandidateGrid, packed_above


class CoverState:
    """Mutable coverage state over the candidate grid of one problem.

    Starts at the all-tightest root configuration (zero false positives).
    Exclusively owned by one search; the underlying Problem stays immutable
    and shareable.
    """

    def __init__(self, problem: Problem, grid: CandidateGrid):
        if len(grid) != problem.num_classifiers:
            raise ValueError("candidate grid does not match problem")
        # Earliest candidate strictly below each positive's score: the count of
        # candidates at or above it.  Negated rows ascend; +inf padding counts for none.
        self.cover_position = np.array([
            row.searchsorted(scores, side="right")
            for row, scores in zip(-grid.thresholds, -problem.positive_scores)])
        reached = self.cover_position < grid.lengths[:, None]
        assert reached.all(), "positive with no candidate below it"
        classifiers = np.arange(len(grid))[:, None]
        self.cost = grid.conceded[classifiers, self.cover_position]
        self.live = np.flatnonzero(self.cover_position.min(axis=0) > 0)
        self.row_position = np.zeros((len(grid), len(self.live) + 1), dtype=np.intp)
        self.row_position[:, 1:] = self.cover_position[:, self.live]
        self.rows = packed_above(problem.negative_scores,
                                 grid.thresholds[classifiers, self.row_position])
        # The negatives each row holds, its candidate's conceded count.
        self.edge_cost = grid.conceded[classifiers, self.row_position]
        self.classifiers = np.arange(len(grid))
        # live_edges' rows, for the last bound asked.
        self.live_bound: int | None = None
        self.live_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        self.positions = np.zeros(len(grid), dtype=np.intp)
        self.fp = np.zeros(self.rows.shape[2], dtype=np.uint64)
        self.fp_count = 0
        # (classifier, old position, previous fp, previous fp_count)
        self.journal: list[tuple[int, int, np.ndarray, int]] = []

    def live_edges(self, row: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
        """The classifiers whose edge to ``row`` costs less than ``bound``, in
        ascending j, and a contiguous copy of their rows, kept until another
        bound is asked."""
        if bound != self.live_bound:
            self.live_bound, self.live_rows = bound, {}
        live = self.live_rows.get(row)
        if live is None:
            js = (self.edge_cost[:, row] < bound).nonzero()[0]
            live = self.live_rows[row] = js, self.rows[js, row]
        return live

    def peek_edge(self, row: int, bound: int | None) -> tuple | None:
        """The level of edges to ``row``, priced as false-positive totals and
        packed unions ``rows[j, row] | fp``, unapplied.

        Returns None once some classifier has reached its target: the
        level's positive is covered.  Otherwise returns ``(classifiers,
        totals, unions)`` for the live edges, in ascending j: every
        classifier when ``bound`` is None, else those whose ``edge_cost``
        is below it.
        """
        reached = self.positions >= self.row_position[:, row]
        if reached[reached.argmax()]:
            return None
        if bound is None:
            classifiers, rows = self.classifiers, self.rows[:, row]
        else:
            classifiers, rows = self.live_edges(row, bound)
        unions = rows | self.fp
        return classifiers, np.add.reduce(np.bitwise_count(unions), axis=-1), unions

    def apply_edge(self, classifier: int, row: int, total: int) -> None:
        """Lower one classifier's threshold to the candidate of one of its rows.

        ``total`` is the edge's false-positive total as ``peek_edge`` priced
        it at this state, and becomes ``fp_count`` without a recount.
        Raises MonotonicityViolation if the candidate is tighter than the
        current position; a no-op edge (same position) is journaled like
        any other.
        """
        old = self.positions.item(classifier)
        target = self.row_position.item(classifier, row)
        if target < old:
            raise MonotonicityViolation(
                f"classifier {classifier}: target position {target} is tighter "
                f"than current {old}"
            )
        # A new array each time, so the journal keeps the previous one as is.
        self.journal.append((classifier, old, self.fp, self.fp_count))
        self.fp = self.fp | self.rows[classifier, row]
        self.fp_count = total
        self.positions[classifier] = target

    def undo_edge(self) -> None:
        """Exact inverse of the most recent apply_edge."""
        if not self.journal:
            raise EmptyJournal("undo with no pending apply")
        classifier, old, self.fp, self.fp_count = self.journal.pop()
        self.positions[classifier] = old
