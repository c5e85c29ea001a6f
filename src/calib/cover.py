"""Incremental false-positive bookkeeping for the tree search.

A CoverState holds the false positives (negatives some classifier currently
scores above its threshold) as a packed bitset ``fp``: one bit per negative,
little-endian in ceil(N/64) uint64 words.  ``rows[j, t]`` packs the
negatives scoring strictly above classifier j's candidate t, the rule
``compute_loss`` uses, in E x (max candidates) x ceil(N/64) x 8 bytes,
packed by ``thresholds.packed_above`` as the oracle's masks are.  An edge
to candidate t newly covers ``rows[j, t] & ~fp``, so one vectorized call
prices every child of a node, and equal sets are byte-equal.
``cost[j, t]`` counts the negatives in ``rows[j, t]``.

Positives need no bits: positive p is covered once some classifier j has
reached ``cover_position[j, p]``, its first candidate strictly below p's
score, so coverage is read off the current positions.  At the root,
covering p through classifier j concedes ``cost[j, cover_position[j, p]]``
negatives.
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
        self.problem = problem
        self.grid = grid
        self.rows = packed_above(problem.negative_scores, grid.thresholds)
        # Earliest candidate strictly below each positive's score: the count of
        # candidates at or above it.  Negated rows ascend; +inf padding counts for none.
        self.cover_position = np.array([
            row.searchsorted(scores, side="right")
            for row, scores in zip(-grid.thresholds, -problem.positive_scores)])
        self.cost = np.bitwise_count(self.rows).sum(-1, dtype=np.int64)
        reached = self.cover_position < grid.lengths[:, None]
        assert reached.all(), "positive with no candidate below it"
        assert not self.cost[:, 0].any(), "tightest candidate must cost nothing"

        self.positions = np.zeros(len(grid), dtype=np.intp)
        self.fp = np.zeros(self.rows.shape[2], dtype=np.uint64)
        self.fp_count = 0
        # (classifier, old position, previous fp, previous fp_count)
        self.journal: list[tuple[int, int, np.ndarray, int]] = []

    def peek_edge(self, classifier, target) -> tuple[np.ndarray, np.ndarray]:
        """Loss increase and newly covered negatives of edges, unapplied.

        Takes one classifier and target, or equal-length arrays of them and
        then returns one loss increase and one packed row per edge.
        """
        cur = self.positions[classifier]
        if (target < cur).any():
            raise MonotonicityViolation(
                f"classifier {classifier}: target position {target} is tighter "
                f"than current {cur}"
            )
        newly = self.rows[classifier, target] & ~self.fp
        return np.bitwise_count(newly).sum(-1), newly

    def apply_edge(self, classifier: int, target: int) -> int:
        """Lower one classifier's threshold to a candidate position.

        Returns the new total false-positive count.  Raises
        MonotonicityViolation if the target is tighter than the current
        position; a no-op edge (target == current) is journaled like any
        other.
        """
        old = self.positions.item(classifier)
        if target < old:
            raise MonotonicityViolation(
                f"classifier {classifier}: target position {target} is tighter "
                f"than current {old}"
            )
        # A new array each time, so the journal keeps the previous one as is.
        self.journal.append((classifier, old, self.fp, self.fp_count))
        self.fp = self.fp | self.rows[classifier, target]
        self.fp_count = int(np.bitwise_count(self.fp).sum())
        self.positions[classifier] = target
        return self.fp_count

    def undo_edge(self) -> None:
        """Exact inverse of the most recent apply_edge."""
        if not self.journal:
            raise EmptyJournal("undo with no pending apply")
        classifier, old, self.fp, self.fp_count = self.journal.pop()
        self.positions[classifier] = old
