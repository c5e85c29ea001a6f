"""Incremental false-positive bookkeeping for the tree search.

A CoverState tracks, per negative, how many classifiers currently score it
positively, as thresholds are lowered edge by edge and restored on
backtrack.  Counts (not booleans) make undo O(touched) without rescanning
other classifiers.  Negatives are pre-sorted by score once per classifier,
so the negatives swept by one edge form a contiguous slice and all per-edge
work is vectorized over it.

Positives need no counters: positive p is covered exactly when some
classifier j has reached candidate position ``cover_position[j, p]``, the
first candidate strictly below p's score, so coverage is read off the
current positions.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyJournal, MonotonicityViolation
from .problem import Problem, compute_loss
from .thresholds import CandidateThresholdSet


class CoverState:
    """Mutable coverage state over the candidate grid of one problem.

    Starts at the all-tightest root configuration (zero false positives).
    Exclusively owned by one search; the underlying Problem stays immutable
    and shareable.
    """

    def __init__(self, problem: Problem, candidates: CandidateThresholdSet):
        if len(candidates) != problem.num_classifiers:
            raise ValueError("candidate set does not match problem")
        self.problem = problem
        self.candidates = candidates
        E = problem.num_classifiers

        # Per classifier: negative indices sorted by score descending, plus
        # for every candidate position the count of negatives scoring above
        # it.  Candidates never equal any score, so prefix counts cut cleanly.
        self._neg_order: list[np.ndarray] = []
        self._neg_prefix: list[np.ndarray] = []
        self.cover_position = np.empty((E, problem.num_positives), dtype=np.intp)
        for j in range(E):
            neg = problem.negative_scores[j]
            cand = np.array(candidates[j].thresholds)
            self._neg_order.append(np.argsort(-neg, kind="stable"))
            self._neg_prefix.append(
                len(neg) - np.searchsorted(np.sort(neg), cand, side="right")
            )
            assert self._neg_prefix[j][0] == 0, "tightest candidate must cost nothing"
            # Earliest candidate position strictly below each positive's
            # score; exists for every positive by construction.
            pos = problem.positive_scores[j]
            count_below = np.searchsorted(cand[::-1], pos, side="left")
            assert (count_below > 0).all(), "positive with no candidate below it"
            self.cover_position[j] = len(cand) - count_below

        self.positions = np.zeros(E, dtype=np.intp)
        self.neg_count = np.zeros(problem.num_negatives, dtype=np.int32)
        self.fp_count = 0
        self.journal: list[tuple[int, int, int]] = []  # (classifier, old, inc)

    def _neg_slice(self, classifier: int, lo: int, hi: int) -> np.ndarray:
        prefix = self._neg_prefix[classifier]
        return self._neg_order[classifier][prefix[lo]: prefix[hi]]

    def _sweep(self, classifier: int, target: int) -> tuple[int, np.ndarray, np.ndarray]:
        """Current position, negatives an edge sweeps, and which are uncovered."""
        cur = int(self.positions[classifier])
        if target < cur:
            raise MonotonicityViolation(
                f"classifier {classifier}: target position {target} is tighter "
                f"than current {cur}"
            )
        sl = self._neg_slice(classifier, cur, target)
        return cur, sl, self.neg_count[sl] == 0

    def peek_edge(self, classifier: int, target: int) -> tuple[int, np.ndarray]:
        """Loss increase and newly covered negatives of an edge, unapplied.

        The returned indices are sorted ascending, so equal sets compare
        equal elementwise (and byte-wise).
        """
        _, sl, fresh = self._sweep(classifier, target)
        newly = np.sort(sl[fresh])
        return len(newly), newly

    def apply_edge(self, classifier: int, target: int) -> int:
        """Lower one classifier's threshold to a candidate position.

        Returns the new total false-positive count.  Raises
        MonotonicityViolation if the target is tighter than the current
        position; a no-op edge (target == current) is journaled like any
        other.
        """
        cur, sl, fresh = self._sweep(classifier, target)
        inc = int(np.count_nonzero(fresh))
        self.neg_count[sl] += 1
        self.fp_count += inc
        self.journal.append((classifier, cur, inc))
        self.positions[classifier] = target
        return self.fp_count

    def undo_edge(self) -> None:
        """Exact inverse of the most recent apply_edge."""
        if not self.journal:
            raise EmptyJournal("undo with no pending apply")
        classifier, old, inc = self.journal.pop()
        sl = self._neg_slice(classifier, old, self.positions[classifier])
        self.neg_count[sl] -= 1
        dropped = int(np.count_nonzero(self.neg_count[sl] == 0))
        self.fp_count -= dropped
        assert dropped == inc, "undo does not mirror its apply"
        self.positions[classifier] = old

    def is_positive_covered(self, positive: int) -> bool:
        return bool((self.positions >= self.cover_position[:, positive]).any())

    def covering_classifier(self, positive: int) -> int:
        """Smallest classifier index currently covering the given positive."""
        covering = np.flatnonzero(self.positions >= self.cover_position[:, positive])
        if not covering.size:
            raise ValueError(f"positive {positive} is not covered")
        return int(covering[0])

    def config(self) -> tuple[float, ...]:
        """Threshold values of the current candidate positions."""
        return tuple(
            self.candidates[j].thresholds[p] for j, p in enumerate(self.positions)
        )

    def assert_consistent(self) -> None:
        """Debug oracle: incremental counters must match batch recomputation."""
        assert self.fp_count == int((self.neg_count > 0).sum())
        assert self.fp_count == compute_loss(self.problem, self.config())
