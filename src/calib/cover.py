"""Incremental false-positive bookkeeping for the tree search.

A CoverState tracks, per sample, how many classifiers currently score it
positively, as thresholds are lowered edge by edge and restored on
backtrack.  Counts (not booleans) make undo O(touched) without rescanning
other classifiers.  Negatives and positives are pre-sorted by score once
per classifier, so the samples swept by one edge form a contiguous slice
and all per-edge work is vectorized over it.
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

        # Per classifier: sample indices sorted by score descending, plus for
        # every candidate position the count of samples scoring above it.
        # Candidates never equal any score, so prefix counts cut cleanly.
        self._neg_order: list[np.ndarray] = []
        self._pos_order: list[np.ndarray] = []
        self._neg_prefix: list[np.ndarray] = []
        self._pos_prefix: list[np.ndarray] = []
        self.cover_position: list[np.ndarray] = []
        for j in range(E):
            neg = problem.negative_scores[j]
            pos = problem.positive_scores[j]
            cand = np.array(candidates[j].thresholds)
            self._neg_order.append(np.argsort(-neg, kind="stable"))
            self._pos_order.append(np.argsort(-pos, kind="stable"))
            neg_sorted = np.sort(neg)
            pos_sorted = np.sort(pos)
            self._neg_prefix.append(
                len(neg) - np.searchsorted(neg_sorted, cand, side="right")
            )
            self._pos_prefix.append(
                len(pos) - np.searchsorted(pos_sorted, cand, side="right")
            )
            assert self._neg_prefix[j][0] == 0, "tightest candidate must cost nothing"
            # Earliest candidate position strictly below each positive's
            # score; exists for every positive by construction.
            count_below = np.searchsorted(cand[::-1], pos, side="left")
            assert (count_below > 0).all(), "positive with no candidate below it"
            self.cover_position.append(len(cand) - count_below)

        self.positions = [0] * E
        self.neg_count = np.zeros(problem.num_negatives, dtype=np.int32)
        self.pos_count = np.zeros(problem.num_positives, dtype=np.int32)
        self.fp_count = 0
        self.journal: list[tuple[int, int, np.ndarray]] = []
        for j in range(E):
            self.pos_count[self._pos_order[j][: self._pos_prefix[j][0]]] += 1

    def _neg_slice(self, classifier: int, lo: int, hi: int) -> np.ndarray:
        prefix = self._neg_prefix[classifier]
        return self._neg_order[classifier][prefix[lo]: prefix[hi]]

    def peek_edge(self, classifier: int, target: int) -> tuple[int, np.ndarray]:
        """Loss increase and newly covered negatives of an edge, unapplied.

        The returned indices are sorted ascending, so equal sets compare
        equal elementwise (and byte-wise).
        """
        cur = self.positions[classifier]
        if target < cur:
            raise MonotonicityViolation(
                f"classifier {classifier}: target position {target} is tighter "
                f"than current {cur}"
            )
        sl = self._neg_slice(classifier, cur, target)
        newly = np.sort(sl[self.neg_count[sl] == 0])
        return len(newly), newly

    def apply_edge(self, classifier: int, target: int) -> tuple[int, np.ndarray]:
        """Lower one classifier's threshold to a candidate position.

        Returns the new total false-positive count and the (ascending)
        negatives whose coverage count rose from zero.  Raises
        MonotonicityViolation if the target is tighter than the current
        position; a no-op edge (target == current) is journaled like any
        other.
        """
        cur = self.positions[classifier]
        if target < cur:
            raise MonotonicityViolation(
                f"classifier {classifier}: target position {target} is tighter "
                f"than current {cur}"
            )
        sl = self._neg_slice(classifier, cur, target)
        newly = np.sort(sl[self.neg_count[sl] == 0])
        self.neg_count[sl] += 1
        self.fp_count += len(newly)
        pos_prefix = self._pos_prefix[classifier]
        psl = self._pos_order[classifier][pos_prefix[cur]: pos_prefix[target]]
        self.pos_count[psl] += 1
        self.journal.append((classifier, cur, newly))
        self.positions[classifier] = target
        return self.fp_count, newly

    def undo_edge(self) -> None:
        """Exact inverse of the most recent apply_edge."""
        if not self.journal:
            raise EmptyJournal("undo with no pending apply")
        classifier, old, newly = self.journal.pop()
        cur = self.positions[classifier]
        sl = self._neg_slice(classifier, old, cur)
        self.neg_count[sl] -= 1
        dropped = int((self.neg_count[sl] == 0).sum())
        self.fp_count -= dropped
        assert dropped == len(newly), "undo does not mirror its apply"
        pos_prefix = self._pos_prefix[classifier]
        psl = self._pos_order[classifier][pos_prefix[old]: pos_prefix[cur]]
        self.pos_count[psl] -= 1
        self.positions[classifier] = old

    def is_positive_covered(self, positive: int) -> bool:
        return bool(self.pos_count[positive] > 0)

    def covering_classifier(self, positive: int) -> int:
        """Smallest classifier index currently covering the given positive."""
        s = self.problem.positive_scores[:, positive]
        for j in range(self.problem.num_classifiers):
            if s[j] > self.candidates[j].thresholds[self.positions[j]]:
                return j
        raise ValueError(f"positive {positive} is not covered")

    def config(self) -> tuple[float, ...]:
        """Threshold values of the current candidate positions."""
        return tuple(
            self.candidates[j].thresholds[p] for j, p in enumerate(self.positions)
        )

    def assert_consistent(self) -> None:
        """Debug oracle: incremental counters must match batch recomputation."""
        assert self.fp_count == int((self.neg_count > 0).sum())
        assert self.fp_count == compute_loss(self.problem, self.config())
