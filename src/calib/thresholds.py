"""Candidate threshold extraction and per-positive difficulty.

Only finitely many thresholds per classifier can matter: the loss changes
only when a threshold crosses a negative's score, and the constraints only
when it crosses a positive's score.  It is enough to consider one threshold
in each gap directly below a positive whose next-lower distinct score
belongs to a negative, plus a floor below the bottom-most positive, plus a
sentinel above everything when the top score belongs to a negative.  Each
candidate is placed at the midpoint of the two adjacent distinct values
(offset 1.0 beyond the extremes), which keeps comparisons exact and the
whole set at most P + 1 per classifier.

Samples with exactly equal scores are inseparable: a positive tied with a
negative forces that negative's coverage, because a threshold must lie
strictly below the positive's score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import Problem


@dataclass(frozen=True)
class ClassifierCandidates:
    """Descending candidate thresholds for one classifier.

    The first (tightest) candidate concedes no negative; each later one
    concedes strictly more.
    """

    thresholds: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.thresholds)

    @property
    def tightest(self) -> float:
        return self.thresholds[0]

    @property
    def lowest(self) -> float:
        return self.thresholds[-1]


@dataclass(frozen=True)
class CandidateThresholdSet:
    """Candidate thresholds for every classifier of a problem."""

    per_classifier: tuple[ClassifierCandidates, ...]

    def __getitem__(self, j: int) -> ClassifierCandidates:
        return self.per_classifier[j]

    def __len__(self) -> int:
        return len(self.per_classifier)

    def lowest_config(self) -> tuple[float, ...]:
        """The all-lowest configuration, feasible by construction."""
        return tuple(c.lowest for c in self.per_classifier)


def _extract_one(pos: np.ndarray, neg: np.ndarray) -> ClassifierCandidates:
    # Distinct score values ascending, flagged by which side contributes.
    distinct, inverse = np.unique(np.concatenate([pos, neg]), return_inverse=True)
    has_pos = np.zeros(len(distinct), dtype=bool)
    has_neg = np.zeros(len(distinct), dtype=bool)
    has_pos[inverse[: pos.shape[0]]] = True
    has_neg[inverse[pos.shape[0]:]] = True

    thresholds: list[float] = []
    top = len(distinct) - 1
    if has_neg[top]:
        # Top group contains a negative: a sentinel disabling the classifier
        # is the only zero-cost candidate.
        thresholds.append(float(distinct[top]) + 1.0)
    for g in range(top, -1, -1):
        if not has_pos[g]:
            continue
        if g == 0:
            thresholds.append(float(distinct[0]) - 1.0)
        elif has_neg[g - 1]:
            thresholds.append(float(distinct[g] + distinct[g - 1]) / 2.0)
    return ClassifierCandidates(thresholds=tuple(thresholds))


def extract_candidates(problem: Problem) -> CandidateThresholdSet:
    """Per-classifier candidate thresholds sufficient for global optimality."""
    per = tuple(
        _extract_one(problem.positive_scores[j], problem.negative_scores[j])
        for j in range(problem.num_classifiers)
    )
    return CandidateThresholdSet(per_classifier=per)


@dataclass(frozen=True)
class DifficultyOrder:
    """Positives sorted by decreasing difficulty (ties: ascending index).

    ``difficulty[i]`` is min over classifiers of the false positives needed
    to cover positive i; placing hard positives at the top of the tree lets
    pruning by bound discard larger subtrees.
    """

    order: tuple[int, ...]
    difficulty: tuple[int, ...]


def difficulty_order(problem: Problem) -> DifficultyOrder:
    pos = problem.positive_scores  # (E, P)
    neg = problem.negative_scores  # (E, N)
    n = problem.num_negatives
    # For every (classifier, positive) pair, the false positives that
    # classifier must concede to cover the positive: negatives scoring >= it,
    # since a tied negative is covered whenever the positive is (the
    # threshold sits strictly below the positive's score).
    counts = np.empty(pos.shape, dtype=np.int64)
    for j in range(problem.num_classifiers):
        neg_sorted = np.sort(neg[j])
        counts[j] = n - np.searchsorted(neg_sorted, pos[j], side="left")
    diff = counts.min(axis=0)
    order = sorted(range(problem.num_positives), key=lambda i: (-diff[i], i))
    return DifficultyOrder(order=tuple(order), difficulty=tuple(int(d) for d in diff))
