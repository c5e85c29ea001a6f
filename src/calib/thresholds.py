"""Candidate threshold extraction.

Only finitely many thresholds per classifier can matter: the loss changes
only when a threshold crosses a negative's score, and the constraints only
when it crosses a positive's score.  It is enough to consider one threshold
in each gap directly below a positive whose next-lower distinct score
belongs to a negative, plus a floor below the bottom-most positive, plus a
sentinel above everything when the top score belongs to a negative.  That is
at most P + 1 candidates per classifier, found for all classifiers at once
from one sort of each classifier's scores.

A gap's candidate is the midpoint of its two distinct scores when that lies
strictly between them.  Where it does not (adjacent floats, or a sum that
overflows) it is the lower score itself, which concedes the same negatives,
since a score equal to the threshold is scored negatively.  The floor sits
below the bottom score by 1.0, or by one float where 1.0 is absorbed; a
positive at the lowest finite float has no finite threshold below it and is
rejected.  The sentinel is the top score plus 1.0, which concedes nothing
even where the 1.0 is absorbed.

Samples with exactly equal scores are inseparable: a positive tied with a
negative forces that negative's coverage, because a threshold must lie
strictly below the positive's score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .problem import Problem

# Cap on the boolean comparison that packs one block of classifiers.
_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True, eq=False)
class CandidateGrid:
    """Descending candidate thresholds of every classifier of a problem.

    Row j of ``thresholds`` (E x T, read-only) holds classifier j's
    ``lengths[j]`` candidates, padded with -inf.  The first (tightest)
    candidate concedes no negative; each later one concedes strictly more,
    and the last covers every positive.
    """

    thresholds: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    def config(self, positions) -> tuple[float, ...]:
        """Threshold values at one candidate position per classifier."""
        return tuple(self.thresholds[np.arange(len(self)), positions].tolist())


def extract_candidates(problem: Problem) -> CandidateGrid:
    """Per-classifier candidate thresholds sufficient for global optimality."""
    scores = np.concatenate([problem.positive_scores, problem.negative_scores], axis=1)
    order = np.argsort(scores, axis=1)
    s = np.take_along_axis(scores, order, axis=1)  # each row ascending
    # Number the groups of equal scores row after row, then flag each sample
    # by whether its group holds a positive and whether it holds a negative.
    starts = np.ones(s.shape, dtype=bool)
    np.not_equal(s[:, 1:], s[:, :-1], out=starts[:, 1:])
    group = np.cumsum(starts).reshape(s.shape) - 1
    positive = order < problem.num_positives
    has_pos = np.zeros(group.size, dtype=bool)  # no more groups than samples
    has_neg = np.zeros(group.size, dtype=bool)
    has_pos[group[positive]] = True
    has_neg[group[~positive]] = True
    has_pos, has_neg = has_pos[group], has_neg[group]

    below, above = s[:, :-1], s[:, 1:]
    with np.errstate(over="ignore"):
        mid = (above + below) / 2.0
        floor = np.minimum(s[:, 0] - 1.0, np.nextafter(s[:, 0], -np.inf))
    unserved = has_pos[:, 0] & ~np.isfinite(floor)
    if unserved.any():
        j = int(np.argmax(unserved))
        raise ValidationError(
            f"classifier {j}: positive score {float(s[j, 0])!r} has no finite "
            "threshold below it"
        )
    # Descending: a sentinel disabling the classifier, the only zero-cost
    # candidate when the top group has a negative; one candidate per start
    # of a group with a positive directly above a group with a negative;
    # the floor.
    values = np.column_stack(
        [floor, np.where((below < mid) & (mid < above), mid, below), s[:, -1] + 1.0]
    )[:, ::-1]
    kept = np.column_stack(
        [has_pos[:, 0], starts[:, 1:] & has_pos[:, 1:] & has_neg[:, :-1], has_neg[:, -1]]
    )[:, ::-1]
    lengths = kept.sum(axis=1)
    thresholds = np.full((len(lengths), lengths.max()), -np.inf)
    thresholds[np.arange(lengths.max()) < lengths[:, None]] = values[kept]
    thresholds.flags.writeable = False
    lengths.flags.writeable = False
    return CandidateGrid(thresholds=thresholds, lengths=lengths)


def packed_above(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """(E, T, ceil(n/64)) uint64 words: bit i of [j, t] is scores[j, i] > thresholds[j, t].

    Little-endian, as the search and the oracle read them, with padding bits
    clear; packs as many classifiers at once as fit ``_BLOCK_BYTES``.
    """
    E, n = scores.shape
    T = thresholds.shape[1]
    W = -(-n // 64)
    words = np.empty((E, T, W), dtype=np.uint64)
    block = max(1, _BLOCK_BYTES // max(1, T * W * 64))
    for lo in range(0, E, block):
        hi = min(lo + block, E)
        bits = np.zeros((hi - lo, T, W * 64), dtype=bool)
        np.greater(scores[lo:hi, None, :], thresholds[lo:hi, :, None], out=bits[..., :n])
        words[lo:hi] = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)
    return words
