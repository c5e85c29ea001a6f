"""Candidate threshold extraction.

Only finitely many thresholds per classifier can matter: the loss changes
only when a threshold crosses a negative's score, and the constraints only
when it crosses a positive's score.  It is enough to consider one threshold
in each gap directly below a positive whose next-lower distinct score
belongs to a negative, plus a floor below the bottom-most positive, plus a
sentinel above everything when the top score belongs to a negative.  That is
at most P + 1 candidates per classifier, found from a sort of each
classifier's positives and of its negatives: one ``searchsorted`` of the
positives among the negatives counts the negatives below each positive,
and a gap holds a negative exactly where that count rises.  The same counts
give the negatives each candidate concedes.

A gap's candidate is the midpoint of its two distinct scores when that lies
strictly between them.  Where it does not (adjacent floats, or a sum that
overflows) it is the lower score itself, which concedes the same negatives,
since a score equal to the threshold is scored negatively.  The floor sits
below the bottom score by 1.0, or by one float where 1.0 is absorbed; a
positive at the lowest finite float has no finite threshold below it and is
rejected.  The sentinel is the top score plus 1.0, which concedes nothing
even where the 1.0 is absorbed.  A zero candidate is always +0.0, so tied
-0.0 and 0.0 scores give the same grid in any column order.

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
    and the last covers every positive.  ``conceded[j, t]`` counts the
    negatives classifier j scores above its candidate t (N in the padding).
    """

    thresholds: np.ndarray
    lengths: np.ndarray
    conceded: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    def config(self, positions) -> tuple[float, ...]:
        """Threshold values at one candidate position per classifier."""
        return tuple(self.thresholds[np.arange(len(self)), positions].tolist())


def extract_candidates(problem: Problem) -> CandidateGrid:
    """Per-classifier candidate thresholds sufficient for global optimality."""
    ps = np.sort(problem.positive_scores, axis=1)
    E, P = ps.shape
    N = problem.num_negatives
    # Each row ascending after a -inf in column 0, so ns[j, c] is classifier
    # j's c-th lowest negative and ns[j, 0] stands in where there is none.
    ns = np.empty((E, N + 1))
    ns[:, 0] = -np.inf
    ns[:, 1:] = problem.negative_scores
    ns.sort(axis=1)
    # Slot i < P is the gap below the i-th lowest positive, slot P the
    # sentinel; below[j, i] counts j's negatives under slot i's positive.
    below = np.empty((E, P + 1), dtype=np.intp)
    below[:, P] = N
    for j in range(E):
        below[j, :P] = ns[j, 1:].searchsorted(ps[j])
    # A slot is kept when a negative lies between it and the slot below: the
    # next-lower distinct score of its positive is then a negative's, or,
    # for the sentinel, the top score is.  Slot 0 always has a candidate.
    kept = np.empty((E, P + 1), dtype=bool)
    kept[:, 0] = True
    np.greater(below[:, 1:], below[:, :-1], out=kept[:, 1:])

    # The highest negative under each slot, and for the gaps their midpoints.
    lower = np.take_along_axis(ns, below, axis=1)
    gap_low = lower[:, :P]
    with np.errstate(over="ignore"):
        mid = (ps + gap_low) / 2.0
        floor = np.minimum(ps[:, 0] - 1.0, np.nextafter(ps[:, 0], -np.inf))
    bottom = below[:, 0] == 0  # no negative under the lowest positive: the floor
    unserved = bottom & ~np.isfinite(floor)
    if unserved.any():
        j = int(np.argmax(unserved))
        raise ValidationError(
            f"classifier {j}: positive score {float(ps[j, 0])!r} has no finite "
            "threshold below it"
        )
    values = np.empty((E, P + 1))
    values[:, :P] = np.where((gap_low < mid) & (mid < ps), mid, gap_low)
    np.copyto(values[:, 0], floor, where=bottom)
    values[:, P] = lower[:, P] + 1.0
    # Descending, tightest first.
    kept, values, below = kept[:, ::-1], values[:, ::-1], below[:, ::-1]
    lengths = kept.sum(axis=1)
    T = lengths.max()
    slots = np.arange(T) < lengths[:, None]
    thresholds = np.full((E, T), -np.inf)
    thresholds[slots] = values[kept] + 0.0  # -0.0 -> 0.0, whichever zero sorted last
    conceded = np.full((E, T), N)
    conceded[slots] = N - below[kept]
    for a in (thresholds, lengths, conceded):
        a.flags.writeable = False
    return CandidateGrid(thresholds=thresholds, lengths=lengths, conceded=conceded)


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
