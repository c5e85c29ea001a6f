"""Exhaustive reference solver over the candidate threshold grid.

Deliberately independent of the tree search: it shares only the candidate
grid and its packing kernel with it.  Each candidate's coverage is packed
from the raw scores by ``thresholds.packed_above``, one bit per positive and
one per negative, and every grid cell is enumerated.  The cells of the last
k classifiers form a suffix table of OR-combined words, k as large as fits
``_BLOCK_BYTES``; each prefix of the first E - k classifiers is ORed into
the whole table at once, so a block of cells costs a few numpy calls rather
than one Python call per cell.  That enumerates several million cells per
second; the grid has prod(M_j) cells and grows fast, so this is meant for
tests and small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge, ValidationError
from .problem import Problem, _typed_value
from .thresholds import extract_candidates, packed_above

GRID_CAP = 10_000_000

# Cap on the suffix table of packed words that one block of cells reads.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class OracleResult:
    config: tuple[float, ...]
    loss: int
    enumerated: int


def oracle_node_count(num_classifiers: int, num_positives: int) -> int:
    """Nodes in the unpruned search tree: sum of E^d for depths 0..P.

    Exact unbounded-integer arithmetic; E=1 degenerates to the chain of
    length P+1.
    """
    if num_classifiers < 1 or num_positives < 0:
        raise ValueError("need at least one classifier and nonnegative positives")
    E, P = num_classifiers, num_positives
    if E == 1:
        return P + 1
    return (E ** (P + 1) - 1) // (E - 1)


def oracle_solve(problem: Problem, cap: int = GRID_CAP) -> OracleResult:
    """Minimum loss over all candidate configurations, by full enumeration.

    Returns the lexicographically smallest optimal configuration (compared
    by threshold values).  Raises TooLarge when the grid exceeds cap cells,
    and ValidationError when cap is no integer or below 1.
    """
    cap = _typed_value(cap, int, "cap", ValidationError)
    if cap < 1:
        raise ValidationError(f"cap must be at least 1, got {cap}")
    grid = extract_candidates(problem)
    E = problem.num_classifiers
    lengths = grid.lengths.tolist()
    total = 1
    for m in lengths:
        total *= m
        if total > cap:
            raise TooLarge(f"candidate grid exceeds {cap} configurations")

    # One row of words per candidate: positives' words, then negatives'.
    masks = np.concatenate([packed_above(problem.positive_scores, grid.thresholds),
                            packed_above(problem.negative_scores, grid.thresholds)], axis=2)
    P, N = problem.num_positives, problem.num_negatives
    Wp = -(-P // 64)
    full = np.array([(1 << min(64, P - 64 * w)) - 1 for w in range(Wp)], dtype=np.uint64)

    # Suffix table over classifiers k0..E-1, last classifier fastest.
    k0 = E - 1
    cells = lengths[k0]
    while k0 > 0 and cells * lengths[k0 - 1] * masks[0, 0].nbytes <= _BLOCK_BYTES:
        k0 -= 1
        cells *= lengths[k0]
    table = masks[k0, : lengths[k0]]
    for j in range(k0 + 1, E):
        table = (table[:, None, :] | masks[j, None, : lengths[j]]).reshape(-1, table.shape[1])
    suffix_values = [grid.thresholds[j, : lengths[j]] for j in range(k0, E)]

    best_loss = N
    best_values: tuple[float, ...] | None = None
    enumerated = 0
    block = np.empty_like(table)
    for prefix in itertools.product(*(range(m) for m in lengths[:k0])):
        chosen = masks[np.arange(k0), np.array(prefix, dtype=np.intp)]
        np.bitwise_or(table, np.bitwise_or.reduce(chosen, axis=0), out=block)
        enumerated += len(block)
        loss = np.bitwise_count(block[:, Wp:]).sum(axis=1, dtype=np.int64)
        loss[(block[:, :Wp] != full).any(axis=1)] = N + 1  # infeasible
        low = int(loss.min())
        if low > best_loss:
            continue
        # Lexicographically smallest threshold values among this block's ties.
        ties = np.flatnonzero(loss == low)
        positions = np.unravel_index(ties, lengths[k0:])
        tied_values = [v[p] for v, p in zip(suffix_values, positions)]
        first = np.lexsort(tied_values[::-1])[0]
        values = grid.config([*prefix, *(p[first] for p in positions)])
        if best_values is None or low < best_loss or values < best_values:
            best_loss, best_values = low, values
    # The last cell enumerated is the all-lowest configuration.
    assert loss[-1] <= N, "all-lowest configuration must cover every positive"
    assert best_values is not None
    assert enumerated == total
    return OracleResult(config=best_values, loss=best_loss, enumerated=enumerated)
