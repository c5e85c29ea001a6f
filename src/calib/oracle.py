"""Exhaustive reference solver over the candidate threshold grid.

Deliberately independent of the tree search: coverage per candidate is
precomputed as integer bitmasks and every grid cell is enumerated, so the
only shared assumption is the candidate grid itself.  Meant for tests and
small instances; the grid has prod(M_j) cells and grows fast.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLarge, ValidationError
from .problem import Problem
from .thresholds import extract_candidates

GRID_CAP = 10_000_000


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
    and ValidationError when cap is below 1.
    """
    if cap < 1:
        raise ValidationError(f"cap must be at least 1, got {cap}")
    grid = extract_candidates(problem)
    E = problem.num_classifiers
    values = [grid[j] for j in range(E)]
    total = 1
    for v in values:
        total *= len(v)
        if total > cap:
            raise TooLarge(f"candidate grid exceeds {cap} configurations")

    # Per candidate: bitmask of samples scoring strictly above it.
    pos_masks: list[list[int]] = []
    neg_masks: list[list[int]] = []
    for j in range(E):
        pos = problem.positive_scores[j]
        neg = problem.negative_scores[j]
        pos_masks.append(
            [sum(1 << p for p in range(len(pos)) if pos[p] > t) for t in values[j]]
        )
        neg_masks.append(
            [sum(1 << n for n in range(len(neg)) if neg[n] > t) for t in values[j]]
        )
    full = (1 << problem.num_positives) - 1
    lowest_union = 0
    for j in range(E):
        lowest_union |= pos_masks[j][-1]
    assert lowest_union == full, "all-lowest configuration must cover every positive"

    best_loss: int | None = None
    best_values: tuple[float, ...] | None = None
    enumerated = 0
    chosen = [0] * E

    def descend(j: int, pos_acc: int, neg_acc: int) -> None:
        nonlocal best_loss, best_values, enumerated
        if j == E:
            enumerated += 1
            if pos_acc != full:
                return
            loss = neg_acc.bit_count()
            if best_loss is None or loss <= best_loss:
                vals = tuple(values[i][chosen[i]] for i in range(E))
                if best_loss is None or loss < best_loss or vals < best_values:
                    best_loss = loss
                    best_values = vals
            return
        for a in range(len(values[j])):
            chosen[j] = a
            descend(j + 1, pos_acc | pos_masks[j][a], neg_acc | neg_masks[j][a])

    descend(0, 0, 0)
    assert best_loss is not None and best_values is not None
    assert enumerated == total
    return OracleResult(config=best_values, loss=best_loss, enumerated=enumerated)
