"""Exhaustive grid oracle and the unpruned-tree size formula."""

import math
import tracemalloc

import numpy as np
import pytest

from calib import (
    Problem,
    TooLarge,
    check_feasible,
    compute_loss,
    extract_candidates,
    oracle_node_count,
    oracle_solve,
)
from calib import oracle
from calib.oracle import GRID_CAP

from conftest import candidates, small_problem, tie_heavy_problem, toy_two_by_two


def reference_oracle(problem: Problem):
    """One recursive Python call per grid cell over Python-int bitmasks.

    The oracle's former implementation, kept as the reference for the
    block-wise one.  Returns ((config, loss, enumerated), optimal) where
    ``optimal`` lists the candidate positions of every feasible cell at the
    lowest loss, in enumeration order.
    """
    grid = extract_candidates(problem)
    E = problem.num_classifiers
    values = [candidates(grid, j) for j in range(E)]
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
    optimal: list[tuple[int, ...]] = []
    enumerated = 0
    chosen = [0] * E

    def descend(j: int, pos_acc: int, neg_acc: int) -> None:
        nonlocal best_loss, best_values, enumerated, optimal
        if j == E:
            enumerated += 1
            if pos_acc != full:
                return
            loss = neg_acc.bit_count()
            if best_loss is None or loss <= best_loss:
                if best_loss is None or loss < best_loss:
                    optimal = []
                optimal.append(tuple(chosen))
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
    return (best_values, best_loss, enumerated), optimal


def as_tuple(res):
    return res.config, res.loss, res.enumerated


def test_node_count_formula():
    assert oracle_node_count(2, 2) == 7  # 1 + 2 + 4
    assert oracle_node_count(3, 4) == (3**5 - 1) // 2
    assert oracle_node_count(1, 5) == 6  # chain
    assert oracle_node_count(2, 0) == 1  # root only
    # geometric-series identity cross-check at awkward sizes
    for E, P in [(4, 3), (7, 6), (15, 50)]:
        assert oracle_node_count(E, P) == sum(E**d for d in range(P + 1))
    with pytest.raises(ValueError):
        oracle_node_count(0, 3)


def test_oracle_toy_frozen():
    res = oracle_solve(toy_two_by_two())
    assert res.loss == 2
    assert res.enumerated == 9  # 3 x 3 candidate grid
    # lex-smallest witness among the loss-2 configs
    assert res.config == (1.25, 4.2)


def test_oracle_witness_is_feasible_and_scored():
    for seed in range(15):
        prob = small_problem(seed)
        res = oracle_solve(prob)
        assert check_feasible(prob, res.config)
        assert compute_loss(prob, res.config) == res.loss


def test_oracle_beats_every_grid_corner(toy):
    # loss 2 is genuinely minimal: both single-classifier covers concede 2
    res = oracle_solve(toy)
    for t0 in (7.0, 3.5, 1.25):
        for t1 in (4.2, 2.75, -0.25):
            cfg = (t0, t1)
            if check_feasible(toy, cfg):
                assert compute_loss(toy, cfg) >= res.loss


def test_oracle_matches_reference_on_small_spec():
    for seed in range(300):
        prob = small_problem(seed)
        assert as_tuple(oracle_solve(prob)) == reference_oracle(prob)[0], seed


def test_oracle_matches_reference_on_ties():
    tied = 0
    for seed in range(100):
        prob = tie_heavy_problem(seed)
        expected, optimal = reference_oracle(prob)
        assert as_tuple(oracle_solve(prob)) == expected, seed
        tied += len(optimal) > 1
    # The witness rule decides most of these: several cells share the lowest loss.
    assert tied >= 50


@pytest.mark.parametrize("block_bytes", [1, 64, 512])
def test_oracle_matches_reference_across_blocks(monkeypatch, block_bytes):
    # A small block leaves most classifiers in the prefix, so a grid spans
    # many blocks and its lowest-loss cells fall into several of them.
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", block_bytes)
    split = 0
    for seed in range(60):
        prob = tie_heavy_problem(seed) if seed % 3 else small_problem(seed)
        expected, optimal = reference_oracle(prob)
        assert as_tuple(oracle_solve(prob)) == expected, seed
        split += len({cell[:-1] for cell in optimal}) > 1
    assert split >= 20


def test_oracle_edge_shapes_match_reference():
    problems = [
        # N = 0: every configuration is free, the tightest feasible wins.
        Problem(np.array([[1.0, 2.0], [0.5, 3.0]]), np.zeros((2, 0))),
        # E = 1: a single chain of candidates.
        Problem(np.array([[1.0, 2.0, 4.0]]), np.array([[0.0, 3.0, 5.0]])),
        # A positive tied with a negative concedes it.
        Problem(np.array([[2.0, 1.0], [0.0, 3.0]]), np.array([[2.0, 0.5], [3.0, 1.0]])),
    ]
    for prob in problems:
        res = oracle_solve(prob)
        assert as_tuple(res) == reference_oracle(prob)[0]
        assert check_feasible(prob, res.config)
        assert compute_loss(prob, res.config) == res.loss
    assert oracle_solve(problems[0]).loss == 0
    assert oracle_solve(problems[2]).loss >= 1


def test_oracle_cap():
    rng = np.random.default_rng(3)
    # 8 classifiers x 8-9 candidates each: ~11 M cells, over both caps
    prob = Problem(rng.normal(size=(8, 8)), rng.normal(size=(8, 30)))
    assert math.prod(extract_candidates(prob).lengths.tolist()) > GRID_CAP
    with pytest.raises(TooLarge):
        oracle_solve(prob, cap=10)
    # The cap is checked before any mask is built.
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            oracle_solve(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # generous cap on a tiny instance still enumerates everything
    small = Problem(rng.normal(size=(2, 2)), rng.normal(size=(2, 4)))
    res = oracle_solve(small, cap=1000)
    assert res.enumerated == math.prod(extract_candidates(small).lengths.tolist())


def test_oracle_memory_bounded_by_block():
    rng = np.random.default_rng(5)
    prob = Problem(rng.normal(size=(6, 9)), rng.normal(size=(6, 200)))
    cells = math.prod(extract_candidates(prob).lengths.tolist())
    assert cells == 720_000  # 28.8 MB of words if held at once
    tracemalloc.start()
    try:
        res = oracle_solve(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * oracle._BLOCK_BYTES
    assert as_tuple(res) == reference_oracle(prob)[0]
