"""Exhaustive grid oracle and the unpruned-tree size formula."""

import numpy as np
import pytest

from calib import (
    Problem,
    TooLarge,
    check_feasible,
    compute_loss,
    oracle_node_count,
    oracle_solve,
)

from conftest import small_problem, toy_two_by_two


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


def test_oracle_cap():
    rng = np.random.default_rng(3)
    # 8 classifiers x 9 candidates each ~ 43 M cells > default-size cap 10
    prob = Problem(rng.normal(size=(8, 8)), rng.normal(size=(8, 30)))
    with pytest.raises(TooLarge):
        oracle_solve(prob, cap=10)
    # generous cap on a tiny instance still enumerates everything
    small = Problem(rng.normal(size=(2, 2)), rng.normal(size=(2, 4)))
    res = oracle_solve(small, cap=1000)
    assert res.enumerated <= 1000
