"""Candidate threshold extraction, difficulty, and grid sufficiency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calib import (
    Problem,
    check_feasible,
    compute_loss,
    difficulty_order,
    extract_candidates,
    oracle_solve,
)

from conftest import dense_sweep_optimum, small_problem


def conceded(problem, j, t):
    """Negatives classifier j alone scores above threshold t."""
    return np.flatnonzero(problem.negative_scores[j] > t).tolist()


def single(problem, j):
    """The sub-problem of classifier j alone."""
    return Problem(problem.positive_scores[j: j + 1], problem.negative_scores[j: j + 1])


# Hand-worked candidate sets for the 2x2 toy (see conftest.toy_two_by_two).
def test_toy_candidates_frozen(toy):
    cands = extract_candidates(toy)
    e0, e1 = cands[0], cands[1]
    assert e0.thresholds == (7.0, 3.5, 1.25)
    assert [conceded(toy, 0, t) for t in e0.thresholds] == [[], [0], [0, 1]]
    assert e1.thresholds == (4.2, 2.75, -0.25)
    assert [conceded(toy, 1, t) for t in e1.thresholds] == [[], [2], [0, 2]]
    assert (e0.tightest, e1.tightest) == (7.0, 4.2)
    assert cands.lowest_config() == (1.25, -0.25)


def test_root_config_free_cover(toy_free):
    root = tuple(c.tightest for c in extract_candidates(toy_free).per_classifier)
    # every positive clears every negative: tightest candidates cover all
    assert check_feasible(toy_free, root)
    assert compute_loss(toy_free, root) == 0


def test_sentinel_only_when_top_score_is_negative():
    # top distinct value positive: no sentinel, tightest sits below the top
    p = Problem(np.array([[5.0, 3.0]]), np.array([[4.0, 1.0]]))
    c = extract_candidates(p)[0]
    assert c.tightest == 4.5  # midpoint of 5.0 and 4.0
    assert c.thresholds == (4.5, 2.0)
    # top distinct value negative: sentinel one above it
    q = Problem(np.array([[3.0]]), np.array([[6.0, 1.0]]))
    d = extract_candidates(q)[0]
    assert d.thresholds[0] == 7.0
    assert conceded(q, 0, d.tightest) == []


def test_floor_candidate_below_bottom_positive():
    p = Problem(np.array([[2.0, 0.5]]), np.array([[1.0, 3.0]]))
    c = extract_candidates(p)[0]
    # bottom distinct value is the positive 0.5: floor candidate at -0.5
    assert c.lowest == -0.5
    assert conceded(p, 0, c.lowest) == [0, 1]


def test_tied_positive_negative_forces_coverage():
    # positive and negative share score 2.0: covering the positive costs it
    p = Problem(np.array([[2.0]]), np.array([[2.0, 0.0]]))
    c = extract_candidates(p)[0]
    assert all(t < 2.0 for t in c.thresholds if check_feasible(p, [t]))
    assert difficulty_order(p).difficulty == (1,)
    best = oracle_solve(p)
    assert best.loss == 1


def test_delta_toy(toy):
    # On one classifier alone, a positive's difficulty is that classifier's
    # cost of covering it: e0 must concede 6.0 to cover the 5.0 positive.
    assert difficulty_order(single(toy, 0)).difficulty == (1, 2)
    assert difficulty_order(single(toy, 1)).difficulty == (2, 1)


def test_difficulty_order_toy(toy):
    d = difficulty_order(toy)
    assert d.difficulty == (1, 1)
    assert d.order == (0, 1)  # equal difficulty: ascending index


def test_difficulty_order_decreasing():
    for seed in range(20):
        prob = small_problem(seed)
        d = difficulty_order(prob)
        diffs = [d.difficulty[i] for i in d.order]
        assert diffs == sorted(diffs, reverse=True)
        assert sorted(d.order) == list(range(prob.num_positives))


@pytest.mark.parametrize("seed", range(40))
def test_candidate_structure_invariants(seed):
    prob = small_problem(seed)
    cands = extract_candidates(prob)
    for j in range(prob.num_classifiers):
        c = cands[j]
        assert len(c) <= prob.num_positives + 1
        assert list(c.thresholds) == sorted(c.thresholds, reverse=True)
        # the tightest candidate concedes nothing; later ones concede more
        fp = [int((prob.negative_scores[j] > t).sum()) for t in c.thresholds]
        assert fp[0] == 0
        assert all(b > a for a, b in zip(fp, fp[1:]))
        # every positive has a candidate strictly below its score
        for s in prob.positive_scores[j]:
            assert c.lowest < s


score_matrix = st.integers(0, 6).map(float)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_candidate_grid_matches_dense_sweep(data):
    """Optimum over the candidate grid equals a dense sweep over all cuts.

    Integer-lattice scores force heavy ties, the hard case for the
    discretization.
    """
    E = data.draw(st.integers(1, 3))
    P = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(1, 5))
    pos = np.array(
        [[data.draw(score_matrix) for _ in range(P)] for _ in range(E)]
    )
    neg = np.array(
        [[data.draw(score_matrix) for _ in range(N)] for _ in range(E)]
    )
    prob = Problem(pos, neg)
    assert oracle_solve(prob).loss == dense_sweep_optimum(prob)
