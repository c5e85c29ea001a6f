"""Problem container, loss/feasibility primitives, JSON round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calib import (
    CalibrationModel,
    InfeasibleSolution,
    Problem,
    ROOT_COVERED,
    SearchStats,
    ShiftParams,
    Solution,
    ValidationError,
    check_feasible,
    compute_loss,
    derive_assignment,
    ensemble_scores,
    load_problem,
    load_solution,
    save_problem,
    save_solution,
)

from conftest import toy_two_by_two


def test_shape_validation():
    with pytest.raises(ValidationError):
        Problem(np.zeros((2, 3)), np.zeros((3, 4)))
    with pytest.raises(ValidationError):
        Problem(np.zeros(3), np.zeros((1, 4)))
    with pytest.raises(ValidationError):
        Problem(np.zeros((1, 0)), np.zeros((1, 4)))
    with pytest.raises(ValidationError):
        Problem(np.array([[np.nan]]), np.zeros((1, 2)))


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError):
        Problem(np.zeros((1, 2)), np.zeros((1, 1)), positive_ids=("a", "a"))


def test_matrices_read_only(toy):
    with pytest.raises(ValueError):
        toy.positive_scores[0, 0] = 99.0


def test_loss_and_feasibility_toy(toy):
    # hand-worked: thresholds (1.25, 4.2) admit negatives 1.0+2.0 on e0 only
    cfg = (1.25, 4.2)
    assert check_feasible(toy, cfg)
    assert compute_loss(toy, cfg) == 2
    # sentinel-everything: infeasible, loss 0
    top = (7.0, 4.2)
    assert not check_feasible(toy, top)
    assert compute_loss(toy, top) == 0


def test_loss_counts_union_not_sum():
    # one negative admitted by both classifiers counts once
    p = Problem(np.array([[1.0], [1.0]]), np.array([[0.5], [0.5]]))
    assert compute_loss(p, (0.0, 0.0)) == 1


def test_ensemble_score_max_of_shifted():
    model = CalibrationModel("joint-thresholds", (ShiftParams(1.0), ShiftParams(3.0)))
    # one column per sample: (2, 4), (2, 2) and (1, 3)
    samples = np.array([[2.0, 2.0, 1.0], [4.0, 2.0, 3.0]])
    # a sample exactly at every threshold scores 0, i.e. NOT positive
    assert ensemble_scores(model, samples).tolist() == [1.0, 1.0, 0.0]


def test_derive_assignment_smallest_index(toy):
    assert derive_assignment(toy, (1.25, 4.2)) == [0, 0]
    # tighten e0 so positive 1 (score 1.5) must fall to e1
    assert derive_assignment(toy, (2.0, 2.75)) == [0, 1]
    with pytest.raises(InfeasibleSolution):
        derive_assignment(toy, (7.0, 4.2))


def test_problem_round_trip(tmp_path):
    p = Problem(
        positive_scores=np.array([[0.1, 1e-17], [-3.5, 2.0 / 3.0]]),
        negative_scores=np.array([[1e300, -0.0, 5.0], [0.3, 0.1 + 0.2, 1.0]]),
        positive_ids=("a", "b"),
        negative_ids=("x", "y", "z"),
        metadata={"note": "round trip"},
    )
    path = tmp_path / "p.json"
    save_problem(p, path)
    q = load_problem(path)
    # exact bit equality via repr round trip, not approximate
    assert np.array_equal(p.positive_scores, q.positive_scores)
    assert np.array_equal(p.negative_scores, q.negative_scores)
    assert q.positive_ids == ("a", "b")
    assert q.negative_ids == ("x", "y", "z")
    assert q.metadata["note"] == "round trip"


def test_solution_round_trip(tmp_path):
    sol = Solution(
        config=(1.25, 4.2),
        loss=2,
        assignment=[0, ROOT_COVERED],
        optimal=True,
        stats=SearchStats(
            nodes_visited=3,
            nodes_pruned_bound=2,
            levels=2,
            wall_time_ms=0.125,
            incumbent_history=[(0.05, 4), (0.08, 2)],
        ),
    )
    path = tmp_path / "s.json"
    save_solution(sol, path)
    # The stats keys are SearchStats' fields, in field order.
    assert list(json.loads(path.read_text())["stats"].items()) == [
        ("nodes_visited", 3),
        ("nodes_pruned_bound", 2),
        ("nodes_pruned_equivalence", 0),
        ("positives_removed_by_root", 0),
        ("levels", 2),
        ("wall_time_ms", 0.125),
        ("incumbent_history", [[0.05, 4], [0.08, 2]]),
    ]
    back = load_solution(path)
    assert back.config == (1.25, 4.2)
    assert back.loss == 2
    assert back.assignment == [0, ROOT_COVERED]
    assert back.optimal and not back.fallback
    assert back.stats.nodes_visited == 3
    assert back.stats.incumbent_history == [(0.05, 4), (0.08, 2)]


@settings(max_examples=60)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6), st.data())
def test_loss_monotone_in_thresholds(ts, data):
    """Raising any threshold never increases the loss."""
    toy = toy_two_by_two()
    E = toy.num_classifiers
    base = [data.draw(st.floats(-5, 8)) for _ in range(E)]
    j = data.draw(st.integers(0, E - 1))
    raised = list(base)
    raised[j] = base[j] + abs(ts[0]) + 0.1
    assert compute_loss(toy, raised) <= compute_loss(toy, base)
