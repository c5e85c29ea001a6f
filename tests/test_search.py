"""Branch-and-bound search: exact optimality, ablations, budgets, redundancy."""

import numpy as np
import pytest

from calib import (
    Problem,
    ROOT_COVERED,
    SearchOptions,
    check_feasible,
    compute_loss,
    extract_candidates,
    oracle_solve,
    plan_tree,
    redundant_classifiers,
    reduce_depth,
    solve_anytime,
    solve_exact,
)

from conftest import small_problem


def test_exact_toy_frozen(toy):
    sol = solve_exact(toy)
    assert sol.loss == 2
    assert sol.config.thresholds == (1.25, 4.2)
    assert sol.assignment == [0, 0]
    assert sol.optimal and not sol.fallback
    # hand-walked tree: root, two descent nodes, one leaf; both siblings
    # of the winning path die on the bound
    assert sol.stats.nodes_visited == 3
    assert sol.stats.nodes_pruned_bound == 2
    assert sol.stats.levels == 2
    assert sol.stats.positives_removed_by_root == 0
    assert sol.stats.incumbent_history == [(sol.stats.incumbent_history[0][0], 2)]


def test_exact_free_cover(toy_free):
    sol = solve_exact(toy_free)
    assert sol.loss == 0
    assert sol.assignment == [ROOT_COVERED, ROOT_COVERED]
    assert sol.stats.positives_removed_by_root == 2
    assert sol.stats.levels == 0
    assert sol.stats.nodes_visited == 1  # the root is the only leaf


def test_reduce_depth(toy, toy_free):
    remaining, root = reduce_depth(toy_free, extract_candidates(toy_free))
    assert remaining == [] and root == (4.25, 2.65)
    remaining, _ = reduce_depth(toy, extract_candidates(toy))
    assert remaining == [0, 1]


def test_plan_tree_orderings(toy):
    cands = extract_candidates(toy)
    spec = plan_tree(toy, cands, SearchOptions())
    assert spec.level_positives == [0, 1]
    shuffled = plan_tree(
        toy,
        cands,
        SearchOptions(enable_difficulty_order=False, random_order_seed=3),
    )
    assert sorted(shuffled.level_positives) == [0, 1]


@pytest.mark.parametrize("seed", range(30))
def test_exact_matches_oracle(seed):
    prob = small_problem(seed)
    sol = solve_exact(prob)
    assert sol.optimal
    assert check_feasible(prob, sol.config)
    assert sol.loss == compute_loss(prob, sol.config)
    assert sol.loss == oracle_solve(prob).loss


ABLATIONS = [
    SearchOptions(enable_prune_bound=False),
    SearchOptions(enable_prune_equivalence=False),
    SearchOptions(enable_depth_reduction=False),
    SearchOptions(enable_difficulty_order=False),
    SearchOptions(
        enable_prune_bound=False,
        enable_prune_equivalence=False,
        enable_depth_reduction=False,
        enable_difficulty_order=False,
    ),
]


@pytest.mark.parametrize("seed", range(10))
def test_ablations_preserve_optimum(seed):
    prob = small_problem(seed)
    reference = solve_exact(prob).loss
    for opts in ABLATIONS:
        assert solve_exact(prob, opts).loss == reference


def test_assignment_points_at_covering_classifier():
    for seed in range(12):
        prob = small_problem(seed)
        sol = solve_exact(prob)
        theta = sol.config.thresholds
        for p, a in enumerate(sol.assignment):
            s = prob.positive_scores[:, p]
            if a == ROOT_COVERED:
                root = extract_candidates(prob).root_config()
                assert any(s[j] > root[j] for j in range(len(root)))
            else:
                assert s[a] > theta[a]


def test_node_budget_one_returns_first_descent_leaf():
    prob = small_problem(5)  # first-descent leaf is strictly suboptimal here
    exact = solve_exact(prob)
    trunc = solve_anytime(prob, SearchOptions(node_budget=1))
    assert not trunc.optimal and not trunc.fallback
    assert trunc.loss == 9 and exact.loss == 8
    assert check_feasible(prob, trunc.config)
    # descent nodes + leaf + the single interrupted node after the budget
    assert trunc.stats.nodes_visited == trunc.stats.levels + 2
    assert len(trunc.stats.incumbent_history) == 1


def test_node_budget_monotone():
    prob = small_problem(5)
    losses = [
        solve_anytime(prob, SearchOptions(node_budget=b)).loss
        for b in (1, 4, 16, 64, 10_000)
    ]
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] == solve_exact(prob).loss


def test_wall_budget_expiry_falls_back_to_lowest(toy):
    sol = solve_anytime(toy, SearchOptions(budget_ms=1e-7))
    assert sol.fallback and not sol.optimal
    assert check_feasible(toy, sol.config)
    assert sol.loss == compute_loss(toy, sol.config)
    assert sol.config.thresholds == (1.25, -0.25)  # all-lowest candidates
    assert sol.stats.incumbent_history == []
    assert sol.assignment == [0, 0]


def test_incumbent_history_strictly_decreasing():
    for seed in range(10):
        sol = solve_exact(small_problem(seed))
        losses = [loss for _, loss in sol.stats.incumbent_history]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] == sol.loss
        times = [t for t, _ in sol.stats.incumbent_history]
        assert times == sorted(times)


def test_random_order_still_exact():
    for seed in (2, 9, 17):
        prob = small_problem(seed)
        ref = solve_exact(prob).loss
        opts = SearchOptions(enable_difficulty_order=False, random_order_seed=seed)
        assert solve_exact(prob, opts).loss == ref


def test_trace_callback_fires(toy):
    events = []
    solve_exact(toy, SearchOptions(trace=lambda ms, nodes, loss: events.append(loss)))
    assert events == [2]


def test_options_validation():
    with pytest.raises(ValueError):
        SearchOptions(budget_ms=0)
    with pytest.raises(ValueError):
        SearchOptions(node_budget=0)


def test_redundant_classifiers_toy(toy, toy_free):
    # the optimum covers both positives with classifier 0; classifier 1
    # stays at its sentinel, unassigned, and drops out cleanly
    sol = solve_exact(toy)
    assert redundant_classifiers(toy, sol) == {1}
    # free-cover toy: classifier 1 alone covers both positives at its
    # tightest candidate, so classifier 0 drops; never both (the ensemble
    # is kept non-empty and greedy removal re-checks feasibility)
    free = solve_exact(toy_free)
    assert redundant_classifiers(toy_free, free) == {0}
    sub = Problem(toy_free.positive_scores[1:], toy_free.negative_scores[1:])
    assert check_feasible(sub, (free.config[1],))
    assert compute_loss(sub, (free.config[1],)) == free.loss == 0


def test_redundant_duplicate_classifier_removed():
    base = small_problem(3)
    prob = Problem(
        positive_scores=np.vstack([base.positive_scores, base.positive_scores[:1]]),
        negative_scores=np.vstack([base.negative_scores, base.negative_scores[:1]]),
    )
    sol = solve_exact(prob)
    redundant = redundant_classifiers(prob, sol)
    keep = [j for j in range(prob.num_classifiers) if j not in redundant]
    sub = Problem(prob.positive_scores[keep], prob.negative_scores[keep])
    cfg = tuple(sol.config[j] for j in keep)
    assert check_feasible(sub, cfg)
    assert compute_loss(sub, cfg) == sol.loss


@pytest.mark.parametrize("seed", range(15))
def test_redundant_removal_preserves_loss_and_recall(seed):
    prob = small_problem(seed)
    sol = solve_exact(prob)
    redundant = redundant_classifiers(prob, sol)
    assert not (redundant & {a for a in sol.assignment if isinstance(a, int)})
    keep = [j for j in range(prob.num_classifiers) if j not in redundant]
    sub = Problem(prob.positive_scores[keep], prob.negative_scores[keep])
    cfg = tuple(sol.config[j] for j in keep)
    assert check_feasible(sub, cfg)  # recall stays 1.0 on train
    assert compute_loss(sub, cfg) == sol.loss
