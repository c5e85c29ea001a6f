"""Branch-and-bound search: exact optimality, ablations, budgets, redundancy."""

import hashlib

import numpy as np
import pytest

from calib import (
    CoverState,
    GenerateSpec,
    Problem,
    ROOT_COVERED,
    SearchOptions,
    check_feasible,
    compute_loss,
    derive_assignment,
    extract_candidates,
    generate,
    oracle_solve,
    plan_tree,
    redundant_classifiers,
    solve_anytime,
    solve_exact,
)
from calib import search

from conftest import small_problem, tie_heavy_problem


def test_exact_toy_frozen(toy):
    sol = solve_exact(toy)
    assert sol.loss == 2
    assert sol.config == (1.25, 4.2)
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


def root_state(problem):
    return CoverState(problem, extract_candidates(problem))


def test_reduce_depth(toy, toy_free):
    # toy_free: the tightest candidates (4.25, 2.65) already cover both
    levels, root_covered, _ = plan_tree(root_state(toy_free), SearchOptions())
    assert levels == [] and root_covered == [0, 1]
    levels, root_covered, _ = plan_tree(root_state(toy), SearchOptions())
    assert levels == [0, 1] and root_covered == []
    levels, root_covered, _ = plan_tree(root_state(toy_free),
                                        SearchOptions(enable_depth_reduction=False))
    assert levels == [0, 1] and root_covered == []


def test_plan_tree_orderings(toy):
    levels, _, _ = plan_tree(root_state(toy), SearchOptions())
    assert levels == [0, 1]
    shuffled, _, _ = plan_tree(
        root_state(toy),
        SearchOptions(enable_difficulty_order=False, random_order_seed=3),
    )
    assert sorted(shuffled) == [0, 1]


@pytest.mark.parametrize("seed", range(30))
def test_exact_matches_oracle(seed):
    prob = small_problem(seed)
    sol = solve_exact(prob)
    assert sol.optimal
    assert check_feasible(prob, sol.config)
    assert sol.loss == compute_loss(prob, sol.config)
    assert sol.loss == oracle_solve(prob).loss


@pytest.mark.parametrize("seed", range(10))
def test_ablations_preserve_optimum(seed):
    prob = small_problem(seed)
    reference = solve_exact(prob).loss
    for flags in search.ABLATIONS.values():
        assert solve_exact(prob, SearchOptions(**flags)).loss == reference


def test_assignment_points_at_covering_classifier():
    for seed in range(12):
        prob = small_problem(seed)
        sol = solve_exact(prob)
        theta = sol.config
        for p, a in enumerate(sol.assignment):
            s = prob.positive_scores[:, p]
            if a == ROOT_COVERED:
                tightest = extract_candidates(prob).thresholds[:, 0]
                assert (s > tightest).any()
            else:
                assert s[a] > theta[a]


def test_node_budget_one_returns_first_descent_leaf():
    prob = small_problem(5)
    trunc = solve_anytime(prob, SearchOptions(node_budget=1))
    assert not trunc.optimal and not trunc.fallback
    assert check_feasible(prob, trunc.config)
    # descent nodes + leaf + the single interrupted node after the budget
    assert trunc.stats.nodes_visited == trunc.stats.levels + 2
    assert len(trunc.stats.incumbent_history) == 1


def test_node_budget_one_improves_first_descent_leaf():
    prob = small_problem(5)  # first-descent leaf (loss 9) is strictly suboptimal here
    trunc = solve_anytime(prob, SearchOptions(node_budget=1))
    # Local search improves the leaf to the optimum, reached but not proven.
    assert trunc.loss == solve_exact(prob).loss == 8
    assert not trunc.optimal
    assert trunc.loss == compute_loss(prob, trunc.config)
    # The one incumbent is recorded with its improved loss.
    assert [loss for _, loss in trunc.stats.incumbent_history] == [8]


def test_node_budget_monotone():
    prob = small_problem(5)
    losses = [
        solve_anytime(prob, SearchOptions(node_budget=b)).loss
        for b in (1, 4, 16, 64, 10_000)
    ]
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] == solve_exact(prob).loss


@pytest.mark.parametrize("name", list(search.ABLATIONS))
def test_local_search_keeps_oracle_equality(name):
    for seed in range(300):
        prob = small_problem(seed)
        ref = oracle_solve(prob).loss
        flags = search.ABLATIONS[name]
        _, root_covered, _ = plan_tree(root_state(prob), SearchOptions(**flags))
        for budget in (None, 1, 3, 10):
            opts = SearchOptions(random_order_seed=seed, node_budget=budget, **flags)
            sol = solve_exact(prob, opts)
            case = f"seed {seed} budget {budget}"
            assert check_feasible(prob, sol.config), case
            assert sol.loss == compute_loss(prob, sol.config), case
            if budget is None:
                assert sol.optimal and sol.loss == ref, case
            assert sol.loss >= ref, case
            losses = [loss for _, loss in sol.stats.incumbent_history]
            assert all(b < a for a, b in zip(losses, losses[1:])), case
            assert losses[-1] == sol.loss, case
            # The smallest covering classifier, or the root-covered marker.
            expected = derive_assignment(prob, sol.config)
            for p in root_covered:
                expected[p] = ROOT_COVERED
            assert sol.assignment == expected, case


def test_every_improved_incumbent_is_feasible(monkeypatch):
    calls = []
    improve = search.LeafImprover.improve

    def recorded(self, positions, loss, bound):
        result = improve(self, positions, loss, bound)
        calls.append((positions, loss, bound, result))
        return result

    monkeypatch.setattr(search.LeafImprover, "improve", recorded)
    improved = 0
    for seed in range(300):
        prob = small_problem(seed)
        grid = extract_candidates(prob)
        calls.clear()
        sol = solve_exact(prob)
        history = [loss for _, loss in sol.stats.incumbent_history]
        for leaf, loss, bound, (positions, new_loss) in calls:
            # A leaf already at the root bound is not searched.
            assert loss > bound, f"seed {seed}"
            if new_loss == loss:
                # Not improved: the leaf comes back as given.
                assert positions == leaf, f"seed {seed}"
                continue
            improved += 1
            config = grid.config(positions)
            assert bound <= new_loss < loss, f"seed {seed}"
            assert check_feasible(prob, config), f"seed {seed}"
            assert new_loss == compute_loss(prob, config), f"seed {seed}"
            assert new_loss in history, f"seed {seed}"
    assert improved > 0  # the fuzz reaches improving moves


def test_wall_budget_expiry_falls_back_to_lowest(toy):
    sol = solve_anytime(toy, SearchOptions(budget_ms=1e-7))
    assert sol.fallback and not sol.optimal
    assert check_feasible(toy, sol.config)
    assert sol.loss == compute_loss(toy, sol.config)
    assert sol.config == (1.25, -0.25)  # all-lowest candidates
    assert sol.stats.incumbent_history == []
    assert sol.assignment == [0, 0]
    # The fallback marks positives covered at the root, as every solution does.
    prob = small_problem(3)
    sol = solve_anytime(prob, SearchOptions(budget_ms=1e-7))
    grid = extract_candidates(prob)
    assert sol.fallback and not sol.optimal
    assert sol.config == grid.config(grid.lengths - 1)
    assert sol.loss == compute_loss(prob, sol.config)
    _, root_covered, _ = plan_tree(root_state(prob), SearchOptions())
    assert len(root_covered) == 1
    expected = derive_assignment(prob, sol.config)
    expected[root_covered[0]] = ROOT_COVERED
    assert sol.assignment == expected


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


def test_trace_times_equal_incumbent_history():
    # the trace callback and the stored history read one clock reading each
    for seed in range(10):
        events = []
        opts = SearchOptions(trace=lambda ms, nodes, loss: events.append((ms, loss)))
        sol = solve_exact(small_problem(seed), opts)
        assert events == sol.stats.incumbent_history


def test_options_validation():
    with pytest.raises(ValueError):
        SearchOptions(budget_ms=0)
    with pytest.raises(ValueError):
        SearchOptions(budget_ms=float("nan"))
    with pytest.raises(ValueError):
        SearchOptions(node_budget=0)
    # A bool or a fraction is no budget, though Python compares both with 0.
    for bad in (True, False, 2.5, 2.0, float("inf"), "10"):
        with pytest.raises(ValueError, match="node_budget must be an integer"):
            SearchOptions(node_budget=bad)
    for bad in (True, False):
        with pytest.raises(ValueError, match="budget_ms must be a number"):
            SearchOptions(budget_ms=bad)
    for bad in (True, 2.5, 3.0, "x", b"x"):
        with pytest.raises(ValueError, match="random_order_seed must be an integer"):
            SearchOptions(enable_difficulty_order=False, random_order_seed=bad)
    # Integers of any width are node budgets and seeds; any positive number
    # is a wall budget.
    assert SearchOptions(node_budget=np.int64(3)).node_budget == 3
    assert SearchOptions(budget_ms=5).budget_ms == 5
    opts = SearchOptions(enable_difficulty_order=False, random_order_seed=np.int64(3))
    assert type(opts.random_order_seed) is int and opts.random_order_seed == 3
    # The stored int seeds random.Random, which takes no numpy integer.
    prob = small_problem(3)
    assert solve_exact(prob, opts).loss == oracle_solve(prob).loss


# Golden totals over small_problem(0..199) of [nodes_visited,
# nodes_pruned_bound, nodes_pruned_equivalence, positives_removed_by_root]
# per named ablation.  Losses alone cannot see a change in child order,
# pruning, depth reduction or local search; these totals do.  Without the
# bound nothing prunes against the incumbent, so local search leaves those
# rows as the paper's plain depth-first search has them.  A dead edge, one
# whose own cost reaches the incumbent, is never priced and counts as a
# bound prune, even where it would duplicate a sibling's set.
TRAVERSAL_TOTALS_LOCAL_SEARCH = {
    "all-on": [670, 718, 10, 469],
    "no-bound": [3369, 0, 80, 469],
    "no-equivalence": [670, 728, 0, 469],
    "no-depth-reduction": [1154, 718, 10, 0],
    "random-order": [776, 1119, 10, 469],
    "all-off": [6156, 0, 0, 0],
}


def traversal_totals(node_budget=None):
    totals = {name: [0, 0, 0, 0] for name in search.ABLATIONS}
    for seed in range(200):
        prob = small_problem(seed)
        for name, flags in search.ABLATIONS.items():
            opts = SearchOptions(random_order_seed=seed, node_budget=node_budget, **flags)
            st = solve_exact(prob, opts).stats
            counts = [st.nodes_visited, st.nodes_pruned_bound,
                      st.nodes_pruned_equivalence, st.positives_removed_by_root]
            totals[name] = [a + b for a, b in zip(totals[name], counts)]
    return totals


def test_traversal_counts_pinned_with_local_search():
    assert traversal_totals() == TRAVERSAL_TOTALS_LOCAL_SEARCH


# The same totals at node budget 10, which cuts many runs short.  They pin
# the counters of budget-truncated runs, including the equivalence prunes of
# a frame planned in full just before the budget fires.  Budgets 1 and 3
# give equal totals, so pinning them adds nothing.
TRAVERSAL_TOTALS_NODE_BUDGET_10 = {
    "all-on": [665, 710, 10, 469],
    "no-bound": [1357, 0, 17, 469],
    "no-equivalence": [665, 720, 0, 469],
    "no-depth-reduction": [1135, 688, 10, 0],
    "random-order": [741, 973, 10, 469],
    "all-off": [1725, 0, 0, 0],
}


def test_traversal_counts_pinned_at_node_budget_10():
    assert traversal_totals(node_budget=10) == TRAVERSAL_TOTALS_NODE_BUDGET_10


# Golden totals over tie_heavy_problem(0..199) of [nodes_visited,
# nodes_pruned_bound, nodes_pruned_equivalence] per named ablation.  Runs
# of three or more tied increments occur here with all-equal, all-distinct
# and mixed sets, so these pin equivalence pruning where
# TRAVERSAL_TOTALS_LOCAL_SEARCH sees few ties.  A child whose total reaches
# the bound is dropped before the equivalence check, so a tied duplicate at
# or above the bound counts as a bound prune, not an equivalence prune.
TIE_TOTALS_LOCAL_SEARCH = {
    "all-on": [982, 775, 484],
    "no-bound": [3941, 0, 1040],
    "no-equivalence": [1015, 1341, 0],
    "no-depth-reduction": [1104, 775, 484],
    "random-order": [1187, 1467, 628],
    "all-off": [14326, 0, 0],
}


def tie_totals():
    totals = {name: [0, 0, 0] for name in search.ABLATIONS}
    for seed in range(200):
        prob = tie_heavy_problem(seed)
        for name, flags in search.ABLATIONS.items():
            sol = solve_exact(prob, SearchOptions(random_order_seed=seed, **flags))
            assert sol.loss == oracle_solve(prob).loss
            st = sol.stats
            counts = [st.nodes_visited, st.nodes_pruned_bound, st.nodes_pruned_equivalence]
            totals[name] = [a + b for a, b in zip(totals[name], counts)]
    return totals


def test_tied_increment_counts_pinned_with_local_search():
    assert tie_totals() == TIE_TOTALS_LOCAL_SEARCH


def test_search_edges_go_through_cover_state_methods(monkeypatch):
    """perfbench/tracer.py times the search's coverage work by wrapping these
    methods on the class, so a solve must reach every edge through them."""
    problems = [small_problem(s) for s in range(20)] + [tie_heavy_problem(s) for s in range(20)]
    cases = [(prob, flags) for prob in problems for flags in ({}, search.ABLATIONS["all-off"])]
    plain = [solve_exact(prob, SearchOptions(**flags)) for prob, flags in cases]
    calls = dict.fromkeys(("peek_edge", "apply_edge", "undo_edge", "priced"), 0)
    for name in ("peek_edge", "apply_edge", "undo_edge"):
        def counted(self, *args, _name=name, _method=getattr(CoverState, name)):
            calls[_name] += 1
            result = _method(self, *args)
            if _name == "peek_edge" and result is not None:
                calls["priced"] += 1
            return result
        monkeypatch.setattr(CoverState, name, counted)

    def counters(st):
        return st.nodes_visited, st.nodes_pruned_bound, st.nodes_pruned_equivalence

    for (prob, flags), ref in zip(cases, plain):
        calls.update(dict.fromkeys(calls, 0))
        sol = solve_exact(prob, SearchOptions(**flags))
        st = sol.stats
        assert (sol.loss, sol.config, sol.assignment) == (ref.loss, ref.config, ref.assignment)
        assert counters(st) == counters(ref.stats)
        # One peek per inner node visit: a pass-through returns None, an
        # expanded node's peek prices its E children.  Each priced child is
        # then pruned by equivalence or bound, or entered: one apply, one undo.
        entered = calls["apply_edge"]
        assert calls["undo_edge"] == entered
        assert calls["priced"] * prob.num_classifiers == (
            entered + st.nodes_pruned_bound + st.nodes_pruned_equivalence)
        # Every visit but the root enters a child, by an edge or a pass-through;
        # every visit but the leaves peeks.
        assert entered <= st.nodes_visited - 1
        assert calls["priced"] <= calls["peek_edge"] <= st.nodes_visited
        if flags:
            assert calls["priced"] * prob.num_classifiers == entered


def test_exact_e30_traversal_pinned():
    """The exact-e30 benchmark recipe, seed 1, solved to proof: its loss,
    nodes and pruned children (bound and equivalence together, since a
    dead edge counts as a bound prune) are pinned."""
    prob, _ = generate(GenerateSpec(seed=1, num_classifiers=30, num_positives=60,
                                    num_negatives=1500, dimensions=10, noise=0.15,
                                    spread=0.25, hardness_fraction=0.2,
                                    hardness_scale=0.65))
    sol = solve_exact(prob)
    st = sol.stats
    assert sol.optimal and sol.loss == 583
    assert st.nodes_visited == 4938
    assert st.nodes_pruned_bound + st.nodes_pruned_equivalence == 86213
    assert [loss for _, loss in st.incumbent_history] == [630, 616, 603, 595, 583]


def exemplar_problem():
    """One classifier per positive exemplar (E = P = 60, N = 1500)."""
    prob, _ = generate(GenerateSpec(seed=3, num_classifiers=60, num_positives=60,
                                    num_negatives=1500, dimensions=10, noise=0.15,
                                    spread=0.25))
    return prob


def test_budgeted_exemplar_run_pinned():
    """A 2,000-node run in the exemplar regime, truncated after three
    incumbents, each of which prunes edges as dead."""
    sol = solve_exact(exemplar_problem(), SearchOptions(node_budget=2000))
    st = sol.stats
    assert not sol.optimal and sol.loss == 398
    assert st.nodes_visited == 2000
    assert [loss for _, loss in st.incumbent_history] == [407, 401, 398]
    config = hashlib.sha256(np.array(sol.config).tobytes()).hexdigest()
    assert config == "dcbd67d53b25199f428f7c761f3cd08da4d73567e92685857ff1a2bf29a004ea"


def test_local_search_prices_only_live_edges(monkeypatch):
    """A trial skips the classifiers whose cover of a positive alone
    concedes the loss it must beat.  Such a count can never be the fewest
    below that loss, so pricing every classifier improves every leaf alike."""
    problems = [small_problem(s) for s in range(100)] + [tie_heavy_problem(s) for s in range(100)]
    cases = [(prob, None) for prob in problems] + [(exemplar_problem(), 2000)]
    improve = search.LeafImprover.improve
    calls = []

    def recorded(self, positions, loss, bound):
        result = improve(self, positions, loss, bound)
        calls.append((positions, loss, bound, result))
        return result

    monkeypatch.setattr(search.LeafImprover, "improve", recorded)

    def improved():
        calls.clear()
        for prob, budget in cases:
            solve_exact(prob, SearchOptions(node_budget=budget))
        return list(calls)

    live = improved()
    init = search.LeafImprover.__init__

    def every_edge_live(self, state):
        init(self, state)
        self.live_edges = lambda row, bound: (state.classifiers, state.rows[:, row])

    monkeypatch.setattr(search.LeafImprover, "__init__", every_edge_live)
    assert improved() == live
    assert any(new_loss < loss for _, loss, _, (_, new_loss) in live)  # some trial is kept


def test_deep_tree_is_not_bounded_by_recursion():
    prob, _ = generate(GenerateSpec(seed=1, num_classifiers=3, num_positives=3000,
                                    num_negatives=400))
    sol = solve_exact(prob, SearchOptions(enable_depth_reduction=False, node_budget=1))
    assert sol.stats.levels == 3000
    # the first descent, its leaf, and the one visit the budget stops
    assert sol.stats.nodes_visited == 3002
    assert check_feasible(prob, sol.config) and not sol.optimal


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
