"""Acceptance gate: one test per claimed behavior, end to end.

Each test pins one externally checkable claim about the solver or the
calibration comparison, at the scale stated in its docstring.  Tolerances
and instance recipes are frozen here; loosening them is a contract change,
not a test fix.
"""

import itertools
import math
import random
import statistics
import time

import numpy as np
import pytest

from calib import (
    GenerateSpec,
    Problem,
    SearchOptions,
    check_feasible,
    compare_methods,
    compute_loss,
    fit_affine,
    fit_independent_sigmoid,
    generate,
    oracle_node_count,
    oracle_solve,
    pava,
    recall_at_thresholds,
    redundant_classifiers,
    smoothed_targets,
    solve_anytime,
    solve_exact,
)
from calib.calibrators import sigmoid_nll

from conftest import dense_sweep_optimum, small_problem, small_spec

ALL_OFF = dict(
    enable_prune_bound=False,
    enable_prune_equivalence=False,
    enable_depth_reduction=False,
    enable_difficulty_order=False,
)


def test_criterion_01_exact_search_matches_oracle_on_200_instances():
    """Returned losses equal exhaustive-enumeration losses exactly, in <60 s."""
    t0 = time.perf_counter()
    for seed in range(200):
        prob = small_problem(seed)
        sol = solve_exact(prob)
        ref = oracle_solve(prob)
        assert sol.loss == ref.loss, f"seed {seed}: {sol.loss} != {ref.loss}"
        assert sol.optimal
    assert time.perf_counter() - t0 < 60.0


def test_criterion_02_pruning_is_sound_and_never_hurts():
    """Disabling each pruning rule alone or all four together preserves the
    optimum on 50 instances; full pruning never visits more nodes than none."""
    ablations = [
        dict(enable_prune_bound=False),
        dict(enable_prune_equivalence=False),
        dict(enable_depth_reduction=False),
        dict(enable_difficulty_order=False),
        ALL_OFF,
    ]
    for seed in range(50):
        prob = small_problem(seed)
        full = solve_exact(prob)
        for flags in ablations:
            assert solve_exact(prob, SearchOptions(**flags)).loss == full.loss
        bare = solve_exact(prob, SearchOptions(**ALL_OFF))
        assert full.stats.nodes_visited <= bare.stats.nodes_visited


def test_criterion_03_difficulty_ordering_shrinks_the_tree():
    """Hard-positives-first ordering beats a random level order in median
    node count over 20 planted-hardness instances (E=20, P=30)."""
    ordered, shuffled = [], []
    for seed in range(1, 21):
        spec = GenerateSpec(
            seed=seed, num_classifiers=20, num_positives=30, num_negatives=150,
            dimensions=10, noise=0.1, hardness_fraction=0.3, hardness_scale=0.7,
        )
        train, _ = generate(spec)
        ordered.append(solve_exact(train).stats.nodes_visited)
        rand = SearchOptions(enable_difficulty_order=False, random_order_seed=seed)
        shuffled.append(solve_exact(train, rand).stats.nodes_visited)
    assert statistics.median(ordered) <= statistics.median(shuffled)


def test_criterion_04_scale_smoke_e15_p50():
    """An E=15, P=50 instance solves to optimality in <120 s while visiting
    under 1e-40 of the unpruned tree."""
    spec = GenerateSpec(
        seed=7, num_classifiers=15, num_positives=50, num_negatives=500,
        dimensions=12, noise=0.1, hardness_fraction=0.2, hardness_scale=0.65,
    )
    train, _ = generate(spec)
    t0 = time.perf_counter()
    sol = solve_exact(train)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert sol.optimal
    full_tree = oracle_node_count(15, 50)
    assert sol.stats.nodes_visited < 1e-40 * full_tree


def test_criterion_05_anytime_contract():
    """On 20 large instances: incumbents strictly improve, bigger wall
    budgets never end worse, and an unlimited budget reproduces the exact
    optimum on instances small enough to solve both ways."""
    for seed in range(1, 21):
        spec = GenerateSpec(
            seed=seed, num_classifiers=30, num_positives=80, num_negatives=1500,
            dimensions=10, noise=0.15, spread=0.25,
            hardness_fraction=0.2, hardness_scale=0.65,
        )
        train, _ = generate(spec)
        losses = []
        for budget in (10.0, 100.0, 1000.0):
            sol = solve_anytime(train, SearchOptions(budget_ms=budget))
            hist = [loss for _, loss in sol.stats.incumbent_history]
            assert all(b < a for a, b in zip(hist, hist[1:]))
            losses.append(sol.loss)
        assert losses[0] >= losses[1] >= losses[2]
    for seed in range(10):
        prob = small_problem(seed)
        unlimited = solve_anytime(prob, SearchOptions())
        assert unlimited.loss == solve_exact(prob).loss
        assert unlimited.optimal


def test_criterion_06_every_solution_is_feasible_and_self_consistent():
    """1000 fuzz instances across exact and budgeted anytime runs: the
    returned configuration covers every positive and the reported loss
    equals a from-scratch recount."""
    for seed in range(1000):
        prob = small_problem(seed)
        if seed % 10 == 0:
            sol = solve_anytime(
                prob, SearchOptions(node_budget=1 + seed % 7)
            )
        else:
            sol = solve_exact(prob)
        assert check_feasible(prob, sol.config), f"seed {seed}"
        assert sol.loss == compute_loss(prob, sol.config), f"seed {seed}"


def test_criterion_07_candidate_grid_is_sufficient():
    """On 100 small instances the optimum over the finite candidate grid
    equals a dense sweep placing thresholds around every distinct score."""
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        spec = GenerateSpec(
            seed=seed,
            num_classifiers=rng.randint(2, 3),
            num_positives=rng.randint(2, 4),
            num_negatives=rng.randint(4, 10),
            dimensions=rng.randint(3, 6),
            spread=rng.uniform(0.1, 0.4),
            noise=rng.uniform(0.05, 0.35),
        )
        train, _ = generate(spec)
        assert oracle_solve(train).loss == dense_sweep_optimum(train), f"seed {seed}"


def test_criterion_08_calibrators_are_exact():
    """PAVA equals exhaustive monotone enumeration on every binary sequence
    up to length 8; the sigmoid fit dominates a 101x101 parameter grid on 20
    datasets; affine standardization recenters negatives to (0, 1)."""
    # pool-adjacent-violators vs brute force over block partitions
    for n in range(1, 9):
        for bits in itertools.product((0.0, 1.0), repeat=n):
            fit = pava(np.array(bits))
            got = float(np.sum((np.array(bits) - fit) ** 2))
            best = None
            for cuts in itertools.product((0, 1), repeat=n - 1):
                bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
                means = [
                    sum(bits[a:b]) / (b - a) for a, b in zip(bounds, bounds[1:])
                ]
                if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
                    continue
                sse = sum(
                    (bits[i] - m) ** 2
                    for (a, b), m in zip(zip(bounds, bounds[1:]), means)
                    for i in range(a, b)
                )
                if best is None or sse < best:
                    best = sse
            assert got == pytest.approx(best, abs=1e-12)

    # Newton sigmoid fit vs the full (A, B) grid
    grid_a = np.linspace(-20.0, 0.0, 101)
    grid_b = np.linspace(-10.0, 10.0, 101)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pos = rng.normal(0.8, 0.8, size=30)
        neg = rng.normal(-0.8, 1.1, size=90)
        prob = Problem(pos[None, :], neg[None, :])
        params = fit_independent_sigmoid(prob, cutoff=-np.inf).maps[0]
        t_pos, t_neg = smoothed_targets(30, 90)
        scores = np.concatenate([pos, neg])
        targets = np.concatenate([np.full(30, t_pos), np.full(90, t_neg)])
        fitted = sigmoid_nll(scores, targets, params.a, params.b)
        z = (grid_a[:, None, None] * scores + grid_b[None, :, None])
        grid_nll = (np.logaddexp(0.0, z) - (1.0 - targets) * z).sum(axis=2)
        assert fitted <= grid_nll.min() + 1e-9

    # affine: negatives land exactly on zero mean, unit variance
    rng = np.random.default_rng(99)
    prob = Problem(rng.normal(1, 1, (5, 40)), rng.normal(-2, 4, (5, 300)))
    model = fit_affine(prob)
    for j, params in enumerate(model.maps):
        cal = params.a * prob.negative_scores[j] + params.b
        assert abs(cal.mean()) < 1e-9
        assert abs(cal.std() - 1.0) < 1e-9


def test_criterion_09_joint_calibration_beats_independent():
    """Planted-cluster benchmark (50 seeds, E=100, P=300, N=5000, 5 s
    budget): joint thresholds concede fewer held-out false positives than
    independent sigmoids at the joint recall point in >=90% of seeds, and
    the joint sigmoid's AP is at least the independent one's in >=80%."""
    fp_wins = ap_wins = 0
    for seed in range(1, 51):
        spec = GenerateSpec(
            seed=seed, num_classifiers=100, num_positives=300,
            num_negatives=5000, dimensions=12, noise=0.1, spread=0.2,
        )
        train, test = generate(spec)
        solution = solve_anytime(
            train, SearchOptions(budget_ms=5000.0)
        )
        report = compare_methods(
            train,
            test,
            ["joint-thresholds", "independent-sigmoid", "joint-sigmoid"],
            solution=solution,
        )
        rows = {row.method: row for row in report.rows}
        if rows["joint-thresholds"].fp < rows["independent-sigmoid"].fp:
            fp_wins += 1
        if rows["joint-sigmoid"].ap >= rows["independent-sigmoid"].ap:
            ap_wins += 1
    assert fp_wins >= 45, f"fp direction held in only {fp_wins}/50 seeds"
    assert ap_wins >= 40, f"AP direction held in only {ap_wins}/50 seeds"


def test_criterion_10_redundant_classifiers_change_nothing():
    """Dropping the reported redundant classifiers from 200 fuzzed solutions
    leaves the loss and the training recall exactly as they were."""
    removable_seen = 0
    for seed in range(200):
        prob = small_problem(seed)
        sol = solve_exact(prob)
        redundant = redundant_classifiers(prob, sol)
        removable_seen += bool(redundant)
        keep = [j for j in range(prob.num_classifiers) if j not in redundant]
        sub = Problem(prob.positive_scores[keep], prob.negative_scores[keep])
        cfg = tuple(sol.config[j] for j in keep)
        assert compute_loss(sub, cfg) == sol.loss
        assert recall_at_thresholds(sub, cfg) == recall_at_thresholds(
            prob, sol.config
        )
    assert removable_seen > 0  # the fuzz actually exercises removals
