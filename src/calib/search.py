"""Exact and anytime tree search for jointly optimal threshold configurations.

The search space is a tree whose levels are the uncovered positives and
whose k = num_classifiers children per node each lower one classifier just
enough to cover that level's positive.  Every leaf is a feasible
configuration; depth-first traversal with an incumbent bound, sibling
equivalence elimination, root depth reduction, and difficulty-first level
ordering makes the exhaustive version tractable.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .cover import CoverState
from .errors import InfeasibleSolution
from .problem import (
    ROOT_COVERED,
    Problem,
    SearchStats,
    Solution,
    ThresholdConfig,
    check_feasible,
    compute_loss,
)
from .thresholds import (
    CandidateThresholdSet,
    difficulty_order,
    extract_candidates,
)

TraceFn = Callable[[float, int, int], None]

PRUNING_FLAGS = (
    "enable_prune_bound",
    "enable_prune_equivalence",
    "enable_depth_reduction",
    "enable_difficulty_order",
)

# Named pruning ablations: all rules on, each rule off alone, all off.
ABLATIONS: dict[str, dict[str, bool]] = {
    "all-on": {},
    "no-bound": {"enable_prune_bound": False},
    "no-equivalence": {"enable_prune_equivalence": False},
    "no-depth-reduction": {"enable_depth_reduction": False},
    "random-order": {"enable_difficulty_order": False},
    "all-off": dict.fromkeys(PRUNING_FLAGS, False),
}


@dataclass
class SearchOptions:
    """Switches and budgets for the tree search.

    The four pruning observations (PRUNING_FLAGS) can be ablated
    independently.  Without a budget the search runs to proof; with one it
    is anytime.  budget_ms is polled at every node visit and may expire
    before the first leaf, in which case the all-lowest fallback is
    returned; node_budget starts binding only once a first incumbent exists,
    so a tiny node budget still yields the first-descent leaf.
    """

    enable_prune_bound: bool = True
    enable_prune_equivalence: bool = True
    enable_depth_reduction: bool = True
    enable_difficulty_order: bool = True
    budget_ms: float | None = None
    node_budget: int | None = None
    random_order_seed: int | None = None
    trace: TraceFn | None = None

    def __post_init__(self):
        if self.budget_ms is not None and self.budget_ms <= 0:
            raise ValueError("budget_ms must be positive")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node_budget must be positive")


@dataclass
class SearchTreeSpec:
    """Shape of the search tree after depth reduction and level ordering."""

    level_positives: list[int]
    root_covered: list[int] = field(default_factory=list)


def reduce_depth(
    problem: Problem, candidates: CandidateThresholdSet
) -> tuple[list[int], tuple[float, ...]]:
    """Positives still uncovered at the all-tightest root, and that root.

    Any positive whose score lands above some classifier's tightest
    candidate (a sentinel above every sample of that classifier never
    covers anything) stays covered under every descendant configuration,
    so its level can be dropped from the tree outright.
    """
    root = candidates.root_config()
    remaining = []
    for p in range(problem.num_positives):
        s = problem.positive_scores[:, p]
        if not any(s[j] > root[j] for j in range(problem.num_classifiers)):
            remaining.append(p)
    return remaining, root


def plan_tree(
    problem: Problem,
    candidates: CandidateThresholdSet,
    options: SearchOptions,
) -> SearchTreeSpec:
    """Fix the level order up front; the tree itself is traversed lazily."""
    remaining, _ = reduce_depth(problem, candidates)
    if options.enable_depth_reduction:
        levels = list(remaining)
        covered = [p for p in range(problem.num_positives) if p not in set(remaining)]
    else:
        levels = list(range(problem.num_positives))
        covered = []
    if options.enable_difficulty_order:
        order = difficulty_order(problem)
        rank = {p: i for i, p in enumerate(order.order)}
        levels.sort(key=lambda p: rank[p])
    elif options.random_order_seed is not None:
        random.Random(options.random_order_seed).shuffle(levels)
    return SearchTreeSpec(level_positives=levels, root_covered=covered)


@dataclass
class _Frame:
    """One node on the explicit DFS stack."""

    depth: int
    children: list[tuple[int, int, int]]  # (incremental loss, classifier, target)
    cursor: int = 0
    applied: bool = False  # entering this node consumed an apply_edge
    skipped: int | None = None  # positive index recorded on a pass-through


def solve_exact(problem: Problem, options: SearchOptions | None = None) -> Solution:
    """Branch-and-bound search for a jointly optimal threshold configuration.

    Optimal unless a budget in ``options`` fires first; then the best
    incumbent is returned (feasible, since the first descent always
    completes) with ``optimal`` False.
    """
    if options is None:
        options = SearchOptions()
    t0 = time.perf_counter()
    candidates = extract_candidates(problem)
    state = CoverState(problem, candidates)
    tree = plan_tree(problem, candidates, options)
    levels = tree.level_positives
    h = len(levels)
    E = problem.num_classifiers

    stats = SearchStats(levels=h)
    stats.positives_removed_by_root = len(tree.root_covered)

    assignment: list[int | str | None] = [None] * problem.num_positives
    for p in tree.root_covered:
        assignment[p] = ROOT_COVERED

    best_loss: int | None = None
    best_config: tuple[float, ...] | None = None
    best_assignment: list[int | str] | None = None
    truncated = False

    def elapsed_ms() -> float:
        return (time.perf_counter() - t0) * 1000.0

    def over_budget() -> bool:
        if options.budget_ms is not None and elapsed_ms() >= options.budget_ms:
            return True
        if (
            best_loss is not None  # node budget never interrupts the first descent
            and options.node_budget is not None
            and stats.nodes_visited >= options.node_budget
        ):
            return True
        return False

    def plan_children(depth: int) -> _Frame:
        p = levels[depth]
        if state.is_positive_covered(p):
            return _Frame(depth=depth, children=[], skipped=p)
        kids = []
        for j in range(E):
            target = int(state.cover_position[j][p])
            inc, newly = state.peek_edge(j, target)
            kids.append((inc, j, target, newly))
        kids.sort(key=lambda c: (c[0], c[1]))
        chosen: list[tuple[int, int, int]] = []
        if options.enable_prune_equivalence:
            # newly is sorted, so byte equality is exact set equality.
            seen: set[bytes] = set()
            for inc, j, target, newly in kids:
                key = newly.tobytes()
                if key in seen:
                    stats.nodes_pruned_equivalence += 1
                    continue
                seen.add(key)
                chosen.append((inc, j, target))
        else:
            chosen = [(inc, j, target) for inc, j, target, _ in kids]
        return _Frame(depth=depth, children=chosen)

    def enter(depth: int, applied: bool) -> _Frame | None:
        """Count a node visit; returns a frame to push, or None at a leaf."""
        nonlocal best_loss, best_config, best_assignment, truncated
        stats.nodes_visited += 1
        if over_budget():
            truncated = True
            return None
        if depth == h:
            loss = state.fp_count
            if best_loss is None or loss < best_loss:
                best_loss = loss
                best_config = state.config()
                best_assignment = list(assignment)  # type: ignore[arg-type]
                stats.incumbent_history.append((elapsed_ms(), loss))
                if options.trace is not None:
                    options.trace(elapsed_ms(), stats.nodes_visited, loss)
            return None
        frame = plan_children(depth)
        frame.applied = applied
        if frame.skipped is not None:
            assignment[frame.skipped] = state.covering_classifier(frame.skipped)
        return frame

    stack: list[_Frame] = []
    frame = enter(0, applied=False)
    if frame is not None:
        stack.append(frame)
    while stack:
        frame = stack[-1]
        if truncated:
            frame.cursor = len(frame.children)
        if frame.skipped is not None and frame.cursor == 0 and not truncated:
            # Pass-through node: the level's positive is already covered.
            frame.cursor = 1
            child = enter(frame.depth + 1, applied=False)
            if child is not None:
                stack.append(child)
            continue
        advanced = False
        while frame.cursor < len(frame.children):
            inc, j, target = frame.children[frame.cursor]
            frame.cursor += 1
            if (
                options.enable_prune_bound
                and best_loss is not None
                and state.fp_count + inc >= best_loss
            ):
                stats.nodes_pruned_bound += 1
                continue
            state.apply_edge(j, target)
            assignment[levels[frame.depth]] = j
            child = enter(frame.depth + 1, applied=True)
            if child is not None:
                stack.append(child)
            else:
                state.undo_edge()
                assignment[levels[frame.depth]] = None
                if truncated:
                    break
                continue
            advanced = True
            break
        if advanced:
            continue
        # Frame exhausted: unwind.
        stack.pop()
        if frame.skipped is not None:
            assignment[frame.skipped] = None
        if frame.applied:
            state.undo_edge()
            parent = stack[-1]
            assignment[levels[parent.depth]] = None

    stats.wall_time_ms = elapsed_ms()
    if best_loss is None:
        # Budget too small even for the first descent: fall back to the
        # always-feasible all-lowest configuration.
        config = candidates.lowest_config()
        loss = compute_loss(problem, config)
        fb_assignment: list[int | str] = []
        for p in range(problem.num_positives):
            s = problem.positive_scores[:, p]
            fb_assignment.append(next(j for j in range(E) if s[j] > config[j]))
        return Solution(
            config=ThresholdConfig(config),
            loss=loss,
            assignment=fb_assignment,
            optimal=False,
            stats=stats,
            fallback=True,
        )
    assert best_config is not None and best_assignment is not None
    assert all(a is not None for a in best_assignment)
    assert best_loss == compute_loss(problem, best_config)
    return Solution(
        config=ThresholdConfig(best_config),
        loss=best_loss,
        assignment=best_assignment,
        optimal=not truncated,
        stats=stats,
        fallback=False,
    )


# A second name for the same search, kept because `calib solve --mode
# anytime` and the perfbench trace look it up; a budget, not the entry
# point, is what makes a run anytime.
solve_anytime = solve_exact


def redundant_classifiers(problem: Problem, solution: Solution) -> set[int]:
    """Classifiers removable from the ensemble without changing the outcome.

    A classifier is a removal candidate when its threshold sits at or above
    its tightest zero-coverage candidate and no positive is assigned to it.
    Candidates are dropped greedily one at a time, re-checking feasibility
    and loss after each, so the returned set is jointly removable.
    """
    config = tuple(solution.config)
    if not check_feasible(problem, config):
        raise InfeasibleSolution("solution does not cover every positive")
    candidates = extract_candidates(problem)
    assigned = {a for a in solution.assignment if isinstance(a, int)}
    removed: set[int] = set()
    base_loss = compute_loss(problem, config)
    E = problem.num_classifiers
    for j in range(E):
        if j in assigned:
            continue
        if config[j] < candidates[j].tightest:
            continue
        trial = removed | {j}
        if len(trial) == E:
            continue
        keep = [i for i in range(E) if i not in trial]
        pos = problem.positive_scores[keep]
        neg = problem.negative_scores[keep]
        th = [[config[i]] for i in keep]
        if not ((pos - th) > 0).any(axis=0).all():
            continue
        if int(((neg - th) > 0).any(axis=0).sum()) != base_loss:
            continue
        removed = trial
    return removed
