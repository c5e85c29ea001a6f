"""Exact and anytime tree search for jointly optimal threshold configurations.

The search space is a tree whose levels are the uncovered positives and
whose k = num_classifiers children per node each lower one classifier just
enough to cover that level's positive.  Every leaf is a feasible
configuration; depth-first traversal with an incumbent bound, sibling
equivalence elimination, root depth reduction, and difficulty-first level
ordering makes the exhaustive version tractable.  A positive's difficulty
is read off the root CoverState's per-candidate costs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .cover import CoverState
from .errors import InfeasibleSolution
from .problem import (
    ROOT_COVERED,
    Problem,
    SearchStats,
    Solution,
    check_feasible,
    compute_loss,
    derive_assignment,
)
from .thresholds import extract_candidates

TraceFn = Callable[[float, int, int], None]

_EXHAUSTED = object()  # next() default: a node iterator has no child left

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
        # `not x > 0` also rejects NaN.
        if self.budget_ms is not None and not self.budget_ms > 0:
            raise ValueError("budget_ms must be positive")
        if self.node_budget is not None and not self.node_budget > 0:
            raise ValueError("node_budget must be positive")


@dataclass
class SearchTreeSpec:
    """Shape of the search tree after depth reduction and level ordering."""

    level_positives: list[int]
    root_covered: list[int] = field(default_factory=list)


def difficulty_order(state: CoverState) -> tuple[np.ndarray, list[int]]:
    """Per-positive difficulty and the positives sorted hardest first.

    A positive's difficulty is the fewest negatives any one classifier must
    concede to cover it from the root, ``min_j cost[j, cover_position[j, p]]``.
    Placing hard positives at the top of the tree lets pruning by bound
    discard larger subtrees; ties keep ascending index.
    """
    costs = np.take_along_axis(state.cost, state.cover_position, axis=1)
    difficulty = costs.min(axis=0)
    return difficulty, np.argsort(-difficulty, kind="stable").tolist()


def plan_tree(state: CoverState, options: SearchOptions) -> SearchTreeSpec:
    """Fix the level order up front; the tree itself is traversed lazily.

    Depth reduction drops the positives of difficulty 0: some classifier's
    tightest candidate, which concedes no negative, already covers them, so
    they stay covered under every descendant configuration.
    """
    levels = list(range(state.cover_position.shape[1]))
    covered: list[int] = []
    if options.enable_depth_reduction or options.enable_difficulty_order:
        difficulty, order = difficulty_order(state)
        if options.enable_difficulty_order:
            levels = order
        if options.enable_depth_reduction:
            covered = np.flatnonzero(difficulty == 0).tolist()
            levels = [p for p in levels if difficulty[p] > 0]
    if not options.enable_difficulty_order and options.random_order_seed is not None:
        random.Random(options.random_order_seed).shuffle(levels)
    return SearchTreeSpec(level_positives=levels, root_covered=covered)


def solve_exact(problem: Problem, options: SearchOptions | None = None) -> Solution:
    """Branch-and-bound search for a jointly optimal threshold configuration.

    Optimal unless a budget in ``options`` fires first; then the best
    incumbent is returned (feasible, since the first descent always
    completes) with ``optimal`` False.
    """
    if options is None:
        options = SearchOptions()
    t0 = time.perf_counter()
    grid = extract_candidates(problem)
    state = CoverState(problem, grid)
    tree = plan_tree(state, options)
    levels = tree.level_positives
    h = len(levels)
    classifiers = np.arange(problem.num_classifiers)
    # Row p holds every classifier's cover position of positive p, contiguous.
    cover_by_level = np.ascontiguousarray(state.cover_position.T)

    stats = SearchStats(levels=h)
    stats.positives_removed_by_root = len(tree.root_covered)

    # Each leaf copies this list; every level on its path was just written.
    assignment: list[int | str | None] = [None] * problem.num_positives
    for p in tree.root_covered:
        assignment[p] = ROOT_COVERED

    best_loss: int | None = None
    best_config: tuple[float, ...] | None = None
    best_assignment: list[int | str] | None = None

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

    def plan_children(p: int) -> tuple[list[int], list[int], list[int]]:
        """Increments, classifiers and targets of the children, in (inc, j) order."""
        targets = cover_by_level[p]
        incs, newly = state.peek_edge(classifiers, targets)
        order = np.argsort(incs, kind="stable")
        incs = incs[order]
        if options.enable_prune_equivalence:
            # Equal sets have equal increments, so only a run of tied
            # increments can hold one; the first of each set is kept.
            # Packed bits are canonical, so byte equality is exact set equality.
            dropped: list[int] = []
            run_end = -1
            for k in (incs[1:] == incs[:-1]).nonzero()[0].tolist():
                # Child k + 1 ties with child k, in the run ending at k or a new one.
                if k != run_end:
                    seen = {newly[order[k]].tobytes()}
                run_end = k + 1
                key = newly[order[run_end]].tobytes()
                if key in seen:
                    dropped.append(run_end)
                else:
                    seen.add(key)
            if dropped:
                stats.nodes_pruned_equivalence += len(dropped)
                order, incs = np.delete(order, dropped), np.delete(incs, dropped)
        return incs.tolist(), order.tolist(), targets[order].tolist()

    def expand(depth: int) -> Iterator[None]:
        """Yield once per child entered, with the child's edge applied."""
        p = levels[depth]
        covering = state.positions >= cover_by_level[p]
        j = int(covering.argmax())
        if covering[j]:
            # Pass-through node: the level's positive is already covered;
            # argmax names the first classifier covering it.
            assignment[p] = j
            yield
            return
        # Planned in full before any child is entered, so a budget firing below
        # still counts every equivalence prune.
        incs, js, targets = plan_children(p)
        for k, inc in enumerate(incs):
            if (
                options.enable_prune_bound
                and best_loss is not None
                and state.fp_count + inc >= best_loss
            ):
                # Children come in ascending inc and best_loss only falls,
                # so every later sibling fails the bound too.
                stats.nodes_pruned_bound += len(incs) - k
                return
            j = js[k]
            state.apply_edge(j, targets[k])
            assignment[p] = j
            yield
            state.undo_edge()

    def enter(depth: int) -> bool:
        """Visit a node; False once a budget has fired."""
        nonlocal best_loss, best_config, best_assignment
        stats.nodes_visited += 1
        if over_budget():
            return False
        if depth < h:
            stack.append(expand(depth))
        elif best_loss is None or state.fp_count < best_loss:
            best_loss = state.fp_count
            best_config = state.config()
            best_assignment = list(assignment)  # type: ignore[arg-type]
            ms = elapsed_ms()
            stats.incumbent_history.append((ms, best_loss))
            if options.trace is not None:
                options.trace(ms, stats.nodes_visited, best_loss)
        return True

    # Depth-first: the top iterator either enters its next child, one level
    # below it, or is exhausted and popped.  The stack is explicit, so tree
    # depth is not bounded by Python's recursion limit.
    stack: list[Iterator[None]] = []
    within_budget = enter(0)
    while within_budget and stack:
        if next(stack[-1], _EXHAUSTED) is _EXHAUSTED:
            stack.pop()
        else:
            within_budget = enter(len(stack))

    stats.wall_time_ms = elapsed_ms()
    if best_loss is None:
        # Budget too small even for the first descent: fall back to the
        # always-feasible all-lowest configuration.
        config = grid.lowest_config()
        return Solution(
            config=config,
            loss=compute_loss(problem, config),
            assignment=derive_assignment(problem, config),
            optimal=False,
            stats=stats,
            fallback=True,
        )
    assert best_config is not None and best_assignment is not None
    assert all(a is not None for a in best_assignment)
    assert best_loss == compute_loss(problem, best_config)
    return Solution(
        config=best_config,
        loss=best_loss,
        assignment=best_assignment,
        optimal=within_budget,
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
    tightest = extract_candidates(problem).thresholds[:, 0]
    assigned = {a for a in solution.assignment if isinstance(a, int)}
    removed: set[int] = set()
    base_loss = compute_loss(problem, config)
    for j in range(problem.num_classifiers):
        if j in assigned or config[j] < tightest[j]:
            continue
        # A +inf threshold scores every sample negatively: the classifier is
        # gone.  Removing all of them covers no positive, so fails here.
        trial = [np.inf if i in removed or i == j else t for i, t in enumerate(config)]
        if check_feasible(problem, trial) and compute_loss(problem, trial) == base_loss:
            removed.add(j)
    return removed
