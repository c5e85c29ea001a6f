"""Exact and anytime tree search for jointly optimal threshold configurations.

The search space is a tree whose levels are the uncovered positives and
whose k = num_classifiers children per node each lower one classifier just
enough to cover that level's positive.  Every leaf is a feasible
configuration; depth-first traversal with an incumbent bound, sibling
equivalence elimination, root depth reduction, and difficulty-first level
ordering makes the exhaustive version tractable.  A positive's difficulty
is read off the root CoverState's per-candidate costs.  A local search
improves each new incumbent before it is recorded, so the bound prunes
against a better one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

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


def plan_tree(state: CoverState, options: SearchOptions) -> tuple[list[int], list[int], int]:
    """The level positives in search order, the root-covered positives and
    the root bound; the tree itself is traversed lazily.

    Depth reduction drops the positives of difficulty 0: some classifier's
    tightest candidate, which concedes no negative, already covers them, so
    they stay covered under every descendant configuration.  The root bound
    is the largest difficulty: no leaf can lose fewer negatives.
    """
    levels = list(range(state.cover_position.shape[1]))
    covered: list[int] = []
    difficulty, order = difficulty_order(state)
    if options.enable_difficulty_order:
        levels = order
    if options.enable_depth_reduction:
        covered = np.flatnonzero(difficulty == 0).tolist()
        levels = [p for p in levels if difficulty[p] > 0]
    if not options.enable_difficulty_order and options.random_order_seed is not None:
        random.Random(options.random_order_seed).shuffle(levels)
    return levels, covered, int(difficulty.max(initial=0))


LOCAL_SEARCH_ROUNDS = 5


class LeafImprover:
    """Local search on a leaf's positions, a large-neighbourhood move for set cover.

    A trial drops one classifier to position 0 and re-covers the positives
    only it covered, greedily: the positive whose cheapest cover concedes
    most goes first, through the classifier that concedes fewest new
    negatives.  Classifiers are tried in descending cost at their current
    position, and a trial is kept only if it loses strictly fewer
    negatives.  Position 0 covers no negative, and the positives it covers
    are never uncovered, so only the other live positives are tracked.
    """

    def __init__(self, state: CoverState):
        self.rows = state.rows
        self.cost = state.cost
        self.classifiers = np.arange(len(state.positions))
        # Classifier 0 at position 0 concedes nothing, so it pads the ORs.
        self.padded = np.concatenate(([0], self.classifiers, [0]))
        live = state.cover_position.min(axis=0) > 0
        self.cover_position = state.cover_position[:, live]
        self.cover_lists = self.cover_position.T.tolist()

    def improve(self, positions: list[int], loss: int, bound: int) -> tuple[list[int], int]:
        """(positions, loss) after the kept trials, the input pair if none is kept.

        Stops at ``bound``, which no configuration can beat.
        """
        for _ in range(LOCAL_SEARCH_ROUNDS):
            order, tables = self.tables(positions)
            kept = False
            for j in order:
                if tables is None:
                    tables = self.tables(positions)[1]
                sole, without, counts = tables
                if counts[j] >= loss:
                    continue
                trial = self.trial(j, positions, sole[j], without[j], counts[j], loss)
                if trial is not None:
                    positions, loss = trial
                    tables = None
                    kept = True
                    if loss <= bound:
                        return positions, loss
            if not kept:
                break
        return positions, loss

    def tables(self, positions: list[int]):
        """The raised classifiers in descending cost, and per classifier j the
        live positives only j covers, the false positives without j and their count.

        A per-positive cover count finds the positives one classifier covers;
        prefix and suffix ORs of the current rows give every j's set at once.
        """
        padded = np.array([0, *positions, 0])
        current = padded[1:-1]
        costs = self.cost[self.classifiers, current].tolist()
        order = sorted((j for j, t in enumerate(positions) if t), key=lambda j: -costs[j])
        covered = current[:, None] >= self.cover_position
        sole: list[list[int]] = [[] for _ in positions]
        js, qs = (covered & (np.add.reduce(covered, axis=0) == 1)).nonzero()
        for j, q in zip(js.tolist(), qs.tolist()):
            sole[j].append(q)
        rows = self.rows[self.padded, padded]
        before = np.bitwise_or.accumulate(rows, axis=0)
        after = np.bitwise_or.accumulate(rows[::-1], axis=0)
        without = before[:-2] | after[-3::-1]
        counts = np.add.reduce(np.bitwise_count(without), axis=1).tolist()
        return order, (sole, without, counts)

    def trial(self, j: int, positions: list[int], uncovered: list[int], fp: np.ndarray,
              count: int, loss: int) -> tuple[list[int], int] | None:
        """Drop j to position 0 and re-cover; None unless the count falls below loss."""
        positions = list(positions)
        positions[j] = 0
        while uncovered:
            worst = -1
            for q in uncovered:
                # The false-positive count after each classifier's cover of q.
                covers = self.rows[self.classifiers, self.cover_position[:, q]]
                counts = np.add.reduce(np.bitwise_count(covers | fp), axis=1).tolist()
                fewest = min(counts)
                if fewest >= loss:
                    return None
                if fewest > worst:
                    worst, worst_q, via = fewest, q, counts.index(fewest)
            count = worst
            positions[via] = t = self.cover_lists[worst_q][via]
            fp = fp | self.rows[via, t]
            uncovered = [q for q in uncovered if self.cover_lists[q][via] > t]
        return positions, count


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
    levels, root_covered, root_bound = plan_tree(state, options)
    h = len(levels)
    classifiers = np.arange(problem.num_classifiers)
    # Row p holds every classifier's cover position of positive p, contiguous.
    cover_by_level = np.ascontiguousarray(state.cover_position.T)

    stats = SearchStats(levels=h)
    stats.positives_removed_by_root = len(root_covered)

    best_loss: int | None = None
    best_positions: list[int] | None = None

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
        order = incs.argsort(kind="stable")
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

    def record_leaf() -> None:
        """Make the current leaf, improved by local search, the incumbent."""
        nonlocal best_loss, best_positions, improver
        best_positions, best_loss = state.positions.tolist(), state.fp_count
        if best_loss > root_bound:
            if improver is None:
                improver = LeafImprover(state)
            best_positions, best_loss = improver.improve(best_positions, best_loss,
                                                         root_bound)
        ms = elapsed_ms()
        stats.incumbent_history.append((ms, best_loss))
        if options.trace is not None:
            options.trace(ms, stats.nodes_visited, best_loss)

    def enter(depth: int) -> bool:
        """Visit a node and the pass-through nodes below it; False once a budget has fired.

        A pass-through node's positive is already covered, so its one child
        is visited in this loop.  A node with children pushes their frame,
        planned in full, so a budget firing below still counts every
        equivalence prune.
        """
        while True:
            stats.nodes_visited += 1
            if over_budget():
                return False
            if depth == h:
                if best_loss is None or state.fp_count < best_loss:
                    record_leaf()
                return True
            p = levels[depth]
            covering = state.positions >= cover_by_level[p]
            if not covering[covering.argmax()]:
                stack.append([depth + 1, 0, *plan_children(p)])
                return True
            depth += 1

    improver: LeafImprover | None = None
    prune_bound = options.enable_prune_bound
    # Depth-first over frames [child depth, next child k, increments,
    # classifiers, targets]: the top frame undoes child k - 1's edge, then
    # enters child k or is popped.  The stack is explicit, so tree depth is
    # not bounded by Python's recursion limit.
    stack: list[list] = []
    within_budget = enter(0)
    while within_budget and stack:
        frame = stack[-1]
        depth, k, incs, js, targets = frame
        if k:
            state.undo_edge()
        if k == len(incs):
            stack.pop()
        elif prune_bound and best_loss is not None and state.fp_count + incs[k] >= best_loss:
            # Children come in ascending inc and best_loss only falls,
            # so every later sibling fails the bound too.
            stats.nodes_pruned_bound += len(incs) - k
            stack.pop()
        else:
            state.apply_edge(js[k], targets[k])
            frame[1] = k + 1
            within_budget = enter(depth)

    stats.wall_time_ms = elapsed_ms()
    # With no incumbent the budget was too small even for the first descent:
    # fall back to the always-feasible all-lowest configuration.
    positions = grid.lengths - 1 if best_positions is None else best_positions
    config = grid.config(positions)
    loss = compute_loss(problem, config)
    assert best_loss is None or loss == best_loss
    assignment: list[int | str] = derive_assignment(problem, config)
    for p in root_covered:
        assignment[p] = ROOT_COVERED
    return Solution(
        config=config,
        loss=loss,
        assignment=assignment,
        optimal=within_budget,
        stats=stats,
        fallback=best_positions is None,
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
