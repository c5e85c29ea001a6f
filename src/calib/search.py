"""Exact and anytime tree search for jointly optimal threshold configurations.

The search space is a tree whose levels are the uncovered positives and
whose k = num_classifiers children per node each lower one classifier just
enough to cover that level's positive.  Every leaf is a feasible
configuration; depth-first traversal with an incumbent bound, sibling
equivalence elimination, root depth reduction, and difficulty-first level
ordering makes the exhaustive version tractable.  A node's children are
priced as false-positive totals from its level's row in the CoverState, in
the same call that finds a pass-through node, and a positive's difficulty
is read off the root CoverState's cover costs.  A local search
improves each new incumbent before it is recorded, so the bound prunes
against a better one.  The search alone holds the bound, the incumbent's
loss, and hands it to each peek, which prices only the edges that concede
fewer negatives on their own; every child whose total reaches it is
dropped before the children are sorted.  Each such child counts as a bound
prune, and the traversal is unchanged.
"""

from __future__ import annotations

import numbers
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
        # A bool is an int to Python, but no budget.
        if isinstance(self.budget_ms, bool):
            raise ValueError(f"budget_ms must be a number, got {self.budget_ms!r}")
        # `not x > 0` also rejects NaN.
        if self.budget_ms is not None and not self.budget_ms > 0:
            raise ValueError("budget_ms must be positive")
        if self.node_budget is not None and (
                isinstance(self.node_budget, bool)
                or not isinstance(self.node_budget, numbers.Integral)):
            raise ValueError(f"node_budget must be an integer, got {self.node_budget!r}")
        if self.node_budget is not None and not self.node_budget > 0:
            raise ValueError("node_budget must be positive")
        seed = self.random_order_seed
        if seed is not None:
            if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
                raise ValueError(f"random_order_seed must be an integer, got {seed!r}")
            self.random_order_seed = int(seed)  # random.Random takes no numpy int


def difficulty_order(state: CoverState) -> tuple[np.ndarray, list[int]]:
    """Per-positive difficulty and the positives sorted hardest first.

    A positive's difficulty is the fewest negatives any one classifier must
    concede to cover it from the root, ``min_j cost[j, p]``.  Placing hard
    positives at the top of the tree lets pruning by bound discard larger
    subtrees; ties keep ascending index.
    """
    difficulty = state.cost.min(axis=0)
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
    Trials run on the CoverState's rows: each classifier's position is
    named by one of its rows, 0 for position 0 and q + 1 for its cover
    position of live positive q.
    """

    def __init__(self, state: CoverState):
        self.rows = state.rows
        self.row_position = state.row_position
        self.classifiers = state.classifiers
        # Classifier 0 at row 0 concedes nothing, so it pads the ORs.
        self.padded = np.concatenate(([0], self.classifiers, [0]))
        self.cover_position = state.row_position[:, 1:]
        self.cover_lists = self.cover_position.T.tolist()
        self.live_edges = state.live_edges

    def improve(self, positions: list[int], loss: int, bound: int) -> tuple[list[int], int]:
        """(positions, loss) after the kept trials, equal to the input if none is kept.

        Stops at ``bound``, which no configuration can beat.
        """
        # Each position's first row; rows of equal positions are equal.
        at = self.row_position == np.array(positions)[:, None]
        rows = at.argmax(axis=1).tolist()
        for _ in range(LOCAL_SEARCH_ROUNDS):
            order, tables = self.tables(rows)
            kept = False
            for j in order:
                if tables is None:
                    tables = self.tables(rows)[1]
                sole, without, counts = tables
                if counts[j] >= loss:
                    continue
                trial = self.trial(j, rows, sole[j], without[j], counts[j], loss)
                if trial is not None:
                    rows, loss = trial
                    tables = None
                    kept = True
                    if loss <= bound:
                        break
            if not kept or loss <= bound:
                break
        return self.row_position[self.classifiers, rows].tolist(), loss

    def tables(self, rows: list[int]):
        """The raised classifiers in descending cost, and per classifier j the
        live positives only j covers, the false positives without j and their count.

        A per-positive cover count finds the positives one classifier covers;
        prefix and suffix ORs of the current rows give every j's set at once.
        """
        padded = np.array([0, *rows, 0])
        current = padded[1:-1]
        words = self.rows[self.padded, padded]
        costs = np.add.reduce(np.bitwise_count(words[1:-1]), axis=1).tolist()
        order = sorted((j for j, r in enumerate(rows) if r), key=lambda j: -costs[j])
        covered = self.row_position[self.classifiers, current][:, None] >= self.cover_position
        sole: list[list[int]] = [[] for _ in rows]
        js, qs = (covered & (np.add.reduce(covered, axis=0) == 1)).nonzero()
        for j, q in zip(js.tolist(), qs.tolist()):
            sole[j].append(q)
        before = np.bitwise_or.accumulate(words, axis=0)
        after = np.bitwise_or.accumulate(words[::-1], axis=0)
        without = before[:-2] | after[-3::-1]
        counts = np.add.reduce(np.bitwise_count(without), axis=1).tolist()
        return order, (sole, without, counts)

    def trial(self, j: int, rows: list[int], uncovered: list[int], fp: np.ndarray,
              count: int, loss: int) -> tuple[list[int], int] | None:
        """Drop j to row 0 and re-cover; None unless the count falls below loss."""
        rows = list(rows)
        rows[j] = 0
        while uncovered:
            worst = -1
            for q in uncovered:
                # The false-positive count after each classifier's cover of q,
                # for the classifiers whose cover alone concedes fewer than loss.
                live, live_rows = self.live_edges(q + 1, loss)
                counts = np.add.reduce(np.bitwise_count(live_rows | fp), axis=1).tolist()
                fewest = min(counts, default=loss)
                if fewest >= loss:
                    return None
                if fewest > worst:
                    worst, worst_q, via = fewest, q, live.item(counts.index(fewest))
            count = worst
            rows[via] = worst_q + 1
            t = self.cover_lists[worst_q][via]
            fp = fp | self.rows[via, worst_q + 1]
            uncovered = [q for q in uncovered if self.cover_lists[q][via] > t]
        return rows, count


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
    # Each level's row in state.rows.  A positive covered at the root has
    # none and takes row 0, whose position 0 every classifier has reached.
    row_of = dict(zip(state.live.tolist(), range(1, len(state.live) + 1)))
    level_rows = [row_of.get(p, 0) for p in levels]

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

    def plan_children(js: np.ndarray, totals: np.ndarray, unions: np.ndarray) -> list | None:
        """False-positive totals and classifiers of the children below the
        bound, in (total, j) order, and the count of dead edges, the others.

        None when no child is below the bound: no frame is pushed, and
        every edge is counted as pruned here, as popping its frame would
        count it.
        """
        if bound is None:
            order = totals.argsort(kind="stable")
        else:
            # The children below the bound, in ascending j, then in (total, j) order.
            order = (totals < bound).nonzero()[0]
            order = order[totals[order].argsort(kind="stable")]
        dead = num_classifiers - len(order)
        if not len(order):
            stats.nodes_pruned_bound += dead
            return None
        totals = totals[order].tolist()
        if options.enable_prune_equivalence and len(set(totals)) < len(totals):
            # Equal unions at one node are equal newly covered sets, and
            # have equal totals, so only a run of tied totals can hold one;
            # the first of each set is kept.  Packed bits are canonical, so
            # byte equality is exact set equality.
            dropped: list[int] = []
            run_end = -1
            for k in range(len(totals) - 1):
                if totals[k] != totals[k + 1]:
                    continue
                # Child k + 1 ties with child k, in the run ending at k or a new one.
                if k != run_end:
                    seen = {unions[order[k]].tobytes()}
                run_end = k + 1
                key = unions[order[run_end]].tobytes()
                if key in seen:
                    dropped.append(run_end)
                else:
                    seen.add(key)
            if dropped:
                stats.nodes_pruned_equivalence += len(dropped)
                order = np.delete(order, dropped)
                totals = [t for k, t in enumerate(totals) if k not in dropped]
        return [totals, js[order].tolist(), dead]

    def record_leaf() -> None:
        """Make the current leaf, improved by local search, the incumbent."""
        nonlocal best_loss, best_positions, improver, bound
        best_positions, best_loss = state.positions.tolist(), state.fp_count
        if best_loss > root_bound:
            if improver is None:
                improver = LeafImprover(state)
            best_positions, best_loss = improver.improve(best_positions, best_loss,
                                                         root_bound)
        bound = best_loss if options.enable_prune_bound else None
        ms = elapsed_ms()
        stats.incumbent_history.append((ms, best_loss))
        if options.trace is not None:
            options.trace(ms, stats.nodes_visited, best_loss)

    def enter(depth: int) -> bool:
        """Visit a node and the pass-through nodes below it; False once a budget has fired.

        One peek_edge call per node either finds its positive already
        covered, a pass-through whose one child is visited in this loop, or
        prices the live children.  A node with a child to enter pushes their
        frame, planned in full, so a budget firing below still counts every
        equivalence prune among them.  Its dead edges, which cannot beat the
        bound, are counted as bound prunes when the frame is popped.
        """
        while True:
            stats.nodes_visited += 1
            if over_budget():
                return False
            if depth == h:
                if best_loss is None or state.fp_count < best_loss:
                    record_leaf()
                return True
            row = level_rows[depth]
            priced = state.peek_edge(row, bound)
            if priced is not None:
                planned = plan_children(*priced)
                if planned is not None:
                    stack.append([depth + 1, 0, row, *planned])
                return True
            depth += 1

    improver: LeafImprover | None = None
    # The incumbent's loss, once there is one and bound pruning is on.
    bound: int | None = None
    num_classifiers = problem.num_classifiers
    # Depth-first over frames [child depth, next child k, row, false-positive
    # totals, classifiers, dead edges]: the top frame undoes child k - 1's
    # edge, then enters child k or is popped.  The stack is explicit, so
    # tree depth is not bounded by Python's recursion limit.
    stack: list[list] = []
    within_budget = enter(0)
    while within_budget and stack:
        frame = stack[-1]
        depth, k, row, totals, js, dead = frame
        if k:
            state.undo_edge()
        if k == len(totals) or (bound is not None and totals[k] >= bound):
            # Children come in ascending total and the bound only falls,
            # so every later sibling fails it too, as every dead edge does.
            stats.nodes_pruned_bound += len(totals) - k + dead
            stack.pop()
        else:
            state.apply_edge(js[k], row, totals[k])
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
