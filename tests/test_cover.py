"""Incremental coverage state: apply/undo journaling against batch recounts."""

import random

import numpy as np
import pytest

from calib import (
    CoverState,
    EmptyJournal,
    MonotonicityViolation,
    Problem,
    compute_loss,
    difficulty_order,
    extract_candidates,
    oracle_solve,
    thresholds,
)

from conftest import candidates, small_problem, tie_heavy_problem


class State(CoverState):
    """A CoverState that keeps its problem and grid beside it for the checks below."""

    def __init__(self, problem):
        self.problem, self.grid = problem, extract_candidates(problem)
        super().__init__(self.problem, self.grid)


def make_state(problem):
    return State(problem)


def bits(packed, n):
    """One bool per negative, unpacked from a little-endian packed set."""
    return np.unpackbits(packed.view(np.uint8), bitorder="little")[:n].astype(bool)


def fp_bits(st):
    return bits(st.fp, st.problem.num_negatives)


def assert_consistent(st):
    """The incremental count matches the bits and a batch recomputation."""
    assert st.fp_count == int(np.bitwise_count(st.fp).sum())
    assert st.fp_count == compute_loss(st.problem, st.grid.config(st.positions))


def covering(st, positive):
    """Classifiers whose current position covers the positive."""
    return np.flatnonzero(st.positions >= st.cover_position[:, positive]).tolist()


def test_root_state_toy(toy):
    st = make_state(toy)
    assert st.fp_count == 0
    # sentinels cover nothing in this toy
    assert not any(covering(st, p) for p in range(toy.num_positives))
    assert st.grid.config(st.positions) == (7.0, 4.2)
    assert st.positions.tolist() == [0, 0]
    assert not fp_bits(st).any()


def test_apply_undo_single_edge(toy):
    st = make_state(toy)
    peek_inc, peek_newly = st.peek_edge(0, 2)
    assert peek_inc == 2 and np.flatnonzero(bits(peek_newly, 3)).tolist() == [0, 1]
    assert st.fp_count == 0 and not fp_bits(st).any()  # peek does not mutate
    assert st.apply_edge(0, 2) == 2
    assert np.flatnonzero(fp_bits(st)).tolist() == [0, 1]
    assert st.positions.tolist() == [2, 0]
    assert covering(st, 0) == covering(st, 1) == [0]
    assert_consistent(st)
    st.undo_edge()
    assert st.fp_count == 0
    assert covering(st, 0) == covering(st, 1) == []
    assert st.positions.tolist() == [0, 0]
    assert_consistent(st)


def test_shared_negative_counted_once():
    # both classifiers admit the same global negative; loss counts it once
    p = Problem(
        positive_scores=np.array([[5.0, 1.0], [5.0, 1.0]]),
        negative_scores=np.array([[2.0], [2.0]]),
    )
    st = make_state(p)
    assert st.apply_edge(0, 1) == 1
    assert st.apply_edge(1, 1) == 1  # second cover of negative 0 is free
    assert fp_bits(st).tolist() == [True]
    st.undo_edge()
    assert st.fp_count == 1
    st.undo_edge()
    assert st.fp_count == 0


def test_equal_fp_sets_share_fingerprint():
    p = Problem(
        positive_scores=np.array([[5.0, 1.0], [5.0, 1.0]]),
        negative_scores=np.array([[2.0], [2.0]]),
    )
    st = make_state(p)
    root = fp_bits(st)
    st.apply_edge(0, 1)
    via0 = fp_bits(st)
    st.undo_edge()
    st.apply_edge(1, 1)
    via1 = fp_bits(st)
    assert np.array_equal(via0, via1) and not np.array_equal(via0, root)


def test_monotonicity_and_empty_journal(toy):
    st = make_state(toy)
    st.apply_edge(0, 2)
    with pytest.raises(MonotonicityViolation):
        st.apply_edge(0, 1)
    with pytest.raises(MonotonicityViolation):
        st.peek_edge(0, 0)
    st.undo_edge()
    with pytest.raises(EmptyJournal):
        st.undo_edge()


def test_noop_edge_is_journaled(toy):
    st = make_state(toy)
    before = st.apply_edge(1, 1)
    assert st.apply_edge(1, 1) == before  # target == current
    assert len(st.journal) == 2
    st.undo_edge()
    st.undo_edge()
    assert st.positions.tolist() == [0, 0] and st.fp_count == 0


@pytest.mark.parametrize("seed", range(25))
def test_random_walk_apply_undo_round_trip(seed):
    """Random monotone walks: incremental state tracks batch recomputation,
    positive coverage matches the thresholds, and a full unwind restores the
    root exactly."""
    prob = small_problem(seed)
    st = make_state(prob)
    root_neg = fp_bits(st)
    rng = random.Random(seed * 7 + 1)
    steps = 0
    for _ in range(30):
        j = rng.randrange(prob.num_classifiers)
        cur = st.positions[j]
        hi = st.grid.lengths[j] - 1
        if cur == hi and rng.random() < 0.5 and st.journal:
            st.undo_edge()
            steps -= 1
            continue
        target = rng.randint(cur, hi)
        inc, newly = st.peek_edge(j, target)
        newly_bits = bits(newly, prob.num_negatives)
        before_fp = st.fp_count
        before_neg = fp_bits(st)
        fp = st.apply_edge(j, target)
        # peek promised exactly what apply delivered
        assert fp - before_fp == inc == newly_bits.sum()
        assert np.array_equal(fp_bits(st) & ~before_neg, newly_bits)
        assert fp == compute_loss(prob, st.grid.config(st.positions))
        # newly is the edge's row minus what was already covered
        row = prob.negative_scores[j] > st.grid.thresholds[j, target]
        assert np.array_equal(newly_bits, row & ~before_neg)
        theta = np.array(st.grid.config(st.positions))[:, None]
        covered = (prob.positive_scores > theta).any(axis=0).tolist()
        assert [bool(covering(st, p)) for p in range(prob.num_positives)] == covered
        steps += 1
        if steps % 7 == 0:
            assert_consistent(st)
    while st.journal:
        st.undo_edge()
    assert st.positions.tolist() == [0] * prob.num_classifiers
    assert st.fp_count == 0 and not root_neg.any()
    assert np.array_equal(fp_bits(st), root_neg)
    assert_consistent(st)


@pytest.mark.parametrize("seed", range(25))
def test_rows_match_threshold_rule(seed):
    """Every reachable row is exactly the negatives scoring above its candidate,
    and its cost is their count."""
    prob = small_problem(seed)
    st = make_state(prob)
    for j in range(prob.num_classifiers):
        for t, theta in enumerate(candidates(st.grid, j)):
            expected = prob.negative_scores[j] > theta
            assert np.array_equal(bits(st.rows[j, t], prob.num_negatives), expected)
            assert st.cost[j, t] == expected.sum()


def test_rows_do_not_depend_on_block_size(monkeypatch):
    prob = small_problem(3)
    whole, solved = make_state(prob), oracle_solve(prob)
    monkeypatch.setattr(thresholds, "_BLOCK_BYTES", 1)  # one classifier per block
    blocked = make_state(prob)
    assert np.array_equal(blocked.rows, whole.rows)
    assert np.array_equal(blocked.cost, whole.cost)
    assert np.array_equal(blocked.cover_position, whole.cover_position)
    assert oracle_solve(prob) == solved


ADJACENT = float(np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("prob", [
    *(small_problem(seed) for seed in range(10)),
    *(tie_heavy_problem(seed) for seed in range(10)),
    # The candidate below 1.0 is ADJACENT itself, tied with a positive there.
    Problem(np.array([[1.0, ADJACENT]]), np.array([[ADJACENT]])),
])
def test_cover_position_is_first_candidate_below(prob):
    st = make_state(prob)
    for j in range(prob.num_classifiers):
        cands = np.array(candidates(st.grid, j))
        for p, score in enumerate(prob.positive_scores[j]):
            t = st.cover_position[j, p]
            assert st.grid.thresholds[j, t] < score
            assert (cands[:t] >= score).all()


@pytest.mark.parametrize("seed", range(10))
def test_array_peek_equals_scalar_peeks(seed):
    prob = small_problem(seed)
    st = make_state(prob)
    rng = random.Random(seed)
    E = prob.num_classifiers

    def looser(j):
        return rng.randint(st.positions[j], st.grid.lengths[j] - 1)

    for _ in range(3):
        j = rng.randrange(E)
        st.apply_edge(j, looser(j))
    targets = np.array([looser(j) for j in range(E)])
    incs, newly = st.peek_edge(np.arange(E), targets)
    assert incs.shape == (E,) and newly.shape == (E, st.fp.size)
    for j in range(E):
        inc, row = st.peek_edge(j, int(targets[j]))
        assert incs[j] == inc and np.array_equal(newly[j], row)
    tighter = targets.copy()
    tighter[rng.randrange(E)] = -1
    with pytest.raises(MonotonicityViolation):
        st.peek_edge(np.arange(E), tighter)


def test_no_negatives_costs_nothing():
    p = Problem(
        positive_scores=np.array([[5.0, 1.0], [2.0, 3.0]]),
        negative_scores=np.zeros((2, 0)),
    )
    st = make_state(p)
    assert st.cost.tolist() == [[0], [0]]
    assert difficulty_order(st)[0].tolist() == [0, 0]
    incs, newly = st.peek_edge(np.arange(2), st.cover_position[:, 0])
    assert incs.tolist() == [0, 0] and newly.shape == (2, 0)
    assert st.apply_edge(0, int(st.cover_position[0, 0])) == 0
    assert_consistent(st)
