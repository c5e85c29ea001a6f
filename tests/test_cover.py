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
    extract_candidates,
)

from conftest import small_problem


def make_state(problem):
    return CoverState(problem, extract_candidates(problem))


def test_root_state_toy(toy):
    st = make_state(toy)
    assert st.fp_count == 0
    assert not (st.pos_count > 0).any()  # sentinels cover nothing in this toy
    assert st.config() == (7.0, 4.2)
    assert not (st.neg_count > 0).any()


def test_apply_undo_single_edge(toy):
    st = make_state(toy)
    peek_inc, peek_newly = st.peek_edge(0, 2)
    assert peek_inc == 2 and peek_newly.tolist() == [0, 1]
    assert st.fp_count == 0  # peek does not mutate
    fp, newly = st.apply_edge(0, 2)
    assert fp == 2 and newly.tolist() == [0, 1]
    assert (st.pos_count > 0).sum() == 2
    assert st.is_positive_covered(0) and st.is_positive_covered(1)
    assert st.covering_classifier(0) == 0
    st.assert_consistent()
    st.undo_edge()
    assert st.fp_count == 0 and not (st.pos_count > 0).any()
    assert st.positions == [0, 0]
    st.assert_consistent()


def test_shared_negative_counted_once():
    # both classifiers admit the same global negative; loss counts it once
    p = Problem(
        positive_scores=np.array([[5.0, 1.0], [5.0, 1.0]]),
        negative_scores=np.array([[2.0], [2.0]]),
    )
    st = make_state(p)
    st.apply_edge(0, 1)
    assert st.fp_count == 1
    fp, newly = st.apply_edge(1, 1)
    assert fp == 1 and newly.size == 0  # second cover of negative 0 is free
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
    root = st.neg_count > 0
    st.apply_edge(0, 1)
    via0 = st.neg_count > 0
    st.undo_edge()
    st.apply_edge(1, 1)
    via1 = st.neg_count > 0
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
    st.apply_edge(1, 1)
    fp, newly = st.apply_edge(1, 1)  # target == current
    assert newly.size == 0 and fp == st.fp_count
    st.undo_edge()
    st.undo_edge()
    assert st.positions == [0, 0] and st.fp_count == 0


@pytest.mark.parametrize("seed", range(25))
def test_random_walk_apply_undo_round_trip(seed):
    """Random monotone walks: incremental state tracks batch recomputation,
    and a full unwind restores the root exactly."""
    prob = small_problem(seed)
    st = make_state(prob)
    root_neg = st.neg_count.copy()
    root_pos = st.pos_count.copy()
    rng = random.Random(seed * 7 + 1)
    steps = 0
    for _ in range(30):
        j = rng.randrange(prob.num_classifiers)
        cur = st.positions[j]
        hi = len(st.candidates[j]) - 1
        if cur == hi and rng.random() < 0.5 and st.journal:
            st.undo_edge()
            steps -= 1
            continue
        target = rng.randint(cur, hi)
        inc, newly = st.peek_edge(j, target)
        fp, applied = st.apply_edge(j, target)
        # peek promised exactly what apply delivered
        assert np.array_equal(newly, applied)
        assert inc == len(applied)
        assert fp == compute_loss(prob, st.config())
        assert list(applied) == sorted(applied)
        steps += 1
        if steps % 7 == 0:
            st.assert_consistent()
    while st.journal:
        st.undo_edge()
    assert st.positions == [0] * prob.num_classifiers
    assert st.fp_count == 0 or st.fp_count == int((root_neg > 0).sum())
    assert np.array_equal(st.neg_count, root_neg)
    assert np.array_equal(st.pos_count, root_pos)
    st.assert_consistent()
