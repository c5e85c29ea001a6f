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
    # sentinels cover nothing in this toy
    assert not any(st.is_positive_covered(p) for p in range(toy.num_positives))
    assert st.config() == (7.0, 4.2)
    assert st.positions.tolist() == [0, 0]
    assert not (st.neg_count > 0).any()


def test_apply_undo_single_edge(toy):
    st = make_state(toy)
    peek_inc, peek_newly = st.peek_edge(0, 2)
    assert peek_inc == 2 and peek_newly.tolist() == [0, 1]
    assert st.fp_count == 0  # peek does not mutate
    assert st.apply_edge(0, 2) == 2
    assert np.flatnonzero(st.neg_count > 0).tolist() == [0, 1]
    assert st.positions.tolist() == [2, 0]
    assert st.is_positive_covered(0) and st.is_positive_covered(1)
    assert st.covering_classifier(0) == st.covering_classifier(1) == 0
    st.assert_consistent()
    st.undo_edge()
    assert st.fp_count == 0
    assert not st.is_positive_covered(0) and not st.is_positive_covered(1)
    with pytest.raises(ValueError):
        st.covering_classifier(0)
    assert st.positions.tolist() == [0, 0]
    st.assert_consistent()


def test_shared_negative_counted_once():
    # both classifiers admit the same global negative; loss counts it once
    p = Problem(
        positive_scores=np.array([[5.0, 1.0], [5.0, 1.0]]),
        negative_scores=np.array([[2.0], [2.0]]),
    )
    st = make_state(p)
    assert st.apply_edge(0, 1) == 1
    assert st.apply_edge(1, 1) == 1  # second cover of negative 0 is free
    assert st.neg_count.tolist() == [2]
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
    root_neg = st.neg_count.copy()
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
        before_fp = st.fp_count
        before_neg = st.neg_count > 0
        fp = st.apply_edge(j, target)
        # peek promised exactly what apply delivered
        assert fp - before_fp == inc == len(newly)
        now_neg = st.neg_count > 0
        assert np.flatnonzero(now_neg & ~before_neg).tolist() == newly.tolist()
        assert fp == compute_loss(prob, st.config())
        assert list(newly) == sorted(newly)
        theta = np.array(st.config())[:, None]
        covered = (prob.positive_scores > theta).any(axis=0).tolist()
        assert [st.is_positive_covered(p) for p in range(prob.num_positives)] == covered
        steps += 1
        if steps % 7 == 0:
            st.assert_consistent()
    while st.journal:
        st.undo_edge()
    assert st.positions.tolist() == [0] * prob.num_classifiers
    assert st.fp_count == 0 or st.fp_count == int((root_neg > 0).sum())
    assert np.array_equal(st.neg_count, root_neg)
    st.assert_consistent()
