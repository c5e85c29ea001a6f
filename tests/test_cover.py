"""Incremental coverage state: apply/undo journaling against batch recounts."""

import random

import numpy as np
import pytest

from calib import (
    CoverState,
    EmptyJournal,
    GenerateSpec,
    MonotonicityViolation,
    Problem,
    compute_loss,
    difficulty_order,
    extract_candidates,
    generate,
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


def price(st, j, row):
    """One edge's false-positive total and packed union, the reference for peek_edge."""
    union = st.rows[j, row] | st.fp
    return int(np.bitwise_count(union).sum()), union


def apply(st, j, row):
    """Price one edge, enter it with that total and return the new count."""
    total, _ = price(st, j, row)
    st.apply_edge(j, row, total)
    return st.fp_count


def looser_rows(st, j):
    """Classifier j's rows whose candidate is at or below its current position."""
    return np.flatnonzero(st.row_position[j] >= st.positions[j]).tolist()


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
    peek_total, peek_union = price(st, 0, 2)
    assert peek_total == 2 and np.flatnonzero(bits(peek_union, 3)).tolist() == [0, 1]
    js, totals, unions = st.peek_edge(2, None)
    assert js.tolist() == [0, 1] and totals[0] == peek_total
    assert np.array_equal(unions[0], peek_union)
    assert st.fp_count == 0 and not fp_bits(st).any()  # peek does not mutate
    st.apply_edge(0, 2, peek_total)
    assert st.fp_count == 2
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
    assert apply(st, 0, 1) == 1
    assert apply(st, 1, 1) == 1  # second cover of negative 0 is free
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
    apply(st, 0, 1)
    via0 = fp_bits(st)
    st.undo_edge()
    apply(st, 1, 1)
    via1 = fp_bits(st)
    assert np.array_equal(via0, via1) and not np.array_equal(via0, root)


def test_monotonicity_and_empty_journal(toy):
    st = make_state(toy)
    apply(st, 0, 2)
    with pytest.raises(MonotonicityViolation):
        st.apply_edge(0, 1, st.fp_count)
    # A refused edge changes nothing.
    assert len(st.journal) == 1 and st.positions.tolist() == [2, 0]
    assert_consistent(st)
    st.undo_edge()
    with pytest.raises(EmptyJournal):
        st.undo_edge()


def test_noop_edge_is_journaled(toy):
    st = make_state(toy)
    before = apply(st, 1, 1)
    assert apply(st, 1, 1) == before  # target == current
    assert len(st.journal) == 2
    st.undo_edge()
    st.undo_edge()
    assert st.positions.tolist() == [0, 0] and st.fp_count == 0


@pytest.mark.parametrize("seed", range(25))
def test_random_walk_apply_undo_round_trip(seed):
    """Random monotone walks over the rows: incremental state tracks batch
    recomputation, positive coverage matches the thresholds, and a full
    unwind restores the root exactly."""
    prob = small_problem(seed)
    st = make_state(prob)
    root_neg = fp_bits(st)
    rng = random.Random(seed * 7 + 1)
    for _ in range(30):
        j = rng.randrange(prob.num_classifiers)
        rows = looser_rows(st, j)
        if st.positions[j] == st.row_position[j].max() and rng.random() < 0.5 and st.journal:
            st.undo_edge()
            continue
        row = rng.choice(rows)
        target = st.row_position[j, row]
        total, union = price(st, j, row)
        union_bits = bits(union, prob.num_negatives)
        before_neg = fp_bits(st)
        st.apply_edge(j, row, total)
        assert st.positions[j] == target
        # peek promised exactly what apply delivered, and the carried total
        # is the count of the new set and the batch loss
        assert np.array_equal(fp_bits(st), union_bits)
        assert st.fp_count == total == union_bits.sum()
        assert_consistent(st)
        # the union is the edge's row joined with what was already covered
        row = prob.negative_scores[j] > st.grid.thresholds[j, target]
        assert np.array_equal(union_bits, row | before_neg)
        theta = np.array(st.grid.config(st.positions))[:, None]
        covered = (prob.positive_scores > theta).any(axis=0).tolist()
        assert [bool(covering(st, p)) for p in range(prob.num_positives)] == covered
    while st.journal:
        st.undo_edge()
    assert st.positions.tolist() == [0] * prob.num_classifiers
    assert st.fp_count == 0 and not root_neg.any()
    assert np.array_equal(fp_bits(st), root_neg)
    assert_consistent(st)


def brute_live(prob):
    """Positives that no classifier's tightest candidate covers."""
    tightest = extract_candidates(prob).thresholds[:, :1]
    return np.flatnonzero(~(prob.positive_scores > tightest).any(axis=0)).tolist()


@pytest.mark.parametrize("seed", range(25))
def test_rows_match_threshold_rule(seed):
    """One row per classifier and live positive, plus the empty row 0: each is
    exactly the negatives scoring above its candidate, the classifier's cover
    position of that positive.  Root costs are brute-force counts."""
    for prob in (small_problem(seed), tie_heavy_problem(seed)):
        assert_rows_match_threshold_rule(prob)


def assert_rows_match_threshold_rule(prob):
    st = make_state(prob)
    E, P, N = prob.num_classifiers, prob.num_positives, prob.num_negatives
    live = brute_live(prob)
    assert st.live.tolist() == live
    assert st.rows.shape == (E, len(live) + 1, -(-N // 64))
    assert not st.row_position[:, 0].any()
    assert np.array_equal(st.row_position[:, 1:], st.cover_position[:, live])
    for j in range(E):
        for row, t in enumerate(st.row_position[j]):
            expected = prob.negative_scores[j] > st.grid.thresholds[j, t]
            assert np.array_equal(bits(st.rows[j, row], N), expected)
        for p in range(P):
            # A negative tied with the positive is conceded too.
            conceded = prob.negative_scores[j] >= prob.positive_scores[j, p]
            assert st.cost[j, p] == conceded.sum()


def test_rows_at_exemplar_scale_stay_small():
    """E = P = 300, N = 5,000: the rows hold only the live levels' edges."""
    prob, _ = generate(GenerateSpec(seed=1, num_classifiers=300, num_positives=300,
                                    num_negatives=5000, dimensions=12, noise=0.1,
                                    spread=0.2))
    st = CoverState(prob, extract_candidates(prob))
    assert st.rows.shape == (300, len(st.live) + 1, 79)
    assert st.rows.nbytes <= 18 << 20


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


def test_no_negatives_costs_nothing():
    p = Problem(
        positive_scores=np.array([[5.0, 1.0], [2.0, 3.0]]),
        negative_scores=np.zeros((2, 0)),
    )
    st = make_state(p)
    assert st.cost.tolist() == [[0, 0], [0, 0]]
    assert difficulty_order(st)[0].tolist() == [0, 0]
    # Every positive is covered at the root: only the empty row is left.
    assert st.live.size == 0 and st.rows.shape == (2, 1, 0)
    # The empty row is reached at the root, so its level is covered.
    assert st.peek_edge(0, None) is None and st.peek_edge(0, 1) is None
    assert apply(st, 0, 0) == 0
    assert_consistent(st)


DBL_MAX = float(np.finfo(np.float64).max)
EXTREME = [0.0, 1.0, 1e17, 2e17, -1e17, 1e308, -1e308, 1.6e308, 1.5e308, -1.7e308,
           DBL_MAX, 5e-324]


def extreme_problem(seed):
    """Scores at the edges of float arithmetic, some a few floats apart, many tied."""
    rng = random.Random(seed)
    E, P, N = rng.randint(1, 4), rng.randint(1, 5), rng.randint(0, 8)

    def score():
        x = rng.choice(EXTREME)
        for _ in range(rng.randint(0, 2)):
            x = float(np.nextafter(x, rng.choice((-DBL_MAX, DBL_MAX))))
        return x

    def scores(n):
        return np.array([[score() for _ in range(n)] for _ in range(E)]).reshape(E, n)

    return Problem(scores(P), scores(N))


@pytest.mark.parametrize("seed", range(25))
def test_edge_cost_is_its_row_popcount(seed):
    """An edge concedes exactly its row's negatives, the conceded count of its candidate."""
    for prob in (small_problem(seed), tie_heavy_problem(seed), extreme_problem(seed)):
        st = make_state(prob)
        classifiers = np.arange(prob.num_classifiers)[:, None]
        conceded = st.grid.conceded[classifiers, st.row_position]
        assert np.array_equal(st.edge_cost, conceded)
        assert np.array_equal(conceded, np.bitwise_count(st.rows).sum(axis=-1))


@pytest.mark.parametrize("seed", range(15))
def test_level_peek_is_covered_exactly_when_a_classifier_reached_it(seed):
    """Along random walks, a level's unbounded peek returns None exactly when
    some classifier has reached its positive's cover position; otherwise it
    returns every classifier, in ascending j, each with its own edge's total
    and union."""
    for prob in (small_problem(seed), tie_heavy_problem(seed)):
        st = make_state(prob)
        rng = random.Random(seed)
        E = prob.num_classifiers
        for _ in range(12):
            for d in range(st.rows.shape[1]):
                reached = d == 0 or bool(covering(st, st.live[d - 1]))
                priced = st.peek_edge(d, None)
                assert (priced is None) == reached
                if priced is None:
                    continue
                js, totals, unions = priced
                assert js.tolist() == list(range(E))
                assert totals.shape == js.shape and unions.shape == (E, st.fp.size)
                for j, total, union in zip(js.tolist(), totals, unions):
                    ref_total, ref_union = price(st, j, d)
                    assert total == ref_total and np.array_equal(union, ref_union)
            j = rng.randrange(E)
            apply(st, j, rng.choice(looser_rows(st, j)))
            assert_consistent(st)


@pytest.mark.parametrize("seed", range(15))
def test_level_peek_under_an_incumbent_prices_only_live_edges(seed):
    """Along random walks and a falling incumbent U, a level's peek under U
    returns exactly the unbounded peek's children whose edge costs less than
    U, in ascending j, and still None for a covered level."""
    for prob in (small_problem(seed), tie_heavy_problem(seed)):
        st = make_state(prob)
        rng = random.Random(seed)
        incumbent = int(st.edge_cost.max()) + 1
        for step in range(12):
            if step % 3 == 0:
                incumbent = rng.randint(0, incumbent)
            for d in range(st.rows.shape[1]):
                priced, live = st.peek_edge(d, None), st.peek_edge(d, incumbent)
                assert (live is None) == (priced is None)
                if priced is None:
                    continue
                js, totals, unions = priced
                keep = st.edge_cost[:, d] < incumbent
                live_js, live_totals, live_unions = live
                assert live_js.tolist() == js[keep].tolist() == sorted(live_js.tolist())
                assert np.array_equal(live_totals, totals[keep])
                assert np.array_equal(live_unions, unions[keep])
            j = rng.randrange(st.problem.num_classifiers)
            apply(st, j, rng.choice(looser_rows(st, j)))
            assert_consistent(st)
