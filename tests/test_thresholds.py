"""Candidate threshold extraction, difficulty, and grid sufficiency."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calib import (
    CalibError,
    CoverState,
    GenerateSpec,
    Problem,
    ValidationError,
    check_feasible,
    compute_loss,
    difficulty_order,
    extract_candidates,
    fit_isotonic,
    generate,
    oracle_solve,
    solve_exact,
)
from calib.thresholds import packed_above

from conftest import candidates, dense_sweep_optimum, small_problem, tie_heavy_problem


def reference_candidates(problem):
    """The former extractor: one argsort of all of each classifier's scores.

    It numbers the groups of equal scores row after row and flags each by
    whether it holds a positive and whether it holds a negative; a
    candidate sits below each group start with a positive directly above a
    group with a negative.  Kept as the reference the per-class sorts of
    ``extract_candidates`` must reproduce.  Returns (thresholds, lengths).
    """
    scores = np.concatenate([problem.positive_scores, problem.negative_scores], axis=1)
    order = np.argsort(scores, axis=1)
    s = np.take_along_axis(scores, order, axis=1)
    starts = np.ones(s.shape, dtype=bool)
    np.not_equal(s[:, 1:], s[:, :-1], out=starts[:, 1:])
    group = np.cumsum(starts).reshape(s.shape) - 1
    positive = order < problem.num_positives
    has_pos = np.zeros(group.size, dtype=bool)
    has_neg = np.zeros(group.size, dtype=bool)
    has_pos[group[positive]] = True
    has_neg[group[~positive]] = True
    has_pos, has_neg = has_pos[group], has_neg[group]

    below, above = s[:, :-1], s[:, 1:]
    with np.errstate(over="ignore"):
        mid = (above + below) / 2.0
        floor = np.minimum(s[:, 0] - 1.0, np.nextafter(s[:, 0], -np.inf))
    unserved = has_pos[:, 0] & ~np.isfinite(floor)
    if unserved.any():
        j = int(np.argmax(unserved))
        raise ValidationError(
            f"classifier {j}: positive score {float(s[j, 0])!r} has no finite "
            "threshold below it"
        )
    values = np.column_stack(
        [floor, np.where((below < mid) & (mid < above), mid, below), s[:, -1] + 1.0]
    )[:, ::-1]
    kept = np.column_stack(
        [has_pos[:, 0], starts[:, 1:] & has_pos[:, 1:] & has_neg[:, :-1], has_neg[:, -1]]
    )[:, ::-1]
    lengths = kept.sum(axis=1)
    thresholds = np.full((len(lengths), lengths.max()), -np.inf)
    # A zero candidate is +0.0, as in extract_candidates.
    thresholds[np.arange(lengths.max()) < lengths[:, None]] = values[kept] + 0.0
    return thresholds, lengths


def assert_matches_reference(problem):
    """Same grid as the reference, bit for bit, or the same error; and every
    candidate's conceded count is the brute-force count."""
    try:
        thresholds, lengths = reference_candidates(problem)
    except ValidationError as e:
        with pytest.raises(ValidationError) as raised:
            extract_candidates(problem)
        assert str(raised.value) == str(e)
        return
    grid = extract_candidates(problem)
    assert grid.thresholds.shape == thresholds.shape
    assert grid.thresholds.tobytes() == thresholds.tobytes()
    assert np.array_equal(grid.lengths, lengths)
    # One classifier at a time, so the comparison stays small at E=100, N=5,000.
    for neg, row, conceded in zip(problem.negative_scores, grid.thresholds, grid.conceded):
        # The -inf padding concedes all N.
        assert np.array_equal(conceded, (neg[None, :] > row[:, None]).sum(axis=1))
    assert not grid.conceded[:, 0].any()


def conceded(problem, j, t):
    """Negatives classifier j alone scores above threshold t."""
    return np.flatnonzero(problem.negative_scores[j] > t).tolist()


def single(problem, j):
    """The sub-problem of classifier j alone."""
    return Problem(problem.positive_scores[j: j + 1], problem.negative_scores[j: j + 1])


def difficulty(problem):
    """(difficulty list, hardest-first order) read off a root CoverState."""
    diff, order = difficulty_order(CoverState(problem, extract_candidates(problem)))
    return diff.tolist(), order


def brute_difficulty(problem):
    """Per positive: fewest negatives one classifier concedes to cover it.

    A negative tied with the positive is conceded too, since a threshold
    must sit strictly below the positive's score.
    """
    pos, neg = problem.positive_scores, problem.negative_scores
    return [
        min(int((neg[j] >= pos[j, p]).sum()) for j in range(problem.num_classifiers))
        for p in range(problem.num_positives)
    ]


# Hand-worked candidate sets for the 2x2 toy (see conftest.toy_two_by_two).
def test_toy_candidates_frozen(toy):
    cands = extract_candidates(toy)
    e0, e1 = candidates(cands, 0), candidates(cands, 1)
    assert e0 == (7.0, 3.5, 1.25)
    assert [conceded(toy, 0, t) for t in e0] == [[], [0], [0, 1]]
    assert e1 == (4.2, 2.75, -0.25)
    assert [conceded(toy, 1, t) for t in e1] == [[], [2], [0, 2]]
    assert cands.thresholds.tolist() == [list(e0), list(e1)]
    assert cands.lengths.tolist() == [3, 3]
    assert cands.config([0, 1]) == (7.0, 2.75)
    assert cands.config(cands.lengths - 1) == (1.25, -0.25)


def test_root_config_free_cover(toy_free):
    root = extract_candidates(toy_free).config([0, 0])
    # every positive clears every negative: tightest candidates cover all
    assert check_feasible(toy_free, root)
    assert compute_loss(toy_free, root) == 0


def test_sentinel_only_when_top_score_is_negative():
    # top distinct value positive: no sentinel, tightest sits below the top
    p = Problem(np.array([[5.0, 3.0]]), np.array([[4.0, 1.0]]))
    c = candidates(extract_candidates(p), 0)
    assert c == (4.5, 2.0)  # midpoint of 5.0 and 4.0, then the floor
    # top distinct value negative: sentinel one above it
    q = Problem(np.array([[3.0]]), np.array([[6.0, 1.0]]))
    d = candidates(extract_candidates(q), 0)
    assert d[0] == 7.0
    assert conceded(q, 0, d[0]) == []


def test_floor_candidate_below_bottom_positive():
    p = Problem(np.array([[2.0, 0.5]]), np.array([[1.0, 3.0]]))
    c = candidates(extract_candidates(p), 0)
    # bottom distinct value is the positive 0.5: floor candidate at -0.5
    assert c[-1] == -0.5
    assert conceded(p, 0, c[-1]) == [0, 1]


def test_tied_positive_negative_forces_coverage():
    # positive and negative share score 2.0: covering the positive costs it
    p = Problem(np.array([[2.0]]), np.array([[2.0, 0.0]]))
    c = candidates(extract_candidates(p), 0)
    assert all(t < 2.0 for t in c if check_feasible(p, [t]))
    assert difficulty(p)[0] == [1]
    best = oracle_solve(p)
    assert best.loss == 1


def test_delta_toy(toy):
    # On one classifier alone, a positive's difficulty is that classifier's
    # cost of covering it: e0 must concede 6.0 to cover the 5.0 positive.
    assert difficulty(single(toy, 0))[0] == [1, 2]
    assert difficulty(single(toy, 1))[0] == [2, 1]


def test_difficulty_order_toy(toy):
    diff, order = difficulty(toy)
    assert diff == [1, 1]
    assert order == [0, 1]  # equal difficulty: ascending index


def test_difficulty_order_decreasing():
    for seed in range(20):
        prob = small_problem(seed)
        diff, order = difficulty(prob)
        diffs = [diff[i] for i in order]
        assert diffs == sorted(diffs, reverse=True)
        assert sorted(order) == list(range(prob.num_positives))


@pytest.mark.parametrize("seed", range(40))
def test_candidate_structure_invariants(seed):
    prob = small_problem(seed)
    cands = extract_candidates(prob)
    for j in range(prob.num_classifiers):
        c = candidates(cands, j)
        assert len(c) == cands.lengths[j] <= prob.num_positives + 1
        assert (cands.thresholds[j, len(c):] == -np.inf).all()  # padding
        assert list(c) == sorted(c, reverse=True)
        # the tightest candidate concedes nothing; later ones concede more
        fp = [int((prob.negative_scores[j] > t).sum()) for t in c]
        assert fp[0] == 0
        assert all(b > a for a, b in zip(fp, fp[1:]))
        # every positive has a candidate strictly below its score
        for s in prob.positive_scores[j]:
            assert c[-1] < s


score_matrix = st.integers(0, 6).map(float)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_candidate_grid_matches_dense_sweep(data):
    """Optimum over the candidate grid equals a dense sweep over all cuts.

    Integer-lattice scores force heavy ties, the hard case for the
    discretization.
    """
    E = data.draw(st.integers(1, 3))
    P = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(1, 5))
    pos = np.array(
        [[data.draw(score_matrix) for _ in range(P)] for _ in range(E)]
    )
    neg = np.array(
        [[data.draw(score_matrix) for _ in range(N)] for _ in range(E)]
    )
    prob = Problem(pos, neg)
    assert oracle_solve(prob).loss == dense_sweep_optimum(prob)


@pytest.mark.parametrize("seed", range(40))
def test_difficulty_matches_brute_force(seed):
    prob = small_problem(seed)
    assert difficulty(prob)[0] == brute_difficulty(prob)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_difficulty_and_cost_match_brute_force_on_ties(data):
    """Integer-lattice scores 0..4, ties everywhere, N = 0 allowed."""
    E = data.draw(st.integers(1, 3))
    P = data.draw(st.integers(1, 4))
    N = data.draw(st.integers(0, 5))
    draw = lambda n: [[float(data.draw(st.integers(0, 4))) for _ in range(n)] for _ in range(E)]
    prob = Problem(np.array(draw(P)), np.array(draw(N)).reshape(E, N))
    state = CoverState(prob, extract_candidates(prob))
    assert difficulty_order(state)[0].tolist() == brute_difficulty(prob)
    # Root cost of covering p through j: its negatives at or above p's score.
    pos, neg = prob.positive_scores, prob.negative_scores
    assert state.cost.tolist() == [
        [int((neg[j] >= pos[j, p]).sum()) for p in range(P)] for j in range(E)]


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 129])
def test_packed_above_matches_threshold_rule(n):
    """Bit i of word row [j, t] is scores[j, i] > thresholds[j, t], across
    word boundaries, with scores tied to thresholds and -inf padding."""
    scores = np.random.default_rng(n).integers(0, 4, size=(3, n)).astype(float)
    grid = np.full((3, 5), -np.inf)
    grid[0] = [3.0, 2.0, 1.5, 1.0, 0.0]
    grid[1, :2] = [2.5, -1.0]
    grid[2, :1] = [4.0]
    words = packed_above(scores, grid)
    assert words.dtype == np.uint64 and words.shape == (3, 5, -(-n // 64))
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    assert not bits[..., n:].any()  # padding bits stay clear
    assert np.array_equal(bits[..., :n].astype(bool), scores[:, None, :] > grid[:, :, None])


DBL_MAX = float(np.finfo(np.float64).max)


@pytest.mark.parametrize("pos, neg, loss, thresholds", [
    # midpoint rounds onto the positive: the negative's score is the threshold
    (1.0, float(np.nextafter(1.0, 0.0)), 0, (float(np.nextafter(1.0, 0.0)),)),
    # (1.6e308 + 1.5e308) / 2 overflows to inf
    (1.6e308, 1.5e308, 0, (1.5e308,)),
    # ... and to -inf below zero
    (-1e308, -1.7e308, 0, (-1.7e308,)),
    # 1e17 - 1.0 is absorbed: the floor is one float below 1e17
    (1e17, 2e17, 1, (float(np.nextafter(1e17, -np.inf)),)),
], ids=["adjacent", "overflow", "negative-overflow", "absorbed-floor"])
def test_placement_on_extreme_scores(pos, neg, loss, thresholds):
    prob = Problem(np.array([[pos]]), np.array([[neg]]))
    sol = solve_exact(prob)
    assert (sol.loss, sol.config) == (loss, thresholds)
    assert oracle_solve(prob).loss == loss == dense_sweep_optimum(prob)


def test_positive_at_lowest_float_is_rejected():
    prob = Problem(np.array([[-DBL_MAX, 0.0]]), np.array([[1.0]]))
    for solve in (extract_candidates, solve_exact, oracle_solve):
        with pytest.raises(ValidationError, match="no finite threshold"):
            solve(prob)


def _nudge(x, k):
    """x moved k floats up (k > 0) or down, kept finite."""
    for _ in range(abs(k)):
        with np.errstate(over="ignore"):
            y = float(np.nextafter(x, np.inf if k > 0 else -np.inf))
        if not np.isfinite(y):
            break
        x = y
    return x


# Scores near the edges of float arithmetic, each nudged by a few floats so
# that neighbouring values are adjacent: midpoints that round onto a score or
# overflow, and offsets of 1.0 that are absorbed.
extreme_scores = st.tuples(
    st.sampled_from([0.0, 1.0, 1e17, 2e17, -1e17, 1e308, -1e308, 1.6e308,
                     1.5e308, -1.7e308, DBL_MAX, -DBL_MAX, 5e-324]),
    st.integers(-2, 2),
).map(lambda xk: _nudge(*xk))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extreme_scores_solve_to_the_optimum_or_raise(data):
    """Every valid Problem solves to the oracle's loss or raises a CalibError."""
    E = data.draw(st.integers(1, 2))
    P = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(0, 3))
    draw = lambda n: [[data.draw(extreme_scores) for _ in range(n)] for _ in range(E)]
    prob = Problem(np.array(draw(P)), np.array(draw(N)).reshape(E, N))
    try:
        sol = solve_exact(prob)
    except CalibError as e:
        # the one input no finite threshold can serve
        assert isinstance(e, ValidationError)
        assert (prob.positive_scores == -DBL_MAX).any()
        with pytest.raises(ValidationError):
            oracle_solve(prob)
        return
    assert not (prob.positive_scores == -DBL_MAX).any()
    assert np.isfinite(sol.config).all()
    assert sol.loss == oracle_solve(prob).loss == dense_sweep_optimum(prob)


@pytest.mark.parametrize("prob", [
    *(small_problem(seed) for seed in range(40)),
    *(tie_heavy_problem(seed) for seed in range(40)),
], ids=lambda prob: f"E{prob.num_classifiers}-P{prob.num_positives}-N{prob.num_negatives}")
def test_extraction_matches_reference_on_fixtures(prob):
    assert_matches_reference(prob)


def test_extraction_matches_reference_on_anytime_e100():
    """The anytime benchmark recipe: E=100, P=300, N=5,000."""
    train, _ = generate(GenerateSpec(seed=1, num_classifiers=100, num_positives=300,
                                     num_negatives=5000, dimensions=12, noise=0.1,
                                     spread=0.2))
    assert_matches_reference(train)


# Signed zeros tie with each other; both extractors write a zero candidate
# as +0.0.
signed_zero_lattice = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extraction_matches_reference_on_signed_zero_ties(data):
    """-0.0 and 0.0 in both classes, N = 0 allowed."""
    E = data.draw(st.integers(1, 3))
    P = data.draw(st.integers(1, 4))
    N = data.draw(st.integers(0, 6))
    draw = lambda n: [[data.draw(signed_zero_lattice) for _ in range(n)] for _ in range(E)]
    assert_matches_reference(Problem(np.array(draw(P)), np.array(draw(N)).reshape(E, N)))


def test_tied_signed_zeros_give_one_grid_config_and_isotonic_map():
    # A positive one float above tied -0.0 and 0.0 negatives: the gap below
    # it has no float strictly inside, so its candidate is the zero itself,
    # and the zero is also the isotonic map's lowest breakpoint.
    results = set()
    for neg in itertools.permutations([-0.0, 0.0, -0.0]):
        prob = Problem(np.array([[5e-324, 1.0]]), np.array([neg]))
        grid = extract_candidates(prob)
        config = np.array(solve_exact(prob).config)
        (iso,) = fit_isotonic(prob).maps
        results.add((grid.thresholds.tobytes(), config.tobytes(),
                     iso.breakpoints.tobytes(), iso.values.tobytes()))
    assert results == {(np.array([[0.0]]).tobytes(), np.array([0.0]).tobytes(),
                        np.array([0.0, 5e-324]).tobytes(), np.array([0.0, 1.0]).tobytes())}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extraction_matches_reference_on_extreme_scores(data):
    """Adjacent floats, overflowing midpoints, absorbed offsets, N = 0 and
    positives at the lowest float, whose error must match too."""
    E = data.draw(st.integers(1, 3))
    P = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(0, 4))
    draw = lambda n: [[data.draw(extreme_scores) for _ in range(n)] for _ in range(E)]
    assert_matches_reference(Problem(np.array(draw(P)), np.array(draw(N)).reshape(E, N)))


@pytest.mark.parametrize("pos, neg", [
    ([[-DBL_MAX, 0.0]], [[1.0]]),
    ([[-DBL_MAX]], np.zeros((1, 0))),
    ([[0.0, 1.0], [-DBL_MAX, 2.0]], [[0.5, -DBL_MAX], [3.0, 1.0]]),
    # A negative under the lowest-float positive: a gap candidate, no floor.
    ([[-DBL_MAX]], [[-DBL_MAX]]),
], ids=["with-negatives", "no-negatives", "second-classifier", "tied-negative"])
def test_extraction_matches_reference_at_lowest_float(pos, neg):
    assert_matches_reference(Problem(np.array(pos), np.array(neg)))
