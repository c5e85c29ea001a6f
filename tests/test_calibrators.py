"""Score-map calibrators: PAVA, Platt sigmoid, affine, joint wrappers."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calib import (
    AffineParams,
    CalibrationModel,
    ConstantParams,
    DegenerateVariance,
    DimensionMismatch,
    InfeasibleSolution,
    IsotonicParams,
    Problem,
    SearchStats,
    ShiftParams,
    SigmoidParams,
    Solution,
    ValidationError,
    calibrated_matrix,
    ensemble_scores,
    fit_affine,
    fit_independent_sigmoid,
    fit_isotonic,
    fit_joint_sigmoid,
    fit_joint_thresholds,
    load_model,
    pava,
    save_model,
    smoothed_targets,
    solve_exact,
)
from calib.calibrators import NEWTON_GRAD_TOL, NEWTON_MAX_ITER, _fit_sigmoid, sigmoid_nll


def monotone_fit_sse(y, w=None):
    """Reference isotonic optimum: minimum SSE over every consecutive-block
    partition with non-decreasing block means."""
    y = list(map(float, y))
    w = [1.0] * len(y) if w is None else list(map(float, w))
    n = len(y)
    best = None
    for cuts in itertools.product([0, 1], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        means = []
        for a, b in zip(bounds, bounds[1:]):
            ws = sum(w[a:b])
            means.append(sum(yi * wi for yi, wi in zip(y[a:b], w[a:b])) / ws)
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        sse = 0.0
        for (a, b), m in zip(zip(bounds, bounds[1:]), means):
            sse += sum(wi * (yi - m) ** 2 for yi, wi in zip(y[a:b], w[a:b]))
        if best is None or sse < best:
            best = sse
    return best


def sse(y, fit, w=None):
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=float)
    return float(np.sum(w * (np.asarray(y, dtype=float) - fit) ** 2))


def test_pava_frozen_cases():
    assert pava(np.array([1.0, 0.0, 1.0])).tolist() == [0.5, 0.5, 1.0]
    assert pava(np.array([3.0, 2.0, 1.0])).tolist() == [2.0, 2.0, 2.0]
    assert pava(np.array([0.0, 1.0, 2.0])).tolist() == [0.0, 1.0, 2.0]
    # heavy right weight pins the pooled pair near its value
    out = pava(np.array([0.0, 1.0, 0.0]), np.array([1.0, 1.0, 10.0]))
    assert out.tolist() == [0.0, 1.0 / 11.0, 1.0 / 11.0]


def test_pava_matches_enumeration_binary_len6():
    for n in range(1, 7):
        for bits in itertools.product([0.0, 1.0], repeat=n):
            y = np.array(bits)
            fit = pava(y)
            assert all(b >= a - 1e-12 for a, b in zip(fit, fit[1:]))
            assert sse(y, fit) == pytest.approx(monotone_fit_sse(bits), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=7),
    st.lists(st.floats(0.1, 4), min_size=7, max_size=7),
)
def test_pava_weighted_matches_enumeration(ys, ws):
    w = np.array(ws[: len(ys)])
    fit = pava(np.array(ys), w)
    assert all(b >= a - 1e-9 for a, b in zip(fit, fit[1:]))
    assert sse(ys, fit, w) == pytest.approx(monotone_fit_sse(ys, w), abs=1e-9)
    # weighted mean is preserved by pooling
    assert float(np.dot(w, fit)) == pytest.approx(float(np.dot(w, ys)), abs=1e-9)


def unpooled_pava(values, weights=None):
    """The block loop over every input point, with no pooling of equal runs."""
    if weights is None:
        weights = np.ones(len(values))
    blocks = []  # [weighted mean, weight sum, point count]
    for v, w in zip(values, weights):
        blocks.append([float(v), float(w), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v1, w1, c1 = blocks.pop()
            v0, w0, c0 = blocks.pop()
            blocks.append([(v0 * w0 + v1 * w1) / (w0 + w1), w0 + w1, c0 + c1])
    out = np.empty(len(values))
    i = 0
    for v, _, c in blocks:
        out[i: i + c] = v
        i += c
    return out


# Long sequences of few distinct values, so equal adjacent runs are common.
runs_of_values = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, 0.25, 0.5, -2.0, 3.75]),
              st.integers(1, 30)),
    min_size=0, max_size=60,
).map(lambda runs: np.repeat([v for v, _ in runs], [n for _, n in runs]))


@settings(max_examples=200, deadline=None)
@given(runs_of_values, st.booleans(), st.data())
def test_run_pooled_pava_matches_unpooled_loop(ys, weighted, data):
    w = None
    if weighted:
        w = np.array(data.draw(st.lists(st.floats(0.01, 50), min_size=len(ys),
                                        max_size=len(ys))))
    fit = pava(ys, w)
    assert fit.shape == ys.shape
    assert np.allclose(fit, unpooled_pava(ys, w), rtol=0.0, atol=1e-12)


def test_pava_empty_and_single_point():
    assert pava(np.array([])).shape == (0,)
    assert pava(np.array([]), np.array([])).shape == (0,)
    assert pava(np.array([0.7])).tolist() == [0.7]
    assert pava(np.array([0.7]), np.array([3.0])).tolist() == [0.7]


def every_score_isotonic_maps(problem, fit):
    """Each classifier's (breakpoints, values) with every distinct score a
    breakpoint, its values fitted by fit (pava or unpooled_pava)."""
    labels = np.concatenate([np.ones(problem.num_positives), np.zeros(problem.num_negatives)])
    maps = []
    for pos, neg in zip(problem.positive_scores, problem.negative_scores):
        scores = np.concatenate([pos, neg])
        order = np.argsort(scores, kind="stable")
        xs, start = np.unique(scores[order], return_index=True)
        sums = np.add.reduceat(labels[order], start)
        counts = np.diff(np.append(start, len(scores)))
        maps.append((xs + 0.0, fit(sums / counts, counts.astype(np.float64))))
    return maps


def rounded_problem(decimals):
    # Rounded scores tie across samples; 12 decimals leaves them distinct.
    rng = np.random.default_rng(decimals)
    return Problem(np.round(rng.normal(0.8, 1, (5, 60)), decimals),
                   np.round(rng.normal(0, 1, (5, 700)), decimals))


@pytest.mark.parametrize("decimals", [1, 2, 12])
def test_fit_isotonic_matches_unpooled_fit(decimals):
    prob = rounded_problem(decimals)
    for params, (xs, values) in zip(fit_isotonic(prob).maps,
                                    every_score_isotonic_maps(prob, unpooled_pava)):
        # The reference compacted to its steps: where the bits of its value change.
        bits = values.view(np.int64)
        steps = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
        assert params.breakpoints.tobytes() == xs[steps].tobytes()
        assert np.allclose(params.values, values[steps], rtol=0.0, atol=1e-15)


def newton_sigmoid_reference(scores, targets):
    """The damped Newton fit run through all 60 halvings of every line
    search; returns (a, b, exit), exit naming the test that ended it."""
    a, b = 0.0, 0.0
    f = sigmoid_nll(scores, targets, a, b)
    for _ in range(NEWTON_MAX_ITER):
        z = a * scores + b
        p = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
        residual = targets - p
        grad = np.array([np.dot(residual, scores), residual.sum()])
        if np.abs(grad).max() < NEWTON_GRAD_TOL:
            return a, b, "gradient"
        w = p * (1.0 - p)
        h_aa = np.dot(w, scores * scores)
        h_ab = np.dot(w, scores)
        h_bb = w.sum()
        hess = np.array([[h_aa, h_ab], [h_ab, h_bb]])
        hess += 1e-12 * np.eye(2)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        t = 1.0
        for _ in range(60):
            fa = sigmoid_nll(scores, targets, a + t * step[0], b + t * step[1])
            if fa < f:
                a, b = a + t * step[0], b + t * step[1]
                f = fa
                break
            t *= 0.5
        else:
            return a, b, "no-descent"
    return a, b, "iterations"


def sigmoid_problems():
    """31 (scores, targets, joint) fits: 20 independent-style, 10
    joint-style ones with one or two assigned positives near the top of
    the negatives, as a classifier covering few positives gets, and one
    with every score 0, where the step in a is exactly 0 and only b moves."""
    rng = np.random.default_rng(17)
    for i in range(30):
        joint = i >= 20
        num_pos = 1 + i % 2 if joint else int(rng.integers(5, 80))
        num_neg = int(rng.integers(20, 400))
        neg = rng.normal(-1.0, rng.uniform(0.3, 1.5), num_neg)
        if joint:
            pos = neg.max() + rng.uniform(-0.5, 1.0, num_pos)
        else:
            pos = rng.normal(rng.uniform(0.5, 3.0), rng.uniform(0.2, 1.5), num_pos)
        t_pos, t_neg = smoothed_targets(num_pos, num_neg)
        targets = np.concatenate([np.full(num_pos, t_pos), np.full(num_neg, t_neg)])
        yield np.concatenate([pos, neg]), targets, joint
    yield np.zeros(13), np.concatenate([np.full(3, 0.8), np.full(10, 1.0 / 12.0)]), False


def test_fit_sigmoid_matches_full_line_search():
    joint_exits = set()
    for scores, targets, joint in sigmoid_problems():
        a, b, how = newton_sigmoid_reference(scores, targets)
        assert _fit_sigmoid(scores, targets) == (a, b)  # bit for bit
        if joint:
            joint_exits.add(how)
    # the early return replaces the no-descent exit, so it must be exercised
    assert "no-descent" in joint_exits


def logaddexp_nll(scores, targets, a, b):
    """sigmoid_nll as first written, with np.logaddexp for the softplus."""
    z = a * scores + b
    return float(np.sum(np.logaddexp(0.0, z) - (1.0 - targets) * z))


def test_sigmoid_nll_matches_logaddexp_form():
    rng = np.random.default_rng(13)
    z = np.concatenate([rng.uniform(-800.0, 800.0, 50_000),
                        rng.normal(0.0, 4.0, 49_999), [0.0]])
    # With target 1 the complement is 0, so each call is softplus(z) alone.
    one = np.ones(1)
    fused = np.array([sigmoid_nll(z[i:i + 1], one, 1.0, 0.0) for i in range(len(z))])
    assert np.allclose(fused, np.logaddexp(0.0, z), rtol=1e-13, atol=0.0)
    targets = rng.uniform(0.0, 1.0, len(z))
    for a, b in [(1.0, 0.0), (-2.5, 0.3), (0.01, -3.0)]:
        assert sigmoid_nll(z, targets, a, b) == pytest.approx(
            logaddexp_nll(z, targets, a, b), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("targets, a, b", [
    ([0.9, 0.1], 10.0, 0.0),      # a * s overflows to +inf
    ([0.9, 0.1], -10.0, 0.0),     # ... to -inf
    ([1.0, 0.1], 10.0, 0.0),      # +inf times a zero complement
    ([0.9, 0.1], 10.0, -np.inf),  # inf - inf
])
def test_sigmoid_nll_overflow_matches_logaddexp_form(targets, a, b):
    scores = np.array([1e308, 0.5])
    targets = np.array(targets)
    with np.errstate(over="ignore", invalid="ignore"):
        fused = sigmoid_nll(scores, targets, a, b)
        reference = logaddexp_nll(scores, targets, a, b)
    assert not np.isfinite(reference)
    assert fused == reference or (np.isnan(fused) and np.isnan(reference))


def test_smoothed_targets():
    t_pos, t_neg = smoothed_targets(3, 5)
    assert t_pos == pytest.approx(4.0 / 5.0)
    assert t_neg == pytest.approx(1.0 / 7.0)


def test_sigmoid_fit_dominates_coarse_grid():
    rng = np.random.default_rng(0)
    pos = rng.normal(1.0, 0.7, size=40)
    neg = rng.normal(-1.0, 0.9, size=120)
    prob = Problem(pos[None, :], neg[None, :])
    model = fit_independent_sigmoid(prob, cutoff=-np.inf)
    params = model.maps[0]
    t_pos, t_neg = smoothed_targets(40, 120)
    scores = np.concatenate([pos, neg])
    targets = np.concatenate([np.full(40, t_pos), np.full(120, t_neg)])
    fitted = sigmoid_nll(scores, targets, params.a, params.b)
    for a in np.linspace(-20, 0, 41):
        for b in np.linspace(-10, 10, 41):
            assert fitted <= sigmoid_nll(scores, targets, a, b) + 1e-9
    # map is increasing in the raw score
    assert params.a < 0
    lo, hi = params(np.array([-2.0, 2.0]))
    assert lo < hi


def test_sigmoid_fit_falls_back_to_gradient_steps_on_a_singular_hessian(monkeypatch):
    calls = []

    def singular(*args):
        calls.append(args)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    rng = np.random.default_rng(0)
    prob = Problem(rng.normal(1.0, 0.7, (3, 40)), rng.normal(-1.0, 0.9, (3, 120)))
    model = fit_independent_sigmoid(prob, cutoff=-np.inf)
    assert calls
    t_pos, t_neg = smoothed_targets(40, 120)
    targets = np.concatenate([np.full(40, t_pos), np.full(120, t_neg)])
    for params, pos, neg in zip(model.maps, prob.positive_scores, prob.negative_scores):
        assert isinstance(params, SigmoidParams)
        scores = np.concatenate([pos, neg])
        assert sigmoid_nll(scores, targets, params.a, params.b) < sigmoid_nll(scores, targets, 0, 0)


def test_sigmoid_fit_on_constant_scores_ends_at_the_mean_target():
    # Constant scores leave the ridged Hessian nearly singular (np.linalg.solve
    # may raise on it); the fit must still reach the mean smoothed target.
    prob = Problem(np.full((1, 5), 1.0), np.full((1, 100_000), 1.0))
    (params,) = fit_independent_sigmoid(prob, cutoff=-np.inf).maps
    t_pos, t_neg = smoothed_targets(5, 100_000)
    mean_target = (5 * t_pos + 100_000 * t_neg) / 100_005
    assert params(np.array([1.0]))[0] == pytest.approx(mean_target, rel=1e-6)


def test_sigmoid_cutoff_drops_low_samples():
    pos = np.array([[2.0, 3.0, -5.0]])
    neg = np.array([[-0.5, -6.0, 0.5]])
    with_cut = fit_independent_sigmoid(Problem(pos, neg), cutoff=-1.0)
    manual = fit_independent_sigmoid(
        Problem(pos[:, :2], neg[:, [0, 2]]), cutoff=-np.inf
    )
    assert with_cut.maps[0] == manual.maps[0]


def test_joint_sigmoid_uses_assignment_sets(toy):
    sol = solve_exact(toy)
    model = fit_joint_sigmoid(toy, sol)
    # classifier 0 covers both positives, so it is fitted on all its samples
    alone = Problem(toy.positive_scores[:1], toy.negative_scores[:1])
    assert model.maps[0] == fit_independent_sigmoid(alone, cutoff=-np.inf).maps[0]
    # classifier 1 covers no positive under the joint thresholds
    assert model.degenerate == (1,)
    # its constant map sits at the smoothed negative target 1/(3+2)
    assert model.maps[1] == ConstantParams(0.2)
    assert calibrated_matrix(model, [[0.0], [100.0]])[1, 0] == pytest.approx(0.2)


def test_joint_fits_reject_infeasible(toy):
    bad = Solution(
        config=(7.0, 4.2),
        loss=0,
        assignment=[],
        optimal=False,
        stats=SearchStats(),
    )
    with pytest.raises(InfeasibleSolution):
        fit_joint_sigmoid(toy, bad)
    with pytest.raises(InfeasibleSolution):
        fit_joint_thresholds(toy, bad)


def test_isotonic_monotone_and_pooled():
    # duplicate score 1.0 carries one positive and one negative: pooled to 0.5
    prob = Problem(
        positive_scores=np.array([[1.0, 2.0]]),
        negative_scores=np.array([[1.0, 0.0]]),
    )
    model = fit_isotonic(prob)
    params = model.maps[0]
    assert params.breakpoints.tolist() == [0.0, 1.0, 2.0]
    assert params.values.tolist() == [0.0, 0.5, 1.0]
    # step-below semantics between and outside breakpoints
    q = params(np.array([-3.0, 0.5, 1.0, 1.7, 9.0]))
    assert q.tolist() == [0.0, 0.0, 0.5, 0.5, 1.0]


def test_isotonic_values_nondecreasing():
    rng = np.random.default_rng(4)
    prob = Problem(rng.normal(1, 1, (3, 25)), rng.normal(0, 1, (3, 60)))
    for params in fit_isotonic(prob).maps:
        vals = params.values
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert list(params.breakpoints) == sorted(params.breakpoints)
        assert 0.0 <= vals[0] and vals[-1] <= 1.0


def test_affine_standardizes_negatives():
    rng = np.random.default_rng(8)
    prob = Problem(rng.normal(2, 1, (2, 10)), rng.normal(-1, 3, (2, 400)))
    model = fit_affine(prob)
    cal = calibrated_matrix(model, prob.negative_scores)
    for j in range(2):
        assert cal[j].mean() == pytest.approx(0.0, abs=1e-9)
        assert cal[j].std() == pytest.approx(1.0, abs=1e-9)
        assert model.maps[j].a > 0


def test_affine_subsamples_large_problems():
    rng = np.random.default_rng(1)
    prob = Problem(rng.normal(2, 1, (1, 3)), rng.normal(0, 2, (1, 500)))
    a = fit_affine(prob, sample_count=64, seed=5)
    b = fit_affine(prob, sample_count=64, seed=5)
    assert a.maps[0] == b.maps[0]  # seeded subsample is reproducible
    cal = a.maps[0](prob.negative_scores[0])
    assert abs(cal.mean()) < 0.5  # sampled moments approximate the full set


def test_affine_degenerate_variance():
    prob = Problem(np.array([[1.0]]), np.array([[0.5, 0.5, 0.5]]))
    with pytest.raises(DegenerateVariance):
        fit_affine(prob)


def test_affine_rejects_overflowing_moments():
    big = float(np.finfo(np.float64).max)
    prob = Problem(np.array([[1.0], [1e200]]), np.array([[0.0, 1.0, 2.0], [big, big, 0.0]]))
    with pytest.raises(DegenerateVariance, match="classifier 1"):
        fit_affine(prob)


@pytest.mark.parametrize("make", [
    lambda: AffineParams(a=0.0, b=float("nan")),
    lambda: SigmoidParams(a=-float("inf"), b=0.0),
    lambda: ConstantParams(float("nan")),
    lambda: ShiftParams(float("inf")),
], ids=["affine-nan", "sigmoid-inf", "constant-nan", "shift-inf"])
def test_maps_reject_non_finite_fields(make):
    with pytest.raises(ValidationError, match="map field"):
        make()


def test_joint_thresholds_model_scores_margin(toy):
    sol = solve_exact(toy)
    model = fit_joint_thresholds(toy, sol)
    assert model.maps == (ShiftParams(1.25), ShiftParams(4.2))
    s = ensemble_scores(model, toy.positive_scores)
    # every training positive has positive margin under the feasible config
    assert (s > 0).all()
    assert ensemble_scores(model, np.array([[5.0], [0.5]]))[0] == pytest.approx(3.75)


def test_ensemble_is_max_of_calibrated_columns(toy):
    model = fit_isotonic(toy)
    mat = calibrated_matrix(model, toy.negative_scores)
    assert np.array_equal(ensemble_scores(model, toy.negative_scores), mat.max(axis=0))


def test_shape_guards(toy):
    model = fit_isotonic(toy)
    with pytest.raises(DimensionMismatch):
        calibrated_matrix(model, [1.0, 2.0])  # one sample, not an (E, M) matrix
    with pytest.raises(DimensionMismatch):
        calibrated_matrix(model, np.zeros((3, 4)))
    with pytest.raises(DimensionMismatch):
        ensemble_scores(model, np.zeros((3, 1)))
    with pytest.raises(DimensionMismatch):
        ensemble_scores(model, [1.0, 2.0])
    assert ensemble_scores(model, np.zeros((2, 0))).shape == (0,)


def test_sigmoid_clip_handles_extreme_scores():
    params = SigmoidParams(a=-3.0, b=0.0)
    out = params(np.array([-1e6, 1e6]))
    assert out[0] == pytest.approx(0.0) and out[1] == pytest.approx(1.0)
    assert np.isfinite(out).all()


BIG = float(np.finfo(np.float64).max)


@pytest.mark.filterwarnings("error")
def test_maps_and_fits_at_the_float_limit_warn_nothing():
    scores = np.array([-BIG, -1e308, 0.0, 7.25e16, BIG])
    assert SigmoidParams(a=-7.25, b=1.0)(scores).tolist() == pytest.approx(
        [0.0, 0.0, 1 / (1 + np.e), 1.0, 1.0])
    assert AffineParams(a=7.25, b=-1.0)(scores)[[0, -1]].tolist() == [-np.inf, np.inf]
    margins = ShiftParams(threshold=-BIG)(scores)
    assert margins[0] == 0.0 and margins[-1] == np.inf
    iso = IsotonicParams(breakpoints=[-BIG, BIG], values=[0.0, 1.0])
    assert iso(scores).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
    # Squares overflow the Hessian: the fit raises rather than return its start.
    with pytest.raises(DegenerateVariance, match="Hessian"):
        _fit_sigmoid(np.array([7.250000000000002e16, 3.5e-323, 1.0000000000000002e16, BIG]),
                     np.array([0.75, 0.75, 0.25, 0.25]))


@pytest.mark.parametrize(
    "fit",
    [
        lambda p, s: fit_independent_sigmoid(p),
        fit_joint_sigmoid,
        lambda p, s: fit_isotonic(p),
        lambda p, s: fit_affine(p),
        fit_joint_thresholds,
    ],
)
def test_model_round_trip(tmp_path, toy, fit):
    sol = solve_exact(toy)
    model = fit(toy, sol)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.method == model.method
    assert back.maps == model.maps
    assert back.degenerate == model.degenerate
    probe = np.array([[-1.0, 0.3, 5.5], [-1.0, 0.3, 5.5]])
    assert np.array_equal(
        calibrated_matrix(back, probe), calibrated_matrix(model, probe)
    )


@pytest.mark.parametrize("method, maps", [
    ("joint-thresholds", (SigmoidParams(-1.0, 0.0),)),
    ("joint-sigmoid", (ShiftParams(0.5),)),
    ("isotonic", (AffineParams(1.0, 0.0),)),
    ("affine", (ConstantParams(0.2),)),
    ("platt", (SigmoidParams(-1.0, 0.0),)),
], ids=["shift-method-sigmoid", "sigmoid-method-shift", "isotonic-method-affine",
        "affine-method-constant", "unknown-method"])
def test_model_rejects_maps_its_method_cannot_hold(method, maps):
    with pytest.raises(ValidationError):
        CalibrationModel(method, maps)


def test_isotonic_map_holds_read_only_arrays(tmp_path):
    params = IsotonicParams([0.0, 1.0], [0.25, 0.75])
    assert params.breakpoints.dtype == np.float64
    with pytest.raises(ValueError):
        params.values[0] = 1.0
    assert params == IsotonicParams((0.0, 1.0), (0.25, 0.75))
    assert params != IsotonicParams((0.0, 1.0), (0.25, 0.5))
    assert params != ShiftParams(0.0)
    # files hold plain number lists, as when the fields were tuples
    save_model(CalibrationModel("isotonic", (params,)), tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["classifiers"] == [
        {"kind": "isotonic", "breakpoints": [0.0, 1.0], "values": [0.25, 0.75]}
    ]


def lookup_queries(breakpoints):
    """Every breakpoint, the points between and just beside them, and
    queries beyond both ends."""
    bp = np.asarray(breakpoints)
    return np.concatenate([
        bp, (bp[1:] + bp[:-1]) / 2.0,
        np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf),
        [bp[0] - 1.0, bp[-1] + 1.0, -np.inf, np.inf, np.nan],
    ])


def test_isotonic_steps_score_as_every_score_map():
    for decimals in (1, 2, 12):
        prob = rounded_problem(decimals)
        for params, (xs, values) in zip(fit_isotonic(prob).maps,
                                        every_score_isotonic_maps(prob, pava)):
            assert len(params.breakpoints) < len(xs)
            queries = lookup_queries(xs)
            every_score = IsotonicParams(xs, values)
            assert params(queries).tobytes() == every_score(queries).tobytes()


def test_every_score_isotonic_file_loads_and_scores_the_same(tmp_path):
    # Files once held every distinct training score as a breakpoint.
    prob = rounded_problem(2)
    maps = every_score_isotonic_maps(prob, pava)
    doc = {"version": 1, "method": "isotonic", "num_classifiers": len(maps),
           "classifiers": [{"kind": "isotonic", "breakpoints": xs.tolist(),
                            "values": values.tolist()} for xs, values in maps],
           "degenerate": []}
    (tmp_path / "m.json").write_text(json.dumps(doc))
    loaded = load_model(tmp_path / "m.json")
    for params, old, (xs, _) in zip(fit_isotonic(prob).maps, loaded.maps, maps):
        assert old.breakpoints.tobytes() == xs.tobytes()
        queries = lookup_queries(xs)
        assert old(queries).tobytes() == params(queries).tobytes()


def test_saved_isotonic_model_holds_only_its_fields(tmp_path, toy):
    model = fit_isotonic(toy)
    save_model(model, tmp_path / "before.json")
    calibrated_matrix(model, toy.negative_scores)
    save_model(model, tmp_path / "after.json")
    after = (tmp_path / "after.json").read_bytes()
    assert after == (tmp_path / "before.json").read_bytes()
    for doc in json.loads(after)["classifiers"]:
        assert sorted(doc) == ["breakpoints", "kind", "values"]
    for params in model.maps:
        assert sorted(vars(params)) == ["breakpoints", "values"]


@pytest.mark.parametrize("breakpoints, values", [
    ((0.1, 0.2), (0.5,)),
    ((), ()),
    ((0.2, 0.1), (0.0, 1.0)),
    ((0.1, 0.1), (0.0, 1.0)),
], ids=["length-mismatch", "empty", "descending", "repeated"])
def test_isotonic_map_rejects_malformed_breakpoints(breakpoints, values):
    with pytest.raises(ValidationError):
        IsotonicParams(breakpoints, values)


def test_degenerate_is_read_off_the_maps(tmp_path, toy):
    model = fit_joint_sigmoid(toy, solve_exact(toy))
    assert model.degenerate == (1,)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["degenerate"] == [1]
    doc["degenerate"] = [0]  # a stale list in the file is not trusted
    path.write_text(json.dumps(doc))
    assert load_model(path).degenerate == (1,)
