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
from calib.calibrators import sigmoid_nll


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
    assert params.breakpoints == (0.0, 1.0, 2.0)
    assert params.values == (0.0, 0.5, 1.0)
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
