"""Ranking metrics and the method-comparison driver."""

import numpy as np
import pytest

from calib import (
    AffineParams,
    CalibrationModel,
    DimensionMismatch,
    GenerateSpec,
    Problem,
    SearchOptions,
    ValidationError,
    average_precision,
    compare_methods,
    fit_affine,
    fit_independent_sigmoid,
    fit_joint_thresholds,
    fit_method,
    fp_at_recall,
    generate,
    pr_curve,
    recall_at_thresholds,
    solve_exact,
)
from calib.calibrators import METHODS


def identity_model(num_classifiers=1):
    return CalibrationModel("affine", (AffineParams(1.0, 0.0),) * num_classifiers)


def test_recall_at_thresholds(toy):
    sol = solve_exact(toy)
    assert recall_at_thresholds(toy, sol.config) == 1.0
    assert recall_at_thresholds(toy, (7.0, 4.2)) == 0.0
    assert recall_at_thresholds(toy, (2.0, 4.2)) == 0.5


def test_fp_at_recall_hand_case():
    prob = Problem(np.array([[3.0, 2.0, 1.0]]), np.array([[2.5, 0.5]]))
    model = identity_model()
    full = fp_at_recall(prob, model, 1.0)
    assert (full.fp, full.tau, full.recall) == (1, 1.0, 1.0)
    two_thirds = fp_at_recall(prob, model, 2 / 3)
    assert (two_thirds.fp, two_thirds.tau) == (1, 2.0)
    assert two_thirds.recall == pytest.approx(2 / 3)
    # ceiling: target 0.4 still needs 2 of 3 positives
    assert fp_at_recall(prob, model, 0.4).tau == 2.0
    zero = fp_at_recall(prob, model, 0.0)
    assert (zero.fp, zero.recall) == (0, 0.0)
    assert zero.tau == 4.0  # above every sample score


def test_fp_at_recall_reaches_every_exact_recall():
    # A target of exactly c/P takes c positives, not c + 1, although
    # c/P * P can round up past c (7/25 * 25 does).
    model = identity_model()
    for num_pos in range(1, 61):
        prob = Problem(np.arange(num_pos, dtype=np.float64)[None, :], np.array([[-1.0]]))
        for c in range(num_pos + 1):
            assert fp_at_recall(prob, model, c / num_pos).recall == c / num_pos, (c, num_pos)


def test_fp_at_recall_tie_semantics():
    # recall counts scores AT tau, fp only strictly above it
    prob = Problem(np.array([[2.0, 2.0]]), np.array([[2.0]]))
    point = fp_at_recall(prob, identity_model(), 1.0)
    assert (point.fp, point.tau, point.recall) == (0, 2.0, 1.0)


def test_fp_at_recall_target_validation():
    prob = Problem(np.array([[1.0]]), np.array([[0.0]]))
    with pytest.raises(ValidationError):
        fp_at_recall(prob, identity_model(), 1.5)
    with pytest.raises(ValidationError):
        fp_at_recall(prob, identity_model(), -0.1)


def test_fp_at_recall_joint_margin_point(toy):
    sol = solve_exact(toy)
    model = fit_joint_thresholds(toy, sol)
    point = fp_at_recall(toy, model, 0.123)  # target ignored for joint models
    assert point.tau == 0.0
    assert point.recall == 1.0  # feasible on train by construction
    assert point.fp == sol.loss == 2


def test_average_precision_hand_cases():
    model = identity_model()
    sep = Problem(np.array([[3.0, 2.0]]), np.array([[1.0, 0.0]]))
    assert average_precision(sep, model) == 1.0
    mixed = Problem(np.array([[3.0, 1.0]]), np.array([[2.0]]))
    assert average_precision(mixed, model) == pytest.approx(5 / 6)
    # tie resolves pessimistically: the negative outranks the positive
    tied = Problem(np.array([[2.0]]), np.array([[2.0]]))
    assert average_precision(tied, model) == pytest.approx(0.5)
    inverted = Problem(np.array([[1.0]]), np.array([[2.0]]))
    assert average_precision(inverted, model) == pytest.approx(0.5)


def test_pr_curve_staircase(toy):
    sol = solve_exact(toy)
    model = fit_joint_thresholds(toy, sol)
    curve = pr_curve(toy, model)
    assert len(curve) == toy.num_positives + toy.num_negatives
    assert [pt.rank for pt in curve] == list(range(1, len(curve) + 1))
    recalls = [pt.recall for pt in curve]
    assert recalls == sorted(recalls)
    assert recalls[-1] == 1.0
    scores = [pt.score for pt in curve]
    assert scores == sorted(scores, reverse=True)
    for pt in curve:
        assert pt.precision == pytest.approx(
            sum(q.label for q in curve[: pt.rank]) / pt.rank
        )


def comparison_instance():
    spec = GenerateSpec(
        seed=11,
        num_classifiers=4,
        num_positives=10,
        num_negatives=40,
        dimensions=5,
        noise=0.1,
    )
    return generate(spec)


def test_compare_methods_full_report():
    train, test = comparison_instance()
    methods = [
        "joint-thresholds",
        "joint-sigmoid",
        "independent-sigmoid",
        "isotonic",
        "affine",
    ]
    report = compare_methods(train, test, methods, solve_exact(train))
    assert [row.method for row in report.rows] == methods
    rows = {row.method: row for row in report.rows}
    # the joint row reproduces the reference operating point exactly
    assert rows["joint-thresholds"].recall == report.reference_recall
    assert rows["joint-thresholds"].tau == 0.0
    for row in report.rows:
        assert 0.0 <= row.ap <= 1.0
        assert row.fp >= 0
        if row.method != "joint-thresholds":
            assert row.recall >= report.reference_recall


def test_compare_methods_report_is_pinned():
    # Values from the implementation that scored each model once per metric
    # and pooled nothing before its PAVA loop.  Isotonic values may move by
    # an ulp, so its AP is compared within a tolerance.
    train, test = comparison_instance()
    methods = ["joint-thresholds", "joint-sigmoid", "independent-sigmoid",
               "isotonic", "affine"]
    report = compare_methods(train, test, methods, solve_exact(train))
    assert report.reference_recall == 0.8
    expected = {
        "joint-thresholds": (0.8, 3, 0.0, 0.8579545454545455),
        "joint-sigmoid": (0.8, 7, 0.29774183118400344, 0.7444746481588587),
        "independent-sigmoid": (0.8, 8, 0.33288721713347247, 0.7343873517786561),
        "isotonic": (0.8, 3, 0.75, 0.4933620327041379),
        "affine": (0.8, 7, 1.909384864068216, 0.7712745098039215),
    }
    for row in report.rows:
        recall, fp, tau, ap = expected[row.method]
        assert (row.recall, row.fp, row.tau) == (recall, fp, tau), row.method
        if row.method == "isotonic":
            assert row.ap == pytest.approx(ap, rel=0.0, abs=1e-9)
        else:
            assert row.ap == ap, row.method


def test_compare_methods_report_is_pinned_at_e30():
    # Values from the implementation whose softplus was np.logaddexp and
    # whose isotonic lookup searched every breakpoint.  Seven of this
    # instance's joint-sigmoid fits end at the line search's early return,
    # where the fit stops on how its loss values compare.
    spec = GenerateSpec(seed=5, num_classifiers=30, num_positives=60, num_negatives=1500,
                        dimensions=10, noise=0.15, spread=0.25,
                        hardness_fraction=0.2, hardness_scale=0.65)
    train, test = generate(spec)
    methods = ["joint-thresholds", "joint-sigmoid", "independent-sigmoid",
               "isotonic", "affine"]
    # The paper's plain depth-first search; local search may settle on
    # another of this instance's optimal configurations.
    plain = solve_exact(train, SearchOptions(enable_local_search=False))
    report = compare_methods(train, test, methods, plain)
    assert report.reference_recall == 0.7333333333333333
    expected = {
        "joint-thresholds": (0.7333333333333333, 417, 0.0, 0.3304238793987605),
        "joint-sigmoid": (0.7333333333333333, 271, 0.04314743623823082, 0.48094024225982),
        "independent-sigmoid": (0.7333333333333333, 644, 0.0689814823016589,
                                0.2863793888069071),
        "isotonic": (0.7333333333333333, 267, 0.10810810810810811, 0.34182174350186284),
        "affine": (0.7333333333333333, 141, 2.471075130785238, 0.5841207166872684),
    }
    for row in report.rows:
        assert (row.recall, row.fp, row.tau, row.ap) == expected[row.method], row.method


def test_compare_methods_dimension_guard():
    train, test = comparison_instance()
    other = Problem(np.zeros((2, 3)) + 1.0, np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch):
        compare_methods(train, other, ["affine"], solve_exact(train))


def test_compare_methods_unknown_method():
    train, test = comparison_instance()
    with pytest.raises(ValidationError):
        compare_methods(train, test, ["platt-scaling"], solve_exact(train))


def test_fit_method_dispatch():
    train, _ = comparison_instance()
    solution = solve_exact(train)
    for method in METHODS:
        assert fit_method(method, train, solution).method == method
    # keyword options reach the fit they belong to
    assert fit_method("affine", train, sample_count=16, seed=3) == fit_affine(
        train, sample_count=16, seed=3
    )
    assert fit_method("independent-sigmoid", train, cutoff=0.0) == (
        fit_independent_sigmoid(train, cutoff=0.0)
    )
    for method in ("joint-sigmoid", "joint-thresholds"):
        with pytest.raises(ValidationError):
            fit_method(method, train)
    with pytest.raises(ValidationError):
        fit_method("platt-scaling", train)
