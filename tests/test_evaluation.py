"""Ranking metrics and the method-comparison driver."""

import numpy as np
import pytest

from calib import (
    AffineParams,
    CalibrationModel,
    DimensionMismatch,
    GenerateSpec,
    Problem,
    ValidationError,
    average_precision,
    compare_methods,
    fit_joint_thresholds,
    fp_at_recall,
    generate,
    pr_curve,
    recall_at_thresholds,
    solve_exact,
)


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
    report = compare_methods(train, test, methods)
    assert report.solution is not None and report.solution.optimal
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


def test_compare_methods_without_joint_needs_no_solve():
    train, test = comparison_instance()
    report = compare_methods(train, test, ["affine"], target_recall=0.8)
    assert report.solution is None
    assert report.reference_recall == 0.8
    assert report.rows[0].recall >= 0.8


def test_compare_methods_dimension_guard():
    train, test = comparison_instance()
    other = Problem(np.zeros((2, 3)) + 1.0, np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch):
        compare_methods(train, other, ["affine"])


def test_compare_methods_unknown_method():
    train, test = comparison_instance()
    with pytest.raises(ValidationError):
        compare_methods(train, test, ["platt-scaling"])
