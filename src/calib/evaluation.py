"""Held-out metrics: recall, false positives at a recall level, and AP.

All metrics rank samples by the ensemble calibrated score (max over
classifiers).  Methods are compared the way the joint calibration is meant
to be used: the joint thresholds fix an operating point (margin 0), every
other method is evaluated at the recall that point achieves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibrators import (
    CalibrationModel,
    ensemble_scores,
    fit_affine,
    fit_independent_sigmoid,
    fit_isotonic,
    fit_joint_sigmoid,
    fit_joint_thresholds,
)
from .errors import (
    DimensionMismatch,
    EmptyPositives,
    UnreachableRecall,
    ValidationError,
)
from .problem import Problem, Solution, _thresholds_array
from .search import SearchOptions, solve_exact


def recall_at_thresholds(problem: Problem, config) -> float:
    """Fraction of positives scored positively (margin > 0) under config."""
    theta = _thresholds_array(problem, config)
    if problem.num_positives == 0:
        raise EmptyPositives("recall over zero positives")
    margins = problem.positive_scores - theta[:, None]
    return float(np.count_nonzero(margins.max(axis=0) > 0.0)) / problem.num_positives


@dataclass(frozen=True)
class FpAtRecall:
    """Operating point of one model on one problem.

    fp counts negatives scoring strictly above tau; recall counts positives
    at or above it (ties included), except for joint-thresholds models where
    both sides are strict at the fixed margin tau = 0.
    """

    fp: int
    tau: float
    recall: float


def fp_at_recall(problem: Problem, model: CalibrationModel, target: float) -> FpAtRecall:
    """False positives at the loosest threshold reaching the target recall.

    For joint-thresholds models the operating point is pinned at margin 0
    and the target is ignored: the thresholds themselves decide the recall,
    which is reported for use as other methods' target.
    """
    if problem.num_positives == 0:
        raise EmptyPositives("recall over zero positives")
    pos = ensemble_scores(model, problem.positive_scores)
    neg = ensemble_scores(model, problem.negative_scores)
    if model.method == "joint-thresholds":
        return FpAtRecall(
            fp=int(np.count_nonzero(neg > 0.0)),
            tau=0.0,
            recall=float(np.count_nonzero(pos > 0.0)) / len(pos),
        )
    if not 0.0 <= target <= 1.0:
        raise ValidationError(f"target recall {target} outside [0, 1]")
    if target == 0.0:
        top = float(np.max(np.concatenate([pos, neg]))) if len(neg) else float(pos.max())
        return FpAtRecall(fp=0, tau=top + 1.0, recall=0.0)
    k = math.ceil(target * len(pos))
    tau = float(np.partition(pos, len(pos) - k)[len(pos) - k])
    recall = float(np.count_nonzero(pos >= tau)) / len(pos)
    if recall < target:
        raise UnreachableRecall(f"recall {recall} below target {target}")
    return FpAtRecall(fp=int(np.count_nonzero(neg > tau)), tau=tau, recall=recall)


def _ranked(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores and 0/1 labels in rank order: descending, negatives first on ties."""
    scores = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(len(pos), dtype=np.int64),
                             np.zeros(len(neg), dtype=np.int64)])
    order = np.lexsort((labels, -scores))
    return scores[order], labels[order]


def average_precision(problem: Problem, model: CalibrationModel) -> float:
    """All-point AP of the ensemble ranking, pessimistic on ties."""
    if problem.num_positives == 0:
        raise EmptyPositives("AP over zero positives")
    pos = ensemble_scores(model, problem.positive_scores)
    neg = ensemble_scores(model, problem.negative_scores)
    _, labels = _ranked(pos, neg)
    cum_pos = np.cumsum(labels)
    ranks = np.arange(1, len(labels) + 1)
    return float((cum_pos[labels == 1] / ranks[labels == 1]).sum() / len(pos))


@dataclass(frozen=True)
class CurvePoint:
    rank: int
    score: float
    label: int
    precision: float
    recall: float


def pr_curve(problem: Problem, model: CalibrationModel) -> list[CurvePoint]:
    """Precision-recall staircase over the full ranking, one point per sample."""
    if problem.num_positives == 0:
        raise EmptyPositives("PR curve over zero positives")
    pos = ensemble_scores(model, problem.positive_scores)
    neg = ensemble_scores(model, problem.negative_scores)
    scores, labels = _ranked(pos, neg)
    cum_pos = np.cumsum(labels)
    return [
        CurvePoint(
            rank=r + 1,
            score=float(scores[r]),
            label=int(labels[r]),
            precision=float(cum_pos[r]) / (r + 1),
            recall=float(cum_pos[r]) / len(pos),
        )
        for r in range(len(labels))
    ]


@dataclass(frozen=True)
class MethodRow:
    method: str
    recall: float
    fp: int
    tau: float
    ap: float


@dataclass
class ComparisonReport:
    reference_recall: float
    rows: list[MethodRow] = field(default_factory=list)
    solution: Solution | None = None


def _fit_method(
    method: str,
    train: Problem,
    solution: Solution | None,
    affine_seed: int,
) -> CalibrationModel:
    if method == "independent-sigmoid":
        return fit_independent_sigmoid(train)
    if method == "isotonic":
        return fit_isotonic(train)
    if method == "affine":
        return fit_affine(train, seed=affine_seed)
    if method in ("joint-sigmoid", "joint-thresholds"):
        assert solution is not None
        if method == "joint-sigmoid":
            return fit_joint_sigmoid(train, solution)
        return fit_joint_thresholds(train, solution)
    raise ValidationError(f"unknown method {method!r}")


def compare_methods(
    train: Problem,
    test: Problem,
    methods: list[str],
    solution: Solution | None = None,
    budget_ms: float | None = None,
    affine_seed: int = 0,
    target_recall: float | None = None,
) -> ComparisonReport:
    """Fit each method on train, evaluate all of them on test.

    The reference recall is the joint-thresholds operating point on test
    when a solution is available (solved here if needed), else the explicit
    target_recall, else 1.0.  Every non-joint method reports fp at that
    recall; AP uses the full ranking regardless.
    """
    if train.num_classifiers != test.num_classifiers:
        raise DimensionMismatch(
            f"train has {train.num_classifiers} classifiers, "
            f"test has {test.num_classifiers}"
        )
    needs_solution = any(m in ("joint-sigmoid", "joint-thresholds") for m in methods)
    if needs_solution and solution is None:
        solution = solve_exact(train, SearchOptions(budget_ms=budget_ms))

    if solution is not None:
        joint_model = fit_joint_thresholds(train, solution)
        reference = fp_at_recall(test, joint_model, 1.0).recall
    elif target_recall is not None:
        reference = target_recall
    else:
        reference = 1.0

    report = ComparisonReport(reference_recall=reference, solution=solution)
    for method in methods:
        model = _fit_method(method, train, solution, affine_seed)
        point = fp_at_recall(test, model, reference)
        ap = average_precision(test, model)
        report.rows.append(
            MethodRow(method=method, recall=point.recall, fp=point.fp,
                      tau=point.tau, ap=ap)
        )
    return report
