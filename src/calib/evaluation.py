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
    JOINT_METHODS,
    CalibrationModel,
    ensemble_scores,
    fit_affine,
    fit_independent_sigmoid,
    fit_isotonic,
    fit_joint_sigmoid,
    fit_joint_thresholds,
)
from .errors import DimensionMismatch, UnreachableRecall, ValidationError
from .problem import Problem, Solution, _thresholds_array


def recall_at_thresholds(problem: Problem, config) -> float:
    """Fraction of positives scored positively (margin > 0) under config."""
    theta = _thresholds_array(problem, config)
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


def _ensemble_pair(problem: Problem,
                   model: CalibrationModel) -> tuple[np.ndarray, np.ndarray]:
    """The model's ensemble scores of the problem's positives and negatives.

    Every metric below is read off this pair, so a caller wanting several
    metrics of one model scores it once.
    """
    return (ensemble_scores(model, problem.positive_scores),
            ensemble_scores(model, problem.negative_scores))


def _operating_point(pos: np.ndarray, neg: np.ndarray, method: str,
                     target: float) -> FpAtRecall:
    """fp_at_recall on ensemble scores already computed."""
    if method == "joint-thresholds":
        return FpAtRecall(
            fp=int(np.count_nonzero(neg > 0.0)),
            tau=0.0,
            recall=float(np.count_nonzero(pos > 0.0)) / len(pos),
        )
    if not 0.0 <= target <= 1.0:
        raise ValidationError(f"target recall {target} outside [0, 1]")
    if target == 0.0:
        top = float(np.max(np.concatenate([pos, neg]))) if len(neg) else float(pos.max())
        # Above every score: + 1.0 is absorbed from |top| near 2**53 on.  No
        # float lies above an inf top, so recall is counted, not assumed 0.
        tau = max(top + 1.0, math.nextafter(top, math.inf))
        recall = float(np.count_nonzero(pos >= tau)) / len(pos)
        return FpAtRecall(fp=0, tau=tau, recall=recall)
    # The smallest k with k/P >= target, as recall is computed: ceil(target
    # * P) is one too many when the product rounds up past an exact c/P.
    k = int(np.searchsorted(np.arange(len(pos) + 1) / len(pos), target))
    tau = float(np.partition(pos, len(pos) - k)[len(pos) - k])
    recall = float(np.count_nonzero(pos >= tau)) / len(pos)
    if recall < target:
        raise UnreachableRecall(f"recall {recall} below target {target}")
    return FpAtRecall(fp=int(np.count_nonzero(neg > tau)), tau=tau, recall=recall)


def fp_at_recall(problem: Problem, model: CalibrationModel, target: float) -> FpAtRecall:
    """False positives at the loosest threshold reaching the target recall.

    For joint-thresholds models the operating point is pinned at margin 0
    and the target is ignored: the thresholds themselves decide the recall,
    which is reported for use as other methods' target.
    """
    return _operating_point(*_ensemble_pair(problem, model), model.method, target)


def _ranked(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores and 0/1 labels in rank order: descending, negatives first on ties."""
    scores = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(len(pos), dtype=np.int64),
                             np.zeros(len(neg), dtype=np.int64)])
    order = np.lexsort((labels, -scores))
    return scores[order], labels[order]


def _average_precision(pos: np.ndarray, neg: np.ndarray) -> float:
    """average_precision on ensemble scores already computed."""
    _, labels = _ranked(pos, neg)
    cum_pos = np.cumsum(labels)
    ranks = np.arange(1, len(labels) + 1)
    return float((cum_pos[labels == 1] / ranks[labels == 1]).sum() / len(pos))


def average_precision(problem: Problem, model: CalibrationModel) -> float:
    """All-point AP of the ensemble ranking, pessimistic on ties."""
    return _average_precision(*_ensemble_pair(problem, model))


@dataclass(frozen=True)
class CurvePoint:
    rank: int
    score: float
    label: int
    precision: float
    recall: float


def _pr_curve(pos: np.ndarray, neg: np.ndarray) -> list[CurvePoint]:
    """pr_curve on ensemble scores already computed."""
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


def pr_curve(problem: Problem, model: CalibrationModel) -> list[CurvePoint]:
    """Precision-recall staircase over the full ranking, one point per sample."""
    return _pr_curve(*_ensemble_pair(problem, model))


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


def fit_method(
    method: str,
    train: Problem,
    solution: Solution | None = None,
    *,
    cutoff: float = -1.0,
) -> CalibrationModel:
    """Fit one of calibrators.METHODS on train.

    The joint methods need a solution of train.  cutoff applies to
    independent-sigmoid.  Each fit_* is
    called through this module's name for it, so a wrapper installed there
    sees every fit.
    """
    if method in JOINT_METHODS and solution is None:
        raise ValidationError(f"method {method!r} needs a solution")
    if method == "independent-sigmoid":
        return fit_independent_sigmoid(train, cutoff=cutoff)
    if method == "joint-sigmoid":
        return fit_joint_sigmoid(train, solution)
    if method == "isotonic":
        return fit_isotonic(train)
    if method == "affine":
        return fit_affine(train)
    if method == "joint-thresholds":
        return fit_joint_thresholds(train, solution)
    raise ValidationError(f"unknown method {method!r}")


def compare_methods(
    train: Problem,
    test: Problem,
    methods: list[str],
    solution: Solution,
) -> ComparisonReport:
    """Fit each method on train, evaluate all of them on test.

    solution is a joint solution of train.  The reference recall is its
    joint-thresholds operating point on test; every non-joint method
    reports fp at that recall.  AP uses the full ranking regardless.
    """
    if train.num_classifiers != test.num_classifiers:
        raise DimensionMismatch(
            f"train has {train.num_classifiers} classifiers, "
            f"test has {test.num_classifiers}"
        )
    # The joint-thresholds model sets the reference; it is fitted and
    # scored once, and every model's scores serve both of its metrics.
    joint_model = fit_joint_thresholds(train, solution)
    joint_scores = _ensemble_pair(test, joint_model)
    reference = _operating_point(*joint_scores, joint_model.method, 1.0).recall
    report = ComparisonReport(reference_recall=reference)
    for method in methods:
        if method == joint_model.method:
            scores = joint_scores
        else:
            scores = _ensemble_pair(test, fit_method(method, train, solution))
        point = _operating_point(*scores, method, reference)
        report.rows.append(
            MethodRow(method=method, recall=point.recall, fp=point.fp,
                      tau=point.tau, ap=_average_precision(*scores))
        )
    return report
