"""Per-classifier score calibration: sigmoid, isotonic, affine, threshold shift.

Every method produces a CalibrationModel holding one monotone map per
classifier; the ensemble score of a sample is the max of its calibrated
per-classifier scores.  Within one classifier all maps preserve ranking;
calibration only changes how classifiers compare against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVariance,
    InfeasibleSolution,
    ParseError,
    UnknownClassifier,
)
from .problem import Problem, Solution, _read_json, _write_json, check_feasible
from .synthgen import CounterRng

METHODS = (
    "independent-sigmoid",
    "joint-sigmoid",
    "isotonic",
    "affine",
    "joint-thresholds",
)

NEWTON_MAX_ITER = 100
NEWTON_GRAD_TOL = 1e-10
AFFINE_SAMPLE_COUNT = 200_000


@dataclass(frozen=True)
class SigmoidParams:
    """score -> 1 / (1 + exp(a * score + b)); increasing when a < 0.

    Degenerate classifiers (no positives to fit on) carry a constant map at
    the smoothed negative target instead.
    """

    a: float
    b: float
    degenerate: bool = False
    constant: float = 0.0


@dataclass(frozen=True)
class IsotonicParams:
    """Right-continuous non-decreasing step function.

    breakpoints are the distinct training scores ascending; prediction takes
    the value of the nearest breakpoint at or below the query, clamped to
    the first value below the range.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class AffineParams:
    """score -> a * score + b with a > 0 (negatives standardized)."""

    a: float
    b: float


@dataclass(frozen=True)
class ShiftParams:
    """score -> score - threshold; the raw jointly calibrated margin."""

    threshold: float


@dataclass(frozen=True)
class CalibrationModel:
    method: str
    maps: tuple
    degenerate: tuple[int, ...] = ()

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown calibration method {self.method!r}")

    @property
    def num_classifiers(self) -> int:
        return len(self.maps)


# ---------------------------------------------------------------------------
# Sigmoid fitting (regularized maximum likelihood, damped Newton).
# ---------------------------------------------------------------------------


def smoothed_targets(num_positives: int, num_negatives: int) -> tuple[float, float]:
    """Target values replacing hard 0/1 labels; keeps the optimum finite."""
    t_pos = (num_positives + 1.0) / (num_positives + 2.0)
    t_neg = 1.0 / (num_negatives + 2.0)
    return t_pos, t_neg


def sigmoid_nll(scores: np.ndarray, targets: np.ndarray, a: float, b: float) -> float:
    """Negative log-likelihood of targets under p = 1/(1 + exp(a*s + b))."""
    z = a * scores + b
    # -[t ln p + (1-t) ln(1-p)] = softplus(z) - (1-t) z, stable for large |z|.
    return float(np.sum(np.logaddexp(0.0, z) - (1.0 - targets) * z))


def _fit_sigmoid(scores: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
    """Minimize sigmoid_nll over (a, b); convex, so damped Newton suffices."""
    a, b = 0.0, 0.0
    f = sigmoid_nll(scores, targets, a, b)
    for _ in range(NEWTON_MAX_ITER):
        z = a * scores + b
        p = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
        residual = targets - p
        grad = np.array([np.dot(residual, scores), residual.sum()])
        if np.abs(grad).max() < NEWTON_GRAD_TOL:
            break
        w = p * (1.0 - p)
        h_aa = np.dot(w, scores * scores)
        h_ab = np.dot(w, scores)
        h_bb = w.sum()
        hess = np.array([[h_aa, h_ab], [h_ab, h_bb]])
        hess += 1e-12 * np.eye(2)  # scores may be constant
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
            break  # no descent possible at float resolution
    return a, b


def _sigmoid_map(
    pos_scores: np.ndarray, neg_scores: np.ndarray
) -> tuple[SigmoidParams, bool]:
    n_pos, n_neg = len(pos_scores), len(neg_scores)
    t_pos, t_neg = smoothed_targets(n_pos, n_neg)
    if n_pos == 0:
        return SigmoidParams(0.0, 0.0, degenerate=True, constant=t_neg), True
    scores = np.concatenate([pos_scores, neg_scores])
    targets = np.concatenate([np.full(n_pos, t_pos), np.full(n_neg, t_neg)])
    a, b = _fit_sigmoid(scores, targets)
    return SigmoidParams(a, b), False


def fit_independent_sigmoid(problem: Problem, cutoff: float = -1.0) -> CalibrationModel:
    """Per-classifier sigmoid on its own scores, ignoring the ensemble.

    Samples at or below the margin cutoff are dropped before fitting, per
    classifier; a classifier retaining no positives gets the degenerate
    constant map and is flagged.
    """
    maps = []
    degenerate = []
    for j in range(problem.num_classifiers):
        pos = problem.positive_scores[j]
        neg = problem.negative_scores[j]
        params, is_degenerate = _sigmoid_map(pos[pos > cutoff], neg[neg > cutoff])
        maps.append(params)
        if is_degenerate:
            degenerate.append(j)
    return CalibrationModel("independent-sigmoid", tuple(maps), tuple(degenerate))


def fit_joint_sigmoid(problem: Problem, solution: Solution) -> CalibrationModel:
    """Sigmoids fitted on the joint solution's assignment sets.

    Positives for classifier j are exactly those scoring above its joint
    threshold; negatives are the full negative set.  Classifiers whose set
    is empty (redundant in the ensemble) get the degenerate map and are
    flagged for removal.
    """
    if not check_feasible(problem, solution.config):
        raise InfeasibleSolution("joint sigmoid needs a feasible solution")
    theta = np.asarray(tuple(solution.config))
    assigned = problem.positive_scores > theta[:, None]
    maps = []
    degenerate = []
    for j in range(problem.num_classifiers):
        pos = problem.positive_scores[j][assigned[j]]
        params, is_degenerate = _sigmoid_map(pos, problem.negative_scores[j])
        maps.append(params)
        if is_degenerate:
            degenerate.append(j)
    return CalibrationModel("joint-sigmoid", tuple(maps), tuple(degenerate))


# ---------------------------------------------------------------------------
# Isotonic regression (pool adjacent violators).
# ---------------------------------------------------------------------------


def pava(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Weighted least-squares non-decreasing fit, one value per input point."""
    if weights is None:
        weights = np.ones(len(values))
    blocks: list[list[float]] = []  # [weighted mean, weight sum, point count]
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


def fit_isotonic(problem: Problem) -> CalibrationModel:
    """Non-decreasing step fit of the 0/1 label against each classifier's score."""
    maps = []
    for j in range(problem.num_classifiers):
        scores = np.concatenate(
            [problem.positive_scores[j], problem.negative_scores[j]]
        )
        labels = np.concatenate(
            [
                np.ones(problem.num_positives),
                np.zeros(problem.num_negatives),
            ]
        )
        order = np.argsort(scores, kind="stable")
        xs, start = np.unique(scores[order], return_index=True)
        # Pool exact score ties before PAVA: one weighted point per distinct x.
        sums = np.add.reduceat(labels[order], start)
        counts = np.diff(np.append(start, len(scores)))
        fitted = pava(sums / counts, counts.astype(np.float64))
        maps.append(
            IsotonicParams(
                breakpoints=tuple(float(x) for x in xs),
                values=tuple(float(v) for v in fitted),
            )
        )
    return CalibrationModel("isotonic", tuple(maps))


# ---------------------------------------------------------------------------
# Affine (negatives-only standardization).
# ---------------------------------------------------------------------------


def fit_affine(
    problem: Problem,
    sample_count: int = AFFINE_SAMPLE_COUNT,
    seed: int = 0,
) -> CalibrationModel:
    """Standardize each classifier's negative-score distribution.

    calibrated = (s - mean_neg) / std_neg, with moments taken over up to
    sample_count negatives (drawn with replacement by the seeded counter
    generator when the problem has more).  Raises DegenerateVariance when
    the sampled negatives are constant.
    """
    rng = CounterRng(seed)
    n = problem.num_negatives
    maps = []
    for j in range(problem.num_classifiers):
        neg = problem.negative_scores[j]
        if n > sample_count:
            neg = neg[rng.integers(sample_count, n)]
        if len(neg) == 0:
            raise DegenerateVariance(f"classifier {j} has no negatives to fit on")
        mu = float(neg.mean())
        sigma = float(neg.std())
        if sigma == 0.0:
            raise DegenerateVariance(f"classifier {j} has constant negative scores")
        maps.append(AffineParams(a=1.0 / sigma, b=-mu / sigma))
    return CalibrationModel("affine", tuple(maps))


def fit_joint_thresholds(problem: Problem, solution: Solution) -> CalibrationModel:
    """Wrap a joint solution as a model scoring s_j - theta_j."""
    if not check_feasible(problem, solution.config):
        raise InfeasibleSolution("joint thresholds need a feasible solution")
    return CalibrationModel(
        "joint-thresholds",
        tuple(ShiftParams(threshold=t) for t in solution.config),
    )


# ---------------------------------------------------------------------------
# Applying models.
# ---------------------------------------------------------------------------


def apply_map(params, scores: np.ndarray) -> np.ndarray:
    """Vectorized single-classifier calibrated scores."""
    s = np.asarray(scores, dtype=np.float64)
    if isinstance(params, SigmoidParams):
        if params.degenerate:
            return np.full_like(s, params.constant)
        z = np.clip(params.a * s + params.b, -500, 500)
        return 1.0 / (1.0 + np.exp(z))
    if isinstance(params, IsotonicParams):
        bp = np.asarray(params.breakpoints)
        vals = np.asarray(params.values)
        idx = np.clip(np.searchsorted(bp, s, side="right") - 1, 0, len(bp) - 1)
        return vals[idx]
    if isinstance(params, AffineParams):
        return params.a * s + params.b
    if isinstance(params, ShiftParams):
        return s - params.threshold
    raise TypeError(f"unknown parameter block {type(params).__name__}")


def calibrated_score(model: CalibrationModel, classifier: int, score: float) -> float:
    if not 0 <= classifier < model.num_classifiers:
        raise UnknownClassifier(f"classifier {classifier} not in model")
    return float(apply_map(model.maps[classifier], np.array([score]))[0])


def calibrated_matrix(model: CalibrationModel, scores: np.ndarray) -> np.ndarray:
    """Apply per-classifier maps to an (E, M) score matrix."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != model.num_classifiers:
        raise UnknownClassifier(
            f"score matrix has {scores.shape[0] if scores.ndim == 2 else '?'} rows, "
            f"model has {model.num_classifiers} classifiers"
        )
    return np.stack(
        [apply_map(m, scores[j]) for j, m in enumerate(model.maps)]
    )


def ensemble_calibrated_score(model: CalibrationModel, sample_scores) -> float:
    """Max over classifiers of the calibrated score of one sample."""
    s = np.asarray(sample_scores, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] != model.num_classifiers:
        raise UnknownClassifier(
            f"sample has {s.size} scores, model has {model.num_classifiers}"
        )
    return float(calibrated_matrix(model, s[:, None]).max())


def ensemble_scores(model: CalibrationModel, scores: np.ndarray) -> np.ndarray:
    """Ensemble calibrated scores of all columns of an (E, M) matrix."""
    if scores.shape[1] == 0:
        return np.empty(0)
    return calibrated_matrix(model, scores).max(axis=0)


# ---------------------------------------------------------------------------
# Model files.
# ---------------------------------------------------------------------------

MODEL_FORMAT_VERSION = 1


def _map_to_doc(params) -> dict:
    if isinstance(params, SigmoidParams):
        if params.degenerate:
            return {"kind": "constant", "value": params.constant}
        return {"kind": "sigmoid", "a": params.a, "b": params.b}
    if isinstance(params, IsotonicParams):
        return {
            "kind": "isotonic",
            "breakpoints": list(params.breakpoints),
            "values": list(params.values),
        }
    if isinstance(params, AffineParams):
        return {"kind": "affine", "a": params.a, "b": params.b}
    if isinstance(params, ShiftParams):
        return {"kind": "shift", "threshold": params.threshold}
    raise TypeError(f"unknown parameter block {type(params).__name__}")


def _map_from_doc(doc: dict):
    if not isinstance(doc, dict):
        raise ParseError(f"classifier map {doc!r} is not an object")
    kind = doc.get("kind")
    if kind == "constant":
        return SigmoidParams(0.0, 0.0, degenerate=True, constant=float(doc["value"]))
    if kind == "sigmoid":
        return SigmoidParams(float(doc["a"]), float(doc["b"]))
    if kind == "isotonic":
        return IsotonicParams(
            breakpoints=tuple(float(x) for x in doc["breakpoints"]),
            values=tuple(float(v) for v in doc["values"]),
        )
    if kind == "affine":
        return AffineParams(float(doc["a"]), float(doc["b"]))
    if kind == "shift":
        return ShiftParams(float(doc["threshold"]))
    raise ParseError(f"unknown classifier map kind {kind!r}")


def save_model(model: CalibrationModel, path) -> None:
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "method": model.method,
        "num_classifiers": model.num_classifiers,
        "classifiers": [_map_to_doc(m) for m in model.maps],
        "degenerate": list(model.degenerate),
    }
    _write_json(doc, path)


def load_model(path) -> CalibrationModel:
    doc = _read_json(path)
    try:
        if doc["version"] != MODEL_FORMAT_VERSION:
            raise ParseError(f"unsupported model version {doc['version']!r}")
        maps = tuple(_map_from_doc(m) for m in doc["classifiers"])
        if len(maps) != doc["num_classifiers"]:
            raise ParseError("num_classifiers does not match classifier list")
        return CalibrationModel(
            method=doc["method"],
            maps=maps,
            degenerate=tuple(int(j) for j in doc.get("degenerate", [])),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: malformed model file: {e}") from e
