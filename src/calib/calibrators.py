"""Per-classifier score calibration: sigmoid, isotonic, affine, threshold shift.

Every method produces a CalibrationModel holding one monotone map per
classifier; the ensemble score of a sample is the max of its calibrated
per-classifier scores.  Within one classifier all maps preserve ranking;
calibration only changes how classifiers compare against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVariance,
    DimensionMismatch,
    InfeasibleSolution,
    ParseError,
    ValidationError,
)
from .problem import Problem, Solution, check_feasible
from .problem import _json_list, _read_json, _typed_value, _write_json

NEWTON_MAX_ITER = 100
NEWTON_GRAD_TOL = 1e-10


# ---------------------------------------------------------------------------
# Per-classifier maps.  Each is a frozen dataclass named in files by its
# `kind` and applied to a score array by calling it.
# ---------------------------------------------------------------------------


class _FloatFields:
    """Coerces every field to a finite float, so a map read from a file is checked."""

    def __post_init__(self):
        for name, value in vars(self).items():
            value = float(value)
            if not np.isfinite(value):
                raise ValidationError(f"{self.kind} map field {name} is {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SigmoidParams(_FloatFields):
    """score -> 1 / (1 + exp(a * score + b)); increasing when a < 0."""

    kind = "sigmoid"
    a: float
    b: float

    def __call__(self, scores: np.ndarray) -> np.ndarray:
        # An overflowing logit is +-inf, which the clip brings back.
        with np.errstate(over="ignore"):
            z = self.a * scores + self.b
        return 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))


@dataclass(frozen=True)
class ConstantParams(_FloatFields):
    """score -> value; a classifier left with no positives to fit a sigmoid on."""

    kind = "constant"
    value: float

    def __call__(self, scores: np.ndarray) -> np.ndarray:
        return np.full(np.shape(scores), self.value)


@dataclass(frozen=True, eq=False)
class IsotonicParams:
    """Right-continuous non-decreasing step function.

    breakpoints ascend; prediction takes the value of the nearest breakpoint
    at or below the query, clamped to the first value below the range.  A
    fit keeps only the breakpoints where its value changes.  Both are held
    as read-only float64 arrays, converted once here, and maps compare
    equal by content.  Raises ValidationError unless there are as many
    values as breakpoints, at least one of each, and the breakpoints
    strictly ascend.
    """

    kind = "isotonic"
    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=np.float64)
        vals = np.array(self.values, dtype=np.float64)
        if bp.ndim != 1 or vals.ndim != 1 or not len(bp) or len(bp) != len(vals):
            raise ValidationError(
                f"isotonic map has {bp.size} breakpoints and {vals.size} values"
            )
        if not (bp[1:] > bp[:-1]).all():  # np.diff would overflow at the float limit
            raise ValidationError("isotonic breakpoints must strictly ascend")
        bp.flags.writeable = vals.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if type(other) is not IsotonicParams:
            return NotImplemented
        return (np.array_equal(self.breakpoints, other.breakpoints)
                and np.array_equal(self.values, other.values))

    def __call__(self, scores: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, scores, side="right") - 1
        return self.values[np.maximum(idx, 0)]


@dataclass(frozen=True)
class AffineParams(_FloatFields):
    """score -> a * score + b with a > 0 (negatives standardized)."""

    kind = "affine"
    a: float
    b: float

    def __call__(self, scores: np.ndarray) -> np.ndarray:
        # a and b are finite, so an overflow is +-inf and still ranks in order.
        with np.errstate(over="ignore"):
            return self.a * scores + self.b


@dataclass(frozen=True)
class ShiftParams(_FloatFields):
    """score -> score - threshold; the raw jointly calibrated margin."""

    kind = "shift"
    threshold: float

    def __call__(self, scores: np.ndarray) -> np.ndarray:
        # An overflowing margin is +-inf, on the same side of 0 as the exact one.
        with np.errstate(over="ignore"):
            return scores - self.threshold


MAP_KINDS = {
    cls.kind: cls
    for cls in (SigmoidParams, ConstantParams, IsotonicParams, AffineParams, ShiftParams)
}

# The map types each method's models may hold.
METHODS = {
    "independent-sigmoid": (SigmoidParams, ConstantParams),
    "joint-sigmoid": (SigmoidParams, ConstantParams),
    "isotonic": (IsotonicParams,),
    "affine": (AffineParams,),
    "joint-thresholds": (ShiftParams,),
}
# Methods fitted on a joint solution.
JOINT_METHODS = ("joint-sigmoid", "joint-thresholds")


@dataclass(frozen=True)
class CalibrationModel:
    """One map per classifier; raises ValidationError for an unknown method
    or a map its method cannot produce."""

    method: str
    maps: tuple

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown calibration method {self.method!r}")
        for j, m in enumerate(self.maps):
            if not isinstance(m, METHODS[self.method]):
                raise ValidationError(
                    f"classifier {j}: a {self.method} model cannot hold "
                    f"a {type(m).__name__} map"
                )

    @property
    def num_classifiers(self) -> int:
        return len(self.maps)

    @property
    def degenerate(self) -> tuple[int, ...]:
        """Classifiers with a constant map, flagged for removal."""
        return tuple(j for j, m in enumerate(self.maps) if isinstance(m, ConstantParams))


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
    return _sigmoid_nll_into(scores, 1.0 - targets, a, b, *(
        np.empty(np.shape(scores)) for _ in range(3)))


def _sigmoid_nll_into(scores, complement, a, b, z, term, work) -> float:
    """sigmoid_nll given complement = 1 - targets, computed in the scratch
    arrays z, term and work; z is left holding a*s + b.

    -[t ln p + (1-t) ln(1-p)] = softplus(z) - (1-t) z, with softplus(z) =
    max(z, 0) + log1p(exp(-|z|)): stable for large |z|, and made of SIMD
    loops where np.logaddexp calls scalar exp and log1p per element.
    """
    np.multiply(scores, a, out=z)
    np.add(z, b, out=z)
    np.maximum(z, 0.0, out=work)
    np.abs(z, out=term)
    np.negative(term, out=term)
    np.exp(term, out=term)
    np.log1p(term, out=term)
    np.add(work, term, out=work)
    np.multiply(complement, z, out=term)
    np.subtract(work, term, out=work)
    return float(work.sum())


# Scores near the float limit overflow squares, the gradient or the
# Hessian; a non-finite step would find no descent, so the fit raises
# rather than return the start point as if fitted.
@np.errstate(over="ignore")
def _fit_sigmoid(scores: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
    """Minimize sigmoid_nll over (a, b); convex, so damped Newton suffices.

    Raises DegenerateVariance when the gradient or Hessian is not finite.
    Every array is built in one of three scratch arrays, each operation as
    in the plain expressions (p = 1/(1 + exp(clip(a*s + b))), residual =
    t - p, w = p (1 - p)), so the fit is the same bit for bit.  A Newton
    step starts from the z = a*s + b that the objective evaluation which
    accepted (a, b) left behind.  The clip is skipped when |a| max|s| + |b|
    is at most 500: rounding is monotone, so that bound caps every |z| and
    the clip would change nothing (a NaN or inf bound takes the clip).
    """
    complement = 1.0 - targets
    squares = scores * scores
    top = float(np.abs(scores).max())
    z, p, work = (np.empty(len(scores)) for _ in range(3))
    hess = np.empty((2, 2))
    a, b = 0.0, 0.0
    f = _sigmoid_nll_into(scores, complement, a, b, z, p, work)
    for _ in range(NEWTON_MAX_ITER):
        if abs(a) * top + abs(b) <= 500.0:
            np.exp(z, out=p)
        else:
            np.clip(z, -500, 500, out=p)
            np.exp(p, out=p)
        np.add(p, 1.0, out=p)
        np.divide(1.0, p, out=p)
        residual = np.subtract(targets, p, out=work)
        g_a, g_b = float(np.dot(residual, scores)), float(residual.sum())
        if not (math.isfinite(g_a) and math.isfinite(g_b)):
            raise DegenerateVariance("scores overflow the sigmoid fit's gradient")
        if max(abs(g_a), abs(g_b)) < NEWTON_GRAD_TOL:
            break
        w = np.subtract(1.0, p, out=work)
        np.multiply(p, w, out=w)
        h_aa = float(np.dot(w, squares))
        h_ab = float(np.dot(w, scores))
        h_bb = float(w.sum())
        if not (math.isfinite(h_aa) and math.isfinite(h_ab) and math.isfinite(h_bb)):
            raise DegenerateVariance("scores overflow the sigmoid fit's Hessian")
        # The ridge 1e-12 * I, for constant scores; its 0.0 off the diagonal
        # turns a -0.0 into 0.0.
        hess[0, 0], hess[0, 1] = h_aa + 1e-12, h_ab + 0.0
        hess[1, 0], hess[1, 1] = h_ab + 0.0, h_bb + 1e-12
        try:
            s_a, s_b = np.linalg.solve(hess, [-g_a, -g_b]).tolist()
        except np.linalg.LinAlgError:
            s_a, s_b = -g_a, -g_b
        t = 1.0
        for _ in range(60):
            ta, tb = a + t * s_a, b + t * s_b
            if ta == a and tb == b:
                # Every shorter step rounds to this same point, where fa == f.
                return a, b
            fa = _sigmoid_nll_into(scores, complement, ta, tb, z, p, work)
            if fa < f:
                a, b, f = ta, tb, fa
                break
            t *= 0.5
        else:
            break  # no descent found in 60 halvings
    return a, b


def _fit_sigmoids(method: str, pos_sets, neg_sets) -> CalibrationModel:
    """One sigmoid per classifier on its (positives, negatives) pair.

    A classifier with no positives gets the constant map at the smoothed
    negative target instead.  Raises DegenerateVariance naming the
    classifier whose scores overflow the fit.
    """
    maps = []
    for j, (pos, neg) in enumerate(zip(pos_sets, neg_sets)):
        t_pos, t_neg = smoothed_targets(len(pos), len(neg))
        if len(pos) == 0:
            maps.append(ConstantParams(t_neg))
            continue
        scores = np.concatenate([pos, neg])
        targets = np.concatenate([np.full(len(pos), t_pos), np.full(len(neg), t_neg)])
        try:
            maps.append(SigmoidParams(*_fit_sigmoid(scores, targets)))
        except DegenerateVariance as e:
            raise DegenerateVariance(f"classifier {j}: {e}") from None
    return CalibrationModel(method, tuple(maps))


def fit_independent_sigmoid(problem: Problem, cutoff: float = -1.0) -> CalibrationModel:
    """Per-classifier sigmoid on its own scores, ignoring the ensemble.

    Samples at or below the margin cutoff are dropped before fitting, per
    classifier; a classifier retaining no positives gets the degenerate
    constant map.  A NaN cutoff, which would drop every sample, raises
    ValidationError; -inf keeps them all.
    """
    if np.isnan(cutoff):
        raise ValidationError("cutoff must not be NaN")
    return _fit_sigmoids(
        "independent-sigmoid",
        [pos[pos > cutoff] for pos in problem.positive_scores],
        [neg[neg > cutoff] for neg in problem.negative_scores],
    )


def fit_joint_sigmoid(problem: Problem, solution: Solution) -> CalibrationModel:
    """Sigmoids fitted on the joint solution's assignment sets.

    Positives for classifier j are exactly those scoring above its joint
    threshold; negatives are the full negative set.  Classifiers whose set
    is empty (redundant in the ensemble) get the degenerate constant map.
    """
    if not check_feasible(problem, solution.config):
        raise InfeasibleSolution("joint sigmoid needs a feasible solution")
    theta = np.asarray(solution.config, dtype=np.float64)
    assigned = problem.positive_scores > theta[:, None]
    return _fit_sigmoids(
        "joint-sigmoid",
        [pos[mask] for pos, mask in zip(problem.positive_scores, assigned)],
        problem.negative_scores,
    )


# ---------------------------------------------------------------------------
# Isotonic regression (pool adjacent violators).
# ---------------------------------------------------------------------------


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal adjacent values."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def pava(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Weighted least-squares non-decreasing fit, one value per input point.

    Runs of equal adjacent values are pooled first (a run never violates
    itself), so the loop below visits one weighted point per run.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return np.empty(0)
    if weights is None:
        weights = np.ones(len(values))
    starts = _run_starts(values)
    run_lengths = np.diff(np.append(starts, len(values)))
    means: list[float] = []  # per block: weighted mean, weight sum, run count
    sums: list[float] = []
    runs: list[int] = []
    run_weights = np.add.reduceat(np.asarray(weights, dtype=np.float64), starts)
    for v, w in zip(values[starts].tolist(), run_weights.tolist()):
        c = 1
        while means and means[-1] > v:
            v0, w0 = means.pop(), sums.pop()
            v = (v0 * w0 + v * w) / (w0 + w)
            w += w0
            c += runs.pop()
        means.append(v)
        sums.append(w)
        runs.append(c)
    return np.repeat(np.repeat(means, runs), run_lengths)


def fit_isotonic(problem: Problem) -> CalibrationModel:
    """Non-decreasing step fit of the 0/1 label against each classifier's score.

    Each map keeps one breakpoint per step: the lowest distinct score at
    which the bits of the fitted value change (bits, so -0.0 and 0.0 stay
    apart).  A tied -0.0 and 0.0 is one score, written as 0.0.
    """
    labels = np.concatenate([np.ones(problem.num_positives), np.zeros(problem.num_negatives)])
    maps = []
    for pos, neg in zip(problem.positive_scores, problem.negative_scores):
        scores = np.concatenate([pos, neg])
        order = np.argsort(scores)
        ranked = scores[order]
        # Pool exact score ties before PAVA: one weighted point per distinct x.
        start = _run_starts(ranked)
        sums = np.add.reduceat(labels[order], start)
        counts = np.diff(np.append(start, len(scores)))
        fitted = pava(sums / counts, counts.astype(np.float64))
        steps = _run_starts(fitted.view(np.int64))
        maps.append(IsotonicParams(breakpoints=ranked[start[steps]] + 0.0,
                                   values=fitted[steps]))
    return CalibrationModel("isotonic", tuple(maps))


# ---------------------------------------------------------------------------
# Affine (negatives-only standardization).
# ---------------------------------------------------------------------------


def fit_affine(problem: Problem) -> CalibrationModel:
    """Standardize each classifier's negative-score distribution.

    calibrated = (s - mean_neg) / std_neg, with moments taken over every
    negative.  Raises DegenerateVariance when the negatives are constant or
    their mean or std is not finite.
    """
    maps = []
    for j, neg in enumerate(problem.negative_scores):
        if len(neg) == 0:
            raise DegenerateVariance(f"classifier {j} has no negatives to fit on")
        with np.errstate(over="ignore", invalid="ignore"):
            mu, sigma = float(neg.mean()), float(neg.std())
        if not (np.isfinite(mu) and np.isfinite(sigma)):
            raise DegenerateVariance(f"classifier {j}: negative scores overflow their moments")
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


def calibrated_matrix(model: CalibrationModel, scores: np.ndarray) -> np.ndarray:
    """Apply per-classifier maps to an (E, M) score matrix."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != model.num_classifiers:
        raise DimensionMismatch(
            f"score matrix has {scores.shape[0] if scores.ndim == 2 else '?'} rows, "
            f"model has {model.num_classifiers} classifiers"
        )
    return np.stack([m(row) for m, row in zip(model.maps, scores)])


def ensemble_scores(model: CalibrationModel, scores: np.ndarray) -> np.ndarray:
    """Ensemble calibrated scores of all columns of an (E, M) matrix."""
    return calibrated_matrix(model, scores).max(axis=0)


# ---------------------------------------------------------------------------
# Model files.  A map is stored as {"kind": ..., **its fields}.  The
# "degenerate" list is written for readers of the file; loading reads it
# off the constant maps instead.
# ---------------------------------------------------------------------------

MODEL_FORMAT_VERSION = 1


def _map_from_doc(doc: dict):
    """A map from its file object; every field is a number or an array of
    numbers."""
    if not isinstance(doc, dict):
        raise ParseError(f"classifier map {doc!r} is not an object")
    kind = doc.get("kind")
    if kind not in MAP_KINDS:
        raise ParseError(f"unknown classifier map kind {kind!r}")
    return MAP_KINDS[kind](**{
        k: _json_list(v, float, f"{kind} {k}") if isinstance(v, list)
        else _typed_value(v, float, f"{kind} {k}")
        for k, v in doc.items() if k != "kind"
    })


def save_model(model: CalibrationModel, path) -> None:
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "method": model.method,
        "num_classifiers": model.num_classifiers,
        "classifiers": [{"kind": m.kind, **vars(m)} for m in model.maps],
        "degenerate": model.degenerate,
    }
    _write_json(doc, path)


def load_model(path) -> CalibrationModel:
    doc = _read_json(path)
    try:
        if _typed_value(doc["version"], int, "version") != MODEL_FORMAT_VERSION:
            raise ParseError(f"unsupported model version {doc['version']!r}")
        maps = tuple(_map_from_doc(m) for m in doc["classifiers"])
        if len(maps) != _typed_value(doc["num_classifiers"], int, "num_classifiers"):
            raise ParseError("num_classifiers does not match classifier list")
        return CalibrationModel(method=doc["method"], maps=maps)
    except (KeyError, TypeError, ValueError, ValidationError) as e:
        raise ParseError(f"{path}: malformed model file: {e}") from e
