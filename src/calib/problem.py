"""Calibration problem data model, validation and (de)serialization.

A problem is an E x (P + N) matrix of precomputed classifier scores with a
positive/negative labeling of the columns.  The ensemble scores a sample as
``max_j (s_j - theta_j)`` and a sample counts as scored positively when that
margin is strictly greater than zero; a sample whose score equals the
threshold is scored negatively.  Candidate thresholds are built strictly
between distinct score values, so exact float comparisons are safe here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleSolution,
    IoError,
    ParseError,
    ValidationError,
)

PROBLEM_FORMAT_VERSION = 1

# Marker used in Solution.assignment for positives satisfied by the
# all-tightest root configuration (no single classifier is credited).
ROOT_COVERED = "root-covered"


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Problem:
    """Scores of E classifiers on P positive and N negative samples.

    Attributes:
        positive_scores: (E, P) float64 matrix, entry [j, i] is classifier j's
            score of positive i.
        negative_scores: (E, N) float64 matrix.
        positive_ids / negative_ids: optional opaque per-column identifiers,
            unique within each list.
        metadata: optional free-form string key/value pairs.

    Immutable after construction; the score arrays are marked read-only so a
    Problem can be shared freely between threads.
    """

    positive_scores: np.ndarray
    negative_scores: np.ndarray
    positive_ids: tuple[str, ...] | None = None
    negative_ids: tuple[str, ...] | None = None
    metadata: dict[str, str] | None = None

    def __post_init__(self):
        pos = np.asarray(self.positive_scores, dtype=np.float64)
        neg = np.asarray(self.negative_scores, dtype=np.float64)
        if pos.ndim != 2:
            raise ValidationError("positive_scores must be a 2-d matrix")
        if neg.ndim != 2:
            raise ValidationError("negative_scores must be a 2-d matrix")
        if pos.shape[0] != neg.shape[0]:
            raise ValidationError(
                f"positive_scores has {pos.shape[0]} rows but negative_scores "
                f"has {neg.shape[0]}"
            )
        if pos.shape[0] < 1:
            raise ValidationError("need at least one classifier")
        if pos.shape[1] < 1:
            raise ValidationError("no positives: P must be >= 1")
        for name, m in (("positive_scores", pos), ("negative_scores", neg)):
            bad = ~np.isfinite(m)
            if bad.any():
                r, c = np.argwhere(bad)[0]
                raise ValidationError(
                    f"{name} contains a non-finite value at (row {r}, col {c})"
                )
        object.__setattr__(self, "positive_scores", _as_readonly(pos))
        object.__setattr__(self, "negative_scores", _as_readonly(neg))
        for name, ids, n in (
            ("positive_ids", self.positive_ids, pos.shape[1]),
            ("negative_ids", self.negative_ids, neg.shape[1]),
        ):
            if ids is None:
                continue
            ids = tuple(str(x) for x in ids)
            if len(ids) != n:
                raise ValidationError(f"{name} has {len(ids)} entries, expected {n}")
            if len(set(ids)) != len(ids):
                dup = next(x for x in ids if ids.count(x) > 1)
                raise ValidationError(f"{name} contains duplicate id {dup!r}")
            object.__setattr__(self, name, ids)

    @property
    def num_classifiers(self) -> int:
        return self.positive_scores.shape[0]

    @property
    def num_positives(self) -> int:
        return self.positive_scores.shape[1]

    @property
    def num_negatives(self) -> int:
        return self.negative_scores.shape[1]


@dataclass(frozen=True)
class ThresholdConfig:
    """One threshold per classifier; the decision variable of the problem."""

    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "thresholds", tuple(float(t) for t in self.thresholds)
        )

    def __len__(self) -> int:
        return len(self.thresholds)

    def __iter__(self):
        return iter(self.thresholds)

    def __getitem__(self, j: int) -> float:
        return self.thresholds[j]


@dataclass
class SearchStats:
    """Instrumentation counters for one search run.

    ``nodes_visited`` counts every tree node entered, including the root and
    pass-through nodes at levels whose positive is already covered.  Children
    discarded before being entered are counted in the pruning counters
    instead.  ``incumbent_history`` holds (elapsed ms, loss) pairs with
    strictly decreasing losses.
    """

    nodes_visited: int = 0
    nodes_pruned_bound: int = 0
    nodes_pruned_equivalence: int = 0
    positives_removed_by_root: int = 0
    levels: int = 0
    wall_time_ms: float = 0.0
    incumbent_history: list[tuple[float, int]] = field(default_factory=list)


@dataclass
class Solution:
    """A feasible threshold configuration with bookkeeping.

    ``assignment`` has one entry per positive (original column order): the
    0-based index of the classifier responsible for covering it, or the
    string marker ``"root-covered"`` for positives already satisfied by the
    all-tightest root configuration.  ``optimal`` is True only when the
    search exhausted the tree; ``fallback`` marks the all-lowest emergency
    config returned when a budget expired before the first leaf.
    """

    config: ThresholdConfig
    loss: int
    assignment: list[int | str]
    optimal: bool
    stats: SearchStats
    fallback: bool = False


def _thresholds_array(problem: Problem, config) -> np.ndarray:
    theta = np.asarray(
        config.thresholds if isinstance(config, ThresholdConfig) else config,
        dtype=np.float64,
    )
    if theta.ndim != 1 or theta.shape[0] != problem.num_classifiers:
        raise DimensionMismatch(
            f"config has {theta.size} thresholds, problem has "
            f"{problem.num_classifiers} classifiers"
        )
    return theta


def compute_loss(problem: Problem, config) -> int:
    """Number of negatives scored positively: |{n : max_j(s_j(n) - theta_j) > 0}|."""
    theta = _thresholds_array(problem, config)
    if problem.num_negatives == 0:
        return 0
    margins = problem.negative_scores - theta[:, None]
    return int(np.count_nonzero(margins.max(axis=0) > 0.0))


def check_feasible(problem: Problem, config) -> bool:
    """True iff every positive is scored positively by at least one classifier."""
    theta = _thresholds_array(problem, config)
    margins = problem.positive_scores - theta[:, None]
    return bool((margins.max(axis=0) > 0.0).all())


def derive_assignment(problem: Problem, config) -> list[int]:
    """Smallest covering classifier index per positive, for a feasible config."""
    theta = _thresholds_array(problem, config)
    covered = (problem.positive_scores - theta[:, None]) > 0.0
    if not covered.any(axis=0).all():
        raise InfeasibleSolution("config leaves some positive uncovered")
    return [int(np.argmax(covered[:, p])) for p in range(problem.num_positives)]


def ensemble_score(sample_scores: Sequence[float], config) -> float:
    """Max over classifiers of the threshold-shifted score of one sample."""
    s = np.asarray(sample_scores, dtype=np.float64)
    theta = np.asarray(
        config.thresholds if isinstance(config, ThresholdConfig) else config,
        dtype=np.float64,
    )
    if s.shape != theta.shape:
        raise DimensionMismatch(
            f"sample has {s.size} scores but config has {theta.size} thresholds"
        )
    return float((s - theta).max())


# ---------------------------------------------------------------------------
# Serialization.  Problems, solutions and models are stored as JSON with
# floats in shortest round-trip decimal form (Python's repr), so
# load(save(x)) reproduces float64 values bit-exactly.
# ---------------------------------------------------------------------------


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return doc


def _write_json(doc: dict, path) -> None:
    try:
        Path(path).write_text(json.dumps(doc, indent=1) + "\n")
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def _matrix_from_doc(doc: dict, key: str, num_rows: int) -> np.ndarray:
    rows = doc.get(key)
    if not isinstance(rows, list):
        raise ParseError(f"field {key!r} missing or not an array")
    if len(rows) != num_rows:
        raise ValidationError(
            f"{key} has {len(rows)} rows, num_classifiers is {num_rows}"
        )
    width = None
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise ParseError(f"{key} row {r} is not an array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(
                f"{key} is ragged: row {r} has {len(row)} columns, row 0 has {width}"
            )
        for c, v in enumerate(row):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ParseError(f"{key}[{r}][{c}] is not a number")
        out.append([float(v) for v in row])
    return np.array(out, dtype=np.float64).reshape(num_rows, width or 0)


def _ids_from_doc(doc: dict, key: str) -> tuple | None:
    ids = doc.get(key)
    if ids is not None and not isinstance(ids, list):
        raise ParseError(f"field {key!r} is not an array")
    return tuple(ids) if ids else None


def load_problem(path) -> Problem:
    """Load and validate a problem file.

    Raises ParseError for malformed files and ValidationError for structural
    violations (ragged matrix, non-finite score, P = 0, duplicate id); both
    name the offending row/column.
    """
    doc = _read_json(path)
    version = doc.get("version")
    if version != PROBLEM_FORMAT_VERSION:
        raise ParseError(f"unsupported problem format version {version!r}")
    e = doc.get("num_classifiers")
    if not isinstance(e, int) or e < 1:
        raise ValidationError(f"num_classifiers must be a positive integer, got {e!r}")
    pos = _matrix_from_doc(doc, "positive_scores", e)
    neg = _matrix_from_doc(doc, "negative_scores", e)
    metadata = doc.get("metadata")
    if metadata is not None and (
        not isinstance(metadata, dict)
        or any(not isinstance(k, str) or not isinstance(v, str) for k, v in metadata.items())
    ):
        raise ParseError("metadata must be an object with string values")
    return Problem(
        positive_scores=pos,
        negative_scores=neg,
        positive_ids=_ids_from_doc(doc, "positive_ids"),
        negative_ids=_ids_from_doc(doc, "negative_ids"),
        metadata=dict(metadata) if metadata else None,
    )


def save_problem(problem: Problem, path) -> None:
    doc = {
        "version": PROBLEM_FORMAT_VERSION,
        "num_classifiers": problem.num_classifiers,
        "positive_scores": problem.positive_scores.tolist(),
        "negative_scores": problem.negative_scores.tolist(),
    }
    if problem.positive_ids is not None:
        doc["positive_ids"] = list(problem.positive_ids)
    if problem.negative_ids is not None:
        doc["negative_ids"] = list(problem.negative_ids)
    if problem.metadata is not None:
        doc["metadata"] = dict(problem.metadata)
    _write_json(doc, path)


def save_solution(solution: Solution, path) -> None:
    stats = solution.stats
    doc = {
        "thresholds": list(solution.config.thresholds),
        "loss": solution.loss,
        "assignment": list(solution.assignment),
        "optimal": solution.optimal,
        "fallback": solution.fallback,
        "stats": {
            "nodes_visited": stats.nodes_visited,
            "nodes_pruned_bound": stats.nodes_pruned_bound,
            "nodes_pruned_equivalence": stats.nodes_pruned_equivalence,
            "positives_removed_by_root": stats.positives_removed_by_root,
            "levels": stats.levels,
            "wall_time_ms": stats.wall_time_ms,
            "incumbent_history": [[t, loss] for t, loss in stats.incumbent_history],
        },
    }
    _write_json(doc, path)


def load_solution(path) -> Solution:
    doc = _read_json(path)
    try:
        raw_stats = doc.get("stats", {})
        if not isinstance(raw_stats, dict):
            raise ParseError("field 'stats' is not an object")
        stats = SearchStats(
            nodes_visited=raw_stats.get("nodes_visited", 0),
            nodes_pruned_bound=raw_stats.get("nodes_pruned_bound", 0),
            nodes_pruned_equivalence=raw_stats.get("nodes_pruned_equivalence", 0),
            positives_removed_by_root=raw_stats.get("positives_removed_by_root", 0),
            levels=raw_stats.get("levels", 0),
            wall_time_ms=raw_stats.get("wall_time_ms", 0.0),
            incumbent_history=[
                (float(t), int(l)) for t, l in raw_stats.get("incumbent_history", [])
            ],
        )
        assignment: list[int | str] = []
        for a in doc["assignment"]:
            if a == ROOT_COVERED:
                assignment.append(ROOT_COVERED)
            elif isinstance(a, int) and not isinstance(a, bool):
                assignment.append(a)
            else:
                raise ParseError(f"bad assignment entry {a!r}")
        return Solution(
            config=ThresholdConfig(tuple(float(t) for t in doc["thresholds"])),
            loss=int(doc["loss"]),
            assignment=assignment,
            optimal=bool(doc["optimal"]),
            stats=stats,
            fallback=bool(doc.get("fallback", False)),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: malformed solution file: {e}") from e
