"""Calibration problem data model, validation and (de)serialization.

A problem is an E x (P + N) matrix of precomputed classifier scores with a
positive/negative labeling of the columns.  The ensemble scores a sample as
``max_j (s_j - theta_j)`` and a sample counts as scored positively when that
margin is strictly greater than zero; a sample whose score equals the
threshold is scored negatively.  A candidate threshold lies strictly
between two distinct score values or on the lower one, which concedes the
same negatives under that rule, so exact float comparisons are safe here.
A positive at the lowest finite float has no threshold below it; candidate
extraction rejects it with a ValidationError.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import orjson

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
    """A read-only copy, so the caller's array stays writable and unshared."""
    a = np.array(a, dtype=np.float64, order="C")
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
        metadata: optional free-form string key/value pairs; a key or
            value that is not a string raises ValidationError.

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
            if not np.isfinite(m).all():
                r, c = np.argwhere(~np.isfinite(m))[0]
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
                counts = Counter(ids)
                dup = next(x for x in ids if counts[x] > 1)
                raise ValidationError(f"{name} contains duplicate id {dup!r}")
            object.__setattr__(self, name, ids)
        if self.metadata is not None:
            if not isinstance(self.metadata, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in self.metadata.items()
            ):
                raise ValidationError("metadata must map string keys to string values")
            object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def num_classifiers(self) -> int:
        return self.positive_scores.shape[0]

    @property
    def num_positives(self) -> int:
        return self.positive_scores.shape[1]

    @property
    def num_negatives(self) -> int:
        return self.negative_scores.shape[1]


@dataclass(slots=True)
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

    ``config`` holds one threshold per classifier, the decision variable of
    the problem.  ``assignment`` has one entry per positive (original column
    order): the smallest 0-based index of a classifier covering it, as
    ``derive_assignment`` gives, or the string marker ``"root-covered"``
    for positives removed by depth reduction.  ``optimal`` is True only when the
    search exhausted the tree; ``fallback`` marks the all-lowest emergency
    config returned when a budget expired before the first leaf.
    """

    config: tuple[float, ...]
    loss: int
    assignment: list[int | str]
    optimal: bool
    stats: SearchStats
    fallback: bool = False


def _thresholds_array(problem: Problem, config) -> np.ndarray:
    theta = np.asarray(config, dtype=np.float64)
    if theta.ndim != 1 or theta.shape[0] != problem.num_classifiers:
        raise DimensionMismatch(
            f"config has {theta.size} thresholds, problem has "
            f"{problem.num_classifiers} classifiers"
        )
    return theta


def compute_loss(problem: Problem, config) -> int:
    """Number of negatives scored positively: |{n : max_j(s_j(n) - theta_j) > 0}|.

    Margins are compared as s_j(n) > theta_j, which no overflow can upset.
    """
    theta = _thresholds_array(problem, config)
    return int(np.count_nonzero((problem.negative_scores > theta[:, None]).any(axis=0)))


def check_feasible(problem: Problem, config) -> bool:
    """True iff every positive is scored positively by at least one classifier."""
    theta = _thresholds_array(problem, config)
    return bool((problem.positive_scores > theta[:, None]).any(axis=0).all())


def derive_assignment(problem: Problem, config) -> list[int]:
    """Smallest covering classifier index per positive, for a feasible config."""
    theta = _thresholds_array(problem, config)
    covered = problem.positive_scores > theta[:, None]
    if not covered.any(axis=0).all():
        raise InfeasibleSolution("config leaves some positive uncovered")
    return covered.argmax(axis=0).tolist()


# ---------------------------------------------------------------------------
# Serialization.  Problems, solutions and models are stored as JSON with
# floats in shortest round-trip decimal form (Python's repr), so
# load(save(x)) reproduces float64 values bit-exactly.  Files are read as
# RFC 8259 JSON in UTF-8 (no NaN or Infinity) and written as
# json.dumps(doc, indent=1) + "\n"; orjson does the float work both ways.
# ---------------------------------------------------------------------------


def _read_json(path) -> dict:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return doc


def _finite_floats(o) -> np.ndarray | None:
    """o as a float64 array if it is a non-empty row of finite floats: a
    1-d float64 array, or a list or tuple of floats; else None."""
    if isinstance(o, np.ndarray):
        row = np.ascontiguousarray(o) if o.ndim == 1 and o.dtype == np.float64 else None
    elif isinstance(o, (list, tuple)) and {float}.issuperset(map(type, o)):
        row = np.array(o, dtype=np.float64)
    else:
        row = None
    return row if row is not None and row.size and np.isfinite(row).all() else None


def _float_row(row: np.ndarray, level: int) -> str:
    """json.dumps text of a row of finite floats nested ``level`` deep: one
    orjson call, then float.__repr__ for the magnitudes the two spell
    differently (orjson writes 0.00001234, 1e-6 and 1e16)."""
    indent = "\n" + " " * (level + 1)
    text = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1]
    magnitude = np.abs(row)
    respell = np.flatnonzero(((magnitude < 1e-4) & (row != 0)) | (magnitude >= 1e16))
    if respell.size:
        items = text.split(",")
        for i in respell.tolist():
            items[i] = repr(row[i].item())
        text = ",".join(items)
    return "[" + indent + text.replace(",", "," + indent) + "\n" + " " * level + "]"


def _encode(o, level: int):
    """Pieces of json.dumps(o, indent=1) for o nested ``level`` deep; a
    numpy array is written as its (nested) list of values.  Scalars and
    empty containers are json.dumps's own text."""
    row = _finite_floats(o)
    if row is not None:
        yield _float_row(row, level)
    elif isinstance(o, np.ndarray):
        yield from _encode(o.tolist() if o.ndim < 2 else list(o), level)
    elif isinstance(o, (list, tuple)) and o:
        yield from _encode_list(o, level)
    elif isinstance(o, dict) and o:
        yield from _encode_dict(o, level)
    else:
        yield json.dumps(o)


def _encode_list(items, level: int):
    indent = "\n" + " " * (level + 1)
    close = "\n" + " " * level + "]"
    yield "["
    for i, item in enumerate(items):
        yield "," + indent if i else indent
        yield from _encode(item, level + 1)
    yield close


def _encode_dict(d: dict, level: int):
    indent = "\n" + " " * (level + 1)
    yield "{"
    for i, (key, value) in enumerate(d.items()):
        if not isinstance(key, (str, int, float)) and key is not None:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        text = key if isinstance(key, str) else json.dumps(key)
        yield ("," + indent if i else indent) + json.dumps(text) + ": "
        yield from _encode(value, level + 1)
    yield "\n" + " " * level + "}"


def _write_json(doc: dict, path) -> None:
    """Write json.dumps(doc, indent=1) + "\n" to path, streamed piece by
    piece, so no copy of the whole text is held; numpy arrays are written as
    lists.  If writing or encoding fails part-way, the partial file is
    removed before the error is raised."""
    try:
        f = open(path, "w", encoding="ascii")
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e
    try:
        with f:
            f.writelines(_encode(doc, 0))
            f.write("\n")
    except BaseException as e:
        if os.path.isfile(path):  # never a device or a pipe
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(e, OSError):
            raise IoError(f"cannot write {path}: {e}") from e
        raise


# The JSON types each kind of field accepts.  Types match exactly, so true
# and false (Python ints) are neither numbers nor counts.
_JSON_KINDS = {float: ({int, float}, "a number"), int: ({int}, "an integer"),
               bool: ({bool}, "true or false"), str: ({str}, "a string")}


def _json_value(value, kind: type, where: str):
    """value read from JSON as kind (float, int, bool or str); else ParseError."""
    types, name = _JSON_KINDS[kind]
    if type(value) not in types:
        raise ParseError(f"{where} must be {name}, got {value!r}")
    return kind(value)


def _check_json_list(values, kind: type, where: str) -> None:
    """ParseError unless values is a JSON array of kind values; it names a
    bad entry."""
    if not isinstance(values, list):
        raise ParseError(f"{where} is not an array")
    if not _JSON_KINDS[kind][0].issuperset(map(type, values)):
        for i, v in enumerate(values):
            _json_value(v, kind, f"{where}[{i}]")


def _json_list(values, kind: type, where: str) -> list:
    """A JSON array of kind values as a list; ParseError names a bad entry."""
    _check_json_list(values, kind, where)
    return list(map(kind, values))


def _matrix_from_doc(doc: dict, key: str, num_rows: int) -> np.ndarray:
    rows = doc.get(key)
    if not isinstance(rows, list):
        raise ParseError(f"field {key!r} missing or not an array")
    if len(rows) != num_rows:
        raise ValidationError(
            f"{key} has {len(rows)} rows, num_classifiers is {num_rows}"
        )
    width = None
    for r, row in enumerate(rows):
        _check_json_list(row, float, f"{key}[{r}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(
                f"{key} is ragged: row {r} has {len(row)} columns, row 0 has {width}"
            )
    return np.array(rows, dtype=np.float64)


def _ids_from_doc(doc: dict, key: str) -> tuple | None:
    ids = doc.get(key)
    return None if ids is None else tuple(_json_list(ids, str, key))


def load_problem(path) -> Problem:
    """Load and validate a problem file.

    Raises ParseError for malformed files and ValidationError for structural
    violations (ragged matrix, non-finite score, P = 0, id count or duplicate
    id, metadata that is not string to string); matrix errors name the
    offending row/column.
    """
    doc = _read_json(path)
    version = _json_value(doc.get("version"), int, "version")
    if version != PROBLEM_FORMAT_VERSION:
        raise ParseError(f"unsupported problem format version {version!r}")
    e = _json_value(doc.get("num_classifiers"), int, "num_classifiers")
    if e < 1:
        raise ValidationError(f"num_classifiers must be a positive integer, got {e!r}")
    pos = _matrix_from_doc(doc, "positive_scores", e)
    neg = _matrix_from_doc(doc, "negative_scores", e)
    return Problem(
        positive_scores=pos,
        negative_scores=neg,
        positive_ids=_ids_from_doc(doc, "positive_ids"),
        negative_ids=_ids_from_doc(doc, "negative_ids"),
        metadata=doc.get("metadata"),
    )


def save_problem(problem: Problem, path) -> None:
    doc = {
        "version": PROBLEM_FORMAT_VERSION,
        "num_classifiers": problem.num_classifiers,
        "positive_scores": problem.positive_scores,
        "negative_scores": problem.negative_scores,
    }
    for key in ("positive_ids", "negative_ids", "metadata"):
        if getattr(problem, key) is not None:
            doc[key] = getattr(problem, key)
    _write_json(doc, path)


def save_solution(solution: Solution, path) -> None:
    stats = solution.stats
    doc = {
        "thresholds": solution.config,
        "loss": solution.loss,
        "assignment": solution.assignment,
        "optimal": solution.optimal,
        "fallback": solution.fallback,
        # Field order is key order, so a new SearchStats field is saved too.
        "stats": {f.name: getattr(stats, f.name) for f in fields(SearchStats)},
    }
    _write_json(doc, path)


def load_solution(path) -> Solution:
    """Load a solution file; a missing or mistyped field raises ParseError."""
    doc = _read_json(path)
    try:
        raw_stats = doc.get("stats", {})
        if not isinstance(raw_stats, dict):
            raise ParseError("field 'stats' is not an object")
        # Each stats field but the history has its default's type.
        stats = SearchStats(**{
            f.name: _json_value(raw_stats[f.name], type(f.default), f"stats.{f.name}")
            for f in fields(SearchStats)
            if f.name in raw_stats and f.name != "incumbent_history"
        })
        stats.incumbent_history = [
            (_json_value(t, float, "incumbent time"), _json_value(l, int, "incumbent loss"))
            for t, l in raw_stats.get("incumbent_history", [])
        ]
        assignment = [
            a if a == ROOT_COVERED else _json_value(a, int, "assignment entry")
            for a in doc["assignment"]
        ]
        return Solution(
            config=tuple(_json_list(doc["thresholds"], float, "thresholds")),
            loss=_json_value(doc["loss"], int, "loss"),
            assignment=assignment,
            optimal=_json_value(doc["optimal"], bool, "optimal"),
            stats=stats,
            fallback=_json_value(doc.get("fallback", False), bool, "fallback"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: malformed solution file: {e}") from e
