"""Problem container, loss/feasibility primitives, JSON round trips."""

import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from calib import (
    CalibrationModel,
    InfeasibleSolution,
    Problem,
    ROOT_COVERED,
    SearchStats,
    ShiftParams,
    Solution,
    GenerateSpec,
    ParseError,
    ValidationError,
    check_feasible,
    compute_loss,
    derive_assignment,
    ensemble_scores,
    generate,
    load_model,
    load_problem,
    load_solution,
    save_model,
    save_problem,
    save_solution,
)

from calib.calibrators import MAP_KINDS, METHODS
from calib.problem import _write_json
from conftest import NOT_RFC_8259, problem_text, toy_two_by_two


def test_shape_validation():
    with pytest.raises(ValidationError):
        Problem(np.zeros((2, 3)), np.zeros((3, 4)))
    with pytest.raises(ValidationError):
        Problem(np.zeros(3), np.zeros((1, 4)))
    with pytest.raises(ValidationError):
        Problem(np.zeros((1, 0)), np.zeros((1, 4)))
    with pytest.raises(ValidationError):
        Problem(np.array([[np.nan]]), np.zeros((1, 2)))


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError):
        Problem(np.zeros((1, 2)), np.zeros((1, 1)), positive_ids=("a", "a"))
    # The first id that occurs twice is named, not the first repeat.
    with pytest.raises(ValidationError, match="duplicate id 'b'"):
        Problem(np.zeros((1, 4)), np.zeros((1, 1)), positive_ids=("b", "a", "a", "b"))


def test_duplicate_among_many_ids_is_found_in_linear_time():
    n = 100_000
    ids = [f"n{i}" for i in range(n)]
    ids[-1] = ids[n // 2]
    with pytest.raises(ValidationError, match=f"negative_ids contains duplicate id 'n{n // 2}'"):
        Problem(np.zeros((1, 1)), np.zeros((1, n)), negative_ids=ids)


def test_matrices_read_only(toy):
    with pytest.raises(ValueError):
        toy.positive_scores[0, 0] = 99.0


def test_problem_copies_the_callers_arrays():
    a = np.array([[1.0, 2.0]])
    p = Problem(a, np.array([[0.5, 3.0]]))
    assert a.flags.writeable and p.positive_scores is not a
    a[0, 0] = 9.0  # the caller's array stays theirs to write
    assert p.positive_scores.tolist() == [[1.0, 2.0]]
    assert not p.positive_scores.flags.writeable
    assert p.positive_scores.flags.c_contiguous


def test_loss_and_feasibility_toy(toy):
    # hand-worked: thresholds (1.25, 4.2) admit negatives 1.0+2.0 on e0 only
    cfg = (1.25, 4.2)
    assert check_feasible(toy, cfg)
    assert compute_loss(toy, cfg) == 2
    # sentinel-everything: infeasible, loss 0
    top = (7.0, 4.2)
    assert not check_feasible(toy, top)
    assert compute_loss(toy, top) == 0


def test_loss_counts_union_not_sum():
    # one negative admitted by both classifiers counts once
    p = Problem(np.array([[1.0], [1.0]]), np.array([[0.5], [0.5]]))
    assert compute_loss(p, (0.0, 0.0)) == 1


def test_ensemble_score_max_of_shifted():
    model = CalibrationModel("joint-thresholds", (ShiftParams(1.0), ShiftParams(3.0)))
    # one column per sample: (2, 4), (2, 2) and (1, 3)
    samples = np.array([[2.0, 2.0, 1.0], [4.0, 2.0, 3.0]])
    # a sample exactly at every threshold scores 0, i.e. NOT positive
    assert ensemble_scores(model, samples).tolist() == [1.0, 1.0, 0.0]


def test_derive_assignment_smallest_index(toy):
    assert derive_assignment(toy, (1.25, 4.2)) == [0, 0]
    # tighten e0 so positive 1 (score 1.5) must fall to e1
    assert derive_assignment(toy, (2.0, 2.75)) == [0, 1]
    with pytest.raises(InfeasibleSolution):
        derive_assignment(toy, (7.0, 4.2))


def test_problem_round_trip(tmp_path):
    p = Problem(
        positive_scores=np.array([[0.1, 1e-17], [-3.5, 2.0 / 3.0]]),
        negative_scores=np.array([[1e300, -0.0, 5.0], [0.3, 0.1 + 0.2, 1.0]]),
        positive_ids=("a", "b"),
        negative_ids=("x", "y", "z"),
        metadata={"note": "round trip"},
    )
    path = tmp_path / "p.json"
    save_problem(p, path)
    q = load_problem(path)
    # exact bit equality via repr round trip, not approximate
    assert np.array_equal(p.positive_scores, q.positive_scores)
    assert np.array_equal(p.negative_scores, q.negative_scores)
    assert q.positive_ids == ("a", "b")
    assert q.negative_ids == ("x", "y", "z")
    assert q.metadata["note"] == "round trip"


def load_problem_from(tmp_path, fields):
    """Load a one-classifier problem file (P=1, N=1) with fields replaced."""
    doc = {"version": 1, "num_classifiers": 1, "positive_scores": [[0.5]],
           "negative_scores": [[0.1]], **fields}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    return load_problem(path)


def test_constructed_problem_round_trips(tmp_path):
    p = Problem(
        positive_scores=np.array([[0.5]]),
        negative_scores=np.empty((1, 0)),
        negative_ids=(),
        metadata={"k": "1", "": "\u00e9"},
    )
    path = tmp_path / "p.json"
    save_problem(p, path)
    q = load_problem(path)
    assert q.positive_ids is None and q.negative_ids == ()
    assert q.metadata == {"k": "1", "": "\u00e9"}
    assert load_problem_from(tmp_path, {"metadata": {}}).metadata == {}


@pytest.mark.parametrize("metadata", [{"k": 1}, {1: "v"}, {"k": None}, ["k", "v"]])
def test_metadata_must_map_strings_to_strings(metadata):
    with pytest.raises(ValidationError, match="metadata"):
        Problem(positive_scores=np.array([[0.5]]), negative_scores=np.array([[0.1]]),
                metadata=metadata)


@pytest.mark.parametrize("ids, named", [
    ([1], r"positive_ids\[0\] must be a string, got 1$"),
    ([None], r"positive_ids\[0\] must be a string, got None$"),
    ([True], r"positive_ids\[0\] must be a string, got True$"),
    (["a", 1.5], r"positive_ids\[1\] must be a string, got 1.5$"),
    ([1, "1"], r"positive_ids\[0\] must be a string, got 1$"),
], ids=["number", "null", "bool", "float", "number-and-string"])
def test_file_ids_must_be_strings(tmp_path, ids, named):
    with pytest.raises(ParseError, match=named):
        load_problem_from(tmp_path, {"positive_scores": [[0.5] * len(ids)], "positive_ids": ids})


def test_library_turns_ids_into_strings():
    p = Problem(np.zeros((1, 3)), np.zeros((1, 1)), positive_ids=[1, None, True])
    assert p.positive_ids == ("1", "None", "True")


@pytest.mark.parametrize("key", ["positive_ids", "negative_ids"])
def test_empty_id_array_is_a_length_error(tmp_path, key):
    with pytest.raises(ValidationError, match=f"{key} has 0 entries, expected 1"):
        load_problem_from(tmp_path, {key: []})


def test_file_metadata_must_map_strings_to_strings(tmp_path):
    with pytest.raises(ValidationError, match="metadata"):
        load_problem_from(tmp_path, {"metadata": {"k": 1}})


# Floats at the edges of what json.dumps writes: signed zero, the smallest
# subnormal, the largest magnitudes and the non-finite values.
EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan])
SCALARS = st.one_of(EDGE_FLOATS, st.floats(), st.integers(), st.booleans(), st.none(),
                    st.text())
KEYS = st.one_of(st.text(), st.integers(), EDGE_FLOATS, st.booleans(), st.none())
DOCS = st.dictionaries(KEYS, st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.lists(EDGE_FLOATS | st.floats()),
                            st.dictionaries(KEYS, inner)),
    max_leaves=40,
))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=DOCS)
def test_writer_bytes_equal_json_dumps(tmp_path, doc):
    path = tmp_path / "doc.json"
    _write_json(doc, path)
    assert path.read_bytes() == (json.dumps(doc, indent=1) + "\n").encode()


@pytest.mark.parametrize("array", [
    np.array([[1.5, -0.0], [np.inf, np.nan]]),
    np.array([0.1, 5e-324, -1e308]),
    np.empty((0, 3)),
    np.empty((2, 0)),
    np.arange(4).reshape(2, 2),
], ids=["non-finite", "row", "no-rows", "empty-rows", "ints"])
def test_writer_writes_arrays_as_lists(tmp_path, array):
    path = tmp_path / "doc.json"
    _write_json({"a": array, "rows": [array]}, path)
    expected = {"a": array.tolist(), "rows": [array.tolist()]}
    assert path.read_text() == json.dumps(expected, indent=1) + "\n"


def test_writer_removes_partial_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("old")
    with pytest.raises(TypeError, match="not JSON serializable"):
        _write_json({"rows": [np.zeros(100_000), object()]}, path)
    assert not path.exists()
    with pytest.raises(TypeError, match="keys must be"):
        _write_json({"a": 1.0, (1, 2): 2}, path)
    assert not path.exists()


def spelling_sweep() -> np.ndarray:
    """Every float spelling the writer has to match json.dumps on: a power of
    two and a value with a long mantissa at every binary exponent,
    subnormals through DBL_MAX, both signs; the signed zeros; and the
    nextafter neighbours of the magnitudes where orjson and float.__repr__
    part ways."""
    exponents = np.arange(-1074, 1024)
    magnitudes = [np.ldexp(1.0, exponents), np.ldexp(1.2345678901234567, exponents),
                  [np.finfo(np.float64).max]]
    for edge in (1e-5, 1e-4, 1e15, 1e16):
        magnitudes.append([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
    positive = np.concatenate(magnitudes)
    assert np.isfinite(positive).all() and (positive > 0).all()
    return np.concatenate([positive, -positive, [0.0, -0.0]])


def float_bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def test_writer_spells_every_float_as_json_dumps(tmp_path):
    row = spelling_sweep()
    doc = {"numpy": row, "list": row.tolist(), "tuple": tuple(row.tolist()),
           "matrix": np.stack([row, row[::-1]]), "nested": [row.tolist(), row[::-1]]}
    expected = {"numpy": row.tolist(), "list": row.tolist(), "tuple": row.tolist(),
                "matrix": [row.tolist(), row[::-1].tolist()],
                "nested": [row.tolist(), row[::-1].tolist()]}
    path = tmp_path / "doc.json"
    _write_json(doc, path)
    assert path.read_bytes() == (json.dumps(expected, indent=1) + "\n").encode()


def test_problem_round_trip_is_bit_identical(tmp_path):
    row = spelling_sweep()
    p = Problem(positive_scores=np.stack([row, row[::-1]]),
                negative_scores=np.stack([row[::-1], row]))
    path = tmp_path / "p.json"
    save_problem(p, path)
    q = load_problem(path)
    assert float_bits(q.positive_scores) == float_bits(p.positive_scores)
    assert float_bits(q.negative_scores) == float_bits(p.negative_scores)


def test_solution_round_trip_is_bit_identical(tmp_path):
    row = spelling_sweep().tolist()
    sol = Solution(config=tuple(row), loss=1, assignment=[0], optimal=False,
                   stats=SearchStats(wall_time_ms=row[3],
                                     incumbent_history=[(t, 2) for t in row]))
    path = tmp_path / "s.json"
    save_solution(sol, path)
    back = load_solution(path)
    assert float_bits(back.config) == float_bits(row)
    assert float_bits(back.stats.wall_time_ms) == float_bits(row[3])
    assert float_bits([t for t, _ in back.stats.incumbent_history]) == float_bits(row)


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_model_round_trip_is_bit_identical(tmp_path, kind):
    cls = MAP_KINDS[kind]
    method = next(m for m, kinds in METHODS.items() if cls in kinds)
    row = spelling_sweep()
    if kind == "isotonic":
        breakpoints = np.unique(row)
        maps = (cls(breakpoints=breakpoints, values=row[:breakpoints.size]),)
    else:
        width = len(fields(cls))
        maps = tuple(cls(*row[i:i + width].tolist()) for i in range(row.size - width + 1))
    path = tmp_path / "m.json"
    save_model(CalibrationModel(method, maps), path)
    back = load_model(path)
    assert back.method == method and len(back.maps) == len(maps)
    for m, b in zip(maps, back.maps):
        assert type(b) is cls
        assert [float_bits(getattr(b, f.name)) for f in fields(m)] == \
            [float_bits(getattr(m, f.name)) for f in fields(m)]


@pytest.mark.parametrize("case", NOT_RFC_8259)
def test_reader_accepts_only_rfc_8259_json(tmp_path, case):
    text, named = NOT_RFC_8259[case]
    path = tmp_path / "p.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=named):
        load_problem(path)


def test_reader_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "p.json"
    path.write_bytes(problem_text(extra=', "metadata": {"k": "\xff"}').encode("latin-1"))
    with pytest.raises(ParseError, match="not valid UTF-8"):
        load_problem(path)
    path.write_text(problem_text(extra=', "metadata": {"k": "\xff"}'), encoding="utf-8")
    assert load_problem(path).metadata == {"k": "\xff"}


MID_SPEC = GenerateSpec(seed=5, num_classifiers=40, num_positives=50, num_negatives=4000)


def traced_peak(fn, *args):
    """Peak bytes traced (numpy buffers included) during fn(*args), above
    what was allocated before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_generate_memory_is_bounded():
    train, test = generate(MID_SPEC)
    output = sum(m.nbytes for p in (train, test)
                 for m in (p.positive_scores, p.negative_scores))
    del train, test
    # The score matrix plus Problem's copies of its four slices: 2.0x.
    assert traced_peak(generate, MID_SPEC) <= 2.25 * output


def test_save_problem_memory_is_bounded(tmp_path):
    train, _ = generate(MID_SPEC)
    matrix = train.positive_scores.nbytes + train.negative_scores.nbytes
    assert traced_peak(save_problem, train, tmp_path / "p.json") <= matrix


def test_solution_round_trip(tmp_path):
    sol = Solution(
        config=(1.25, 4.2),
        loss=2,
        assignment=[0, ROOT_COVERED],
        optimal=True,
        stats=SearchStats(
            nodes_visited=3,
            nodes_pruned_bound=2,
            levels=2,
            wall_time_ms=0.125,
            incumbent_history=[(0.05, 4), (0.08, 2)],
        ),
    )
    path = tmp_path / "s.json"
    save_solution(sol, path)
    # The stats keys are SearchStats' fields, in field order.
    assert list(json.loads(path.read_text())["stats"].items()) == [
        ("nodes_visited", 3),
        ("nodes_pruned_bound", 2),
        ("nodes_pruned_equivalence", 0),
        ("positives_removed_by_root", 0),
        ("levels", 2),
        ("wall_time_ms", 0.125),
        ("incumbent_history", [[0.05, 4], [0.08, 2]]),
    ]
    back = load_solution(path)
    assert back.config == (1.25, 4.2)
    assert back.loss == 2
    assert back.assignment == [0, ROOT_COVERED]
    assert back.optimal and not back.fallback
    assert back.stats.nodes_visited == 3
    assert back.stats.incumbent_history == [(0.05, 4), (0.08, 2)]
    again = tmp_path / "again.json"
    save_solution(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_search_stats_has_no_instance_dict():
    # A benchmark run keeps one record per solve, so each carries no __dict__.
    assert not hasattr(SearchStats(), "__dict__")


@settings(max_examples=60)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6), st.data())
def test_loss_monotone_in_thresholds(ts, data):
    """Raising any threshold never increases the loss."""
    toy = toy_two_by_two()
    E = toy.num_classifiers
    base = [data.draw(st.floats(-5, 8)) for _ in range(E)]
    j = data.draw(st.integers(0, E - 1))
    raised = list(base)
    raised[j] = base[j] + abs(ts[0]) + 0.1
    assert compute_loss(toy, raised) <= compute_loss(toy, base)
