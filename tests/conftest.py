"""Shared fixtures: hand-checked toy problems and the seeded small-instance recipe."""

import itertools
import random
import re

import numpy as np
import pytest

from calib import GenerateSpec, Problem, check_feasible, compute_loss, generate


def toy_two_by_two() -> Problem:
    """Two classifiers, two positives, three negatives; optimum loss 2.

    Worked by hand: classifier 0 has candidates (7.0, 3.5, 1.25) conceding
    (0, 1, 2) negatives, classifier 1 has (4.2, 2.75, -0.25) conceding
    (0, 1, 2). No single-negative pair covers both positives.
    """
    return Problem(
        positive_scores=np.array([[5.0, 1.5], [0.5, 3.0]]),
        negative_scores=np.array([[6.0, 2.0, 1.0], [2.5, -1.0, 3.2]]),
    )


def toy_free_cover() -> Problem:
    """Both positives sit above every negative; loss 0 at the root config."""
    return Problem(
        positive_scores=np.array([[5.0, 4.5], [3.0, 2.8]]),
        negative_scores=np.array([[4.0, 2.0, 1.0], [2.5, 1.0, -1.0]]),
    )


def candidates(grid, j: int) -> tuple[float, ...]:
    """Classifier j's candidate thresholds, tightest first, without padding."""
    return tuple(grid.thresholds[j, : grid.lengths[j]].tolist())


def small_spec(seed: int) -> GenerateSpec:
    """Seeded small-instance recipe used by the fuzz and oracle suites.

    E in [2,5], P in [2,7], N in [5,40]; sizes small enough that the oracle
    grid stays under a few thousand cells per instance.
    """
    rng = random.Random(seed)
    return GenerateSpec(
        seed=seed,
        num_classifiers=rng.randint(2, 5),
        num_positives=rng.randint(2, 7),
        num_negatives=rng.randint(5, 40),
        dimensions=rng.randint(3, 8),
        spread=rng.uniform(0.1, 0.4),
        noise=rng.uniform(0.05, 0.35),
        hardness_fraction=rng.choice([0.0, 0.25, 0.5]),
        hardness_scale=rng.uniform(0.55, 0.8),
    )


def small_problem(seed: int) -> Problem:
    train, _ = generate(small_spec(seed))
    return train


def tie_heavy_problem(seed: int) -> Problem:
    """Small problem with integer scores in 0..4, so sibling increments tie.

    Odd seeds copy classifier 0 into rows 1 and 2: those siblings cover equal
    sets, while other tied siblings cover distinct ones.
    """
    rng = random.Random(seed)
    E, P, N = rng.randint(3, 6), rng.randint(2, 6), rng.randint(4, 12)

    def scores(n):
        return [[float(rng.randint(0, 4)) for _ in range(n)] for _ in range(E)]

    pos, neg = np.array(scores(P)), np.array(scores(N))
    if seed % 2:
        pos[1:3], neg[1:3] = pos[0], neg[0]
    return Problem(positive_scores=pos, negative_scores=neg)


def dense_sweep_optimum(problem: Problem) -> int:
    """Brute-force optimum over every distinct threshold behaviour.

    Independent reference for candidate-grid sufficiency: a threshold
    anywhere in [v_k, v_k+1) between distinct scores scores the same samples
    positive as one at v_k, and one below every score scores all of them
    positive, like -inf.  So the distinct scores and -inf are every
    behaviour, with no arithmetic that huge or adjacent floats could break.
    """
    grids = [
        [-np.inf, *np.unique(np.concatenate([problem.positive_scores[j],
                                             problem.negative_scores[j]]))]
        for j in range(problem.num_classifiers)
    ]
    return min(
        compute_loss(problem, combo)
        for combo in itertools.product(*grids)
        if check_feasible(problem, combo)
    )


@pytest.fixture
def toy():
    return toy_two_by_two()


@pytest.fixture
def toy_free():
    return toy_free_cover()


def problem_text(count="1", score="0.5", extra="") -> str:
    """A one-classifier problem file (P=1, N=1) with raw JSON text spliced in."""
    return ('{"version": 1, "num_classifiers": %s, "positive_scores": [[%s]], '
            '"negative_scores": [[0.1]]%s}' % (count, score, extra))


# Problem files outside RFC 8259 JSON in UTF-8, by case: the file's text
# and what its ParseError says.
NOT_RFC_8259 = {
    "nan": (problem_text(score="NaN"), "not valid JSON"),
    "infinity": (problem_text(score="-Infinity"), "not valid JSON"),
    "overflow": (problem_text(score="1e400"), "infinity"),
    # Past 64 bits an integer literal reads as a float.
    "30-digit-count": (problem_text(count="1" * 30),
                       re.escape(f"num_classifiers must be an integer, got {float('1' * 30)!r}")),
    "bom": ("\ufeff" + problem_text(), "byte order mark"),
    "lone-surrogate": (problem_text(extra=', "positive_ids": ["\\ud800"]'), "surrogate"),
}
