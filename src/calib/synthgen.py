"""Seeded synthetic calibration problems with controllable difficulty.

Geometry: E exemplar centers are drawn on the unit sphere in d dimensions.
Positives are spread-scaled Gaussian displacements of randomly chosen
centers; negatives are uniform background points on the sphere.  Classifier
j scores sample x as dot(center_j, x) plus Gaussian measurement noise, so
each classifier responds strongly to its own cluster, weakly to the rest.

Optionally, a fraction of the training positives is replaced by points
midway between two cluster centers, scaled down so no classifier sees them
clearly: covering them forces thresholds below background level, which is
what makes an instance hard (difficulty delta > 0).

Randomness comes from a counter-based SplitMix64 stream, fixed here so
identical specs give bit-identical problems and golden files stay portable:

    output(i) = mix(seed + (i+1) * 0x9E3779B97F4A7C15)   (mod 2^64)
    mix(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
             z ^= z >> 27;  z *= 0x94D049BB133111EB
             z ^= z >> 31

Reference outputs (counter 0,1,2,...):
    seed 0  -> 16294208416658607535, 7960286522194355700, 487617019471545679
    seed 1  -> 10451216379200822465, 13757245211066428519, 17911839290282890590
    seed 42 -> 13679457532755275413, 2949826092126892291, 5139283748462763858

Uniforms are (output >> 11) * 2^-53 in [0, 1); a zero uniform is clamped to
2^-53 before logs.  Normal i consumes uniforms (2i, 2i+1) via the Box-Muller
cosine branch:  sqrt(-2 ln u0) * cos(2 pi u1)  (the sine twin is discarded).
One generate() call consumes segments of the stream in a fixed order:
centers, positive cluster assignments, positive offsets, negatives, score
noise, planted pairs; segment lengths are functions of the spec alone.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .problem import Problem

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(2**64 - 1)

# Counter positions drawn per block; caps each draw's temporaries.
_BLOCK_DRAWS = 1 << 15


class CounterRng:
    """SplitMix64 evaluated at an advancing counter; see module docstring.

    Each call fills its output one block of _BLOCK_DRAWS counter positions
    at a time, so its temporaries stay a fixed size whatever n is; every
    output depends only on its own counter, so the block size changes no bit.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def _fill(self, n: int, draws: int, draw, dtype=np.float64) -> np.ndarray:
        """n outputs of draw(m), computed one block of at most _BLOCK_DRAWS
        counter positions at a time; each output takes ``draws`` of them."""
        out = np.empty(n, dtype=dtype)
        step = max(1, _BLOCK_DRAWS // draws)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            out[lo:hi] = draw(hi - lo)
        return out

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        z = (self.seed + idx * _GAMMA) & _U64
        z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _U64
        z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _U64
        return z ^ (z >> np.uint64(31))

    def _uniform(self, n: int) -> np.ndarray:
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def _normal(self, n: int) -> np.ndarray:
        u = self._uniform(2 * n)
        u0 = np.maximum(u[0::2], 2.0**-53)
        u1 = u[1::2]
        return np.sqrt(-2.0 * np.log(u0)) * np.cos(2.0 * math.pi * u1)

    def raw(self, n: int) -> np.ndarray:
        """Next n 64-bit outputs, as uint64."""
        return self._fill(n, 1, self._raw, np.uint64)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) with 53-bit resolution."""
        return self._fill(n, 1, self._uniform)

    def normal(self, n: int) -> np.ndarray:
        """n standard normals (two uniforms each, cosine Box-Muller)."""
        return self._fill(n, 2, self._normal)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n ints uniform over [0, bound) (floor of scaled uniforms)."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        return np.minimum(
            (self.uniform(n) * bound).astype(np.int64), bound - 1
        )


@dataclass(frozen=True)
class GenerateSpec:
    """Recipe for one synthetic train/test problem pair.

    num_positives / num_negatives are the *training* sizes; the held-out
    problem gets round(size * (1 - split_fraction) / split_fraction) samples
    drawn from the same distribution.  hardness_fraction of the training
    positives are replaced by between-cluster points scaled by
    hardness_scale (< 1 pushes them below the clusters' score level).
    """

    seed: int
    num_classifiers: int
    num_positives: int
    num_negatives: int
    dimensions: int = 16
    spread: float = 0.15
    noise: float = 0.05
    split_fraction: float = 0.5
    hardness_fraction: float = 0.0
    hardness_scale: float = 0.55

    def __post_init__(self):
        for name in ("seed", "num_classifiers", "num_positives", "num_negatives",
                     "dimensions"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidSpec(f"{name} must be an integer, got {value!r}")
        if self.num_classifiers < 1:
            raise InvalidSpec("num_classifiers must be >= 1")
        if self.num_positives < 1:
            raise InvalidSpec("num_positives must be >= 1")
        if self.num_negatives < 0:
            raise InvalidSpec("num_negatives must be >= 0")
        if self.dimensions < 1:
            raise InvalidSpec("dimensions must be >= 1")
        if self.spread < 0 or self.noise < 0:
            raise InvalidSpec("spread and noise must be nonnegative")
        if not 0.0 < self.split_fraction < 1.0:
            raise InvalidSpec("split_fraction must be in (0, 1)")
        if not 0.0 <= self.hardness_fraction <= 1.0:
            raise InvalidSpec("hardness_fraction must be in [0, 1]")
        if self.hardness_scale <= 0:
            raise InvalidSpec("hardness_scale must be positive")
        if self.hardness_fraction > 0 and self.num_classifiers < 2:
            raise InvalidSpec("planting hardness needs at least 2 classifiers")

    def test_count(self, train_count: int) -> int:
        f = self.split_fraction
        return int(round(train_count * (1.0 - f) / f))

    def planted_count(self) -> int:
        return math.ceil(self.hardness_fraction * self.num_positives)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row of m to unit length in place (zero rows stay zero)."""
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    m /= norms
    return m


def generate(spec: GenerateSpec) -> tuple[Problem, Problem]:
    """Deterministic (train, test) problem pair for one spec."""
    E, d = spec.num_classifiers, spec.dimensions
    p_train, n_train = spec.num_positives, spec.num_negatives
    p_test = spec.test_count(p_train)
    n_test = spec.test_count(n_train)
    if p_test < 1:
        raise InvalidSpec("split_fraction leaves the test problem without positives")
    p_all = p_train + p_test
    n_all = n_train + n_test
    M = p_all + n_all

    rng = CounterRng(spec.seed)
    centers = _unit_rows(rng.normal(E * d).reshape(E, d))
    assign = rng.integers(p_all, E)
    # One (M, d) array of samples, positives first.
    samples = np.empty((M, d))
    positives = samples[:p_all]
    positives[:] = centers[assign] + spec.spread * rng.normal(p_all * d).reshape(p_all, d)
    samples[p_all:] = _unit_rows(rng.normal(n_all * d).reshape(n_all, d))
    # The score noise comes next in the stream but is added to the scores
    # below, row block by row block; the planted pairs draw after it.
    noise_rng = copy.copy(rng)
    rng.counter += 2 * E * M

    k = spec.planted_count()
    if k > 0:
        first = rng.integers(k, E)
        second = rng.integers(k, E - 1)
        second = np.where(second >= first, second + 1, second)
        mid = _unit_rows(centers[first] + centers[second])
        positives[p_train - k: p_train] = spec.hardness_scale * mid

    scores = centers @ samples.T
    rows = max(1, _BLOCK_DRAWS // (2 * M))
    for lo in range(0, E, rows):
        hi = min(lo + rows, E)
        scores[lo:hi] += spec.noise * noise_rng.normal((hi - lo) * M).reshape(hi - lo, M)
    pos_scores, neg_scores = scores[:, :p_all], scores[:, p_all:]

    meta = {
        "generator": "planted-cluster",
        "seed": str(spec.seed),
        "dimensions": str(d),
        "spread": repr(spec.spread),
        "noise": repr(spec.noise),
        "split_fraction": repr(spec.split_fraction),
        "hardness_fraction": repr(spec.hardness_fraction),
        "hardness_scale": repr(spec.hardness_scale),
    }
    train = Problem(
        positive_scores=pos_scores[:, :p_train],
        negative_scores=neg_scores[:, :n_train],
        metadata=dict(meta, split="train"),
    )
    test = Problem(
        positive_scores=pos_scores[:, p_train:],
        negative_scores=neg_scores[:, n_train:],
        metadata=dict(meta, split="test"),
    )
    return train, test
