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

Block draws: as the stream length is known up front, generate() passes it to
CounterRng, which evaluates the uniforms over min(_BLOCK_DRAWS, rest of the
stream) counters at a time and serves every draw as a slice of that block, so
a small spec's whole stream is one mix evaluation.  generate() draws from one
CounterRng: it skips the score noise, draws the planted pairs, then sets the
counter back to the noise segment.  Each output depends only on its counter,
so neither the blocks nor the rewind change a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .problem import Problem

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Counter positions evaluated per block; caps each draw's temporaries.
_BLOCK_DRAWS = 1 << 15
# The most float64s one numpy array can hold: its byte size must fit an intp.
_MAX_FLOAT64S = np.iinfo(np.intp).max // 8
# No normal exceeds this in magnitude, as uniforms are clamped to >= 2^-53.
_MAX_NORMAL = math.sqrt(-2.0 * math.log(2.0**-53))
# The largest part of a score a spec may scale up to: sums of three such
# parts, and their rounding, stay far below float64's 2^1024.
_MAX_SCORE_PART = 2.0**1000


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser, in place; uint64 arithmetic wraps mod 2^64."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class CounterRng:
    """SplitMix64 evaluated at an advancing counter; see module docstring.

    Uniforms are evaluated one block of at most _BLOCK_DRAWS counter
    positions at a time, and every draw slices the current block, running on
    into the next one past its end, so temporaries stay a fixed size whatever
    n is.  A block spans the rest of the ``length`` counters the owner means
    to draw (capped at _BLOCK_DRAWS); with no length it spans the draw at
    hand.  Every output depends only on its own counter, so neither the block
    size nor ``length`` changes a bit, and moving ``counter`` skips or
    rewinds: a counter still in the current block is served from it, any
    other starts a new block.
    """

    def __init__(self, seed: int, length: int = 0):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0
        self.length = length
        # Uniforms at counter positions start+1 .. start+len(units).
        self._start = 0
        self._units = np.empty(0)

    def _take(self, n: int) -> np.ndarray:
        """The next n uniforms: a view of the current block when it holds
        them all, else a new array."""
        pieces = []
        while n:
            i = self.counter - self._start
            if not 0 <= i < len(self._units):
                size = min(_BLOCK_DRAWS, max(n, self.length - self.counter))
                idx = np.arange(self.counter + 1, self.counter + size + 1, dtype=np.uint64)
                idx *= _GAMMA
                idx += self.seed
                self._start = self.counter
                self._units = (_mix(idx) >> np.uint64(11)).astype(np.float64)
                self._units *= 2.0**-53
                i = 0
            piece = self._units[i:i + n]
            pieces.append(piece)
            self.counter += len(piece)
            n -= len(piece)
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def _fill(self, n: int, draws: int, draw) -> np.ndarray:
        """n outputs of draw(m), taken at most _BLOCK_DRAWS counter positions
        at a time; each output takes ``draws`` of them."""
        out = np.empty(n)
        step = max(1, _BLOCK_DRAWS // draws)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            out[lo:hi] = draw(hi - lo)
        return out

    def _normal(self, n: int) -> np.ndarray:
        u = self._take(2 * n)
        u0 = np.maximum(u[0::2], 2.0**-53)
        return np.sqrt(-2.0 * np.log(u0)) * np.cos(2.0 * math.pi * u[1::2])

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) with 53-bit resolution."""
        return self._fill(n, 1, self._take)

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
        for name in ("spread", "noise", "hardness_scale"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpec(f"{name} must be finite, got {getattr(self, name)!r}")
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
        try:
            samples = (self.num_positives + self.test_count(self.num_positives)
                       + self.num_negatives + self.test_count(self.num_negatives))
        except OverflowError:
            raise InvalidSpec(f"split_fraction {self.split_fraction!r} makes the "
                              "held-out counts infinite") from None
        # generate() holds an E x M array of scores and an M x d one of samples.
        if samples * max(self.num_classifiers, self.dimensions) > _MAX_FLOAT64S:
            raise InvalidSpec("the train and held-out problems hold too many samples "
                              "for one float64 array")
        # A score is center . sample + noise * normal, with |center| = 1 and
        # |sample| at most 1 + spread * _MAX_NORMAL * sqrt(d) (hardness_scale
        # for a planted positive), so bounding these parts keeps it finite.
        for name, part in (
            ("spread", self.spread * _MAX_NORMAL * math.sqrt(self.dimensions)),
            ("noise", self.noise * _MAX_NORMAL),
            ("hardness_scale", self.hardness_scale),
        ):
            if part > _MAX_SCORE_PART:
                raise InvalidSpec(f"{name} {getattr(self, name)!r} would overflow "
                                  "the float64 scores")

    def test_count(self, train_count: int) -> int:
        f = self.split_fraction
        return int(round(train_count * (1.0 - f) / f))

    def planted_count(self) -> int:
        return math.ceil(self.hardness_fraction * self.num_positives)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row of m to unit length in place (zero rows stay zero)."""
    # The bits np.linalg.norm(m, axis=1) gives, without its dispatch.
    norms = np.sqrt(np.add.reduce(m * m, axis=1, keepdims=True))
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

    k = spec.planted_count()
    # Stream: centers, assignments, samples, score noise, planted pairs.
    rng = CounterRng(spec.seed, 2 * E * d + p_all + 2 * M * d + 2 * E * M + 2 * k)
    centers = _unit_rows(rng.normal(E * d).reshape(E, d))
    assign = rng.integers(p_all, E)
    # One (M, d) array of samples, positives first.
    samples = np.empty((M, d))
    positives = samples[:p_all]
    positives[:] = centers[assign] + spec.spread * rng.normal(p_all * d).reshape(p_all, d)
    samples[p_all:] = _unit_rows(rng.normal(n_all * d).reshape(n_all, d))
    # The score noise comes next in the stream but is added to the scores
    # below, row block by row block, after the planted pairs that follow it.
    noise_at = rng.counter
    rng.counter += 2 * E * M

    if k > 0:
        first = rng.integers(k, E)
        second = rng.integers(k, E - 1)
        second = np.where(second >= first, second + 1, second)
        mid = _unit_rows(centers[first] + centers[second])
        positives[p_train - k: p_train] = spec.hardness_scale * mid

    scores = centers @ samples.T
    # Peak memory: drop the samples before the noise is added and Problem
    # copies the four score slices.
    del samples, positives
    rng.counter = noise_at
    rows = max(1, _BLOCK_DRAWS // (2 * M))
    for lo in range(0, E, rows):
        hi = min(lo + rows, E)
        scores[lo:hi] += spec.noise * rng.normal((hi - lo) * M).reshape(hi - lo, M)
    del rng
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
