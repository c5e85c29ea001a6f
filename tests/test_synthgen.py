"""Counter RNG reference vectors and generator determinism."""

import copy
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from calib import CounterRng, GenerateSpec, InvalidSpec, generate, synthgen

# Reference outputs of the SplitMix64 mix at counters 0..2.  Independently
# derived from the published constants (gamma 0x9E3779B97F4A7C15, multipliers
# 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB, shifts 30/27/31).
RAW_VECTORS = {
    0: (16294208416658607535, 7960286522194355700, 487617019471545679),
    1: (10451216379200822465, 13757245211066428519, 17911839290282890590),
    42: (13679457532755275413, 2949826092126892291, 5139283748462763858),
}


@pytest.mark.parametrize("seed,expected", sorted(RAW_VECTORS.items()))
def test_raw_reference_vectors(seed, expected):
    counters = np.arange(1, 4, dtype=np.uint64) * synthgen._GAMMA + np.uint64(seed)
    assert synthgen._mix(counters).tolist() == list(expected)


def test_raw_streaming_is_counter_based():
    # The raw words, seen through their uniforms, do not depend on how the
    # draws split the stream.
    whole = CounterRng(7).uniform(6)
    b = CounterRng(7)
    parts = np.concatenate([b.uniform(2), b.uniform(1), b.uniform(3)])
    assert whole.tobytes() == parts.tobytes()
    assert whole.tolist() == [unit(splitmix64(7, i)) for i in range(6)]


def test_uniform_derivation_and_range():
    u = CounterRng(0).uniform(3)
    assert u[0] == (RAW_VECTORS[0][0] >> 11) * 2.0**-53
    big = CounterRng(123).uniform(20_000)
    assert (big >= 0.0).all() and (big < 1.0).all()
    assert abs(big.mean() - 0.5) < 0.01


def test_normal_derivation():
    # normal i consumes uniforms (2i, 2i+1); the sine twin is discarded
    u = CounterRng(42).uniform(4)
    z = CounterRng(42).normal(2)
    expect0 = math.sqrt(-2.0 * math.log(max(u[0], 2.0**-53))) * math.cos(
        2.0 * math.pi * u[1]
    )
    expect1 = math.sqrt(-2.0 * math.log(max(u[2], 2.0**-53))) * math.cos(
        2.0 * math.pi * u[3]
    )
    assert z.tolist() == [expect0, expect1]


def test_normal_moments():
    z = CounterRng(5).normal(50_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_integers_bounds():
    v = CounterRng(9).integers(10_000, 7)
    assert v.min() >= 0 and v.max() <= 6
    assert set(np.unique(v)) == set(range(7))


BASE = GenerateSpec(
    seed=11, num_classifiers=4, num_positives=6, num_negatives=20, dimensions=5
)


def test_generate_shapes_and_split():
    train, test = generate(BASE)
    assert train.positive_scores.shape == (4, 6)
    assert train.negative_scores.shape == (4, 20)
    # split 0.5: held-out problem mirrors the training sizes
    assert test.positive_scores.shape == (4, 6)
    assert test.negative_scores.shape == (4, 20)
    assert train.metadata["split"] == "train"
    assert test.metadata["split"] == "test"
    assert train.metadata["seed"] == "11"

    third = replace(BASE, split_fraction=0.75)
    tr, te = generate(third)
    assert tr.positive_scores.shape == (4, 6)
    assert te.positive_scores.shape == (4, 2)  # round(6 * 0.25 / 0.75)


def test_generate_deterministic():
    a_train, a_test = generate(BASE)
    b_train, b_test = generate(BASE)
    assert np.array_equal(a_train.positive_scores, b_train.positive_scores)
    assert np.array_equal(a_train.negative_scores, b_train.negative_scores)
    assert np.array_equal(a_test.positive_scores, b_test.positive_scores)
    assert np.array_equal(a_test.negative_scores, b_test.negative_scores)


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_generate_does_not_depend_on_block_size(monkeypatch, block):
    spec = replace(BASE, hardness_fraction=0.5)  # every stream segment drawn
    whole = generate(spec)
    monkeypatch.setattr(synthgen, "_BLOCK_DRAWS", block)
    blocked = generate(spec)
    for a, b in zip(whole, blocked):
        assert a.positive_scores.tobytes() == b.positive_scores.tobytes()
        assert a.negative_scores.tobytes() == b.negative_scores.tobytes()


def test_generate_seed_changes_output():
    a, _ = generate(BASE)
    b, _ = generate(replace(BASE, seed=12))
    assert not np.array_equal(a.positive_scores, b.positive_scores)


def test_planting_touches_only_the_tail():
    plain, _ = generate(BASE)
    planted, _ = generate(replace(BASE, hardness_fraction=0.5))
    k = replace(BASE, hardness_fraction=0.5).planted_count()
    assert k == 3
    # untouched training positives are bit-identical: planted pairs draw last
    assert np.array_equal(
        plain.positive_scores[:, : 6 - k], planted.positive_scores[:, : 6 - k]
    )
    assert not np.array_equal(
        plain.positive_scores[:, 6 - k :], planted.positive_scores[:, 6 - k :]
    )
    assert np.array_equal(plain.negative_scores, planted.negative_scores)


def test_planted_positives_are_harder():
    spec = GenerateSpec(
        seed=3,
        num_classifiers=8,
        num_positives=40,
        num_negatives=100,
        dimensions=10,
        noise=0.05,
        hardness_fraction=0.25,
        hardness_scale=0.6,
    )
    train, _ = generate(spec)
    k = spec.planted_count()
    best = train.positive_scores.max(axis=0)
    # between-cluster points scaled below the shell score lower on their
    # best classifier than ordinary cluster samples
    assert best[-k:].mean() < best[:-k].mean()


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        GenerateSpec(seed=0, num_classifiers=0, num_positives=2, num_negatives=2)
    with pytest.raises(InvalidSpec):
        GenerateSpec(seed=0, num_classifiers=2, num_positives=0, num_negatives=2)
    with pytest.raises(InvalidSpec):
        GenerateSpec(
            seed=0, num_classifiers=2, num_positives=2, num_negatives=2,
            split_fraction=1.0,
        )
    with pytest.raises(InvalidSpec):
        GenerateSpec(
            seed=0, num_classifiers=1, num_positives=2, num_negatives=2,
            hardness_fraction=0.5,
        )
    for bad in ({"seed": True}, {"seed": 1.5}, {"dimensions": 2.0}):
        with pytest.raises(InvalidSpec):
            replace(BASE, **bad)
    with pytest.raises(InvalidSpec):
        # a split this lopsided leaves no test positives
        generate(replace(BASE, num_positives=1, split_fraction=0.99))


@pytest.mark.parametrize("bad", [
    {"split_fraction": 5e-324},  # the held-out counts overflow to infinity
    {"split_fraction": 1e-300},  # finite, but past numpy's largest array
    {"dimensions": 2**61},  # the samples array, not the scores, is too large
])
def test_spec_too_large_for_an_array_is_invalid(bad):
    small = replace(BASE, seed=1, num_classifiers=2, num_positives=2, num_negatives=3)
    with pytest.raises(InvalidSpec):
        replace(small, **bad)


# sha256 of the four matrices (train positives, train negatives, held-out
# positives, held-out negatives) as generated by the per-draw-block stream
# that preceded whole-stream blocks.  E30_SPEC's stream runs over several
# blocks; SMALL_SPEC (a fuzz-small recipe) draws every segment, planted
# pairs included, within one.
E30_SPEC = GenerateSpec(seed=1, num_classifiers=30, num_positives=60, num_negatives=1500,
                        dimensions=10, noise=0.15, spread=0.25,
                        hardness_fraction=0.2, hardness_scale=0.65)
SMALL_SPEC = GenerateSpec(seed=5, num_classifiers=4, num_positives=7, num_negatives=27,
                          dimensions=8, spread=0.38273508513311516,
                          noise=0.2719695724219792, hardness_fraction=0.5,
                          hardness_scale=0.5572513070709038)
PINNED_DIGESTS = {
    E30_SPEC: (
        "89907f288b03e82649ed297bc7f8b33b2587ea9d2213b7b70c21ad80750aeef7",
        "75e50e3af0802228beeecd913c401c2e8f553c7f4501f87ba5bafb2e53bde839",
        "5b6400c2477ab1c98bcaf5b48f09e58c55f515b5ac80213b6d0c197db7fc6f9b",
        "0ae4579d01b1e45842c5738989047177395299377953d406974b19a49c201cfd",
    ),
    SMALL_SPEC: (
        "15fc8a5ead40c446add4dd555a4bb8cd0bc42c0e9af21abbfeb8a5e1bd5ca36c",
        "f00d69682e40f3743ccfe6acfe674cb9510a46a1d8b90c084daf12778b4d83c5",
        "e0f374fd136cc6501e8c5643f3b5e403bcd770240640238a14d79d33f457ae0c",
        "767131a16b51dabb4343523d06068d638f1fd05aee0c3a2b549066ce20e7584d",
    ),
}


@pytest.mark.parametrize("spec", list(PINNED_DIGESTS), ids=["e30", "small"])
def test_generate_matches_pinned_digests(spec):
    train, test = generate(spec)
    got = tuple(hashlib.sha256(m.tobytes()).hexdigest() for m in (
        train.positive_scores, train.negative_scores,
        test.positive_scores, test.negative_scores))
    assert got == PINNED_DIGESTS[spec]


def test_generate_evaluates_the_mix_once_for_a_small_spec(monkeypatch):
    calls = []

    def counting_mix(z):
        calls.append(len(z))
        return mix(z)

    mix = synthgen._mix
    monkeypatch.setattr(synthgen, "_mix", counting_mix)
    generate(SMALL_SPEC)
    # One block spans the whole stream, planted pairs included: 2*E*d
    # center, P' assignment, 2*M*d sample, 2*E*M noise and 2*k planted
    # counters (E=4, d=8, P'=14, M=68, k=4).
    assert calls == [64 + 14 + 1088 + 544 + 8]


# Stream-length RNGs below run over blocks of 8 counters; each draw is
# checked against the module docstring's formula in Python integers.
STREAM = 30


def splitmix64(seed, counter):
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def unit(word):
    """The uniform the module docstring derives from one 64-bit output."""
    return (word >> 11) * 2.0**-53


@pytest.fixture
def reference():
    return [unit(splitmix64(3, i)) for i in range(STREAM)]


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(synthgen, "_BLOCK_DRAWS", 8)


def test_draw_straddling_a_block_end_continues_the_stream(reference, small_blocks):
    rng = CounterRng(3, STREAM)
    assert rng.uniform(5).tolist() == reference[:5]
    assert rng.uniform(6).tolist() == reference[5:11]  # crosses counter 8
    assert rng.uniform(19).tolist() == reference[11:]  # two more blocks
    u = CounterRng(3, STREAM)
    u.counter = 7
    assert u.uniform(3).tolist() == reference[7:10]


def test_counter_skip_past_the_block(reference, small_blocks):
    rng = CounterRng(3, STREAM)
    rng.uniform(2)
    rng.counter += 10  # beyond the block holding counters 0..7
    assert rng.uniform(4).tolist() == reference[12:16]
    rng.counter = 1  # back into a block no longer held
    assert rng.uniform(3).tolist() == reference[1:4]
    rng.counter = 5  # rewind within the block just drawn from
    assert rng.uniform(2).tolist() == reference[5:7]


def test_copy_of_a_buffered_rng_draws_independently(reference, small_blocks):
    rng = CounterRng(3, STREAM)
    first = rng.uniform(3)
    twin = copy.copy(rng)
    first[:] = 0  # a draw is the caller's own array, not the shared block
    twin.counter = 0  # rewind within the block both hold
    assert twin.uniform(3).tolist() == reference[:3]
    assert rng.uniform(10).tolist() == reference[3:13]
    assert twin.uniform(10).tolist() == reference[3:13]
    twin.counter += 5
    assert twin.uniform(2).tolist() == reference[18:20]
    assert rng.uniform(2).tolist() == reference[13:15]


@pytest.mark.parametrize("field", ["spread", "noise", "hardness_scale"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_a_non_finite_float(field, value):
    with pytest.raises(InvalidSpec, match=f"^{field} must be finite"):
        replace(BASE, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("spread", 1e308), ("spread", 1e300), ("noise", 1e308), ("hardness_scale", 1e302),
])
def test_spec_rejects_a_float_that_overflows_the_scores(field, value):
    with pytest.raises(InvalidSpec, match=f"^{field} .* would overflow"):
        replace(BASE, **{field: value})


def test_largest_accepted_floats_give_finite_scores():
    # Each part just under its bound: the scores stay finite, with no numpy
    # warning (Tier-1 turns warnings into errors).
    top = 0.999 * synthgen._MAX_SCORE_PART
    spec = replace(BASE, hardness_fraction=0.5,
                   spread=top / synthgen._MAX_NORMAL / math.sqrt(5),
                   noise=top / synthgen._MAX_NORMAL, hardness_scale=top)
    for problem in generate(spec):
        assert np.isfinite(problem.positive_scores).all()
        assert np.isfinite(problem.negative_scores).all()
