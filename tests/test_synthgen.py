"""Counter RNG reference vectors and generator determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from calib import CounterRng, GenerateSpec, InvalidSpec, generate, synthgen

# Reference outputs of the SplitMix64 mix at counters 1..3.  Independently
# derived from the published constants (gamma 0x9E3779B97F4A7C15, multipliers
# 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB, shifts 30/27/31).
RAW_VECTORS = {
    0: (16294208416658607535, 7960286522194355700, 487617019471545679),
    1: (10451216379200822465, 13757245211066428519, 17911839290282890590),
    42: (13679457532755275413, 2949826092126892291, 5139283748462763858),
}


@pytest.mark.parametrize("seed,expected", sorted(RAW_VECTORS.items()))
def test_raw_reference_vectors(seed, expected):
    assert CounterRng(seed).raw(3).tolist() == list(expected)


def test_raw_streaming_is_counter_based():
    a = CounterRng(7)
    b = CounterRng(7)
    whole = a.raw(6)
    parts = np.concatenate([b.raw(2), b.raw(1), b.raw(3)])
    assert np.array_equal(whole, parts)


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


@pytest.mark.parametrize("block", [1, 7])
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
