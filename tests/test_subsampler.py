import hashlib

import numpy as np
import pytest

from nbr2nbr.subsampler import (
    apply_subsampler,
    generate_fixlocation_subsampler,
    generate_neighbor_subsampler,
)


def manhattan(pairs):
    return np.abs(pairs[:, :, 0] - pairs[:, :, 1]).sum(axis=-1)


def test_geometry_256():
    g = generate_neighbor_subsampler(256, 256, np.random.default_rng(0))
    assert g.pairs.shape[:2] == (128, 128)
    assert np.all(manhattan(g.pairs) == 1)


def test_single_cell_uniform_over_8_ordered_pairs():
    # brute-force enumeration: a 2x2 cell has 8 ordered distance-1 pairs
    counts = {}
    n = 10_000
    for seed in range(n):
        g = generate_neighbor_subsampler(2, 2, np.random.default_rng(seed))
        key = tuple(g.pairs[0, 0].ravel())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 8
    # chi-square, 7 dof, alpha=0.001 critical value 24.32
    chi2 = sum((c - n / 8) ** 2 / (n / 8) for c in counts.values())
    assert chi2 < 24.32


def test_no_diagonal_pairs():
    rng = np.random.default_rng(1)
    total = 0
    while total < 100_000:
        g = generate_neighbor_subsampler(64, 64, rng)
        assert np.all(manhattan(g.pairs) == 1)
        total += g.pairs.shape[0] * g.pairs.shape[1]


def test_fixlocation_identical_across_cells():
    rng = np.random.default_rng(2)
    g = generate_fixlocation_subsampler(32, 32, rng)
    first = g.pairs[0, 0]
    assert np.all(g.pairs == first[None, None])
    assert not np.array_equal(first[0], first[1])


def test_fixlocation_diagonal_frequency():
    # 2 distinct draws from 4 locations: P(diagonal) = 4/12 = 1/3
    diag = 0
    n = 10_000
    for seed in range(n):
        g = generate_fixlocation_subsampler(4, 4, np.random.default_rng(seed))
        (r1, c1), (r2, c2) = g.pairs[0, 0]
        if abs(r1 - r2) + abs(c1 - c2) == 2:
            diag += 1
    p = diag / n
    se = np.sqrt((1 / 3) * (2 / 3) / n)
    assert abs(p - 1 / 3) < 4 * se


def test_apply_constant_image():
    g = generate_neighbor_subsampler(8, 8, np.random.default_rng(3))
    img = np.full((8, 8, 1), 0.7, dtype=np.float32)
    a, b = apply_subsampler(g, img)
    assert a.shape == b.shape == (4, 4, 1)
    assert np.all(a == 0.7) and np.all(b == 0.7)


def test_apply_matches_direct_index_oracle():
    # img[r, c] = 10r + c makes gathered values decodable
    img = (10 * np.arange(4)[:, None] + np.arange(4)[None, :]).astype(np.float32)
    img = img[:, :, None]
    g = generate_neighbor_subsampler(4, 4, np.random.default_rng(4))
    a, b = apply_subsampler(g, img)
    for i in range(2):
        for j in range(2):
            (r1, c1), (r2, c2) = g.pairs[i, j]
            assert a[i, j, 0] == img[2 * i + r1, 2 * j + c1, 0]
            assert b[i, j, 0] == img[2 * i + r2, 2 * j + c2, 0]


def test_same_sampler_same_coordinates_on_two_images():
    rng = np.random.default_rng(5)
    g = generate_neighbor_subsampler(8, 8, rng)
    x = rng.random((8, 8, 1)).astype(np.float32)
    marker = np.arange(64, dtype=np.float32).reshape(8, 8, 1)
    a1, b1 = apply_subsampler(g, marker)
    a2, b2 = apply_subsampler(g, marker)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)
    # coordinates decoded from marker image match those used on x
    ax, _ = apply_subsampler(g, x)
    rows, cols = (a1[:, :, 0] // 8).astype(int), (a1[:, :, 0] % 8).astype(int)
    np.testing.assert_array_equal(ax[:, :, 0], x[rows, cols, 0])


def test_edges_beyond_multiple_of_k_dropped():
    g = generate_neighbor_subsampler(7, 9, np.random.default_rng(6))
    assert g.pairs.shape[:2] == (3, 4)
    img = np.random.default_rng(7).random((7, 9, 1)).astype(np.float32)
    a, b = apply_subsampler(g, img)
    assert a.shape == (3, 4, 1)


def test_neighbor_stream_pinned():
    # recorded draws: a reordered pair table maps them to other pairs
    g = generate_neighbor_subsampler(4, 4, np.random.default_rng(0))
    assert g.pairs.tolist() == [[[[1, 1], [1, 0]], [[1, 0], [0, 0]]],
                                [[[1, 0], [1, 1]], [[0, 1], [0, 0]]]]


def test_fixlocation_stream_pinned():
    # recorded draw: a changed choice of the pair, or its (r, c) split, changes it
    g = generate_fixlocation_subsampler(8, 6, np.random.default_rng(3))
    assert hashlib.sha256(g.pairs.astype("<i8").tobytes()).hexdigest() == (
        "3b305e805f13b795c641f3a5a34697671b658f0eeab7cb57fa35ce093a62d5bb")


def test_determinism_given_seed():
    a = generate_neighbor_subsampler(16, 16, np.random.default_rng(42))
    b = generate_neighbor_subsampler(16, 16, np.random.default_rng(42))
    np.testing.assert_array_equal(a.pairs, b.pairs)


def test_too_small_image_raises():
    with pytest.raises(ValueError):
        generate_neighbor_subsampler(1, 8, np.random.default_rng(0))


def test_geometry_mismatch_raises():
    g = generate_neighbor_subsampler(8, 8, np.random.default_rng(0))
    with pytest.raises(ValueError):
        apply_subsampler(g, np.zeros((4, 4, 1), dtype=np.float32))


def test_conditional_independence_of_branch_noise():
    # disjoint coordinates -> cross-correlation of the two branch noises ~ 0
    rng = np.random.default_rng(8)
    x = np.full((64, 64, 1), 0.5, dtype=np.float32)
    n1, n2 = [], []
    for _ in range(200):
        y = x + rng.normal(0, 0.1, x.shape).astype(np.float32)
        g = generate_neighbor_subsampler(64, 64, rng)
        g1y, g2y = apply_subsampler(g, y)
        g1x, g2x = apply_subsampler(g, x)
        n1.append((g1y - g1x).ravel())
        n2.append((g2y - g2x).ravel())
    a = np.concatenate(n1).astype(np.float64)
    b = np.concatenate(n2).astype(np.float64)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3 / np.sqrt(a.size)


def test_batch_matches_per_item_calls():
    imgs = np.random.default_rng(10).random((3, 9, 10, 3)).astype(np.float32)
    g = generate_neighbor_subsampler(9, 10, np.random.default_rng(11))
    b1, b2 = apply_subsampler(g, imgs)
    assert b1.shape == b2.shape == (3, 4, 5, 3)
    for i, img in enumerate(imgs):
        s1, s2 = apply_subsampler(g, img)
        np.testing.assert_array_equal(b1[i], s1)
        np.testing.assert_array_equal(b2[i], s2)
