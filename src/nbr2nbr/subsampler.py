"""Pixel-pair sub-samplers that split one noisy image into two.

A sub-sampler partitions the image into k x k cells (k=2 by default)
and picks an ordered pair of in-cell coordinates per cell; gathering
the first coordinate of every cell yields one quarter-size image, the
second coordinate the other. The neighbor variant constrains each pair
to be 4-adjacent (Manhattan distance 1); the fix-location variant
replicates a single randomly chosen coordinate pair into every cell.

Rows/columns beyond k*floor(dim/k) are dropped, never padded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import as_images

__all__ = [
    "SubSampler",
    "generate_neighbor_subsampler",
    "generate_fixlocation_subsampler",
    "apply_subsampler",
    "dump_subsampler",
]


@dataclass(frozen=True)
class SubSampler:
    """Immutable per-cell coordinate pairs.

    pairs has shape (cells_h, cells_w, 2, 2): pairs[i, j, b] is the
    in-cell (row, col) gathered by branch b (0 or 1) for cell (i, j).
    """

    k: int
    cells_h: int
    cells_w: int
    pairs: np.ndarray

    def __post_init__(self):
        expect = (self.cells_h, self.cells_w, 2, 2)
        if self.pairs.shape != expect:
            raise ValueError(f"pairs shape {self.pairs.shape}, expected {expect}")
        if self.pairs.min() < 0 or self.pairs.max() >= self.k:
            raise ValueError("in-cell coordinates out of range")


def _check_geometry(h: int, w: int, k: int) -> tuple[int, int]:
    if k < 2:
        raise ValueError("cell size k must be >= 2")
    if h < k or w < k:
        raise ValueError(f"image {h}x{w} smaller than one {k}x{k} cell")
    return h // k, w // k


def _ordered_neighbor_pairs(k: int) -> np.ndarray:
    """All ordered in-cell coordinate pairs at Manhattan distance 1.

    For k=2 there are exactly 8 of them.
    """
    pairs = []
    for r1 in range(k):
        for c1 in range(k):
            for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                r2, c2 = r1 + dr, c1 + dc
                if 0 <= r2 < k and 0 <= c2 < k:
                    pairs.append(((r1, c1), (r2, c2)))
    return np.array(pairs, dtype=np.int64)


def generate_neighbor_subsampler(
    h: int, w: int, k: int, rng: np.random.Generator
) -> SubSampler:
    """Draw an independent uniform ordered neighbor pair for every cell."""
    cells_h, cells_w = _check_geometry(h, w, k)
    table = _ordered_neighbor_pairs(k)
    idx = rng.integers(0, len(table), size=(cells_h, cells_w))
    return SubSampler(k, cells_h, cells_w, table[idx])


def generate_fixlocation_subsampler(
    h: int, w: int, k: int, rng: np.random.Generator
) -> SubSampler:
    """Draw one ordered pair of distinct in-cell locations (uniform,
    without replacement from the k^2 candidates) and replicate it into
    every cell. The two locations need not be adjacent."""
    cells_h, cells_w = _check_geometry(h, w, k)
    flat = rng.choice(k * k, size=2, replace=False)
    pair = np.stack([flat // k, flat % k], axis=1)  # (2, 2) as (r, c)
    pairs = np.broadcast_to(pair, (cells_h, cells_w, 2, 2)).copy()
    return SubSampler(k, cells_h, cells_w, pairs)


def apply_subsampler(g: SubSampler, img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather the two sub-images selected by g from one image, or from
    each image of an (N, H, W, C) batch. Pure indexing, no
    interpolation; applying the same g to different images selects
    identical coordinates."""
    img = as_images(img)
    h, w = img.shape[-3:-1]
    if h < g.cells_h * g.k or w < g.cells_w * g.k:
        raise ValueError(
            f"image {h}x{w} too small for sampler geometry "
            f"{g.cells_h}x{g.cells_w} cells of size {g.k}"
        )
    base_r = g.k * np.arange(g.cells_h)[:, None]
    base_c = g.k * np.arange(g.cells_w)[None, :]
    outs = []
    for b in range(2):
        rows = base_r + g.pairs[:, :, b, 0]
        cols = base_c + g.pairs[:, :, b, 1]
        outs.append(img[..., rows, cols, :])
    return outs[0], outs[1]


def dump_subsampler(g: SubSampler) -> str:
    """Text form: one line per cell, 'i j r1 c1 r2 c2'."""
    lines = []
    for i in range(g.cells_h):
        for j in range(g.cells_w):
            (r1, c1), (r2, c2) = g.pairs[i, j]
            lines.append(f"{i} {j} {r1} {c1} {r2} {c2}")
    return "\n".join(lines) + "\n"
