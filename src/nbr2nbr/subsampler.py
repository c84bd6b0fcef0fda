"""Pixel-pair sub-samplers that split one noisy image into two.

A sub-sampler partitions the image into the paper's 2x2 cells and picks
an ordered pair of in-cell coordinates per cell; gathering the first
coordinate of every cell yields one quarter-size image, the second
coordinate the other. The neighbor variant constrains each pair to be
4-adjacent (Manhattan distance 1); the fix-location variant replicates
a single randomly chosen coordinate pair into every cell.

An odd last row or column is dropped, never padded.
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
]

# The 8 ordered in-cell (row, col) pairs at Manhattan distance 1. A
# neighbour sampler's draw i maps to row i, so this order fixes its stream.
NEIGHBOR_PAIRS = np.array([
    ((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 1), (0, 0)), ((0, 1), (1, 1)),
    ((1, 0), (1, 1)), ((1, 0), (0, 0)), ((1, 1), (1, 0)), ((1, 1), (0, 1)),
], np.int64)


@dataclass(frozen=True)
class SubSampler:
    """Immutable per-cell coordinate pairs.

    pairs has shape (cells_h, cells_w, 2, 2): pairs[i, j, b] is the
    in-cell (row, col) gathered by branch b (0 or 1) for cell (i, j).
    """

    pairs: np.ndarray

    def __post_init__(self):
        if self.pairs.ndim != 4 or self.pairs.shape[2:] != (2, 2):
            raise ValueError(f"pairs shape {self.pairs.shape}, expected (cells_h, cells_w, 2, 2)")
        if self.pairs.min() < 0 or self.pairs.max() > 1:
            raise ValueError("in-cell coordinates out of range")


def _cells(h: int, w: int) -> tuple[int, int]:
    if h < 2 or w < 2:
        raise ValueError(f"image {h}x{w} smaller than one 2x2 cell")
    return h // 2, w // 2


def generate_neighbor_subsampler(h: int, w: int, rng: np.random.Generator) -> SubSampler:
    """Draw an independent uniform ordered neighbor pair for every cell."""
    idx = rng.integers(0, len(NEIGHBOR_PAIRS), size=_cells(h, w))
    return SubSampler(NEIGHBOR_PAIRS[idx])


def generate_fixlocation_subsampler(h: int, w: int, rng: np.random.Generator) -> SubSampler:
    """Draw one ordered pair of distinct in-cell locations (uniform,
    without replacement from the 4 candidates) and replicate it into
    every cell. The two locations need not be adjacent."""
    cells = _cells(h, w)
    flat = rng.choice(4, size=2, replace=False)
    pair = np.stack([flat // 2, flat % 2], axis=1)  # (2, 2) as (r, c)
    return SubSampler(np.broadcast_to(pair, cells + (2, 2)).copy())


def apply_subsampler(g: SubSampler, img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather the two sub-images selected by g from one image, or from
    each image of an (N, H, W, C) batch. Pure indexing, no
    interpolation; applying the same g to different images selects
    identical coordinates."""
    img = as_images(img)
    h, w = img.shape[-3:-1]
    cells_h, cells_w = g.pairs.shape[:2]
    if h < 2 * cells_h or w < 2 * cells_w:
        raise ValueError(f"image {h}x{w} too small for sampler geometry {cells_h}x{cells_w}")
    r0 = 2 * np.arange(cells_h)[:, None]  # the top-left pixel of each cell
    c0 = 2 * np.arange(cells_w)[None, :]
    g1, g2 = (img[..., r0 + g.pairs[..., b, 0], c0 + g.pairs[..., b, 1], :] for b in (0, 1))
    return g1, g2
