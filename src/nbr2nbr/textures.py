"""Procedurally textured grayscale images for desk-scale experiments.

Real photo corpora are out of reach in a desk environment, so training
and evaluation use generated images with natural-image-like structure:
smooth shaded gradients, sinusoidal interference patterns, soft random
blobs, and piecewise-constant mosaics. All generators are deterministic
given their rng.
"""

from __future__ import annotations

import numpy as np


def _normalize(field: np.ndarray) -> np.ndarray:
    lo, hi = float(field.min()), float(field.max())
    if hi - lo < 1e-12:
        return np.full_like(field, 0.5)
    return (field - lo) / (hi - lo)


def _smooth(field: np.ndarray, passes: int) -> np.ndarray:
    # cheap separable blur: repeated 3-tap [1 2 1]/4
    for _ in range(passes):
        field = 0.25 * (np.roll(field, 1, 0) + np.roll(field, -1, 0) + 2 * field)
        field = 0.25 * (np.roll(field, 1, 1) + np.roll(field, -1, 1) + 2 * field)
    return field


def texture_image(size: int, rng: np.random.Generator) -> np.ndarray:
    """One size x size grayscale image mixing several structure types."""
    yy, xx = np.meshgrid(
        np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij"
    )
    field = np.zeros((size, size))

    # shaded gradient
    ang = rng.uniform(0, 2 * np.pi)
    field += rng.uniform(0.3, 1.0) * (np.cos(ang) * xx + np.sin(ang) * yy)

    # a few sinusoidal plaids
    for _ in range(rng.integers(1, 4)):
        fx, fy = rng.uniform(1, 6, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        field += rng.uniform(0.1, 0.5) * np.sin(
            2 * np.pi * (fx * xx + fy * yy) + phase
        )

    # soft blobs
    for _ in range(rng.integers(2, 6)):
        cx, cy = rng.uniform(0, 1, size=2)
        r = rng.uniform(0.05, 0.3)
        field += rng.uniform(-0.6, 0.6) * np.exp(
            -((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * r * r)
        )

    # occasional step edges from a smoothed threshold
    if rng.random() < 0.5:
        edge = _smooth(rng.standard_normal((size, size)), 6)
        field += rng.uniform(0.2, 0.5) * np.sign(edge)

    # low-pass random texture
    field += rng.uniform(0.1, 0.3) * _smooth(rng.standard_normal((size, size)), 8)

    return _normalize(field)[:, :, None].astype(np.float32)


def texture_set(count: int, size: int, seed: int) -> list[np.ndarray]:
    """Deterministic list of procedural grayscale images."""
    rng = np.random.default_rng(seed)
    return [texture_image(size, rng) for _ in range(count)]
