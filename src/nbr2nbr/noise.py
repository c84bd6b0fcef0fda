"""Synthetic noise models applied to clean images.

Four kinds: Gaussian with fixed or ranged sigma (quoted on the [0, 255]
intensity scale, divided by 255 internally) and Poisson with fixed or
ranged lam (quoted on the [0, 1] scale). Ranged kinds draw one level
uniformly per image and apply it to the whole image.

Noisy images are intentionally NOT clamped to [0, 1]: clamping would
bias the noise mean and break the zero-mean property the training
theory relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import as_images

__all__ = ["NoiseModel", "parse_noise_spec", "sample_level", "apply_noise"]

GAUSSIAN_FIXED = "gaussian-fixed"
GAUSSIAN_RANGE = "gaussian-range"
POISSON_FIXED = "poisson-fixed"
POISSON_RANGE = "poisson-range"

_KINDS = (GAUSSIAN_FIXED, GAUSSIAN_RANGE, POISSON_FIXED, POISSON_RANGE)


@dataclass(frozen=True)
class NoiseModel:
    """Tagged noise distribution: kind + level (param1) and, for ranged
    kinds, the upper bound (param2)."""

    kind: str
    param1: float
    param2: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind.startswith("gaussian") and not 0 <= self.param1 < np.inf:
            raise ValueError(f"gaussian sigma must be finite and >= 0, got {self.param1}")
        if self.kind.startswith("poisson") and not 0 < self.param1 < np.inf:
            raise ValueError(f"poisson lam must be finite and > 0, got {self.param1}")
        if self.kind.endswith("range") and not self.param1 <= self.param2 < np.inf:
            raise ValueError("ranged model needs finite param1 <= param2")

    @property
    def ranged(self) -> bool:
        return self.kind.endswith("range")

    @property
    def gaussian(self) -> bool:
        return self.kind.startswith("gaussian")


def parse_noise_spec(spec: str) -> NoiseModel:
    """Parse CLI noise strings: gauss25, gauss5_50, poisson30, poisson5_50.

    Grammar: kind + fixed level, or kind + lower_upper.
    """
    spec = spec.strip().lower()
    for prefix, fixed_kind, range_kind in (
        ("gauss", GAUSSIAN_FIXED, GAUSSIAN_RANGE),
        ("poisson", POISSON_FIXED, POISSON_RANGE),
    ):
        if spec.startswith(prefix):
            body = spec[len(prefix) :]
            try:
                if "_" in body:
                    lo, hi = body.split("_", 1)
                    return NoiseModel(range_kind, float(lo), float(hi))
                return NoiseModel(fixed_kind, float(body))
            except ValueError as exc:
                raise ValueError(f"bad noise spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad noise spec {spec!r} (want gaussN, gaussA_B, poissonN, poissonA_B)")


def sample_level(model: NoiseModel, rng: np.random.Generator) -> float:
    """Draw the noise level for one application of the model."""
    if model.ranged:
        return float(rng.uniform(model.param1, model.param2))
    return float(model.param1)


def apply_noise(
    x: np.ndarray, model: NoiseModel, rng: np.random.Generator
) -> np.ndarray:
    """Corrupt a clean [0,1] image, or each image of an (N, H, W, C)
    batch, with one freshly drawn noise level per image.

    A batch draws its N levels first and then all of its noise at once;
    for fixed levels that is the same stream as N single-image calls.

    Gaussian: y = x + N(0, (sigma/255)^2), unclamped.
    Poisson:  y = Poisson(lam * x) / lam per pixel.
    """
    x = as_images(x)
    shape = x.shape[:-3] + (1, 1, 1)  # one level per image
    if model.ranged:
        levels = rng.uniform(model.param1, model.param2, size=shape)
    else:
        levels = np.full(shape, float(model.param1))
    if model.gaussian:
        sigma = levels / 255.0
        if np.all(sigma == 0.0):
            return x.copy()
        return x + (rng.standard_normal(x.shape) * sigma).astype(np.float32)
    counts = rng.poisson(np.clip(x, 0.0, None) * levels.astype(np.float32))
    return (counts / levels).astype(np.float32)
