"""Synthetic noise models applied to clean images.

Two families, each at a fixed level or at a level drawn uniformly per
image from a range [level, upper] and applied to the whole image:
Gaussian with sigma quoted on the [0, 255] intensity scale (divided by
255 internally) and Poisson with lam quoted on the [0, 1] scale.

Noisy images are intentionally NOT clamped to [0, 1]: clamping would
bias the noise mean and break the zero-mean property the training
theory relies on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .imaging import as_images

__all__ = ["NoiseModel", "parse_noise_spec", "sample_level", "apply_noise"]


@dataclass(frozen=True)
class NoiseModel:
    """A noise family ("gaussian" or "poisson") at a fixed level (sigma
    or lam), or, when upper is set, at a level uniform in [level, upper]."""

    family: str
    level: float
    upper: float | None = None

    def __post_init__(self):
        if self.family not in ("gaussian", "poisson"):
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.family == "gaussian" and not 0 <= self.level < np.inf:
            raise ValueError(f"gaussian sigma must be finite and >= 0, got {self.level}")
        if self.family == "poisson" and not 0 < self.level < np.inf:
            raise ValueError(f"poisson lam must be finite and > 0, got {self.level}")
        if self.upper is not None and not self.level <= self.upper < np.inf:
            raise ValueError("ranged model needs finite level <= upper")

    @property
    def kind(self) -> str:
        return f"{self.family}-{'fixed' if self.upper is None else 'range'}"


def parse_noise_spec(spec: str) -> NoiseModel:
    """Parse CLI noise strings: gauss25, gauss5_50, poisson30, poisson5_50.
    Grammar: gauss or poisson, then a level or two levels joined by one
    '_'; a level is ASCII digits with an optional decimal part."""
    spec = spec.strip().lower()
    m = re.fullmatch(r"(gauss|poisson)(\d+(?:\.\d+)?)(?:_(\d+(?:\.\d+)?))?", spec, re.ASCII)
    if not m:
        raise ValueError(f"bad noise spec {spec!r} (want gaussN, gaussA_B, poissonN or "
                         "poissonA_B: digits, optional decimals, at most one '_')")
    try:
        return NoiseModel("gaussian" if m[1] == "gauss" else "poisson", float(m[2]),
                          m[3] and float(m[3]))
    except ValueError as exc:
        raise ValueError(f"bad noise spec {spec!r}: {exc}") from exc


def sample_level(model: NoiseModel, rng: np.random.Generator) -> float:
    """Draw the noise level for one application of the model."""
    if model.upper is None:
        return float(model.level)
    return float(rng.uniform(model.level, model.upper))


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
    if model.upper is None:
        levels = np.full(shape, float(model.level))
    else:
        levels = rng.uniform(model.level, model.upper, size=shape)
    if model.family == "gaussian":
        sigma = levels / 255.0
        if np.all(sigma == 0.0):
            return x.copy()
        return x + (rng.standard_normal(x.shape) * sigma).astype(np.float32)
    counts = rng.poisson(np.clip(x, 0.0, None) * levels.astype(np.float32))
    return (counts / levels).astype(np.float32)
