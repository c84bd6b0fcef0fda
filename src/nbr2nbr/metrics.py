"""PSNR and SSIM evaluation measures.

Both clamp inputs to [0, 1] first: scores are computed on the
displayable image, matching how 8-bit outputs are ranked in the
denoising literature, even though training tensors are unclamped.
SSIM uses the universal defaults (11x11 Gaussian window sigma=1.5,
K1=0.01, K2=0.03); color images are scored per channel and averaged.
"""

from __future__ import annotations

import math

import numpy as np

from .imaging import as_image

__all__ = ["psnr", "ssim", "evaluate_pairs", "format_psnr_ssim"]


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (peak 1); math.inf for identical inputs."""
    a = np.clip(as_image(a, dtype=np.float64), 0.0, 1.0)
    b = np.clip(as_image(b, dtype=np.float64), 0.0, 1.0)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_taps() -> np.ndarray:
    """1-D factor of the normalised 11-tap, sigma-1.5 Gaussian window (its outer square)."""
    r = np.arange(11, dtype=np.float64) - 5.0
    g = np.exp(-(r**2) / (2.0 * 1.5**2))
    return g / g.sum()


def _windowed_means(maps: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Valid-mode weighted local means over axes 1 and 2, one pass per axis."""
    for axis in (1, 2):
        m = np.moveaxis(maps, axis, 0)
        n = len(m) - len(taps) + 1
        maps = np.moveaxis(sum(t * m[i : i + n] for i, t in enumerate(taps)), 0, axis)
    return maps


# Output rows per SSIM strip: a strip's five float64 maps stay in L2 cache
# (1.7 MB at 768x3); passes over whole-image maps are 3-4x slower.
_SSIM_STRIP = 8


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local structural similarity (peak 1); 1.0 iff identical."""
    a = np.clip(as_image(a, dtype=np.float64), 0.0, 1.0)
    b = np.clip(as_image(b, dtype=np.float64), 0.0, 1.0)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if min(a.shape[0], a.shape[1]) < 11:
        raise ValueError("SSIM needs min dimension >= 11")
    taps = _gaussian_taps()
    k = len(taps)
    c1 = 0.01**2
    c2 = 0.03**2
    total = np.zeros(a.shape[2])
    for top in range(0, a.shape[0] - k + 1, _SSIM_STRIP):
        x, y = a[top : top + _SSIM_STRIP + k - 1], b[top : top + _SSIM_STRIP + k - 1]
        mx, my, mxx, myy, mxy = _windowed_means(np.stack([x, y, x * x, y * y, x * y]), taps)
        vx = mxx - mx * mx
        vy = myy - my * my
        cxy = mxy - mx * my
        s = ((2 * mx * my + c1) * (2 * cxy + c2)) / (
            (mx * mx + my * my + c1) * (vx + vy + c2)
        )
        total += s.sum(axis=(0, 1))
    return float(np.mean(total / ((a.shape[0] - k + 1) * (a.shape[1] - k + 1))))


def evaluate_pairs(pairs: list[tuple[str, np.ndarray, np.ndarray]]) -> tuple:
    """Score (name, reference, test) triples: (mean PSNR, mean SSIM, the
    per-image (name, psnr, ssim) rows)."""
    rows = [(name, psnr(ref, test), ssim(ref, test)) for name, ref, test in pairs]
    mean_psnr = float(np.mean([r[1] for r in rows]))
    mean_ssim = float(np.mean([r[2] for r in rows]))
    return mean_psnr, mean_ssim, rows


def format_psnr_ssim(psnr_db: float, ssim_val: float) -> str:
    """Table cell in the conventional '%.2f/%.3f' layout."""
    p = "inf" if math.isinf(psnr_db) else f"{psnr_db:.2f}"
    return f"{p}/{ssim_val:.3f}"
