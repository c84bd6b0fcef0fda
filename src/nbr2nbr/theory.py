"""Monte-Carlo checks of the identities behind the training objective.

Two checks ground the method numerically:

1. The bias identity for training on paired observations whose clean
   contents differ by a mean shift eps:

       E||f(y) - x||^2 = E||f(y) - z||^2 - sigma_z^2
                         + 2 eps . E(f(y) - x)

   where sigma_z^2 is read as the second moment of z about x,
   E||z - x||^2 (NOT the variance about the shifted mean x + eps; the
   literal "variance" reading fails the identity by exactly eps^2).

2. The ideal-denoiser constraint: with the oracle f*(y) = x and
   f*(g_l(y)) = g_l(x), the expectation of
   f*(g1(y)) - g2(y) - (g1(f*(y)) - g2(f*(y))) is exactly zero.

Every check reports its estimates with Monte-Carlo standard errors
and passes at the 3-standard-error level; the per-pixel constraint
verdict is family-wise (Sidak), about 4.41 se for 256 pixels. One
chunked driver runs every check on batches from apply_noise and
apply_subsampler, with per-trial values and accumulation in float64.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .imaging import as_image
from .noise import NoiseModel, apply_noise
from .subsampler import SubSampler, apply_subsampler, generate_neighbor_subsampler


# -- simple analytic denoisers for scenario checks --------------------------
# Plain functions from a noisy image to a clean estimate, labelled by __name__


def identity(y: np.ndarray) -> np.ndarray:
    return y


def constant_denoiser(c: float) -> Callable[[np.ndarray], np.ndarray]:
    def constant(y: np.ndarray) -> np.ndarray:
        return np.full_like(y, c)

    return constant


def oracle_denoiser(x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """f(y) = x for each image of a batch. It fits full-size inputs
    only: a sub-image still maps to x, of the wrong shape. The oracle
    of verify_constraint is its default, denoiser=None."""
    x = np.asarray(x, dtype=np.float64)

    def oracle(y: np.ndarray) -> np.ndarray:
        return np.broadcast_to(x, y.shape[: -x.ndim] + x.shape).copy()

    return oracle


def blur3(y: np.ndarray) -> np.ndarray:
    """3x3 box blur with reflect padding; a crude but nontrivial denoiser."""
    # y is (h, w, c) or batched (..., h, w, c)
    pad = [(0, 0)] * y.ndim
    pad[-3] = pad[-2] = (1, 1)
    yp = np.pad(y, pad, mode="reflect")
    out = np.zeros_like(y, dtype=np.float64)
    h, w = y.shape[-3:-1]
    for dy in range(3):
        for dx in range(3):
            out += yp[..., dy : dy + h, dx : dx + w, :]
    return out / 9


# -- bias identity ----------------------------------------------------------


@dataclass(frozen=True)
class TheoremScenario:
    """Ground truth x, noise models for the two observations, the mean
    shift eps applied to the second one, and the denoiser under test."""

    x: np.ndarray
    noise_y: NoiseModel
    noise_z: NoiseModel
    epsilon: float | np.ndarray
    denoiser: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if not np.isfinite(self.epsilon).all():
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")

    def label(self) -> str:
        return self.name or f"{self.denoiser.__name__}/{self.noise_y.kind}"


@dataclass
class IdentityReport:
    lhs: float
    rhs: float
    standard_error: float

    @property
    def diff(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        return self.diff <= 3.0 * self.standard_error


# A chunk of trials holds about this many image elements per array, so
# that numpy does the work of a chunk while peak memory stays flat.
CHUNK_ELEMENTS = 1 << 14


def _monte_carlo(trial_values, x: np.ndarray, trials: int):
    """Run `trials` Monte-Carlo trials on the clean image x, in chunks
    of about CHUNK_ELEMENTS image elements.

    trial_values(xs) gets n read-only copies of x as an (n,) + x.shape
    batch and returns the values of those n trials, shape (n, ...).
    Returns the float64 mean of the values and its standard error, from
    their M2 (sum of squared deviations), merging chunks as Chan, Golub &
    LeVeque (1979) do.
    """
    if trials < 2:
        raise ValueError(f"a standard error needs at least 2 trials, got {trials}")
    chunk = max(1, CHUNK_ELEMENTS // x.size)
    done, mean, m2 = 0, 0.0, 0.0
    while done < trials:
        n = min(chunk, trials - done)
        xs = np.broadcast_to(x, (n,) + x.shape)
        v = np.asarray(trial_values(xs), dtype=np.float64)
        v_mean = v.mean(axis=0)
        delta = v_mean - mean
        total = done + n
        m2 = m2 + ((v - v_mean) ** 2).sum(axis=0) + delta**2 * (done * n / total)
        mean = mean + delta * (n / total)
        done = total
    return mean, np.sqrt(m2 / (trials - 1) / trials)


def _split(g: SubSampler, img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sub-images of img (or of each batch item), as float64."""
    g1, g2 = apply_subsampler(g, img)
    return g1.astype(np.float64), g2.astype(np.float64)


def verify_theorem1(
    s: TheoremScenario, trials: int, rng: np.random.Generator
) -> IdentityReport:
    """Monte-Carlo estimate of both sides of the bias identity.

    Per trial t: lhs_t = mean((f(y)-x)^2) and
    rhs_t = mean((f(y)-z)^2) - mean((z-x)^2) + 2 mean(eps*(f(y)-x)),
    using the same draws for all terms. The standard error is that of
    the per-trial difference, so the test is exact under the identity.
    """
    x = as_image(np.atleast_2d(s.x))
    eps = np.asarray(s.epsilon, dtype=np.float64)
    axes = (-3, -2, -1)

    def trial_values(xs: np.ndarray) -> np.ndarray:
        y = apply_noise(xs, s.noise_y, rng).astype(np.float64)
        z = apply_noise(xs, s.noise_z, rng).astype(np.float64) + eps
        fy = np.asarray(s.denoiser(y), dtype=np.float64)
        lhs = np.mean((fy - x) ** 2, axis=axes)
        rhs = (
            np.mean((fy - z) ** 2, axis=axes)
            - np.mean((z - x) ** 2, axis=axes)
            + 2.0 * np.mean(eps * (fy - x), axis=axes)
        )
        return np.stack([lhs, rhs, lhs - rhs], axis=1)

    mean, se = _monte_carlo(trial_values, x, trials)
    return IdentityReport(float(mean[0]), float(mean[1]), float(se[2]))


# -- ideal-denoiser constraint ---------------------------------------------


def _sidak_threshold(tests: int) -> float:
    """|mean|/se level at which `tests` independent two-sided tests raise
    a false alarm, jointly, as often as one test at 3 se (Sidak): 3.0
    for one test, about 4.41 for 256."""
    one = math.erfc(3.0 / math.sqrt(2.0))
    alpha = -math.expm1(math.log1p(-one) / tests)
    return -statistics.NormalDist().inv_cdf(alpha / 2)


@dataclass
class Eq4Report:
    """Per-pixel Monte-Carlo means of the constraint expression and
    their standard errors."""

    mean: np.ndarray
    standard_error: np.ndarray
    max_sigma: float  # worst per-pixel |mean| / se

    @property
    def threshold(self) -> float:
        """Family-wise 3-se level for the mean.size per-pixel tests."""
        return _sidak_threshold(self.mean.size)

    @property
    def passed(self) -> bool:
        return self.max_sigma <= self.threshold


def verify_constraint(
    x: np.ndarray,
    noise: NoiseModel,
    trials: int,
    rng: np.random.Generator,
    denoiser: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Eq4Report:
    """Check that the constraint expression is zero-mean per pixel.

    The default denoiser is the oracle (which satisfies the constraint
    exactly in expectation); pass another denoiser as a negative
    control. One neighbour sub-sampler, drawn from rng, is fixed
    across trials; the expectation is over noise only.
    """
    x = as_image(x)
    h, w = x.shape[:2]
    g = generate_neighbor_subsampler(h, w, rng)
    g1x, g2x = _split(g, x)

    def trial_values(xs: np.ndarray) -> np.ndarray:
        y = apply_noise(xs, noise, rng).astype(np.float64)
        g1y, g2y = _split(g, y)
        if denoiser is None:
            # f*(g_l(y)) = g_l(x) and f*(y) = x by definition of the oracle
            return g1x - g2y - (g1x - g2x)
        f_g1y = np.asarray(denoiser(g1y), dtype=np.float64)
        if f_g1y.shape != g1y.shape:
            raise ValueError(
                f"denoiser {denoiser.__name__!r} maps a {g1y.shape[1:]} sub-image to "
                f"{f_g1y.shape[1:]}; for the oracle pass denoiser=None"
            )
        d1, d2 = _split(g, np.asarray(denoiser(y), dtype=np.float64))
        return f_g1y - g2y - (d1 - d2)

    mean, se = _monte_carlo(trial_values, x, trials)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = np.where(se > 0, np.abs(mean) / se, np.where(mean == 0, 0.0, np.inf))
    return Eq4Report(mean, se, float(np.max(sigmas)))


def ideal_objective_decomposition(
    x: np.ndarray,
    noise: NoiseModel,
    trials: int,
    rng: np.random.Generator,
) -> dict:
    """Split the unregularized objective, evaluated at the oracle, into
    its noise floor and ground-truth-gap components.

    E||g1(x) - g2(y)||^2 = E||g2(y) - g2(x)||^2 + ||g1(x) - g2(x)||^2
    (means per element). The nonzero gap term is the pressure that
    makes the plain sub-sampled objective over-smooth.
    """
    x = as_image(x)
    h, w = x.shape[:2]
    g = generate_neighbor_subsampler(h, w, rng)
    g1x, g2x = _split(g, x)

    def trial_values(xs: np.ndarray) -> np.ndarray:
        _g1y, g2y = _split(g, apply_noise(xs, noise, rng))
        return np.stack([(g1x - g2y) ** 2, (g2y - g2x) ** 2], axis=1)

    mean, _se = _monte_carlo(trial_values, x, trials)  # per element
    return {
        "objective": float(np.mean(mean[0])),
        "noise_floor": float(np.mean(mean[1])),
        "gap": float(np.mean((g1x - g2x) ** 2)),
        "mean_abs_gap": float(np.mean(np.abs(g1x - g2x))),
        "trials": trials,
    }
