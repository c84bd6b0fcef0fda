"""Regularized self-supervised training loop.

Per sampled crop: corrupt it with fresh synthetic noise, draw a fresh
sub-sampler G, denoise the first sub-image, score it against the
second (reconstruction term), denoise the full noisy crop with no
gradient flow, sub-sample that result with the SAME G, and add the
gap-correction residual (regularization term) weighted by a ramped
gamma. Adam with step-decayed learning rate does the update. train_step
is one minibatch of this, and it raises NumericError at the first step
that leaves a loss, a parameter or an Adam moment non-finite.

Both squared norms are realized as per-element means so gamma and the
learning rate are independent of crop size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import as_image, random_crop
from .metrics import psnr
from .network import Network, receptive_halo
from .noise import NoiseModel, apply_noise
from .subsampler import (
    apply_subsampler,
    generate_fixlocation_subsampler,
    generate_neighbor_subsampler,
)

LOG_HEADER = "epoch\tlr\tgamma\tloss_rec\tloss_reg\tpsnr_val"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
TILE = 256  # output tile edge of denoise_image, in px: it bounds memory, not the result
SAMPLER_KINDS = ("neighbor", "fix-location")


@dataclass
class TrainConfig:
    """All training-loop hyperparameters."""

    noise: NoiseModel
    gamma: float = 2.0
    gamma_ramp_epochs: int = 10
    epochs: int = 100
    batch_size: int = 4
    crop: int = 256
    lr: float = 3e-4
    lr_decay_every: int = 20
    lr_decay_factor: float = 0.5
    seed: int = 0
    sampler_kind: str = "neighbor"

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0 or self.crop <= 0:
            raise ValueError("epochs, batch_size, crop must be positive")
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (0 < self.lr < np.inf and 0 < self.lr_decay_factor < np.inf):
            raise ValueError("lr and lr_decay_factor must be finite and > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.sampler_kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.sampler_kind!r}")


@dataclass
class AdamState:
    """First/second moment vectors and step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_network(cls, net: Network) -> "AdamState":
        n = len(net.params)
        return cls(np.zeros(n, np.float32), np.zeros(n, np.float32))


def loss_rec(out: np.ndarray, target: np.ndarray) -> float:
    """Mean squared difference, accumulated in float64."""
    if out.shape != target.shape:
        raise ValueError(f"shape mismatch {out.shape} vs {target.shape}")
    d = out.astype(np.float64) - target.astype(np.float64)
    return float(np.mean(d * d))


def loss_reg(
    out: np.ndarray,
    target: np.ndarray,
    den_sub1: np.ndarray,
    den_sub2: np.ndarray,
) -> float:
    """Mean squared gap-corrected residual (out - target - den1 + den2).

    den_sub1/den_sub2 are the sub-sampled denoised full image and enter
    as constants: no gradient flows through them.
    """
    if not (out.shape == target.shape == den_sub1.shape == den_sub2.shape):
        raise ValueError("shape mismatch among loss_reg arguments")
    r = (
        out.astype(np.float64)
        - target.astype(np.float64)
        - den_sub1.astype(np.float64)
        + den_sub2.astype(np.float64)
    )
    return float(np.mean(r * r))


def loss_grad(out: np.ndarray, target: np.ndarray, den_sub1: np.ndarray,
              den_sub2: np.ndarray, gamma: float, batch: int) -> np.ndarray:
    """Gradient with respect to out of (loss_rec + gamma * loss_reg) / batch,
    den_sub1/den_sub2 held constant as in loss_reg."""
    scale = 2.0 / (out.size * batch)
    return scale * ((out - target) + gamma * (out - target - den_sub1 + den_sub2))


def check_crop(images: list[np.ndarray], crop: int, depth: int) -> None:
    """Refuse a crop larger than the smallest (H, W, C) image, or one whose
    crop/2 sub-images the depth's 2^depth pooling grid cannot divide."""
    if min(min(im.shape[0], im.shape[1]) for im in images) < crop:
        raise ValueError("crop larger than smallest training image")
    multiple = 2 << depth
    if crop % multiple != 0:
        raise ValueError(f"crop {crop} must be divisible by 2^(depth+1) = {multiple}")


def gamma_at(cfg: TrainConfig, epoch: int) -> float:
    """Linearly ramped regularizer weight; ramp 0 means constant."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} out of range")
    if cfg.gamma_ramp_epochs <= 0:
        return cfg.gamma
    return cfg.gamma * min(1.0, (epoch + 1) / cfg.gamma_ramp_epochs)


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Step-decayed learning rate."""
    if cfg.lr_decay_every <= 0:
        return cfg.lr
    return cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


def adam_step(net: Network, st: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update; zeroes gradients afterward. In place,
    with net.grads and one vector as scratch, in the textbook expression's order."""
    st.t += 1
    g, tmp = net.grads, np.empty_like(net.grads)
    st.m *= ADAM_BETA1
    st.m += np.multiply(g, 1 - ADAM_BETA1, out=tmp)
    st.v *= ADAM_BETA2
    st.v += np.multiply(np.multiply(g, 1 - ADAM_BETA2, out=tmp), g, out=tmp)
    np.multiply(np.divide(st.m, 1 - ADAM_BETA1**st.t, out=g), lr, out=g)  # lr * m_hat
    np.sqrt(np.divide(st.v, 1 - ADAM_BETA2**st.t, out=tmp), out=tmp)  # sqrt(v_hat)
    tmp += ADAM_EPS
    net.params -= np.divide(g, tmp, out=g)
    net.zero_grad()


class NumericError(ArithmeticError):
    """A training step produced a non-finite loss, parameter or Adam moment."""


@np.errstate(over="ignore", invalid="ignore")
def train_step(net: Network, adam: AdamState, images: list[np.ndarray], cfg: TrainConfig,
               epoch: int, rng: np.random.Generator) -> list[tuple[float, float]]:
    """One minibatch at the epoch's lr and gamma; returns (loss_rec, loss_reg)
    per image. Per image, rng draws a crop, then noise, then a sub-sampler.
    Raises NumericError naming the epoch and the Adam step, not numpy warnings."""
    gamma = gamma_at(cfg, epoch)
    generate = (generate_neighbor_subsampler if cfg.sampler_kind == "neighbor"
                else generate_fixlocation_subsampler)
    losses = []
    for img in images:
        crop = random_crop(img, cfg.crop, rng)
        y = apply_noise(crop, cfg.noise, rng)
        g = generate(cfg.crop, cfg.crop, rng)
        g1y, g2y = apply_subsampler(g, y)

        fy = net.forward(y[None], record=False)[0]
        den1, den2 = apply_subsampler(g, fy)
        out = net.forward(g1y[None], record=True)[0]
        losses.append((loss_rec(out, g2y), loss_reg(out, g2y, den1, den2)))
        net.backward(loss_grad(out, g2y, den1, den2, gamma, len(images))[None])
    adam_step(net, adam, lr_at(cfg, epoch))
    for name, values in (("loss", losses), ("parameters", net.params),
                         ("Adam m", adam.m), ("Adam v", adam.v)):
        if not np.isfinite(values).all():
            raise NumericError(f"non-finite {name} at epoch {epoch}, step {adam.t}")
    return losses


def train(
    images: list[np.ndarray],
    cfg: TrainConfig,
    net: Network,
    validation: list[tuple[np.ndarray, np.ndarray]] | None = None,
    start_epoch: int = 0,
    adam: AdamState | None = None,
    rng: np.random.Generator | None = None,
    on_epoch_end=None,
) -> list[dict]:
    """Run train_step epoch by epoch; returns one log record per epoch.

    images: (H, W, C) arrays. validation: optional (clean, noisy) pairs
    scored by PSNR each epoch. start_epoch / adam / rng allow exact
    resumption from a saved training state.
    """
    data = [as_image(im) for im in images]
    if not data:
        raise ValueError("empty image list")
    check_crop(data, cfg.crop, net.descriptor.depth)
    adam = adam or AdamState.for_network(net)
    rng = rng or np.random.default_rng(cfg.seed)
    log: list[dict] = []

    for epoch in range(start_epoch, cfg.epochs):
        order = rng.permutation(len(data))
        losses = []
        for batch_start in range(0, len(order), cfg.batch_size):
            batch = order[batch_start : batch_start + cfg.batch_size]
            losses += train_step(net, adam, [data[i] for i in batch], cfg, epoch, rng)

        val_psnr = float("nan")
        if validation:
            scores = [
                psnr(clean, denoise_image(net, noisy))
                for clean, noisy in validation
            ]
            val_psnr = float(np.mean(scores))
        record = {
            "epoch": epoch,
            "lr": lr_at(cfg, epoch),
            "gamma": gamma_at(cfg, epoch),
            "loss_rec": sum(rec for rec, _ in losses) / len(losses),
            "loss_reg": sum(reg for _, reg in losses) / len(losses),
            "psnr_val": val_psnr,
        }
        log.append(record)
        if on_epoch_end is not None:
            on_epoch_end(epoch, net, adam, rng, record)
    return log


def format_log_record(r: dict) -> str:
    return (
        f"{r['epoch']}\t{r['lr']:.6g}\t{r['gamma']:.6g}\t"
        f"{r['loss_rec']:.6g}\t{r['loss_reg']:.6g}\t{r['psnr_val']:.4f}"
    )


@np.errstate(over="ignore", invalid="ignore")
def denoise_image(net: Network, img: np.ndarray) -> np.ndarray:
    """Denoise a whole image in bounded memory: reflect-pad it to a multiple
    of 2^depth, run the network over windows of TILE-px output tiles plus
    network.receptive_halo on each side (clipped to the padded image, whose
    border gets the network's own zero padding, as in one pass), and stitch
    the tile interiors. The result equals one pass over the whole image up
    to float rounding; an image within one tile is one such pass. Raises
    NumericError, not numpy warnings, if the output is not finite."""
    out = _denoise_tiles(net, img, TILE, receptive_halo(net.descriptor))
    if not np.isfinite(out).all():
        raise NumericError("non-finite denoiser output")
    return out


def _denoise_tiles(net: Network, img: np.ndarray, tile: int, halo: int) -> np.ndarray:
    """denoise_image at a given tile edge (rounded up to a multiple of
    2^depth) and halo."""
    img = as_image(img)
    h, w = img.shape[:2]
    mult = 1 << net.descriptor.depth
    tile = -(-tile // mult) * mult
    padded = np.pad(img, ((0, -h % mult), (0, -w % mult), (0, 0)), mode="reflect")
    out = np.empty(img.shape, net.dtype)
    for y in range(0, h, tile):
        for x in range(0, w, tile):
            y0, x0 = max(0, y - halo), max(0, x - halo)
            window = padded[None, y0 : y + tile + halo, x0 : x + tile + halo]
            res = net.forward(window, record=False)[0]
            dst = out[y : y + tile, x : x + tile]
            dst[...] = res[y - y0 : y - y0 + dst.shape[0], x - x0 : x - x0 + dst.shape[1]]
    return out
