"""Regularized self-supervised training loop.

Per sampled crop: corrupt it with fresh synthetic noise, draw a fresh
sub-sampler G, denoise the first sub-image, score it against the
second (reconstruction term), denoise the full noisy crop with no
gradient flow, sub-sample that result with the SAME G, and add the
gap-correction residual (regularization term) weighted by a ramped
gamma. Adam with step-decayed learning rate does the update.

Both squared norms are realized as per-element means so gamma and the
learning rate are independent of crop size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import as_image, load_image, random_crop
from .metrics import psnr
from .network import Network
from .noise import NoiseModel, apply_noise
from .subsampler import (
    apply_subsampler,
    generate_fixlocation_subsampler,
    generate_neighbor_subsampler,
)

__all__ = [
    "TrainConfig",
    "AdamState",
    "loss_rec",
    "loss_reg",
    "gamma_at",
    "lr_at",
    "adam_step",
    "train",
    "denoise_image",
    "LOG_HEADER",
]

LOG_HEADER = "epoch\tlr\tgamma\tloss_rec\tloss_reg\tpsnr_val"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    k: int = 2

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0 or self.crop <= 0:
            raise ValueError("epochs, batch_size, crop must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.sampler_kind not in ("neighbor", "fix-location"):
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
    """Standard bias-corrected Adam update; zeroes gradients afterward."""
    st.t += 1
    g = net.grads
    st.m[:] = ADAM_BETA1 * st.m + (1 - ADAM_BETA1) * g
    st.v[:] = ADAM_BETA2 * st.v + (1 - ADAM_BETA2) * g * g
    m_hat = st.m / (1 - ADAM_BETA1**st.t)
    v_hat = st.v / (1 - ADAM_BETA2**st.t)
    net.params[:] = net.params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    net.zero_grad()


def _make_sampler(cfg: TrainConfig, h: int, w: int, rng: np.random.Generator):
    if cfg.sampler_kind == "neighbor":
        return generate_neighbor_subsampler(h, w, cfg.k, rng)
    return generate_fixlocation_subsampler(h, w, cfg.k, rng)


def _load_all(images) -> list[np.ndarray]:
    loaded = []
    for item in images:
        if isinstance(item, (str, bytes)) or hasattr(item, "__fspath__"):
            loaded.append(load_image(item))
        else:
            loaded.append(as_image(item))
    return loaded


def train(
    images,
    cfg: TrainConfig,
    net: Network,
    validation: list[tuple[np.ndarray, np.ndarray]] | None = None,
    start_epoch: int = 0,
    adam: AdamState | None = None,
    rng: np.random.Generator | None = None,
    on_epoch_end=None,
) -> list[dict]:
    """Run the training loop; returns one log record per epoch.

    images: file paths or (H, W, C) clean arrays. validation: optional
    (clean, noisy) pairs scored by PSNR each epoch. start_epoch / adam /
    rng allow exact resumption from a saved training state.
    """
    data = _load_all(images)
    if not data:
        raise ValueError("empty image list")
    if min(min(im.shape[0], im.shape[1]) for im in data) < cfg.crop:
        raise ValueError("crop larger than smallest training image")
    if cfg.crop % (cfg.k * (1 << net.descriptor.depth)) != 0:
        raise ValueError(
            f"crop {cfg.crop} must be divisible by k*2^depth = "
            f"{cfg.k * (1 << net.descriptor.depth)}"
        )
    adam = adam or AdamState.for_network(net)
    rng = rng or np.random.default_rng(cfg.seed)
    log: list[dict] = []

    for epoch in range(start_epoch, cfg.epochs):
        lr = lr_at(cfg, epoch)
        gamma = gamma_at(cfg, epoch)
        order = rng.permutation(len(data))
        rec_sum = reg_sum = 0.0
        n_items = 0
        for batch_start in range(0, len(order), cfg.batch_size):
            batch = order[batch_start : batch_start + cfg.batch_size]
            for img_idx in batch:
                crop = random_crop(data[img_idx], cfg.crop, rng)
                y = apply_noise(crop, cfg.noise, rng)
                g = _make_sampler(cfg, cfg.crop, cfg.crop, rng)
                g1y, g2y = apply_subsampler(g, y)

                fy = net.forward(y[None], record=False)[0]
                den1, den2 = apply_subsampler(g, fy)
                out = net.forward(g1y[None], record=True)[0]

                rec = loss_rec(out, g2y)
                reg = loss_reg(out, g2y, den1, den2)
                rec_sum += rec
                reg_sum += reg
                n_items += 1

                scale = 2.0 / (out.size * len(batch))
                resid = (out - g2y) + gamma * (out - g2y - den1 + den2)
                net.backward((scale * resid)[None])
            adam_step(net, adam, lr)

        val_psnr = float("nan")
        if validation:
            scores = [
                psnr(clean, denoise_image(net, noisy))
                for clean, noisy in validation
            ]
            val_psnr = float(np.mean(scores))
        record = {
            "epoch": epoch,
            "lr": lr,
            "gamma": gamma,
            "loss_rec": rec_sum / n_items,
            "loss_reg": reg_sum / n_items,
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


def denoise_image(net: Network, img: np.ndarray) -> np.ndarray:
    """Run the full image through the denoiser once, reflect-padding to
    a multiple of 2^depth and cropping back."""
    img = as_image(img, channels=net.descriptor.input_channels)
    h, w = img.shape[:2]
    mult = 1 << net.descriptor.depth
    ph = (-h) % mult
    pw = (-w) % mult
    padded = np.pad(img, ((0, ph), (0, pw), (0, 0)), mode="reflect") if ph or pw else img
    out = net.forward(padded[None], record=False)[0]
    return out[:h, :w]
