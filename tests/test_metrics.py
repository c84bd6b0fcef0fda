import math

import numpy as np
import pytest

from nbr2nbr.metrics import evaluate_pairs, format_psnr_ssim, psnr, ssim


def test_psnr_identical_is_infinite():
    img = np.random.default_rng(0).random((16, 16, 1)).astype(np.float32)
    assert math.isinf(psnr(img, img))


def test_psnr_known_mse():
    # constant offset 0.1 on peak-1 images: MSE = 0.01 -> 20 dB
    a = np.full((32, 32, 1), 0.4)
    b = np.full((32, 32, 1), 0.5)
    assert abs(psnr(a, b) - 20.0) < 1e-10


def test_psnr_clamps_before_scoring():
    a = np.zeros((8, 8, 1))
    b = np.full((8, 8, 1), -1.0)  # clamps to 0 -> identical
    assert math.isinf(psnr(a, b))


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4, 1)), np.zeros((5, 5, 1)))


def test_psnr_decreases_with_noise_level():
    rng = np.random.default_rng(1)
    img = rng.random((64, 64, 1)).astype(np.float32)
    values = []
    for sigma in (5, 15, 25, 50):
        noisy = img + rng.normal(0, sigma / 255, img.shape)
        values.append(psnr(img, noisy))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ssim_identical_is_one():
    img = np.random.default_rng(2).random((16, 16, 1)).astype(np.float32)
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-9)


def test_ssim_constant_images_closed_form():
    c, d = 0.3, 0.6
    a = np.full((16, 16, 1), c)
    b = np.full((16, 16, 1), d)
    c1 = 0.01**2
    expected = (2 * c * d + c1) / (c * c + d * d + c1)
    assert ssim(a, b) == pytest.approx(expected, abs=1e-9)


def test_ssim_symmetric():
    rng = np.random.default_rng(3)
    a = rng.random((20, 20, 1)).astype(np.float32)
    b = rng.random((20, 20, 1)).astype(np.float32)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_range():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rng.random((16, 16, 1)).astype(np.float32)
        b = rng.random((16, 16, 1)).astype(np.float32)
        s = ssim(a, b)
        assert -1.0 <= s <= 1.0
        assert s < 1.0  # distinct inputs never score 1


def test_ssim_too_small_raises():
    with pytest.raises(ValueError):
        ssim(np.zeros((8, 8, 1)), np.zeros((8, 8, 1)))


def test_ssim_matches_reference_implementation():
    skimage = pytest.importorskip("skimage.metrics")
    rng = np.random.default_rng(5)
    a = rng.random((48, 48)).astype(np.float64)
    b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
    ours = ssim(a[:, :, None], b[:, :, None])
    ref = skimage.structural_similarity(
        a, b, data_range=1.0, gaussian_weights=True, sigma=1.5,
        use_sample_covariance=False,
    )
    # reference pads to full size; valid-window mean differs slightly
    assert ours == pytest.approx(ref, abs=5e-3)


@pytest.mark.parametrize("shape", [(37, 29, 1), (24, 31, 3), (11, 11, 1), (11, 11, 3)])
def test_ssim_matches_scipy_valid_window(shape):
    # an independent 2-D 11x11 Gaussian window (sigma 1.5), correlated
    # over the valid region only, per channel, then the channel mean
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(sum(shape))
    a = rng.random(shape)
    b = np.clip(a + rng.normal(0, 0.2, shape), 0, 1)
    r = np.arange(11) - 5.0
    window = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2 * 1.5**2))
    window /= window.sum()
    c1, c2 = 0.01**2, 0.03**2
    scores = []
    for ch in range(shape[2]):
        x, y = a[:, :, ch], b[:, :, ch]
        mean = lambda z: signal.correlate2d(z, window, mode="valid")
        mx, my = mean(x), mean(y)
        vx, vy, cxy = mean(x * x) - mx**2, mean(y * y) - my**2, mean(x * y) - mx * my
        s = ((2 * mx * my + c1) * (2 * cxy + c2)) / ((mx**2 + my**2 + c1) * (vx + vy + c2))
        scores.append(s.mean())
    assert abs(ssim(a, b) - np.mean(scores)) <= 1e-12


def test_rgb_ssim_is_channel_average():
    rng = np.random.default_rng(6)
    a = rng.random((16, 16, 3)).astype(np.float32)
    b = rng.random((16, 16, 3)).astype(np.float32)
    per_channel = [
        ssim(a[:, :, i : i + 1], b[:, :, i : i + 1]) for i in range(3)
    ]
    assert ssim(a, b) == pytest.approx(np.mean(per_channel), abs=1e-12)


def test_evaluate_pairs_and_formatting():
    img = np.random.default_rng(7).random((16, 16, 1)).astype(np.float32)
    mean_psnr, mean_ssim, rows = evaluate_pairs([("a", img, img)])
    assert rows == [("a", mean_psnr, mean_ssim)]
    assert format_psnr_ssim(mean_psnr, mean_ssim) == "inf/1.000"
    assert format_psnr_ssim(20.0, 0.874) == "20.00/0.874"
