import numpy as np
import pytest

from nbr2nbr.noise import NoiseModel, apply_noise, parse_noise_spec, sample_level


def test_parse_specs():
    m = parse_noise_spec("gauss25")
    assert m.kind == "gaussian-fixed" and m.level == 25
    m = parse_noise_spec("gauss5_50")
    assert m.kind == "gaussian-range" and (m.level, m.upper) == (5, 50)
    m = parse_noise_spec("poisson30")
    assert m.kind == "poisson-fixed" and m.level == 30
    m = parse_noise_spec("poisson5_50")
    assert m.kind == "poisson-range" and (m.level, m.upper) == (5, 50)
    with pytest.raises(ValueError):
        parse_noise_spec("salt10")


@pytest.mark.parametrize("spec", ["gauss.5", "gauss5.", "gauss5__50", "gauss_5", "gauss5_"])
def test_spec_outside_the_grammar_is_refused(spec):
    # a level is ASCII digits with an optional decimal part; float() reads the first two
    with pytest.raises(ValueError, match="bad noise spec"):
        parse_noise_spec(spec)


def test_decimal_levels_parse():
    m = parse_noise_spec("poisson2.5_7.25")
    assert (m.family, m.level, m.upper) == ("poisson", 2.5, 7.25)


def test_invalid_models():
    with pytest.raises(ValueError):
        NoiseModel("gaussian", -1.0)
    with pytest.raises(ValueError):
        NoiseModel("poisson", 0.0)
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 50.0, 5.0)


def test_fixed_level_constant():
    m = parse_noise_spec("gauss25")
    rng = np.random.default_rng(0)
    assert all(sample_level(m, rng) == 25.0 for _ in range(100))


def test_ranged_level_mean():
    m = parse_noise_spec("gauss5_50")
    rng = np.random.default_rng(1)
    draws = np.array([sample_level(m, rng) for _ in range(100_000)])
    assert draws.min() >= 5 and draws.max() <= 50
    se = (50 - 5) / np.sqrt(12) / np.sqrt(len(draws))
    assert abs(draws.mean() - 27.5) < 3 * se


def test_degenerate_range():
    m = NoiseModel("poisson", 30.0, 30.0)
    rng = np.random.default_rng(2)
    assert all(sample_level(m, rng) == 30.0 for _ in range(10))


def test_zero_sigma_identity():
    x = np.random.default_rng(0).random((8, 8, 1)).astype(np.float32)
    y = apply_noise(x, NoiseModel("gaussian", 0.0), np.random.default_rng(1))
    np.testing.assert_array_equal(y, x)


def test_gaussian_moments():
    x = np.full((1000, 1000, 1), 0.5, dtype=np.float32)
    y = apply_noise(x, parse_noise_spec("gauss25"), np.random.default_rng(3))
    n = x.size
    sigma = 25 / 255
    assert abs(y.mean() - 0.5) < 3 * sigma / np.sqrt(n)
    assert abs(y.std() - sigma) / sigma < 0.01


def test_poisson_zero_pixels_stay_zero():
    x = np.zeros((64, 64, 1), dtype=np.float32)
    y = apply_noise(x, parse_noise_spec("poisson30"), np.random.default_rng(4))
    assert np.all(y == 0.0)


def test_poisson_moments():
    lam = 30.0
    x = np.full((1000, 1000, 1), 0.5, dtype=np.float32)
    y = apply_noise(x, parse_noise_spec("poisson30"), np.random.default_rng(5))
    n = x.size
    var = 0.5 / lam  # Var(Poisson(lam*x)/lam) = x/lam
    assert abs(y.mean() - 0.5) < 3 * np.sqrt(var / n)
    sample_var = y.var()
    # variance of the sample variance ~ 2 var^2 / n for near-normal counts
    assert abs(sample_var - var) < 3 * np.sqrt(2.0 / n) * var


@pytest.mark.parametrize("spec", ["gauss25", "poisson30"])
def test_zero_mean_property(spec):
    x = np.full((700, 700, 1), 0.4, dtype=np.float32)
    y = apply_noise(x, parse_noise_spec(spec), np.random.default_rng(6))
    resid = (y - x).astype(np.float64)
    se = resid.std() / np.sqrt(resid.size)
    assert abs(resid.mean()) < 3 * se


@pytest.mark.parametrize("spec", ["gauss25", "poisson30"])
def test_pixelwise_independence(spec):
    # adjacent-pixel noise correlation should be ~0
    x = np.full((600, 600, 1), 0.5, dtype=np.float32)
    y = apply_noise(x, parse_noise_spec(spec), np.random.default_rng(7))
    n = (y - x)[:, :, 0].astype(np.float64)
    a = n[:, :-1].ravel()
    b = n[:, 1:].ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3 / np.sqrt(a.size)


def test_ranged_noise_single_level_per_image():
    # variance within one call should match a single sigma, not a mixture
    m = parse_noise_spec("gauss5_50")
    x = np.full((400, 400, 1), 0.5, dtype=np.float32)
    rng = np.random.default_rng(8)
    stds = []
    for _ in range(5):
        y = apply_noise(x, m, rng)
        stds.append(float((y - x).std()) * 255)
    stds = np.array(stds)
    assert np.all(stds > 4) and np.all(stds < 51)
    assert stds.std() > 1.0  # different draws pick different levels


@pytest.mark.parametrize("spec", ["gauss25", "poisson30", "gauss0"])
def test_batch_matches_sequential_calls_bitwise(spec):
    # fixed levels: one batched call draws the stream of N single calls
    m = parse_noise_spec(spec)
    x = np.random.default_rng(9).random((12, 10, 3)).astype(np.float32)
    rng = np.random.default_rng(10)
    sequential = np.stack([apply_noise(x, m, rng) for _ in range(5)])
    batched = apply_noise(np.broadcast_to(x, (5,) + x.shape), m, np.random.default_rng(10))
    assert batched.dtype == np.float32
    assert batched.tobytes() == sequential.tobytes()


def test_ranged_noise_single_level_per_batch_item():
    # each item gets its own level: the spread differs between items but
    # not between the two halves of one item
    x = np.full((6, 200, 200, 1), 0.5, dtype=np.float32)
    y = apply_noise(x, parse_noise_spec("gauss5_50"), np.random.default_rng(11))
    n = (y - x).astype(np.float64) * 255
    stds = n.std(axis=(1, 2, 3))
    assert np.all(stds > 4) and np.all(stds < 51)
    assert stds.std() > 1.0
    halves = n[:, :100].std(axis=(1, 2, 3)) / n[:, 100:].std(axis=(1, 2, 3))
    np.testing.assert_allclose(halves, 1.0, atol=0.03)
