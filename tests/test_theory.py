import numpy as np
import pytest

from nbr2nbr.noise import NoiseModel, parse_noise_spec
from nbr2nbr.textures import texture_image
from nbr2nbr.theory import (
    TheoremScenario,
    blur3,
    constant_denoiser,
    ideal_objective_decomposition,
    identity,
    oracle_denoiser,
    verify_constraint,
    verify_theorem1,
)

GAUSS25 = parse_noise_spec("gauss25")
POISSON30 = parse_noise_spec("poisson30")
NOISELESS = NoiseModel("gaussian", 0.0)


def test_scalar_oracle_closed_form():
    # x=1, f(y)=0, eps=0.5, Var(z)=0.04:
    # lhs = 1; E z^2 = 1.5^2 + 0.04 = 2.29; sigma_z^2 = eps^2 + 0.04 = 0.29
    # rhs = 2.29 - 0.29 + 2*0.5*(0-1) = 1.0
    s = TheoremScenario(
        np.array([[1.0]]), NOISELESS, NoiseModel("gaussian", 0.2 * 255),
        0.5, constant_denoiser(0.0),
    )
    rep = verify_theorem1(s, 50_000, np.random.default_rng(0))
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)  # deterministic side
    assert abs(rep.rhs - 1.0) <= 3 * rep.standard_error
    assert rep.passed


def test_zero_eps_reduces_to_paired_case():
    # identity denoiser, Gaussian sigma on y, eps=0: lhs = sigma^2 exactly
    sigma = 25 / 255
    s = TheoremScenario(
        np.full((4, 4), 0.5), GAUSS25, GAUSS25, 0.0, identity
    )
    rep = verify_theorem1(s, 30_000, np.random.default_rng(1))
    assert abs(rep.lhs - sigma**2) < 5 * sigma**2 / np.sqrt(30_000)
    assert rep.passed


@pytest.mark.parametrize("noise", [GAUSS25, POISSON30], ids=["gaussian", "poisson"])
@pytest.mark.parametrize("eps", [0.0, 0.03])
def test_identity_holds_all_denoisers(noise, eps):
    x = texture_image(16, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    for den in (
        identity,
        constant_denoiser(0.4),
        oracle_denoiser(x),
        blur3,
    ):
        rep = verify_theorem1(TheoremScenario(x, noise, noise, eps, den), 20_000, rng)
        assert rep.passed, (den.__name__, noise.kind, eps, rep.diff, rep.standard_error)


def test_literal_variance_reading_fails_by_eps_squared():
    # replacing sigma_z^2 = E||z-x||^2 with Var(z) shifts rhs by +eps^2
    eps = 0.5
    s = TheoremScenario(
        np.array([[1.0]]), NOISELESS, NoiseModel("gaussian", 0.2 * 255),
        eps, constant_denoiser(0.0),
    )
    rep = verify_theorem1(s, 50_000, np.random.default_rng(4))
    rhs_literal = rep.rhs + eps**2  # rhs with variance-about-mean subtraction
    assert abs(rhs_literal - rep.lhs) > 10 * rep.standard_error


# -- ideal-denoiser constraint ---------------------------------------------


def test_constraint_zero_noise_exactly_zero():
    x = texture_image(16, np.random.default_rng(5))
    rep = verify_constraint(x, NOISELESS, 50, np.random.default_rng(6))
    assert np.all(rep.mean == 0.0)
    assert rep.passed


def test_constraint_oracle_within_tolerance():
    x = texture_image(32, np.random.default_rng(7))
    rep = verify_constraint(x, GAUSS25, 20_000, np.random.default_rng(1))
    assert rep.passed, rep.max_sigma


def test_constraint_oracle_family_wise_verdict():
    # the worst of 256 pixels is held to the Sidak level (~4.41 se), so a
    # correct oracle fails about as often as one 3-se test (0.27%)
    x = texture_image(32, np.random.default_rng(7))
    reps = [verify_constraint(x, GAUSS25, 2_000, np.random.default_rng(seed)) for seed in range(40)]
    assert sum(not rep.passed for rep in reps) <= 2
    assert reps[0].threshold == pytest.approx(4.405, abs=0.005)


def test_constraint_standard_error_independent_of_offset():
    # f = c gives the expression c - g2(y): its spread does not depend on c
    x = texture_image(16, np.random.default_rng(12))
    reps = [
        verify_constraint(x, GAUSS25, 2_000, np.random.default_rng(13),
                          denoiser=constant_denoiser(c))
        for c in (0.0, 1e6)
    ]
    np.testing.assert_allclose(reps[1].standard_error, reps[0].standard_error, rtol=1e-6)


def test_constraint_constant_zero_denoiser_detected():
    # f = 0: expression reduces to -g2(y), expectation -g2(x) != 0
    x = texture_image(32, np.random.default_rng(8))
    rep = verify_constraint(
        x, GAUSS25, 5_000, np.random.default_rng(9),
        denoiser=constant_denoiser(0.0),
    )
    assert not rep.passed
    g2x_mean = float(np.mean(np.abs(x)))
    assert np.mean(np.abs(rep.mean)) == pytest.approx(g2x_mean, rel=0.15)


def test_constraint_rejects_shape_changing_denoiser():
    # oracle_denoiser(x) maps the half-size sub-image g1(y) back to x
    x = texture_image(16, np.random.default_rng(5))
    with pytest.raises(ValueError, match="denoiser=None"):
        verify_constraint(x, GAUSS25, 10, np.random.default_rng(6), denoiser=oracle_denoiser(x))


@pytest.mark.parametrize("check", [
    lambda x, rng: verify_theorem1(
        TheoremScenario(x, GAUSS25, GAUSS25, 0.0, identity), 1, rng),
    lambda x, rng: verify_constraint(x, GAUSS25, 1, rng),
    lambda x, rng: ideal_objective_decomposition(x, GAUSS25, 1, rng),
], ids=["theorem1", "constraint", "decomposition"])
def test_one_trial_has_no_standard_error(check):
    x = texture_image(8, np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least 2 trials"):
        check(x, np.random.default_rng(1))


def test_objective_decomposition_components():
    # E||g1(x)-g2(y)||^2 = noise floor + clean gap, within MC tolerance
    x = texture_image(32, np.random.default_rng(10))
    rep = ideal_objective_decomposition(x, GAUSS25, 5_000, np.random.default_rng(11))
    assert rep["gap"] > 0.0  # neighbor pixels differ: the over-smoothing pressure
    total = rep["noise_floor"] + rep["gap"]
    assert rep["objective"] == pytest.approx(total, rel=0.02)
    sigma2 = (25 / 255) ** 2
    assert rep["noise_floor"] == pytest.approx(sigma2, rel=0.05)
    assert 0 < rep["mean_abs_gap"] < 0.5  # small relative to dynamic range
