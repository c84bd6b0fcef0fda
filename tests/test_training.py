import hashlib
import tracemalloc

import numpy as np
import pytest

from nbr2nbr.network import (
    ArchDescriptor,
    Network,
    build_network,
    parameter_count,
    receptive_halo,
)
from nbr2nbr.noise import parse_noise_spec
from nbr2nbr.subsampler import apply_subsampler, generate_neighbor_subsampler
from nbr2nbr.textures import texture_set
from nbr2nbr.training import (
    AdamState,
    TILE,
    NumericError,
    TrainConfig,
    _denoise_tiles,
    adam_step,
    denoise_image,
    gamma_at,
    loss_grad,
    loss_rec,
    loss_reg,
    lr_at,
    train,
    train_step,
)

GAUSS25 = parse_noise_spec("gauss25")


def identity_net() -> Network:
    d = ArchDescriptor(1, 0, 1, 0)
    net = Network(d, np.zeros(parameter_count(d), dtype=np.float32))
    net.convs[0].w[1, 1, 0, 0] = 1.0
    return net


# -- losses -----------------------------------------------------------------


def test_loss_rec_zero_and_constant():
    a = np.random.default_rng(0).random((4, 4, 1))
    assert loss_rec(a, a) == 0.0
    assert loss_rec(a + 0.3, a) == pytest.approx(0.09, rel=1e-6)


def test_loss_rec_symmetric():
    rng = np.random.default_rng(1)
    a, b = rng.random((4, 4, 1)), rng.random((4, 4, 1))
    assert loss_rec(a, b) == loss_rec(b, a)


def test_loss_reg_identity_denoiser_cancels():
    # f(y) = y: residual g1(y)-g2(y)-g1(y)+g2(y) = 0
    rng = np.random.default_rng(2)
    y = rng.random((8, 8, 1)).astype(np.float32)
    g = generate_neighbor_subsampler(8, 8, rng)
    g1y, g2y = apply_subsampler(g, y)
    assert loss_reg(g1y, g2y, g1y, g2y) == 0.0


def test_loss_reg_exact_cancellation_and_collapse():
    rng = np.random.default_rng(3)
    out, target = rng.random((4, 4, 1)), rng.random((4, 4, 1))
    assert loss_reg(out, target, out, target) == 0.0
    d = rng.random((4, 4, 1))
    assert loss_reg(out, target, d, d) == pytest.approx(loss_rec(out, target), rel=1e-12)


def test_loss_reg_identity_network_end_to_end():
    # run the real identity-configured network through the full recipe
    net = identity_net()
    rng = np.random.default_rng(4)
    y = rng.random((8, 8, 1)).astype(np.float32)
    g = generate_neighbor_subsampler(8, 8, rng)
    g1y, g2y = apply_subsampler(g, y)
    out = net.forward(g1y[None], record=False)[0]
    fy = net.forward(y[None], record=False)[0]
    d1, d2 = apply_subsampler(g, fy)
    assert loss_reg(out, g2y, d1, d2) < 1e-6


# -- schedules --------------------------------------------------------------


def test_gamma_constant_when_no_ramp():
    cfg = TrainConfig(noise=GAUSS25, gamma=2.0, gamma_ramp_epochs=0, epochs=5, crop=8)
    assert all(gamma_at(cfg, e) == 2.0 for e in range(5))


def test_gamma_linear_ramp():
    cfg = TrainConfig(noise=GAUSS25, gamma=2.0, gamma_ramp_epochs=10, epochs=20, crop=8)
    assert gamma_at(cfg, 4) == pytest.approx(1.0)
    assert gamma_at(cfg, 9) == pytest.approx(2.0)
    assert all(gamma_at(cfg, e) == 2.0 for e in range(10, 20))
    values = [gamma_at(cfg, e) for e in range(20)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == cfg.gamma


def test_lr_halves_at_decay_boundaries():
    cfg = TrainConfig(noise=GAUSS25, epochs=60, lr=3e-4, lr_decay_every=20, crop=8)
    values = [lr_at(cfg, e) for e in range(60)]
    assert values[0] == 3e-4
    assert values[19] == 3e-4
    assert values[20] == pytest.approx(1.5e-4)
    assert values[40] == pytest.approx(0.75e-4)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lr_constant_when_decay_off():
    cfg = TrainConfig(noise=GAUSS25, epochs=60, lr=3e-4, lr_decay_every=0, crop=8)
    assert all(lr_at(cfg, e) == 3e-4 for e in range(60))


# -- adam -------------------------------------------------------------------


def test_adam_first_step_magnitude():
    # first step: m_hat = g, v_hat = g^2, so |update| = lr*|g|/(|g|+eps)
    d = ArchDescriptor(1, 0, 1, 0)
    net = Network(d, np.zeros(parameter_count(d), dtype=np.float32))
    st = AdamState.for_network(net)
    g = 0.37
    net.grads[0] = g
    adam_step(net, st, lr=1e-3)
    expected = -1e-3 * g / (abs(g) + 1e-8)
    assert net.params[0] == pytest.approx(expected, rel=1e-5)
    assert st.t == 1
    assert np.all(net.grads == 0)


def test_adam_zero_gradient_no_move():
    d = ArchDescriptor(1, 0, 1, 0)
    net = build_network(d, np.random.default_rng(0))
    before = net.params.copy()
    st = AdamState.for_network(net)
    adam_step(net, st, lr=1e-3)
    np.testing.assert_array_equal(net.params, before)
    assert st.t == 1


def test_adam_step_bytes_match_the_expression():
    b1, b2, eps = 0.9, 0.999, 1e-8

    def expression_step(net, st, lr):
        st.t += 1
        g = net.grads
        st.m[:] = b1 * st.m + (1 - b1) * g
        st.v[:] = b2 * st.v + (1 - b2) * g * g
        m_hat = st.m / (1 - b1**st.t)
        v_hat = st.v / (1 - b2**st.t)
        net.params[:] = net.params - lr * m_hat / (np.sqrt(v_hat) + eps)
        net.zero_grad()

    nets = [build_network(ArchDescriptor(1, 2, 6, 2), np.random.default_rng(40)) for _ in range(2)]
    states = [AdamState.for_network(net) for net in nets]
    rng = np.random.default_rng(41)
    for lr in (1e-3, 3e-4, 1e-3):
        n = len(nets[0].grads)
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-9, 3, n)
        g[::7] = 0
        for net in nets:
            net.grads[:] = g
        adam_step(nets[0], states[0], lr)
        expression_step(nets[1], states[1], lr)
    for a, b in ((nets[0].params, nets[1].params), (states[0].m, states[1].m),
                 (states[0].v, states[1].v), (nets[0].grads, nets[1].grads)):
        assert a.tobytes() == b.tobytes()
    assert states[0].t == states[1].t == 3


def test_adam_step_allocates_at_most_one_parameter_vector():
    net = build_network(ArchDescriptor(3), np.random.default_rng(42))
    st = AdamState.for_network(net)
    net.grads[:] = np.random.default_rng(43).standard_normal(len(net.grads))
    tracemalloc.start()
    try:
        adam_step(net, st, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * net.params.nbytes  # the expression form peaked at 5 vectors


# -- training loop ----------------------------------------------------------


def small_setup(gamma=2.0, seed=0, epochs=2, sampler="neighbor"):
    imgs = texture_set(6, 32, 5)
    cfg = TrainConfig(
        noise=GAUSS25, gamma=gamma, gamma_ramp_epochs=2, epochs=epochs,
        batch_size=2, crop=16, seed=seed, sampler_kind=sampler, lr=1e-3,
    )
    desc = ArchDescriptor(1, 1, 6, 2)
    return imgs, cfg, desc


def test_train_deterministic_given_seed():
    imgs, cfg, desc = small_setup()
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(cfg.seed)
        net = build_network(desc, rng)
        log = train(imgs, cfg, net, rng=rng)
        runs.append((net.params.copy(), log))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    for ra, rb in zip(runs[0][1], runs[1][1]):  # bit-identical loss values
        assert ra["loss_rec"] == rb["loss_rec"]
        assert ra["loss_reg"] == rb["loss_reg"]


def test_train_step_is_one_adam_step():
    imgs, cfg, desc = small_setup()
    rng = np.random.default_rng(cfg.seed)
    net = build_network(desc, rng)
    adam = AdamState.for_network(net)
    before = net.params.copy()
    losses = train_step(net, adam, imgs[:3], cfg, 0, rng)
    assert len(losses) == 3 and adam.t == 1
    assert all(rec > 0 and reg > 0 for rec, reg in losses)
    assert not np.array_equal(net.params, before)


def test_train_steps_pinned():
    # the bytes of every op's forward and backward, through three Adam steps;
    # the other training tests compare two runs of the same code. This hash and
    # test_tiled_denoise_pinned's were taken with OpenBLAS 0.3.31 on x86-64:
    # another BLAS build may round its matmuls differently
    cfg = TrainConfig(noise=GAUSS25, epochs=1, batch_size=2, crop=32, lr=1e-3)
    rng = np.random.default_rng(0)
    net = build_network(ArchDescriptor(1, 2, 6, 2), rng)
    adam = AdamState.for_network(net)
    imgs = texture_set(2, 40, 1)
    for _ in range(3):
        train_step(net, adam, imgs, cfg, 0, rng)
    assert hashlib.sha256(net.params.tobytes()).hexdigest() == (
        "dd9f41adee505bb4e60e3da8c95c1aec3954d1dc6ba391c3055ab95d16aaf5e2")


def test_train_raises_numeric_error_before_epoch_end():
    from dataclasses import replace

    imgs, cfg, desc = small_setup()
    net = build_network(desc, np.random.default_rng(cfg.seed))
    ended = []
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=r"at epoch 0, step \d"):
        train(imgs, replace(cfg, lr=1e3), net, on_epoch_end=lambda *a: ended.append(a))
    assert ended == []


def test_gamma_zero_total_loss_equals_rec():
    # with gamma=0 the update direction must ignore the regularizer:
    # train two nets whose only difference is the reg weight at 0 vs 0.0
    imgs, cfg, desc = small_setup(gamma=0.0)
    rng = np.random.default_rng(cfg.seed)
    net = build_network(desc, rng)
    log = train(imgs, cfg, net, rng=rng)
    assert all(r["gamma"] == 0.0 for r in log)
    # the losses logged are finite and rec does not include the reg term
    assert all(np.isfinite(r["loss_rec"]) for r in log)


def test_gamma_affects_training():
    imgs, cfg, desc = small_setup(gamma=0.0)
    rng = np.random.default_rng(cfg.seed)
    net_a = build_network(desc, rng)
    train(imgs, cfg, net_a, rng=rng)

    imgs, cfg2, _ = small_setup(gamma=2.0)
    rng = np.random.default_rng(cfg2.seed)
    net_b = build_network(desc, rng)
    train(imgs, cfg2, net_b, rng=rng)
    assert not np.array_equal(net_a.params, net_b.params)


def test_stop_gradient_on_denoised_subimages():
    # the analytic gradient of the total loss must match finite
    # differences taken with den_sub1/den_sub2 HELD FIXED
    rng = np.random.default_rng(7)
    desc = ArchDescriptor(1, 0, 4, 1)
    net = build_network(desc, rng).astype(np.float64)
    y = rng.random((8, 8, 1))
    g = generate_neighbor_subsampler(8, 8, rng)
    g1y, g2y = apply_subsampler(g, y)
    gamma = 2.0

    fy = net.forward(y[None], record=False)[0]
    d1, d2 = apply_subsampler(g, fy)  # frozen constants

    def total_loss():
        out = net.forward(g1y[None], record=False)[0]
        rec = np.mean((out - g2y) ** 2)
        reg = np.mean((out - g2y - d1 + d2) ** 2)
        return rec + gamma * reg

    out = net.forward(g1y[None], record=True)[0]
    net.zero_grad()
    net.backward(loss_grad(out, g2y, d1, d2, gamma, 1)[None])  # train_step's upstream gradient
    analytic = net.grads.copy()

    h = 1e-6
    idx = rng.choice(len(net.params), 30, replace=False)
    for i in idx:
        orig = net.params[i]
        net.params[i] = orig + h
        lp = total_loss()
        net.params[i] = orig - h
        lm = total_loss()
        net.params[i] = orig
        fd = (lp - lm) / (2 * h)
        assert fd == pytest.approx(analytic[i], rel=1e-4, abs=1e-9)


def test_train_validation_psnr_logged():
    imgs, cfg, desc = small_setup(epochs=1)
    rng = np.random.default_rng(cfg.seed)
    net = build_network(desc, rng)
    clean = texture_set(2, 16, 9)
    noisy = [c + 0.05 for c in clean]
    log = train(imgs, cfg, net, validation=list(zip(clean, noisy)), rng=rng)
    assert np.isfinite(log[0]["psnr_val"])


def test_train_rejects_bad_inputs():
    imgs, cfg, desc = small_setup()
    net = build_network(desc, np.random.default_rng(0))
    with pytest.raises(ValueError):
        train([], cfg, net)
    from dataclasses import replace

    with pytest.raises(ValueError):
        train(imgs, replace(cfg, crop=64), net)  # crop larger than images
    with pytest.raises(ValueError):
        train(imgs, replace(cfg, crop=14), net)  # not divisible by 2^(depth+1)


def test_fixlocation_sampler_trains():
    imgs, cfg, desc = small_setup(sampler="fix-location", epochs=1)
    rng = np.random.default_rng(cfg.seed)
    net = build_network(desc, rng)
    log = train(imgs, cfg, net, rng=rng)
    assert np.isfinite(log[0]["loss_rec"])


# -- inference --------------------------------------------------------------


def test_denoise_image_identity_checkpoint():
    net = identity_net()
    img = np.random.default_rng(8).random((16, 16, 1)).astype(np.float32)
    np.testing.assert_allclose(denoise_image(net, img), img, atol=1e-7)


def test_denoise_image_pads_odd_sizes():
    desc = ArchDescriptor(1, 2, 4, 1)
    net = build_network(desc, np.random.default_rng(9))
    img = np.random.default_rng(10).random((65, 65, 1)).astype(np.float32)
    out = denoise_image(net, img)
    assert out.shape == (65, 65, 1)


def test_denoise_image_deterministic():
    desc = ArchDescriptor(1, 1, 4, 1)
    net = build_network(desc, np.random.default_rng(11))
    img = np.random.default_rng(12).random((16, 16, 1)).astype(np.float32)
    np.testing.assert_array_equal(denoise_image(net, img), denoise_image(net, img))


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_receptive_halo_pinned(depth):
    # radius 1/8/22/46; without the pool-grid rounding depth 2 would read 20
    for tail in (0, 3):
        assert receptive_halo(ArchDescriptor(1, depth, 6, tail)) == [1, 8, 24, 48][depth]


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("tail", [0, 3])
def test_tiled_denoise_matches_one_pass(depth, tail):
    # 16-px tiles; sizes: odd, within one tile, an exact tile multiple, one
    # side above a tile with the other below
    desc = ArchDescriptor(1, depth, 4, tail)
    net = build_network(desc, np.random.default_rng(depth))
    halo, step = receptive_halo(desc), 1 << depth
    rng = np.random.default_rng(20 + tail)
    for shape in [(37, 53), (13, 11), (32, 48), (41, 9)]:
        img = rng.random(shape + (1,)).astype(np.float32)
        whole = _denoise_tiles(net, img, 10**6, 0)
        np.testing.assert_allclose(_denoise_tiles(net, img, 16, halo), whole, rtol=0, atol=1e-5)
    # a halo one pooling-grid step short changes the output of the tiles
    # whose windows it leaves unclipped (here, in the rows)
    img = rng.random((4 * halo + 16, 24, 1)).astype(np.float32)
    whole = _denoise_tiles(net, img, 10**6, 0)
    np.testing.assert_allclose(_denoise_tiles(net, img, 16, halo), whole, rtol=0, atol=1e-5)
    assert np.abs(_denoise_tiles(net, img, 16, halo - step) - whole).max() > 1e-4


def test_tiled_denoise_pinned():
    net = build_network(ArchDescriptor(3, 2, 6, 2), np.random.default_rng(1))
    img = np.random.default_rng(2).random((37, 53, 3)).astype(np.float32)
    out = _denoise_tiles(net, img, 16, receptive_halo(net.descriptor))  # 3 x 4 tiles
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "f117b67ca9951501a57068cd3179f7f90201394bad4c573d755c146c6af2e023")


def test_denoise_image_is_one_pass_within_a_tile():
    net = build_network(ArchDescriptor(3, 2, 4, 1), np.random.default_rng(13))
    img = np.random.default_rng(14).random((TILE - 3, 21, 3)).astype(np.float32)
    padded = np.pad(img, ((0, 3), (0, 3), (0, 0)), mode="reflect")
    np.testing.assert_array_equal(denoise_image(net, img),
                                  net.forward(padded[None], record=False)[0, : TILE - 3, :21])


def test_tiled_denoise_memory_does_not_grow_with_area():
    # beyond its own copies of the image (padded input, output), a pass
    # needs one window's activations, whatever the image area
    net = build_network(ArchDescriptor(1, 2, 8, 1), np.random.default_rng(15))
    peaks = []
    for side in (96, 256):
        img = np.random.default_rng(side).random((side, side, 1)).astype(np.float32)
        tracemalloc.start()
        try:
            _denoise_tiles(net, img, 32, receptive_halo(net.descriptor))
            peaks.append(tracemalloc.get_traced_memory()[1] - 2 * img.nbytes)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]  # a one-pass denoise reads about 7x here
