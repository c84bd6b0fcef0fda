import hashlib
import itertools
import json
import struct
import tracemalloc

import numpy as np
import pytest

from nbr2nbr import network
from nbr2nbr.network import (
    LEAKY_SLOPE,
    MAX_DEPTH,
    ArchDescriptor,
    ConvSpec,
    Network,
    build_network,
    gradient_check,
    layer_plan,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
    _Conv,
    _leaky_relu,
    _pool,
)


def test_parameter_count_single_conv():
    # depth=0, tail=0: one 3x3 conv C->C, so 9*C^2 + C parameters
    for c in (1, 3):
        d = ArchDescriptor(c, depth=0, base_width=7, tail_1x1=0)
        assert parameter_count(d) == 9 * c * c + c


def test_parameter_count_depth1_hand_sum():
    # depth=1, C_in=1, width=8, tail=3; per-layer arithmetic:
    # enc:   conv3 1->8   9*1*8+8    = 80
    #        conv3 8->8   9*8*8+8    = 584
    # bottom conv3 8->16  9*8*16+16  = 1168
    #        conv3 16->16 9*16*16+16 = 2320
    # dec:   conv3 24->8  9*24*8+8   = 1736   (16 up + 8 skip channels)
    #        conv3 8->8              = 584
    # tail:  1x1 8->8 twice          = 72 + 72
    #        1x1 8->1                = 9
    expected = 80 + 584 + 1168 + 2320 + 1736 + 584 + 72 + 72 + 9
    assert parameter_count(ArchDescriptor(1, 1, 8, 3)) == expected


# parameter counts of earlier releases, keyed (input_channels, depth,
# base_width, tail_1x1): width 6 over channels x depth x tail, and three more
PINNED_COUNTS = {
    (1, 0, 6, 0): 10, (1, 0, 6, 1): 67, (1, 0, 6, 2): 109, (1, 0, 6, 3): 151,
    (1, 1, 6, 0): 2531, (1, 1, 6, 1): 3673, (1, 1, 6, 2): 3715, (1, 1, 6, 3): 3757,
    (1, 2, 6, 0): 15563, (1, 2, 6, 1): 16705, (1, 2, 6, 2): 16747, (1, 2, 6, 3): 16789,
    (1, 3, 6, 0): 67547, (1, 3, 6, 1): 68689, (1, 3, 6, 2): 68731, (1, 3, 6, 3): 68773,
    (3, 0, 6, 0): 84, (3, 0, 6, 1): 189, (3, 0, 6, 2): 231, (3, 0, 6, 3): 273,
    (3, 1, 6, 0): 3039, (3, 1, 6, 1): 3795, (3, 1, 6, 2): 3837, (3, 1, 6, 3): 3879,
    (3, 2, 6, 0): 16071, (3, 2, 6, 1): 16827, (3, 2, 6, 2): 16869, (3, 2, 6, 3): 16911,
    (3, 3, 6, 0): 68055, (3, 3, 6, 1): 68811, (3, 3, 6, 2): 68853, (3, 3, 6, 3): 68895,
    (1, 0, 1, 0): 10, (1, 1, 8, 0): 4379, (1, 2, 24, 3): 266305,
}


@pytest.mark.parametrize("arch", sorted(PINNED_COUNTS))
def test_architecture_pinned(arch):
    d = ArchDescriptor(*arch)
    assert parameter_count(d) == PINNED_COUNTS[arch]
    plan = layer_plan(d)
    convs = [s for s in plan if isinstance(s, ConvSpec)]
    assert convs[-1].c_out == d.input_channels and not convs[-1].act
    assert all(s.act for s in convs[:-1])
    # the channels chain through the plan: a pool keeps a skip, an up appends it
    c, skips = d.input_channels, []
    for s in plan:
        if s == "pool":
            skips.append(c)
        elif s == "up":
            c += skips.pop()
        else:
            assert s.c_in == c
            c = s.c_out
    net = build_network(d, np.random.default_rng(0))
    assert [conv.w.shape for conv in net.convs] == [(s.ksize, s.ksize, s.c_in, s.c_out)
                                                   for s in convs]


def test_default_initialisation_pinned():
    net = build_network(ArchDescriptor(3, 2, 24, 3), np.random.default_rng(0))
    assert hashlib.sha256(net.params.tobytes()).hexdigest() == (
        "fb336f60eea12f47ab2651e5e72018808133b7a33546f1ad997cac57787f59d4")


def test_build_deterministic():
    d = ArchDescriptor(1, 1, 4, 2)
    a = build_network(d, np.random.default_rng(11))
    b = build_network(d, np.random.default_rng(11))
    np.testing.assert_array_equal(a.params, b.params)


def test_identity_1x1_network():
    # single conv (depth 0, tail 0) configured as identity on 1 channel:
    # center tap 1, everything else 0
    d = ArchDescriptor(1, 0, 1, 0)
    net = Network(d, np.zeros(parameter_count(d), dtype=np.float32))
    w = net.convs[0].w  # (3,3,1,1)
    w[1, 1, 0, 0] = 1.0
    x = np.random.default_rng(0).random((1, 8, 8, 1)).astype(np.float32)
    np.testing.assert_allclose(net.forward(x), x, atol=1e-7)


def test_single_conv_delta_response():
    # all-ones 3x3 kernel on a centered delta -> 3x3 block of ones
    d = ArchDescriptor(1, 0, 1, 0)
    net = Network(d, np.zeros(parameter_count(d), dtype=np.float32))
    net.convs[0].w[:] = 1.0
    x = np.zeros((1, 5, 5, 1), dtype=np.float32)
    x[0, 2, 2, 0] = 1.0
    out = net.forward(x)[0, :, :, 0]
    expected = np.zeros((5, 5))
    expected[1:4, 1:4] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_zero_parameters_zero_output():
    d = ArchDescriptor(1, 1, 4, 2)
    net = Network(d, np.zeros(parameter_count(d), dtype=np.float32))
    x = np.random.default_rng(1).random((1, 8, 8, 1)).astype(np.float32)
    assert np.all(net.forward(x) == 0.0)


def test_shape_preserved():
    for depth in (0, 1, 2):
        d = ArchDescriptor(3, depth, 6, 3)
        net = build_network(d, np.random.default_rng(2))
        x = np.random.default_rng(3).random((2, 16, 16, 3)).astype(np.float32)
        assert net.forward(x).shape == x.shape


def test_forward_rejects_bad_shapes():
    d = ArchDescriptor(1, 2, 4, 1)
    net = build_network(d, np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 10, 10, 1)))  # not divisible by 4
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 8, 8, 3)))  # wrong channels


def test_backward_without_forward_raises():
    d = ArchDescriptor(1, 0, 1, 0)
    net = build_network(d, np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        net.backward(np.zeros((1, 4, 4, 1)))


def test_backward_consumes_the_tape():
    d = ArchDescriptor(1, 2, 4, 1)
    net = build_network(d, np.random.default_rng(0))
    out = net.forward(np.random.default_rng(1).random((1, 8, 8, 1)))
    net.backward(np.ones_like(out))
    with pytest.raises(RuntimeError):
        net.backward(np.ones_like(out))


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_unrecorded_pass_leaves_the_tape(depth):
    # the training loop's order: taped forward, no-gradient forward of
    # another input, then backward of the taped pass
    d = ArchDescriptor(1, depth, 4, 2)
    rng = np.random.default_rng(2)
    x, other = rng.random((1, 8, 8, 1)), rng.random((2, 16, 16, 1))
    up = rng.standard_normal((1, 8, 8, 1))
    runs = []
    for interleave in (False, True):
        net = build_network(d, np.random.default_rng(3))
        net.forward(x)
        if interleave:
            net.forward(other, record=False)
        gin = net.backward(up)
        runs.append((gin, net.grads.copy()))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    np.testing.assert_array_equal(runs[0][1], runs[1][1])


def test_identity_conv_weight_gradient_is_sum_of_inputs():
    # loss = sum(out) for a 1x1 conv: d/dw = sum over positions of input
    d = ArchDescriptor(1, 0, 1, 1)  # conv3 1->1, then 1x1 1->1
    net = Network(d, np.zeros(parameter_count(d), dtype=np.float32))
    net.convs[0].w[1, 1, 0, 0] = 1.0  # body = identity
    net.convs[1].w[0, 0, 0, 0] = 1.0  # tail = identity
    x = np.random.default_rng(4).random((1, 6, 6, 1)).astype(np.float32)
    out = net.forward(x)
    net.zero_grad()
    net.backward(np.ones_like(out))
    # tail 1x1 weight gradient = sum of its inputs = sum of x (body is identity)
    np.testing.assert_allclose(net.convs[1].gw[0, 0, 0, 0], x.sum(), rtol=1e-5)
    # bias gradients equal number of output elements
    np.testing.assert_allclose(net.convs[1].gb[0], out.size, rtol=1e-6)


def test_zero_upstream_zero_gradient():
    d = ArchDescriptor(1, 1, 4, 1)
    net = build_network(d, np.random.default_rng(5))
    x = np.random.default_rng(6).random((1, 8, 8, 1)).astype(np.float32)
    net.forward(x)
    net.zero_grad()
    net.backward(np.zeros((1, 8, 8, 1)))
    assert np.all(net.grads == 0.0)


def test_gradient_check_linear_network():
    # no activations: depth 0, tail 0 is a single linear conv
    d = ArchDescriptor(1, 0, 1, 0)
    net = build_network(d, np.random.default_rng(7))
    x = np.random.default_rng(8).standard_normal((1, 8, 8, 1))
    rep = gradient_check(net, x, h=1e-4, tol=1e-6)
    assert rep["passed"], rep["max_rel_error"]


def test_gradient_check_two_layer_leaky():
    d = ArchDescriptor(1, 0, 6, 2)  # conv3 + lrelu + 1x1 + lrelu + 1x1
    net = build_network(d, np.random.default_rng(9))
    # perturb input away from exact activation kinks
    x = np.random.default_rng(10).standard_normal((1, 8, 8, 1)) + 0.01
    rep = gradient_check(net, x, h=1e-4, tol=1e-3)
    assert rep["passed"], rep["max_rel_error"]


def test_gradient_check_unet():
    d = ArchDescriptor(1, 1, 4, 2)
    net = build_network(d, np.random.default_rng(12))
    x = np.random.default_rng(13).standard_normal((1, 8, 8, 1)) + 0.01
    rep = gradient_check(net, x, h=1e-4, tol=1e-3, n_params=150)
    assert rep["passed"], rep["max_rel_error"]


def test_gradient_check_zero_input():
    d = ArchDescriptor(1, 0, 1, 0)
    net = build_network(d, np.random.default_rng(14))
    x = np.zeros((1, 4, 4, 1))
    net64 = net.astype(np.float64)
    out = net64.forward(x)
    net64.backward(out)
    assert np.all(net64.grads == 0.0)


def test_gradient_check_fails_on_a_nan_parameter():
    net = build_network(ArchDescriptor(1, 1, 4, 1), np.random.default_rng(16))
    net.params[5] = np.nan
    x = np.random.default_rng(17).standard_normal((1, 8, 8, 1))
    with np.errstate(invalid="ignore"):
        rep = gradient_check(net, x, n_params=20)
    assert np.isnan(rep["max_rel_error"]) and not rep["passed"]


def test_forward_bit_reproducible():
    d = ArchDescriptor(1, 2, 8, 3)
    net = build_network(d, np.random.default_rng(15))
    x = np.random.default_rng(16).random((1, 16, 16, 1)).astype(np.float32)
    a = net.forward(x, record=False)
    b = net.forward(x, record=False)
    np.testing.assert_array_equal(a, b)


def test_checkpoint_roundtrip(tmp_path):
    d = ArchDescriptor(3, 1, 5, 2)
    net = build_network(d, np.random.default_rng(17))
    path = tmp_path / "m.n2nckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.descriptor == d
    np.testing.assert_array_equal(loaded.params, net.params)
    assert path.read_bytes()[:8] == b"N2NCKPT1"


def test_checkpoint_rejects_mismatched_count(tmp_path):
    d = ArchDescriptor(1, 0, 1, 0)
    net = build_network(d, np.random.default_rng(18))
    path = tmp_path / "m.n2nckpt"
    save_checkpoint(net, path)
    blob = bytearray(path.read_bytes())
    blob = blob[:-4]  # drop one float
    bad = tmp_path / "bad.n2nckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_checkpoint(bad)


def _checkpoint_blob(desc: dict, count: int, payload: bytes = b"") -> bytes:
    text = json.dumps(desc).encode()
    return (b"N2NCKPT1" + struct.pack("<I", len(text)) + text + struct.pack("<Q", count)
            + payload)


TINY = {"input_channels": 1, "depth": 0, "base_width": 1, "tail_1x1": 0}  # 10 parameters


@pytest.mark.parametrize("value", [None, [1], 1.0, True, "1"])
def test_checkpoint_descriptor_fields_must_be_json_integers(tmp_path, value):
    path = tmp_path / "m.n2nckpt"
    path.write_bytes(_checkpoint_blob(dict(TINY, depth=value), 10, bytes(40)))
    with pytest.raises(ValueError, match="must be integers: depth"):
        load_checkpoint(path)


@pytest.mark.parametrize("desc,count", [
    (dict(TINY, depth=10**6), 1),  # no u64 count fits past MAX_DEPTH
    (dict(TINY, tail_1x1=5 * 10**6), 1),  # more tail convs than parameters
    (TINY, 10**12),  # a count the payload does not hold
], ids=["deep", "long-tail", "short-payload"])
def test_oversized_checkpoint_rejected_before_layer_plan(tmp_path, monkeypatch, desc, count):
    path = tmp_path / "m.n2nckpt"
    path.write_bytes(_checkpoint_blob(desc, count, bytes(4)))

    def no_plan(d):
        raise AssertionError(f"layer_plan ran on {d}")

    monkeypatch.setattr(network, "layer_plan", no_plan)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_depth_bound():
    assert parameter_count(ArchDescriptor(1, MAX_DEPTH, 1, 0)) < 2**64
    with pytest.raises(ValueError):
        ArchDescriptor(1, MAX_DEPTH + 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_bitwise_and_mask_from_input(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    x = np.array([-3.0, -tiny, -0.0, 0.0, tiny, 2.5, np.nan], dtype=dtype)
    out, back = _leaky_relu(x)
    expected = np.where(x >= 0, x, LEAKY_SLOPE * x)
    assert out.tobytes() == expected.tobytes()
    assert np.signbit(out[1]) and out[1] == 0  # slope * -tiny underflows to -0.0
    grad = back(np.ones_like(x))
    # the mask comes from x: -tiny is negative though its output is -0.0
    np.testing.assert_array_equal(grad[:6], np.array([LEAKY_SLOPE, LEAKY_SLOPE, 1, 1, 1, 1], dtype))


WINDOW = [(0, 0), (0, 1), (1, 0), (1, 1)]  # argmax's order over a 2x2 window


def _tied_windows(shape, dtype, rng):
    """Random values in which window k of the pool's output grid holds
    1 + k % 4 copies of its maximum at random positions."""
    x = rng.standard_normal(shape).astype(dtype)
    n, h, w, c = shape
    for k, (b, y, xx, ch) in enumerate(np.ndindex(n, h // 2, w // 2, c)):
        top = x[b, 2 * y : 2 * y + 2, 2 * xx : 2 * xx + 2, ch].max()
        for i, j in rng.permutation(WINDOW)[: 1 + k % 4]:
            x[b, 2 * y + i, 2 * xx + j, ch] = top
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_matches_loop_oracle_with_ties(dtype):
    rng = np.random.default_rng(30)
    x = _tied_windows((2, 6, 8, 3), dtype, rng)
    grad = rng.standard_normal((2, 3, 4, 3)).astype(dtype)
    skip_grad = rng.standard_normal(x.shape).astype(dtype)
    want_out, want_gx, ties = np.empty(grad.shape, dtype), np.zeros_like(x), set()
    for b, y, xx, ch in np.ndindex(grad.shape):
        vals = [x[b, 2 * y + i, 2 * xx + j, ch] for i, j in WINDOW]
        ties.add(vals.count(max(vals)))
        k = vals.index(max(vals))  # the first max wins
        want_out[b, y, xx, ch] = vals[k]
        i, j = WINDOW[k]
        want_gx[b, 2 * y + i, 2 * xx + j, ch] = grad[b, y, xx, ch]
    assert ties == {1, 2, 3, 4}
    skips, skip_grads = [], [skip_grad]
    out, back = _pool(x, skips, skip_grads)
    assert len(skips) == 1 and skips[0] is x and out.dtype == dtype
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(back(grad), want_gx + skip_grad)
    assert skip_grads == []


def _conv_loop_oracle(x, w, b, g, skip=None):
    """float64 nested loops: explicit zero padding, then each output pixel
    summed over the taps and the input channels; with the gradients of
    sum(out * g). With a skip, the conv runs over concat(up(x), skip), built
    pixel by pixel, and the input gradient is split into (g_x, g_skip)."""
    x, w, b, g = (a.astype(np.float64) for a in (x, w, b, g))
    c_up = x.shape[3]
    if skip is not None:
        u, x = x, np.concatenate([np.zeros(skip.shape[:3] + (c_up,)), skip], axis=3)
        for i, y, xx in np.ndindex(x.shape[:3]):
            x[i, y, xx, :c_up] = u[i, y // 2, xx // 2]
    k, _, c_in, _ = w.shape
    p = k // 2
    n, h, wd, _ = x.shape
    xp = np.zeros((n, h + 2 * p, wd + 2 * p, c_in))
    xp[:, p : p + h, p : p + wd] = x
    out, gw, gxp = np.zeros(g.shape), np.zeros(w.shape), np.zeros(xp.shape)
    for i, y, xx, dy, dx, ci in itertools.product(
            range(n), range(h), range(wd), range(k), range(k), range(c_in)):
        out[i, y, xx] += xp[i, y + dy, xx + dx, ci] * w[dy, dx, ci]
        gw[dy, dx, ci] += xp[i, y + dy, xx + dx, ci] * g[i, y, xx]
        gxp[i, y + dy, xx + dx, ci] += w[dy, dx, ci] @ g[i, y, xx]
    gx = gxp[:, p : p + h, p : p + wd]
    if skip is None:
        return out + b, gw, g.sum(axis=(0, 1, 2)), gx
    gu = np.zeros(u.shape)
    for i, y, xx in np.ndindex(gx.shape[:3]):
        gu[i, y // 2, xx // 2] += gx[i, y, xx, :c_up]
    return out + b, gw, g.sum(axis=(0, 1, 2)), gu, gx[..., c_up:]


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("c_in,c_out", [(1, 24), (3, 24), (24, 3)])
def test_conv_matches_loop_oracle(dtype, tol, k, c_in, c_out):
    # 1 and 3 input channels take the unfolded GEMM forward and 24 the per-tap
    # one; the input gradient correlates c_out channels, so it takes the other
    rng = np.random.default_rng(32)
    x, w, b, g = (rng.standard_normal(s).astype(dtype) for s in (
        (2, 5, 6, c_in), (k, k, c_in, c_out), (c_out,), (2, 5, 6, c_out)))
    gw, gb = np.zeros_like(w), np.zeros_like(b)
    out, back = _Conv(w, b, gw, gb)(x)
    gx = back(g)
    for got, want in zip((out, gw, gb, gx), _conv_loop_oracle(x, w, b, g)):
        assert got.dtype == dtype and got.shape == want.shape
        # relative to the largest entry: single entries may cancel to near zero
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


@pytest.mark.parametrize("band", [1, 2 * 6 * 24, 3 * 6 * 24])  # 1, 2 and 3 rows of 6 x 24 floats
def test_correlate_bands_give_the_same_bytes(band, monkeypatch):
    rng = np.random.default_rng(39)
    x = rng.standard_normal((2, 7, 6, 5)).astype(np.float32)
    taps = [(t, rng.standard_normal((5, 24)).astype(np.float32)) for t in np.ndindex(3, 3)]
    whole = network._correlate(x, taps, 1)
    monkeypatch.setattr(network, "BAND", band)
    assert network._correlate(x, taps, 1).tobytes() == whole.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_pad_gives_the_bytes_of_np_pad(dtype, p):
    special = [-0.0, 0.0, np.nan, -np.inf, np.inf, -2.5]
    x = np.resize(np.array(special + [1.5], dtype), (2, 3, 5, 4))
    want = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    got = network._pad(x, p)
    assert got.dtype == dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


_PHASE_OFFSETS = [[(a + i, b + j) for i, j in itertools.product((0, 1), repeat=2)]
                  for a, b in itertools.product((0, 1), repeat=2)]  # after_up's 2x2 taps


@pytest.mark.parametrize("band", [1, 1 << 17])
@pytest.mark.parametrize("c_in", [3, 6])
@pytest.mark.parametrize("h,w", [(1, 1), (1, 2), (1, 5), (3, 1), (4, 2), (5, 6)])
@pytest.mark.parametrize("offsets", [list(itertools.product(range(3), repeat=2)), [(0, 0)]]
                         + _PHASE_OFFSETS, ids=["3x3", "1x1"] + [f"phase{i}" for i in range(4)])
def test_correlate_matches_loop_oracle_at_edge_geometries(band, c_in, h, w, offsets, monkeypatch):
    # a 1x1 tap runs at p = 0; any other tap set is a subset of the 3x3 taps at
    # p = 1, and the oracle's weight is zero at the taps the set leaves out
    monkeypatch.setattr(network, "BAND", band)
    rng = np.random.default_rng(40)
    k = 1 if offsets == [(0, 0)] else 3
    x = rng.standard_normal((2, h, w, c_in))
    wt = np.zeros((k, k, c_in, 5))
    for t in offsets:
        wt[t] = rng.standard_normal((c_in, 5))
    got = network._correlate(x, [(t, wt[t]) for t in offsets], k // 2)
    want = _conv_loop_oracle(x, wt, np.zeros(5), np.zeros((2, h, w, 5)))[0]
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_correlate_plan_cache_hit_gives_the_bytes_of_a_cold_run():
    rng = np.random.default_rng(41)
    taps = [(t, rng.standard_normal((6, 7)).astype(np.float32))
            for t in itertools.product(range(3), repeat=2)]
    x1, x2 = (rng.standard_normal((2, 9, 5, 6)).astype(np.float32) for _ in range(2))
    network._correlate(x1, taps, 1)
    hits = network._band_plan.cache_info().hits
    warm = network._correlate(x2, taps, 1)
    assert network._band_plan.cache_info().hits == hits + 1
    network._band_plan.cache_clear()
    cold = network._correlate(x2, taps, 1)
    assert network._band_plan.cache_info().misses == 1
    assert warm.tobytes() == cold.tobytes()


def test_plan_cache_stays_bounded_over_many_window_shapes():
    from nbr2nbr.training import denoise_image

    net = build_network(ArchDescriptor(1, 1, 4, 1), np.random.default_rng(42))
    network._band_plan.cache_clear()
    for i in range(50):  # each image fits in one tile: one window shape per image
        denoise_image(net, np.random.default_rng(i).random((2 + 2 * i, 100 - 2 * i, 1)))
    info = network._band_plan.cache_info()
    assert info.misses > info.maxsize and info.currsize <= info.maxsize


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("c_up,c_skip,c_out,uh,uw", [
    pytest.param(*c, *u, id="-".join(map(str, c)) + ("" if u == (3, 5) else f"-u{u[0]}x{u[1]}"))
    for u in [(3, 5), (1, 1), (1, 4)] for c in [(2, 5, 6), (7, 3, 2), (12, 6, 4)]])
def test_conv_after_up_matches_loop_oracle(dtype, tol, c_up, c_skip, c_out, uh, uw):
    # u of 3 x 5 pixels: odd and unequal edges; of 1 x 1 and 1 x 4, as a deep
    # net's bottleneck on a small input, where the phase taps read mostly padding.
    # c_up 2 and c_skip 3 take the unfolded GEMM forward, c_out 2 and 4 the
    # unfolded and per-tap input gradient
    rng = np.random.default_rng(33)
    u, skip, w, b, g = (rng.standard_normal(s).astype(dtype) for s in (
        (2, uh, uw, c_up), (2, 2 * uh, 2 * uw, c_skip), (3, 3, c_up + c_skip, c_out), (c_out,),
        (2, 2 * uh, 2 * uw, c_out)))
    gw, gb, skips, skip_grads = np.zeros_like(w), np.zeros_like(b), [skip], []
    out, back = _Conv(w, b, gw, gb).after_up(u, skips, skip_grads)
    gu = back(g)
    assert skips == [] and len(skip_grads) == 1
    for got, want in zip((out, gw, gb, gu, skip_grads[0]), _conv_loop_oracle(u, w, b, g, skip)):
        assert got.dtype == dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


def _concat_after_up(conv, u, skips, skip_grads):
    """The conv over concat(up(u), skip), built at full resolution."""
    n, h, w, c = u.shape
    out, back = conv(np.concatenate([u.repeat(2, axis=1).repeat(2, axis=2), skips.pop()], axis=3))

    def back_cat(grad):
        g = back(grad)
        skip_grads.append(g[..., c:])
        return g[..., :c].reshape(n, h, 2, w, 2, c).sum(axis=(2, 4))

    return out, back_cat


@pytest.mark.parametrize("desc", [ArchDescriptor(1, 2, 6, 0), ArchDescriptor(1, 3, 4, 3),
                                  ArchDescriptor(3, 2, 5, 3), ArchDescriptor(3, 3, 2, 0)])
def test_phase_path_matches_concat_path(desc, monkeypatch):
    net = build_network(desc, np.random.default_rng(34)).astype(np.float64)
    x = np.random.default_rng(35).random((2, 3 << desc.depth, 5 << desc.depth, desc.input_channels))

    def run():
        net.zero_grad()
        out = net.forward(x)
        return out, net.backward(out), net.grads.copy()

    fused, calls = run(), []
    monkeypatch.setattr(_Conv, "after_up", lambda *a: calls.append(a) or _concat_after_up(*a))
    concat = run()  # every "up" concatenated
    assert len(calls) == desc.depth
    for got, want in zip(fused, concat):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_backward_bytes_match_where(dtype):
    special = [-0.0, 0.0, np.nan, -np.inf, np.inf, -2.5, 3.0]
    rng = np.random.default_rng(36)
    x, g = (np.concatenate([a.ravel(), rng.standard_normal(1000)]).astype(dtype)
            for a in np.meshgrid(special, special))
    _, back = _leaky_relu(x)
    got, want = back(g), np.where(x >= 0, g, LEAKY_SLOPE * g)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_no_grad_desk_forward_builds_no_full_resolution_concat():
    # a 304^2 window of denoise_image: each decoder "up" runs inside its conv.
    # Traced peak 25.0 MB; 39.9 MB with full-resolution concats, 71.3 MB with
    # padded conv inputs too
    net = build_network(ArchDescriptor(3), np.random.default_rng(37))
    x = np.random.default_rng(38).random((1, 304, 304, 3)).astype(np.float32)
    tracemalloc.start()
    try:
        net.forward(x, record=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
