"""A small differentiable convolutional denoiser with analytic gradients.

Architecture family: an encoder/decoder stack with skip connections
(3x3 convs, leaky-ReLU 0.1, 2x max-pool down, 2x nearest-neighbor up)
followed by a tail of 1x1 convolutions, the last one linear. depth=0
degenerates to a plain conv stack. The denoiser is resolution
preserving: all 3x3 convs use zero padding 1. layer_plan is the one
definition of the architecture: the parameter count and layout,
build_network's initialisation and Network.forward all walk its ops.

Activations are (N, H, W, C) float32 arrays ("Tensor4"); parameters
live in one flat float32 vector with views per layer, in plan order:
for each conv, weight (k, k, c_in, c_out) row-major, then bias
(c_out,). Gradients mirror the parameter vector. Loss reductions and
the finite-difference gradient check run in float64.

A conv is one kernel, _correlate: the sum over its k*k taps of a shifted
view of the zero-padded input times that tap's (c_in, c_out) matrix. An
input of fewer than UNFOLD_BELOW channels (an image's 1 or 3) is padded
and unfolded into one GEMM. Otherwise each band of BAND output floats
(it stays in cache) takes one GEMM per tap over the input rows the tap
reads; the column shift is a shift of the flat band, with the wrapped
column zeroed, so no padded copy is made and every add is contiguous.
The input gradient is the same kernel with flipped, transposed weights;
the weight gradient is one GEMM per tap over the padded input.

Each "up" runs inside the conv after it, _Conv.after_up, which never
builds concat(up(u), skip): the skip's channels keep their 3x3 taps, and
output phase (a, b) adds a 2x2 conv of u (rows: phase 0 reads offsets
-1, 0 with w0, w1 + w2; phase 1 reads 0, +1 with w0 + w1, w2; columns
alike), 16 taps at a quarter of the pixels for 9 at all of them.

Autodiff is a closure tape. Each op (conv, leaky-ReLU, pool, upsample
and conv) returns its output with a closure that maps the gradient of
that output to the gradient of its input (for a pool, plus that of its
input's use as a skip). A recorded forward pass appends the closures in
order; backward calls them in reverse. An unrecorded pass (inference,
the training loop's no-gradient pass) keeps no closure, so each
activation is freed once no op needs it.

Checkpoint format: magic b"N2NCKPT1", u32-LE byte length + UTF-8 JSON
architecture descriptor, u64-LE parameter count, raw float32-LE
parameter values in the layer order above.
"""

from __future__ import annotations

import functools
import itertools
import json
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

CHECKPOINT_MAGIC = b"N2NCKPT1"
LEAKY_SLOPE = 0.1
UNFOLD_BELOW = 4  # 6 or more input channels ran faster per tap than unfolded
BAND = 1 << 17  # floats of output per band of _correlate
MAX_DEPTH = 29  # the two bottleneck convs of depth 30 have 2 * 9 * 4**30 > 2**64 weights


@dataclass(frozen=True)
class ArchDescriptor:
    """Shape of the denoiser: channels in, number of down/up levels,
    channel width at the first level, and trailing 1x1 conv count."""

    input_channels: int
    depth: int = 2
    base_width: int = 24
    tail_1x1: int = 3

    def __post_init__(self):
        if self.input_channels not in (1, 3):
            raise ValueError("input_channels must be 1 or 3")
        if not 0 <= self.depth <= MAX_DEPTH or self.tail_1x1 < 0 or self.base_width < 1:
            raise ValueError("invalid architecture descriptor")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArchDescriptor":
        d = json.loads(text)
        names = [f.name for f in fields(cls)]
        missing = [n for n in names if n not in d] if isinstance(d, dict) else names
        if missing:
            raise ValueError(f"architecture descriptor lacks {', '.join(missing)}")
        bad = [n for n in names if type(d[n]) is not int]
        if bad:
            raise ValueError(f"architecture descriptor values must be integers: {', '.join(bad)}")
        return cls(**{n: d[n] for n in names})


class ConvSpec(NamedTuple):
    """One conv of the layer plan."""

    ksize: int
    c_in: int
    c_out: int
    act: bool  # a leaky-ReLU follows


def layer_plan(d: ArchDescriptor) -> list:
    """The network's ops in layer order: a ConvSpec per conv, "pool" (2x
    max-pool that keeps its input as a skip) and "up" (2x upsample, then
    the newest skip appended). The last conv is linear and returns
    input_channels; with no 1x1 tail, so does the last body level."""
    widths = [d.base_width << i for i in range(d.depth + 1)]
    top = d.base_width if d.tail_1x1 else d.input_channels
    plan: list = []
    c = d.input_channels

    def conv(ksize: int, c_out: int) -> None:
        nonlocal c
        plan.append(ConvSpec(ksize, c, c_out, True))
        c = c_out

    if d.depth == 0:
        conv(3, top)
    else:
        for i in range(d.depth + 1):  # encoder levels, then the bottleneck
            if i:
                plan.append("pool")
            conv(3, widths[i])
            conv(3, widths[i])
        for i in range(d.depth - 1, -1, -1):  # decoder
            plan.append("up")
            c += widths[i]
            conv(3, widths[i] if i else top)
            conv(3, widths[i] if i else top)
    for j in range(d.tail_1x1):
        conv(1, d.input_channels if j == d.tail_1x1 - 1 else d.base_width)
    plan[-1] = plan[-1]._replace(act=False)
    return plan


def receptive_halo(d: ArchDescriptor) -> int:
    """Input pixels on each side of a window that its interior's outputs
    depend on: the receptive-field radius on the pooling grid (a conv adds
    ksize // 2 at its scale, a pool doubles the scale and rounds the radius
    up to it), rounded up to a multiple of 2^depth so the window keeps that
    grid."""
    radius, scale = 0, 1
    for s in layer_plan(d):
        if s == "pool":
            scale *= 2
            radius = -(-radius // scale) * scale
        elif s == "up":
            scale //= 2
        else:
            radius += s.ksize // 2 * scale
    mult = 1 << d.depth
    return -(-radius // mult) * mult


def check_input(d: ArchDescriptor, shape: tuple) -> None:
    """Refuse an input shape other than (N, H, W, input_channels) with H
    and W multiples of 2^depth."""
    if len(shape) != 4 or shape[3] != d.input_channels:
        raise ValueError(f"expected (N,H,W,{d.input_channels}) input, got {shape}")
    if d.depth and (shape[1] % (1 << d.depth) or shape[2] % (1 << d.depth)):
        raise ValueError(f"spatial dims {shape[1]}x{shape[2]} not divisible by 2^{d.depth}")


def parameter_count(d: ArchDescriptor) -> int:
    return sum(s.ksize**2 * s.c_in * s.c_out + s.c_out
               for s in layer_plan(d) if isinstance(s, ConvSpec))


class _Conv:
    """Zero-padded convolution over NHWC tensors; weight (k,k,cin,cout).
    Its backward step accumulates into the gradient views gw and gb."""

    def __init__(self, weight, bias, gw, gb):
        self.w = weight
        self.b = bias
        self.gw = gw
        self.gb = gb

    def __call__(self, x: np.ndarray):
        k = self.w.shape[0]
        taps = [(t, self.w[t], [self.gw[t]]) for t in itertools.product(range(k), repeat=2)]
        out, back_taps = _tap_conv(x, taps, k // 2)
        out += self.b

        def back(grad):
            self.gb += grad.sum(axis=(0, 1, 2))
            return back_taps(grad)

        return out, back

    def after_up(self, u: np.ndarray, skips: list, skip_grads: list):
        """This conv over concat(up(u), skip) for the skip popped from skips,
        without building it: 3x3 taps over the skip, 2x2 over u per output
        phase. The backward step pushes the skip's gradient onto skip_grads,
        for the pool of its level to pop."""
        n, h, w, cu = u.shape
        out, back_skip = _Conv(self.w[:, :, cu:], self.b, self.gw[:, :, cu:], self.gb)(skips.pop())
        grid = out.reshape(n, h, 2, w, 2, -1)
        backs = []
        for (a, b), sums in _PHASE_TAPS:
            taps = [(t, sum(self.w[s][:cu] for s in ts), [self.gw[s][:cu] for s in ts])
                    for t, ts in sums]
            phase, back = _tap_conv(u, taps, 1)
            grid[:, :, a, :, b] += phase
            backs.append((a, b, back))

        def back(grad):
            skip_grads.append(back_skip(grad))
            g = grad.reshape(grid.shape)
            return sum(bk(np.ascontiguousarray(g[:, :, a, :, b])) for a, b, bk in backs)

        return out, back


def _phase_taps(a: int, b: int) -> tuple:
    """Per tap of padded u, the 3x3 taps that read it at output phase (a, b)."""
    sums: dict = {}
    for t in itertools.product(range(3), repeat=2):
        sums.setdefault(((a + t[0] + 1) // 2, (b + t[1] + 1) // 2), []).append(t)
    return tuple(sums.items())


_PHASE_TAPS = tuple((ab, _phase_taps(*ab)) for ab in itertools.product((0, 1), repeat=2))


def _tap_conv(x: np.ndarray, taps: list, p: int):
    """_correlate(x, taps, p) for taps ((dy, dx), m, targets), with its backward:
    each tap's weight gradient, one GEMM over the padded input, is added into
    every array of its targets, and the input gradient correlates the output
    gradient with the flipped, transposed matrices."""
    h, w, c = x.shape[1:]
    out = _correlate(x, [(t, m) for t, m, _ in taps], p)

    def back(grad):
        g2, xp = grad.reshape(-1, grad.shape[3]), _pad(x, p)
        for (dy, dx), _, targets in taps:
            gm = np.ascontiguousarray(xp[:, dy : dy + h, dx : dx + w]).reshape(-1, c).T @ g2
            for target in targets:
                target += gm
        return _correlate(grad, [((2 * p - dy, 2 * p - dx), m.T) for (dy, dx), m, _ in taps], p)

    return out, back


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2 * p, w + 2 * p, c), x.dtype)
    xp[:, p : p + h, p : p + w] = x
    return xp


def _correlate(x: np.ndarray, taps: list, p: int) -> np.ndarray:
    """The sum over taps ((dy, dx), m) of _pad(x, p)[:, dy:dy+H, dx:dx+W] @ m,
    in tap order, as one unfolded GEMM or one GEMM per tap (module docstring)."""
    n, h, w, c = x.shape
    if c < UNFOLD_BELOW:
        xp = _pad(x, p)
        cols = np.concatenate([xp[:, dy : dy + h, dx : dx + w] for (dy, dx), _ in taps], axis=3)
        return (cols.reshape(-1, len(taps) * c) @ np.concatenate([m for _, m in taps])).reshape(
            n, h, w, -1)
    c_out = taps[0][1].shape[1]
    out = np.zeros((n, h, w, c_out), x.dtype)
    rows = max(1, BAND // (w * c_out))  # a band of output rows and its product stay in cache
    prod = np.empty((min(rows, h), w, c_out), x.dtype)
    flat = prod.reshape(-1)
    plan = _band_plan(h, w, c_out, p, tuple(t for t, _ in taps), rows)
    for i in range(n):
        for r0, r1, steps in plan:
            band = out[i, r0:r1].reshape(-1)
            for (src_rows, prod_rows, zeros, src, dst), (_, m) in zip(steps, taps):
                np.matmul(x[i, src_rows], m, out=prod[prod_rows])
                for z in zeros:
                    prod[z] = 0
                band[dst] += flat[src]
    return out


@functools.lru_cache(maxsize=128)
def _band_plan(h: int, w: int, c_out: int, p: int, offsets: tuple, rows: int) -> tuple:
    """_correlate's slices, which depend only on geometry: per band of output
    rows r0:r1 and per tap, the input rows the tap reads, the product rows they
    fill, the non-empty product slices to zero (rows without a source, the
    column that the flat shift wraps), and the flat source and target slices of
    the shift by the tap's column offset."""
    plan = []
    for r0 in range(0, h, rows):
        nb = min(rows, h - r0)
        steps = []
        for dy, dx in offsets:
            lo = max(0, p - dy - r0)
            hi = max(lo, min(nb, h + p - dy - r0))  # rows with a source
            zeros = [((slice(0, lo),), lo), ((slice(hi, nb),), nb - hi),
                     ((slice(0, nb), slice(0, dx - p)), dx - p),
                     ((slice(0, nb), slice(w + dx - p, w)), p - dx)]
            d, size = (dx - p) * c_out, nb * w * c_out
            steps.append((slice(r0 + dy - p + lo, r0 + dy - p + hi), slice(lo, hi),
                          tuple(z for z, length in zeros if length > 0),
                          slice(max(d, 0), size + min(d, 0)), slice(max(-d, 0), size + min(-d, 0))))
        plan.append((r0, r0 + nb, tuple(steps)))
    return tuple(plan)


def _leaky_relu(x: np.ndarray):
    # bit-identical to where(x >= 0, x, slope * x); backward masks by x: -0.0 outputs would flip it.
    # The backward's factor mask * (1 - slope) + slope is exactly 1 or slope in g's dtype,
    # so it gives the bytes of where(x >= 0, g, slope * g)
    y = LEAKY_SLOPE * x
    return np.maximum(x, y, out=y), lambda g: g * (
        (x >= 0) * g.dtype.type(1 - LEAKY_SLOPE) + g.dtype.type(LEAKY_SLOPE))


def _pool(x: np.ndarray, skips: list, skip_grads: list):
    """2x max-pool: np.maximum(view, max so far) over x's four strided views in
    argmax's window order; np.maximum returns its second operand on an equal
    compare on x86, so the first max wins (elsewhere a -0.0/+0.0 tie may give
    +0.0). x is pushed onto skips. Backward builds a mask per view when it runs
    (equal to the max, and no earlier view was), then adds the skip gradient from skip_grads."""
    skips.append(x)
    out = np.maximum(x[:, 0::2, 1::2], x[:, 0::2, 0::2])
    for i, j in ((1, 0), (1, 1)):
        np.maximum(x[:, i::2, j::2], out, out=out)

    def back(grad):
        gx, free = np.empty(x.shape, grad.dtype), np.ones(out.shape, bool)
        for i, j in np.ndindex(2, 2):
            hit = (x[:, i::2, j::2] == out) & free
            gx[:, i::2, j::2] = np.where(hit, grad, 0)
            free &= ~hit
        return gx + skip_grads.pop()

    return out, back


class Network:
    """Denoiser with flat parameter and gradient vectors.

    forward(record=True) keeps the closure tape of its pass, replacing
    any earlier one; backward runs it once and drops it. forward with
    record=False records nothing and leaves an earlier tape in place.
    forward/backward mutate the tape and gradients and must not run
    concurrently on one instance.
    """

    def __init__(self, descriptor: ArchDescriptor, params: np.ndarray):
        self.descriptor = descriptor
        n = parameter_count(descriptor)
        if params.shape != (n,):
            raise ValueError(f"expected {n} parameters, got {params.shape}")
        self.params = params
        self.grads = np.zeros(n, dtype=params.dtype)
        self._plan = layer_plan(descriptor)
        self.convs: list[_Conv] = []
        pos = 0
        for s in self._plan:
            if isinstance(s, ConvSpec):
                shape, nw = (s.ksize, s.ksize, s.c_in, s.c_out), s.ksize**2 * s.c_in * s.c_out
                w, gw = (a[pos : pos + nw].reshape(shape) for a in (self.params, self.grads))
                b, gb = (a[pos + nw : pos + nw + s.c_out] for a in (self.params, self.grads))
                self.convs.append(_Conv(w, b, gw, gb))
                pos += nw + s.c_out
        self._tape: list | None = None

    # -- helpers ----------------------------------------------------------

    @property
    def dtype(self):
        return self.params.dtype

    def astype(self, dtype) -> "Network":
        return Network(self.descriptor, self.params.astype(dtype))

    def zero_grad(self) -> None:
        self.grads[:] = 0

    # -- forward / backward ----------------------------------------------

    def forward(self, x: np.ndarray, record: bool = True) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=self.dtype)
        check_input(self.descriptor, x.shape)
        tape: list = []
        skips: list[np.ndarray] = []
        skip_grads: list[np.ndarray] = []
        convs = iter(self.convs)

        def run(op, *args):
            out, back = op(*args)
            if record:
                tape.append(back)
            return out

        up = False  # an "up" runs inside the conv after it
        for step in self._plan:
            if step == "pool":
                x = run(_pool, x, skips, skip_grads)
            elif step == "up":
                up = True
            else:
                conv = next(convs)
                x = run(conv.after_up, x, skips, skip_grads) if up else run(conv, x)
                up = False
                if step.act:
                    x = run(_leaky_relu, x)
        if record:
            self._tape = tape
        return x

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        """Accumulate d(loss)/d(theta) into self.grads for the recorded
        forward pass; returns d(loss)/d(input)."""
        if self._tape is None:
            raise RuntimeError("backward called without a recorded forward pass")
        tape, self._tape = self._tape, None
        grad = np.ascontiguousarray(upstream, dtype=self.dtype)
        for back in reversed(tape):
            grad = back(grad)
        return grad


def build_network(d: ArchDescriptor, rng: np.random.Generator) -> Network:
    """Allocate and initialize a network: weights uniform He-style
    (bound sqrt(6/fan_in)), biases zero, deterministic given rng."""
    net = Network(d, np.zeros(parameter_count(d), dtype=np.float32))
    for conv in net.convs:  # biases stay zero
        bound = np.sqrt(6.0 / np.prod(conv.w.shape[:3]))  # fan_in k * k * c_in
        conv.w[:] = rng.uniform(-bound, bound, conv.w.shape).astype(np.float32)
    return net


def gradient_check(
    net: Network,
    x: np.ndarray,
    h: float = 1e-4,
    tol: float = 1e-3,
    n_params: int = 200,
    rng: np.random.Generator | None = None,
) -> dict:
    """Compare analytic gradients of L(theta) = ||f_theta(x)||^2 / 2
    against central differences on a random parameter subset.

    Runs entirely in float64. Returns a report dict with max_rel_error
    and passed; a NaN relative error fails the check.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"finite-difference step h must be finite and > 0, got {h}")
    rng = rng or np.random.default_rng(0)
    net64 = net.astype(np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    if not x.size:
        raise ValueError(f"gradient check needs an input with pixels, got shape {x.shape}")

    out = net64.forward(x)  # a fresh copy: its gradients are zero
    net64.backward(out)  # d(||out||^2/2)/d(out) = out
    analytic = net64.grads.copy()

    n = len(net64.params)
    count = min(n_params, n)
    idx = rng.choice(n, size=count, replace=False) if count < n else np.arange(n)

    def loss() -> float:
        y = net64.forward(x, record=False)
        return 0.5 * float(np.sum(y.astype(np.float64) ** 2))

    max_rel = 0.0
    for i in idx:
        orig = net64.params[i]
        net64.params[i] = orig + h
        lp = loss()
        net64.params[i] = orig - h
        lm = loss()
        net64.params[i] = orig
        fd = (lp - lm) / (2 * h)
        denom = max(abs(fd), abs(analytic[i]), 1e-12)
        rel = abs(fd - analytic[i]) / denom
        max_rel = np.maximum(max_rel, rel)  # keeps a NaN, which max() would drop
    return {
        "max_rel_error": float(max_rel),
        "passed": max_rel < tol,
        "checked": count,
        "tol": tol,
    }


def save_checkpoint(net: Network, path) -> None:
    desc = net.descriptor.to_json().encode("utf-8")
    params = np.ascontiguousarray(net.params, dtype="<f4")
    blob = (
        CHECKPOINT_MAGIC
        + struct.pack("<I", len(desc))
        + desc
        + struct.pack("<Q", len(params))
        + params.tobytes()
    )
    Path(path).write_bytes(blob)


def load_checkpoint(path) -> Network:
    data = Path(path).read_bytes()
    if data[:8] != CHECKPOINT_MAGIC:
        raise ValueError("bad checkpoint magic")
    try:
        (dlen,) = struct.unpack_from("<I", data, 8)
        (count,) = struct.unpack_from("<Q", data, 12 + dlen)
    except struct.error as exc:
        raise ValueError("checkpoint truncated") from exc
    desc = ArchDescriptor.from_json(data[12 : 12 + dlen].decode("utf-8"))
    if len(data) < 20 + dlen + 4 * count:
        raise ValueError("checkpoint truncated")
    if desc.tail_1x1 > count or count != parameter_count(desc):  # each tail conv has a bias
        raise ValueError(f"checkpoint parameter count {count} does not match {desc.to_json()}")
    params = np.frombuffer(data, "<f4", count, 20 + dlen)
    if not np.isfinite(params).all():
        raise ValueError(f"{path}: checkpoint holds non-finite parameters")
    return Network(desc, params.astype(np.float32))
