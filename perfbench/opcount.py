"""Exact operation counts of the denoiser, computed from its descriptor.

The counts follow the architecture rules documented in
nbr2nbr.network (3x3 zero-padded convs, 2x max-pool, 2x nearest
upsample, skip concatenation, 1x1 tail) and do not depend on how the
layers are implemented, so they repeat exactly across commits.

FLOPs: each multiply-accumulate of a convolution counts as two; the
bias add (forward) and the bias-gradient sum (backward) count one per
output element. Backward computes both the weight gradient and the
input gradient of every conv, so its conv FLOPs are twice forward's.
Pooling, upsampling, concatenation and leaky-ReLU are not counted as
FLOPs; their outputs are counted in the activation bytes, which sum
the size of every layer's output tensor in one forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OpCount:
    forward_flop: int
    backward_flop: int
    activation_bytes: int
    parameters: int


def _walk(desc, h: int, w: int):
    """Yield ("conv", k, c_in, c_out, h, w) and ("act"|"pool"|"up"|"cat",
    channels, h, w) in forward order for one image."""
    t = desc.tail_1x1
    if desc.depth == 0:
        c = desc.base_width if t > 0 else desc.input_channels
        yield ("conv", 3, desc.input_channels, c, h, w)
        if t > 0:
            yield ("act", c, h, w)
    else:
        widths = [desc.base_width << i for i in range(desc.depth + 1)]
        c = desc.input_channels
        for i in range(desc.depth):
            hi, wi = h >> i, w >> i
            yield ("conv", 3, c, widths[i], hi, wi)
            yield ("act", widths[i], hi, wi)
            yield ("conv", 3, widths[i], widths[i], hi, wi)
            yield ("act", widths[i], hi, wi)
            yield ("pool", widths[i], hi // 2, wi // 2)
            c = widths[i]
        hb, wb = h >> desc.depth, w >> desc.depth
        c = widths[desc.depth]
        yield ("conv", 3, widths[desc.depth - 1], c, hb, wb)
        yield ("act", c, hb, wb)
        yield ("conv", 3, c, c, hb, wb)
        yield ("act", c, hb, wb)
        for i in range(desc.depth - 1, -1, -1):
            hi, wi = h >> i, w >> i
            out = widths[i] if (i > 0 or t > 0) else desc.input_channels
            yield ("up", c, hi, wi)
            yield ("cat", c + widths[i], hi, wi)
            yield ("conv", 3, c + widths[i], out, hi, wi)
            yield ("act", out, hi, wi)
            yield ("conv", 3, out, out, hi, wi)
            if i > 0 or t > 0:
                yield ("act", out, hi, wi)
            c = out
    for j in range(t):
        c_out = desc.input_channels if j == t - 1 else desc.base_width
        yield ("conv", 1, c, c_out, h, w)
        if j < t - 1:
            yield ("act", c_out, h, w)
        c = c_out


def count(desc, shape: tuple[int, ...], itemsize: int) -> OpCount:
    """Counts for one forward and one backward pass over an (N, H, W, C)
    input of the given element size."""
    n, h, w = shape[0], shape[1], shape[2]
    fwd = bwd = act = params = 0
    for step in _walk(desc, h, w):
        if step[0] == "conv":
            _, k, ci, co, hh, ww = step
            outputs = n * hh * ww * co
            macs = outputs * k * k * ci
            fwd += 2 * macs + outputs
            bwd += 4 * macs + outputs
            act += outputs * itemsize
            params += k * k * ci * co + co
        else:
            _, c, hh, ww = step
            act += n * hh * ww * c * itemsize
    return OpCount(fwd, bwd, act, params)
