"""Per-layer metrics derived from the spans of one traced run.

Layers are the nbr2nbr modules. Times are sums of span durations in
seconds; `self_s` is a layer's time minus the time of the spans it
calls in other layers. FLOP and activation figures are computed from
the architecture (see opcount), not measured. A layer that a workload
does not reach reports 0.
"""

from __future__ import annotations

import json

import opcount
from nbr2nbr.network import ArchDescriptor, parameter_count
from pngenc import FILTER_NAMES

# (name, unit, better); BENCHMARK.json lists the same rows.
PER_LAYER = [
    ("network.forward_s", "s", "lower"),
    ("network.forward_calls", "count", "higher"),
    ("network.backward_s", "s", "lower"),
    ("network.backward_calls", "count", "higher"),
    ("network.forward_gflop", "GFLOP", "higher"),
    ("network.backward_gflop", "GFLOP", "higher"),
    ("network.forward_gflop_per_s", "GFLOP/s", "higher"),
    ("network.backward_gflop_per_s", "GFLOP/s", "higher"),
    ("network.activation_mb", "MB", "lower"),
    ("training.self_s", "s", "lower"),
    ("training.adam_s", "s", "lower"),
    ("training.adam_calls", "count", "higher"),
    ("training.loss_s", "s", "lower"),
    ("training.denoise_image_s", "s", "lower"),
    ("noise.apply_s", "s", "lower"),
    ("noise.calls", "count", "higher"),
    ("subsampler.generate_s", "s", "lower"),
    ("subsampler.apply_s", "s", "lower"),
    ("subsampler.calls", "count", "higher"),
    ("imaging.decode_s", "s", "lower"),
    ("imaging.encode_s", "s", "lower"),
    ("imaging.decode_mb_per_s", "MB/s", "higher"),
    *[(f"imaging.decode_mb_per_s.{f}", "MB/s", "higher") for f in FILTER_NAMES],
    ("imaging.random_crop_s", "s", "lower"),
    ("metrics.psnr_s", "s", "lower"),
    ("metrics.ssim_s", "s", "lower"),
    ("metrics.ssim_mpix_per_s", "Mpix/s", "higher"),
    ("theory.self_s", "s", "lower"),
    ("theory.theorem1_trials_per_s", "1/s", "higher"),
    ("theory.constraint_trials_per_s", "1/s", "higher"),
    ("theory.decomposition_trials_per_s", "1/s", "higher"),
    ("textures.generate_s", "s", "lower"),
    ("cli.denoise_s", "s", "lower"),
    ("cli.eval_s", "s", "lower"),
    ("cli.verify_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

COMPUTED = ("network.forward_gflop", "network.backward_gflop", "network.activation_mb")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(spans: list[list], summary: dict, filter_mb_per_s: dict,
              overhead: float) -> tuple[dict, list[dict]]:
    """Every PER_LAYER value for one traced run, keyed by name, and the
    computed op counts of one network call at each shape the run used."""

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def layer_self(prefix):
        return sum((row["self_s"] for name, row in summary.items() if name.startswith(prefix + ".")), 0.0)

    flops = {"network.forward": 0, "network.backward": 0}
    activation = 0
    counts_cache: dict[tuple, opcount.OpCount] = {}
    decoded_bytes = ssim_pixels = 0
    trials = {"theory.verify_theorem1": 0, "theory.verify_constraint": 0,
              "theory.ideal_objective_decomposition": 0}
    for s in spans:
        name, attrs = s[2], s[6]
        if name in flops:
            key = (attrs["desc"], tuple(attrs["shape"]), attrs["itemsize"])
            if key not in counts_cache:
                desc = ArchDescriptor(**json.loads(attrs["desc"]))
                counts_cache[key] = opcount.count(desc, key[1], key[2])
                if counts_cache[key].parameters != parameter_count(desc):
                    raise ValueError(f"op-count model disagrees with the network for {desc}")
            c = counts_cache[key]
            if name == "network.forward":
                flops[name] += c.forward_flop
                activation = max(activation, c.activation_bytes)
            else:
                flops[name] += c.backward_flop
        elif name == "imaging.load_image":
            h, w, ch = attrs["shape"]
            decoded_bytes += h * w * ch
        elif name == "metrics.ssim":
            ssim_pixels += attrs["shape"][0] * attrs["shape"][1]
        elif name in trials:
            trials[name] += attrs["trials"]

    fwd_gflop = flops["network.forward"] / 1e9
    bwd_gflop = flops["network.backward"] / 1e9
    values = {
        "network.forward_s": total("network.forward"),
        "network.forward_calls": calls("network.forward"),
        "network.backward_s": total("network.backward"),
        "network.backward_calls": calls("network.backward"),
        "network.forward_gflop": fwd_gflop,
        "network.backward_gflop": bwd_gflop,
        "network.forward_gflop_per_s": _ratio(fwd_gflop, total("network.forward")),
        "network.backward_gflop_per_s": _ratio(bwd_gflop, total("network.backward")),
        "network.activation_mb": activation / 1e6,
        "training.self_s": layer_self("training"),
        "training.adam_s": total("training.adam_step"),
        "training.adam_calls": calls("training.adam_step"),
        "training.loss_s": total("training.loss_rec") + total("training.loss_reg"),
        "training.denoise_image_s": total("training.denoise_image"),
        "noise.apply_s": total("noise.apply_noise"),
        "noise.calls": calls("noise.apply_noise"),
        "subsampler.generate_s": total("subsampler.generate"),
        "subsampler.apply_s": total("subsampler.apply_subsampler"),
        "subsampler.calls": calls("subsampler.apply_subsampler"),
        "imaging.decode_s": total("imaging.load_image"),
        "imaging.encode_s": total("imaging.save_image"),
        "imaging.decode_mb_per_s": _ratio(decoded_bytes / 1e6, total("imaging.load_image")),
        "imaging.random_crop_s": total("imaging.random_crop"),
        "metrics.psnr_s": total("metrics.psnr"),
        "metrics.ssim_s": total("metrics.ssim"),
        "metrics.ssim_mpix_per_s": _ratio(ssim_pixels / 1e6, total("metrics.ssim")),
        "theory.self_s": layer_self("theory"),
        "theory.theorem1_trials_per_s": _ratio(
            trials["theory.verify_theorem1"], total("theory.verify_theorem1")),
        "theory.constraint_trials_per_s": _ratio(
            trials["theory.verify_constraint"], total("theory.verify_constraint")),
        "theory.decomposition_trials_per_s": _ratio(
            trials["theory.ideal_objective_decomposition"],
            total("theory.ideal_objective_decomposition")),
        "textures.generate_s": layer_self("textures"),
        "cli.denoise_s": total("cli.denoise"),
        "cli.eval_s": total("cli.eval"),
        "cli.verify_s": total("cli.verify"),
        "cli.self_s": layer_self("cli"),
        "trace.overhead_ratio": overhead,
    }
    for f in FILTER_NAMES:
        values[f"imaging.decode_mb_per_s.{f}"] = filter_mb_per_s.get(f, 0.0)
    shapes = [
        {"descriptor": json.loads(desc), "shape": list(shape), "itemsize": itemsize,
         "forward_flop": c.forward_flop, "backward_flop": c.backward_flop,
         "activation_bytes": c.activation_bytes}
        for (desc, shape, itemsize), c in counts_cache.items()
    ]
    return values, shapes
