"""Command-line surface tying the library into reproducible experiments.

Commands: synthesize, train, denoise, eval, ablate-gamma,
ablate-sampler, verify-theorem, gradcheck.

Exit codes: 0 success, 2 usage error, 3 data error (a ValueError or
OSError), 4 numeric failure (a failed check, or a non-finite loss,
parameter or Adam moment at a training step; that epoch is not saved).
Every command that writes an output directory drops a manifest.json
there with the command line, resolved configuration, seed, version,
and timestamps, sufficient to re-run it, plus the process's peak RSS
and its environment (Python, numpy, BLAS, BLAS threads, CPU count).
Training options resolve as builtin default < --profile < flag;
--resume refuses changed options and an --epochs below the next epoch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import sys
import time
import zipfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .imaging import load_image, save_float_image, save_image
from .metrics import evaluate_pairs, format_psnr_ssim
from .network import (
    ArchDescriptor,
    Network,
    build_network,
    check_input,
    gradient_check,
    load_checkpoint,
    save_checkpoint,
)
from .noise import NoiseModel, apply_noise, parse_noise_spec, sample_level
from .theory import (
    TheoremScenario,
    blur3,
    constant_denoiser,
    identity,
    oracle_denoiser,
    verify_constraint,
    verify_theorem1,
)
from .textures import texture_image
from .training import (
    SAMPLER_KINDS,
    AdamState,
    NumericError,
    TrainConfig,
    check_crop,
    denoise_image,
    format_log_record,
    train,
    LOG_HEADER,
)

IMAGE_SUFFIXES = (".png", ".pgm", ".ppm", ".f32")


# The training options: (key, TrainConfig or ArchDescriptor field). The key is
# the flag (--key, dashes for underscores); the field gives the default and its
# type. The order (then channels, save_every) is the option record's, which
# state.npz stores and --resume compares.
_TRAIN_OPTIONS = (
    ("noise", "noise"),
    ("gamma", "gamma"),
    ("gamma_ramp", "gamma_ramp_epochs"),
    ("epochs", "epochs"),
    ("batch", "batch_size"),
    ("crop", "crop"),
    ("lr", "lr"),
    ("lr_decay_every", "lr_decay_every"),
    ("lr_decay_factor", "lr_decay_factor"),
    ("seed", "seed"),
    ("sampler", "sampler_kind"),
    ("depth", "depth"),
    ("width", "base_width"),
    ("tail", "tail_1x1"),
)
_FIELDS = {f.name: f for cls in (TrainConfig, ArchDescriptor) for f in fields(cls)}
# noise is a spec string here and a NoiseModel in TrainConfig; save_every is the CLI's own
_DEFAULTS = {key: _FIELDS[field].default for key, field in _TRAIN_OPTIONS}
_DEFAULTS.update(noise="gauss25", save_every=0)

# named default sets, applied over the builtin defaults
_PROFILES = {"desk": {"crop": 64, "width": 24, "epochs": 20}}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S")


def _image_files(directory) -> dict[str, Path]:
    """The images of a directory by stem, one file each, in path order: a
    .f32 sidecar wins over the 8-bit file of its stem, other clashes fail."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"not a directory: {directory}")
    by_stem: dict[str, list[Path]] = {}
    for p in sorted(directory.iterdir()):
        if p.suffix.lower() in IMAGE_SUFFIXES:
            by_stem.setdefault(p.stem, []).append(p)
    if not by_stem:
        raise ValueError(f"no images (png/pgm/ppm/f32) in {directory}")
    files = {}
    for stem, paths in by_stem.items():
        sidecars = [p for p in paths if p.suffix.lower() == ".f32"]
        if len(paths) > 1 and (len(paths) > 2 or len(sidecars) != 1):
            raise ValueError(f"ambiguous image {stem!r} in {directory}: "
                             f"{', '.join(p.name for p in paths)}")
        files[stem] = (sidecars or paths)[0]
    return files


def _load(path: Path, channels: int | None = None) -> np.ndarray:
    img = load_image(path)
    if channels is not None and img.shape[2] != channels:
        raise ValueError(f"{path}: {img.shape[2]} channels, expected {channels}")
    return img


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints its config and returns nothing
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


def _write_manifest(out_dir: Path, argv: list[str], resolved: dict, started: str,
                    extra: dict):
    manifest = {
        "command_line": argv,
        "resolved_config": resolved,
        "version": __version__,
        "started": started,
        "finished": _timestamp(),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "environment": _environment(),
        **extra,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str))


def _resolve(args: argparse.Namespace) -> dict:
    """Training options by precedence: builtin < --profile < flag."""
    resolved = dict(_DEFAULTS)
    if args.profile:
        resolved.update(_PROFILES[args.profile])
    resolved.update({k: getattr(args, k) for k in _DEFAULTS if getattr(args, k) is not None})
    return resolved


def _add_train_flags(p: argparse.ArgumentParser, val_dir_required: bool):
    p.add_argument("--data", required=True, help="directory of noisy training images")
    p.add_argument("--val-dir", dest="val_dir", required=val_dir_required)
    p.add_argument("--profile", choices=sorted(_PROFILES),
                   help="desk: crop 64, width 24, 20 epochs")
    for key, default in _DEFAULTS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                       choices=SAMPLER_KINDS if key == "sampler" else None)


def _train_config(resolved: dict) -> tuple[TrainConfig, ArchDescriptor]:
    kw = {field: resolved[key] for key, field in _TRAIN_OPTIONS}
    kw.update(noise=parse_noise_spec(resolved["noise"]), input_channels=resolved["channels"])
    train_kw = {f.name: kw.pop(f.name) for f in fields(TrainConfig)}
    return TrainConfig(**train_kw), ArchDescriptor(**kw)


def _train_setup(args):
    """Resolve the training options and load what train and ablate-* use:
    (resolved, config, descriptor, images, validation pairs or None). The first
    image's channel count goes in resolved before save_every, as states record it."""
    resolved = _resolve(args)
    first, *rest = _image_files(args.data).values()
    images = [_load(first)]
    resolved.update(channels=images[0].shape[2], save_every=resolved.pop("save_every"))
    if resolved["save_every"] < 0:
        raise ValueError(f"save_every must be >= 0, got {resolved['save_every']}")
    cfg, desc = _train_config(resolved)
    images += [_load(p, desc.input_channels) for p in rest]
    check_crop(images, cfg.crop, desc.depth)  # before a network of that depth is allocated
    validation = None
    if args.val_dir:
        rng = np.random.default_rng(cfg.seed + 1)
        clean = [_load(p, desc.input_channels) for p in _image_files(args.val_dir).values()]
        validation = [(c, apply_noise(c, cfg.noise, rng)) for c in clean]
    return resolved, cfg, desc, images, validation


def _save_state(path: Path, net: Network, adam: AdamState, rng, next_epoch: int,
                resolved: dict):
    np.savez(
        path,
        params=net.params,
        m=adam.m,
        v=adam.v,
        t=np.int64(adam.t),
        next_epoch=np.int64(next_epoch),
        rng_state=np.frombuffer(json.dumps(rng.bit_generator.state).encode(), np.uint8),
        options=np.frombuffer(json.dumps(resolved).encode(), np.uint8),
    )


def _load_state(path: Path, resolved: dict, desc: ArchDescriptor):
    """Network, Adam state, generator and next epoch of a state.npz whose
    recorded options equal resolved in all but epochs and save_every, and
    whose next epoch is not past resolved's epochs."""
    try:
        with np.load(path) as z:
            state = dict(z)
    except (OSError, EOFError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: unreadable training state ({exc})") from None
    if "options" not in state:
        raise ValueError(f"{path} has no record of its training options; "
                         "it was written by an older version and cannot be resumed")
    missing = [k for k in ("params", "m", "v", "t", "next_epoch", "rng_state") if k not in state]
    if missing:
        raise ValueError(f"{path}: training state lacks {', '.join(missing)}")
    try:
        saved, rng_state = (json.loads(state[k].tobytes()) for k in ("options", "rng_state"))
    except ValueError as exc:
        raise ValueError(f"{path}: options and rng_state must be JSON text ({exc})") from None
    if not isinstance(saved, dict):
        raise ValueError(f"{path}: training options are not a JSON object")
    changed = sorted(k for k in saved.keys() | resolved.keys()
                     if k not in ("epochs", "save_every") and saved.get(k) != resolved.get(k))
    if changed:
        raise ValueError(f"{path}: resumed run changes {', '.join(changed)}")
    if any(state[k].shape != () or state[k].dtype.kind not in "iu" or state[k] < 0
           for k in ("t", "next_epoch")):
        raise ValueError(f"{path}: t and next_epoch must each be one non-negative integer")
    next_epoch = int(state["next_epoch"])
    if resolved["epochs"] < next_epoch:
        raise ValueError(f"{path}: run is at epoch {next_epoch}, "
                         f"past --epochs {resolved['epochs']}")
    try:
        net = Network(desc, state["params"].astype(np.float32))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not state["m"].shape == state["v"].shape == net.params.shape:
        raise ValueError(f"{path}: Adam m and v must each hold {len(net.params)} values")
    adam = AdamState(state["m"].astype(np.float32), state["v"].astype(np.float32),
                     int(state["t"]))
    for key, values in (("params", net.params), ("m", adam.m), ("v", adam.v)):
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: {key} holds non-finite values")
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = rng_state
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: invalid generator state ({exc!r})") from None
    return net, adam, rng, next_epoch


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synthesize(args, argv) -> int:
    started = _timestamp()
    model = parse_noise_spec(args.noise)
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    levels = {}
    outputs = []
    for stem, path in _image_files(args.input).items():
        level = sample_level(model, rng)
        fixed = NoiseModel(model.family, level)
        noisy = apply_noise(_load(path), fixed, rng)
        for suffix, save in ((".png", save_image), (".f32", save_float_image)):
            outputs.append(out_dir / (stem + suffix))
            save(noisy, outputs[-1])
        levels[path.name] = level
    _write_manifest(out_dir, argv, {"noise": args.noise, "seed": args.seed}, started,
                    {"noise_levels": levels, "outputs": outputs})
    return 0


def cmd_train(args, argv) -> int:
    started = _timestamp()
    resolved, cfg, desc, images, validation = _train_setup(args)
    if args.resume:
        net, adam, rng, start_epoch = _load_state(Path(args.resume), resolved, desc)
    else:
        rng = np.random.default_rng(cfg.seed)
        net = build_network(desc, rng)
        adam = AdamState.for_network(net)
        start_epoch = 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    log_path = out_dir / "train.log"
    if not args.resume or not log_path.exists():  # a resume may write to a new directory
        log_path.write_text(LOG_HEADER + "\n")

    def on_epoch_end(epoch, net, adam, rng, record):
        with log_path.open("a") as log_file:
            log_file.write(format_log_record(record) + "\n")
        if resolved["save_every"] and (epoch + 1) % resolved["save_every"] == 0:
            save_checkpoint(net, out_dir / f"ckpt_epoch{epoch + 1:04d}.n2nckpt")
            _save_state(out_dir / "state.npz", net, adam, rng, epoch + 1, resolved)

    train(images, cfg, net, validation=validation, start_epoch=start_epoch, adam=adam, rng=rng,
          on_epoch_end=on_epoch_end)
    ckpt = out_dir / "model.n2nckpt"
    save_checkpoint(net, ckpt)
    _save_state(out_dir / "state.npz", net, adam, rng, cfg.epochs, resolved)
    _write_manifest(out_dir, argv, resolved, started,
                    {"checkpoint": str(ckpt), "log": str(log_path)})
    return 0


def cmd_denoise(args, argv) -> int:
    started = _timestamp()
    net = load_checkpoint(args.ckpt)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for stem, path in _image_files(args.input).items():
        outputs.append(out_dir / (stem + ".png"))
        save_image(denoise_image(net, _load(path, net.descriptor.input_channels)), outputs[-1])
    _write_manifest(out_dir, argv, {"ckpt": args.ckpt}, started, {"outputs": outputs})
    return 0


def cmd_eval(args, argv) -> int:
    clean, test = _image_files(args.clean), _image_files(args.test)
    unpaired = clean.keys() ^ test.keys()
    if unpaired:
        raise ValueError(f"unpaired files between dirs: {sorted(unpaired)}")
    pairs = [(stem, _load(clean[stem]), _load(test[stem])) for stem in sorted(clean)]
    for stem, ref, out in pairs:
        if ref.shape != out.shape:
            raise ValueError(f"{stem}: {clean[stem]} has shape {ref.shape}, "
                             f"{test[stem]} has {out.shape}")
    mean_psnr, mean_ssim, rows = evaluate_pairs(pairs)
    for name, p, s in rows:
        print(f"{name}\t{format_psnr_ssim(p, s)}")
    print(f"mean\t{format_psnr_ssim(mean_psnr, mean_ssim)}")
    return 0


def cmd_ablate(args, argv) -> int:
    """ablate-gamma / ablate-sampler: train one model per variant and
    print the PSNR/SSIM of each on the noisy validation pairs."""
    started = _timestamp()
    resolved, cfg0, desc, images, validation = _train_setup(args)
    if args.command == "ablate-gamma":
        column = "gamma"
        variants = [(f"gamma={float(g):g}", replace(cfg0, gamma=float(g)))
                    for g in args.gammas.split(",")]
    else:
        column = "sampler"
        variants = [("Fix-location", replace(cfg0, sampler_kind="fix-location")),
                    ("Random", replace(cfg0, sampler_kind="neighbor"))]
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for label, cfg in variants:
        rng = np.random.default_rng(cfg.seed)
        net = build_network(desc, rng)
        train(images, cfg, net, rng=rng)
        mean_psnr, mean_ssim, _ = evaluate_pairs([(str(i), clean, denoise_image(net, noisy))
                                                  for i, (clean, noisy) in enumerate(validation)])
        rows.append((label, mean_psnr, mean_ssim))
        if out_dir:
            save_checkpoint(net, out_dir / f"model_{label.replace(' ', '_')}.n2nckpt")
    print(f"{column}\tPSNR/SSIM")
    for label, p, s in rows:
        print(f"{label.removeprefix(column + '=')}\t{format_psnr_ssim(p, s)}")
    if out_dir:
        _write_manifest(out_dir, argv, resolved, started, {"table": rows})
    return 0


def cmd_verify_theorem(args, argv) -> int:
    rng = np.random.default_rng(args.seed)
    gauss = parse_noise_spec("gauss25")
    poisson = parse_noise_spec("poisson30")
    crop = texture_image(32, np.random.default_rng(7))
    # (--scenario value, scenario) in print order; scalar-oracle's z has Var 0.04 on [0, 1]
    scenarios = [("scalar-oracle", TheoremScenario(
        np.array([[1.0]]), parse_noise_spec("gauss0"), parse_noise_spec("gauss51"), 0.5,
        constant_denoiser(0.0), name="scalar-oracle"))]
    for key, denoiser in (("identity", identity), ("blur", blur3),
                          ("oracle", oracle_denoiser(crop))):
        scenarios += [(key, TheoremScenario(crop, noise, noise, args.eps, denoiser))
                      for noise in (gauss, poisson)]
    all_passed = True
    print("scenario\tlhs\trhs\t|diff|\t3*s.e.\tresult")
    for key, s in scenarios:
        if args.scenario in ("all", key):
            rep = verify_theorem1(s, args.trials, rng)
            all_passed &= rep.passed
            print(f"{s.label()}\t{rep.lhs:.6f}\t{rep.rhs:.6f}\t{rep.diff:.6f}\t"
                  f"{3 * rep.standard_error:.6f}\t{'PASS' if rep.passed else 'FAIL'}")
    # (label, denoiser, verdict if it passes, verdict if not); the control must not pass
    checks = [("eq4-oracle", None, "PASS", "FAIL"),
              ("eq4-constant0 (negative control)", constant_denoiser(0.0), "MISSED", "DETECTED")]
    for label, denoiser, if_passed, if_not in checks if args.eq4 else []:
        rep = verify_constraint(crop, gauss, args.trials, rng, denoiser=denoiser)
        all_passed &= rep.passed == (denoiser is None)
        print(f"{label}\tmax|mean|/se={rep.max_sigma:.3f}\tthreshold={rep.threshold:.3f}\t"
              f"{if_passed if rep.passed else if_not}")
    return 0 if all_passed else 4


def cmd_gradcheck(args, argv) -> int:
    desc = ArchDescriptor(args.channels, args.depth, args.width, args.tail)
    shape = (1, args.size, args.size, args.channels)
    check_input(desc, shape)  # before the network is allocated
    rng = np.random.default_rng(args.seed)
    net = build_network(desc, rng)
    x = rng.standard_normal(shape)
    report = gradient_check(net, x, h=args.h, tol=args.tol, rng=rng)
    print(
        f"checked {report['checked']} parameters, max relative error "
        f"{report['max_rel_error']:.3e} (tol {report['tol']:g}): "
        f"{'PASS' if report['passed'] else 'FAIL'}"
    )
    return 0 if report["passed"] else 4


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbr2nbr",
        description="Self-supervised denoising via neighbor sub-sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="write noisy counterparts of clean images")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("train", help="train a denoiser on noisy images")
    p.add_argument("--out", required=True)
    p.add_argument("--resume", help="state.npz from a previous run")
    _add_train_flags(p, val_dir_required=False)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("denoise", help="run a checkpoint over a directory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_denoise)

    p = sub.add_parser("eval", help="PSNR/SSIM of paired directories")
    p.add_argument("--clean", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate-gamma", help="train/evaluate over gamma values")
    p.add_argument("--out")
    p.add_argument("--gammas", default="0,2,8,20")
    _add_train_flags(p, val_dir_required=True)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("ablate-sampler", help="fix-location vs random sampler")
    p.add_argument("--out")
    _add_train_flags(p, val_dir_required=True)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("verify-theorem", help="Monte-Carlo identity checks")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument(
        "--scenario",
        choices=["all", "scalar-oracle", "identity", "blur", "oracle"],
        default="all",
    )
    p.add_argument("--eq4", action="store_true", help="also check the ideal-denoiser constraint")
    p.set_defaults(fn=cmd_verify_theorem)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--channels", type=int, default=1, choices=[1, 3])
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--tail", type=int, default=3)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    for p in sub.choices.values():  # Python 3.11's argparse takes -1e-4 for an option
        p._negative_number_matcher = re.compile(r"-\.?\d")  # no option starts so: a value
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
