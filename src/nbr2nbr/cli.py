"""Command-line surface tying the library into reproducible experiments.

Commands: synthesize, train, denoise, eval, ablate-gamma,
ablate-sampler, verify-theorem, gradcheck, dump-sampler.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
Every command that writes an output directory drops a manifest.json
there with the command line, resolved configuration, seed, version,
and timestamps, sufficient to re-run it. A flat "key = value" file
passed via --config supplies defaults; explicit flags override it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .imaging import ImageError, load_image, save_float_image, save_image
from .metrics import evaluate_pairs, format_psnr_ssim
from .network import (
    ArchDescriptor,
    Network,
    build_network,
    gradient_check,
    load_checkpoint,
    save_checkpoint,
)
from .noise import NoiseModel, apply_noise, parse_noise_spec, sample_level
from .subsampler import (
    dump_subsampler,
    generate_fixlocation_subsampler,
    generate_neighbor_subsampler,
)
from .theory import (
    TheoremScenario,
    blur_denoiser,
    constant_denoiser,
    identity_denoiser,
    oracle_denoiser,
    verify_constraint,
    verify_theorem1,
)
from .textures import texture_image
from .training import (
    AdamState,
    TrainConfig,
    denoise_image,
    format_log_record,
    train,
    LOG_HEADER,
)

IMAGE_SUFFIXES = (".png", ".pgm", ".ppm", ".f32")


class DataError(Exception):
    pass


class NumericError(Exception):
    pass


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _list_images(directory) -> list[Path]:
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"not a directory: {directory}")
    files = sorted(
        p for p in directory.iterdir() if p.suffix.lower() in IMAGE_SUFFIXES
    )
    if not files:
        raise DataError(f"no images (png/pgm/ppm/f32) in {directory}")
    return files


def _write_manifest(out_dir: Path, argv: list[str], resolved: dict, extra: dict | None = None):
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command_line": argv,
        "resolved_config": resolved,
        "version": __version__,
        "started": resolved.get("_started"),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if extra:
        manifest.update(extra)
    manifest["resolved_config"] = {
        k: v for k, v in resolved.items() if not k.startswith("_")
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str))


def _read_config_file(path) -> dict[str, str]:
    cfg = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge builtin defaults, --config file entries, and explicit flags
    (flags win; config wins over builtins)."""
    file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_cfg:
            resolved[key] = type(default)(file_cfg[key])
        else:
            resolved[key] = default
    return resolved


_TRAIN_DEFAULTS = dict(
    noise="gauss25",
    gamma=2.0,
    gamma_ramp=10,
    epochs=100,
    batch=4,
    crop=256,
    lr=3e-4,
    lr_decay_every=20,
    lr_decay_factor=0.5,
    seed=0,
    sampler="neighbor",
    k=2,
    depth=2,
    width=24,
    tail=3,
    channels=1,
    save_every=0,
)


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--noise", help="noise spec, e.g. gauss25 / poisson5_50")
    p.add_argument("--gamma", type=float)
    p.add_argument("--gamma-ramp", type=int, dest="gamma_ramp")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--crop", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-decay-every", type=int, dest="lr_decay_every")
    p.add_argument("--lr-decay-factor", type=float, dest="lr_decay_factor")
    p.add_argument("--seed", type=int)
    p.add_argument("--sampler", choices=["neighbor", "fix-location"])
    p.add_argument("--k", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--tail", type=int)
    p.add_argument("--channels", type=int, choices=[1, 3])
    p.add_argument("--save-every", type=int, dest="save_every")
    p.add_argument("--profile", choices=["desk"], help="desk: crop 64, width 24, 20 epochs")


def _train_config(resolved: dict) -> tuple[TrainConfig, ArchDescriptor]:
    cfg = TrainConfig(
        noise=parse_noise_spec(resolved["noise"]),
        gamma=resolved["gamma"],
        gamma_ramp_epochs=resolved["gamma_ramp"],
        epochs=resolved["epochs"],
        batch_size=resolved["batch"],
        crop=resolved["crop"],
        lr=resolved["lr"],
        lr_decay_every=resolved["lr_decay_every"],
        lr_decay_factor=resolved["lr_decay_factor"],
        seed=resolved["seed"],
        sampler_kind=resolved["sampler"],
        k=resolved["k"],
    )
    desc = ArchDescriptor(
        input_channels=resolved["channels"],
        depth=resolved["depth"],
        base_width=resolved["width"],
        tail_1x1=resolved["tail"],
    )
    return cfg, desc


def _apply_profile(resolved: dict, profile: str | None, args: argparse.Namespace):
    if profile == "desk":
        # explicit flags still win over the profile
        if args.crop is None:
            resolved["crop"] = 64
        if args.width is None:
            resolved["width"] = 24
        if args.epochs is None:
            resolved["epochs"] = 20


def _save_state(path: Path, net: Network, adam: AdamState, rng, next_epoch: int):
    np.savez(
        path,
        params=net.params,
        m=adam.m,
        v=adam.v,
        t=np.int64(adam.t),
        next_epoch=np.int64(next_epoch),
        rng_state=np.frombuffer(
            json.dumps(rng.bit_generator.state).encode(), dtype=np.uint8
        ),
        descriptor=np.frombuffer(
            net.descriptor.to_json().encode(), dtype=np.uint8
        ),
    )


def _load_state(path: Path):
    with np.load(path) as z:
        desc = ArchDescriptor.from_json(bytes(z["descriptor"]).decode())
        net = Network(desc, z["params"].astype(np.float32))
        adam = AdamState(z["m"].astype(np.float32), z["v"].astype(np.float32), int(z["t"]))
        rng = np.random.default_rng(0)
        rng.bit_generator.state = json.loads(bytes(z["rng_state"]).decode())
        return net, adam, rng, int(z["next_epoch"])


def _validation_pairs(resolved: dict, val_dir, channels: int):
    if not val_dir:
        return None
    pairs = []
    rng = np.random.default_rng(resolved["seed"] + 1)
    model = parse_noise_spec(resolved["noise"])
    for path in _list_images(val_dir):
        clean = load_image(path)
        if clean.shape[2] != channels:
            raise DataError(f"{path}: expected {channels} channels")
        pairs.append((clean, apply_noise(clean, model, rng)))
    return pairs


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synthesize(args, argv) -> int:
    resolved = dict(
        noise=args.noise, seed=args.seed if args.seed is not None else 0,
        _started=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
    model = parse_noise_spec(args.noise)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(resolved["seed"])
    levels = {}
    outputs = []
    for path in _list_images(args.input):
        clean = load_image(path)
        level = sample_level(model, rng)
        fixed = NoiseModel(model.kind.replace("range", "fixed"), level)
        noisy = apply_noise(clean, fixed, rng)
        png_path = out_dir / (path.stem + ".png")
        f32_path = out_dir / (path.stem + ".f32")
        save_image(noisy, png_path)
        save_float_image(noisy, f32_path)
        levels[path.name] = level
        outputs.extend([str(png_path), str(f32_path)])
    _write_manifest(out_dir, argv, resolved, {"noise_levels": levels, "outputs": outputs})
    return 0


def cmd_train(args, argv) -> int:
    resolved = _resolve(args, _TRAIN_DEFAULTS)
    _apply_profile(resolved, args.profile, args)
    resolved["_started"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    cfg, desc = _train_config(resolved)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.resume:
        net, adam, rng, start_epoch = _load_state(Path(args.resume))
        if net.descriptor != desc:
            raise DataError("resume state architecture differs from flags")
    else:
        rng = np.random.default_rng(cfg.seed)
        net = build_network(desc, rng)
        adam = AdamState.for_network(net)
        start_epoch = 0

    validation = _validation_pairs(resolved, args.val_dir, desc.input_channels)
    images = _list_images(args.data)
    loaded = [load_image(p) for p in images]
    for p, im in zip(images, loaded):
        if im.shape[2] != desc.input_channels:
            raise DataError(f"{p}: expected {desc.input_channels} channels")

    log_path = out_dir / "train.log"
    log_file = log_path.open("a" if args.resume else "w")
    if not args.resume:
        log_file.write(LOG_HEADER + "\n")

    def on_epoch_end(epoch, net, adam, rng, record):
        if math.isnan(record["loss_rec"]) or math.isnan(record["loss_reg"]):
            raise NumericError(f"NaN loss at epoch {epoch}")
        log_file.write(format_log_record(record) + "\n")
        log_file.flush()
        if resolved["save_every"] and (epoch + 1) % resolved["save_every"] == 0:
            save_checkpoint(net, out_dir / f"ckpt_epoch{epoch + 1:04d}.n2nckpt")
            _save_state(out_dir / "state.npz", net, adam, rng, epoch + 1)

    try:
        train(
            loaded,
            cfg,
            net,
            validation=validation,
            start_epoch=start_epoch,
            adam=adam,
            rng=rng,
            on_epoch_end=on_epoch_end,
        )
    finally:
        log_file.close()
    ckpt = out_dir / "model.n2nckpt"
    save_checkpoint(net, ckpt)
    _save_state(out_dir / "state.npz", net, adam, rng, cfg.epochs)
    _write_manifest(out_dir, argv, resolved, {"checkpoint": str(ckpt), "log": str(log_path)})
    return 0


def cmd_denoise(args, argv) -> int:
    net = load_checkpoint(args.ckpt)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for path in _list_images(args.input):
        img = load_image(path)
        if img.shape[2] != net.descriptor.input_channels:
            raise DataError(
                f"{path}: {img.shape[2]} channels, checkpoint wants "
                f"{net.descriptor.input_channels}"
            )
        den = denoise_image(net, img)
        out_path = out_dir / (path.stem + ".png")
        save_image(den, out_path)
        outputs.append(str(out_path))
    _write_manifest(
        out_dir, argv,
        {"ckpt": args.ckpt, "_started": time.strftime("%Y-%m-%dT%H:%M:%S")},
        {"outputs": outputs},
    )
    return 0


def _paired_images(clean_dir, test_dir):
    clean_files = {p.stem: p for p in _list_images(clean_dir)}
    test_files = {p.stem: p for p in _list_images(test_dir)}
    unpaired = set(clean_files) ^ set(test_files)
    if unpaired:
        raise DataError(f"unpaired files between dirs: {sorted(unpaired)}")
    return [
        (stem, load_image(clean_files[stem]), load_image(test_files[stem]))
        for stem in sorted(clean_files)
    ]


def cmd_eval(args, argv) -> int:
    report = evaluate_pairs(_paired_images(args.clean, args.test))
    for name, p, s in report.per_image:
        print(f"{name}\t{format_psnr_ssim(p, s)}")
    print(f"mean\t{format_psnr_ssim(report.psnr_db, report.ssim)}")
    return 0


def cmd_ablate(args, argv) -> int:
    """ablate-gamma / ablate-sampler: train one model per variant and
    print the PSNR/SSIM of each on the noisy validation pairs."""
    resolved = _resolve(args, _TRAIN_DEFAULTS)
    _apply_profile(resolved, args.profile, args)
    resolved["_started"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "ablate-gamma":
        column = "gamma"
        gammas = [float(g) for g in args.gammas.split(",")]
        variants = [(f"gamma={g:g}", {"gamma": g}) for g in gammas]
    else:
        column = "sampler"
        variants = [
            ("Fix-location", {"sampler_kind": "fix-location"}),
            ("Random", {"sampler_kind": "neighbor"}),
        ]
    cfg0, desc = _train_config(resolved)
    images = [load_image(p) for p in _list_images(args.data)]
    validation = _validation_pairs(resolved, args.val_dir, desc.input_channels)
    if not validation:
        raise DataError("ablation requires --val-dir")
    rows = []
    for label, overrides in variants:
        cfg = replace(cfg0, **overrides)
        rng = np.random.default_rng(cfg.seed)
        net = build_network(desc, rng)
        train(images, cfg, net, rng=rng)
        pairs = [
            (str(i), clean, denoise_image(net, noisy))
            for i, (clean, noisy) in enumerate(validation)
        ]
        rep = evaluate_pairs(pairs)
        rows.append((label, rep.psnr_db, rep.ssim))
        if out_dir:
            save_checkpoint(net, out_dir / f"model_{label.replace(' ', '_')}.n2nckpt")
    print(f"{column}\tPSNR/SSIM")
    for label, p, s in rows:
        print(f"{label.removeprefix(column + '=')}\t{format_psnr_ssim(p, s)}")
    if out_dir:
        _write_manifest(out_dir, argv, resolved, {"table": rows})
    return 0


def cmd_verify_theorem(args, argv) -> int:
    rng = np.random.default_rng(args.seed)
    trials = args.trials
    all_passed = True

    print("scenario\tlhs\trhs\t|diff|\t3*s.e.\tresult")

    def run(s: TheoremScenario, n: int):
        nonlocal all_passed
        rep = verify_theorem1(s, n, rng)
        all_passed &= rep.passed
        print(
            f"{s.label()}\t{rep.lhs:.6f}\t{rep.rhs:.6f}\t"
            f"{rep.diff:.6f}\t{3 * rep.standard_error:.6f}\t"
            f"{'PASS' if rep.passed else 'FAIL'}"
        )

    gauss = parse_noise_spec("gauss25")
    poisson = parse_noise_spec("poisson30")
    if args.scenario in ("all", "scalar-oracle"):
        z_noise = NoiseModel("gaussian-fixed", 0.2 * 255.0)  # Var(z)=0.04 on [0,1]
        run(
            TheoremScenario(
                np.array([[1.0]]), NoiseModel("gaussian-fixed", 0.0), z_noise,
                0.5, constant_denoiser(0.0), name="scalar-oracle",
            ),
            trials,
        )
    crop = texture_image(32, np.random.default_rng(7))
    denoisers = {"identity": identity_denoiser(), "blur": blur_denoiser(),
                 "oracle": oracle_denoiser(crop)}
    for scenario, denoiser in denoisers.items():
        if args.scenario in ("all", scenario):
            for noise in (gauss, poisson):
                run(TheoremScenario(crop, noise, noise, args.eps, denoiser), trials)
    if args.eq4:
        rep = verify_constraint(crop, gauss, trials, rng)
        ok = rep.passed
        all_passed &= ok
        print(
            f"eq4-oracle\tmax|mean|/se={rep.max_sigma:.3f}\t"
            f"threshold={rep.threshold:.3f}\t{'PASS' if ok else 'FAIL'}"
        )
        neg = verify_constraint(crop, gauss, trials, rng, denoiser=constant_denoiser(0.0))
        detected = not neg.passed
        all_passed &= detected
        print(
            f"eq4-constant0 (negative control)\tmax|mean|/se={neg.max_sigma:.3f}\t"
            f"threshold={neg.threshold:.3f}\t{'DETECTED' if detected else 'MISSED'}"
        )
    return 0 if all_passed else 4


def cmd_gradcheck(args, argv) -> int:
    desc = ArchDescriptor(args.channels, args.depth, args.width, args.tail)
    rng = np.random.default_rng(args.seed)
    net = build_network(desc, rng)
    x = rng.standard_normal((1, args.size, args.size, args.channels))
    report = gradient_check(net, x, h=args.h, tol=args.tol, rng=rng)
    print(
        f"checked {report['checked']} parameters, max relative error "
        f"{report['max_rel_error']:.3e} (tol {report['tol']:g}): "
        f"{'PASS' if report['passed'] else 'FAIL'}"
    )
    return 0 if report["passed"] else 4


def cmd_dump_sampler(args, argv) -> int:
    rng = np.random.default_rng(args.seed)
    gen = (
        generate_fixlocation_subsampler if args.fix_location
        else generate_neighbor_subsampler
    )
    g = gen(args.height, args.width, args.k, rng)
    sys.stdout.write(dump_subsampler(g))
    return 0


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
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("train", help="train a denoiser on noisy images")
    p.add_argument("--data", required=True, help="directory of noisy training images")
    p.add_argument("--out", required=True)
    p.add_argument("--val-dir", dest="val_dir")
    p.add_argument("--resume", help="state.npz from a previous run")
    _add_train_flags(p)
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
    p.add_argument("--data", required=True)
    p.add_argument("--val-dir", dest="val_dir", required=True)
    p.add_argument("--out")
    p.add_argument("--gammas", default="0,2,8,20")
    _add_train_flags(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("ablate-sampler", help="fix-location vs random sampler")
    p.add_argument("--data", required=True)
    p.add_argument("--val-dir", dest="val_dir", required=True)
    p.add_argument("--out")
    _add_train_flags(p)
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

    p = sub.add_parser("dump-sampler", help="print a sub-sampler as text")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fix-location", action="store_true", dest="fix_location")
    p.set_defaults(fn=cmd_dump_sampler)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, argv)
    except (DataError, FileNotFoundError, ImageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
