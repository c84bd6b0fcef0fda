import argparse
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nbr2nbr import cli
from nbr2nbr.cli import build_parser, main
from nbr2nbr.imaging import ImageError, load_image, save_float_image, save_image
from nbr2nbr.metrics import format_psnr_ssim, psnr, ssim
from nbr2nbr.textures import texture_set


@pytest.fixture
def clean_dir(tmp_path):
    d = tmp_path / "clean"
    d.mkdir()
    for i, img in enumerate(texture_set(4, 32, 21)):
        save_image(img, d / f"img{i:02d}.png")
    return d


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synthesize_deterministic_and_manifest(clean_dir, tmp_path):
    out1, out2 = tmp_path / "n1", tmp_path / "n2"
    for out in (out1, out2):
        rc = main(["synthesize", "--in", str(clean_dir), "--out", str(out),
                   "--noise", "gauss25", "--seed", "7"])
        assert rc == 0
    for p in sorted(out1.glob("*.png")) + sorted(out1.glob("*.f32")):
        assert sha(p) == sha(out2 / p.name)
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["resolved_config"]["noise"] == "gauss25"
    assert len(manifest["noise_levels"]) == 4


def test_synthesize_ranged_levels_logged(clean_dir, tmp_path):
    out = tmp_path / "n"
    assert main(["synthesize", "--in", str(clean_dir), "--out", str(out),
                 "--noise", "gauss5_50", "--seed", "1"]) == 0
    levels = json.loads((out / "manifest.json").read_text())["noise_levels"]
    assert all(5 <= v <= 50 for v in levels.values())


def test_synthesize_zero_sigma_outputs_equal_inputs(clean_dir, tmp_path):
    out = tmp_path / "n"
    assert main(["synthesize", "--in", str(clean_dir), "--out", str(out),
                 "--noise", "gauss0"]) == 0
    for p in sorted(clean_dir.glob("*.png")):
        a = load_image(p)
        b = load_image(out / p.name)
        assert np.abs(a - b).max() <= 1 / 255 + 1e-7


def test_synthesize_sidecar_unclamped(clean_dir, tmp_path):
    out = tmp_path / "n"
    assert main(["synthesize", "--in", str(clean_dir), "--out", str(out),
                 "--noise", "gauss25", "--seed", "3"]) == 0
    f32 = load_image(next(iter(sorted(out.glob("*.f32")))))
    assert f32.min() < 0 or f32.max() > 1  # sigma 25 spills outside [0,1]


def test_synthesize_bad_spec_usage(clean_dir, tmp_path):
    rc = main(["synthesize", "--in", str(clean_dir), "--out", str(tmp_path / "x"),
               "--noise", "pepper9"])
    assert rc == 3


def test_empty_input_dir_is_data_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["synthesize", "--in", str(empty), "--out", str(tmp_path / "o"),
               "--noise", "gauss25"])
    assert rc == 3


def test_dir_of_pnm_files_has_no_images(tmp_path, capsys):
    d = tmp_path / "pnm"
    d.mkdir()
    (d / "a.pgm").write_bytes(b"P5\n8 8\n255\n" + bytes(64))
    (d / "b.ppm").write_bytes(b"P6\n8 8\n255\n" + bytes(192))
    assert main(["eval", "--clean", str(d), "--test", str(d)]) == 3
    assert capsys.readouterr().err == f"error: no images (png/f32) in {d}\n"


TRAIN_FLAGS = [
    "--epochs", "2", "--batch", "2", "--crop", "16", "--depth", "1",
    "--width", "6", "--tail", "2", "--seed", "5", "--noise", "gauss25",
]


def test_train_deterministic_checkpoints(clean_dir, tmp_path):
    outs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        rc = main(["train", "--data", str(clean_dir), "--out", str(out)] + TRAIN_FLAGS)
        assert rc == 0
        outs.append(out)
    assert sha(outs[0] / "model.n2nckpt") == sha(outs[1] / "model.n2nckpt")
    log = (outs[0] / "train.log").read_text().strip().splitlines()
    assert log[0] == "epoch\tlr\tgamma\tloss_rec\tloss_reg\tpsnr_val"
    assert len(log) == 3


def test_manifest_command_line_reruns_the_run(clean_dir, tmp_path):
    first, second = tmp_path / "t1", tmp_path / "t2"
    assert main(["train", "--data", str(clean_dir), "--out", str(first)] + TRAIN_FLAGS) == 0
    argv = json.loads((first / "manifest.json").read_text())["command_line"]
    assert main([str(second) if a == str(first) else a for a in argv]) == 0
    assert (first / "model.n2nckpt").read_bytes() == (second / "model.n2nckpt").read_bytes()


def test_train_gamma_changes_checkpoint(clean_dir, tmp_path):
    hashes = []
    for g in ("0", "2"):
        out = tmp_path / f"g{g}"
        rc = main(["train", "--data", str(clean_dir), "--out", str(out),
                   "--gamma", g] + TRAIN_FLAGS)
        assert rc == 0
        hashes.append(sha(out / "model.n2nckpt"))
    assert hashes[0] != hashes[1]


def test_train_resume_matches_uninterrupted(clean_dir, tmp_path):
    full = tmp_path / "full"
    rc = main(["train", "--data", str(clean_dir), "--out", str(full),
               "--epochs", "4", "--batch", "2", "--crop", "16", "--depth", "1",
               "--width", "6", "--tail", "2", "--seed", "5", "--noise", "gauss25"])
    assert rc == 0

    part = tmp_path / "part"
    rc = main(["train", "--data", str(clean_dir), "--out", str(part),
               "--epochs", "2", "--batch", "2", "--crop", "16", "--depth", "1",
               "--width", "6", "--tail", "2", "--seed", "5", "--noise", "gauss25",
               "--save-every", "2"])
    assert rc == 0
    rc = main(["train", "--data", str(clean_dir), "--out", str(part),
               "--resume", str(part / "state.npz"),
               "--epochs", "4", "--batch", "2", "--crop", "16", "--depth", "1",
               "--width", "6", "--tail", "2", "--seed", "5", "--noise", "gauss25"])
    assert rc == 0
    assert sha(full / "model.n2nckpt") == sha(part / "model.n2nckpt")


def test_train_resume_into_new_directory_writes_log_header(clean_dir, tmp_path):
    full, part, other = tmp_path / "full", tmp_path / "part", tmp_path / "other"
    assert main(["train", "--data", str(clean_dir), "--out", str(full)] + TRAIN_FLAGS) == 0
    assert main(["train", "--data", str(clean_dir), "--out", str(part)]
                + TRAIN_FLAGS + ["--epochs", "1"]) == 0
    assert main(["train", "--data", str(clean_dir), "--out", str(other)]
                + TRAIN_FLAGS + ["--resume", str(part / "state.npz")]) == 0
    header, _, epoch1 = (full / "train.log").read_text().splitlines()
    assert (other / "train.log").read_text().splitlines() == [header, epoch1]
    assert epoch1.startswith("1\t")


def _resolved_options(monkeypatch, argv):
    """The option record a train command line resolves to, in record order."""
    from nbr2nbr import cli

    captured = {}

    def fake_train_config(resolved):
        captured.update(resolved)
        raise SystemExit(99)

    monkeypatch.setattr(cli, "_train_config", fake_train_config)
    with pytest.raises(SystemExit):
        main(argv)
    return captured


def test_option_precedence_profile_config_flag(clean_dir, tmp_path, monkeypatch):
    # builtin < flag: a flag wins over the builtin default, which holds where no flag is given
    captured = _resolved_options(monkeypatch, [
        "train", "--data", str(clean_dir), "--out", str(tmp_path / "o"),
        "--crop", "16", "--width", "8"])
    assert captured["crop"] == 16
    assert captured["width"] == 8
    assert captured["epochs"] == 100
    assert captured["batch"] == 4


# the removed --config file and --profile, and the options an ablation's variants set
@pytest.mark.parametrize("command,flags", [
    ("train", ["--config", "run.cfg"]),
    ("ablate-gamma", ["--config", "run.cfg"]),
    ("ablate-sampler", ["--config", "run.cfg"]),
    ("train", ["--profile", "desk"]),
    ("ablate-gamma", ["--profile", "desk"]),
    ("ablate-sampler", ["--profile", "desk"]),
    ("ablate-gamma", ["--gamma", "1"]),
    ("ablate-sampler", ["--sampler", "neighbor"]),
    ("ablate-gamma", ["--save-every", "1"]),
    ("ablate-sampler", ["--save-every", "1"]),
], ids=["train", "ablate-gamma", "ablate-sampler", "train-profile", "ablate-gamma-profile",
        "ablate-sampler-profile", "ablate-gamma-gamma", "ablate-sampler-sampler",
        "ablate-gamma-save-every", "ablate-sampler-save-every"])
def test_unknown_flag_is_usage_error(clean_dir, tmp_path, command, flags):
    with pytest.raises(SystemExit) as info:
        main([command, "--data", str(clean_dir), "--val-dir", str(clean_dir),
              "--out", str(tmp_path / "o"), *flags])
    assert info.value.code == 2
    assert not (tmp_path / "o").exists()


# state.npz and manifest.json store this record as JSON text, and --resume compares
# it, so its key order and value types (2.0, not 2) are part of the file format
OPTION_RECORD_TYPES = [
    ("noise", str), ("gamma", float), ("gamma_ramp", int), ("epochs", int), ("batch", int),
    ("crop", int), ("lr", float), ("lr_decay_every", int), ("lr_decay_factor", float),
    ("seed", int), ("sampler", str), ("depth", int), ("width", int), ("tail", int),
    ("channels", int), ("save_every", int),
]


@pytest.mark.parametrize("flags,text", [
    ([], '{"noise": "gauss25", "gamma": 2.0, "gamma_ramp": 10, "epochs": 100, "batch": 4, '
         '"crop": 256, "lr": 0.0003, "lr_decay_every": 20, "lr_decay_factor": 0.5, '
         '"seed": 0, "sampler": "neighbor", "depth": 2, "width": 24, "tail": 3, '
         '"channels": 1, "save_every": 0}'),
    (["--crop", "64", "--epochs", "20"],
     '{"noise": "gauss25", "gamma": 2.0, "gamma_ramp": 10, "epochs": 20, "batch": 4, '
     '"crop": 64, "lr": 0.0003, "lr_decay_every": 20, "lr_decay_factor": 0.5, '
     '"seed": 0, "sampler": "neighbor", "depth": 2, "width": 24, "tail": 3, '
     '"channels": 1, "save_every": 0}'),
], ids=["builtin", "desk"])
def test_option_record_pinned(clean_dir, tmp_path, monkeypatch, flags, text):
    resolved = _resolved_options(monkeypatch, ["train", "--data", str(clean_dir), "--out",
                                               str(tmp_path / "o")] + flags)
    assert [(k, type(v)) for k, v in resolved.items()] == OPTION_RECORD_TYPES
    assert json.dumps(resolved) == text


def test_train_takes_channels_from_data(tmp_path, capsys):
    from nbr2nbr.network import load_checkpoint

    rgb = tmp_path / "rgb"
    rgb.mkdir()
    for i, img in enumerate(texture_set(2, 32, 21)):
        save_image(np.repeat(img, 3, axis=2), rgb / f"r{i}.png")
    out = tmp_path / "o"
    assert main(["train", "--data", str(rgb), "--out", str(out)] + TRAIN_FLAGS) == 0
    assert load_checkpoint(out / "model.n2nckpt").descriptor.input_channels == 3
    resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
    assert list(resolved)[-2:] == ["channels", "save_every"] and resolved["channels"] == 3
    save_image(np.zeros((32, 32, 1)), rgb / "s.png")  # after r0, r1 in path order
    assert main(["train", "--data", str(rgb), "--out", str(out)] + TRAIN_FLAGS) == 3
    assert f"{rgb / 's.png'}: 1 channels, expected 3" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [("train", "--resume"), ("denoise", "--ckpt")])
def test_directory_in_place_of_a_file_is_data_error(clean_dir, tmp_path, capsys, command, flag):
    data = "--data" if command == "train" else "--in"
    argv = [command, data, str(clean_dir), flag, str(tmp_path), "--out", str(tmp_path / "o")]
    argv += TRAIN_FLAGS if command == "train" else []  # a crop the 32 px images hold
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flags,message", [
    ("train", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("ablate-gamma", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("train", ["--save-every", "-1"], "save_every must be >= 0, got -1"),
    ("synthesize", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("verify-theorem", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("gradcheck", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("gradcheck", ["--size", "-4"], "--size must be >= 1, got -4"),
    ("ablate-gamma", ["--gammas", "1,,2"], "--gammas must be numbers joined by commas, "
                                           "got '1,,2'"),
    ("ablate-gamma", ["--gammas", "0,2,2.0"], "--gammas repeats 2, got '0,2,2.0'"),
], ids=["train-seed", "ablate-seed", "save-every", "synthesize-seed", "verify-theorem-seed",
        "gradcheck-seed", "gradcheck-size-negative", "ablate-gammas-empty",
        "ablate-gammas-repeated"])
def test_bad_input_is_data_error_before_out_exists(clean_dir, tmp_path, capsys, monkeypatch,
                                                   command, flags, message):
    def no_network(*args):
        raise AssertionError("build_network was called")

    monkeypatch.setattr(cli, "build_network", no_network)
    out = tmp_path / "o"
    if command == "synthesize":
        argv = [command, "--in", str(clean_dir), "--noise", "gauss25", "--out", str(out)]
    elif command in ("verify-theorem", "gradcheck"):
        argv = [command]  # neither writes an output directory
    else:
        argv = [command, "--data", str(clean_dir), "--val-dir", str(clean_dir),
                "--out", str(out)] + TRAIN_FLAGS
    assert main(argv + flags) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == f"error: {message}\n"
    assert not out.exists()


def test_train_resume_refuses_changed_options(clean_dir, tmp_path, capsys):
    out = tmp_path / "part"
    base = ["train", "--data", str(clean_dir), "--out", str(out)] + TRAIN_FLAGS
    assert main(base) == 0
    state = out / "state.npz"
    capsys.readouterr()
    assert main(base + ["--resume", str(state), "--lr", "1e-3"]) == 3
    assert "changes lr" in capsys.readouterr().err
    # a state without the option record cannot be checked, so it is refused
    old = tmp_path / "old.npz"
    with np.load(state) as z:
        np.savez(old, **{k: z[k] for k in z.files if k != "options"})
    assert main(base + ["--resume", str(old)]) == 3
    assert "no record of its training options" in capsys.readouterr().err


@pytest.fixture
def trained(clean_dir, tmp_path, capsys):
    """The train command line of a finished 2-epoch run and its state.npz."""
    out = tmp_path / "part"
    base = ["train", "--data", str(clean_dir), "--out", str(out)] + TRAIN_FLAGS
    assert main(base) == 0
    capsys.readouterr()
    return base, out / "state.npz"


def test_train_resume_refuses_to_rewind(trained, capsys):
    base, state = trained  # the state's next epoch is 2
    before = sha(state)
    assert main(base + ["--resume", str(state), "--epochs", "1"]) == 3
    assert f"{state}: run is at epoch 2, past --epochs 1" in capsys.readouterr().err
    assert sha(state) == before


def test_train_resume_state_missing_array_is_data_error(trained, tmp_path, capsys):
    base, state = trained
    no_m = tmp_path / "no_m.npz"
    with np.load(state) as z:
        np.savez(no_m, **{k: z[k] for k in z.files if k != "m"})
    assert main(base + ["--resume", str(no_m)]) == 3
    assert f"{no_m}: training state lacks m" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["cut-in-half", "npy-not-npz"])
def test_train_resume_unreadable_state_is_data_error(trained, tmp_path, capsys, kind):
    base, state = trained
    bad = tmp_path / "bad.npz"
    if kind == "cut-in-half":
        data = state.read_bytes()
        bad.write_bytes(data[: len(data) // 2])
    else:
        with bad.open("wb") as f:
            np.save(f, np.zeros(3))
    assert main(base + ["--resume", str(bad)]) == 3
    assert f"{bad}: unreadable training state" in capsys.readouterr().err


def test_train_resume_short_adam_moment_is_data_error(trained, tmp_path, capsys):
    base, state = trained
    short_v = tmp_path / "short_v.npz"
    with np.load(state) as z:
        np.savez(short_v, **{k: z[k][:-1] if k == "v" else z[k] for k in z.files})
    assert main(base + ["--resume", str(short_v)]) == 3
    assert f"{short_v}: Adam m and v must each hold" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("key", ["params", "m", "v"])
def test_train_resume_non_finite_state_is_data_error(trained, tmp_path, capsys, key, value):
    # the state's next epoch is --epochs: a resume would write its parameters as they are
    base, state = trained
    bad, out = tmp_path / "bad.npz", tmp_path / "resumed"
    with np.load(state) as z:
        arrays = {k: z[k].copy() for k in z.files}
    arrays[key][7] = value
    np.savez(bad, **arrays)
    assert main(base + ["--out", str(out), "--resume", str(bad)]) == 3
    assert f"{bad}: {key} holds non-finite values" in capsys.readouterr().err
    assert not (out / "model.n2nckpt").exists()


def _json_array(value):
    return np.frombuffer(json.dumps(value).encode(), np.uint8)


@pytest.mark.parametrize("key,value", [
    ("options", _json_array([1])),
    ("options", np.array(2**62)),  # an integer, not bytes: never bytes(2**62)
    ("rng_state", _json_array({"bit_generator": "PCG64", "state": {"state": 1}})),
    ("rng_state", _json_array([1])),
    ("t", np.array([1, 2, 3])),
    ("t", np.int64(-7)),
    ("next_epoch", np.array(1.5)),
    ("next_epoch", np.int64(-3)),
    ("params", np.zeros(2, np.float32)),
], ids=["options-list", "options-integer", "rng-state-no-inc", "rng-state-list",
        "t-array", "t-negative", "next-epoch-float", "next-epoch-negative", "params-shape"])
def test_train_resume_malformed_state_is_data_error(trained, tmp_path, capsys, key, value):
    base, state = trained
    bad = tmp_path / "bad.npz"
    with np.load(state) as z:
        np.savez(bad, **{k: value if k == key else z[k] for k in z.files})
    assert main(base + ["--resume", str(bad)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_train_divergence_is_numeric_error_and_saves_nothing(clean_dir, tmp_path, capsys):
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        rc = main(["train", "--data", str(clean_dir), "--out", str(out), "--lr", "1e3",
                   "--save-every", "1"] + TRAIN_FLAGS)
    assert rc == 4
    assert "at epoch 0, step 2" in capsys.readouterr().err
    assert not list(out.glob("ckpt_epoch*.n2nckpt"))
    assert not (out / "state.npz").exists()
    assert not (out / "model.n2nckpt").exists()
    assert (out / "train.log").read_text() == "epoch\tlr\tgamma\tloss_rec\tloss_reg\tpsnr_val\n"


def test_train_divergence_prints_no_runtime_warning(clean_dir, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--data", str(clean_dir), "--out", str(tmp_path / "o"),
                   "--lr", "1e3"] + TRAIN_FLAGS)
    assert rc == 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "at epoch 0, step 2" in capsys.readouterr().err


def test_denoise_identity_checkpoint_and_determinism(clean_dir, tmp_path):
    # an all-zero-then-identity configured checkpoint: write via network API
    from nbr2nbr.network import ArchDescriptor, Network, parameter_count, save_checkpoint

    d = ArchDescriptor(1, 0, 1, 0)
    net = Network(d, np.zeros(parameter_count(d), dtype=np.float32))
    net.convs[0].w[1, 1, 0, 0] = 1.0
    ckpt = tmp_path / "id.n2nckpt"
    save_checkpoint(net, ckpt)

    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    for out in (out1, out2):
        rc = main(["denoise", "--ckpt", str(ckpt), "--in", str(clean_dir),
                   "--out", str(out)])
        assert rc == 0
    for p in sorted(out1.glob("*.png")):
        assert sha(p) == sha(out2 / p.name)
        np.testing.assert_array_equal(load_image(p), load_image(clean_dir / p.name))


def test_manifest_records_peak_rss_and_environment(clean_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = tmp_path / "d"
    ckpt = _identity_checkpoint(tmp_path / "m.n2nckpt")
    assert main(["denoise", "--ckpt", str(ckpt), "--in", str(clean_dir), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["peak_rss_mb"] > 1
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "blas", "blas_version", "openblas_num_threads",
                        "cpu_count"}
    assert env["numpy"] == np.__version__ and env["openblas_num_threads"] == "1"
    assert env["cpu_count"] == os.cpu_count()


def test_denoise_odd_size_padding(tmp_path):
    from nbr2nbr.network import ArchDescriptor, build_network, save_checkpoint

    net = build_network(ArchDescriptor(1, 2, 4, 1), np.random.default_rng(0))
    ckpt = tmp_path / "m.n2nckpt"
    save_checkpoint(net, ckpt)
    src = tmp_path / "src"
    src.mkdir()
    save_image(np.random.default_rng(1).random((65, 65, 1)), src / "odd.png")
    out = tmp_path / "out"
    assert main(["denoise", "--ckpt", str(ckpt), "--in", str(src),
                 "--out", str(out)]) == 0
    assert load_image(out / "odd.png").shape == (65, 65, 1)


def test_denoise_channel_mismatch(clean_dir, tmp_path, capsys):
    from nbr2nbr.network import ArchDescriptor, build_network, save_checkpoint
    from nbr2nbr.training import denoise_image

    net = build_network(ArchDescriptor(3, 0, 4, 1), np.random.default_rng(0))
    ckpt = tmp_path / "rgb.n2nckpt"
    save_checkpoint(net, ckpt)
    rc = main(["denoise", "--ckpt", str(ckpt), "--in", str(clean_dir),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(f"error: {clean_dir / 'img00.png'}: ")
    # the library's one check is Network.forward's
    with pytest.raises(ValueError, match=r"expected \(N,H,W,3\) input"):
        denoise_image(net, load_image(clean_dir / "img00.png"))


def _identity_checkpoint(path):
    from nbr2nbr.network import ArchDescriptor, build_network, save_checkpoint

    save_checkpoint(build_network(ArchDescriptor(1, 0, 2, 0), np.random.default_rng(0)), path)
    return path


def test_denoise_short_float_header_is_data_error(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.f32").write_bytes(b"N2NIMGF1" + bytes(2))  # header needs 20 bytes
    ckpt = _identity_checkpoint(tmp_path / "m.n2nckpt")
    assert main(["denoise", "--ckpt", str(ckpt), "--in", str(src),
                 "--out", str(tmp_path / "o")]) == 3


def test_denoise_bad_ihdr_length_is_data_error(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    save_image(np.zeros((4, 4, 1)), src / "a.png")
    png = (src / "a.png").read_bytes()
    # drop the IHDR's last payload byte and shrink its length field to 12
    (src / "a.png").write_bytes(png[:8] + (12).to_bytes(4, "big") + png[12:28] + png[29:])
    ckpt = _identity_checkpoint(tmp_path / "m.n2nckpt")
    assert main(["denoise", "--ckpt", str(ckpt), "--in", str(src),
                 "--out", str(tmp_path / "o")]) == 3


def test_denoise_truncated_checkpoint_is_data_error(clean_dir, tmp_path):
    ckpt = _identity_checkpoint(tmp_path / "m.n2nckpt")
    blob = ckpt.read_bytes()
    dlen = int.from_bytes(blob[8:12], "little")
    for cut in (10, 12 + dlen + 3):  # inside the descriptor length, then the count
        ckpt.write_bytes(blob[:cut])
        assert main(["denoise", "--ckpt", str(ckpt), "--in", str(clean_dir),
                     "--out", str(tmp_path / "o")]) == 3


def test_denoise_non_finite_checkpoint_is_data_error(clean_dir, tmp_path, capsys):
    ckpt = _identity_checkpoint(tmp_path / "m.n2nckpt")
    blob = bytearray(ckpt.read_bytes())
    blob[-4:] = struct.pack("<f", np.nan)  # the bias of the one conv
    ckpt.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["denoise", "--ckpt", str(ckpt), "--in", str(clean_dir),
                     "--out", str(tmp_path / "o")]) == 3
    assert str(ckpt) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_denoise_non_finite_output_is_numeric_error(clean_dir, tmp_path, capsys):
    from nbr2nbr.network import ArchDescriptor, build_network, save_checkpoint

    net = build_network(ArchDescriptor(1, 0, 2, 1), np.random.default_rng(0))
    net.params *= np.float32(1e30)  # finite, but the second conv overflows
    ckpt = tmp_path / "big.n2nckpt"
    save_checkpoint(net, ckpt)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["denoise", "--ckpt", str(ckpt), "--in", str(clean_dir),
                     "--out", str(out)]) == 4
    assert capsys.readouterr().err == "numeric failure: non-finite denoiser output\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("shape,payload,message", [
    ((2, 2, 1), bytes(17), "sidecar has 17 payload bytes, needs 4 whole float32 values"),
    ((1, 1, 2), bytes(8), "sidecar has 2 channels, expected 1 or 3"),
], ids=["stray-byte", "two-channels"])
def test_denoise_bad_float_payload_is_data_error(tmp_path, shape, payload, message):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.f32").write_bytes(b"N2NIMGF1" + struct.pack("<III", *shape) + payload)
    with pytest.raises(ImageError, match=message):
        load_image(src / "a.f32")
    ckpt = _identity_checkpoint(tmp_path / "m.n2nckpt")
    assert main(["denoise", "--ckpt", str(ckpt), "--in", str(src),
                 "--out", str(tmp_path / "o")]) == 3


def test_denoise_descriptor_missing_keys_is_data_error(clean_dir, tmp_path, capsys):
    ckpt = _identity_checkpoint(tmp_path / "m.n2nckpt")
    blob = ckpt.read_bytes()
    dlen = int.from_bytes(blob[8:12], "little")
    desc = b'{"depth": 0}'
    ckpt.write_bytes(blob[:8] + len(desc).to_bytes(4, "little") + desc + blob[12 + dlen:])
    assert main(["denoise", "--ckpt", str(ckpt), "--in", str(clean_dir),
                 "--out", str(tmp_path / "o")]) == 3
    assert "input_channels" in capsys.readouterr().err


def test_denoise_descriptor_null_field_is_data_error(clean_dir, tmp_path, capsys):
    ckpt = _identity_checkpoint(tmp_path / "m.n2nckpt")
    blob = ckpt.read_bytes()
    dlen = int.from_bytes(blob[8:12], "little")
    desc = json.loads(blob[12 : 12 + dlen])
    desc["base_width"] = None
    text = json.dumps(desc).encode()
    ckpt.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + dlen:])
    assert main(["denoise", "--ckpt", str(ckpt), "--in", str(clean_dir),
                 "--out", str(tmp_path / "o")]) == 3
    assert "must be integers: base_width" in capsys.readouterr().err


def test_denoise_descriptor_two_channels_is_data_error(clean_dir, tmp_path, capsys):
    ckpt = _identity_checkpoint(tmp_path / "m.n2nckpt")
    blob = ckpt.read_bytes()
    dlen = int.from_bytes(blob[8:12], "little")
    desc = json.loads(blob[12 : 12 + dlen])
    desc["input_channels"] = 2
    text = json.dumps(desc).encode()
    ckpt.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + dlen:])
    assert main(["denoise", "--ckpt", str(ckpt), "--in", str(clean_dir),
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: input_channels must be 1 or 3\n"


def test_synthesized_dir_is_read_once_per_stem(clean_dir, tmp_path, capsys):
    # synthesize writes a.png and its unclamped a.f32; the sidecar is the image
    noisy = tmp_path / "noisy"
    assert main(["synthesize", "--in", str(clean_dir), "--out", str(noisy),
                 "--noise", "gauss25", "--seed", "3"]) == 0
    ckpt = _identity_checkpoint(tmp_path / "m.n2nckpt")
    out = tmp_path / "d"
    assert main(["denoise", "--ckpt", str(ckpt), "--in", str(noisy), "--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert [Path(p).name for p in outputs] == [f"img{i:02d}.png" for i in range(4)]
    capsys.readouterr()
    assert main(["eval", "--clean", str(clean_dir), "--test", str(noisy)]) == 0
    rows = capsys.readouterr().out.splitlines()
    clean, sidecar = load_image(clean_dir / "img00.png"), load_image(noisy / "img00.f32")
    assert rows[0] == f"img00\t{format_psnr_ssim(psnr(clean, sidecar), ssim(clean, sidecar))}"


def test_train_reads_sidecar_once_per_stem(clean_dir, tmp_path, monkeypatch):
    from nbr2nbr import cli

    noisy = tmp_path / "noisy"
    assert main(["synthesize", "--in", str(clean_dir), "--out", str(noisy),
                 "--noise", "gauss25", "--seed", "3"]) == 0
    seen = []
    monkeypatch.setattr(cli, "train", lambda images, *args, **kwargs: seen.extend(images))
    assert main(["train", "--data", str(noisy), "--out", str(tmp_path / "t")]
                + TRAIN_FLAGS) == 0
    sidecars = sorted(noisy.glob("*.f32"))
    assert len(seen) == len(sidecars) == 4
    for img, path in zip(seen, sidecars):
        np.testing.assert_array_equal(img, load_image(path))


def test_ambiguous_stem_is_data_error(tmp_path, capsys):
    d = tmp_path / "d"
    d.mkdir()
    save_image(np.zeros((8, 8, 1)), d / "a.png")
    save_image(np.zeros((8, 8, 1)), d / "a.PNG")
    assert main(["eval", "--clean", str(d), "--test", str(d)]) == 3
    assert "a.PNG, a.png" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_eval_non_finite_sidecar_is_data_error(clean_dir, tmp_path, capsys, value):
    test = tmp_path / "test"
    test.mkdir()
    img = load_image(clean_dir / "img00.png")
    img[3, 5] = value
    for p in sorted(clean_dir.glob("*.png")):
        save_float_image(img if p.stem == "img00" else load_image(p), test / f"{p.stem}.f32")
    assert main(["eval", "--clean", str(clean_dir), "--test", str(test)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {test / 'img00.f32'}: sidecar holds non-finite values\n"


def test_eval_self_is_perfect(clean_dir, capsys):
    rc = main(["eval", "--clean", str(clean_dir), "--test", str(clean_dir)])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "mean\tinf/1.000"
    assert all("inf/1.000" in line for line in out)


@pytest.mark.parametrize("cut,message", [
    (0, "unrecognized image format"),  # an empty file
    (8, "PNG missing IHDR chunk"),  # the signature only
    (20, "PNG chunk extends past end of file"),  # inside the IHDR
    (33, "PNG missing IDAT/IEND chunks"),  # to the end of the IHDR
    (45, "PNG chunk extends past end of file"),  # inside the IDAT
], ids=["empty", "signature", "in-ihdr", "ihdr", "in-idat"])
def test_eval_truncated_png_names_the_file(clean_dir, tmp_path, capsys, cut, message):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "img00.png").write_bytes((clean_dir / "img00.png").read_bytes()[:cut])
    assert main(["eval", "--clean", str(bad), "--test", str(bad)]) == 3
    assert capsys.readouterr().err == f"error: {bad / 'img00.png'}: {message}\n"


def test_eval_channel_mismatch_names_both_files(clean_dir, tmp_path, capsys):
    rgb = tmp_path / "rgb"
    rgb.mkdir()
    for p in sorted(clean_dir.glob("*.png")):
        save_image(np.repeat(load_image(p), 3, axis=2), rgb / p.name)
    assert main(["eval", "--clean", str(clean_dir), "--test", str(rgb)]) == 3
    assert capsys.readouterr().err == (f"error: img00: {clean_dir / 'img00.png'} has shape "
                                       f"(32, 32, 1), {rgb / 'img00.png'} has (32, 32, 3)\n")


def test_eval_unpaired_is_data_error(clean_dir, tmp_path):
    other = tmp_path / "other"
    other.mkdir()
    save_image(np.zeros((32, 32, 1)), other / "lonely.png")
    rc = main(["eval", "--clean", str(clean_dir), "--test", str(other)])
    assert rc == 3


def test_gradcheck_command(capsys):
    rc = main(["gradcheck", "--depth", "1", "--width", "8", "--size", "16",
               "--seed", "0"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_refused_allocation_is_data_error():
    # the child lowers its own address-space limit to 2 GiB, so the 298 GiB parameter
    # vector of a 200000-wide net is refused without touching the machine's memory
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
            "from nbr2nbr.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code, "gradcheck", "--width", "200000",
                          "--depth", "0"], capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr.startswith("error: Unable to allocate 298. GiB")
    assert run.stderr.count("\n") == 1


@pytest.mark.parametrize("flags", [["--h", "0"], ["--h=-1e-4"], ["--h", "nan"],
                                   ["--h", "inf"], ["--size", "0"], ["--h", "-1e-4"]],
                         ids=["h-zero", "h-negative", "h-nan", "h-inf", "size-zero",
                              "h-negative-exponent"])
def test_gradcheck_out_of_domain_is_data_error(capsys, flags):
    assert main(["gradcheck", "--depth", "1", "--width", "4", *flags]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,flags", [
    ("synthesize", ["--noise", "gaussnan"]),
    ("train", ["--noise", "gaussnan"]),
    ("train", ["--lr", "-1"]),
    ("train", ["--lr=-1e-4"]),
    ("train", ["--lr", "-1e-4"]),
    ("train", ["--lr-decay-factor", "nan"]),
    ("train", ["--gamma", "nan"]),
    ("train", ["--gamma", "inf"]),
    ("ablate-gamma", ["--gammas", "0,nan"]),
    ("verify-theorem", ["--eps", "inf"]),
], ids=["synthesize-noise-nan", "noise-nan", "lr-negative", "lr-negative-exponent",
        "lr-negative-exponent-own-word", "lr-decay-factor-nan", "gamma-nan", "gamma-inf", "ablate-gamma-nan", "eps-inf"])
def test_out_of_domain_number_is_data_error(clean_dir, tmp_path, capsys, command, flags):
    out = tmp_path / "o"
    train = ["--data", str(clean_dir), "--out", str(out)] + TRAIN_FLAGS
    inputs = {"synthesize": ["--in", str(clean_dir), "--out", str(out)],
              "train": train, "ablate-gamma": train + ["--val-dir", str(clean_dir)],
              "verify-theorem": ["--trials", "20"]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        assert main([command, *inputs[command], *flags]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("o/*"))


@pytest.mark.parametrize("command,flags,message", [
    ("train", ["--depth", "8"], "crop larger than smallest training image"),
    ("train", TRAIN_FLAGS + ["--depth", "8"], "crop 16 must be divisible by 2^(depth+1) = 512"),
    ("train", TRAIN_FLAGS + ["--depth", "29"], "2^(depth+1) = 1073741824"),
    ("ablate-gamma", TRAIN_FLAGS + ["--depth", "8"], "2^(depth+1) = 512"),
    ("gradcheck", ["--depth", "9"], "spatial dims 16x16 not divisible by 2^9"),
], ids=["train-default-crop", "train-depth-8", "train-depth-29", "ablate-depth-8",
        "gradcheck-depth-9"])
def test_geometry_is_checked_before_the_network_is_built(clean_dir, tmp_path, capsys,
                                                          monkeypatch, command, flags, message):
    # a deep net is gigabytes of parameters: refuse the crop or size before allocating it
    from nbr2nbr import cli

    def no_network(*args):
        raise AssertionError("build_network was called")

    monkeypatch.setattr(cli, "build_network", no_network)
    out = tmp_path / "o"
    train = ["--data", str(clean_dir), "--out", str(out)]
    inputs = {"train": train, "ablate-gamma": train + ["--val-dir", str(clean_dir)],
              "gradcheck": []}
    assert main([command, *inputs[command], *flags]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synthesize", "train"])
def test_noise_spec_with_two_underscores_is_data_error(clean_dir, tmp_path, capsys, command):
    out = tmp_path / "o"
    inputs = {"synthesize": ["--in", str(clean_dir)], "train": ["--data", str(clean_dir)]}
    assert main([command, *inputs[command], "--out", str(out), "--noise", "gauss5_50_7"]) == 3
    assert "at most one '_'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["gauss 5_ 50", "gauss+5_+50", "gauss1e1", "gauss\u0662\u0665"],
                         ids=["spaces", "signs", "exponent", "arabic-indic-digits"])
def test_noise_spec_outside_the_grammar_is_data_error(clean_dir, tmp_path, capsys, spec):
    # float() reads each of these; the grammar is ASCII digits with optional decimals
    out = tmp_path / "o"
    assert main(["synthesize", "--in", str(clean_dir), "--out", str(out), "--noise", spec]) == 3
    assert capsys.readouterr().err.startswith(f"error: bad noise spec {spec!r}")
    assert not out.exists()


def test_image_directory_that_is_a_file_is_data_error(clean_dir, capsys):
    png = clean_dir / "img00.png"
    assert main(["eval", "--clean", str(png), "--test", str(clean_dir)]) == 3
    assert capsys.readouterr().err == f"error: not a directory: {png}\n"


def test_verify_theorem_scalar(capsys):
    rc = main(["verify-theorem", "--scenario", "scalar-oracle",
               "--trials", "20000", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scalar-oracle" in out and "PASS" in out


def test_verify_theorem_eq4_prints_threshold(capsys):
    main(["verify-theorem", "--scenario", "scalar-oracle", "--eq4",
          "--trials", "200", "--seed", "0"])
    out = capsys.readouterr().out
    assert "eq4-oracle\tmax|mean|/se=" in out and "\tthreshold=4.405\t" in out


VERIFY_EQ4_SEED4 = """\
scenario\tlhs\trhs\t|diff|\t3*s.e.\tresult
scalar-oracle\t1.000000\t1.040796\t0.040796\t0.069894\tPASS
identity/gaussian-fixed\t0.009600\t0.009582\t0.000017\t0.000110\tPASS
identity/poisson-fixed\t0.016169\t0.016126\t0.000043\t0.000185\tPASS
blur3/gaussian-fixed\t0.009924\t0.009864\t0.000060\t0.000107\tPASS
blur3/poisson-fixed\t0.010699\t0.010679\t0.000020\t0.000144\tPASS
oracle/gaussian-fixed\t0.000000\t0.000000\t0.000000\t0.000000\tPASS
oracle/poisson-fixed\t0.000000\t0.000000\t0.000000\t0.000000\tPASS
eq4-oracle\tmax|mean|/se=2.984\tthreshold=4.405\tPASS
eq4-constant0 (negative control)\tmax|mean|/se=177.049\tthreshold=4.405\tDETECTED
"""


def test_verify_theorem_eq4_output_pinned(capsys):
    # recorded output: labels, scenario order and the draws of every check
    assert main(["verify-theorem", "--eq4", "--trials", "300", "--seed", "4"]) == 0
    assert capsys.readouterr().out == VERIFY_EQ4_SEED4


def test_verify_theorem_one_trial_is_data_error(capsys):
    assert main(["verify-theorem", "--scenario", "scalar-oracle", "--eq4", "--trials", "1"]) == 3
    assert "at least 2 trials" in capsys.readouterr().err


def test_ablate_gamma_table(clean_dir, tmp_path, capsys):
    out_dir = tmp_path / "not" / "yet"
    rc = main(["ablate-gamma", "--data", str(clean_dir),
               "--val-dir", str(clean_dir), "--gammas", "0,2", "--out", str(out_dir),
               "--epochs", "1", "--batch", "2", "--crop", "16", "--depth", "1",
               "--width", "6", "--tail", "1", "--seed", "5", "--noise", "gauss25"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "gamma\tPSNR/SSIM"
    assert len(out) == 3
    assert out[1].startswith("0\t") and out[2].startswith("2\t")
    ckpts = sorted(p.name for p in out_dir.glob("*.n2nckpt"))
    assert ckpts == ["model_gamma=0.n2nckpt", "model_gamma=2.n2nckpt"]
    assert (out_dir / "manifest.json").is_file()


def test_ablate_checks_training_channels(clean_dir, tmp_path, capsys):
    # gray training images set one channel, so an RGB validation image is refused
    rgb = tmp_path / "rgb"
    rgb.mkdir()
    save_image(np.random.default_rng(0).random((32, 32, 3)), rgb / "a.png")
    rc = main(["ablate-sampler", "--data", str(clean_dir), "--val-dir", str(rgb),
               "--epochs", "1", "--batch", "2", "--crop", "16",
               "--depth", "1", "--width", "6", "--tail", "1"])
    assert rc == 3
    assert f"{rgb / 'a.png'}: 3 channels, expected 1" in capsys.readouterr().err


@pytest.mark.parametrize("command,rc", [("train", 0), ("ablate-gamma", 3), ("ablate-sampler", 3),
                                        ("eval", 3)])
def test_validation_image_smaller_than_the_ssim_window(clean_dir, tmp_path, capsys, monkeypatch,
                                                       command, rc):
    # ablate-* scores SSIM (11x11 window) on --val-dir, so it refuses a smaller image before
    # a network is built; train scores PSNR only and takes it; eval scores SSIM on both dirs
    small = tmp_path / "small"
    small.mkdir()
    save_image(np.zeros((32, 32, 1)), small / "a.png")
    save_image(np.zeros((8, 8, 1)), small / "b.png")
    if rc:
        def no_network(*args):
            raise AssertionError("build_network was called")

        monkeypatch.setattr(cli, "build_network", no_network)
    out = tmp_path / "o"
    if command == "eval":
        argv = [command, "--clean", str(small), "--test", str(small)]
    else:
        argv = [command, "--data", str(clean_dir), "--val-dir", str(small),
                "--out", str(out)] + TRAIN_FLAGS
    assert main(argv) == rc
    if rc:
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"error: {small / 'b.png'}: 8x8 is smaller than the 11x11 SSIM window\n"
        assert not out.exists()


@pytest.mark.parametrize("command,varied,flags", [("ablate-gamma", "gamma", ["--gammas", "0,2"]),
                                                  ("ablate-sampler", "sampler", [])],
                         ids=["ablate-gamma", "ablate-sampler"])
def test_ablate_manifest_leaves_out_the_varied_option_and_save_every(clean_dir, tmp_path,
                                                                     command, varied, flags):
    # the printed table gives each variant's option, and no ablation reads save_every
    out = tmp_path / "o"
    assert main([command, "--data", str(clean_dir), "--val-dir", str(clean_dir),
                 "--out", str(out)] + TRAIN_FLAGS + flags) == 0
    resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
    assert varied not in resolved and "save_every" not in resolved
    assert list(resolved) == [k for k, _ in OPTION_RECORD_TYPES if k not in (varied, "save_every")]


def test_ablate_sampler_table(clean_dir, tmp_path, capsys):
    rc = main(["ablate-sampler", "--data", str(clean_dir),
               "--val-dir", str(clean_dir),
               "--epochs", "1", "--batch", "2", "--crop", "16", "--depth", "1",
               "--width", "6", "--tail", "1", "--seed", "5", "--noise", "gauss25"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "sampler\tPSNR/SSIM"
    assert out[1].startswith("Fix-location") and out[2].startswith("Random")


def test_ablate_divergence_is_numeric_error(clean_dir, tmp_path, capsys):
    with np.errstate(all="ignore"):
        rc = main(["ablate-gamma", "--data", str(clean_dir), "--val-dir", str(clean_dir),
                   "--gammas", "0,2", "--lr", "1e3"] + TRAIN_FLAGS)
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numeric failure: non-finite" in captured.err


def test_command_lists_agree():
    # the parser, the README's command table and the module docstring name one set
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = re.findall(r"^\| `([a-z-]+)` \|", readme, re.M)
    listed = re.search(r"^Commands: ([^.]*)\.$", cli.__doc__, re.M | re.S)[1]
    assert sorted(table) == sorted(c.strip() for c in listed.split(",")) == sorted(sub.choices)


def test_readme_names_only_existing_flags():
    # every --flag the README names is an option of some command (pip's flag aside), and
    # every flag of an `nbr2nbr <command> ...` line in a code block is one of that command's
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings}
               for name, p in sub.choices.items()}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    flag = r"(?<![\w-])--[a-z][a-z0-9-]*"
    named = set(re.findall(flag, readme)) - {"--no-build-isolation"}
    unknown = named - set().union(*options.values())
    assert named and not unknown, sorted(unknown)
    blocks = "".join(re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S))
    lines = re.findall(r"^nbr2nbr ([a-z-]+)(.*)$", blocks, re.M)
    assert {command for command, _ in lines} >= {"synthesize", "train", "ablate-gamma"}
    for command, rest in lines:
        unknown = set(re.findall(flag, rest)) - options[command]
        assert not unknown, (command, sorted(unknown))
