"""perfbench/ traces the package by replacing module attributes by name
(cli.load_image, training.apply_noise, ...). Installing its tracer here
makes a renamed or removed name fail in the test suite rather than in a
traced benchmark run."""

import contextlib
import importlib
import io
from pathlib import Path

import numpy as np
import pytest

from nbr2nbr import cli, imaging, training
from nbr2nbr.network import ArchDescriptor, build_network
from nbr2nbr.noise import parse_noise_spec
from nbr2nbr.textures import texture_set


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracer")


def test_tracer_hooks_resolve(tracer):
    tr = tracer.Tracer()
    try:
        tracer.install(tr)
        assert cli.load_image is not imaging.load_image  # wrapped
    finally:
        tr.restore()
    assert cli.load_image is imaging.load_image


def test_tracer_sees_every_part_of_the_training_step(tracer):
    # a name the step bound at import would escape the wrapper and read 0
    cfg = training.TrainConfig(noise=parse_noise_spec("gauss25"), epochs=1, batch_size=2,
                               crop=16, seed=0)
    rng = np.random.default_rng(cfg.seed)
    net = build_network(ArchDescriptor(1, 1, 6, 1), rng)
    clean = texture_set(1, 16, 9)[0]
    tr = tracer.Tracer()
    try:
        tracer.install(tr)
        training.train(texture_set(4, 32, 5), cfg, net, validation=[(clean, clean)], rng=rng)
    finally:
        tr.restore()
    names = tracer.summarize(tr.spans)
    for name in ("training.train", "training.adam_step", "training.loss_rec",
                 "training.loss_reg", "training.denoise_image", "noise.apply_noise",
                 "subsampler.apply_subsampler", "subsampler.generate", "imaging.random_crop",
                 "network.forward", "network.backward", "metrics.psnr"):
        assert names.get(name, {}).get("calls", 0) > 0, name


def test_tracer_counts_every_verify_theorem_check(tracer):
    # perfbench's verify workload reads trials per second from these spans;
    # a check that called theory directly, or passed trials by keyword,
    # would escape them or lose its count
    tr = tracer.Tracer()
    try:
        tracer.install(tr)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify-theorem", "--eq4", "--trials", "50", "--seed", "1"]) == 0
    finally:
        tr.restore()
    trials = {}
    for _id, _parent, name, _start, _end, _request, attrs in tr.spans:
        trials.setdefault(name, []).append(attrs)
    assert trials["theory.verify_theorem1"] == [{"trials": 50}] * 7
    assert trials["theory.verify_constraint"] == [{"trials": 50}] * 2
