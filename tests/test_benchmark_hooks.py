"""perfbench/ traces the package by replacing module attributes by name
(cli.load_image, training.apply_noise, ...). Installing its tracer here
makes a renamed or removed name fail in the test suite rather than in a
traced benchmark run."""

import importlib
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
