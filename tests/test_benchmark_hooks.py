"""perfbench/ traces the package by replacing module attributes by name
(cli.load_image, training.apply_noise, ...). Installing its tracer here
makes a renamed or removed name fail in the test suite rather than in a
traced benchmark run."""

import importlib
from pathlib import Path

from nbr2nbr import cli, imaging


def test_tracer_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    tr = tracer.Tracer()
    try:
        tracer.install(tr)
        assert cli.load_image is not imaging.load_image  # wrapped
    finally:
        tr.restore()
    assert cli.load_image is imaging.load_image
