"""In-memory span tracing of nbr2nbr, installed from outside the package.

Each public function of interest is wrapped where its callers look it
up (for example nbr2nbr.training.apply_noise, nbr2nbr.cli.denoise_image
and the methods of Network), so the package itself is unchanged. A span
records its name, start, end, the enclosing span and the request it
belongs to. Spans stay in memory and are written out once at the end.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Patches:
    """Replacements of module or class attributes, undone by restore()."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextlib.contextmanager
def capture(owner, attr: str, sink: list):
    """Append the return value of every call of owner.attr to sink."""
    patches = Patches()

    def make(original):
        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            sink.append(out)
            return out

        return wrapper

    patches.replace(owner, attr, make)
    try:
        yield sink
    finally:
        patches.restore()


class Tracer:
    """Span recorder. A span is [id, parent, name, start, end, request,
    attrs]; attrs is a dict or None."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self.paused = False
        self._stack: list[int] = []
        self._patches = Patches()

    def _open(self, name: str, attrs) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, name, time.perf_counter(), None, self.request, attrs]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = self._open(name, attrs or None)
        try:
            yield rec
        finally:
            self._close(rec)

    @contextlib.contextmanager
    def pause(self):
        """Call wrapped functions without recording, e.g. for checks."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Trace every call of owner.attr as span `name`; describe(args,
        kwargs, result) may return a dict stored with the span."""

        def make(original):
            def wrapper(*args, **kwargs):
                if self.paused:
                    return original(*args, **kwargs)
                rec = self._open(name, None)
                try:
                    out = original(*args, **kwargs)
                finally:
                    self._close(rec)
                if describe is not None:
                    rec[6] = describe(args, kwargs, out)
                return out

            return wrapper

        self._patches.replace(owner, attr, make)

    def restore(self) -> None:
        self._patches.restore()

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "request", "attrs")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


def summarize(spans: list[list]) -> dict:
    """Per span name: call count, total duration, total self time
    (duration minus the time covered by direct children)."""
    child_time = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[4] - s[3]
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s[2], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = s[4] - s[3]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[s[0]]
    return out


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every nbr2nbr module at the places
    the workloads reach them."""
    from nbr2nbr import cli, metrics, network, textures, theory, training

    def shape_of(i):
        return lambda args, kwargs, out: {"shape": list(args[i].shape)}

    def net_shape(args, kwargs, out):
        return {"shape": list(args[1].shape), "desc": args[0].descriptor.to_json(),
                "itemsize": args[0].dtype.itemsize}

    def out_shape(args, kwargs, out):
        return {"shape": list(out.shape)}

    def trials_at(i):
        return lambda args, kwargs, out: {"trials": int(args[i])}

    w = tracer.wrap
    w(network.Network, "forward", "network.forward", net_shape)
    w(network.Network, "backward", "network.backward", net_shape)
    w(training, "train", "training.train")
    w(training, "adam_step", "training.adam_step")
    w(training, "loss_rec", "training.loss_rec")
    w(training, "loss_reg", "training.loss_reg")
    for owner in (training, cli):
        w(owner, "denoise_image", "training.denoise_image")
    for owner in (training, theory):
        w(owner, "apply_noise", "noise.apply_noise")
        w(owner, "apply_subsampler", "subsampler.apply_subsampler")
        w(owner, "generate_neighbor_subsampler", "subsampler.generate")
    w(training, "generate_fixlocation_subsampler", "subsampler.generate")
    w(training, "random_crop", "imaging.random_crop")
    w(cli, "load_image", "imaging.load_image", out_shape)
    w(cli, "save_image", "imaging.save_image", shape_of(0))
    w(training, "psnr", "metrics.psnr")
    w(metrics, "psnr", "metrics.psnr")
    w(metrics, "ssim", "metrics.ssim", shape_of(0))
    w(cli, "verify_theorem1", "theory.verify_theorem1", trials_at(1))
    w(cli, "verify_constraint", "theory.verify_constraint", trials_at(2))
    w(theory, "ideal_objective_decomposition", "theory.ideal_objective_decomposition",
      trials_at(2))
    w(textures, "texture_set", "textures.texture_set")
    w(textures, "texture_image", "textures.texture_image")
    w(cli, "texture_image", "textures.texture_image")
