"""One benchmark workload, run in this process; run.py starts it.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --workdir DIR --result FILE --trace-file FILE

Each workload is a closed loop with one client: the next request starts
when the previous one has returned. Requests are timed; the correctness
checks that follow each one are not. With --trace 0 the result holds
the end-to-end figures, with times scaled to the reference machine speed
(see calib.py). With --trace 1 the workload runs twice on the same
inputs, first untraced and then traced, and the result holds the
per-layer figures of the traced pass and its overhead ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from nbr2nbr import cli, imaging, network, textures, theory, training
from nbr2nbr.network import ArchDescriptor
from nbr2nbr.noise import parse_noise_spec

import calib
import layers
import pngenc
import tracer as tracing

GAUSS25 = parse_noise_spec("gauss25")
SIGMA = 25.0 / 255.0
DESK_GRAY = ArchDescriptor(1, 2, 24, 3)
DESK_RGB = ArchDescriptor(3, 2, 24, 3)
# A Monte-Carlo statistic is accepted within Z standard errors. At 3 se
# a correct identity fails one test in 370, and the eq-4 check takes the
# worst of 256 pixels, so the CLI's own 3-se verdict fails about half of
# all seeds. At 6 se a correct program fails any of the ~264 tests of a
# verify request with odds of about 1e-6, under 1e-3 over a thousand
# requests, while a real bias still shows.
Z = 6.0
FILTER_DECODE_REPS = 3


class Checks:
    """Counts correctness checks; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


class Stop(Exception):
    """Ends a training run from its epoch callback."""


def quantize(img: np.ndarray) -> np.ndarray:
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def psnr_db(a: np.ndarray, b: np.ndarray) -> float:
    d = np.clip(a.astype(np.float64), 0, 1) - np.clip(b.astype(np.float64), 0, 1)
    return 10.0 * math.log10(1.0 / float(np.mean(d * d)))


def decodes_to(img: np.ndarray, src8: np.ndarray) -> bool:
    """True when a decoded image is exactly v/255 of the source bytes."""
    return np.array_equal(img, src8.astype(np.float32) / np.float32(255.0))


def nearest_rank(samples: list[float], percentile: float) -> float:
    ranked = sorted(samples)
    return ranked[max(1, math.ceil(percentile * len(ranked) / 100)) - 1]


def tail(samples: list[float]) -> dict:
    """Highest whole percentile with at least ten samples above it
    (nearest rank), with that percentile and the sample count."""
    n = len(samples)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    p = (100 * (n - 10)) // n
    return {"value": nearest_rank(samples, p), "percentile": p, "samples": n}


def write_png(img8: np.ndarray, path: Path, counts: np.ndarray) -> None:
    png, row_filters = pngenc.encode_png(img8)
    counts += np.bincount(row_filters, minlength=5)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(png)


class Pass:
    """Raw and scaled times of the requests of one pass, the work they
    did (crops, images or trials) and other figures of the workload."""

    def __init__(self):
        self.raw_s: list[float] = []
        self.scaled_s: list[float] = []
        self.work = 0
        self.extra: dict = {}


class Workload:
    """A closed loop of requests. Subclasses provide setup(workdir) ->
    inputs, request(inputs, i) made of timed() steps, check(inputs, i,
    result, checks), finish(inputs, pass) and figures(times, pass), the
    workload's own throughput and latency figures."""

    setup_reps = 3
    min_items = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer: tracing.Tracer | None = None
        self.scaler = calib.Scaler(enabled=False)
        self._steps: list[tuple[float, float]] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def untraced(self):
        return self.tracer.pause() if self.tracer else contextlib.nullcontext()

    def more(self, done: int, started: float, seconds: float | None, max_items: int | None) -> bool:
        if max_items is not None:
            return done < max_items
        return done < self.min_items or time.perf_counter() - started < seconds

    def timed(self, fn, *args, **kwargs):
        """Run one timed step of a request."""
        out, raw, scaled = self.scaler.step(fn, *args, **kwargs)
        self._steps.append((raw, scaled))
        return out

    def run(self, inputs, seconds, max_items, checks: Checks) -> Pass:
        p = Pass()
        started = time.perf_counter()
        while self.more(len(p.raw_s), started, seconds, max_items):
            i = len(p.raw_s)
            if self.tracer:
                self.tracer.request = i
            self._steps = []
            with self.span("bench.request"):
                out = self.request(inputs, i)
            p.raw_s.append(sum(raw for raw, _ in self._steps))
            p.scaled_s.append(sum(scaled for _, scaled in self._steps))
            self.scaler.interrupt()
            with self.untraced():
                self.check(inputs, i, out, checks)
        self.finish(inputs, p)
        return p


class Train(Workload):
    """training.train at desk shapes on an in-memory procedural corpus;
    one item is one epoch."""

    setup_reps = 7
    min_items = 12  # enough epochs to beat the noisy input and to give a tail
    corpus = 16
    crop = 64

    def setup(self, workdir: Path):
        corpus = textures.texture_set(self.corpus, 96, self.seed)
        val_clean = textures.texture_set(2, 96, self.seed + 1)
        rng = np.random.default_rng([self.seed, 2])
        val = [(c, (c + rng.normal(0.0, SIGMA, c.shape)).astype(np.float32)) for c in val_clean]
        return corpus, val

    def run(self, inputs, seconds, max_items, checks: Checks) -> Pass:
        corpus, val = inputs
        cfg = training.TrainConfig(
            noise=GAUSS25, gamma=2.0, gamma_ramp_epochs=10, epochs=10**6, batch_size=4,
            crop=self.crop, seed=self.seed, sampler_kind="neighbor",
        )
        rng = np.random.default_rng(cfg.seed)
        net = network.build_network(DESK_GRAY, rng)
        p = Pass()
        records: list[dict] = []
        started = time.perf_counter()

        def on_epoch_end(epoch, net, adam, rng, record):
            nonlocal epoch_start
            raw = time.perf_counter() - epoch_start
            p.raw_s.append(raw)
            p.scaled_s.append(self.scaler.stop(raw))
            records.append(record)
            if self.tracer:
                self.tracer.request = epoch + 1
            if not self.more(len(records), started, seconds, max_items):
                raise Stop
            epoch_start = time.perf_counter()

        if self.tracer:
            self.tracer.request = 0
        self.scaler.start()
        epoch_start = time.perf_counter()
        try:
            training.train(corpus, cfg, net, validation=val, rng=rng, on_epoch_end=on_epoch_end)
        except Stop:
            pass
        p.work = len(records) * len(corpus)
        for r in records:
            checks(math.isfinite(r["loss_rec"]) and math.isfinite(r["loss_reg"]),
                   f"epoch {r['epoch']}: non-finite loss")
        noisy_db = float(np.mean([psnr_db(c, n) for c, n in val]))
        val_db = records[-1]["psnr_val"]
        checks(val_db > noisy_db, f"val PSNR {val_db:.2f} dB does not beat noisy {noisy_db:.2f} dB")
        p.extra = {
            "val_psnr_db": {"value": val_db, "unit": "dB"},
            "noisy_psnr_db": {"value": noisy_db, "unit": "dB"},
        }
        return p

    def figures(self, times: list[float], p: Pass) -> dict:
        return {
            "crops_per_s": {"value": p.work / sum(times), "unit": "1/s"},
            "epoch_s_p50": {"value": statistics.median(times), "unit": "s"},
            "epoch_s_tail": dict(tail(times), unit="s"),
        }


class Restore(Workload):
    """denoise then eval through the CLI, one Kodak-sized RGB image per
    request, inputs written with per-row adaptive PNG filters."""

    images = 3
    height, width = 512, 768
    tiles = 4
    tile = 64
    halo = 32  # >= the receptive-field radius of the depth-2 network, a multiple of 4

    def setup(self, workdir: Path):
        ckpt = workdir / "model.n2nckpt"
        workdir.mkdir(parents=True, exist_ok=True)
        network.save_checkpoint(network.build_network(DESK_RGB, np.random.default_rng(0)), ckpt)
        tex_rng = np.random.default_rng(self.seed)
        noise_rng = np.random.default_rng([self.seed, 1])
        filters = np.zeros(5, dtype=np.int64)
        clean8, noisy8 = [], []
        for k in range(self.images):
            clean = np.concatenate(
                [textures.texture_image(self.width, tex_rng)[: self.height] for _ in range(3)],
                axis=2,
            )
            noisy = clean + noise_rng.normal(0.0, SIGMA, clean.shape)
            clean8.append(quantize(clean))
            noisy8.append(quantize(noisy))
            write_png(clean8[-1], workdir / f"clean{k}" / "img.png", filters)
            write_png(noisy8[-1], workdir / f"noisy{k}" / "img.png", filters)
        return {"dir": workdir, "ckpt": ckpt, "clean8": clean8, "noisy8": noisy8,
                "filters": filters}

    def run(self, inputs, seconds, max_items, checks: Checks) -> Pass:
        self.reference = network.load_checkpoint(inputs["ckpt"]).astype(np.float64)
        return super().run(inputs, seconds, max_items, checks)

    def finish(self, inputs, p: Pass) -> None:
        p.work = len(p.raw_s)
        p.extra = {"input_filter_rows": dict(zip(pngenc.FILTER_NAMES, inputs["filters"].tolist()))}

    def figures(self, times: list[float], p: Pass) -> dict:
        mpix = p.work * self.height * self.width / 1e6
        return {
            "mpix_per_s": {"value": mpix / sum(times), "unit": "Mpix/s"},
            "image_s_p50": {"value": statistics.median(times), "unit": "s"},
            "image_s_tail": dict(tail(times), unit="s"),
        }

    def request(self, inputs, i):
        k = i % self.images
        d = inputs["dir"]
        out = d / f"out{i}"
        loaded: list[np.ndarray] = []
        printed = io.StringIO()
        with tracing.capture(cli, "load_image", loaded):
            with self.span("cli.denoise"):
                rc_denoise = self.timed(cli.main, ["denoise", "--ckpt", str(inputs["ckpt"]),
                                                   "--in", str(d / f"noisy{k}"), "--out", str(out)])
            with self.span("cli.eval"), contextlib.redirect_stdout(printed):
                rc_eval = self.timed(
                    cli.main, ["eval", "--clean", str(d / f"clean{k}"), "--test", str(out)])
        return rc_denoise, rc_eval, loaded, printed.getvalue(), out

    def check(self, inputs, i, out, checks: Checks) -> None:
        rc_denoise, rc_eval, loaded, printed, out_dir = out
        k = i % self.images
        clean8, noisy8 = inputs["clean8"][k], inputs["noisy8"][k]
        checks(rc_denoise == 0 and rc_eval == 0 and len(loaded) == 3,
               f"request {i}: exit codes {rc_denoise}/{rc_eval}, {len(loaded)} images read")
        if len(loaded) != 3:
            return
        checks(decodes_to(loaded[0], noisy8), f"request {i}: decoded noisy input differs")
        checks(decodes_to(loaded[1], clean8), f"request {i}: decoded clean image differs")
        restored8 = np.round(loaded[2] * 255.0).astype(np.uint8)
        checks(self.matches_reference(noisy8, restored8, i),
               f"request {i}: restored image differs from float64 forward by > 1 LSB")
        own = psnr_db(clean8 / 255.0, restored8 / 255.0)
        rows = [line.split("\t") for line in printed.splitlines()]
        shown = [float(r[1].split("/")[0]) for r in rows if len(r) == 2 and r[0] in ("img", "mean")]
        checks(len(shown) == 2 and all(abs(v - own) <= 0.0051 for v in shown),
               f"request {i}: eval printed PSNR {shown}, bench computes {own:.4f}")
        shutil.rmtree(out_dir)

    def matches_reference(self, noisy8: np.ndarray, restored8: np.ndarray, i: int) -> bool:
        """Compare tiles of the restored image with a float64 forward pass
        over the tile plus a halo. Tiles and halos are aligned to the
        pooling grid, so tile interiors see the same inputs as in the
        full-image pass."""
        rng = np.random.default_rng([self.seed, 3, i])
        h, w = noisy8.shape[:2]
        worst = 0
        for _ in range(self.tiles):
            top = 4 * int(rng.integers(0, (h - self.tile) // 4 + 1))
            left = 4 * int(rng.integers(0, (w - self.tile) // 4 + 1))
            y0, x0 = max(0, top - self.halo), max(0, left - self.halo)
            y1 = min(h, top + self.tile + self.halo)
            x1 = min(w, left + self.tile + self.halo)
            window = noisy8[y0:y1, x0:x1].astype(np.float64) / 255.0
            ref = self.reference.forward(window[None], record=False)[0]
            ref8 = quantize(ref[top - y0 : top - y0 + self.tile, left - x0 : left - x0 + self.tile])
            got8 = restored8[top : top + self.tile, left : left + self.tile]
            worst = max(worst, int(np.abs(ref8.astype(int) - got8.astype(int)).max()))
        return worst <= 1

    def filter_pass(self, inputs, checks: Checks) -> dict:
        """Decode one crop written with each single filter type through
        imaging.load_image; MB/s of decoded pixel bytes, median of
        FILTER_DECODE_REPS decodes."""
        crop8 = inputs["clean8"][0][:256, :256]
        rates = {}
        for ftype, fname in enumerate(pngenc.FILTER_NAMES):
            path = inputs["dir"] / f"filter-{fname}.png"
            path.write_bytes(pngenc.encode_png(crop8, ftype)[0])
            times = []
            for _ in range(FILTER_DECODE_REPS):
                with self.span(f"imaging.decode_filter.{fname}"):
                    t0 = time.perf_counter()
                    img = imaging.load_image(path)
                    times.append(time.perf_counter() - t0)
            checks(decodes_to(img, crop8), f"filter {fname}: decoded crop differs")
            rates[fname] = crop8.size / 1e6 / statistics.median(times)
        return rates


class Verify(Workload):
    """verify-theorem --eq4 through the CLI with the full scenario
    battery, then theory.ideal_objective_decomposition directly."""

    setup_reps = 7
    min_items = 11
    trials = 500
    crops = 32
    trials_per_request = 10 * trials  # 7 theorem-1 scenarios, 2 eq-4 checks, 1 decomposition

    def setup(self, workdir: Path):
        rng = np.random.default_rng(self.seed)
        return [textures.texture_image(32, rng) for _ in range(self.crops)]

    def run(self, inputs, seconds, max_items, checks: Checks) -> Pass:
        self.cli_exit4 = 0
        return super().run(inputs, seconds, max_items, checks)

    def finish(self, inputs, p: Pass) -> None:
        p.work = len(p.raw_s) * self.trials_per_request
        p.extra = {"cli_exit4_requests": {"value": self.cli_exit4, "unit": "count"}}

    def figures(self, times: list[float], p: Pass) -> dict:
        return {"trials_per_s": {"value": p.work / sum(times), "unit": "1/s"}}

    def request(self, crops, i):
        return self.timed(self.verify, crops, i)

    def verify(self, crops, i):
        theorem: list = []
        constraint: list = []
        with tracing.capture(cli, "verify_theorem1", theorem), \
                tracing.capture(cli, "verify_constraint", constraint):
            with self.span("cli.verify"), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["verify-theorem", "--eq4", "--trials", str(self.trials),
                               "--seed", str(self.seed * 100_000 + i)])
        decomposition = theory.ideal_objective_decomposition(
            crops[i % len(crops)], GAUSS25, self.trials, np.random.default_rng([self.seed, 4, i]))
        return rc, theorem, constraint, decomposition

    def check(self, crops, i, out, checks: Checks) -> None:
        rc, theorem, constraint, dec = out
        complete = rc in (0, 4) and len(theorem) == 7 and len(constraint) == 2
        checks(complete, f"request {i}: exit {rc}, {len(theorem)}+{len(constraint)} reports")
        if not complete:
            return
        self.cli_exit4 += rc == 4
        verdicts = all(r.passed for r in theorem) and constraint[0].passed and not constraint[1].passed
        checks(rc == (0 if verdicts else 4), f"request {i}: exit {rc} disagrees with its verdicts")
        for r in theorem:
            checks(r.diff <= Z * r.standard_error,
                   f"request {i}: theorem-1 |lhs-rhs| {r.diff:.3g} > {Z} se {r.standard_error:.3g}")
        checks(constraint[0].max_sigma <= Z, f"request {i}: eq-4 oracle at {constraint[0].max_sigma:.2f} se")
        checks(constraint[1].max_sigma > Z, f"request {i}: negative control not detected")
        # For Gaussian noise n on g2: objective - noise_floor - gap is the
        # trial mean of -2 mean(d * n), d = g1(x) - g2(x): zero-mean with
        # variance 4 sigma^2 gap / P per trial, P elements per sub-image.
        x = crops[i % len(crops)]
        elements = (x.shape[0] // 2) * (x.shape[1] // 2) * x.shape[2]
        resid = dec["objective"] - dec["noise_floor"] - dec["gap"]
        se = max(2.0 * SIGMA * math.sqrt(dec["gap"] / (elements * dec["trials"])), 1e-12)
        checks(abs(resid) <= Z * se, f"request {i}: decomposition residual {resid:.3g} > {Z} se {se:.3g}")


WORKLOADS = {"train": Train, "restore": Restore, "verify": Verify}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints its config and returns nothing
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def end_to_end(wl: Workload, seconds: float, workdir: Path, checks: Checks) -> tuple[dict, dict]:
    wl.scaler = calib.Scaler()
    setup_raw, setup_scaled = [], []
    for r in range(wl.setup_reps):
        if r:
            shutil.rmtree(workdir / f"setup{r - 1}", ignore_errors=True)
        inputs, raw, scaled = wl.scaler.step(wl.setup, workdir / f"setup{r}")
        setup_raw.append(raw)
        setup_scaled.append(scaled)
    wl.scaler.interrupt()
    p = wl.run(inputs, seconds, None, checks)
    metrics = {
        "request_s_p50": {"value": statistics.median(p.scaled_s), "unit": "s"},
        "work_per_s": {"value": p.work / sum(p.scaled_s), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
    }
    raw = dict(
        wl.figures(p.raw_s, p),
        request_s_p50={"value": statistics.median(p.raw_s), "unit": "s"},
        work_per_s={"value": p.work / sum(p.raw_s), "unit": "1/s"},
        setup_s={"value": statistics.median(setup_raw), "unit": "s"},
    )
    detail = {
        "scaled": wl.figures(p.scaled_s, p),
        "raw": raw,
        **p.extra,
        "requests": len(p.raw_s),
        "calibration_s_p50": statistics.median(wl.scaler.calibrations),
        "request_s_raw": p.raw_s,
    }
    return metrics, detail


def traced(wl: Workload, seconds: float, workdir: Path, checks: Checks, trace_file: Path):
    t0 = time.perf_counter()
    inputs = wl.setup(workdir / "untraced")
    plain_setup_s = time.perf_counter() - t0
    plain = wl.run(inputs, seconds / 2, None, checks)
    tr = tracing.Tracer()
    tracing.install(tr)
    wl.tracer = tr
    try:
        with tr.span("bench.setup"):
            t0 = time.perf_counter()
            inputs = wl.setup(workdir / "traced")
            traced_setup_s = time.perf_counter() - t0
        run = wl.run(inputs, None, len(plain.raw_s), checks)
        overhead = (traced_setup_s + sum(run.raw_s)) / (plain_setup_s + sum(plain.raw_s))
        filter_rates = wl.filter_pass(inputs, checks) if isinstance(wl, Restore) else {}
    finally:
        tr.restore()
        wl.tracer = None
    tr.write(trace_file)
    summary = tracing.summarize(tr.spans)
    values, op_counts = layers.per_layer(tr.spans, summary, filter_rates, overhead)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    detail = {"requests": len(run.raw_s), "computed": list(layers.COMPUTED),
              "op_counts_per_call": op_counts, "spans": len(tr.spans),
              "trace_file": str(trace_file.name)}
    return metrics, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path, required=True)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload](args.seed)
    checks = Checks()
    if args.trace:
        metrics, detail = traced(wl, args.seconds, args.workdir, checks, args.trace_file)
    else:
        metrics, detail = end_to_end(wl, args.seconds, args.workdir, checks)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    detail["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    detail["fail_ratio"] = checks.failed / max(checks.attempted, 1)
    result = {
        "metrics": metrics,
        "detail": detail,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "environment": environment(),
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
