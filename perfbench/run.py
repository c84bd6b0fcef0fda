"""Benchmark of nbr2nbr: one workload per call, in a fresh subprocess.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload train|restore|verify --seed N \
        --seconds S --trace 0|1

The workload runs in a child interpreter with the BLAS thread count
pinned (BLAS_THREADS). The output ends with three JSON lines: the
environment, the workload's detailed figures, and the result
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics of a traced
pass and writes its spans to .perfbench/. Exits non-zero, without a
result, when the package source or the workload fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1  # 2 threads measured no faster than 1 at these shapes on a 2-core box
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main() -> int:
    ap = argparse.ArgumentParser(description="nbr2nbr benchmark")
    ap.add_argument("--workload", required=True, choices=["train", "restore", "verify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "nbr2nbr" / "__init__.py").is_file():
        print(f"error: no nbr2nbr package under {src}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out / f"work-{tag}-{os.getpid()}"
    result_file = out / f"result-{tag}-{os.getpid()}.json"
    trace_file = out / f"trace-{args.workload}-seed{args.seed}.json"
    workdir.mkdir(parents=True, exist_ok=True)
    threads = str(BLAS_THREADS)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result_file),
        "--trace-file", str(trace_file),
    ]
    # a traced run measures two passes of --seconds/2 plus setups; 170 s at --seconds 30
    timeout_s = 3 * args.seconds + 80
    try:
        child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout_s)
        sys.stderr.write(child.stdout.decode(errors="replace"))
        if child.returncode != 0 or not result_file.is_file():
            print(f"error: workload {args.workload} exited with {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_file.read_text())
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {timeout_s:g} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        result_file.unlink(missing_ok=True)

    env_block = dict(
        result["environment"],
        blas_threads=BLAS_THREADS,
        nproc=os.cpu_count(),
        cpu=cpu_model(),
    )
    print(json.dumps({"environment": env_block}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "detail": result["detail"], "failures": result["failures"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
