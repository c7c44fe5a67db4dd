"""Benchmark the three user paths of the repository: fit, serve and dse.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit|serve|dse|all --seed N \
        [--seconds 20] [--trace 0|1]

Prints a readable report, then one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics).  Exits non-zero if any output check fails.
Every file it writes stays under ``.perfbench/`` in the checkout.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rate_per_ref_s", "1/ref_s"),
    ("latency_ref_ms", "ref_ms"),
    ("tail_ref_ms", "ref_ms"),
)
WORKLOADS = ("fit", "serve", "dse")


def _src_sha() -> str:
    """Content hash of the program sources (the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".c")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:12]


def _hermetic_env(tmp: str) -> dict:
    """Point every cache and temp file of this process and its servers into the checkout."""
    env = dict(os.environ)
    env.update(
        {
            "XDG_CACHE_HOME": os.path.join(WORKDIR, "cache"),  # compiled C kernel
            "TMPDIR": tmp,
            "REPRO_FLOW_CACHE_DIR": os.path.join(tmp, "flow-cache"),
            "REPRO_JOBS": "1",
            # One BLAS thread: extra OpenBLAS threads only spin on this
            # path, and would take the core the other process is using.
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "PYTHONPATH": SRC + os.pathsep + env.get("PYTHONPATH", ""),
            "PYTHONUNBUFFERED": "1",
        }
    )
    os.environ.update(env)
    return env


def _pin_cpus() -> tuple[int | None, int | None]:
    """Give the benchmark process one CPU and the server another, when there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0], cpus[1]


def _run_workload(name: str, ctx, kernel_build_s: float):
    if name == "fit":
        from perfbench import wl_fit

        return wl_fit.run(ctx, kernel_build_s)
    if name == "serve":
        from perfbench import wl_serve

        return wl_serve.run(ctx, kernel_build_s)
    from perfbench import wl_dse

    return wl_dse.run(ctx, kernel_build_s)


def _report(name: str, result) -> None:
    print(f"== workload {name}: attempted {result.attempted}, failed {result.failed}")
    for line in result.lines:
        print(f"   {line}")
    for error in result.errors:
        print(f"   CHECK FAILED: {error}")
    for metric, value in result.e2e.items():
        print(f"   {metric:<34} {value:>14.4f}  {dict(END_TO_END)[metric]}")
    for metric, (value, unit) in result.named.items():
        print(f"   {metric:<34} {value:>14.4f}  {unit}")
    if result.per_layer is not None:
        from perfbench.layers import PER_LAYER

        units = dict(PER_LAYER)
        for metric, value in result.per_layer.items():
            print(f"   {metric:<34} {value:>14.4f}  {units[metric]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no program sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so the finally blocks stop the servers
    # and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(WORKDIR, exist_ok=True)
    tmp = os.path.join(WORKDIR, f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        env = _hermetic_env(tmp)
        sys.path[:0] = [ROOT, SRC]
        client_cpu, server_cpu = _pin_cpus()
        from repro.ml._kernel import get_kernel

        # The one-time C-kernel compile, kept out of setup_s.
        t0 = time.perf_counter()
        kernel = get_kernel() is not None
        kernel_build_s = time.perf_counter() - t0
        print(
            f"perfbench: src_sha={_src_sha()} python={platform.python_version()} "
            f"nproc={os.cpu_count()} kernel={'yes' if kernel else 'no'} "
            f"kernel_build_s={kernel_build_s:.3f} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace} client_cpu={client_cpu} server_cpu={server_cpu}",
            flush=True,
        )
        from perfbench.common import Context

        ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), tmp=tmp,
                      env=env, server_cpu=server_cpu)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = _run_workload(name, ctx, kernel_build_s)
            _report(name, results[name])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    from perfbench.layers import PER_LAYER

    metrics = {}
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        chosen = (result.per_layer or {}) if args.trace else result.e2e
        for metric, value in chosen.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
