"""``dse``: ``POST /dse`` sweeps against a server with its own flow cache.

Each repetition takes a fresh seeded grid (around C8, four raw Table II
axes, all eight workloads, ``"jobs": 1``), resets the server's flow cache
to hold only the model's training results (C1 and C15), and makes three
kinds of pass: a ``golden`` sweep on that cache (cold), the same sweep
again (warm), and an ``autopower`` sweep on the same grid (model).  Job
time is the server-side ``runtime_s``, given in reference time (see
``refclock``) by the host-speed reference timed on the idle server's CPU
before and after each job.  The cold and warm rankings must
be identical, and the warm and model passes must run no flow and the
warm pass must miss no cache entry.
"""

from __future__ import annotations

import itertools
import os
import shutil
import time
from collections.abc import Iterator

from perfbench import inputs, layers, refclock, spans, stats
from perfbench.common import SETUP_REPS, Context, Result, accuracy, canonical, perf
from perfbench.server import Server
from perfbench.wl_serve import start

PASSES = ("cold", "warm", "model")
WARM_PASSES = 3  # a warm pass takes ~0.15 s, so each repetition makes three
REF_REPS = 3  # reference runs (~15 ms each) per reading; their median is used
WARMUP_REP = 10_000  # grid index of each server's untimed first repetition
POLL_S = 0.05
JOB_TIMEOUT_S = 120.0


def run_job(server: Server, spec: dict, result: Result) -> tuple[dict, list] | None:
    """Submit, poll to the end, fetch the ranking; ``None`` if the job failed."""
    result.attempted += 1
    status, ticket = server.call("POST", "/dse", spec)
    if status != 202:
        result.fail(f"POST /dse answered {status}: {ticket}")
        return None
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while True:
        status, snap = server.call("GET", f"/dse/{ticket['id']}")
        if status != 200 or snap["state"] not in ("pending", "running"):
            break
        if time.monotonic() > deadline:
            result.fail(f"job {ticket['id']} still running after {JOB_TIMEOUT_S:g}s")
            return None
        time.sleep(POLL_S)
    if status != 200 or snap["state"] != "done":
        result.fail(f"job {ticket['id']} ended {snap}")
        return None
    status, ranked = server.call("GET", f"/dse/{ticket['id']}/results")
    if status != 200:
        result.fail(f"GET results answered {status}: {ranked}")
        return None
    return snap, ranked["ranked"]


def check_rep(rep: int, cold, warms, model, result: Result) -> None:
    """Cold and warm rankings identical; warm and model passes ran no flow
    (warm missed no cache entry); model covered the grid."""
    cold_snap, cold_ranked = cold
    for warm_snap, warm_ranked in warms:
        if canonical(cold_ranked) != canonical(warm_ranked):
            result.fail(f"rep {rep}: warm ranking differs from cold ranking")
        flow = warm_snap.get("flow") or {}
        if flow.get("executions") != 0 or (flow.get("cache") or {}).get("misses") != 0:
            result.fail(f"rep {rep}: warm pass ran the flow: {flow}")
    model_snap = model[0]
    if (model_snap.get("flow") or {}).get("executions") != 0:
        result.fail(f"rep {rep}: model pass ran the flow: {model_snap.get('flow')}")
    if model_snap["progress"]["pairs_total"] != cold_snap["progress"]["pairs_total"]:
        result.fail(f"rep {rep}: model pass covered a different grid")


def _reset(cache_dir: str) -> None:
    """Empty the flow cache but for the training results saved at set-up."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    shutil.copytree(cache_dir + "-train", cache_dir)


def _reps(ctx: Context, server: Server, cache_dir: str, rep_ids: Iterator[int],
          seconds: float, result: Result) -> list[dict]:
    """At least one repetition, then more until ``seconds`` have passed."""
    reps: list[dict] = []
    start_at = perf()
    while True:
        elapsed = perf() - start_at
        if (elapsed >= seconds and reps) or elapsed >= max(3 * seconds, 60.0):
            return reps
        rep = next(rep_ids)
        _reset(cache_dir)
        spec = inputs.dse_spec(ctx.seed, rep)
        # The host-speed reference on the idle server's CPU, before the
        # first job and after each: a job's reference is the mean of the
        # two beside it.
        refs = [refclock.reference_s(ctx.server_cpu, reps=REF_REPS)]

        def timed(job_spec: dict):
            done = run_job(server, job_spec, result)
            refs.append(refclock.reference_s(ctx.server_cpu, reps=REF_REPS))
            return done

        cold = timed(spec)
        warms = [timed(spec) for _ in range(WARM_PASSES)]
        model = timed(inputs.dse_spec(ctx.seed, rep, method="autopower"))
        if cold is None or model is None or any(w is None for w in warms):
            continue
        check_rep(rep, cold, warms, model, result)
        truth = {e["config"]: e["per_workload"] for e in cold[1]}
        pairs = [
            (value, truth[entry["config"]][workload])
            for entry in model[1]
            for workload, value in entry["per_workload"].items()
        ]
        reps.append(
            {
                "pairs": cold[0]["progress"]["pairs_total"],
                "jobs": [("cold", cold[0]), *(("warm", w[0]) for w in warms), ("model", model[0])],
                "refs": [(a + b) / 2 for a, b in zip(refs, refs[1:])],  # per job, in order
                "predicted_vs_golden": pairs,
            }
        )


def measure(ctx: Context, servers: int, result: Result, spans_out: str | None = None) -> dict:
    """Set up ``servers`` servers in turn; each runs an equal share of the time.

    The grids run on across servers, so no repetition repeats.  Spreading
    the repetitions over several server processes averages out the
    per-process speed differences of the host.  Each server's first
    repetition is checked but not timed: a fresh server process runs its
    first few hundred flow pairs markedly slower (the reference host's VM
    pays for first-touch memory), which a long-running DSE service pays
    once.
    """
    rep_ids = itertools.count()
    merged: dict = {"reps": [], "setup_s": [], "peak_rss_mb": 0.0,
                    "client_cpu_s": 0.0, "server_cpu_s": 0.0}
    for i in range(servers):
        server, cache_dir, setup_s = _start(ctx, f"dse-{i}", spans_out)
        try:
            _reps(ctx, server, cache_dir, itertools.count(WARMUP_REP + i), 0.0, result)
            cpu0, server_cpu0 = refclock.process_time(), server.cpu_s()
            merged["reps"] += _reps(ctx, server, cache_dir, rep_ids, ctx.seconds / servers, result)
            merged["client_cpu_s"] += refclock.process_time() - cpu0
            merged["server_cpu_s"] += server.cpu_s() - server_cpu0
            merged["peak_rss_mb"] = max(merged["peak_rss_mb"], server.peak_rss_mb())
        finally:
            server.stop()
        merged["setup_s"].append(setup_s)
    pairs = [p for r in merged["reps"] for p in r["predicted_vs_golden"]]
    merged["accuracy"] = (
        accuracy([p for p, _ in pairs], [g for _, g in pairs]) if pairs else (0.0, 0.0)
    )
    return merged


def _passes(reps: list[dict], *phases: str) -> list[tuple[int, float, float]]:
    """(grid pairs, runtime_s, reference s) of every pass of the ``phases``."""
    return [
        (r["pairs"], snap["runtime_s"], ref)
        for r in reps
        for (p, snap), ref in zip(r["jobs"], r["refs"])
        if p in phases
    ]


def _pairs_per_s(reps: list[dict], phase: str) -> float:
    """Grid pairs per second over all ``phase`` passes: total pairs / total time."""
    passes = _passes(reps, phase)
    return sum(n for n, _, _ in passes) / sum(t for _, t, _ in passes)


def _ref_ms_per_pair(reps: list[dict], *phases: str) -> float:
    """Reference ms per grid pair over every pass of the ``phases``: total over total."""
    passes = _passes(reps, *phases)
    return sum(refclock.ref_ms(t, ref) for _, t, ref in passes) / sum(n for n, _, _ in passes)


def _rep_ms(reps: list[dict]) -> float:
    """All passes' runtime per grid pair, in ms."""
    return sum(s["runtime_s"] for r in reps for _, s in r["jobs"]) / sum(
        r["pairs"] for r in reps
    ) * 1e3


def _start(ctx: Context, name: str, spans_out: str | None):
    """Start a server, pay its lazy first-job work, and save the training
    results: the cache it starts each repetition from."""
    cache_dir = os.path.join(ctx.tmp, f"{name}-flow-cache")
    for stale in (cache_dir, cache_dir + "-train"):  # a traced run reuses the name
        shutil.rmtree(stale, ignore_errors=True)
    sub = Context(ctx.seed, ctx.seconds, ctx.trace, ctx.tmp,
                  {**ctx.env, "REPRO_FLOW_CACHE_DIR": cache_dir}, ctx.server_cpu)
    t0 = perf()
    server, _path, _ = start(sub, name, [], spans_out=spans_out)
    try:
        warm = Result()
        for method in ("golden", "autopower"):
            if method == "autopower":  # its fit leaves exactly the training results
                shutil.rmtree(cache_dir, ignore_errors=True)
            if run_job(server, _warmup_spec(method), warm) is None:
                raise RuntimeError(f"warm-up DSE job failed: {warm.errors}")
        shutil.copytree(cache_dir, cache_dir + "-train")
    except BaseException:
        server.kill()
        raise
    return server, cache_dir, perf() - t0


def _warmup_spec(method: str) -> dict:
    """A one-point sweep; the model sweep fits on all eight workloads."""
    spec = {"base": inputs.DSE_BASE, "axes": {"RobEntry": [96]}, "workloads": ["dhrystone"],
            "jobs": 1, "method": method}
    if method != "golden":
        spec["train"] = list(inputs.SERVED_TRAIN)
        spec["workloads"] = list(inputs.WORKLOAD_NAMES)
    return spec


def run(ctx: Context, kernel_build_s: float) -> Result:
    result = Result()
    plain = measure(ctx, 1 if ctx.trace else SETUP_REPS, result)
    reps = plain["reps"]
    if not reps:
        result.fail("no repetition completed")
        return result
    cold, warm, model = (_pairs_per_s(reps, phase) for phase in PASSES)
    result.e2e = {
        "setup_s": stats.median(plain["setup_s"]),
        "peak_rss_mb": plain["peak_rss_mb"],
        "rate_per_ref_s": 1e3 / _ref_ms_per_pair(reps, *PASSES),
        "latency_ref_ms": _ref_ms_per_pair(reps, "model"),
        "tail_ref_ms": _ref_ms_per_pair(reps, "warm"),
    }
    mape, r2 = plain["accuracy"]
    result.named = {
        "dse_pairs_per_s": (
            sum(n for n, _, _ in _passes(reps, *PASSES))
            / sum(t for _, t, _ in _passes(reps, *PASSES)),
            "pairs/s",
        ),
        "dse_cold_pairs_per_s": (cold, "pairs/s"),
        "dse_warm_pairs_per_s": (warm, "pairs/s"),
        "dse_model_pairs_per_s": (model, "pairs/s"),
        "dse_model_vs_golden_mape_pct": (mape, "%"),
        "dse_model_vs_golden_r2": (r2, "-"),
        "host.reference_ms": (stats.median([x for r in reps for x in r["refs"]]) * 1e3, "ms"),
    }
    result.lines += [
        f"timed repetitions: {len(reps)}, pairs per pass: {[r['pairs'] for r in reps]}",
        *(
            f"{phase} pairs/s per pass: {[round(n / t, 1) for n, t, _ in _passes(reps, phase)]}"
            for phase in PASSES
        ),
    ]

    if ctx.trace:
        spans_out = os.path.join(ctx.tmp, "dse-spans.json")
        traced = measure(ctx, 1, result, spans_out=spans_out)
        treps = traced["reps"]
        recorded = spans.load(spans_out)
        job_threads = {f"repro-{snap['id']}": phase for r in treps for phase, snap in r["jobs"]}
        summary = layers.Summary(recorded, keep=lambda s: s[spans.THREAD] in job_threads)
        cold_flow = layers.Summary(
            recorded, keep=lambda s: job_threads.get(s[spans.THREAD]) == "cold"
        )
        ops = sum(r["pairs"] for r in treps)
        plain_ops = sum(r["pairs"] for r in reps)
        snaps = [(phase, snap) for r in treps for phase, snap in r["jobs"]]
        executions = sum((snap.get("flow") or {}).get("executions", 0) for _, snap in snaps)
        warm_cache = [
            (snap.get("flow") or {}).get("cache") or {} for phase, snap in snaps if phase == "warm"
        ]
        hits = sum(c.get("hits", 0) for c in warm_cache)
        gets = hits + sum(c.get("misses", 0) for c in warm_cache)
        traced_s = sum(snap["runtime_s"] for _, snap in snaps)
        result.per_layer = layers.layer_metrics(
            summary,
            ops,
            {
                "ml.kernel_build_s": kernel_build_s,
                "host.reference_ms": result.named["host.reference_ms"][0],
                "vlsi.flow.executions": executions / ops,
                "vlsi.flow.run_ms_per_pair": cold_flow.ms("vlsi.flow.run") / ops,
                "dse.cache.hit_ratio": hits / gets if gets else 0.0,
                "serve.server_cpu_ms_per_req": plain["server_cpu_s"] / plain_ops * 1e3,
                "loadgen.client_cpu_ms_per_req": plain["client_cpu_s"] / plain_ops * 1e3,
                "trace_overhead_pct": (_rep_ms(treps) / _rep_ms(reps) - 1.0) * 100.0,
                "unattributed_ms": (traced_s - summary.roots) * 1e3 / ops,
                "accuracy.heldout_mape_pct": mape,
                "accuracy.heldout_r2": r2,
            },
        )
        result.lines.append(f"traced repetitions: {len(treps)}, spans: {len(recorded)}")
    return result
