"""``fit``: serial few-shot ``repro.api.fit("autopower", ...)`` calls.

Setup computes the golden flow for all 15 x 8 (config, workload) pairs,
so a timed fit never runs the flow.  Each fit uses a fresh seeded
training set (two 2-config sets per 3-config set), and the host-speed
reference (see ``refclock``) runs after each fit.  After the timed
loop, the first ``CHECK_SETS`` sets are refitted and must give the same
``to_state()`` bytes, and their models are scored on the held-out
configurations.
"""

from __future__ import annotations

import repro.api as api

from perfbench import inputs, layers, refclock, spans, stats
from perfbench.common import Context, Result, golden_flow, heldout, perf, state_digest
from perfbench.server import vm_hwm_mb

FIT_SETUP_REPS = 5  # set-up is ~0.5 s here, so more than the servers' three
CHECK_SETS = 3
TAIL_P = 75  # ~40-60 fits per run support p75, not p90 (see stats.py)


def _measure(ctx: Context, flow, result: Result) -> dict:
    sets = inputs.training_sets(ctx.seed)
    times: list[float] = []
    refs: list[float] = []
    kept = []
    need = stats.samples_needed(TAIL_P)
    cpu0 = refclock.process_time()
    start = perf()
    while True:
        elapsed = perf() - start
        if (elapsed >= ctx.seconds and len(times) >= need) or elapsed >= 3 * ctx.seconds:
            break
        train = next(sets)
        result.attempted += 1
        model = None  # free the previous model outside the timed region
        t0 = perf()
        try:
            model = api.fit("autopower", flow=flow, train_configs=list(train))
        except Exception as exc:  # a failed fit is a failed operation, not a crash
            result.fail(f"fit {train}: {type(exc).__name__}: {exc}")
            continue
        times.append(perf() - t0)
        refs.append(refclock.reference_s())
        if len(kept) < CHECK_SETS:
            kept.append((train, model))
    return {"times": times, "refs": refs, "kept": kept, "cpu": refclock.process_time() - cpu0}


def _check(flow, kept, result: Result) -> tuple[float, float]:
    scores = []
    for train, model in kept:
        if state_digest(model) != state_digest(
            api.fit("autopower", flow=flow, train_configs=list(train))
        ):
            result.fail(f"refit of {train} changed the to_state() bytes")
        scores.append(heldout(model, flow, train))
    mape = sum(s[0] for s in scores) / len(scores)
    r2 = sum(s[1] for s in scores) / len(scores)
    return mape, r2


def run(ctx: Context, kernel_build_s: float) -> Result:
    result = Result()
    setup_times = []
    for _ in range(1 if ctx.trace else FIT_SETUP_REPS):
        flow = None  # free the previous set-up's results first
        t0 = perf()
        flow = golden_flow()
        setup_times.append(perf() - t0)

    plain = _measure(ctx, flow, result)
    times = plain["times"]
    if not times:
        result.fail("no fit completed")
        return result
    p50 = stats.median(times) * 1e3
    scaled = [refclock.ref_ms(t, r) for t, r in zip(times, refclock.smooth(plain["refs"], half=3))]
    result.e2e = {
        "setup_s": stats.median(setup_times),
        "peak_rss_mb": vm_hwm_mb(),
        "rate_per_ref_s": len(scaled) / sum(scaled) * 1e3,
        "latency_ref_ms": stats.median(scaled),
        "tail_ref_ms": stats.percentile(scaled, TAIL_P),
    }
    mape, r2 = _check(flow, plain["kept"], result)
    result.named = {
        "fits_per_s": (len(times) / sum(times), "1/s"),
        "fit_ms_p50": (p50, "ms"),
        f"fit_ms_p{TAIL_P}": (stats.percentile(times, TAIL_P) * 1e3, "ms"),
        "host.reference_ms": (stats.median(plain["refs"]) * 1e3, "ms"),
        "heldout_mape_pct": (mape, "%"),
        "heldout_r2": (r2, "-"),
    }
    result.lines.append(
        f"fits: {len(times)} timed, {len(plain['kept'])} refitted for the byte-identity check"
    )

    if ctx.trace:
        recorder = spans.SpanRecorder()
        layers.install(recorder)
        try:
            traced = _measure(ctx, flow, result)
        finally:
            recorder.uninstall()
        ttimes = traced["times"]
        if not ttimes:
            result.fail("no traced fit completed")
            return result
        summary = layers.Summary(recorder.snapshot())
        n = len(ttimes)
        traced_mean_ms = sum(ttimes) / n * 1e3
        result.per_layer = layers.layer_metrics(
            summary,
            n,
            {
                "ml.kernel_build_s": kernel_build_s,
                "host.reference_ms": result.named["host.reference_ms"][0],
                "loadgen.client_cpu_ms_per_req": plain["cpu"] / len(times) * 1e3,
                "trace_overhead_pct": (stats.median(ttimes) * 1e3 / p50 - 1.0) * 100.0,
                "unattributed_ms": traced_mean_ms - summary.roots * 1e3 / n,
                "accuracy.heldout_mape_pct": mape,
                "accuracy.heldout_r2": r2,
            },
        )
        result.lines.append(f"traced fits: {n}, mean {traced_mean_ms:.2f} ms")
    return result
