"""``serve``: HTTP predictions against ``python -m repro serve --workers 1``.

The server holds a model fitted on C1+C15 and runs with bearer auth on.
Phase A is a closed loop on two keep-alive connections, in segments with
the host-speed reference run on the idle server's CPU between them
(``rate_per_ref_s``, ``latency_ref_ms``, ``tail_ref_ms``); phase B sends
Poisson arrivals at ``RATE_PER_S`` from two connections and times each
request from when it was due (reported, not bounded).  Afterwards every response is compared
with the in-process ``PredictionService.submit_many`` answer to the same
request.
"""

from __future__ import annotations

import http.client
import math
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass

import repro.api as api
from repro.arch.config import BOOM_CONFIGS
from repro.arch.workloads import WORKLOADS
from repro.serving import wire

from perfbench import inputs, layers, refclock, spans, stats
from perfbench.common import (
    SETUP_REPS,
    Context,
    Result,
    accuracy,
    canonical,
    fit_served_model,
    golden_flow,
    perf,
)
from perfbench.server import Server

# ~15% of one core at this request mix on the reference 2-CPU host.  At
# 40 req/s the server ran near saturation and the generator ran late.
RATE_PER_S = 7.5
CLIENTS = 2
A_SHARE = 0.5  # of each server's time, in phase A
# Phase A gives ~400 samples at 20 s, enough for p95 (see stats.py), but
# p90 and up fall where the 5% trace requests and the requests that wait
# on them begin; p75 is the tail that held a bound between runs.
TAIL_P = 75
REFERENCE_CHUNK = 64
SEGMENT_S = 1.5  # phase A runs in segments of at most this long
REF_REPS = 5


@dataclass
class Call:
    obj: dict
    status: int | None
    body: object
    due: float  # monotonic seconds; the send time in the closed loop
    sent: float
    done: float


def start(
    ctx: Context, name: str, warmup: list[dict], spans_out: str | None = None
) -> tuple[Server, str, float]:
    """The measured set-up: fit and save the served model, start the server,
    and send the ``warmup`` requests, which pay the lazy first-call work."""
    path = os.path.join(ctx.tmp, f"{name}.json")
    t0 = perf()
    fit_served_model(path)
    server = Server(path, ctx.env, token=f"perfbench-{ctx.seed}", spans_out=spans_out,
                    cpu=ctx.server_cpu)
    try:
        server.wait_healthy()
        for obj in warmup:
            status, body = server.call("POST", "/predict", obj)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}: {body}")
    except BaseException:
        server.kill()
        raise
    return server, path, perf() - t0


def warmup_requests(seed: int, events) -> list[dict]:
    """One request of each kind, from a stream the measured phases never use."""
    stream = inputs.requests(seed, events, stream="warmup")
    picked: dict[str, dict] = {}
    while len(picked) < len(set(inputs.KIND_BLOCK)):
        obj = next(stream)
        picked.setdefault(obj["kind"], obj)
    return list(picked.values())


def _send(server: Server, conn, obj: dict):
    try:
        return server.call("POST", "/predict", obj, conn), conn
    except (OSError, ValueError, http.client.HTTPException) as exc:  # reset, truncated, bad body
        conn.close()
        return (None, f"{type(exc).__name__}: {exc}"), server.connect()


def closed_loop(server: Server, stream, seconds: float) -> list[Call]:
    calls: list[Call] = []
    lock = threading.Lock()
    stop_at = time.monotonic() + seconds

    def client() -> None:
        conn = server.connect()
        try:
            while time.monotonic() < stop_at:
                with lock:
                    obj = next(stream)
                sent = time.monotonic()
                (status, body), conn = _send(server, conn, obj)
                call = Call(obj, status, body, sent, sent, time.monotonic())
                with lock:
                    calls.append(call)
        finally:
            conn.close()

    _run_clients(client)
    return calls


def open_loop(server: Server, stream, gaps, seconds: float) -> list[Call]:
    t0 = time.monotonic() + 0.05
    schedule = []
    due = t0
    while True:
        due += next(gaps)
        if due - t0 >= seconds:
            break
        schedule.append((due, next(stream)))
    calls: list[Call] = []
    lock = threading.Lock()
    cursor = iter(schedule)

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                due, obj = item
                wait = due - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                sent = time.monotonic()
                (status, body), conn = _send(server, conn, obj)
                call = Call(obj, status, body, due, sent, time.monotonic())
                with lock:
                    calls.append(call)
        finally:
            conn.close()

    _run_clients(client)
    return calls


def _run_clients(target) -> None:
    threads = [
        threading.Thread(target=target, name=f"perfbench-client-{i}") for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _phases(server: Server, stream, gaps, seconds: float) -> dict:
    """Phase A then phase B on one server, ``seconds`` in all."""
    cpu0, server_cpu0 = refclock.process_time(), server.cpu_s()
    a_seconds = seconds * A_SHARE
    # The host-speed reference on the idle server's CPU, before the first
    # segment and after each: a segment's reference is the mean of the two
    # beside it.
    count = math.ceil(a_seconds / SEGMENT_S)
    refs = [refclock.reference_s(server.cpu, reps=REF_REPS)]
    segments = []
    for _ in range(count):
        calls = closed_loop(server, stream, a_seconds / count)
        refs.append(refclock.reference_s(server.cpu, reps=REF_REPS))
        segments.append((calls, (refs[-2] + refs[-1]) / 2))
    b = open_loop(server, stream, gaps, seconds - a_seconds)
    cpu, server_cpu = refclock.process_time() - cpu0, server.cpu_s() - server_cpu0
    status, server_stats = server.call("GET", "/stats")
    return {
        "a": [c for calls, _ in segments for c in calls],
        "a_segments": segments,
        "b": b,
        "client_cpu_s": cpu,
        "server_cpu_s": server_cpu,
        "stats": server_stats if status == 200 else None,
        "peak_rss_mb": server.peak_rss_mb(),
    }


def measure(ctx: Context, events, warmup, servers: int, result: Result, spans_out=None) -> dict:
    """Set up ``servers`` servers in turn; each takes an equal share of the phases.

    The request and arrival streams run on across servers, so no input
    repeats.  Spreading the phases over several server processes averages
    out the per-process speed differences of the host.
    """
    stream = inputs.requests(ctx.seed, events)
    gaps = inputs.arrival_gaps(ctx.seed, RATE_PER_S)
    merged: dict = {"a": [], "b": [], "a_segments": [], "client_cpu_s": 0.0,
                    "server_cpu_s": 0.0, "setup_s": [], "peak_rss_mb": 0.0, "stats": []}
    for i in range(servers):
        server, model_path, setup_s = start(ctx, f"serve-{i}", warmup, spans_out=spans_out)
        try:
            part = _phases(server, stream, gaps, ctx.seconds / servers)
        finally:
            server.stop()
        result.attempted += len(part["a"]) + len(part["b"])
        check(model_path, part["a"] + part["b"], result)
        for key in ("a", "b", "a_segments"):
            merged[key] += part[key]
        for key in ("client_cpu_s", "server_cpu_s"):
            merged[key] += part[key]
        merged["setup_s"].append(setup_s)
        merged["stats"].append(part["stats"] or {})
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], part["peak_rss_mb"])
    return merged


def check(model_path: str, calls: list[Call], result: Result) -> None:
    """Every answer must be bitwise the in-process answer to the same request."""
    model = api.load_model(model_path)
    service = api.PredictionService(model)
    ok = [c for c in calls if c.status == 200]
    for c in calls:
        if c.status != 200:
            result.fail(f"HTTP {c.status}: {str(c.body)[:200]}")
    for start_at in range(0, len(ok), REFERENCE_CHUNK):
        chunk = ok[start_at : start_at + REFERENCE_CHUNK]
        requests = [wire.decode_request(c.obj, model=model) for c in chunk]
        for c, ref in zip(chunk, service.submit_many(requests)):
            if canonical(wire.encode_response(ref)) != canonical(c.body):
                key = inputs.request_key(c.obj)
                result.fail(f"response differs from in-process answer: {key}")


def _status_line(phase: str, calls: list[Call]) -> str:
    codes = Counter(c.status for c in calls)
    ok = codes.get(200, 0)
    return (
        f"phase {phase}: sent {len(calls)}, ok {ok}, failed {len(calls) - ok}, "
        f"by status {dict(codes)}"
    )


def _outside_model_p50(calls: list[Call], spans_list: list[list]) -> float:
    """Median of client latency minus the request's share of submit_many spans."""
    share: dict[str, float] = {}
    for span in spans_list:
        if span[spans.NAME] != "api.service.submit_many" or span[spans.END] is None:
            continue
        meta = span[spans.META] or {}
        keys = meta.get("keys") or []
        if keys:
            part = (span[spans.END] - span[spans.START]) / len(keys)
            for key in keys:
                share[key] = share.get(key, 0.0) + part
    outside = [
        (c.done - c.sent - share.get(inputs.request_key(c.obj), 0.0)) * 1e3
        for c in calls
        if c.status == 200
    ]
    return stats.median(outside) if outside else 0.0


def _flushes(stats_list: list[dict], key: str) -> float:
    gateway = [(st.get("gateway") or {}) for st in stats_list]
    return sum(g.get(key) or 0 for g in gateway)


def _shed(stats_list: list[dict], key: str) -> int:
    return sum(
        ((st.get("resilience") or {}).get("shed") or {}).get(key, 0) for st in stats_list
    )


def run(ctx: Context, kernel_build_s: float) -> Result:
    result = Result()
    flow = golden_flow()
    pairs = {(c.name, w.name): (c, w) for c in BOOM_CONFIGS for w in WORKLOADS}
    events = {key: dict(flow.run(*pair).events.counts) for key, pair in pairs.items()}
    golden = {key: flow.run(*pair).power.total for key, pair in pairs.items()}
    warmup = warmup_requests(ctx.seed, events)

    plain = measure(ctx, events, warmup, 1 if ctx.trace else SETUP_REPS, result)
    calls = plain["a"] + plain["b"]
    a_ok = [c for c in plain["a"] if c.status == 200]
    a_lat = [c.done - c.sent for c in a_ok]
    # Each segment's requests, wall time and latencies in reference ms.
    a_wall = a_ref_ms = 0.0
    a_scaled: list[float] = []
    for seg_calls, ref in plain["a_segments"]:
        ok = [c for c in seg_calls if c.status == 200]
        if ok:
            wall = max(c.done for c in ok) - min(c.sent for c in ok)
            a_wall += wall
            a_ref_ms += refclock.ref_ms(wall, ref)
            a_scaled += [refclock.ref_ms(c.done - c.sent, ref) for c in ok]
    b_lat = [(c.done - c.due) for c in plain["b"] if c.status == 200]
    late = [(c.sent - c.due) * 1e3 for c in plain["b"]]
    if not a_ok or not b_lat:
        result.fail("a phase completed no request")
        return result
    ok_count = sum(1 for c in calls if c.status == 200)
    result.e2e = {
        "setup_s": stats.median(plain["setup_s"]),
        "peak_rss_mb": plain["peak_rss_mb"],
        "rate_per_ref_s": len(a_ok) / a_ref_ms * 1e3,
        "latency_ref_ms": stats.median(a_scaled),
        "tail_ref_ms": stats.percentile(a_scaled, TAIL_P),
    }
    totals = [c for c in calls if c.status == 200 and c.obj["kind"] == "total"]
    mape, r2 = accuracy(
        [c.body["total"] for c in totals],
        [golden[(c.obj["config"], c.obj["workload"])] for c in totals],
    )
    server_cpu_ms = plain["server_cpu_s"] / ok_count * 1e3
    client_cpu_ms = plain["client_cpu_s"] / len(calls) * 1e3
    result.named = {
        "http_rps": (len(a_ok) / a_wall, "req/s"),
        "http_p50_ms": (stats.median(a_lat) * 1e3, "ms"),
        f"http_p{TAIL_P}_ms": (stats.percentile(a_lat, TAIL_P) * 1e3, "ms"),
        "http_open_p50_ms": (stats.median(b_lat) * 1e3, "ms"),
        f"http_open_p{TAIL_P}_ms": (stats.percentile(b_lat, TAIL_P) * 1e3, "ms"),
        "served_mape_pct": (mape, "%"),
        "served_r2": (r2, "-"),
        "server_cpu_ms_per_req": (server_cpu_ms, "ms"),
        "client_cpu_ms_per_req": (client_cpu_ms, "ms"),
        "late_ms_p95": (stats.percentile(late, 95), "ms"),
        "host.reference_ms": (stats.median([r for _, r in plain["a_segments"]]) * 1e3, "ms"),
    }
    result.lines += [
        _status_line("A (closed loop, 2 connections)", plain["a"]),
        _status_line(f"B (open loop, {RATE_PER_S:g} req/s)", plain["b"]),
        f"phase A samples: {len(a_lat)}, phase B samples: {len(b_lat)} "
        f"(p{TAIL_P} needs {stats.samples_needed(TAIL_P)})",
    ]

    if ctx.trace:
        spans_out = os.path.join(ctx.tmp, "serve-spans.json")
        traced = measure(ctx, events, warmup, 1, result, spans_out=spans_out)
        tcalls = traced["a"] + traced["b"]
        t_ok = [c for c in tcalls if c.status == 200]
        n = max(len(t_ok), 1)
        t_start = min(c.sent for c in tcalls)
        recorded = spans.load(spans_out)
        summary = layers.Summary(recorded, keep=lambda s: s[spans.START] >= t_start)
        t_a = [c.done - c.sent for c in traced["a"] if c.status == 200]
        flushes = _flushes(traced["stats"], "flushes")
        result.per_layer = layers.layer_metrics(
            summary,
            n,
            {
                "ml.kernel_build_s": kernel_build_s,
                "host.reference_ms": result.named["host.reference_ms"][0],
                "serving.outside_model_ms_p50": _outside_model_p50(tcalls, recorded),
                "serving.mean_flush_size": (
                    _flushes(traced["stats"], "flushed_requests") / flushes if flushes else 0.0
                ),
                "serving.shed_429": _shed(traced["stats"], "overload"),
                "serving.deadline_504": _shed(traced["stats"], "deadline"),
                "serve.server_cpu_ms_per_req": server_cpu_ms,
                "loadgen.client_cpu_ms_per_req": client_cpu_ms,
                "loadgen.late_ms_p95": stats.percentile(late, 95),
                "trace_overhead_pct": (stats.median(t_a) / stats.median(a_lat) - 1.0) * 100.0,
                "unattributed_ms": sum(c.done - c.sent for c in t_ok) / n * 1e3
                - summary.roots * 1e3 / n,
                "accuracy.heldout_mape_pct": mape,
                "accuracy.heldout_r2": r2,
            },
        )
        result.lines += [
            _status_line("A traced", traced["a"]),
            _status_line("B traced", traced["b"]),
            f"traced spans: {len(recorded)}",
        ]
    return result
