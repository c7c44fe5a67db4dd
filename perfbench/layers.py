"""Which calls the traced run wraps, and the per-layer metrics they give.

:func:`install` wraps the public functions of each layer with a
:class:`~perfbench.spans.SpanRecorder`; it runs in the benchmark process
(``fit``) or, through ``launcher.py``, in the server process (``serve``,
``dse``).  :func:`layer_metrics` turns the recorded spans into the
``per_layer`` metrics named in ``BENCHMARK.json``; ``README.md`` maps each
to the end-to-end metric it should move.

Unless its name says otherwise (``_per_call``, ``_ratio``, ``_us`` per
call, ``_p50``), a per-layer time or count is a total over the measured
phase divided by the workload's operations: fits (``fit``), HTTP
requests (``serve``) or DSE grid pairs of one repetition (``dse``).
"""

from __future__ import annotations

import importlib
import os
import weakref
from collections import defaultdict

from perfbench import spans as sp

# Every per_layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("api.fit_ms", "ms"),
    ("core.clock.fit_self_ms", "ms"),
    ("core.sram.fit_self_ms", "ms"),
    ("core.logic.fit_self_ms", "ms"),
    ("ml.gbm.fit_calls", "count"),
    ("ml.gbm.fit_ms", "ms"),
    ("ml.linear.fit_ms", "ms"),
    ("core.scaling.fit_ms", "ms"),
    ("vlsi.run_many_ms", "ms"),
    ("ml.kernel_build_s", "s"),
    ("api.service.submit_many_calls", "count"),
    ("api.service.rows_per_call", "count"),
    ("api.service.submit_many_ms", "ms"),
    ("core.autopower.predict_totals_ms", "ms"),
    ("core.autopower.predict_reports_ms", "ms"),
    ("core.autopower.predict_trace_ms", "ms"),
    ("core.clock.predict_batch_self_ms", "ms"),
    ("core.sram.predict_batch_self_ms", "ms"),
    ("core.logic.predict_batch_self_ms", "ms"),
    ("ml.gbm.predict_calls_per_request", "count"),
    ("ml.gbm.predict_rows_per_call", "count"),
    ("ml.gbm.predict_ms", "ms"),
    ("serving.wire.decode_us", "us"),
    ("serving.wire.encode_us", "us"),
    ("serving.outside_model_ms_p50", "ms"),
    ("serving.mean_flush_size", "count"),
    ("serving.shed_429", "count"),
    ("serving.deadline_504", "count"),
    ("serve.server_cpu_ms_per_req", "ms"),
    ("vlsi.flow.executions", "count"),
    ("vlsi.flow.run_ms_per_pair", "ms"),
    ("rtl.generate_ms", "ms"),
    ("synthesis.synthesize_ms", "ms"),
    ("sim.execute_ms", "ms"),
    ("sim.distort_ms", "ms"),
    ("sim.activity_ms", "ms"),
    ("power.analyze_ms", "ms"),
    ("dse.cache.get_calls", "count"),
    ("dse.cache.get_ms", "ms"),
    ("dse.cache.put_ms", "ms"),
    ("dse.cache.bytes_written", "B"),
    ("dse.cache.hit_ratio", "ratio"),
    ("dse.grid.generate_ms", "ms"),
    ("loadgen.client_cpu_ms_per_req", "ms"),
    ("loadgen.late_ms_p95", "ms"),
    ("host.reference_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("unattributed_ms", "ms"),
    ("accuracy.heldout_mape_pct", "%"),
    ("accuracy.heldout_r2", "r2"),
)

def _rows(args, kwargs, result):
    return {"n": len(args[1])}


class _Keys:
    """Request keys from ``wire.decode_request``, looked up per batch."""

    def __init__(self, key_of) -> None:
        self.key_of = key_of
        self.by_request: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def decoded(self, args, kwargs, result):
        if result is None:
            return None
        key = self.key_of(args[0])
        self.by_request[result] = key
        return {"rid": key}

    def batch(self, args, kwargs, result):
        requests = list(args[1])
        return {"n": len(requests), "keys": [self.by_request.get(r) for r in requests]}


def _cache_put(args, kwargs, result):
    cache, key = args[0], args[1]
    try:
        return {"bytes": os.path.getsize(cache.path_for(key))}
    except OSError:
        return {"bytes": 0}


def install(recorder: sp.SpanRecorder) -> None:
    """Wrap every traced layer entry point (undone by ``uninstall``)."""
    from perfbench.inputs import request_key

    keys = _Keys(request_key)
    targets = [
        ("repro.api", None, "fit", "api.fit", None),
        ("repro.core.clock", "ClockPowerModel", "fit", "core.clock.fit", None),
        ("repro.core.sram", "SramPowerModel", "fit", "core.sram.fit", None),
        ("repro.core.logic", "LogicPowerModel", "fit", "core.logic.fit", None),
        ("repro.ml.gbm", "GradientBoostingRegressor", "fit", "ml.gbm.fit", None),
        ("repro.ml.linear", "RidgeRegression", "fit", "ml.linear.fit", None),
        ("repro.core.scaling", "ScalingPatternDetector", "fit", "core.scaling.fit", None),
        ("repro.vlsi.flow", "VlsiFlow", "run_many", "vlsi.run_many", None),
        ("repro.vlsi.flow", "VlsiFlow", "run", "vlsi.flow.run", None),
        ("repro.api.service", "PredictionService", "submit_many", "api.service.submit_many",
         keys.batch),
        ("repro.core.autopower", "AutoPower", "predict_totals", "core.autopower.predict_totals",
         None),
        ("repro.core.autopower", "AutoPower", "predict_reports",
         "core.autopower.predict_reports", None),
        ("repro.core.autopower", "AutoPower", "predict_trace", "core.autopower.predict_trace",
         None),
        ("repro.core.clock", "ClockPowerModel", "predict_batch", "core.clock.predict_batch", None),
        ("repro.core.sram", "SramPowerModel", "predict_batch", "core.sram.predict_batch", None),
        ("repro.core.logic", "LogicPowerModel", "predict_batch", "core.logic.predict_batch", None),
        ("repro.ml.gbm", "GradientBoostingRegressor", "predict", "ml.gbm.predict", _rows),
        ("repro.serving.wire", None, "decode_request", "serving.wire.decode", keys.decoded),
        ("repro.serving.wire", None, "encode_response", "serving.wire.encode", None),
        ("repro.rtl.generator", "RtlGenerator", "generate", "rtl.generate", None),
        ("repro.synthesis.synthesizer", "Synthesizer", "synthesize", "synthesis.synthesize", None),
        # execute is imported by name into both callers' namespaces.
        ("repro.vlsi.flow", None, "execute", "sim.execute", None),
        ("repro.sim.perf", None, "execute", "sim.execute", None),
        ("repro.sim.perf", "PerfSimulator", "distort", "sim.distort", None),
        ("repro.sim.activity", "ActivitySimulator", "simulate", "sim.activity", None),
        ("repro.power.analysis", "PowerAnalyzer", "analyze", "power.analyze", None),
        ("repro.dse.cache", "FlowDiskCache", "get", "dse.cache.get", None),
        ("repro.dse.cache", "FlowDiskCache", "put", "dse.cache.put", _cache_put),
        ("repro.dse.jobs", None, "generate_grid", "dse.grid.generate", None),
    ]
    for module_name, owner_name, attr, name, meta in targets:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        recorder.wrap(owner, attr, name, meta)


class Summary:
    """Per-name totals of the spans one predicate keeps."""

    def __init__(self, spans: list[list], keep=None) -> None:
        selves = sp.self_times(spans)
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_total: dict[str, float] = defaultdict(float)
        self.meta_sum: dict[tuple[str, str], float] = defaultdict(float)
        self.roots = 0.0
        for span, self_s in zip(spans, selves):
            if span[sp.END] is None or (keep is not None and not keep(span)):
                continue
            name = span[sp.NAME]
            duration = span[sp.END] - span[sp.START]
            self.count[name] += 1
            self.total[name] += duration
            self.self_total[name] += self_s
            for key, value in (span[sp.META] or {}).items():
                if isinstance(value, (int, float)):
                    self.meta_sum[(name, key)] += float(value)
            if span[sp.PARENT] < 0:
                self.roots += duration

    def ms(self, name: str) -> float:
        return self.total[name] * 1e3

    def self_ms(self, name: str) -> float:
        return self.self_total[name] * 1e3

    def per_call(self, name: str, key: str) -> float:
        calls = self.count[name]
        return self.meta_sum[(name, key)] / calls if calls else 0.0


def layer_metrics(summary: Summary, ops: int, extra: dict) -> dict[str, float]:
    """Every per-layer metric; ``extra`` carries the ones measured outside spans."""
    n = max(ops, 1)
    s = summary
    out = {
        "api.fit_ms": s.ms("api.fit") / n,
        "core.clock.fit_self_ms": s.self_ms("core.clock.fit") / n,
        "core.sram.fit_self_ms": s.self_ms("core.sram.fit") / n,
        "core.logic.fit_self_ms": s.self_ms("core.logic.fit") / n,
        "ml.gbm.fit_calls": s.count["ml.gbm.fit"] / n,
        "ml.gbm.fit_ms": s.ms("ml.gbm.fit") / n,
        "ml.linear.fit_ms": s.ms("ml.linear.fit") / n,
        "core.scaling.fit_ms": s.ms("core.scaling.fit") / n,
        "vlsi.run_many_ms": s.ms("vlsi.run_many") / n,
        "api.service.submit_many_calls": s.count["api.service.submit_many"] / n,
        "api.service.rows_per_call": s.per_call("api.service.submit_many", "n"),
        "api.service.submit_many_ms": s.ms("api.service.submit_many") / n,
        "core.autopower.predict_totals_ms": s.ms("core.autopower.predict_totals") / n,
        "core.autopower.predict_reports_ms": s.ms("core.autopower.predict_reports") / n,
        "core.autopower.predict_trace_ms": s.ms("core.autopower.predict_trace") / n,
        "core.clock.predict_batch_self_ms": s.self_ms("core.clock.predict_batch") / n,
        "core.sram.predict_batch_self_ms": s.self_ms("core.sram.predict_batch") / n,
        "core.logic.predict_batch_self_ms": s.self_ms("core.logic.predict_batch") / n,
        "ml.gbm.predict_calls_per_request": s.count["ml.gbm.predict"] / n,
        "ml.gbm.predict_rows_per_call": s.per_call("ml.gbm.predict", "n"),
        "ml.gbm.predict_ms": s.ms("ml.gbm.predict") / n,
        "serving.wire.decode_us": _mean_us(s, "serving.wire.decode"),
        "serving.wire.encode_us": _mean_us(s, "serving.wire.encode"),
        "rtl.generate_ms": s.ms("rtl.generate") / n,
        "synthesis.synthesize_ms": s.ms("synthesis.synthesize") / n,
        "sim.execute_ms": s.ms("sim.execute") / n,
        "sim.distort_ms": s.ms("sim.distort") / n,
        "sim.activity_ms": s.ms("sim.activity") / n,
        "power.analyze_ms": s.ms("power.analyze") / n,
        "dse.cache.get_calls": s.count["dse.cache.get"] / n,
        "dse.cache.get_ms": s.ms("dse.cache.get") / n,
        "dse.cache.put_ms": s.ms("dse.cache.put") / n,
        "dse.cache.bytes_written": s.meta_sum[("dse.cache.put", "bytes")] / n,
        "dse.grid.generate_ms": s.ms("dse.grid.generate") / n,
    }
    for name, _unit in PER_LAYER:
        out.setdefault(name, 0.0)
    out.update(extra)
    return {name: float(out[name]) for name, _unit in PER_LAYER}


def _mean_us(summary: Summary, name: str) -> float:
    calls = summary.count[name]
    return summary.total[name] * 1e6 / calls if calls else 0.0
