"""Tests of the benchmark's own arithmetic and output checks.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import inputs, layers, refclock, spans, stats  # noqa: E402
from perfbench.common import Result, accuracy, canonical  # noqa: E402


# -- host-speed reference ---------------------------------------------------
def test_ref_ms_scales_by_the_reference():
    # A reference run is REF_MS reference milliseconds, whatever it took.
    assert refclock.ref_ms(0.020, 0.020) == pytest.approx(refclock.REF_MS)
    assert refclock.ref_ms(0.300, 0.015) == pytest.approx(20 * refclock.REF_MS)
    # The same operation on a host half as fast reads the same.
    assert refclock.ref_ms(0.600, 0.030) == pytest.approx(refclock.ref_ms(0.300, 0.015))


def test_smooth_takes_the_median_of_each_window():
    refs = [1.0, 9.0, 2.0, 3.0, 4.0]
    assert refclock.smooth(refs, half=1) == [5.0, 2.0, 3.0, 3.0, 3.5]
    assert refclock.smooth(refs, half=0) == refs
    assert refclock.smooth([], half=2) == []


def test_reference_restores_the_affinity_and_leaves_out_its_cpu_time():
    before = os.sched_getaffinity(0)
    cpu = min(before)
    cpu_before = refclock.process_time()
    assert refclock.reference_s(cpu, reps=2) > 0.0
    assert os.sched_getaffinity(0) == before
    # The reference's CPU time is left out of the load generator's.
    assert refclock.process_time() - cpu_before < 0.005


# -- percentiles and the sample-count rule ---------------------------------
def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 75) == pytest.approx(3.25)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize(("p", "needed"), [(50, 20), (75, 40), (90, 100), (95, 200), (99, 1000)])
def test_samples_needed_leaves_ten_beyond(p, needed):
    assert stats.samples_needed(p) == needed
    # One sample fewer leaves fewer than ten beyond the percentile.
    assert (needed - 1) * (100 - p) / 100 < stats.MIN_BEYOND


def test_samples_needed_rejects_the_ends():
    with pytest.raises(ValueError):
        stats.samples_needed(100)
    with pytest.raises(ValueError):
        stats.samples_needed(0)


# -- span recording and self time -------------------------------------------
class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _span(name, start, end, parent=-1):
    return [name, start, end, parent, None, "t", None]


def test_self_time_subtracts_children():
    recorded = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 7.0, 0),
        _span("a.child", 2.0, 3.0, 1),
    ]
    assert spans.self_times(recorded) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_of_open_span_is_zero_and_open_child_is_ignored():
    recorded = [_span("root", 0.0, 10.0), _span("open", 1.0, None, 0)]
    assert spans.self_times(recorded) == [10.0, 0.0]


class _Target:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_wrap_records_parent_rid_and_meta_then_uninstalls():
    clock = _Clock()
    recorder = spans.SpanRecorder(clock=clock)
    original_outer = _Target.outer
    recorder.wrap(_Target, "outer", "outer", meta=lambda a, k, r: {"rid": f"req-{a[1]}"})
    recorder.wrap(_Target, "inner", "inner", meta=lambda a, k, r: {"n": a[1]})
    assert _Target().outer(3) == 7
    recorded = recorder.snapshot()
    assert [s[spans.NAME] for s in recorded] == ["outer", "inner"]
    assert recorded[1][spans.PARENT] == 0
    assert recorded[0][spans.RID] == "req-3"
    assert recorded[1][spans.META] == {"n": 3}
    recorder.uninstall()
    assert _Target.outer is original_outer


def test_wrap_closes_span_when_call_raises():
    recorder = spans.SpanRecorder()

    class Boom:
        def go(self):
            raise RuntimeError("no")

    recorder.wrap(Boom, "go", "go")
    with pytest.raises(RuntimeError):
        Boom().go()
    assert recorder.snapshot()[0][spans.END] is not None
    recorder.uninstall()


def test_spans_on_other_threads_have_no_parent():
    recorder = spans.SpanRecorder()
    recorder.wrap(_Target, "inner", "inner")
    try:
        index = recorder.begin("main")
        worker = threading.Thread(target=_Target().inner, args=(1,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        recorder.end(index)
    finally:
        recorder.uninstall()
    recorded = recorder.snapshot()
    assert recorded[1][spans.PARENT] == -1


def test_dump_and_load_round_trip(tmp_path):
    recorder = spans.SpanRecorder()
    recorder.end(recorder.begin("x"), {"n": 2})
    path = str(tmp_path / "spans.json")
    recorder.dump(path)
    assert spans.load(path) == recorder.snapshot()


def test_summary_and_layer_metrics_add_up():
    recorded = [
        _span("api.fit", 0.0, 1.0),
        _span("core.clock.fit", 0.1, 0.5, 0),
        _span("ml.gbm.fit", 0.2, 0.4, 1),
        _span("ml.gbm.fit", 0.6, 0.7, 0),
    ]
    summary = layers.Summary(recorded)
    assert summary.roots == pytest.approx(1.0)
    metrics = layers.layer_metrics(summary, 2, {"unattributed_ms": 5.0})
    assert metrics["api.fit_ms"] == pytest.approx(500.0)
    assert metrics["core.clock.fit_self_ms"] == pytest.approx(100.0)
    assert metrics["ml.gbm.fit_calls"] == pytest.approx(1.0)
    assert metrics["ml.gbm.fit_ms"] == pytest.approx(150.0)
    assert metrics["unattributed_ms"] == 5.0
    assert list(metrics) == [name for name, _unit in layers.PER_LAYER]
    # Self times of every span sum to the root spans' total.
    assert sum(spans.self_times(recorded)) == pytest.approx(summary.roots)


# -- seeded inputs ---------------------------------------------------------
def test_training_sets_are_seeded_and_distinct():
    def first(seed, n=30):
        stream = inputs.training_sets(seed)
        return [next(stream) for _ in range(n)]

    assert first(1) == first(1)
    assert first(1) != first(2)
    sets = first(1)
    assert len(set(sets)) == len(sets)
    assert [len(s) for s in sets[:6]] == [2, 2, 3, 2, 2, 3]


def test_training_sets_outlast_the_distinct_sets():
    # Only 105 distinct 2-config sets exist, used up after ~157 draws; the
    # stream deals them all once, then keeps going instead of stalling.
    stream = inputs.training_sets(3)
    sets = [next(stream) for _ in range(600)]
    pairs = [s for s in sets if len(s) == 2]
    assert len(set(pairs[:105])) == 105
    assert len(set(pairs)) == 105
    assert all(
        list(s) == sorted(s, key=inputs.CONFIG_NAMES.index) for s in sets
    )


def _events():
    from repro.arch.events import EVENT_NAMES

    base = {name: 100.0 + i for i, name in enumerate(EVENT_NAMES)}
    return {(c, w): base for c in inputs.CONFIG_NAMES for w in inputs.WORKLOAD_NAMES}


def test_requests_follow_the_kind_mix_and_never_repeat():
    stream = inputs.requests(7, _events())
    batch = [next(stream) for _ in range(200)]
    kinds = [r["kind"] for r in batch]
    assert (kinds.count("total"), kinds.count("report"), kinds.count("trace")) == (170, 20, 10)
    assert len({inputs.request_key(r) for r in batch}) == len(batch)
    again = inputs.requests(7, _events())
    assert [next(again) for _ in range(200)] == batch


def test_requests_decode_on_the_wire():
    from repro.serving import wire

    stream = inputs.requests(3, _events())
    for _ in range(40):
        wire.decode_request(next(stream))


def test_dse_spec_is_seeded_and_valid():
    from repro.dse.jobs import normalize_spec

    spec = inputs.dse_spec(5, 0)
    assert spec == inputs.dse_spec(5, 0)
    assert spec != inputs.dse_spec(5, 1)
    assert len(spec["axes"]) == 4
    assert normalize_spec(spec)["method"] == "golden"
    assert normalize_spec(inputs.dse_spec(5, 0, method="autopower"))["method"] == "autopower"


# -- output checks ---------------------------------------------------------
def test_canonical_text_distinguishes_bitwise_different_floats():
    assert canonical({"total": 0.1 + 0.2}) != canonical({"total": 0.3})
    assert canonical({"b": 1, "a": [1.5]}) == canonical({"a": [1.5], "b": 1})


def test_accuracy_perfect_and_off():
    assert accuracy([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)
    mape, r2 = accuracy([1.1, 2.2, 3.3], [1.0, 2.0, 3.0])
    assert mape == pytest.approx(10.0)
    assert r2 < 1.0


def test_result_counts_failures():
    result = Result(attempted=3)
    result.fail("one")
    result.fail("two")
    assert result.failed == 2
    assert result.errors == ["one", "two"]


def test_serve_check_flags_a_changed_response(tmp_path):
    import repro.api as api
    from repro.serving import wire

    from perfbench.common import fit_served_model
    from perfbench.wl_serve import Call, check

    path = str(tmp_path / "model.json")
    fit_served_model(path)
    model = api.load_model(path)
    stream = inputs.requests(1, _events())
    objs = [next(stream) for _ in range(6)]
    service = api.PredictionService(model)
    answers = service.submit_many([wire.decode_request(o, model=model) for o in objs])
    calls = [Call(o, 200, wire.encode_response(a), 0.0, 0.0, 0.0) for o, a in zip(objs, answers)]
    good = Result()
    check(path, calls, good)
    assert good.failed == 0
    calls[0].body = {**calls[0].body, "total": calls[0].body.get("total", 0.0) + 1e-9}
    calls[1] = Call(objs[1], 503, {"error": "draining"}, 0.0, 0.0, 0.0)
    bad = Result()
    check(path, calls, bad)
    assert bad.failed == 2


def _rep(executions=0, misses=0, warm_ranked=None, model_pairs=8, model_executions=0):
    ranked = [{"config": "dse-a", "mean_total_mw": 1.0, "rank": 1}]
    cold = ({"progress": {"pairs_total": 8}}, ranked)
    clean = ({"flow": {"executions": 0, "cache": {"hits": 8, "misses": 0}}}, ranked)
    warm_snap = {"flow": {"executions": executions, "cache": {"hits": 8, "misses": misses}}}
    warm = (warm_snap, ranked if warm_ranked is None else warm_ranked)
    model_snap = {"progress": {"pairs_total": model_pairs},
                  "flow": {"executions": model_executions}}
    model = (model_snap, ranked)
    return cold, [clean, warm], model


def test_dse_check_accepts_a_clean_repetition():
    from perfbench.wl_dse import check_rep

    result = Result()
    check_rep(1, *_rep(), result)
    assert result.failed == 0


@pytest.mark.parametrize(
    "bad",
    [
        {"executions": 3},
        {"misses": 1},
        {"warm_ranked": [{"config": "dse-b", "mean_total_mw": 1.0, "rank": 1}]},
        {"model_pairs": 4},
        {"model_executions": 16},
    ],
)
def test_dse_check_flags_each_violation(bad):
    from perfbench.wl_dse import check_rep

    result = Result()
    check_rep(1, *_rep(**bad), result)
    assert result.failed == 1


def test_state_digest_is_stable_across_refits_and_tells_models_apart():
    import repro.api as api

    from perfbench.common import golden_flow, state_digest

    flow = golden_flow(configs=[c for c in _configs() if c.name in ("C1", "C2", "C15")])
    first = state_digest(api.fit("autopower", flow=flow, train_configs=["C1", "C15"]))
    again = state_digest(api.fit("autopower", flow=flow, train_configs=["C1", "C15"]))
    other = state_digest(api.fit("autopower", flow=flow, train_configs=["C2", "C15"]))
    assert first == again
    assert first != other


def _configs():
    from repro.arch.config import BOOM_CONFIGS

    return BOOM_CONFIGS
