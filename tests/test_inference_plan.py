"""The fused inference plan against the per-group reference path.

:class:`repro.core.plan.InferencePlan` replaces ~94 per-component GBM
calls with one forest pass; its contract is bitwise equality with the
composition of the public per-group methods it replaces —
``ClockPowerModel``/``SramPowerModel``/``LogicPowerModel.predict_batch``
(each of which drives ``GradientBoostingRegressor.predict`` per
sub-model).  Checked for totals, reports and 200-scale traces on every
configuration x workload, plus the plan's cache lifecycle.
"""

from __future__ import annotations

import json
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.arch.components import COMPONENTS
from repro.arch.config import BOOM_CONFIGS, config_by_name
from repro.arch.events import EventBatch
from repro.core.autopower import AutoPower, events_at_scale


def _reference_groups(model, config, batch, workload):
    clock = model.clock_model.predict_batch(config, batch)
    sram = model.sram_model.predict_batch(config, batch, workload)
    logic = model.logic_model.predict_batch(config, batch)
    return clock, sram, logic


def _reference_totals(model, config, batch, workload):
    clock, sram, logic = _reference_groups(model, config, batch, workload)
    total = np.zeros(len(batch))
    for comp in COMPONENTS:
        register, comb = logic[comp.name]
        total += clock[comp.name] + register + comb
        if comp.name in sram:
            total += sram[comp.name]
    return total


def _reference_trace(model, config, events, workload, scales):
    anchors = np.linspace(scales.min(), scales.max(), 65)
    batch = events_at_scale(events, anchors, 50)
    return np.interp(scales, anchors, _reference_totals(model, config, batch, workload))


@pytest.fixture(scope="module")
def events_by_config(flow, workloads):
    return {
        config.name: EventBatch.from_events([flow.run(config, w).events for w in workloads])
        for config in BOOM_CONFIGS
    }


@pytest.mark.parametrize("config", BOOM_CONFIGS, ids=lambda c: c.name)
def test_totals_and_reports_bitwise_equal_reference(
    autopower2, events_by_config, workloads, config
):
    batch = events_by_config[config.name]
    totals = autopower2.predict_totals(config, batch, workloads)
    reference = _reference_totals(autopower2, config, batch, workloads)
    assert totals.tobytes() == reference.tobytes()

    clock, sram, logic = _reference_groups(autopower2, config, batch, workloads)
    reports = autopower2.predict_reports(config, batch, workloads)
    for i, report in enumerate(reports):
        assert report.workload_name == workloads[i].name
        for part in report.components:
            register, comb = logic[part.name]
            assert part.clock == clock[part.name][i]
            assert part.register == register[i]
            assert part.comb == comb[i]
            assert part.sram == (sram[part.name][i] if part.name in sram else 0.0)
    # One row at a time agrees with the batch, bit for bit.
    for i, workload in enumerate(workloads):
        single = autopower2.predict_report(config, batch[i], workload)
        assert single.total == reports[i].total


@pytest.mark.parametrize("config", BOOM_CONFIGS, ids=lambda c: c.name)
def test_traces_bitwise_equal_reference(autopower2, flow, workloads, config):
    rng = np.random.default_rng(config.index)
    for workload in workloads:
        events = flow.run(config, workload).events
        scales = rng.uniform(0.2, 3.0, size=200)
        trace = autopower2.predict_trace(config, events, workload, scales)
        reference = _reference_trace(autopower2, config, events, workload, scales)
        assert trace.tobytes() == reference.tobytes()


def test_program_feature_free_variant_matches_reference(flow, workloads):
    model = AutoPower(library=flow.library, use_program_features=False).fit(
        flow, [config_by_name("C1"), config_by_name("C15")], workloads[:3]
    )
    config = config_by_name("C8")
    batch = EventBatch.from_events([flow.run(config, w).events for w in workloads])
    totals = model.predict_totals(config, batch, workloads)
    assert totals.tobytes() == _reference_totals(model, config, batch, workloads).tobytes()


class TestPlanLifecycle:
    @pytest.fixture()
    def fresh(self, autopower2):
        """An unshared model with no plan built yet."""
        return AutoPower.from_state(autopower2.to_state())

    def test_built_lazily_on_first_predict(self, fresh, flow, c8, dhrystone):
        assert fresh._plan is None
        fresh.predict_totals(c8, flow.run(c8, dhrystone).events, dhrystone)
        plan = fresh._plan
        assert plan is not None
        fresh.predict_reports(c8, flow.run(c8, dhrystone).events, dhrystone)
        assert fresh._plan is plan  # cached, not rebuilt

    def test_never_serialized(self, fresh, flow, c8, dhrystone):
        before = json.dumps(fresh.to_state(), sort_keys=True)
        fresh.predict_totals(c8, flow.run(c8, dhrystone).events, dhrystone)
        assert json.dumps(fresh.to_state(), sort_keys=True) == before

    def test_fit_discards_the_plan(self, flow, workloads, c8, dhrystone):
        model = AutoPower(library=flow.library)
        model.fit(flow, [config_by_name("C1"), config_by_name("C15")], workloads[:2])
        events = flow.run(c8, dhrystone).events
        first = model.predict_totals(c8, events, dhrystone)
        model.fit(flow, [config_by_name("C1"), config_by_name("C15")], workloads)
        assert model._plan is None
        refit = model.predict_totals(c8, events, dhrystone)
        batch = EventBatch.from_events(events)
        assert refit.tobytes() == _reference_totals(model, c8, batch, dhrystone).tobytes()
        assert refit.tobytes() != first.tobytes()

    def test_concurrent_first_use_builds_one_plan(
        self, fresh, flow, c8, dhrystone, monkeypatch
    ):
        import repro.core.autopower as autopower_module

        builds = []
        real = autopower_module.InferencePlan

        def counting(model):
            builds.append(model)
            return real(model)

        monkeypatch.setattr(autopower_module, "InferencePlan", counting)
        events = flow.run(c8, dhrystone).events
        n_threads = 8  # more than the cores, with a short switch interval
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def worker(slot):
            barrier.wait(timeout=60)
            results[slot] = fresh.predict_totals(c8, events, dhrystone).tobytes()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        assert None not in results and len(set(results)) == 1

    def test_pickle_round_trip_drops_the_plan(self, fresh, flow, c8, dhrystone):
        events = flow.run(c8, dhrystone).events
        expected = fresh.predict_totals(c8, events, dhrystone)
        clone = pickle.loads(pickle.dumps(fresh))
        assert clone._plan is None
        assert clone.predict_totals(c8, events, dhrystone).tobytes() == expected.tobytes()
