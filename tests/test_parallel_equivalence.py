"""Backend equivalence: parallel flow runs match the serial reference.

``n_jobs`` on a model sets the workers of the training flow runs inside
``fit``; the sub-models then always fit in the calling thread.  Models
whose flow runs used two thread or process workers (the backend forced
through ``REPRO_JOBS``, on a fresh flow without a disk cache so the runs
really happen in the workers) serialize byte-identically to the serially
fitted model and predict within 1e-9 of it, also after a save/load
round-trip; parallel ``run_many`` produces the same ground truth as the
serial loop — all on the paper's fig4 two-config setup.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro.baselines.autopower_minus import AutoPowerMinus
from repro.core.autopower import AutoPower
from repro.vlsi.flow import VlsiFlow


@pytest.fixture(scope="module")
def parallel_fit(flow, train_configs, workloads):
    """``parallel_fit(cls, backend, **kw)``: ``cls(n_jobs=2, **kw)`` fitted
    on a fresh, cache-less flow with ``backend`` flow-run workers (one fit
    per class and backend)."""
    fitted = {}

    def fit(cls, backend, **kwargs):
        if (cls, backend) not in fitted:
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("REPRO_JOBS", f"{backend}:2")
                fitted[cls, backend] = cls(n_jobs=2, **kwargs).fit(
                    VlsiFlow(library=flow.library, disk_cache=None),
                    train_configs,
                    workloads,
                )
        return fitted[cls, backend]

    return fit


def _predictions(model, flow, configs, workloads) -> np.ndarray:
    return np.array(
        [
            model.predict_total(c, flow.run(c, w).events, w)
            for c in configs
            for w in workloads
        ]
    )


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestFitEquivalence:
    def test_serialized_state_is_byte_identical(
        self, backend, flow, parallel_fit, autopower2, tmp_path
    ):
        parallel_model = parallel_fit(AutoPower, backend, library=flow.library)
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / f"{backend}.json"
        api.save_model(autopower2, serial_path)
        api.save_model(parallel_model, parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_predictions_match_serial_fit(
        self, backend, flow, parallel_fit, autopower2, test_configs, workloads
    ):
        parallel_model = parallel_fit(AutoPower, backend, library=flow.library)
        configs = test_configs[:3]
        expected = _predictions(autopower2, flow, configs, workloads)
        actual = _predictions(parallel_model, flow, configs, workloads)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-9)

    def test_save_load_round_trip_predicts_within_1e9(
        self, backend, flow, parallel_fit, autopower2, test_configs, workloads, tmp_path
    ):
        parallel_model = parallel_fit(AutoPower, backend, library=flow.library)
        path = tmp_path / "round_trip.json"
        api.save_model(parallel_model, path)
        loaded = api.load_model(path, library=flow.library)
        configs = test_configs[:2]
        expected = _predictions(autopower2, flow, configs, workloads)
        actual = _predictions(loaded, flow, configs, workloads)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-9)


def test_fit_with_process_jobs_matches_serial_end_to_end(
    flow, train_configs, workloads, autopower2, test_configs
):
    """``api.fit(..., n_jobs=2)`` — what ``python -m repro fit --jobs 2``
    runs — on the default backend (a process pool on a multi-core
    machine) predicts within 1e-9 of the serial fit."""
    model = api.fit(
        "autopower",
        flow=VlsiFlow(library=flow.library, disk_cache=None),
        train_configs=train_configs,
        workloads=workloads,
        n_jobs=2,
    )
    configs = test_configs[:3]
    expected = _predictions(autopower2, flow, configs, workloads)
    actual = _predictions(model, flow, configs, workloads)
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_run_many_parallel_matches_serial(
    flow, train_configs, workloads, backend
):
    serial = flow.run_many(train_configs, workloads)
    fresh = VlsiFlow(library=flow.library)
    parallel = fresh.run_many(train_configs, workloads, n_jobs=2, backend=backend)
    assert len(parallel) == len(serial)
    for a, b in zip(parallel, serial):
        assert a.config.name == b.config.name
        assert a.workload.name == b.workload.name
        assert a.power.total == b.power.total
        assert a.events.counts == b.events.counts
        assert a.netlist.component("ROB").registers == (
            b.netlist.component("ROB").registers
        )
    # The parallel results landed in the flow's caches: a repeat run is
    # served without touching the executor.
    again = fresh.run_many(train_configs, workloads)
    assert [id(r) for r in again] == [id(r) for r in parallel]


def test_run_many_parallel_preserves_partial_cache(flow, train_configs, workloads):
    """Only the missing (config, workload) pairs are recomputed; cached
    runs survive as the same objects instead of being thrown away."""
    fresh = VlsiFlow(library=flow.library)
    warm = fresh.run(train_configs[0], workloads[0])
    out = fresh.run_many(train_configs, workloads, n_jobs=2, backend="thread")
    assert out[0] is warm
    reference = flow.run_many(train_configs, workloads)
    for a, b in zip(out, reference):
        assert a.power.total == b.power.total


def test_autopower_minus_parallel_fit_matches_serial(
    flow, parallel_fit, train_configs, workloads, test_configs
):
    serial = AutoPowerMinus().fit(flow, train_configs, workloads)
    threaded = parallel_fit(AutoPowerMinus, "thread")
    assert threaded.to_state() == serial.to_state()
    config = test_configs[0]
    for w in workloads[:3]:
        events = flow.run(config, w).events
        assert threaded.predict_total(config, events, w) == pytest.approx(
            serial.predict_total(config, events, w), abs=1e-9
        )
