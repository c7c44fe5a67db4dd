"""Pinned reproduction numbers of the few-shot AutoPower fit.

The paper's headline runs, fitted on C1+C15 (Fig. 4) and C1+C8+C15
(Fig. 5) over all eight workloads, pin two things exactly:

* the sha256 of every serialized GBM sub-state, in model order.  The
  GBMs' features and labels come straight from flow outputs and their
  fit uses no BLAS, so these bytes are the same on every CPU, with or
  without the compiled kernel.  The two GBM-only baselines, AutoPower−
  and McPAT-Calib+Component fitted on C1+C15, are pinned the same way;
* the held-out MAPE and R² over every (configuration, workload) pair
  outside the training set, to 1e-9 relative (the ridge sub-models use
  LAPACK, whose last bits may differ between builds).

A change to the fitting engine that moves any tree moves the digest; a
change anywhere else in the model that moves accuracy moves the scores.
Loose bounds such as "MAPE < 10 %" would let a large relative
regression through.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.arch.config import BOOM_CONFIGS, config_by_name
from repro.arch.events import EventBatch
from repro.baselines.autopower_minus import AutoPowerMinus
from repro.baselines.mcpat_calib_component import McPatCalibComponent
from repro.core.autopower import AutoPower
from repro.core.persistence import autopower_to_state
from repro.ml.metrics import mape, r2_score

PINS = {
    ("C1", "C15"): {
        "gbm_sha256": "43af5d10d772427c09d77bc25b8afc1b3864fe1ab7172bd6465fb84f56c1f6e1",
        "mape": 6.488945985757908,
        "r2": 0.9328162173222994,
    },
    ("C1", "C8", "C15"): {
        "gbm_sha256": "ded170b237f799923517c0acfafb69ae62d77140a3fc7670c5200bb3e7c42c76",
        "mape": 2.772974659906265,
        "r2": 0.9876487781898642,
    },
}

# (GBM count, sha256 of the GBM sub-states) of each baseline on C1+C15.
BASELINE_PINS = {
    AutoPowerMinus: (
        88,  # one per component x power group
        "07b4a04f2d3a2795e333caad3f1d4958de16851ed6dddb17e9b60248e757c4f6",
    ),
    McPatCalibComponent: (
        22,  # one per component
        "e82dc272324e769628ad3866fc04bbcb132ba06a436735135720349e3561c947",
    ),
}


def _gbm_states(state):
    """Every ``kind == "gbm"`` dict of a model state, in state order."""
    if isinstance(state, dict):
        if state.get("kind") == "gbm":
            yield state
            return
        for value in state.values():
            yield from _gbm_states(value)
    elif isinstance(state, list):
        for value in state:
            yield from _gbm_states(value)


def _gbm_digest(state: dict) -> tuple[int, str]:
    states = list(_gbm_states(state))
    text = json.dumps(states)
    return len(states), hashlib.sha256(text.encode()).hexdigest()


def _heldout(model: AutoPower, flow, train, workloads) -> tuple[float, float]:
    golden, predicted = [], []
    for config in BOOM_CONFIGS:
        if config.name in train:
            continue
        results = [flow.run(config, w) for w in workloads]
        batch = EventBatch.from_events([r.events for r in results])
        predicted.extend(model.predict_totals(config, batch, workloads).tolist())
        golden.extend(r.power.total for r in results)
    return mape(golden, predicted), r2_score(golden, predicted)


@pytest.fixture(scope="module")
def models(flow, workloads, autopower2):
    three = [config_by_name(n) for n in ("C1", "C8", "C15")]
    return {
        ("C1", "C15"): autopower2,
        ("C1", "C8", "C15"): AutoPower(library=flow.library).fit(flow, three, workloads),
    }


@pytest.mark.parametrize("train", list(PINS), ids="+".join)
def test_gbm_sub_states_pinned(models, train):
    count, digest = _gbm_digest(autopower_to_state(models[train]))
    assert count == 94  # 3 x 22 components + 2 x 14 SRAM positions
    assert digest == PINS[train]["gbm_sha256"]


@pytest.mark.parametrize("train", list(PINS), ids="+".join)
def test_heldout_accuracy_pinned(models, flow, workloads, train):
    assert len(workloads) == 8
    got_mape, got_r2 = _heldout(models[train], flow, train, workloads)
    assert got_mape == pytest.approx(PINS[train]["mape"], rel=1e-9)
    assert got_r2 == pytest.approx(PINS[train]["r2"], rel=1e-9)


@pytest.mark.parametrize("cls", list(BASELINE_PINS), ids=lambda c: c.__name__)
def test_baseline_gbm_sub_states_pinned(flow, train_configs, workloads, cls):
    model = cls().fit(flow, train_configs, workloads)
    assert _gbm_digest(model.to_state()) == BASELINE_PINS[cls]
