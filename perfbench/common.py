"""What every workload shares: the run context, the result, golden data."""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

import repro.api as api
from repro.arch.config import BOOM_CONFIGS, config_by_name
from repro.arch.events import EventBatch
from repro.arch.workloads import WORKLOADS
from repro.vlsi.flow import VlsiFlow

from perfbench.inputs import SERVED_TRAIN

SETUP_REPS = 3  # setup_s is the median of this many set-ups

perf = time.perf_counter


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    tmp: str  # this run's scratch directory inside the checkout
    env: dict  # environment for server subprocesses
    server_cpu: int | None = None  # the CPU servers are pinned to


@dataclass
class Result:
    """One workload's outcome: the JSON line's fields plus a readable report."""

    attempted: int = 0
    failed: int = 0
    e2e: dict[str, float] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, float] | None = None
    lines: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def golden_flow(configs=BOOM_CONFIGS) -> VlsiFlow:
    """An in-memory flow with every (config, workload) result computed."""
    flow = VlsiFlow(disk_cache=None)
    flow.run_many(list(configs), list(WORKLOADS))
    return flow


def fit_served_model(path: str) -> None:
    """Fit the served model from a fresh golden flow of its training configs."""
    train = [config_by_name(name) for name in SERVED_TRAIN]
    flow = golden_flow(train)
    api.save_model(api.fit("autopower", flow=flow, train_configs=train), path)


def state_digest(model) -> str:
    """Digest of ``model.to_state()``.

    The state is a plain tree of dicts, lists, strings and floats, so two
    states pickle to the same bytes exactly when their JSON is the same
    bytes; pickling is several times faster than ``json.dumps`` here.
    """
    blob = pickle.dumps(model.to_state(), protocol=5)
    return hashlib.sha256(blob).hexdigest()


def canonical(obj) -> str:
    """JSON text with sorted keys: floats by repr, so equal text is bitwise equality."""
    return json.dumps(obj, sort_keys=True)


def accuracy(predicted: list[float], golden: list[float]) -> tuple[float, float]:
    """(MAPE in %, R^2) of predicted against golden total power."""
    p = np.asarray(predicted, dtype=float)
    y = np.asarray(golden, dtype=float)
    mape = float(np.mean(np.abs(p - y) / y) * 100.0)
    r2 = float(1.0 - np.sum((p - y) ** 2) / np.sum((y - y.mean()) ** 2))
    return mape, r2


def heldout(model, flow: VlsiFlow, train: tuple[str, ...]) -> tuple[float, float]:
    """Accuracy of ``model`` on every configuration outside ``train``."""
    predicted: list[float] = []
    golden: list[float] = []
    for config in BOOM_CONFIGS:
        if config.name in train:
            continue
        results = [flow.run(config, w) for w in WORKLOADS]
        batch = EventBatch.from_events([r.events for r in results])
        predicted.extend(float(x) for x in model.predict_totals(config, batch, list(WORKLOADS)))
        golden.extend(r.power.total for r in results)
    return accuracy(predicted, golden)
