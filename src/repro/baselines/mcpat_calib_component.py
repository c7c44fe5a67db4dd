"""McPAT-Calib + Component — the paper's extra ablation baseline.

"McPAT-Calib + Component adopts the McPAT-Calib as a building block and
builds power models for each component respectively" (Sec. III-B1).  Each
component gets its own boosted model over its Table III hardware
parameters, its event rates and its analytical McPAT estimate; the total
is the sum of the component predictions.
"""

from __future__ import annotations

import numpy as np

from repro.arch.components import COMPONENTS
from repro.arch.config import BoomConfig
from repro.arch.events import EventBatch, EventParams
from repro.baselines.mcpat import McPatAnalytical
from repro.core.features import (
    event_features,
    event_features_batch,
    hardware_features,
)
from repro.ml.gbm import GradientBoostingRegressor, fit_many
from repro.ml.serialize import gbm_from_dict, gbm_to_dict

__all__ = ["McPatCalibComponent"]

_DEFAULT_GBM = {
    "n_estimators": 200,
    "learning_rate": 0.08,
    "max_depth": 3,
    "reg_lambda": 1.0,
}


class McPatCalibComponent:
    """One McPAT-Calib model per component; total = sum of components."""

    def __init__(
        self,
        mcpat: McPatAnalytical | None = None,
        gbm_params: dict | None = None,
        random_state: int = 0,
    ) -> None:
        self.mcpat = mcpat if mcpat is not None else McPatAnalytical()
        self.gbm_params = dict(_DEFAULT_GBM if gbm_params is None else gbm_params)
        self.random_state = random_state
        self._models: dict[str, GradientBoostingRegressor] = {}

    # ------------------------------------------------------------------
    def _features(
        self, config: BoomConfig, events: EventParams, component: str
    ) -> np.ndarray:
        # McPAT-Calib's feature recipe: hardware parameters, raw event
        # rates and the analytical estimate (no utilization-normalized
        # features — those are part of AutoPower's design).
        mcpat_comp = self.mcpat.predict_component(component, config, events)
        return np.concatenate(
            [
                hardware_features(config, component),
                event_features(events, component),
                [mcpat_comp],
            ]
        )

    # ------------------------------------------------------------------
    def fit(self, flow, train_configs, workloads) -> McPatCalibComponent:
        results = flow.run_many(list(train_configs), list(workloads))
        return self.fit_results(results)

    def fit_results(self, results: list) -> McPatCalibComponent:
        if not results:
            raise ValueError("cannot fit on an empty result list")
        models: dict[str, GradientBoostingRegressor] = {}
        jobs = []
        for comp in COMPONENTS:
            x = np.stack(
                [self._features(r.config, r.events, comp.name) for r in results]
            )
            y = np.array([r.power.component(comp.name).total for r in results])
            models[comp.name] = GradientBoostingRegressor(
                random_state=self.random_state, **self.gbm_params
            )
            jobs.append((models[comp.name], x, y))
        fit_many(jobs)
        self._models = models
        return self

    def predict_component(
        self, component: str, config: BoomConfig, events: EventParams
    ) -> float:
        if not self._models:
            raise RuntimeError("McPatCalibComponent used before fit")
        x = self._features(config, events, component).reshape(1, -1)
        return max(float(self._models[component].predict(x)[0]), 0.0)

    def predict_total(
        self, config: BoomConfig, events: EventParams, workload=None
    ) -> float:
        return sum(
            self.predict_component(c.name, config, events) for c in COMPONENTS
        )

    def predict_totals(self, config: BoomConfig, events, workload=None) -> np.ndarray:
        """Per-interval total power for a batch, in mW.

        One fused GBM pass per component over the stacked feature matrix;
        column order and arithmetic match the scalar path exactly.
        """
        if not self._models:
            raise RuntimeError("McPatCalibComponent used before fit")
        batch = EventBatch.from_events(events)
        n = len(batch)
        total = 0.0
        for comp in COMPONENTS:
            mcpat_comp = self.mcpat.predict_component_batch(comp.name, config, batch)
            x = np.hstack(
                [
                    np.tile(hardware_features(config, comp.name), (n, 1)),
                    event_features_batch(batch, comp.name),
                    mcpat_comp[:, None],
                ]
            )
            total = total + np.maximum(self._models[comp.name].predict(x), 0.0)
        return np.asarray(total, dtype=float)

    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-serializable state of the fitted per-component models."""
        if not self._models:
            raise ValueError("cannot serialize an unfitted McPatCalibComponent")
        return {
            "gbm_params": dict(self.gbm_params),
            "random_state": self.random_state,
            "mcpat": self.mcpat.to_state(),
            "models": {name: gbm_to_dict(m) for name, m in self._models.items()},
        }

    @classmethod
    def from_state(cls, state: dict, library=None) -> McPatCalibComponent:
        """Rebuild a fitted model from :meth:`to_state` output."""
        model = cls(
            mcpat=McPatAnalytical.from_state(state["mcpat"]),
            gbm_params=state["gbm_params"],
            random_state=int(state["random_state"]),
        )
        model._models = {
            name: gbm_from_dict(sub) for name, sub in state["models"].items()
        }
        return model
