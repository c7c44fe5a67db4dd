"""AutoPower− — the within-group-decoupling ablation (paper Sec. III-B3).

"It only decouples the model across different power groups and only
directly adopts the ML model for the estimation of each power group."
One boosted model per (component, power group), trained directly on the
golden group power, with the same feature budget as AutoPower's activity
models (hardware parameters, event rates, program features).  What it
lacks is the structural decoupling: no register-count/gating-rate
formulation for clock, no scaling-law + macro-mapping for SRAM.
"""

from __future__ import annotations

import numpy as np

from repro.arch.components import COMPONENTS
from repro.arch.config import BoomConfig
from repro.arch.events import EventBatch, EventParams
from repro.arch.workloads import Workload
from repro.core.features import (
    event_features,
    event_features_batch,
    hardware_features,
    program_features,
    program_features_matrix,
)
from repro.ml.gbm import GradientBoostingRegressor, fit_many
from repro.ml.serialize import gbm_from_dict, gbm_to_dict
from repro.power.report import POWER_GROUPS

__all__ = ["AutoPowerMinus"]


_DEFAULT_GBM = {
    "n_estimators": 200,
    "learning_rate": 0.08,
    "max_depth": 3,
    "reg_lambda": 1.0,
}


class AutoPowerMinus:
    """Per-group direct ML power model (no within-group decoupling).

    ``n_jobs`` sets the workers of the ground-truth flow runs of ``fit``;
    the 88 GBMs fit in the calling thread, in one
    :func:`~repro.ml.gbm.fit_many` call.
    """

    def __init__(
        self,
        use_program_features: bool = True,
        gbm_params: dict | None = None,
        random_state: int = 0,
        n_jobs: int | None = None,
    ) -> None:
        self.use_program_features = use_program_features
        self.gbm_params = dict(_DEFAULT_GBM if gbm_params is None else gbm_params)
        self.random_state = random_state
        self.n_jobs = n_jobs
        self._models: dict[tuple[str, str], GradientBoostingRegressor] = {}

    # ------------------------------------------------------------------
    def _features(
        self, config: BoomConfig, events: EventParams, workload: Workload, component: str
    ) -> np.ndarray:
        parts = [
            hardware_features(config, component),
            event_features(events, component, config),
        ]
        if self.use_program_features:
            parts.append(program_features(workload))
        return np.concatenate(parts)

    # ------------------------------------------------------------------
    def fit(self, flow, train_configs, workloads) -> AutoPowerMinus:
        results = flow.run_many(
            list(train_configs), list(workloads), n_jobs=self.n_jobs
        )
        return self.fit_results(results)

    def fit_results(self, results: list) -> AutoPowerMinus:
        if not results:
            raise ValueError("cannot fit on an empty result list")
        models: dict[tuple[str, str], GradientBoostingRegressor] = {}
        jobs = []
        for comp in COMPONENTS:
            x = np.stack(
                [
                    self._features(r.config, r.events, r.workload, comp.name)
                    for r in results
                ]
            )
            for group in POWER_GROUPS:
                y = np.array(
                    [r.power.component(comp.name).group(group) for r in results]
                )
                model = GradientBoostingRegressor(
                    random_state=self.random_state, **self.gbm_params
                )
                models[(comp.name, group)] = model
                jobs.append((model, x, y))
        fit_many(jobs)
        self._models = models
        return self

    # ------------------------------------------------------------------
    def predict_component_group(
        self,
        component: str,
        group: str,
        config: BoomConfig,
        events: EventParams,
        workload: Workload,
    ) -> float:
        if not self._models:
            raise RuntimeError("AutoPowerMinus used before fit")
        x = self._features(config, events, workload, component).reshape(1, -1)
        return max(float(self._models[(component, group)].predict(x)[0]), 0.0)

    def predict_group(
        self, config: BoomConfig, events: EventParams, workload: Workload, group: str
    ) -> float:
        """Predicted power of one group summed over components, in mW."""
        if group == "logic":
            return self.predict_group(config, events, workload, "register") + (
                self.predict_group(config, events, workload, "comb")
            )
        return sum(
            self.predict_component_group(c.name, group, config, events, workload)
            for c in COMPONENTS
        )

    def predict_total(
        self, config: BoomConfig, events: EventParams, workload: Workload
    ) -> float:
        return sum(
            self.predict_group(config, events, workload, group)
            for group in POWER_GROUPS
        )

    def predict_totals(self, config: BoomConfig, events, workload) -> np.ndarray:
        """Total power per interval of a batch, in mW (batched GBM passes).

        ``events`` is an :class:`EventBatch` or a sequence of
        :class:`EventParams`; ``workload`` is one workload or one per
        interval.
        """
        if not self._models:
            raise RuntimeError("AutoPowerMinus used before fit")
        batch = EventBatch.from_events(events)
        n = len(batch)
        total = np.zeros(n)
        prog = (
            program_features_matrix(workload, n) if self.use_program_features else None
        )
        for comp in COMPONENTS:
            parts = [
                np.tile(hardware_features(config, comp.name), (n, 1)),
                event_features_batch(batch, comp.name, config),
            ]
            if prog is not None:
                parts.append(prog)
            x = np.hstack(parts)
            for group in POWER_GROUPS:
                total += np.maximum(self._models[(comp.name, group)].predict(x), 0.0)
        return total

    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-serializable state of the fitted per-(component, group) GBMs."""
        if not self._models:
            raise ValueError("cannot serialize an unfitted AutoPowerMinus")
        return {
            "use_program_features": self.use_program_features,
            "gbm_params": dict(self.gbm_params),
            "random_state": self.random_state,
            "models": [
                {"component": comp, "group": group, "model": gbm_to_dict(m)}
                for (comp, group), m in self._models.items()
            ],
        }

    @classmethod
    def from_state(cls, state: dict, library=None) -> AutoPowerMinus:
        """Rebuild a fitted model from :meth:`to_state` output."""
        model = cls(
            use_program_features=bool(state["use_program_features"]),
            gbm_params=state["gbm_params"],
            random_state=int(state["random_state"]),
        )
        model._models = {
            (entry["component"], entry["group"]): gbm_from_dict(entry["model"])
            for entry in state["models"]
        }
        return model
