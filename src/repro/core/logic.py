"""Logic power model (paper Sec. II-C).

Logic power = register power (excluding clock pins) + combinational power,
modelled separately:

* **register power** (Eq. 11): ``P_reg = F_reg(H) * F_act(H, E)`` — a
  ridge hardware model for the register count and a GBM activity model
  whose label is golden register power divided by the register count,
* **combinational power** (Eq. 12): ``P_comb = F_sta(H) * F_var(H, E)`` —
  a *stable* model trained on the workload-averaged combinational power of
  each training configuration (hardware-only) and a *variation* model on
  the per-workload ratio to that stable power.
"""

from __future__ import annotations

import numpy as np

from repro.arch.components import COMPONENTS
from repro.arch.config import BoomConfig
from repro.arch.events import EventBatch, EventParams
from repro.core.features import (
    ConfigRows,
    feature_block_batch,
    feature_rows,
    polynomial_hardware_features,
    rows_by_config,
)
from repro.ml.gbm import GradientBoostingRegressor, fit_many
from repro.ml.linear import RidgeRegression

__all__ = ["CombPowerModel", "LogicPowerModel", "RegisterPowerModel"]

_DEFAULT_GBM = {
    "n_estimators": 150,
    "learning_rate": 0.08,
    "max_depth": 3,
    "reg_lambda": 1.0,
}


# The register and comb GBMs read scale-free event features
# (``include_raw=False``): their targets (per-register power, power
# variation ratio) are rates, so raw machine-scaled rates are dropped in
# favour of per-parameter-normalized ones.
def _he_row(config: BoomConfig, events: EventParams, component: str) -> np.ndarray:
    """One register/comb GBM feature row."""
    return feature_block_batch(
        config, EventBatch.from_events(events), component, include_raw=False
    )


def _fit_pairs(
    model, results: list
) -> tuple[dict[str, RidgeRegression], dict[str, GradientBoostingRegressor]]:
    """One (hardware ridge, activity GBM) pair per component.

    Shared by the register and combinational fits, which both decompose
    into a hardware-only ridge and an activity GBM per component.
    ``model._component_data`` gives each component's ``(h, h_labels, x,
    x_labels)``; the ridges fit one by one and the GBMs in one
    :func:`~repro.ml.gbm.fit_many` call.
    """
    if not results:
        raise ValueError("cannot fit on an empty result list")
    groups = rows_by_config(results)
    data = [
        model._component_data(component.name, results, groups)
        for component in COMPONENTS
    ]
    ridges: dict[str, RidgeRegression] = {}
    gbms: dict[str, GradientBoostingRegressor] = {}
    jobs = []
    for component, (h, h_labels, x, x_labels) in zip(COMPONENTS, data):
        ridges[component.name] = RidgeRegression(
            alpha=model.ridge_alpha, nonnegative=True
        ).fit(h, h_labels)
        gbms[component.name] = GradientBoostingRegressor(
            random_state=model.random_state, **model.gbm_params
        )
        jobs.append((gbms[component.name], x, x_labels))
    fit_many(jobs)
    return ridges, gbms


class RegisterPowerModel:
    """Per-component register (non-clock) power: F_reg(H) * F_act(H, E)."""

    def __init__(
        self,
        ridge_alpha: float = 1e-3,
        gbm_params: dict | None = None,
        random_state: int = 0,
    ) -> None:
        self.ridge_alpha = ridge_alpha
        self.gbm_params = dict(_DEFAULT_GBM if gbm_params is None else gbm_params)
        self.random_state = random_state
        self._f_reg: dict[str, RidgeRegression] = {}
        self._f_act: dict[str, GradientBoostingRegressor] = {}
        self._fitted = False

    def fit(self, results: list) -> RegisterPowerModel:
        self._f_reg, self._f_act = _fit_pairs(self, results)
        self._fitted = True
        return self

    def _component_data(
        self, name: str, results: list, groups: list[ConfigRows]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        h_rows = [polynomial_hardware_features(g.config, name) for g in groups]
        r_labels = [
            float(results[g.indices[0]].netlist.component(name).registers)
            for g in groups
        ]
        keep, act_labels = [], []
        for i, res in enumerate(results):
            registers = res.netlist.component(name).registers
            if registers <= 0:
                continue
            p_register = res.power.component(name).register
            keep.append(i)
            act_labels.append(p_register / registers)
        return (
            np.stack(h_rows),
            np.array(r_labels),
            feature_rows(groups, name, include_raw=False)[keep],
            np.array(act_labels),
        )

    def predict_component(
        self, component: str, config: BoomConfig, events: EventParams
    ) -> float:
        if not self._fitted:
            raise RuntimeError("RegisterPowerModel used before fit")
        h = polynomial_hardware_features(config, component).reshape(1, -1)
        registers = self.hardware_term(component, h)
        x = _he_row(config, events, component)
        per_register = max(float(self._f_act[component].predict(x)[0]), 0.0)
        return registers * per_register

    def predict_batch(
        self, config: BoomConfig, events: EventBatch
    ) -> dict[str, np.ndarray]:
        """Per-component register power for a whole event batch, in mW."""
        if not self._fitted:
            raise RuntimeError("RegisterPowerModel used before fit")
        out: dict[str, np.ndarray] = {}
        for comp in COMPONENTS:
            name = comp.name
            h = polynomial_hardware_features(config, name).reshape(1, -1)
            x = feature_block_batch(config, events, name, include_raw=False)
            out[name] = self.hardware_term(name, h) * np.maximum(
                self._f_act[name].predict(x), 0.0
            )
        return out

    def hardware_term(self, component: str, h: np.ndarray) -> float:
        """Register count F_reg(H) from one polynomial H row (1 x k)."""
        return max(float(self._f_reg[component].predict(h)[0]), 0.0)


class CombPowerModel:
    """Per-component combinational power: F_sta(H) * F_var(H, E)."""

    def __init__(
        self,
        ridge_alpha: float = 1e-3,
        gbm_params: dict | None = None,
        random_state: int = 0,
    ) -> None:
        self.ridge_alpha = ridge_alpha
        self.gbm_params = dict(_DEFAULT_GBM if gbm_params is None else gbm_params)
        self.random_state = random_state
        self._f_sta: dict[str, RidgeRegression] = {}
        self._f_var: dict[str, GradientBoostingRegressor] = {}
        self._fitted = False

    def fit(self, results: list) -> CombPowerModel:
        self._f_sta, self._f_var = _fit_pairs(self, results)
        self._fitted = True
        return self

    def _component_data(
        self, name: str, results: list, groups: list[ConfigRows]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        h_rows, sta_labels = [], []
        blocks, var_labels = [], []
        for g in groups:
            powers = [results[i].power.component(name).comb for i in g.indices]
            # Stable power: average combinational power across workloads.
            stable = float(np.mean(powers))
            h_rows.append(polynomial_hardware_features(g.config, name))
            sta_labels.append(stable)
            # Variation: per-workload ratio to the stable power.
            if stable > 0:
                blocks.append(
                    feature_block_batch(g.config, g.events, name, include_raw=False)
                )
                var_labels.extend(p / stable for p in powers)
        return (
            np.stack(h_rows),
            np.array(sta_labels),
            np.vstack(blocks),
            np.array(var_labels),
        )

    def predict_component(
        self, component: str, config: BoomConfig, events: EventParams
    ) -> float:
        if not self._fitted:
            raise RuntimeError("CombPowerModel used before fit")
        h = polynomial_hardware_features(config, component).reshape(1, -1)
        stable = self.hardware_term(component, h)
        x = _he_row(config, events, component)
        variation = max(float(self._f_var[component].predict(x)[0]), 0.0)
        return stable * variation

    def predict_batch(
        self, config: BoomConfig, events: EventBatch
    ) -> dict[str, np.ndarray]:
        """Per-component combinational power for a whole event batch, in mW."""
        if not self._fitted:
            raise RuntimeError("CombPowerModel used before fit")
        out: dict[str, np.ndarray] = {}
        for comp in COMPONENTS:
            name = comp.name
            h = polynomial_hardware_features(config, name).reshape(1, -1)
            x = feature_block_batch(config, events, name, include_raw=False)
            out[name] = self.hardware_term(name, h) * np.maximum(
                self._f_var[name].predict(x), 0.0
            )
        return out

    def hardware_term(self, component: str, h: np.ndarray) -> float:
        """Stable power F_sta(H) from one polynomial H row (1 x k)."""
        return max(float(self._f_sta[component].predict(h)[0]), 0.0)


class LogicPowerModel:
    """Combined logic power group: register + combinational sub-models."""

    def __init__(
        self,
        ridge_alpha: float = 1e-3,
        gbm_params: dict | None = None,
        random_state: int = 0,
    ) -> None:
        self.register_model = RegisterPowerModel(ridge_alpha, gbm_params, random_state)
        self.comb_model = CombPowerModel(ridge_alpha, gbm_params, random_state)
        self._fitted = False

    def fit(self, results: list) -> LogicPowerModel:
        self.register_model.fit(results)
        self.comb_model.fit(results)
        self._fitted = True
        return self

    def predict_component(
        self, component: str, config: BoomConfig, events: EventParams
    ) -> tuple[float, float]:
        """(register, comb) power of one component, in mW."""
        if not self._fitted:
            raise RuntimeError("LogicPowerModel used before fit")
        return (
            self.register_model.predict_component(component, config, events),
            self.comb_model.predict_component(component, config, events),
        )

    def predict(
        self, config: BoomConfig, events: EventParams
    ) -> dict[str, tuple[float, float]]:
        return {
            comp.name: self.predict_component(comp.name, config, events)
            for comp in COMPONENTS
        }

    def predict_batch(
        self, config: BoomConfig, events: EventBatch
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per-component (register, comb) power arrays for an event batch."""
        if not self._fitted:
            raise RuntimeError("LogicPowerModel used before fit")
        register = self.register_model.predict_batch(config, events)
        comb = self.comb_model.predict_batch(config, events)
        return {
            comp.name: (register[comp.name], comb[comp.name])
            for comp in COMPONENTS
        }
