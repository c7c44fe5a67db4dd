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
    event_features,
    feature_block_batch,
    hardware_features,
    polynomial_hardware_features,
)
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import RidgeRegression
from repro.parallel import Executor, SerialExecutor

__all__ = ["CombPowerModel", "LogicPowerModel", "RegisterPowerModel"]

_DEFAULT_GBM = {
    "n_estimators": 150,
    "learning_rate": 0.08,
    "max_depth": 3,
    "reg_lambda": 1.0,
}


def _he_features(config: BoomConfig, events: EventParams, component: str) -> np.ndarray:
    # Scale-free event features: the GBM targets here (per-register power,
    # power variation ratio) are rates, so raw machine-scaled rates are
    # dropped in favour of per-parameter-normalized ones.
    return np.concatenate(
        [
            hardware_features(config, component),
            event_features(events, component, config, include_raw=False),
        ]
    )


def _fit_ridge_gbm_pair(
    payload: dict,
) -> tuple[RidgeRegression, GradientBoostingRegressor]:
    """Fit one component's (ridge hardware model, activity GBM) pair.

    Shared by the register and combinational fits — both decompose into a
    hardware-only ridge and an activity GBM per component.  Module-level
    and array-only, so the executor can run it in worker processes; the
    payload carries its own ``random_state``.
    """
    ridge = RidgeRegression(alpha=payload["ridge_alpha"], nonnegative=True)
    ridge.fit(payload["h"], payload["h_labels"])
    gbm = GradientBoostingRegressor(
        random_state=payload["random_state"], **payload["gbm_params"]
    )
    gbm.fit(payload["x"], payload["x_labels"])
    return ridge, gbm


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

    def fit(
        self, results: list, executor: Executor | None = None
    ) -> RegisterPowerModel:
        if not results:
            raise ValueError("cannot fit on an empty result list")
        if executor is None:
            executor = SerialExecutor()
        payloads = [
            self._component_payload(component.name, results)
            for component in COMPONENTS
        ]
        pairs = executor.map(_fit_ridge_gbm_pair, payloads)
        for component, (f_reg, f_act) in zip(COMPONENTS, pairs):
            self._f_reg[component.name] = f_reg
            self._f_act[component.name] = f_act
        self._fitted = True
        return self

    def _component_payload(self, name: str, results: list) -> dict:
        by_config: dict[str, object] = {}
        for res in results:
            by_config.setdefault(res.config.name, res)
        config_results = list(by_config.values())

        h_rows = [
            polynomial_hardware_features(res.config, name) for res in config_results
        ]
        r_labels = [
            float(res.netlist.component(name).registers) for res in config_results
        ]
        x_rows, act_labels = [], []
        for res in results:
            registers = res.netlist.component(name).registers
            if registers <= 0:
                continue
            p_register = res.power.component(name).register
            x_rows.append(_he_features(res.config, res.events, name))
            act_labels.append(p_register / registers)
        return {
            "ridge_alpha": self.ridge_alpha,
            "gbm_params": self.gbm_params,
            "random_state": self.random_state,
            "h": np.stack(h_rows),
            "h_labels": np.array(r_labels),
            "x": np.stack(x_rows),
            "x_labels": np.array(act_labels),
        }

    def predict_component(
        self, component: str, config: BoomConfig, events: EventParams
    ) -> float:
        if not self._fitted:
            raise RuntimeError("RegisterPowerModel used before fit")
        h = polynomial_hardware_features(config, component).reshape(1, -1)
        registers = self.hardware_term(component, h)
        x = _he_features(config, events, component).reshape(1, -1)
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

    def fit(
        self, results: list, executor: Executor | None = None
    ) -> CombPowerModel:
        if not results:
            raise ValueError("cannot fit on an empty result list")
        if executor is None:
            executor = SerialExecutor()
        payloads = [
            self._component_payload(component.name, results)
            for component in COMPONENTS
        ]
        pairs = executor.map(_fit_ridge_gbm_pair, payloads)
        for component, (f_sta, f_var) in zip(COMPONENTS, pairs):
            self._f_sta[component.name] = f_sta
            self._f_var[component.name] = f_var
        self._fitted = True
        return self

    def _component_payload(self, name: str, results: list) -> dict:
        by_config: dict[str, list] = {}
        for res in results:
            by_config.setdefault(res.config.name, []).append(res)

        # Stable power: average combinational power across workloads.
        h_rows, sta_labels = [], []
        stable_by_config: dict[str, float] = {}
        for config_name, config_results in by_config.items():
            powers = [r.power.component(name).comb for r in config_results]
            stable = float(np.mean(powers))
            stable_by_config[config_name] = stable
            h_rows.append(
                polynomial_hardware_features(config_results[0].config, name)
            )
            sta_labels.append(stable)

        # Variation: per-workload ratio to the stable power.
        x_rows, var_labels = [], []
        for config_name, config_results in by_config.items():
            stable = stable_by_config[config_name]
            if stable <= 0:
                continue
            for res in config_results:
                x_rows.append(_he_features(res.config, res.events, name))
                var_labels.append(res.power.component(name).comb / stable)
        return {
            "ridge_alpha": self.ridge_alpha,
            "gbm_params": self.gbm_params,
            "random_state": self.random_state,
            "h": np.stack(h_rows),
            "h_labels": np.array(sta_labels),
            "x": np.stack(x_rows),
            "x_labels": np.array(var_labels),
        }

    def predict_component(
        self, component: str, config: BoomConfig, events: EventParams
    ) -> float:
        if not self._fitted:
            raise RuntimeError("CombPowerModel used before fit")
        h = polynomial_hardware_features(config, component).reshape(1, -1)
        stable = self.hardware_term(component, h)
        x = _he_features(config, events, component).reshape(1, -1)
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

    def fit(
        self, results: list, executor: Executor | None = None
    ) -> LogicPowerModel:
        self.register_model.fit(results, executor=executor)
        self.comb_model.fit(results, executor=executor)
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
