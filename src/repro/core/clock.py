"""Clock power model (paper Sec. II-A).

Decomposition (Eq. 7):

    P_clk = R * (1 - g) * p_reg  +  alpha' * R * g

with ``p_reg`` looked up from the technology library and three learned
sub-models (Eq. 8):

    R = F_reg(H)        ridge regression, netlist register-count labels
    g = F_gate(H)       ridge regression, netlist gating-rate labels
    alpha' = F_alpha(H, E)   gradient-boosted trees, labels recovered by
                             inverting Eq. 7 on the golden clock power of
                             the training configurations

``alpha'`` is the paper's *effective active rate*: the true active rate
folded together with the gating-cell term ``(1 + r * p_latch / p_reg)``
(Eq. 6) — and, in practice, whatever clock-tree residue Eq. 7 does not
capture, which is why it must be learned per workload.
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
from repro.library.stdcell import TechLibrary
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import RidgeRegression
from repro.parallel import Executor, SerialExecutor

__all__ = ["ClockPowerModel"]

_DEFAULT_GBM = {
    "n_estimators": 150,
    "learning_rate": 0.08,
    "max_depth": 3,
    "reg_lambda": 1.0,
}


class _ComponentClockModel:
    """The three sub-models of one component."""

    def __init__(self, ridge_alpha: float, gbm_params: dict, random_state: int) -> None:
        self.f_reg = RidgeRegression(alpha=ridge_alpha, nonnegative=True)
        self.f_gate = RidgeRegression(alpha=ridge_alpha)
        self.f_alpha = GradientBoostingRegressor(
            random_state=random_state, **gbm_params
        )


def _fit_clock_component(payload: dict) -> _ComponentClockModel:
    """Fit one component's three clock sub-models from a pure payload.

    A module-level function of plain arrays and hyper-parameters — the
    picklable task the executor fans out; the payload carries its own
    ``random_state``, so the result is backend-independent.
    """
    model = _ComponentClockModel(
        payload["ridge_alpha"], payload["gbm_params"], payload["random_state"]
    )
    model.f_reg.fit(payload["h"], payload["r_labels"])
    model.f_gate.fit(payload["h"], payload["g_labels"])
    model.f_alpha.fit(payload["x"], payload["a_labels"])
    return model


class ClockPowerModel:
    """Per-component clock power with register/gating/active-rate decoupling.

    Parameters
    ----------
    library:
        Technology library for the ``p_reg`` lookup.
    ridge_alpha:
        L2 strength of the register-count and gating-rate models.
    gbm_params:
        Hyper-parameters of the effective-active-rate GBM.
    """

    def __init__(
        self,
        library: TechLibrary,
        ridge_alpha: float = 1e-3,
        gbm_params: dict | None = None,
        random_state: int = 0,
    ) -> None:
        self.library = library
        self.ridge_alpha = ridge_alpha
        self.gbm_params = dict(_DEFAULT_GBM if gbm_params is None else gbm_params)
        self.random_state = random_state
        self._models: dict[str, _ComponentClockModel] = {}
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(
        self, results: list, executor: Executor | None = None
    ) -> ClockPowerModel:
        """Train from flow results of the known configurations.

        ``results`` is a list of :class:`repro.vlsi.flow.FlowResult`
        covering (train configs) x (workloads).  Register-count and
        gating-rate labels come from the netlists (one sample per config);
        effective-active-rate labels come from inverting Eq. 7 on golden
        clock power (one sample per config x workload).  The per-component
        fits are independent and run through ``executor`` (serial by
        default) with numerically identical results on every backend.
        """
        if executor is None:
            executor = SerialExecutor()
        payloads = [
            self._component_payload(component.name, results)
            for component in COMPONENTS
        ]
        models = executor.map(_fit_clock_component, payloads)
        self._models = {
            component.name: model for component, model in zip(COMPONENTS, models)
        }
        self._fitted = True
        return self

    def _component_payload(self, name: str, results: list) -> dict:
        """Feature matrices and labels of one component's fit task."""
        if not results:
            raise ValueError("cannot fit on an empty result list")
        by_config: dict[str, object] = {}
        for res in results:
            by_config.setdefault(res.config.name, res)
        config_results = list(by_config.values())
        p_reg = self.library.p_reg_mw

        # Per-config labels from the netlist.
        h_rows = []
        r_labels = []
        g_labels = []
        for res in config_results:
            comp_net = res.netlist.component(name)
            h_rows.append(polynomial_hardware_features(res.config, name))
            r_labels.append(float(comp_net.registers))
            g_labels.append(comp_net.gating_rate)

        # Per-sample effective-active-rate labels (Eq. 7 inverted).
        x_rows = []
        a_labels = []
        for res in results:
            comp_net = res.netlist.component(name)
            r = comp_net.registers
            g = comp_net.gating_rate
            p_clk = res.power.component(name).clock
            if r <= 0 or g <= 0:
                continue
            alpha_eff = (p_clk - r * (1.0 - g) * p_reg) / (r * g)
            x_rows.append(self._alpha_features(res.config, res.events, name))
            a_labels.append(max(alpha_eff, 0.0))
        if not x_rows:
            raise RuntimeError(f"no effective-active-rate samples for {name}")
        return {
            "ridge_alpha": self.ridge_alpha,
            "gbm_params": self.gbm_params,
            "random_state": self.random_state,
            "h": np.stack(h_rows),
            "r_labels": np.array(r_labels),
            "g_labels": np.array(g_labels),
            "x": np.stack(x_rows),
            "a_labels": np.array(a_labels),
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _alpha_features(
        config: BoomConfig, events: EventParams, component: str
    ) -> np.ndarray:
        return np.concatenate(
            [
                hardware_features(config, component),
                event_features(events, component, config, include_raw=False),
            ]
        )

    def _require_fit(self) -> None:
        if not self._fitted:
            raise RuntimeError("ClockPowerModel used before fit")

    # -- sub-model access ------------------------------------------------
    def hardware_terms(self, component: str, h: np.ndarray) -> tuple[float, float]:
        """(R, g) of one component from its polynomial H row (1 x k):
        register count and gating rate clipped to [0, 1]."""
        model = self._models[component]
        return (
            float(model.f_reg.predict(h)[0]),
            float(np.clip(model.f_gate.predict(h)[0], 0.0, 1.0)),
        )

    def predict_register_count(self, component: str, config: BoomConfig) -> float:
        """Predicted register count R of one component."""
        self._require_fit()
        h = polynomial_hardware_features(config, component).reshape(1, -1)
        return self.hardware_terms(component, h)[0]

    def predict_gating_rate(self, component: str, config: BoomConfig) -> float:
        """Predicted gating rate g of one component, clipped to [0, 1]."""
        self._require_fit()
        h = polynomial_hardware_features(config, component).reshape(1, -1)
        return self.hardware_terms(component, h)[1]

    def predict_effective_active_rate(
        self, component: str, config: BoomConfig, events: EventParams
    ) -> float:
        """Predicted effective active rate alpha' (non-negative)."""
        self._require_fit()
        x = self._alpha_features(config, events, component).reshape(1, -1)
        return max(float(self._models[component].f_alpha.predict(x)[0]), 0.0)

    # -- power prediction --------------------------------------------------
    def predict_component(
        self, component: str, config: BoomConfig, events: EventParams
    ) -> float:
        """Clock power of one component per Eq. 7, in mW."""
        r = self.predict_register_count(component, config)
        g = self.predict_gating_rate(component, config)
        alpha_eff = self.predict_effective_active_rate(component, config, events)
        p_reg = self.library.p_reg_mw
        return max(r * (1.0 - g) * p_reg + alpha_eff * r * g, 0.0)

    def predict(self, config: BoomConfig, events: EventParams) -> dict[str, float]:
        """Per-component clock power, in mW."""
        return {
            comp.name: self.predict_component(comp.name, config, events)
            for comp in COMPONENTS
        }

    # -- batched prediction ----------------------------------------------
    def predict_batch(
        self, config: BoomConfig, events: EventBatch
    ) -> dict[str, np.ndarray]:
        """Per-component clock power for a whole event batch, in mW.

        The hardware-only sub-models (register count, gating rate) are
        evaluated once per component; only the effective-active-rate GBM
        sees the event matrix, in a single batched pass.
        """
        self._require_fit()
        out: dict[str, np.ndarray] = {}
        for comp in COMPONENTS:
            name = comp.name
            h = polynomial_hardware_features(config, name).reshape(1, -1)
            r, g = self.hardware_terms(name, h)
            x = feature_block_batch(config, events, name, include_raw=False)
            out[name] = self.power(r, g, self._models[name].f_alpha.predict(x))
        return out

    def power(self, r, g, alpha_raw: np.ndarray) -> np.ndarray:
        """Eq. 7 on arrays: clock power from R, g and the raw alpha' GBM
        output (clipped at zero here).  Broadcasts, so one call can cover
        many components."""
        alpha = np.maximum(alpha_raw, 0.0)
        return np.maximum(r * (1.0 - g) * self.library.p_reg_mw + alpha * r * g, 0.0)
