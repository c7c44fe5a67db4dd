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
    ConfigRows,
    feature_block_batch,
    feature_rows,
    polynomial_hardware_features,
    rows_by_config,
)
from repro.library.stdcell import TechLibrary
from repro.ml.gbm import GradientBoostingRegressor, fit_many
from repro.ml.linear import RidgeRegression

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
    def fit(self, results: list) -> ClockPowerModel:
        """Train from flow results of the known configurations.

        ``results`` is a list of :class:`repro.vlsi.flow.FlowResult`
        covering (train configs) x (workloads).  Register-count and
        gating-rate labels come from the netlists (one sample per config);
        effective-active-rate labels come from inverting Eq. 7 on golden
        clock power (one sample per config x workload).  The ridges fit
        per component; every component's alpha' GBM fits in one
        :func:`~repro.ml.gbm.fit_many` call.
        """
        if not results:
            raise ValueError("cannot fit on an empty result list")
        groups = rows_by_config(results)
        data = [
            self._component_data(component.name, results, groups)
            for component in COMPONENTS
        ]
        models = {}
        for component, (h, r_labels, g_labels, _, _) in zip(COMPONENTS, data):
            model = _ComponentClockModel(
                self.ridge_alpha, self.gbm_params, self.random_state
            )
            model.f_reg.fit(h, r_labels)
            model.f_gate.fit(h, g_labels)
            models[component.name] = model
        fit_many(
            [
                (models[component.name].f_alpha, x, a_labels)
                for component, (_, _, _, x, a_labels) in zip(COMPONENTS, data)
            ]
        )
        self._models = models
        self._fitted = True
        return self

    def _component_data(
        self, name: str, results: list, groups: list[ConfigRows]
    ) -> tuple[np.ndarray, ...]:
        """``(h, r_labels, g_labels, x, a_labels)`` of one component: the
        ridges' hardware rows and labels, and the alpha' GBM's features
        and labels."""
        config_results = [results[g.indices[0]] for g in groups]
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
        keep = []
        a_labels = []
        for i, res in enumerate(results):
            comp_net = res.netlist.component(name)
            r = comp_net.registers
            g = comp_net.gating_rate
            p_clk = res.power.component(name).clock
            if r <= 0 or g <= 0:
                continue
            alpha_eff = (p_clk - r * (1.0 - g) * p_reg) / (r * g)
            keep.append(i)
            a_labels.append(max(alpha_eff, 0.0))
        if not keep:
            raise RuntimeError(f"no effective-active-rate samples for {name}")
        return (
            np.stack(h_rows),
            np.array(r_labels),
            np.array(g_labels),
            feature_rows(groups, name, include_raw=False)[keep],
            np.array(a_labels),
        )

    # ------------------------------------------------------------------
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
        x = feature_block_batch(
            config, EventBatch.from_events(events), component, include_raw=False
        )
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
