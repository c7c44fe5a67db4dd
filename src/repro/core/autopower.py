"""The assembled AutoPower model.

``fit`` consumes the EDA-flow results of the few known configurations
(2-3 in the paper) across the training workloads; ``predict_report``
estimates per-component, per-group power for *any* configuration from its
hardware parameters and performance-simulator events alone.  Time-based
trace prediction evaluates the same model on 50-cycle event windows
without any additional trace training, exactly as in the paper's Table IV
experiment.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.arch.components import COMPONENTS
from repro.arch.config import BoomConfig
from repro.arch.events import EVENT_NAMES, EventBatch, EventParams
from repro.arch.workloads import Workload
from repro.core.clock import ClockPowerModel
from repro.core.logic import LogicPowerModel
from repro.core.plan import InferencePlan
from repro.core.sram import SramPowerModel
from repro.library.stdcell import TechLibrary, default_library
from repro.parallel import Executor, get_executor
from repro.power.report import ComponentPower, PowerReport
from repro.vlsi.macro_mapping import MacroMapper

__all__ = ["AutoPower", "events_at_scale"]


def events_at_scale(
    events: EventParams, scale, window_cycles: int
):
    """Event counts of trace windows at given activity scales.

    Window rates are the run-average rates times ``scale``; the window is
    ``window_cycles`` long.  A scalar ``scale`` returns one
    :class:`EventParams`; an array of scales returns an
    :class:`EventBatch` whose rows are the per-scale event vectors (one
    vectorized expression — no per-anchor dict rebuilds).
    """
    if window_cycles <= 0:
        raise ValueError("window_cycles must be positive")
    if np.ndim(scale) == 0:
        if scale <= 0:
            raise ValueError("scale must be positive")
        cycles = events.cycles
        counts = {
            name: events.counts[name] / cycles * scale * window_cycles
            for name in EVENT_NAMES
        }
        counts["cycles"] = float(window_cycles)
        return EventParams(counts)
    scales = np.asarray(scale, dtype=float).ravel()
    if scales.size == 0:
        raise ValueError("scale array must be non-empty")
    if np.any(scales <= 0):
        raise ValueError("scale must be positive")
    cycles = events.cycles
    base = np.array(
        [events.counts[name] / cycles for name in EVENT_NAMES], dtype=float
    )
    matrix = base[None, :] * scales[:, None] * window_cycles
    matrix[:, EVENT_NAMES.index("cycles")] = float(window_cycles)
    return EventBatch(matrix)


class AutoPower:
    """Fully automated few-shot architecture-level power model.

    Parameters
    ----------
    library:
        Technology library for the ``p_reg`` and macro energy lookups.
    use_program_features:
        Feed microarchitecture-independent program features to the SRAM
        activity model (paper default: on).
    ridge_alpha / gbm_params / random_state:
        Shared hyper-parameters for the linear and boosted sub-models.
    n_jobs / executor_backend:
        Default parallelism of ``fit``: worker count (``None`` defers to
        the CLI ``--jobs`` / ``REPRO_JOBS`` setting, ``<= 0`` means all
        cores) and backend (``auto``/``serial``/``thread``/``process``).
        The ~90 per-component sub-model fits are independent; results are
        numerically identical on every backend.
    """

    def __init__(
        self,
        library: TechLibrary | None = None,
        mapper: MacroMapper | None = None,
        use_program_features: bool = True,
        ridge_alpha: float = 1e-3,
        gbm_params: dict | None = None,
        random_state: int = 0,
        n_jobs: int | None = None,
        executor_backend: str | None = None,
    ) -> None:
        self.library = library if library is not None else default_library()
        self.n_jobs = n_jobs
        self.executor_backend = executor_backend
        self.mapper = mapper if mapper is not None else MacroMapper(self.library.sram)
        self.clock_model = ClockPowerModel(
            self.library, ridge_alpha, gbm_params, random_state
        )
        self.sram_model = SramPowerModel(
            self.library,
            self.mapper,
            use_program_features=use_program_features,
            gbm_params=gbm_params,
            random_state=random_state,
        )
        self.logic_model = LogicPowerModel(ridge_alpha, gbm_params, random_state)
        self.train_config_names: tuple[str, ...] = ()
        self._fitted = False
        self._plan_lock = threading.Lock()
        self._plan: InferencePlan | None = None  # guarded-by: _plan_lock

    def __getstate__(self) -> dict:
        # The plan is derived (rebuilt on demand) and the lock can't pickle.
        state = dict(self.__dict__)
        del state["_plan_lock"], state["_plan"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._plan_lock = threading.Lock()
        self._plan = None

    # ------------------------------------------------------------------
    def _executor(
        self, n_jobs: int | None = None, backend: str | None = None
    ) -> Executor:
        """The fit executor for an (optional) per-call override."""
        return get_executor(
            self.n_jobs if n_jobs is None else n_jobs,
            self.executor_backend if backend is None else backend,
        )

    def fit(
        self,
        flow,
        train_configs,
        workloads,
        n_jobs: int | None = None,
        backend: str | None = None,
    ) -> AutoPower:
        """Train all sub-models from the flow outputs of known configs.

        ``flow`` is a :class:`repro.vlsi.flow.VlsiFlow`; it is only ever
        invoked on the *training* configurations.  ``n_jobs``/``backend``
        override the instance-level parallelism for both the ground-truth
        flow runs and the sub-model fits.
        """
        executor = self._executor(n_jobs, backend)
        results = flow.run_many(
            list(train_configs), list(workloads), executor=executor
        )
        return self.fit_results(results, executor=executor)

    def fit_results(
        self,
        results: list,
        n_jobs: int | None = None,
        backend: str | None = None,
        executor: Executor | None = None,
    ) -> AutoPower:
        """Train from precomputed flow results (train configs only)."""
        if not results:
            raise ValueError("cannot fit on an empty result list")
        if executor is None:
            executor = self._executor(n_jobs, backend)
        self.clock_model.fit(results, executor=executor)
        self.sram_model.fit(results, executor=executor)
        self.logic_model.fit(results, executor=executor)
        seen: list[str] = []
        for res in results:
            if res.config.name not in seen:
                seen.append(res.config.name)
        self.train_config_names = tuple(seen)
        with self._plan_lock:
            self._plan = None  # compiled from the previous sub-models
        self._fitted = True
        return self

    def _require_fit(self) -> None:
        if not self._fitted:
            raise RuntimeError("AutoPower used before fit")

    def _inference_plan(self) -> InferencePlan:
        """The fused inference plan, built on first use (thread-safe)."""
        self._require_fit()
        plan = self._plan
        if plan is None:
            with self._plan_lock:
                if self._plan is None:
                    self._plan = InferencePlan(self)
                plan = self._plan
        return plan

    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-serializable state of the fitted model (no pickle)."""
        from repro.core.persistence import autopower_to_state

        return autopower_to_state(self)

    @classmethod
    def from_state(
        cls, state: dict, library: TechLibrary | None = None
    ) -> AutoPower:
        """Rebuild a fitted model from :meth:`to_state` output."""
        from repro.core.persistence import autopower_from_state

        return autopower_from_state(state, library=library)

    # ------------------------------------------------------------------
    def predict_report(
        self, config: BoomConfig, events: EventParams, workload: Workload
    ) -> PowerReport:
        """Predicted per-component, per-group power report."""
        return self.predict_reports(config, events, workload)[0]

    def predict_total(
        self, config: BoomConfig, events: EventParams, workload: Workload
    ) -> float:
        """Predicted total power, in mW."""
        return self.predict_report(config, events, workload).total

    # -- batched prediction ----------------------------------------------
    def predict_reports(
        self, config: BoomConfig, events, workload
    ) -> list[PowerReport]:
        """Power reports for a whole batch of event intervals.

        ``events`` is an :class:`EventBatch` or a sequence of
        :class:`EventParams`; ``workload`` is a single workload or one per
        interval.  One pass of the fused inference plan covers every
        component, group and interval.
        """
        plan = self._inference_plan()
        batch = EventBatch.from_events(events)
        n = len(batch)
        if isinstance(workload, Workload):
            workload_names = [workload.name] * n
        else:
            workload_names = [w.name for w in workload]
            if len(workload_names) != n:
                raise ValueError(
                    f"got {len(workload_names)} workloads for {n} intervals"
                )
        clock, register, comb, sram = plan.groups(config, batch, workload)
        clock, register, comb = clock.T.tolist(), register.T.tolist(), comb.T.tolist()
        zeros = [0.0] * n
        sram_rows = [
            sram[comp.name].tolist() if comp.name in sram else zeros
            for comp in COMPONENTS
        ]
        return [
            PowerReport(
                config_name=config.name,
                workload_name=workload_names[i],
                components=tuple(
                    ComponentPower(
                        name=comp.name,
                        clock=clock[i][c],
                        sram=sram_rows[c][i],
                        register=register[i][c],
                        comb=comb[i][c],
                    )
                    for c, comp in enumerate(COMPONENTS)
                ),
            )
            for i in range(n)
        ]

    def predict_totals(
        self, config: BoomConfig, events, workload
    ) -> np.ndarray:
        """Predicted total power per interval of a batch, in mW."""
        plan = self._inference_plan()
        return plan.totals(config, EventBatch.from_events(events), workload)

    def predict_group(
        self, config: BoomConfig, events: EventParams, workload: Workload, group: str
    ) -> float:
        """Predicted power of one group (clock / sram / register / comb /
        logic), in mW."""
        return self.predict_report(config, events, workload).group_total(group)

    # ------------------------------------------------------------------
    def predict_trace(
        self,
        config: BoomConfig,
        events: EventParams,
        workload: Workload,
        scales: np.ndarray,
        window_cycles: int = 50,
        n_anchors: int = 65,
    ) -> np.ndarray:
        """Predicted per-window total power for a trace (Table IV).

        The model is applied per 50-cycle window without any trace-level
        tuning; windows are one-parameter (activity scale) families of the
        run-average events, so the prediction is evaluated at ``n_anchors``
        scales and linearly interpolated — exact up to the GBM's step
        granularity.
        """
        self._require_fit()
        scales = np.asarray(scales, dtype=float)
        if scales.size == 0:
            raise ValueError("scales must be non-empty")
        lo, hi = float(scales.min()), float(scales.max())
        if lo <= 0:
            raise ValueError("scales must be positive")
        if hi - lo < 1e-12:
            power = self.predict_total(
                config, events_at_scale(events, lo, window_cycles), workload
            )
            return np.full(scales.shape, power)
        anchors = np.linspace(lo, hi, n_anchors)
        # One stacked event matrix and one batched model pass cover every
        # anchor; no per-anchor event dicts or scalar sub-model calls.
        batch = events_at_scale(events, anchors, window_cycles)
        powers = self.predict_totals(config, batch, workload)
        return np.interp(scales, anchors, powers)
