"""The fused inference plan of a fitted :class:`~repro.core.autopower.AutoPower`.

Composing the per-group ``predict_batch`` methods costs ~94 separate
GBM calls per configuration — one effective-active-rate, register
activity and combinational-variation model per component, plus a read
and a write model per SRAM position — and most of a request's time is
Python overhead around them, not arithmetic.  The plan compiles every
GBM of the model into one :class:`~repro.ml.forest.Forest` over one wide
feature matrix, so a call for one configuration is:

1. the wide feature matrix, every component's feature block built once
   (the clock, register and combinational models share one block);
2. the hardware-only terms (ridge models, scaling laws, macro mapping),
   once per call — each component's polynomial H row once;
3. one blocked forest descent over all ensembles;
4. the groups' own formulas (:meth:`ClockPowerModel.power`,
   :meth:`SramPowerModel.position_power`, ...), over all components at
   once.

Every step runs the float operations of the per-group path in the same
order, so totals, reports and traces are bitwise-equal to it.  The plan
is derived state: :class:`AutoPower` builds it on first predict, drops
it on ``fit`` and never serializes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.arch.components import COMPONENTS
from repro.arch.config import HARDWARE_PARAMETERS, BoomConfig
from repro.arch.events import EVENT_NAMES, EventBatch
from repro.core.features import (
    feature_block,
    polynomial_hardware_features,
    program_feature_names,
    program_features_matrix,
)
from repro.ml.forest import Forest

if TYPE_CHECKING:
    from repro.core.autopower import AutoPower

__all__ = ["InferencePlan"]

_PARAM_INDEX = {name: i for i, name in enumerate(HARDWARE_PARAMETERS)}
_EVENT_INDEX = {name: i for i, name in enumerate(EVENT_NAMES)}
_PROGRAM_INDEX = {name: i for i, name in enumerate(program_feature_names())}


class _WideLayout:
    """Gather tables of the wide feature matrix, one block at a time.

    A block reproduces one component's
    :func:`~repro.core.features.feature_block_batch` rows column for
    column, from the :func:`~repro.core.features.feature_block` that
    describes them.
    """

    def __init__(self) -> None:
        self.width = 0
        self.hw: list[tuple[int, int]] = []  # (column, parameter)
        self.rate: list[tuple[int, int, int]] = []  # (column, event, divisor param | -1)
        self.program: list[tuple[int, int]] = []  # (column, program feature)

    def block(self, component: str, include_raw: bool, program: bool) -> int:
        """Append one component's block; returns its first column."""
        spec = feature_block(component, include_raw, program)
        start = col = self.width
        for param in spec.hardware:
            self.hw.append((col, _PARAM_INDEX[param]))
            col += 1
        for event, divisor in spec.rates:
            div = -1 if divisor is None else _PARAM_INDEX[divisor]
            self.rate.append((col, _EVENT_INDEX[event], div))
            col += 1
        for name in spec.program:
            self.program.append((col, _PROGRAM_INDEX[name]))
            col += 1
        self.width = col
        return start


class InferencePlan:
    """One fitted model's sub-models as one forest plus per-slot formulas."""

    def __init__(self, model: AutoPower) -> None:
        self.clock = model.clock_model
        self.sram = model.sram_model
        self.register = model.logic_model.register_model
        self.comb = model.logic_model.comb_model
        self.names = tuple(comp.name for comp in COMPONENTS)

        layout = _WideLayout()
        # The clock alpha', register activity and comb variation models
        # all read one block per component: H + normalized E + IPC.
        shared = {
            name: layout.block(name, include_raw=False, program=False)
            for name in self.names
        }
        gbms = [(self.clock._models[n].f_alpha, shared[n]) for n in self.names]
        gbms += [(self.register._f_act[n], shared[n]) for n in self.names]
        gbms += [(self.comb._f_var[n], shared[n]) for n in self.names]
        # SRAM positions: read and write interleaved, per component block.
        self.positions: list[str] = []
        self.sram_spans: list[tuple[str, int, int]] = []
        for comp, positions in self.sram._component_positions.items():
            start = layout.block(
                comp, include_raw=True, program=self.sram.use_program_features
            )
            first = len(self.positions)
            for pos in positions:
                model_ = self.sram._positions[pos]
                gbms += [(model_.f_read, start), (model_.f_write, start)]
                self.positions.append(pos)
            self.sram_spans.append((comp, first, len(self.positions)))

        self.forest = Forest.from_ensembles([(g.nodes_, col) for g, col in gbms])
        self.base = np.array([g.base_score_ for g, _ in gbms])[:, None]
        self.learning_rate = np.array([g.learning_rate for g, _ in gbms])[:, None]

        self.width = layout.width
        self.hw_cols, self.hw_src = _columns(layout.hw, 2)
        self.rate_cols, self.rate_src, self.rate_div = _columns(layout.rate, 3)
        self.program_cols, self.program_src = _columns(layout.program, 2)

    # ------------------------------------------------------------------
    def _features(self, config: BoomConfig, batch: EventBatch, workload) -> np.ndarray:
        n = len(batch)
        hw = config.vector()
        wide = np.empty((n, self.width))
        wide[:, self.hw_cols] = hw[self.hw_src]
        divisor = np.where(self.rate_div >= 0, np.maximum(hw[self.rate_div], 1.0), 1.0)
        wide[:, self.rate_cols] = (
            batch.matrix[:, self.rate_src] / batch.cycles[:, None] / divisor
        )
        if self.program_cols.size:
            program = program_features_matrix(workload, n)
            wide[:, self.program_cols] = program[:, self.program_src]
        return wide

    def groups(
        self, config: BoomConfig, batch: EventBatch, workload
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """(clock, register, comb, sram) power of every component.

        The first three are ``(components, rows)`` arrays in
        :data:`~repro.arch.components.COMPONENTS` order; ``sram`` maps
        each SRAM-bearing component to its per-row power.
        """
        n_comp = len(self.names)
        r = np.empty((n_comp, 1))
        g = np.empty((n_comp, 1))
        registers = np.empty((n_comp, 1))
        stable = np.empty((n_comp, 1))
        for c, name in enumerate(self.names):
            h = polynomial_hardware_features(config, name).reshape(1, -1)
            r[c], g[c] = self.clock.hardware_terms(name, h)
            registers[c] = self.register.hardware_term(name, h)
            stable[c] = self.comb.hardware_term(name, h)
        # (4, positions, 1): each SramPowerModel.position_terms field as a column.
        terms = np.array(
            [self.sram.position_terms(pos, config) for pos in self.positions],
            dtype=float,
        ).reshape(-1, 4).T[:, :, None]

        x = self._features(config, batch, workload)
        pred = self.base + self.learning_rate * self.forest.sum_values(x)
        clock = self.clock.power(r, g, pred[:n_comp])
        register = registers * np.maximum(pred[n_comp : 2 * n_comp], 0.0)
        comb = stable * np.maximum(pred[2 * n_comp : 3 * n_comp], 0.0)
        positions = self.sram.position_power(
            terms, pred[3 * n_comp :: 2], pred[3 * n_comp + 1 :: 2]
        )
        sram: dict[str, np.ndarray] = {}
        for comp, first, last in self.sram_spans:
            total = np.zeros(len(batch))
            for p in range(first, last):
                total = total + positions[p]
            sram[comp] = total
        return clock, register, comb, sram

    def totals(self, config: BoomConfig, batch: EventBatch, workload) -> np.ndarray:
        """Total power per row, accumulated in the per-group path's order."""
        clock, register, comb, sram = self.groups(config, batch, workload)
        total = np.zeros(len(batch))
        for c, name in enumerate(self.names):
            total += clock[c] + register[c] + comb[c]
            if name in sram:
                total += sram[name]
        return total


def _columns(entries: list[tuple], width: int) -> tuple[np.ndarray, ...]:
    """Split a list of index tuples into one ``intp`` array per field."""
    table = np.array(entries, dtype=np.intp).reshape(-1, width)
    return tuple(table[:, k] for k in range(width))
