"""Feature extraction for AutoPower's sub-models.

Three feature families, matching the paper's inputs:

* **hardware features** ``H`` — the component's Table III parameters,
* **event features** ``E`` — per-cycle rates of the component's events
  (plus global IPC), from the performance simulator,
* **program features** — microarchitecture-independent properties of the
  workload (instruction mix, footprints, entropy).  The paper adds these
  to the SRAM activity model to compensate for performance-simulator
  inaccuracy.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from repro.arch.components import component_by_name
from repro.arch.config import BoomConfig
from repro.arch.events import COMPONENT_EVENTS, EventBatch, EventParams
from repro.arch.workloads import Workload

__all__ = [
    "ConfigRows",
    "FeatureBlock",
    "event_columns",
    "event_feature_names",
    "event_features",
    "event_features_batch",
    "feature_block",
    "feature_block_batch",
    "feature_rows",
    "hardware_feature_names",
    "hardware_features",
    "program_feature_names",
    "program_features",
    "program_features_matrix",
    "rows_by_config",
]

_PROGRAM_FEATURE_NAMES: tuple[str, ...] = (
    "prog_instructions",
    "prog_branches",
    "prog_loads",
    "prog_stores",
    "prog_fp_ops",
    "prog_mul_ops",
    "prog_branch_entropy",
    "prog_locality",
    "prog_icache_footprint",
    "prog_dcache_footprint",
    "prog_ilp",
)


def hardware_feature_names(component: str) -> tuple[str, ...]:
    """Names of the H features of one component (Table III order)."""
    return component_by_name(component).hardware_parameters


def hardware_features(config: BoomConfig, component: str) -> np.ndarray:
    """H feature vector of one component for one configuration."""
    return config.vector(hardware_feature_names(component))


def polynomial_hardware_feature_names(component: str) -> tuple[str, ...]:
    """Names for :func:`polynomial_hardware_features`."""
    params = hardware_feature_names(component)
    names = list(params)
    for i in range(len(params)):
        for j in range(i, len(params)):
            names.append(f"{params[i]}*{params[j]}")
    return tuple(names)


def polynomial_hardware_features(config: BoomConfig, component: str) -> np.ndarray:
    """H features expanded with degree-2 products (for the linear models).

    Real structures routinely scale with *products* of parameters (ports x
    entries, width x depth); a generic quadratic expansion lets the ridge
    sub-models represent them without any design-specific knowledge.
    """
    base = hardware_features(config, component)
    products = [
        base[i] * base[j]
        for i in range(base.size)
        for j in range(i, base.size)
    ]
    return np.concatenate([base, products])


@functools.cache
def event_columns(
    component: str, include_raw: bool = True, normalized: bool = True
) -> tuple[tuple[str, str | None], ...]:
    """Sources of one component's E features, in column order.

    Each column is ``(event, divisor)``: the event's per-cycle rate,
    divided by ``max(divisor parameter, 1)`` unless ``divisor`` is
    ``None``.  Raw rates come first, then every rate normalized by each
    of the component's hardware parameters, then global IPC (the
    per-cycle rate of ``instructions``).
    """
    event_names = COMPONENT_EVENTS[component]
    params = hardware_feature_names(component)
    columns: list[tuple[str, str | None]] = []
    if include_raw:
        columns.extend((n, None) for n in event_names)
    if normalized:
        columns.extend((n, p) for n in event_names for p in params)
    columns.append(("instructions", None))  # IPC
    return tuple(columns)


class FeatureBlock(NamedTuple):
    """Column sources of one component's GBM feature rows, in order:
    ``hardware`` parameter values, then the ``rates`` of
    :func:`event_columns`, then the ``program`` features."""

    hardware: tuple[str, ...]
    rates: tuple[tuple[str, str | None], ...]
    program: tuple[str, ...]


@functools.cache
def feature_block(
    component: str, include_raw: bool = True, program: bool = False
) -> FeatureBlock:
    """The :class:`FeatureBlock` of :func:`feature_block_batch`."""
    return FeatureBlock(
        hardware_feature_names(component),
        event_columns(component, include_raw),
        _PROGRAM_FEATURE_NAMES if program else (),
    )


def event_feature_names(
    component: str, include_raw: bool = True, normalized: bool = True
) -> tuple[str, ...]:
    """Names of the E features of one component.

    Raw per-cycle rates, the same rates normalized by each of the
    component's hardware parameters (utilization-style features — events
    per hardware lane/entry, which generalize across machine widths), and
    global IPC.
    """
    columns = event_columns(component, include_raw, normalized)
    names = [
        f"rate_{event}" if divisor is None else f"rate_{event}/{divisor}"
        for event, divisor in columns[:-1]
    ]
    names.append("ipc")
    return tuple(names)


def event_features(
    events: EventParams,
    component: str,
    config: BoomConfig | None = None,
    include_raw: bool = True,
) -> np.ndarray:
    """E feature vector: raw rates, per-parameter-normalized rates, IPC.

    When ``config`` is omitted only the raw rates and IPC are emitted
    (no parameter values to normalize by).  ``include_raw=False`` keeps
    only the scale-free normalized rates — the right diet for sub-models
    whose targets are rates rather than absolute power.
    """
    if config is None and not include_raw:
        raise ValueError("normalized-only features require a config")
    columns = event_columns(component, include_raw or config is None, config is not None)
    values: list[float] = []
    for event, divisor in columns:
        rate = events.rate(event)
        values.append(rate if divisor is None else rate / max(float(config[divisor]), 1.0))
    return np.array(values, dtype=float)


def event_features_batch(
    events: EventBatch,
    component: str,
    config: BoomConfig | None = None,
    include_raw: bool = True,
) -> np.ndarray:
    """Batched :func:`event_features`: one row per interval.

    Column order (and the per-element arithmetic) matches the scalar
    extractor exactly, so batch predictions reproduce per-interval
    predictions bit for bit.
    """
    if config is None and not include_raw:
        raise ValueError("normalized-only features require a config")
    columns = event_columns(component, include_raw or config is None, config is not None)
    cycles = events.cycles
    rates: dict[str, np.ndarray] = {}
    out: list[np.ndarray] = []
    for event, divisor in columns:
        if event not in rates:
            rates[event] = events.column(event) / cycles
        rate = rates[event]
        out.append(rate if divisor is None else rate / max(float(config[divisor]), 1.0))
    return np.column_stack(out)


def feature_block_batch(
    config: BoomConfig,
    events: EventBatch,
    component: str,
    include_raw: bool = True,
    workload=None,
) -> np.ndarray:
    """One component's GBM feature rows, laid out as :func:`feature_block`.

    The hardware parameters repeat on every row; program features are
    appended when a ``workload`` (one, or one per row) is given.
    """
    block = feature_block(component, include_raw, workload is not None)
    parts = [
        np.tile(config.vector(block.hardware), (len(events), 1)),
        event_features_batch(events, component, config, include_raw),
    ]
    if block.program:
        parts.append(program_features_matrix(workload, len(events)))
    return np.hstack(parts)


class ConfigRows(NamedTuple):
    """The flow results of one configuration, as :func:`feature_block_batch`
    input: their positions in the result list, the configuration, their
    events as one batch, and their workloads."""

    indices: list[int]
    config: BoomConfig
    events: EventBatch
    workloads: list


def rows_by_config(results: list) -> list[ConfigRows]:
    """Flow results grouped by configuration, in order of first appearance."""
    by_config: dict[str, list[int]] = {}
    for i, res in enumerate(results):
        by_config.setdefault(res.config.name, []).append(i)
    return [
        ConfigRows(
            indices,
            results[indices[0]].config,
            EventBatch.from_events([results[i].events for i in indices]),
            [results[i].workload for i in indices],
        )
        for indices in by_config.values()
    ]


def feature_rows(
    groups: list[ConfigRows],
    component: str,
    include_raw: bool = True,
    program: bool = False,
) -> np.ndarray:
    """:func:`feature_block_batch` rows of grouped flow results.

    One call per configuration (the builder inference uses, so fit and
    predict see identical features); rows come back in the order of the
    result list the groups came from.
    """
    blocks = [
        feature_block_batch(
            g.config,
            g.events,
            component,
            include_raw,
            workload=g.workloads if program else None,
        )
        for g in groups
    ]
    out = np.empty((sum(len(g.indices) for g in groups), blocks[0].shape[1]))
    for g, block in zip(groups, blocks):
        out[g.indices] = block
    return out


def program_feature_names() -> tuple[str, ...]:
    return _PROGRAM_FEATURE_NAMES


def program_features(workload: Workload) -> np.ndarray:
    """Program-level feature vector (immune to perf-simulator error)."""
    feats = workload.program_features()
    return np.array([feats[n] for n in _PROGRAM_FEATURE_NAMES], dtype=float)


def program_features_matrix(workload, n_rows: int) -> np.ndarray:
    """Program features for a batch: one workload (tiled) or one per row."""
    if isinstance(workload, Workload):
        return np.tile(program_features(workload), (n_rows, 1))
    workloads = list(workload)
    if len(workloads) != n_rows:
        raise ValueError(
            f"got {len(workloads)} workloads for a batch of {n_rows} intervals"
        )
    return np.stack([program_features(w) for w in workloads])
