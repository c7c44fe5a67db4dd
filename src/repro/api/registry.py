"""String-keyed method registry: one lookup path for every power model.

McPAT-Calib, FirePower and friends show calibration-method families keep
growing; the registry keeps that growth additive.  A method registers one
:class:`MethodSpec` (class + factory + metadata) under a canonical
kebab-case name; experiments, the CLI and the persistence layer resolve
methods exclusively through :func:`get_method` — no caller carries
per-method branches.

Lookup is case-insensitive and tolerant of ``_``/space vs ``-``;
historical display names (``"McPAT-Calib+Comp"``, ``"AutoPower-"``) are
registered as aliases so existing experiment call sites keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any

__all__ = [
    "MethodSpec",
    "create",
    "fit",
    "get_method",
    "list_methods",
    "method_names",
    "register",
    "spec_for",
]


@dataclass(frozen=True)
class MethodSpec:
    """Everything the façade needs to drive one method by name.

    ``cls`` must satisfy :class:`repro.api.protocol.PowerModel`;
    ``factory(library=..., n_jobs=..., **kwargs)`` builds an unfitted
    instance (methods ignore the arguments they have no use for).
    """

    name: str
    display_name: str
    cls: type
    factory: Callable[..., Any]
    description: str = ""
    aliases: tuple[str, ...] = ()
    supports_reports: bool = False
    metadata: dict = field(default_factory=dict)


_REGISTRY: dict[str, MethodSpec] = {}
_ALIASES: dict[str, str] = {}


def _normalize(name: str) -> str:
    return name.strip().lower().replace("_", "-").replace(" ", "-")


def register(spec: MethodSpec, replace: bool = False) -> MethodSpec:
    """Register a method spec under its canonical name and aliases.

    Validation happens before any mutation, so a rejected spec leaves
    the registry untouched.
    """
    key = _normalize(spec.name)
    if not replace and key in _REGISTRY:
        raise ValueError(f"method {spec.name!r} is already registered")
    alias_pairs = [
        (alias, alias_key)
        for alias in spec.aliases
        if (alias_key := _normalize(alias)) != key
    ]
    for alias, alias_key in alias_pairs:
        target = _ALIASES.get(alias_key)
        if alias_key in _REGISTRY or (target is not None and target != key):
            raise ValueError(f"alias {alias!r} collides with an existing method")
    stale = [a for a, target in _ALIASES.items() if target == key]
    for alias in stale:
        del _ALIASES[alias]
    _REGISTRY[key] = spec
    for _alias, alias_key in alias_pairs:
        _ALIASES[alias_key] = key
    return spec


def get_method(name: str) -> MethodSpec:
    """Resolve a method (or alias) name to its spec.

    Raises ``KeyError`` listing the registered names on a miss.
    """
    key = _normalize(name)
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown method {name!r}; registered methods: {known}"
        ) from None


def list_methods() -> list[MethodSpec]:
    """All registered method specs, sorted by canonical name."""
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def method_names() -> tuple[str, ...]:
    """The canonical names of all registered methods, sorted."""
    return tuple(sorted(_REGISTRY))


def spec_for(model: Any) -> MethodSpec:
    """The spec a model instance belongs to (exact class match first)."""
    for spec in _REGISTRY.values():
        if type(model) is spec.cls:
            return spec
    for spec in _REGISTRY.values():
        if isinstance(model, spec.cls):
            return spec
    raise KeyError(
        f"{type(model).__name__} is not a registered power-model class"
    )


def create(
    method: str,
    library: Any = None,
    n_jobs: int | None = None,
    **kwargs: Any,
) -> Any:
    """Build an unfitted model of the named method."""
    spec = get_method(method)
    return spec.factory(library=library, n_jobs=n_jobs, **kwargs)


def fit(
    method: str,
    flow: Any = None,
    train_configs: Any = None,
    workloads: Any = None,
    n_jobs: int | None = None,
    **kwargs: Any,
) -> Any:
    """Construct and fit one method by registry name.

    ``flow`` defaults to a fresh :class:`repro.vlsi.flow.VlsiFlow`;
    ``train_configs``/``workloads`` accept instances or names and default
    to the paper's 2-config split over all eight workloads.  ``n_jobs``
    sets the workers of the training flow runs of the methods that take
    it (AutoPower, AutoPower−); the others ignore it.  Sub-models always
    fit in the calling thread.
    """
    from repro.arch.config import config_by_name
    from repro.arch.workloads import WORKLOADS, workload_by_name
    from repro.vlsi.flow import VlsiFlow

    if flow is None:
        flow = VlsiFlow()
    if train_configs is None:
        train_configs = ["C1", "C15"]
    if workloads is None:
        workloads = WORKLOADS
    configs = [
        config_by_name(c) if isinstance(c, str) else c for c in train_configs
    ]
    workload_list = [
        workload_by_name(w) if isinstance(w, str) else w for w in workloads
    ]
    model = create(method, library=flow.library, n_jobs=n_jobs, **kwargs)
    return model.fit(flow, configs, workload_list)
