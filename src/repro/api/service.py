"""Batched prediction serving on top of the fast engine.

One model pass over an :class:`~repro.arch.events.EventBatch` is far
cheaper than the equivalent loop of scalar calls; this module is the
request/response layer that exploits it.  :class:`PredictionService`
accepts individual :class:`PredictRequest` objects (one simulation
interval each), coalesces them per configuration into event batches,
runs one batched model call per configuration, and scatters the results
back into per-request :class:`PredictResponse` objects — bitwise-equal
to what the request-at-a-time loop would have produced, at a fraction of
the cost.

Request kinds:

* ``"total"`` — total power (mW); every method supports it,
* ``"report"`` — per-component power-group report; methods with
  ``predict_report`` / ``predict_reports`` only,
* ``"trace"`` — per-window power trace from activity scales; methods
  with ``predict_trace`` only (AutoPower).

:meth:`PredictionService.stream` is the incremental variant: it consumes
any request iterable lazily and yields responses in request order with
bounded buffering.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.arch.config import BoomConfig, config_by_name
from repro.arch.events import EventBatch, EventParams
from repro.arch.workloads import Workload, workload_by_name

__all__ = ["PredictRequest", "PredictResponse", "PredictionService", "ServiceStats"]

_KINDS = ("total", "report", "trace")


@dataclass(frozen=True, eq=False)
class PredictRequest:
    """One prediction request: a (config, interval[, workload]) triple.

    ``config`` and ``workload`` accept instances or names (names resolve
    at construction).  ``kind`` selects the response payload; ``scales``
    and ``window_cycles`` apply to ``kind="trace"`` only.
    ``deadline_ms`` is an optional latency budget the *serving* layer
    enforces (:mod:`repro.serving`): an expired request is shed with 504
    before reaching the model; the service itself ignores it.  Identity
    semantics (``eq=False``): the event/scale payloads are arrays, so
    requests compare and hash by object identity.
    """

    config: BoomConfig
    events: EventParams
    workload: Workload | None = None
    kind: str = "total"
    scales: Any = None
    window_cycles: int = 50
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.config, str):
            object.__setattr__(self, "config", config_by_name(self.config))
        if isinstance(self.workload, str):
            object.__setattr__(self, "workload", workload_by_name(self.workload))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}; expected {_KINDS}")
        if self.kind == "trace":
            if self.scales is None:
                raise ValueError("trace requests need activity scales")
            scales = np.asarray(self.scales, dtype=float)
            if scales.size == 0:
                raise ValueError(
                    "trace requests need at least one activity scale"
                )
            if not np.all(np.isfinite(scales)) or np.any(scales <= 0):
                raise ValueError("activity scales must be positive and finite")
            object.__setattr__(self, "scales", scales)
            if self.window_cycles <= 0:
                raise ValueError(
                    f"window_cycles must be positive, got {self.window_cycles!r}"
                )
        elif self.scales is not None:
            raise ValueError("scales are only valid for trace requests")
        if self.deadline_ms is not None:
            deadline_ms = self.deadline_ms
            if (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or not np.isfinite(deadline_ms)
                or deadline_ms <= 0
            ):
                raise ValueError(
                    f"deadline_ms must be a positive finite number, "
                    f"got {self.deadline_ms!r}"
                )


@dataclass(frozen=True, eq=False)
class PredictResponse:
    """The result of one request (payload field matches ``kind``).

    Identity semantics (``eq=False``): ``trace`` payloads are arrays.
    """

    config_name: str
    workload_name: str | None
    kind: str
    total: float | None = None
    report: Any = None
    trace: np.ndarray | None = None


@dataclass
class ServiceStats:
    """Serving counters (observability for the batching layer)."""

    requests: int = 0
    responses: int = 0
    model_calls: int = 0
    batched_intervals: int = 0

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "responses": self.responses,
            "model_calls": self.model_calls,
            "batched_intervals": self.batched_intervals,
        }

    # PredictionService.stats_snapshot is the torn-read-free variant for
    # readers on another thread than the submitter (e.g. /stats).


def _workload_arg(workloads: list) -> Any:
    """Collapse a per-row workload list to what the batch APIs expect."""
    if all(w is None for w in workloads):
        return None
    if any(w is None for w in workloads):
        raise ValueError(
            "cannot mix workload-carrying and workload-free requests "
            "for one configuration"
        )
    return workloads


class PredictionService:
    """Micro-batching request/response front end for one fitted model.

    Parameters
    ----------
    model:
        Any fitted :class:`repro.api.protocol.PowerModel`.

    Thread safety: :meth:`submit_many` may be called concurrently from
    multiple threads (the async gateway offloads submissions to a worker
    thread while the event loop keeps accepting).  Model predictions are
    read-only, every submission is validated before any model call runs
    (a rejected submission does no work and leaves ``stats`` untouched),
    and the stats counters are applied once per completed submission
    under a lock.
    """

    def __init__(self, model: Any) -> None:
        self.model = model
        self.stats = ServiceStats()  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()

    def stats_snapshot(self) -> dict:
        """The :class:`ServiceStats` snapshot, taken under the stats lock
        so a concurrent submission can't be observed half-applied."""
        with self._stats_lock:
            return self.stats.snapshot()

    # ------------------------------------------------------------------
    def predict(self, request: PredictRequest) -> PredictResponse:
        """Serve one request (sugar over :meth:`submit_many`)."""
        return self.submit_many([request])[0]

    def predict_total(
        self, config: Any, events: EventParams, workload: Any = None
    ) -> float:
        """Scalar convenience: total power (mW) for one interval."""
        return self.predict(
            PredictRequest(config=config, events=events, workload=workload)
        ).total

    # ------------------------------------------------------------------
    def submit_many(
        self, requests: Sequence[PredictRequest]
    ) -> list[PredictResponse]:
        """Serve a batch of requests; responses come back in order.

        ``total`` requests sharing a configuration coalesce into one
        :class:`EventBatch` ``predict_totals`` call; ``report`` requests
        batch through ``predict_reports`` per configuration; ``trace``
        requests run one batched anchor sweep each.
        """
        requests = list(requests)
        self._validate(requests)
        model_calls = 0
        batched_intervals = 0
        responses: list[PredictResponse | None] = [None] * len(requests)

        # -- totals: one batched call per config ----------------------------
        for part in self._config_groups(requests, "total"):
            totals = self.model.predict_totals(
                requests[part[0]].config,
                EventBatch.from_events([requests[i].events for i in part]),
                _workload_arg([requests[i].workload for i in part]),
            )
            model_calls += 1
            batched_intervals += len(part)
            for i, value in zip(part, np.asarray(totals, dtype=float)):
                responses[i] = self._response(requests[i], total=float(value))

        # -- reports: batch per config where the model supports it -------
        for part in self._config_groups(requests, "report"):
            reports, n_calls = self._predict_reports(part, requests)
            model_calls += n_calls
            batched_intervals += len(part)
            for i, report in zip(part, reports):
                responses[i] = self._response(
                    requests[i], total=float(report.total), report=report
                )

        # -- traces: one batched anchor sweep per request ----------------
        for i, req in enumerate(requests):
            if req.kind != "trace":
                continue
            trace = self.model.predict_trace(
                req.config,
                req.events,
                req.workload,
                req.scales,
                window_cycles=req.window_cycles,
            )
            model_calls += 1
            batched_intervals += 1
            responses[i] = self._response(requests[i], trace=trace)

        # Counters are applied once per submission, after every model call
        # succeeded, under a lock: a failing submission leaves the stats
        # untouched, and concurrent submit_many callers (the async gateway
        # offloads submissions to executor threads) can't interleave the
        # read-modify-write increments.
        with self._stats_lock:
            self.stats.requests += len(requests)
            self.stats.responses += len(responses)
            self.stats.model_calls += model_calls
            self.stats.batched_intervals += batched_intervals
        return responses  # every kind above filled its slots

    # ------------------------------------------------------------------
    def _validate(self, requests: list[PredictRequest]) -> None:
        """Reject unservable submissions before any model work runs, so a
        bad request can't discard completed results or skew the stats."""
        for req in requests:
            if not isinstance(req, PredictRequest):
                raise TypeError(f"expected PredictRequest, got {type(req).__name__}")
            if req.kind == "report" and not (
                callable(getattr(self.model, "predict_reports", None))
                or callable(getattr(self.model, "predict_report", None))
            ):
                raise TypeError(
                    f"{type(self.model).__name__} does not support report requests"
                )
            if req.kind == "trace" and not callable(
                getattr(self.model, "predict_trace", None)
            ):
                raise TypeError(
                    f"{type(self.model).__name__} does not support trace requests"
                )
        # Workload mixing is a per-call property: every coalesced model
        # call needs either all-workload or no-workload rows.  Checking
        # the groups the execution phases will use fires *before* any
        # model call.
        for part in self._config_groups(requests, "total"):
            _workload_arg([requests[i].workload for i in part])
        if callable(getattr(self.model, "predict_reports", None)):
            for part in self._config_groups(requests, "report"):
                _workload_arg([requests[i].workload for i in part])

    @staticmethod
    def _config_groups(requests: list[PredictRequest], kind: str) -> list[list[int]]:
        """Request indices of one kind, grouped per configuration — the
        coalescing unit of one model call (every batch API takes one
        configuration)."""
        groups: dict[str, list[int]] = {}
        for i, req in enumerate(requests):
            if req.kind == kind:
                groups.setdefault(req.config.name, []).append(i)
        return list(groups.values())

    @staticmethod
    def _response(req: PredictRequest, **payload) -> PredictResponse:
        return PredictResponse(
            config_name=req.config.name,
            workload_name=getattr(req.workload, "name", None),
            kind=req.kind,
            **payload,
        )

    def _predict_reports(self, part: list[int], requests: list[PredictRequest]):
        """Reports for one same-config group: (reports, model calls made)."""
        config = requests[part[0]].config
        predict_reports = getattr(self.model, "predict_reports", None)
        if predict_reports is not None:
            batch = EventBatch.from_events([requests[i].events for i in part])
            workload = _workload_arg([requests[i].workload for i in part])
            return predict_reports(config, batch, workload), 1
        # _validate guaranteed the scalar fallback exists.
        reports = [
            self.model.predict_report(config, requests[i].events, requests[i].workload)
            for i in part
        ]
        return reports, len(part)

    # ------------------------------------------------------------------
    def stream(
        self, requests: Iterable[PredictRequest], chunk_size: int = 64
    ) -> Iterator[PredictResponse]:
        """Serve a request iterable incrementally, in request order.

        Buffers up to ``chunk_size`` requests, serves each buffer through
        :meth:`submit_many` (so per-config coalescing still applies
        within a buffer), and yields responses as each buffer completes —
        the shape a long-running caller (or an async gateway) consumes.

        Error semantics: each buffer is validated and served
        independently.  A bad request surfaces as an exception at the
        failing buffer's yield point — responses for earlier buffers have
        already been yielded and stay valid, the failing buffer runs no
        model work and contributes nothing to ``stats``, and requests in
        later buffers are never consumed from the iterable.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        buffer: list[PredictRequest] = []
        for request in requests:
            buffer.append(request)
            if len(buffer) >= chunk_size:
                yield from self.submit_many(buffer)
                buffer = []
        if buffer:
            yield from self.submit_many(buffer)
