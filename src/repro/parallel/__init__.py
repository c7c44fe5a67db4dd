"""Deterministic parallel execution for flow runs and sweeps."""

from repro.parallel.executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    cpu_count,
    get_default_jobs,
    get_executor,
    parse_jobs_spec,
    resolve_jobs,
    set_default_jobs,
)

__all__ = [
    "BACKENDS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "cpu_count",
    "get_default_jobs",
    "get_executor",
    "parse_jobs_spec",
    "resolve_jobs",
    "set_default_jobs",
]
