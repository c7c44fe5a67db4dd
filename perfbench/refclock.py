"""Host-speed reference: a fixed computation timed beside each measured operation.

On the reference host, a 2-vCPU VM, the CPU's speed swings by 20-40%
over tens of seconds while steal time reads under 1%: one fixed fit took
from 312 to 405 ms in 25-second windows of a single run, and a fixed
six-config flow run from 136 to 221 ms.  Process CPU time swings with
it, and no run length averages it out.  So the bounded end-to-end times
are given in reference milliseconds: each measured time is divided by
the time this fixed computation takes on the same CPU right beside it,
times ``REF_MS``.  Over the same windows the fit's and the flow's times
in reference milliseconds stayed within about ±3% and ±9%.

The reference mixes the three kinds of work the program does: BLAS and
sorting (the fit's tree building), numpy ``Generator`` set-up (the
flow's ``sim.distort``) and plain Python (the serving path).  Each part
alone tracked one workload well and another badly.  It uses nothing
from the program, so a change to the program moves a time in reference
milliseconds exactly as it moves the time in milliseconds.  The readable
report prints the wall-clock figures too.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

REF_MS = 10.0  # one run of the reference is 10 reference milliseconds, by definition

_spent_cpu_s = 0.0  # process CPU time the reference has used in this process

_rng = np.random.default_rng(20_240_601)
_MATRIX = _rng.random((128, 128))
_KEYS = _rng.random(20_000)


def _kernel() -> None:
    """About 5 ms of each kind of work on the reference host."""
    for _ in range(8):
        _ = _MATRIX @ _MATRIX
        np.argsort(_KEYS)
    for i in range(200):
        np.random.default_rng([i, 7]).normal(size=64)
    total = 0
    table: dict[int, int] = {}
    for i in range(16_000):
        total += i * i
        table[i % 997] = table.get(i % 997, 0) + i


def reference_s(cpu: int | None = None, reps: int = 1) -> float:
    """Median seconds of ``reps`` runs of the reference, on ``cpu`` if given.

    The calling thread moves to ``cpu`` for the runs and back afterwards.
    """
    global _spent_cpu_s
    cpu0 = time.process_time()
    previous = None
    if cpu is not None:
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
    try:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if previous is not None:
            os.sched_setaffinity(0, previous)
        _spent_cpu_s += time.process_time() - cpu0
    return statistics.median(times)


def process_time() -> float:
    """This process's CPU seconds, less those the reference used: the
    load generator's own CPU time."""
    return time.process_time() - _spent_cpu_s


def smooth(refs: list[float], half: int) -> list[float]:
    """Each reference time replaced by the median of it and its ``half``
    neighbours on each side: the host's swings last seconds, one reference
    run's own jitter does not."""
    return [
        statistics.median(refs[max(0, i - half) : i + half + 1]) for i in range(len(refs))
    ]


def ref_ms(seconds: float, reference: float) -> float:
    """``seconds`` of wall time in reference milliseconds, given the reference's seconds."""
    return seconds / reference * REF_MS
