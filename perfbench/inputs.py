"""Seeded inputs: training sets, HTTP requests and DSE grids.

Everything the program receives is generated here from the ``--seed``
argument; the same seed gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator

from repro.arch.config import BOOM_CONFIGS
from repro.arch.events import EVENT_NAMES
from repro.arch.workloads import WORKLOADS

CONFIG_NAMES = tuple(c.name for c in BOOM_CONFIGS)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

# Fit: two 2-config sets (Fig. 4 budget) per 3-config set (Fig. 5 budget).
FIT_SET_SIZES = (2, 2, 3)

# Serve: request-kind mix, dealt in shuffled blocks of 20 so every run
# sees the same proportions (17 total, 2 report, 1 trace per block).
KIND_BLOCK = ("total",) * 17 + ("report",) * 2 + ("trace",)
EVENT_JITTER = 0.05  # each event count scaled by 1 + U(-J, J); cycles kept
TRACE_SCALES = 200
TRACE_SCALE_RANGE = (0.5, 1.5)

# DSE: grids around C8 over four raw Table II axes (3 x 2 x 2 x 2 points),
# each over all eight workloads.
DSE_BASE = "C8"
DSE_AXIS_VALUES = {
    "RobEntry": (64, 80, 96, 112, 128),
    "FetchBufferEntry": (16, 20, 24, 28, 32),
    "IntPhyRegister": (80, 96, 110, 128),
    "FpPhyRegister": (64, 80, 96, 112),
    "LDQ/STQEntry": (16, 20, 24, 28, 32),
    "BranchCount": (12, 14, 16, 18, 20),
    "DTLBEntry": (8, 12, 16, 32),
    "MSHREntry": (2, 4, 6, 8),
}
DSE_AXIS_SIZES = (3, 2, 2, 2)
SERVED_TRAIN = ("C1", "C15")  # the model the servers hold and DSE model passes fit


def _rng(seed: int, stream: str) -> random.Random:
    # str seeds hash through SHA-512: stable across processes and runs.
    return random.Random(f"{stream}:{seed}")


def training_sets(seed: int) -> Iterator[tuple[str, ...]]:
    """An endless stream of training sets drawn from C1-C15.

    Each set size deals from a shuffled deck of all its sets, in config
    order; an empty deck is reshuffled.  So no set repeats until every
    set of its size has been used, and the stream never runs dry.
    """
    rng = _rng(seed, "fit")
    decks: dict[int, list[tuple[str, ...]]] = {}
    for index in itertools.count():
        size = FIT_SET_SIZES[index % len(FIT_SET_SIZES)]
        if not decks.get(size):
            decks[size] = list(itertools.combinations(CONFIG_NAMES, size))
            rng.shuffle(decks[size])
        yield decks[size].pop()


def request_key(obj: dict) -> str:
    """Identity of one request object, the same on client and server.

    Jittered event counts make it unique within a run.
    """
    return f"{obj['config']}|{obj.get('workload')}|{obj.get('kind', 'total')}|" + repr(
        obj["events"]["instructions"]
    )


def requests(
    seed: int, events: dict[tuple[str, str], dict[str, float]], stream: str = "serve"
) -> Iterator[dict]:
    """An endless stream of wire-format prediction requests.

    ``events`` maps (config, workload) names to the performance
    simulator's event counts; every request jitters them, so no two
    requests carry the same input.  Kinds are dealt from shuffled
    ``KIND_BLOCK`` blocks and (config, workload) pairs from shuffled
    blocks of all 15 x 8 pairs, so every run sees the same mix.
    ``stream`` names an independent stream (the warm-up uses its own).
    """
    rng = _rng(seed, stream)
    kinds: list[str] = []
    pairs: list[tuple[str, str]] = []
    while True:
        if not kinds:
            kinds = list(KIND_BLOCK)
            rng.shuffle(kinds)
        if not pairs:
            pairs = [(c, w) for c in CONFIG_NAMES for w in WORKLOAD_NAMES]
            rng.shuffle(pairs)
        kind = kinds.pop()
        config, workload = pairs.pop()
        base = events[(config, workload)]
        counts = {
            name: (
                base[name]
                if name == "cycles"
                else base[name] * (1.0 + rng.uniform(-EVENT_JITTER, EVENT_JITTER))
            )
            for name in EVENT_NAMES
        }
        obj = {"config": config, "workload": workload, "kind": kind, "events": counts}
        if kind == "trace":
            obj["scales"] = [rng.uniform(*TRACE_SCALE_RANGE) for _ in range(TRACE_SCALES)]
            obj["window_cycles"] = 50
        yield obj


def arrival_gaps(seed: int, rate_per_s: float) -> Iterator[float]:
    """Poisson inter-arrival gaps (seconds) for the open-loop phase."""
    rng = _rng(seed, "arrivals")
    while True:
        yield rng.expovariate(rate_per_s)


def dse_spec(seed: int, rep: int, method: str = "golden") -> dict:
    """The ``POST /dse`` body of one repetition's grid."""
    rng = _rng(seed, f"dse-{rep}")
    rows = rng.sample(sorted(DSE_AXIS_VALUES), len(DSE_AXIS_SIZES))
    axes = {
        row: sorted(rng.sample(DSE_AXIS_VALUES[row], size))
        for row, size in zip(rows, DSE_AXIS_SIZES)
    }
    spec = {"base": DSE_BASE, "axes": axes, "workloads": list(WORKLOAD_NAMES), "jobs": 1,
            "method": method}
    if method != "golden":
        spec["train"] = list(SERVED_TRAIN)
    return spec
