"""End-to-end benchmark of the three user paths: few-shot fit, HTTP predict, DSE sweep.

Run ``python3 perfbench/run.py --workload fit|serve|dse|all --seed N``
from the repository root; ``perfbench/README.md`` documents the
workloads, the metrics and the layer map.
"""
