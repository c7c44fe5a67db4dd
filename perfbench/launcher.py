"""Start the prediction server with the benchmark's span recorder installed.

Usage::

    python perfbench/launcher.py SPANS_OUT [python -m repro serve arguments...]

Wraps each layer's public functions (``perfbench.layers.install``), then
runs ``repro.cli`` ``serve`` in this process.  When the server drains
and returns, the spans are written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import layers, spans  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    out, serve_args = argv[0], argv[1:]
    recorder = spans.SpanRecorder()
    layers.install(recorder)
    from repro import cli

    try:
        return cli.main(["serve", *serve_args])
    finally:
        recorder.uninstall()
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
