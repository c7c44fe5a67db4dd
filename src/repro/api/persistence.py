"""Versioned, method-agnostic model persistence (format v2).

A fitted model is the paper's hand-off artifact: the flow-side team
trains once against the slow, licensed EDA flow and ships a JSON file to
architects who only have a performance simulator.  Format v2 wraps *any*
registered method's :meth:`to_state` payload in a small envelope::

    {"format_version": 2, "method": "<registry name>",
     "library": "<tech library name or null>", "state": {...}}

so one ``load_model`` call reconstructs whichever method wrote the file.
The envelope carries the technology library by *name* only — the library
is part of the flow, not of the learned state — and loading validates it
against the caller's library for the methods that depend on one.  Any
other ``format_version`` is rejected.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.api.registry import get_method, spec_for

__all__ = [
    "FORMAT_VERSION",
    "load_model",
    "model_from_envelope",
    "model_to_envelope",
    "save_model",
]

FORMAT_VERSION = 2


def model_to_envelope(model: Any) -> dict:
    """The format-v2 envelope dict for any registered fitted model.

    This is the in-memory half of :func:`save_model` — the serving
    gateway ships envelopes over the wire (``PUT /models/<name>``)
    without touching the filesystem.
    """
    spec = spec_for(model)
    library = getattr(model, "library", None)
    return {
        "format_version": FORMAT_VERSION,
        "method": spec.name,
        "library": getattr(library, "name", None),
        "state": model.to_state(),
    }


def save_model(model: Any, path: str | Path) -> None:
    """Serialize any registered method's fitted model to a JSON file."""
    Path(path).write_text(json.dumps(model_to_envelope(model)))


def model_from_envelope(envelope: Any, library: Any = None) -> Any:
    """Reconstruct a fitted model from an envelope dict.

    The in-memory half of :func:`load_model`.  ``library`` is resolved by
    name for methods that carry one.
    """
    if not isinstance(envelope, dict):
        raise ValueError(
            f"model envelope must be a JSON object, got {type(envelope).__name__}"
        )
    version = envelope.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {version!r}")
    spec = get_method(envelope["method"])
    library_name = envelope.get("library")
    if library_name is not None:
        if library is None:
            from repro.library.stdcell import default_library

            library = default_library()
        if library.name != library_name:
            raise ValueError(
                f"model was trained against library {library_name!r}, "
                f"got {library.name!r}"
            )
    return spec.cls.from_state(envelope["state"], library=library)


def load_model(path: str | Path, library: Any = None) -> Any:
    """Load a fitted model saved by :func:`save_model`.

    ``library`` is resolved by name for methods that carry one (pass it
    explicitly when using a non-default technology library).
    """
    return model_from_envelope(json.loads(Path(path).read_text()), library=library)
