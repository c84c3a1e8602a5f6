"""JSON serialization of process matrices and reproducible run reports.

A process document stores the four factor dimensions and the matrix as a
row-major 2-D array of [re, im] pairs; numbers round-trip exactly through
Python's shortest-repr float serialization.  Run reports echo the command,
digest the inputs and carry all numeric results so that identical commands
with identical seeds reproduce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .process import ProcessMatrix, SystemLayout

_LAYOUT_KEYS = ("d_a1", "d_a2", "d_b1", "d_b2")


class ProcessDocumentError(ValueError):
    """Malformed, truncated or inconsistent process document."""


def encode_process(w: ProcessMatrix, metadata: dict[str, Any] | None = None) -> str:
    """Serialize a process matrix to JSON text."""
    payload: dict[str, Any] = {
        "layout": {k: int(v) for k, v in zip(_LAYOUT_KEYS, w.layout.dims)},
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in w.matrix],
    }
    if metadata:
        payload["metadata"] = metadata
    return json.dumps(payload, indent=None, separators=(",", ":"))


def decode_process(text: str) -> tuple[ProcessMatrix, dict[str, Any]]:
    """Parse a process document, returning the matrix and its metadata.

    Raises :class:`ProcessDocumentError` naming the character offset for
    malformed JSON, and for dimension or Hermiticity violations.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ProcessDocumentError(f"invalid JSON at offset {err.pos}: {err.msg}") from err
    if not isinstance(payload, dict):
        raise ProcessDocumentError("document must be a JSON object")

    layout_raw = payload.get("layout")
    if not isinstance(layout_raw, dict) or not set(_LAYOUT_KEYS) <= set(layout_raw):
        raise ProcessDocumentError(f"layout must carry keys {_LAYOUT_KEYS}")
    try:
        layout = SystemLayout(*(layout_raw[k] for k in _LAYOUT_KEYS))
    except ValueError as err:
        raise ProcessDocumentError(f"bad layout: {err}") from err

    matrix = _pair_matrix(payload.get("matrix"), "matrix")
    if len(matrix) != layout.d_total:
        raise ProcessDocumentError(
            f"matrix side {len(matrix)} does not match layout total dimension {layout.d_total}"
        )
    try:
        process = ProcessMatrix(layout, matrix)
    except ValueError as err:
        raise ProcessDocumentError(str(err)) from err
    metadata = {} if payload.get("metadata") is None else payload["metadata"]
    if not isinstance(metadata, dict):
        raise ProcessDocumentError("metadata must be an object")
    return process, metadata


def _pair_matrix(raw: Any, name: str) -> np.ndarray:
    """The complex square matrix held by a JSON array of [re, im] pairs."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:  # OverflowError: an integer beyond float range
        raise ProcessDocumentError(f"bad {name} payload: {err}") from err
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ProcessDocumentError(f"{name} must be an (n, n, 2) array of [re, im] pairs, got shape {arr.shape}")
    if not {type(x) for row in raw for pair in row for x in pair} <= {int, float}:  # numpy converts "1" and true
        raise ProcessDocumentError(f"{name} entries must be JSON numbers")
    return arr[..., 0] + 1j * arr[..., 1]


def digest_text(text: str) -> str:
    """Short stable digest used to fingerprint inputs in run reports."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunReport:
    """Reproducible record of one command invocation."""

    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)
    status: str = "ok"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"status: {self.status}"]
        for name, value in self.inputs.items():
            lines.append(f"input {name}: {value}")
        for name, value in self.tolerances.items():
            lines.append(f"tolerance {name}: {value:g}")
        for name, value in self.results.items():
            lines.append(f"{name}: {_format_value(value)}")
        return "\n".join(lines)


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return str(value)
