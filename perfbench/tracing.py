"""Span tracing of procmat's public functions, from outside the library.

The tracer replaces each traced function at every module binding inside
``procmat`` (including names other modules bind with ``from .x import y``)
by a wrapper that records one span: name, start, end, parent span and
whether the call raised.  Spans stay in memory and are written out once,
at the end of a run.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Layer functions wrapped in a traced run, as "<module>.<function>" under
# the procmat package.  A name the library no longer defines is skipped and
# reported with zero calls.
TRACED = (
    "tensor.hermitian_eig",
    "tensor.hs_decompose",
    "tensor.hs_reconstruct",
    "process.validate_process",
    "process.random_process",
    "effective.luders_input_dephase",
    "effective.indistinguishability_residual",
    "instruments.born_probability",
    "instruments.probability_table",
    "separability.kappa_split",
    "separability.eigenstructure",
    "separability.constructive_decomposition",
    "separability.verify_decomposition",
    "separability.dykstra_separability",
    "games.enumerate_strategies",
    "io.decode_process",
    "io.encode_process",
)

DYKSTRA = "separability.dykstra_separability"

# Span fields, kept as lists for cheap in-place completion.
NAME, START, END, PARENT, FAILED, SWEEPS, CERTIFIED = range(7)


class Tracer:
    """Records spans of the traced procmat functions in one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}

    def open_span(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, False, 0, False])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close_span(self, index: int, failed: bool = False) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[FAILED] = failed

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded in a child process under the open span."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for span in spans:
            span[PARENT] = span[PARENT] + offset if span[PARENT] >= 0 else parent
            self.spans.append(span)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open_span(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close_span(index, failed=True)
                raise
            if name == DYKSTRA:
                tracer.spans[index][SWEEPS] = int(result.iterations)
                tracer.spans[index][CERTIFIED] = result.decomposition is not None
            tracer.close_span(index)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each of its procmat bindings."""
        import procmat  # noqa: F401  (loads the library modules)

        for name in TRACED:
            module_name, attr = name.split(".")
            module = sys.modules.get(f"procmat.{module_name}")
            original = self._originals.get(name) or getattr(module, attr, None)
            if original is None:
                continue
            self._originals[name] = original
            wrapper = self._wrappers.setdefault(name, self._wrap(name, original))
            _rebind(original, wrapper)

    def uninstall(self) -> None:
        for name, wrapper in self._wrappers.items():
            _rebind(wrapper, self._originals[name])

    def dump(self, path: str) -> None:
        """Write the spans as JSON rows [name, start, end, parent, failed, sweeps, certified]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _rebind(old, new) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "procmat" or module_name.startswith("procmat.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, failed calls and their seconds, sweeps."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals: dict[str, dict[str, float]] = {}
    for span, covered in zip(spans, child_time):
        duration = span[END] - span[START]
        entry = totals.setdefault(span[NAME], {
            "calls": 0, "self_s": 0.0, "failed_calls": 0, "failed_s": 0.0,
            "sweeps": 0, "uncertified_sweeps": 0,
        })
        entry["calls"] += 1
        entry["self_s"] += duration - covered
        if span[FAILED]:
            entry["failed_calls"] += 1
            entry["failed_s"] += duration
        entry["sweeps"] += span[SWEEPS]
        if not span[CERTIFIED]:
            entry["uncertified_sweeps"] += span[SWEEPS]
    return totals
