"""Spans around the calls the CLI makes into each strtherm module.

The traced process replaces module attributes with timing wrappers, so
nothing under ``src/`` changes.  Spans stay in memory and are written
out when the process ends.  A function that no longer exists is listed
as absent and its layer then reports zero work.
"""

from __future__ import annotations

import importlib
import json
import resource
import time

ROOT_SPAN = "cli.main"

# layer -> the functions whose spans it owns; cli.self is the rest of cli.main
LAYERS = {
    "bitstring": ("bitstring.from_bytes", "bitstring.truncate"),
    "ensemble.build": ("ensemble.build_self_ensemble", "ensemble.build_pair_ensemble"),
    "ensemble.histogram": ("ensemble.histogram", "ensemble.histogram_to_csv"),
    "equilibrium.fit": ("equilibrium.fit",),
    "equilibrium.curve": ("equilibrium.model_curve", "equilibrium.curve_to_csv"),
    "thermo.report": ("thermo.build_report", "thermo.report_to_dict", "thermo.report_to_csv"),
    "cli.render": ("cli._analysis_json", "cli._analysis_human",
                   "cli._summary_csv", "cli._summary_human"),
    "cli.emit": ("cli._write_artifacts",),
}


def _counts(name: str, result) -> dict:
    """Work counts read off a wrapped call's result at the layer boundary."""
    if name.startswith("ensemble.build_"):
        return {"n_obs": getattr(result, "n_obs", 0),
                "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if name == "ensemble.histogram":
        return {"distinct": len(getattr(result, "entries", ()))}
    if name == "bitstring.from_bytes":
        return {"bits": getattr(result, "nbits", 0)}
    if name == "equilibrium.model_curve":
        return {"points": len(result)}
    return {}


class Tracer:
    """Records [name, start, end, parent, request id, counts] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.request_id = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.request_id, {}]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        span[5] = _counts(name, result)
        return result

    def install(self) -> None:
        """Wrap every traced function of the imported strtherm modules."""
        for layer_functions in LAYERS.values():
            for name in layer_functions:
                module_name, attr = name.split(".")
                try:
                    module = importlib.import_module(f"strtherm.{module_name}")
                except ImportError:
                    self.absent.append(name)
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.append(name)
                    continue
                setattr(module, attr, self._wrapper(name, fn))

    def _wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
