"""Per-layer tracing of the sweep, done from outside the package.

``LAYERS`` is the table of entry points the traced run times.  Each is
wrapped at the module global its caller looks up (``sites``), so a
sweep that calls ``solve_ness`` through ``sweep`` and through
``metrology`` counts both.  README.md records, for each layer, which
end-to-end metric a change to it should move and on which workload.

A span is (name, parent span, point index, start, end, raised).  Self
time is a span's duration minus the durations of its direct children.
Entry points that no longer exist are reported as absent; their time
then lands in the caller's self time, or outside every layer, which
lowers the coverage.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    name: str  # "<module>.<function>" where the function is defined
    sites: tuple[str, ...]  # modules whose global of that name is wrapped


LAYERS: tuple[Layer, ...] = (
    Layer("liouvillian.build_liouvillian", ("liouvillian",)),
    Layer("liouvillian.steady_state", ("liouvillian",)),
    Layer("model.diagonalize", ("liouvillian",)),
    Layer("liouvillian.solve_ness", ("sweep", "metrology")),
    Layer("metrology.qfi_spectral", ("sweep",)),
    Layer("observables.spectral_decompose", ("metrology",)),
    Layer("observables.discord", ("sweep",)),
    Layer("observables.coherence", ("sweep",)),
    Layer("observables.linear_entropy", ("sweep",)),
    Layer("observables.concurrence", ("sweep",)),
    Layer("observables.mutual_information", ("sweep",)),
    Layer("thermo.transport_report", ("sweep",)),
    Layer("sweep.run_sweep", ("cli",)),
    Layer("sweep.emit", ("cli",)),
    Layer("sweep.load_config", ("cli",)),
    Layer("sweep.sweep_spec_from_config", ("cli",)),
)

LAYER_STATS = (("calls_per_point", "calls/point"), ("self_ms_per_point", "ms/point"),
               ("errors", "count"))

# Called once per grid point by the sweep; only used to tag spans with
# the point index, never timed as a layer.
_POINT_MARKER = ("sweep", "_evaluate_point")


class Tracer:
    """Spans kept in memory while wrapped entry points run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.point: int | None = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, self.point,
                    time.perf_counter(), 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return traced

    def mark_points(self, fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            self.point = 0 if self.point is None else self.point + 1
            return fn(*args, **kwargs)

        return marked

    def new_sweep(self) -> None:
        self.point = None

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, self seconds and raised calls per layer name."""
        child_time = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for i, (name, _, _, start, end, raised) in enumerate(self.spans):
            t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
            t["calls"] += 1
            t["self_s"] += (end - start) - child_time[i]
            t["errors"] += int(raised)
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, point, start, end, raised) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "point": point, "start": start, "end": end,
                                     "raised": raised}) + "\n")


def install(tracer: Tracer, layers=LAYERS):
    """Wrap every entry point that exists; return (restore list, absent).

    ``absent`` names each layer none of whose sites could be wrapped,
    and each "<layer>@<site>" that is missing while other sites exist.
    """
    patched: list[tuple[object, str, object]] = []
    absent: list[str] = []

    def patch(site: str, attr: str, make) -> bool:
        try:
            module = importlib.import_module(f"fermijunction.{site}")
        except ImportError:
            return False
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        patched.append((module, attr, original))
        setattr(module, attr, make(original))
        return True

    for layer in layers:
        attr = layer.name.rsplit(".", 1)[1]
        missing = [s for s in layer.sites
                   if not patch(s, attr, functools.partial(tracer.wrap, layer.name))]
        if len(missing) == len(layer.sites):
            absent.append(layer.name)
        else:
            absent.extend(f"{layer.name}@{s}" for s in missing)
    patch(*_POINT_MARKER, tracer.mark_points)
    return patched, absent


def restore(patched) -> None:
    """Put back every original global, last wrapped first."""
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)
