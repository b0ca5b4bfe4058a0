"""Per-layer tracing from outside the package.

Every public function of a layer module, and every public method of a
class defined there, is replaced by a wrapper that records a span
(name, start, end, parent). The callables are found by introspection, so
functions added or renamed later still count toward their layer. Names
that other modules bound with ``from .foundation import foundation_table``
are rebound to the same wrapper, so inner calls are traced as well.

Self time is charged as the run goes: the clock always runs for the
layer of the innermost open span, so a layer's self time is its span
time minus the child spans of other layers. A second, optional pass
turns on ``tracemalloc`` and records each layer's peak allocation above
the memory in use when the span opened.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "qwalk1d"
LAYERS = ("params", "foundation", "closedform", "density", "moments",
          "estimate", "direct", "errata", "verify", "cli")

# Spans whose inclusive time and calls are also summed per family. A span
# nested in another span of its own family is counted once, with it.
FAMILIES = {
    "foundation.foundation_table": "build",
    "foundation.FoundationTable.row": "gather",
    "foundation.FoundationTable.row_on": "gather",
    "foundation.FoundationTable.value": "gather",
    "foundation.foundation_polynomial": "exact",
    "foundation.polynomial_table": "exact",
    "foundation.polynomial_row_recursion": "exact",
    "foundation.PolynomialRow.evaluate": "exact",
    "estimate.fit_walk": "fit",
    "estimate.fit_symmetry_params": "inner_fit",
    "direct.step": "step",
    "direct.evolve_momentum_direct": "momentum_steps",
}

MB = 1e6


class Tracer:
    """Span recorder shared by all wrappers of one process."""

    def __init__(self) -> None:
        self.active = False
        self.memory = False
        self.names: list[str] = []
        self.peak_alloc: defaultdict[str, int] = defaultdict(int)
        self.mem_frames: list[list[int]] = []
        self.reset()

    def reset(self) -> None:
        """Drop spans, counts and times; keep names and peak allocations."""
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[tuple[int, str, str | None, float]] = []
        self.last = 0.0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.family_s: defaultdict[str, float] = defaultdict(float)
        self.family_calls: Counter[str] = Counter()
        self.family_depth: Counter[str] = Counter()
        self.built_cells = 0
        self.built_bytes = 0
        self.momentum_steps = 0

    def register(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def enter(self, name_id: int, layer: str, family: str | None) -> None:
        now = time.perf_counter()
        if self.stack:
            self.self_s[self.stack[-1][1]] += now - self.last
        parent = self.stack[-1][0] if self.stack else -1
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_start.append(now)
        self.span_end.append(0.0)
        self.calls[layer] += 1
        if family:
            self.family_depth[family] += 1
        if self.memory:
            # [start, peak seen]: fold the parent's peak so far in before
            # tracemalloc's peak is reset for this span.
            current, peak = tracemalloc.get_traced_memory()
            if self.mem_frames:
                self.mem_frames[-1][1] = max(self.mem_frames[-1][1], peak)
            tracemalloc.reset_peak()
            self.mem_frames.append([current, current])
        self.stack.append((index, layer, family, now))
        self.last = now

    def exit(self, result) -> None:
        index, layer, family, start = self.stack.pop()
        if self.memory:
            begin, seen = self.mem_frames.pop()
            peak = max(seen, tracemalloc.get_traced_memory()[1])
            self.peak_alloc[layer] = max(self.peak_alloc[layer], peak - begin)
            if self.mem_frames:
                self.mem_frames[-1][1] = max(self.mem_frames[-1][1], peak)
        now = time.perf_counter()
        self.self_s[layer] += now - self.last
        self.span_end[index] = now
        self.last = now
        if family:
            self.family_depth[family] -= 1
            if self.family_depth[family] == 0:
                self.family_s[family] += now - start
                self.family_calls[family] += 1
                self.observe(family, result)

    def observe(self, family: str, result) -> None:
        if result is None:
            return
        if family == "build":
            self.built_cells += result.values.size
            self.built_bytes += result.values.nbytes
        elif family == "momentum_steps":
            self.momentum_steps += result.t

    def wrap(self, fn, layer: str, name: str):
        name_id = self.register(name)
        family = FAMILIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.enter(name_id, layer, family)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every layer's public callables; returns the wrapped names."""
        replaced: dict[int, object] = {}
        wrapped = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapper = self.wrap(value, layer, f"{layer}.{attr}")
                    replaced[id(value)] = wrapper
                    wrapped.append(f"{layer}.{attr}")
                elif inspect.isclass(value):
                    wrapped += self.wrap_class(value, layer, f"{layer}.{attr}")
        # Rebind the names importers copied out of the layer modules.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
        return wrapped

    def wrap_class(self, cls, layer: str, qualname: str) -> list[str]:
        wrapped = []
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qualname}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(raw.__func__, layer, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, layer, name))
            else:
                continue
            wrapped.append(name)
        return wrapped

    def run(self, fn, memory: bool = False):
        """Call ``fn`` with tracing on (and tracemalloc if ``memory``)."""
        self.memory = memory
        if memory:
            tracemalloc.start()
        self.active = True
        try:
            return fn()
        finally:
            self.active = False
            if memory:
                tracemalloc.stop()
                self.memory = False

    def save(self, path: Path) -> None:
        """Write all spans in one go (compressed numpy archive)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def metrics(self, outputs: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics; ``outputs`` carries sites, rows and bytes."""
        fam_s, fam_n = self.family_s, self.family_calls
        steps = fam_n["step"] + self.momentum_steps
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for layer in ("foundation", "closedform", "density", "moments", "estimate", "direct"):
            out[f"{layer}.peak_alloc_mb"] = self.peak_alloc[layer] / MB
        out.update({
            "foundation.build_calls": fam_n["build"],
            "foundation.build_s": fam_s["build"],
            "foundation.built_mb": self.built_bytes / MB,
            "foundation.gather_calls": fam_n["gather"],
            "foundation.gather_s": fam_s["gather"],
            "foundation.exact_s": fam_s["exact"],
            "foundation.cells_per_output_site": ratio(self.built_cells, outputs["sites"]),
            "estimate.inner_fits_per_fit": ratio(fam_n["inner_fit"], fam_n["fit"]),
            "estimate.inner_fit_s": fam_s["inner_fit"],
            "moments.calls_per_output_row": ratio(self.calls["moments"], outputs["rows"]),
            "direct.steps": steps,
            "direct.steps_per_s": ratio(steps, self.self_s["direct"]),
            "cli.bytes_written": outputs["bytes"],
        })
        return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
