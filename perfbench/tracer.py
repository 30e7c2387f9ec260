"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each hsps layer from outside the
package: every module-level function whose name has no leading underscore
is replaced by a timing wrapper, in its own module and in every hsps module
that imported it by name (``pipeline.simulate``, ``modes.car`` and so on),
so no call escapes its span.  Spans are kept in flat arrays in memory and
written once, at the end, with :meth:`Tracer.save`.

A span is (name, start, end, parent span, pass id); the benchmark labels
each pass id ``<workload>:setup`` or ``<workload>:pass``.  While
:attr:`Tracer.suffix` is set, it is appended to the names of new spans (the
workloads mark explicit grid sizes with it).  A layer's self time is the
duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("config", "stats", "montecarlo", "oracle", "modes", "pipeline", "cli")

# spectral is imported by nothing outside the tests, so it is not wrapped
_PATCHED_MODULES = ("hsps",) + tuple(f"hsps.{name}" for name in LAYERS)

# functions whose spans also record process CPU time
_CPU_SPANS = {"montecarlo.simulate"}


def _gaussian_variant(args, kwargs):
    order = kwargs.get("order", args[3] if len(args) > 3 else "all_order")
    return f"[{order}]"


# functions whose span name depends on an argument
_VARIANTS = {"oracle.gaussian_click_probs": _gaussian_variant}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.pass_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.cpu: dict[int, float] = {}
        self.pass_labels: dict[int, str] = {}
        self.current_pass = 0
        self.suffix = ""
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        self._frozen = None
        self._build_patches()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.pass_id.append(self.current_pass)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _wrap(self, fn, name: str):
        start, end = self.start, self.end
        stack = self._stack
        perf_counter = time.perf_counter
        variant = _VARIANTS.get(name)
        nid = self.intern(name)
        want_cpu = name in _CPU_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if variant is None and not self.suffix:
                i = self._open(nid)
            else:
                tag = variant(args, kwargs) if variant is not None else ""
                i = self._open(self.intern(name + tag + self.suffix))
            c0 = time.process_time() if want_cpu else 0.0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
                if want_cpu:
                    self.cpu[i] = time.process_time() - c0

        return traced

    def _build_patches(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hsps.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod_name in _PATCHED_MODULES:
            mod = importlib.import_module(mod_name)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj, wrappers[obj]))

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def begin_pass(self, pass_id: int, label: str):
        self.current_pass = pass_id
        self.pass_labels[pass_id] = label

    # -- analysis ----------------------------------------------------------

    def spans(self):
        """(name id, parent, pass id, start, end) as numpy arrays.

        The first call ends tracing: it copies the spans out of the growable
        buffers and empties those, so the spans are held only once.
        """
        if self._frozen is None:
            buffers = (self.name_id, self.parent, self.pass_id, self.start, self.end)
            self._frozen = tuple(np.array(buf) for buf in buffers)
            for buf in buffers:
                del buf[:]
        return self._frozen

    @staticmethod
    def self_times(parent, duration):
        """Per-span self time: duration minus the durations of its children."""
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return duration - child

    def save(self, path):
        """Write every span to an .npz file, once, at the end of the run."""
        names, parent, passes, start, end = self.spans()
        cpu_idx = np.fromiter(self.cpu.keys(), dtype=np.int64, count=len(self.cpu))
        cpu_val = np.fromiter(self.cpu.values(), dtype=np.float64, count=len(self.cpu))
        np.savez(
            path, name_id=names, parent=parent, pass_id=passes, start=start, end=end,
            cpu_span=cpu_idx, cpu_s=cpu_val,
            names=np.array(json.dumps(self.names)),
            pass_labels=np.array(json.dumps({str(k): v for k, v in self.pass_labels.items()})),
        )

