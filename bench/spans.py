"""Span recorder that wraps dynrel's public functions from outside.

``from .kernels import matrix_exp`` copies the binding into the importing
module, so each function is rebound in every ``dynrel.*`` namespace that
holds the same function object. Spans are kept in memory as
``(function id, start, end, parent span index)`` tuples and written out
when the benchmark ends.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "modelio", "kernels", "lti", "spectral", "relation", "feedback", "sampling")


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = [-1]
        self._wrappers = {}
        self._rebound = []

    def wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent)

        return traced

    def install(self):
        """Wrap every public function defined in a layer module; the
        wrappers are made once and reused by later installs."""
        if not self._wrappers:
            for layer in LAYERS:
                mod = importlib.import_module(f"dynrel.{layer}")
                for attr, obj in vars(mod).items():
                    if (not attr.startswith("_") and inspect.isfunction(obj)
                            and obj.__module__ == mod.__name__):
                        self._wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "dynrel" and not modname.startswith("dynrel."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(mod, attr, self._wrappers[obj])
                    self._rebound.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._rebound:
            setattr(mod, attr, obj)
        self._rebound.clear()

    def dump(self, path, **meta):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**meta, "names": self.names, "spans": self.spans}, f)


def self_times(spans):
    """Per span: duration minus the time covered by its direct children.
    Children of one span run one after another inside it, so the time
    they cover is the sum of their durations."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(names, spans):
    """Calls and total self time per function name, and the summed
    duration of the root spans."""
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    for (fid, _, _, _), own in zip(spans, self_times(spans)):
        calls[names[fid]] += 1
        self_s[names[fid]] += own
    root_s = sum(end - start for _, start, end, parent in spans if parent < 0)
    return calls, self_s, root_s


def count_under(names, spans, child, ancestor):
    """Number of ``child`` spans that run inside some ``ancestor`` span."""
    inside = [False] * len(spans)
    count = 0
    for i, (fid, _, _, parent) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or names[spans[parent][0]] == ancestor
        if inside[i] and names[fid] == child:
            count += 1
    return count
