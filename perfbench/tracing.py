"""Spans and counters around expnet's layer functions, recorded from outside.

The tracer replaces each traced function with a wrapper in every expnet
module namespace that binds it, so calls are seen whichever module makes
them (``expnet.solver.logm`` as well as ``expnet.matfuncs.logm``). A wrapper
records one span per call: name, start, end, parent span and operation id.
Spans stay in memory and are written out when the run ends. The program is
single-threaded with no queues, so a layer's self time (its spans' duration
minus the time covered by its child spans) is its busy time; there is no
wait to record.
"""

from __future__ import annotations

import csv
import functools
import importlib
import json
import time
from collections import Counter

#: Traced functions, by the module that defines them.
LAYERS = {
    "linalg": (
        "lu_factor",
        "lu_solve",
        "inverse",
        "schur_decompose",
        "matrix_to_json",
        "matrix_from_json",
    ),
    "matfuncs": ("expm", "logm"),
    "solver": (
        "make_instance",
        "random_instance",
        "draw_instance",
        "solve_three_layer",
        "verify",
        "eval_three_layer",
    ),
    "experiment": ("run_experiment",),
    "cli": ("run", "build_parser"),
}
KEYS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

#: Namespaces searched for bindings of the traced functions.
MODULES = (
    "expnet",
    "expnet.linalg",
    "expnet.matfuncs",
    "expnet.solver",
    "expnet.experiment",
    "expnet.cli",
)


_JSON_ENCODE = "linalg.matrix_to_json"
_JSON_DECODE = "linalg.matrix_from_json"


class Tracer:
    """Records spans and per-layer counters while ``enabled`` is true.

    Span times use a clock that excludes the tracer's own byte counting
    (``paused``), so counting JSON bytes does not inflate any layer.
    """

    def __init__(self):
        self.enabled = False
        self.paused = 0.0
        self.op = -1
        self.spans = []  # [name, start, end, parent index, op id]
        self.site_calls = Counter()  # (key, calling module) -> calls
        self.self_seconds = Counter()  # (key, op id) -> seconds
        self.json_bytes = 0
        self._stack = []  # [span index, seconds covered by children]
        self._originals = []

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, self.now(), 0.0, parent, self.op])

    def close(self) -> None:
        index, children = self._stack.pop()
        span = self.spans[index]
        span[2] = self.now()
        duration = span[2] - span[1]
        self.self_seconds[span[0], span[4]] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def calls(self) -> Counter:
        """Calls per traced function, from every calling module."""
        total = Counter()
        for (key, _), n in self.site_calls.items():
            total[key] += n
        return total

    def _count_json(self, obj) -> None:
        start = time.perf_counter()
        self.json_bytes += len(json.dumps(obj))
        self.paused += time.perf_counter() - start

    def _wrap(self, key: str, site: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.site_calls[key, site] += 1
            self.open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if key == _JSON_ENCODE:
                self._count_json(result)
            elif key == _JSON_DECODE:
                self._count_json(args[0] if args else kwargs["obj"])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever expnet binds it.

        Raises RuntimeError when a traced function no longer exists, so a
        renamed function cannot silently leave its layer empty.
        """
        modules = {name: importlib.import_module(name) for name in MODULES}
        targets = {}
        for layer, names in LAYERS.items():
            for name in names:
                fn = getattr(modules[f"expnet.{layer}"], name, None)
                if not callable(fn):
                    raise RuntimeError(f"expnet.{layer}.{name} is missing; cannot trace it")
                targets[id(fn)] = (f"{layer}.{name}", fn)
        for site, module in modules.items():
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    key, fn = targets[id(value)]
                    self._originals.append((module, attr, value))
                    setattr(module, attr, self._wrap(key, site, fn))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_ms", "end_ms", "parent", "op"])
            origin = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, op in self.spans:
                writer.writerow(
                    [name, f"{1e3 * (start - origin):.4f}", f"{1e3 * (end - origin):.4f}", parent, op]
                )
