"""In-memory spans around calls into oddmtc's public functions.

A `Tracer` replaces each traced function by a wrapper in every `oddmtc`
module namespace that holds it, so calls made through `from .x import f`
bindings are caught too.  Each call records one span: name, start, end and
the index of the enclosing span (-1 at top level).  All spans of one run
share `run_id`.  Spans stay in memory until `write` dumps them as JSON lines.
"""

from __future__ import annotations

import json
import sys
import time
import uuid
from array import array
from collections import Counter, defaultdict

#: (module, function) pairs wrapped by `Tracer.install`, one per layer
#: boundary that a per-layer metric reads.
TRACED = (
    ("goldens", "load_goldens"),
    ("goldens", "verify"),
    ("filters", "fixed_dim_multiplicity_filter"),
    ("dimsearch", "enumerate_solutions"),
    ("exactmath", "factorize"),
    ("exactmath", "isqrt_exact"),
    ("oracle", "oracle_enumerate"),
    ("oracle", "compare"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open = [-1]
        # per-name totals of rows returned, and post-filter discards
        self.rows: Counter[str] = Counter()
        self.discards = 0
        # full enumerate_solutions output under each goldens.verify span
        self.outputs: dict[str, list] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            label = name
            if name == "goldens.verify":
                label = f"{name}.{args[0].table_id}"
            idx = len(tracer.names)
            tracer.names.append(label)
            tracer.parent.append(tracer._open[-1])
            tracer.start.append(time.perf_counter())
            tracer.end.append(0.0)
            tracer._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._open.pop()
            tracer._observe(name, idx, result)
            return result

        return traced

    def _observe(self, name: str, idx: int, result) -> None:
        if name in ("dimsearch.enumerate_solutions", "oracle.oracle_enumerate"):
            self.rows[name] += len(result)
            parent = self.parent[idx]
            if parent >= 0 and self.names[parent].startswith("goldens.verify."):
                table_id = self.names[parent].rsplit(".", 1)[1]
                self.outputs[table_id] = [[s.fpdim, list(s.dims)] for s in result]
        elif name == "filters.fixed_dim_multiplicity_filter" and result.discard:
            self.discards += 1

    def install(self) -> None:
        """Rebind every traced function in every loaded oddmtc module."""
        modules = [m for key, m in sys.modules.items()
                   if key.startswith("oddmtc.") and m is not None]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"oddmtc.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._restore.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._restore):
            setattr(mod, fn_name, original)
        self._restore.clear()

    # --- aggregation -------------------------------------------------------

    def totals(self) -> tuple[Counter, defaultdict]:
        """Call count and summed duration per span name."""
        calls: Counter[str] = Counter()
        seconds: defaultdict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            seconds[name] += self.end[i] - self.start[i]
        return calls, seconds

    def self_seconds(self, name: str) -> float:
        """Duration of `name` spans minus the part their child spans cover."""
        total = 0.0
        for i, n in enumerate(self.names):
            if n == name:
                total += self.end[i] - self.start[i]
        for i, p in enumerate(self.parent):
            if p >= 0 and self.names[p] == name:
                total -= self.end[i] - self.start[i]
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i],
                }) + "\n")
