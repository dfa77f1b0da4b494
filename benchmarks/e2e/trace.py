"""Spans and per-layer attribution, recorded from outside the program.

Two instruments, both used only in the *counted* child (end-to-end timings
never come from a process that ran either):

* :class:`Spans` keeps ``run > workload > pass > unit > public call`` spans
  in memory (id, parent id, start, end) and writes them as Chrome-trace
  JSON when the child exits.
* :func:`layer_table` folds a ``cProfile`` run into one row per layer of
  ``src/repro`` — exact call counts and (indicative) self time — charging
  builtin, stdlib and numpy callees to the layer that called them.

Nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

#: The layers are the top-level module names of ``src/repro``.
LAYERS = (
    "sim",
    "net",
    "hw",
    "localfs",
    "pfs",
    "mpi",
    "romio",
    "cache",
    "access",
    "workloads",
    "faults",
    "fleet",
    "experiments",
)

#: Modules that are not a layer of their own, and the layer they belong to.
#: Anything else under ``src/repro`` (units, dataplane, the package root)
#: is glue the harness pulls in and counts as ``experiments``.
LAYER_ALIASES = {
    "intervals": "access",
    "chaos": "faults",
    "mpiwrap": "mpi",
    "analysis": "experiments",
    "machine": "experiments",
    "config": "experiments",
}

#: Calls made by the benchmark's own files; not part of any layer.
BENCH = "bench"

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.sep + os.path.join("src", "repro") + os.sep


class Spans:
    """In-memory span recorder; a disabled recorder costs one branch."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.rows: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 1

    def begin(self, name: str, **args) -> None:
        if not self.enabled:
            return
        parent = self._stack[-1]["id"] if self._stack else 0
        row = {"id": self._next_id, "parent": parent, "name": name, "args": args}
        self._next_id += 1
        self._stack.append(row)
        row["start"] = time.perf_counter()

    def end(self) -> None:
        if not self.enabled:
            return
        end = time.perf_counter()
        row = self._stack.pop()
        row["end"] = end
        self.rows.append(row)

    @contextmanager
    def span(self, name: str, **args):
        self.begin(name, **args)
        try:
            yield
        finally:
            self.end()

    def write_chrome_trace(self, path: str, counters: dict) -> None:
        """Complete (``ph: X``) events, microseconds from the first span."""
        origin = min((r["start"] for r in self.rows), default=0.0)
        events = [
            {
                "name": r["name"],
                "ph": "X",
                "ts": (r["start"] - origin) * 1e6,
                "dur": (r["end"] - r["start"]) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": r["id"], "parent": r["parent"], **r["args"]},
            }
            for r in sorted(self.rows, key=lambda r: r["id"])
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "otherData": counters}, fh)


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to; None for foreign code."""
    at = filename.rfind(_REPRO)
    if at >= 0:
        head = filename[at + len(_REPRO) :].split(os.sep, 1)[0]
        module = head[:-3] if head.endswith(".py") else head
        module = LAYER_ALIASES.get(module, module)
        return module if module in LAYERS else "experiments"
    if filename.startswith(_HERE):
        return BENCH
    return None


def layer_table(stats) -> dict[str, dict[str, float]]:
    """Per-layer calls and self seconds from ``cProfile.Profile.getstats()``.

    A function defined in a layer is charged to it whole.  A foreign
    function (builtin, stdlib, numpy) is split over the layers in
    proportion to who called it, transitively: ``np.cumsum`` called from
    ``access`` is ``access`` work, and so is the ufunc it calls in turn.
    The rows sum to the profile's totals exactly up to float rounding.
    """
    own: dict[object, str] = {}
    callers: dict[object, list[tuple[object, int]]] = {}
    for entry in stats:
        code = entry.code
        if not isinstance(code, str):
            layer = layer_of(code.co_filename)
            if layer is not None:
                own[code] = layer
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append((code, sub.callcount))

    # weights[f][layer] = share of foreign function f charged to layer.
    weights: dict[object, dict[str, float]] = {
        code: {layer: 1.0} for code, layer in own.items()
    }
    foreign = [e.code for e in stats if e.code not in own]
    for _ in range(64):  # call chains in foreign code are short; cycles decay
        moved = 0.0
        for code in foreign:
            into = callers.get(code)
            if not into:
                # A root with no recorded caller (the profiler's own
                # enable/disable pair) was called by the benchmark.
                new = {BENCH: 1.0}
            else:
                total = sum(n for _, n in into)
                new = {}
                for caller, n in into:
                    for layer, w in weights.get(caller, {}).items():
                        new[layer] = new.get(layer, 0.0) + w * n / total
            old = weights.get(code, {})
            moved += sum(abs(new.get(k, 0.0) - old.get(k, 0.0)) for k in {*new, *old})
            weights[code] = new
        if moved < 1e-12:
            break

    table = {layer: {"calls": 0.0, "self_s": 0.0} for layer in (*LAYERS, BENCH)}
    for entry in stats:
        for layer, w in weights.get(entry.code, {}).items():
            row = table[layer]
            row["calls"] += entry.callcount * w
            row["self_s"] += entry.inlinetime * w
    return table
