"""Outside-in span recorder for the traced benchmark run.

The program is not edited: :func:`install` wraps public functions and
methods of the loaded ``repro.*`` modules, replacing each one *by
identity* wherever a module or class holds a reference to it. A function
imported by name into several modules (``maxmin_allocate_indexed``) is
therefore caught whichever module calls it.

Spans (name, start, end, parent) are kept in memory and written out once
at the end. A span's self time is its duration minus the time its direct
children cover; per name, the recorder reports call counts and summed
self time, so the self times of all spans plus the untraced gaps add up
to the run's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: (span name, "module:Class.method" or "module:function"). Several
#: targets may share a span name; they are reported as one layer.
TARGETS = (
    ("topology.equal_cost_paths", "repro.topology.multirooted:MultiRootedTopology.equal_cost_paths"),
    ("addressing.codec", "repro.addressing.codec:PathCodec.encode"),
    ("addressing.codec", "repro.addressing.codec:PathCodec.decode"),
    ("addressing.codec", "repro.addressing.codec:PathCodec.endpoints"),
    ("simulator.network.start_flow", "repro.simulator.network:Network.start_flow"),
    ("simulator.network.reroute_flow", "repro.simulator.network:Network.reroute_flow"),
    ("simulator.network.fail_restore", "repro.simulator.network:Network.fail_link"),
    ("simulator.network.fail_restore", "repro.simulator.network:Network.restore_link"),
    ("simulator.maxmin", "repro.simulator.maxmin:maxmin_allocate_indexed"),
    ("scheduling.place", "repro.scheduling.base:Scheduler.place"),
    ("core.registry.register", "repro.core.registry:MonitorRegistry.register"),
    ("core.registry.release", "repro.core.registry:MonitorRegistry.release"),
    ("core.monitor.index_pair_paths", "repro.core.monitor:index_pair_paths"),
    ("core.daemon.query", "repro.core.daemon:HostDaemon.query_monitors"),
    ("core.daemon.round", "repro.core.daemon:HostDaemon.run_scheduling_round"),
)

#: Counters read from a wrapped call: span name -> (counter, reader).
#: ``maxmin_allocate_indexed(indices, indptr, weights, caps)`` fills
#: ``len(indptr) - 1`` demands; a scheduling round returns its shifts.
COUNTERS: Dict[str, tuple] = {
    "simulator.maxmin": ("simulator.maxmin.demands", lambda args, result: len(args[1]) - 1),
    "core.daemon.round": ("core.daemon.shifts", lambda args, result: int(result)),
}


class SpanRecorder:
    """Nested named spans, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        #: one ``[name, start, end, parent index]`` list per span.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable, counter: Optional[tuple] = None) -> Callable:
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                key, read = counter
                counters[key] = counters.get(key, 0) + read(args, result)
            return result

        return traced

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` and summed ``self_s``."""
        self_s = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, *_), own in zip(self.spans, self_s):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *owner_path, attr = qualname.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def _replace_everywhere(original: Callable, wrapper: Callable) -> int:
    """Point every attribute of a ``repro.*`` module, or of a class defined
    in one, that *is* ``original`` at ``wrapper``; returns the count."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        owners = [module] + [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module_name
        ]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    replaced += 1
    return replaced


def install(recorder: SpanRecorder) -> None:
    """Wrap every target; raises if a target is no longer referenced."""
    for name, target in TARGETS:
        original = _resolve(target)
        wrapper = recorder.wrap(name, original, COUNTERS.get(name))
        if _replace_everywhere(original, wrapper) == 0:
            raise LookupError(f"{target} is not referenced by any repro module")
