"""Spans around calls into qkdng's public functions, kept in memory.

The package binds these functions with ``from .x import y``, so each one is
reachable under several module attributes (``scan.assess``,
``channels.photocount_pmf``, ...).  ``Tracer.install`` replaces the function
at every attribute of every loaded ``qkdng`` module that holds it, so calls
through any import site are recorded.  Spans stay in flat arrays until
``dump`` writes them out once, when the child process ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import pickle
import sys
import time
from array import array

# (module, function) pairs timed by the traced run, in report order
TRACED = (
    ("cli", "main"),
    ("scan", "sweep"),
    ("scan", "max_noise"),
    ("scan", "indicator"),
    ("scan", "assess_point"),
    ("channels", "assess"),
    ("channels", "thermal_observables"),
    ("channels", "poisson_observables"),
    ("photodetection", "photocount_pmf"),
    ("photodetection", "detect_pmf"),
    ("keyrates", "key_rates"),
    ("witness", "evaluate"),
)

TRACED_NAMES = tuple(f"{module}.{func}" for module, func in TRACED)


class Tracer:
    """Records one span per traced call: function, parent span, start, end."""

    def __init__(self) -> None:
        self.fn = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]  # stack of open span indices; -1 is the root

    def wrap(self, index: int, func):
        # bound as locals so the wrapper adds as little as possible to each call
        fn, parent, start, end, open_spans = (
            self.fn, self.parent, self.start, self.end, self._open
        )
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = len(fn)
            fn.append(index)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(span)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[span] = clock()
                open_spans.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function at each place a qkdng module binds it."""
        for index, (module_name, func_name) in enumerate(TRACED):
            original = getattr(importlib.import_module(f"qkdng.{module_name}"), func_name)
            wrapper = self.wrap(index, original)
            modules = [m for name, m in sys.modules.items()
                       if name == "qkdng" or name.startswith("qkdng.")]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        doc = {"names": TRACED_NAMES, "fn": self.fn, "parent": self.parent,
               "start": self.start, "end": self.end}
        with open(path, "wb") as fh:
            pickle.dump(doc, fh, protocol=pickle.HIGHEST_PROTOCOL)


def layer_stats(path: str) -> dict[str, dict[str, float]]:
    """Per traced function: calls, self time and microseconds per call.

    ``us_per_call`` is the mean duration of a call, callees included, and
    ``us_per_call_p50`` / ``_p99`` are percentiles of it.  A span's self time
    is its duration minus the durations of the spans it directly caused.
    The file is one that this benchmark's child wrote.
    """
    with open(path, "rb") as fh:
        doc = pickle.load(fh)
    names, fn, parent = doc["names"], doc["fn"], doc["parent"]
    duration = [e - s for s, e in zip(doc["start"], doc["end"])]
    self_time = list(duration)
    for span, up in enumerate(parent):
        if up >= 0:
            self_time[up] -= duration[span]
    per_name = {name: ([], []) for name in names}
    for span, index in enumerate(fn):
        durations, selfs = per_name[names[index]]
        durations.append(duration[span])
        selfs.append(self_time[span])
    stats = {}
    for name, (durations, selfs) in per_name.items():
        durations.sort()
        calls = len(durations)
        stats[name] = {
            "calls": calls,
            "self_s": sum(selfs, 0.0),
            "us_per_call": 1e6 * sum(durations) / calls if calls else 0.0,
            "us_per_call_p50": 1e6 * _percentile(durations, 0.50),
            "us_per_call_p99": 1e6 * _percentile(durations, 0.99),
        }
    return stats


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 for an empty one."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]
