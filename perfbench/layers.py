"""Per-layer tracing of sympquot from outside the package.

``install`` wraps every public function of the traced modules and rebinds
each name that refers to it, in every loaded ``sympquot`` module, so calls
are seen at the binding the caller uses (``torus.stable_reduction`` called
from ``pipeline`` goes through ``pipeline.stable_reduction``).  A wrapper
records calls, normal returns and self time: its wall time minus the time
spent in wrapped functions it called.  Spans stay in memory; ``snapshot``
returns them as a JSON-ready dict.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = (
    "pipeline",
    "torus",
    "latticecones",
    "series",
    "exactlin",
    "certify",
    "sl2",
    "cli",
)


class Tracer:
    def __init__(self):
        self.stats = {}  # "module.function" -> [calls, returns, self_s]
        self.site_calls = {}  # "binding module:module.function" -> calls
        self._stack = []  # per open span: time spent in wrapped callees

    def reset(self):
        for s in self.stats.values():
            s[:] = [0, 0, 0.0]
        for k in self.site_calls:
            self.site_calls[k] = 0

    def wrap(self, key, fn, site):
        stats = self.stats.setdefault(key, [0, 0, 0.0])
        site_key = f"{site}:{key}"
        self.site_calls.setdefault(site_key, 0)
        site_calls = self.site_calls
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stats[0] += 1
                stats[1] += returned
                stats[2] += elapsed - inner
                site_calls[site_key] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    def snapshot(self):
        return {
            "functions": {
                k: {"calls": c, "returns": r, "self_s": s}
                for k, (c, r, s) in sorted(self.stats.items())
            },
            "site_calls": dict(sorted(self.site_calls.items())),
        }


def install():
    """Wrap the public functions of TRACED_MODULES; returns the Tracer."""
    tracer = Tracer()
    targets = {}
    for name in TRACED_MODULES:
        mod = importlib.import_module(f"sympquot.{name}")
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and not inspect.isgeneratorfunction(obj)
            ):
                targets[id(obj)] = f"{name}.{attr}"
    for modname, mod in list(sys.modules.items()):
        if modname != "sympquot" and not modname.startswith("sympquot."):
            continue
        site = modname.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            key = targets.get(id(obj))
            if key is not None and inspect.isfunction(obj):
                setattr(mod, attr, tracer.wrap(key, obj, site))
    return tracer
