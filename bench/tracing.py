"""Spans around the public functions of every lieflag module.

The wrappers live here, in the benchmark, so the program is measured as
it ships.  Each public function (a callable defined in its own module
whose name does not start with ``_``) is replaced by a wrapper at every
module that binds it by name, because ``classifier`` imports
``eval_expr``, ``r_min`` and ``codim_parabolic`` directly and
``representations`` imports ``r_min``.  A wrapper counts calls and
accumulates total and self time; self time is a call's duration minus the
time covered by the wrapped calls it made.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# (function, ancestor): calls of the first made while the second is active.
NESTED = (("records.eval_expr", "classifier.classify"),)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.nested = {pair: 0 for pair in NESTED}
        self._active: dict[str, int] = {}
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}
        self.cache_delta: dict[str, list[int]] = {}  # name -> [hits, misses]

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        active = self._active
        active.setdefault(name, 0)
        watch = [(pair, pair[1]) for pair in NESTED if pair[0] == name]
        nested = self.nested

        def wrapper(*args, **kwargs):
            for pair, ancestor in watch:
                if active.get(ancestor):
                    nested[pair] += 1
            frame = [0]
            stack.append(frame)
            active[name] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                active[name] -= 1
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Wrap every public lieflag function wherever it is bound."""
        modules = {
            key: mod
            for key, mod in sys.modules.items()
            if mod is not None and (key == "lieflag" or key.startswith("lieflag."))
        }
        originals: dict[int, tuple[str, object]] = {}
        for key, mod in modules.items():
            short = key.removeprefix("lieflag.")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == key
                ):
                    originals[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {
            ident: self._wrap(name, fn) for ident, (name, fn) in originals.items()
        }
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for name, fn in originals.values():
            if hasattr(fn, "cache_info"):
                self._caches[name] = fn
        self._cache_base = {
            name: self._cache_counts(fn) for name, fn in self._caches.items()
        }

    @staticmethod
    def _cache_counts(fn) -> tuple[int, int]:
        info = fn.cache_info()
        return info.hits, info.misses

    def uninstall(self) -> None:
        """Restore the original functions and bank the cache-counter deltas."""
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()
        for name, fn in self._caches.items():
            hits, misses = self._cache_counts(fn)
            base_hits, base_misses = self._cache_base[name]
            delta = self.cache_delta.setdefault(name, [0, 0])
            delta[0] += hits - base_hits
            delta[1] += misses - base_misses

    def export(self) -> dict:
        return {
            "stats": self.stats,
            "nested": {f"{a}<{b}": n for (a, b), n in self.nested.items()},
            "cache": self.cache_delta,
        }


def merge(total: dict, part: dict) -> dict:
    """Add one exported trace into another (used across CLI child processes)."""
    for name, values in part["stats"].items():
        acc = total.setdefault("stats", {}).setdefault(name, [0, 0, 0])
        for i, v in enumerate(values):
            acc[i] += v
    for key, n in part["nested"].items():
        total.setdefault("nested", {})[key] = total.get("nested", {}).get(key, 0) + n
    for name, values in part["cache"].items():
        acc = total.setdefault("cache", {}).setdefault(name, [0, 0])
        acc[0] += values[0]
        acc[1] += values[1]
    return total
