"""Per-layer call counts and self time for the sl2tilings modules.

``install()`` replaces every public function of each layer module with a
counting wrapper, both where it is defined and wherever another module of
the package bound it at import time (``tiling``, ``svg`` and ``catalog`` bind
``det2``/``det3``; ``search`` binds ``solve_linear_congruence``).  Methods
of the classes a layer defines, ``RingValue``'s operators among them, are
wrapped on the class.  The ``cli`` layer also wraps its ``_cmd_*`` handlers,
which the argument parser looks up when it is built.

A layer's self time is the time spent inside its wrapped calls minus the
time spent in wrapped calls they made.  Code the wrappers never see, such as
a module's private helpers, is charged to the nearest wrapped caller.
"""

from __future__ import annotations

import enum
import importlib
import time
from collections import Counter

LAYERS = ("rings", "matrices", "tiling", "catalog", "blocks", "search", "gridio", "svg", "cli")

# Dunder methods worth counting; the rest (__repr__, the frozen-dataclass
# __setattr__ guard, ...) are left alone.
_DUNDERS = {
    "__init__", "__post_init__", "__eq__", "__hash__", "__add__", "__sub__",
    "__neg__", "__mul__", "__str__", "__contains__",
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()      # (layer, name) -> calls
        self.inclusive: Counter = Counter()  # (layer, name) -> seconds
        self.self_s: Counter = Counter()     # layer -> seconds
        self.work: Counter = Counter()       # counters read from results
        self._stack: list[list[float]] = []
        self._wrapped: dict[int, object] = {}

    def _wrap(self, layer: str, name: str, fn):
        done = self._wrapped.get(id(fn))
        if done is not None:
            return done
        stack, calls, inclusive, self_s = self._stack, self.calls, self.inclusive, self.self_s
        key = (layer, name)
        clock = time.perf_counter
        post = _RESULT_COUNTERS.get(key)
        work = self.work

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                inclusive[key] += elapsed
                calls[key] += 1
                if stack:
                    stack[-1][0] += elapsed
            if post is not None:
                post(work, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        self._wrapped[id(fn)] = wrapper
        return wrapper

    def install(self) -> None:
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sl2tilings.{layer}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not attr.startswith("_"):
                        self._wrap_class(layer, obj)
                elif callable(obj) and (
                    not attr.startswith("_") or (layer == "cli" and attr.startswith("_cmd_"))
                ):
                    wrapper = self._wrap(layer, attr, obj)
                    originals[id(obj)] = wrapper
                    setattr(mod, attr, wrapper)
        # Rebind the names other modules imported before the wrappers existed.
        for name in ("sl2tilings",) + tuple(f"sl2tilings.{layer}" for layer in LAYERS):
            mod = importlib.import_module(name)
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, layer: str, cls: type) -> None:
        if issubclass(cls, (enum.Enum, BaseException)):
            return
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(layer, name, obj.__func__)))
            elif isinstance(obj, property):
                setattr(cls, attr, property(self._wrap(layer, name, obj.fget)))
            elif callable(obj) and not isinstance(obj, type):
                setattr(cls, attr, self._wrap(layer, name, obj))

    def snapshot(self) -> dict:
        return {
            "calls": [[layer, name, n] for (layer, name), n in sorted(self.calls.items())],
            "inclusive": [[layer, name, s] for (layer, name), s in sorted(self.inclusive.items())],
            "self_s": dict(self.self_s),
            "work": dict(self.work),
        }


def _count_cells(work, args, report):
    work["cells_classified"] += report.rows * report.cols


def _count_dfs(work, args, result):
    work["dfs_nodes"] += result.stats.nodes


def _count_oracle(work, args, result):
    work["oracle_states"] += result.stats.nodes


_RESULT_COUNTERS = {
    ("tiling", "wildness_report"): _count_cells,
    ("search", "search_fully_wild"): _count_dfs,
    ("search", "brute_force_oracle"): _count_oracle,
}


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot into another (for CLI subprocesses of a round)."""
    for field in ("calls", "inclusive"):
        acc = {(layer, name): v for layer, name, v in total.get(field, [])}
        for layer, name, v in part.get(field, []):
            acc[(layer, name)] = acc.get((layer, name), 0) + v
        total[field] = [[layer, name, v] for (layer, name), v in sorted(acc.items())]
    for field in ("self_s", "work"):
        acc = dict(total.get(field, {}))
        for k, v in part.get(field, {}).items():
            acc[k] = acc.get(k, 0) + v
        total[field] = acc
    return total
