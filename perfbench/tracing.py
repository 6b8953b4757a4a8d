"""Span tracing of prstirling's public functions, installed from outside the program.

`install` wraps every public function of each module in LAYERS, and every
public method of the classes those modules define. The modules bind each
other's names with ``from .kernel import binomial``, so a wrapper is written
into every prstirling module namespace that holds the original object, not
only into the defining module.

Each call records a span (name, parent span, start, end) in flat arrays kept
in memory. `Tracer.summary` derives calls, self time and total time per span
name from those arrays; self time is a span's duration minus the durations of
its direct child spans, so recursive ``sum_moment`` calls are not counted
twice. The wrappers also record the bit length of returned rationals and, for
the functions in DISTINCT_KEYS, the distinct argument keys seen.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from fractions import Fraction

LAYERS = ("distparse", "kernel", "moments", "stirling", "bell", "identities", "cli")

# Argument keys that identify the work a call does; distinct keys / calls
# measures how often the same work is walked again.
DISTINCT_KEYS = {
    "moments.sum_moment": lambda oracle, j, m: (oracle, j, m),
    "moments.degenerate_factorial_moment": lambda oracle, j, n, lam: (oracle, j, n, Fraction(lam)),
    "stirling.prob_r_stirling2": lambda ctx, n, k: (ctx, n, k),
}


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.bits_max: dict[str, int] = {}
        self.keys: dict[str, set] = {name: set() for name in DISTINCT_KEYS}
        self.dobinski_terms: list[int] = []

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        full = f"{layer}.{name}"
        name_id = self._name_id(full)
        key_of = DISTINCT_KEYS.get(full)
        keys = self.keys.get(full)
        clock = time.perf_counter
        by_identity = layer == "identities" and name.startswith("verify_")

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = len(tracer.start)
            tracer.span_name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            if type(result) is Fraction:
                bits = _bits(result)
                if bits > tracer.bits_max.get(layer, 0):
                    tracer.bits_max[layer] = bits
            if keys is not None:
                keys.add(key_of(*args, **kwargs))
            if by_identity:
                # one checker serves two identities; the report says which
                tracer.span_name[sid] = tracer._name_id(f"identities.{result.identity.value}")
            elif full == "bell.bell_dobinski":
                tracer.dobinski_terms.append(result.terms_used)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per span name: [calls, self seconds, total seconds]; plus bit lengths,
        distinct key counts and Dobinski term counts."""
        count = len(self.start)
        child = [0.0] * count
        for sid in range(count):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        per_name: dict[str, list] = {}
        for sid in range(count):
            dur = self.end[sid] - self.start[sid]
            entry = per_name.setdefault(self.names[self.span_name[sid]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur - child[sid]
            entry[2] += dur
        return {
            "spans": per_name,
            "bits_max": dict(self.bits_max),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "dobinski_terms": list(self.dobinski_terms),
        }

    def write_spans(self, path: str, limit: int) -> None:
        """Write at most `limit` spans as parallel arrays (start/end in seconds)."""
        n = min(limit, len(self.start))
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "total_spans": len(self.start),
                "written": n,
                "name": list(self.span_name[:n]),
                "parent": list(self.parent[:n]),
                "start": [round(v, 9) for v in self.start[:n]],
                "end": [round(v, 9) for v in self.end[:n]],
            }, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module."""
    modules = {layer: importlib.import_module(f"prstirling.{layer}") for layer in LAYERS}
    namespaces = list(modules.values()) + [sys.modules["prstirling"]]
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = tracer.wrap(layer, name, obj)
                for ns in namespaces:
                    if getattr(ns, name, None) is obj:
                        setattr(ns, name, wrapped)
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        setattr(obj, attr, tracer.wrap(layer, attr, member))
