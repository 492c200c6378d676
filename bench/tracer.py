"""Outside-in span tracing of chcverify, by module attribute name.

`Tracer.install` replaces named functions and methods of the chcverify
modules with thin wrappers.  Each call of a wrapped function records a span:
its name, its parent span, its start and end (perf_counter_ns), the
exception class it raised (if any) and an optional probe value computed from
its arguments and result.  Spans are kept in flat arrays while the program
runs and written out once at the end, so the per-call cost stays small.

A name that the code no longer has is reported as absent instead of failing,
so that the benchmark keeps running across refactors of the program.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

PACKAGE = "chcverify"

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_of: array = array("l")
        self.parent: array = array("l")
        self.start: array = array("q")
        self.end: array = array("q")
        self.errors: Dict[int, str] = {}
        self.probes: Dict[int, object] = {}
        self.absent: List[str] = []
        self.caches: Dict[str, Callable] = {}
        self.active = False
        self._stack: List[int] = [NO_PARENT]

    # -- installing -----------------------------------------------------------

    def install(self, targets, probes: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap every "module:attr" or "module:Class.method" in `targets`."""
        probes = probes or {}
        for target in targets:
            if not self._wrap_target(target, probes.get(target)):
                self.absent.append(target)

    def _wrap_target(self, target: str, probe) -> bool:
        mod_name, _, attr = target.partition(":")
        try:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            return False
        owner_name, _, meth = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = getattr(owner, "__dict__", {}).get(meth)
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrapper(target, raw.__func__, probe))
            elif callable(raw):
                wrapped = self._wrapper(target, raw, probe)
            else:
                return False
            setattr(owner, meth, wrapped)
            return True
        orig = getattr(module, attr, None)
        if not callable(orig):
            return False
        if hasattr(orig, "cache_info"):
            self.caches[target] = orig
        wrapper = self._wrapper(target, orig, probe)
        # Rebind every module-level reference, so that `from .x import f`
        # copies in other modules go through the wrapper too.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
        return True

    def _wrapper(self, target: str, fn: Callable, probe) -> Callable:
        name_id = len(self.names)
        self.names.append(target)
        stack = self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        errors, probes = self.errors, self.probes
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                errors[idx] = type(exc).__name__
                raise
            end[idx] = clock()
            stack.pop()
            if probe is not None:
                try:
                    probes[idx] = probe(args, kwargs, result)
                except Exception:  # a changed signature only loses the probe
                    pass
            return result

        return wrapper

    # -- output ---------------------------------------------------------------

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        out = {}
        for target, fn in self.caches.items():
            info = fn.cache_info()
            out[target] = {"hits": info.hits, "misses": info.misses}
        return out

    def write(self, path: str) -> int:
        """Write the spans as tab-separated lines; returns the span count.

        Columns: index, parent index (-1 for none), name, start_ns, end_ns,
        exception class or "-", probe value as JSON or "-".
        """
        with open(path, "w") as fh:
            for i in range(len(self.name_of)):
                probe = self.probes.get(i)
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                         f"{self.start[i]}\t{self.end[i]}\t"
                         f"{self.errors.get(i, '-')}\t"
                         f"{'-' if probe is None else json.dumps(probe)}\n")
        return len(self.name_of)


def read_spans(path: str):
    """Spans written by `Tracer.write`, as a list of tuples."""
    spans = []
    with open(path) as fh:
        for line in fh:
            idx, par, name, t0, t1, exc, probe = line.rstrip("\n").split("\t")
            spans.append((int(idx), int(par), name, int(t0), int(t1),
                          None if exc == "-" else exc,
                          None if probe == "-" else json.loads(probe)))
    return spans
