"""Per-layer tracing of chowobstruct from outside the package.

Each module of the package is one layer.  Tracer.install() replaces every
public function of a layer, wherever a module of the package looks it up by
name, and every public method (plus __init__ and the arithmetic operators) of
the classes a layer defines, with a wrapper that counts the call and, when
the caller is in another layer, opens a span.  A layer's self time is the
time inside its spans minus the time of the spans they caused.  Program
source is not touched; uninstall() restores every replaced attribute.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("intlinalg", "abelian", "chow", "steenrod", "complement", "obstruction", "cli")
PACKAGE = "chowobstruct"
_OPERATORS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__")


class Tracer:
    def __init__(self):
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()
        self.cosets = 0
        self.group_keys: set = set()
        self.parity_keys: set = set()
        self.snf_results: list = []
        self._stack: list = []
        self._patches: list = []

    # -------------------------------------------------------------- wrapping

    def _span(self, f, layer: str, qual: str, before=None, after=None):
        calls, stack, self_time, perf = self.calls, self._stack, self.self_time, time.perf_counter

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            calls[qual] += 1
            if before is not None:
                before(*args, **kwargs)
            if stack and stack[-1][0] == layer:
                result = f(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    result = f(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stack.pop()
                    self_time[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def _generator_span(self, f, layer: str, qual: str):
        """Wrap a generator function so that each resumption is a span of its layer."""
        tracer, stack, self_time, perf = self, self._stack, self.self_time, time.perf_counter

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            tracer.calls[qual] += 1
            it = f(*args, **kwargs)
            while True:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf() - t0
                    stack.pop()
                    self_time[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
                tracer.cosets += 1
                yield item

        return wrapper

    def _hooks(self, qual: str):
        """Extra bookkeeping for the calls whose arguments or results a metric needs."""
        if qual == "intlinalg.smith_normal_form":
            return None, self.snf_results.append
        if qual == "complement.complement_group":
            def before(model, j, assumption=None):
                self.group_keys.add((model.ambient.factor_dims, model.multidegree, j,
                                     None if assumption is None else assumption.label()))
            return before, None
        if qual == "obstruction.decide":
            def before(model, pair, assumption=None):
                self.parity_keys.add((
                    model.ambient.factor_dims, model.multidegree,
                    tuple(sorted(e for e, c in pair.c1.items() if c % 2)),
                    tuple(sorted(e for e, c in pair.c2.items() if c % 2)),
                ))
            return before, None
        return None, None

    def _wrap(self, f, layer: str, qual: str):
        if inspect.isgeneratorfunction(f):
            return self._generator_span(f, layer, qual)
        return self._span(f, layer, qual, *self._hooks(qual))

    def _set(self, owner, name: str, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        lookups = [importlib.import_module(PACKAGE), *modules.values()]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapped = self._wrap(obj, layer, f"{layer}.{name}")
                    for target in lookups:
                        for tname, tval in list(vars(target).items()):
                            if tval is obj:
                                self._set(target, tname, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(obj, layer)

    def _wrap_class(self, cls, layer: str):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, layer, qual)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, layer, qual)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, layer, qual))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -------------------------------------------------------------- readout

    def take_transform_bits(self) -> int:
        """Largest bit length of any u/v entry among snf results since the last call."""
        bits = 0
        for dec in self.snf_results:
            for mat in (dec.u, dec.v):
                for row in mat.entries:
                    for e in row:
                        bits = max(bits, abs(e).bit_length())
        self.snf_results.clear()
        return bits
