"""Layer spans recorded from outside the program.

Each of the eight ``twofst`` modules is a layer.  ``Tracer.install`` replaces,
in the namespace of every calling module (and of the benchmark's own library
namespace), each function that module imports from another layer by a wrapper
that records a span.  A call is thus named after the layer it enters and the
name the caller imports it by; calls inside one module, such as the recursion
of ``logic.free_vars``, are not spans.

A span's self time is its duration minus the durations of the spans it
caused.  Spans are aggregated in memory by name and by benchmark phase.
"""
from __future__ import annotations

import functools
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("words", "twoway", "monoid", "logic", "fot", "lookaround", "translate", "cli")

# several entry points that do the same job are reported under one name
ALIASES = {
    "dfa_intersect": "dfa_product",
    "dfa_union": "dfa_product",
    "dfa_combine": "dfa_product",
    "eval_formula": "eval",
    "parse_text": "parse",
}


def _observe_sizes(counters, span, result):
    """Sizes and work counts read off a span's result."""
    if span == "twoway.simulate":
        counters["twoway.simulate.steps"] += len(result.run.configs) - 1
    elif span == "monoid.transition_monoid":
        counters["monoid.elements"] = max(counters["monoid.elements"], len(result.elements))
    elif span == "translate.twoway_to_fot":
        counters["translate.fot.copies"] += len(result.copies)
    elif span == "translate.fot_to_fo_lookaround":
        counters["translate.fola.transitions"] += len(result.transitions)
    elif span == "translate.fo_la_to_sf_la":
        counters["translate.sfla.states"] += len(result.states)
    elif span == "translate.sf_la_to_plain":
        counters["translate.plain.states"] += len(result.states)
    elif span == "cli.check_equiv":
        counters["cli.check_equiv.words"] += result.words_tested


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self._stack: list = []
        self._undo: list = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.phase_self_s = defaultdict(float)  # (phase, layer) -> seconds
        self.counters = defaultdict(int)

    def wrap(self, layer: str, name: str, fn):
        span = f"{layer}.{ALIASES.get(name, name)}"
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[span] += 1
                self.self_s[span] += own
                self.phase_self_s[(self.phase, layer)] += own
            _observe_sizes(self.counters, span, result)
            return result

        return traced

    def _traced_value(self, caller: str, name: str, value):
        """The traced stand-in for ``value`` as ``caller`` imports it, or None."""
        if isinstance(value, types.FunctionType):
            layer = _layer_of(value.__module__)
            if layer is not None and layer != caller:
                return self.wrap(layer, name, value)
        elif isinstance(value, types.ModuleType):
            layer = _layer_of(value.__name__)
            if layer is not None and layer != caller:
                proxy = types.SimpleNamespace(**vars(value))
                for attr, fn in vars(value).items():
                    if isinstance(fn, types.FunctionType) and fn.__module__ == value.__name__:
                        setattr(proxy, attr, self.wrap(layer, attr, fn))
                return proxy
        elif isinstance(value, type) and value.__name__ == "EvalSession":
            if _layer_of(value.__module__) == "logic" and caller != "logic":
                return type("EvalSession", (value,), {"eval": self.wrap("logic", "eval", value.eval)})
        return None

    def _patch(self, caller: str, namespace):
        for name, value in list(vars(namespace).items()):
            traced = self._traced_value(caller, name, value)
            if traced is not None:
                setattr(namespace, name, traced)
                self._undo.append((namespace, name, value))

    def install(self, library: types.SimpleNamespace):
        """Trace every layer boundary, including the benchmark's own calls
        through ``library``; ``uninstall`` restores the original functions."""
        for layer in LAYERS:
            self._patch(layer, sys.modules[f"twofst.{layer}"])
        self._patch("perfbench", library)

    def uninstall(self):
        while self._undo:
            setattr(*self._undo.pop())

    def metrics(self, names) -> dict:
        """Value of each per-layer metric name: ``<layer>.calls``,
        ``<layer>.self_s``, ``<span>.calls``, ``<span>.self_s`` or a counter."""
        out = {}
        for name in names:
            head, _, tail = name.rpartition(".")
            if name in _COUNTER_NAMES:
                out[name] = self.counters[name]
            elif head in LAYERS and tail in ("calls", "self_s"):
                table = self.calls if tail == "calls" else self.self_s
                out[name] = sum(v for k, v in table.items() if k.startswith(head + "."))
            elif tail == "calls":
                out[name] = self.calls[head]
            elif tail == "self_s":
                out[name] = self.self_s[head]
            else:
                raise KeyError(f"unknown per-layer metric {name!r}")
        return out


_COUNTER_NAMES = (
    "twoway.simulate.steps",
    "monoid.elements",
    "translate.fot.copies",
    "translate.fola.transitions",
    "translate.sfla.states",
    "translate.plain.states",
    "cli.check_equiv.words",
)


def _layer_of(module_name: str):
    package, _, layer = module_name.partition(".")
    return layer if package == "twofst" and layer in LAYERS else None
