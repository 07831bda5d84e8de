"""Span tracing around bellkit's public functions, from outside src/.

`Tracer.installed()` replaces each traced function with a wrapper in
every bellkit module namespace that binds it (a `from .spin import
build_spin_rep` in states.py binds a second name that must be patched
too), and restores the originals on exit.  Each wrapper records one
span: its calls, its inclusive time and its self time, which is the
span minus the time covered by the traced spans it caused.  A few
wrappers also count work from the arguments or results they see.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time
from collections import defaultdict

from bellkit.errors import DegenerateConditionError

# (module, function, span name); several constructors share one span
TRACED = (
    ("spin", "build_spin_rep", "spin.build_spin_rep"),
    ("spin", "spin_component", "spin.spin_component"),
    ("spin", "sign_projectors", "spin.sign_projectors"),
    ("states", "expect_product", "states.expect_product"),
    ("states", "binned_joint_probability", "states.binned_joint_probability"),
    ("states", "spin_correlation_matrix", "states.spin_correlation_matrix"),
    ("states", "maximally_entangled", "states.construct"),
    ("states", "relative_phase", "states.construct"),
    ("states", "werner", "states.construct"),
    ("states", "angular_momentum_eigenstate", "states.construct"),
    ("states", "singlet", "states.construct"),
    ("states", "rm_weighted", "states.construct"),
    ("states", "separable_mixture", "states.construct"),
    ("states", "ghz", "states.construct"),
    ("states", "dicke", "states.construct"),
    ("functionals", "chsh_value", "functionals.chsh_value"),
    ("functionals", "mermin_check", "functionals.mermin_check"),
    ("functionals", "reid_ratio", "functionals.reid_ratio"),
    ("functionals", "tura_value", "functionals.tura_value"),
    ("functionals", "cfrd_margin", "functionals.cfrd_margin"),
    ("search", "optimize_settings", "search.optimize_settings"),
    ("search", "pattern_search_max", "search.pattern_search_max"),
    ("lhv", "enumerate_lhv_bound", "lhv.enumerate_lhv_bound"),
    ("lhv", "symmetric_lhv_min", "lhv.symmetric_lhv_min"),
    ("cli", "run", "cli.run"),
    ("cli", "build_state", "cli.build_state"),
    ("cli", "emit_report", "cli.emit_report"),
)

SPANS = tuple(dict.fromkeys(
    ["states.expect_product.pure", "states.expect_product.mixed"]
    + [span for _, _, span in TRACED if span != "states.expect_product"]))

COUNTERS = ("functionals.reid_ratio.degenerate", "search.evals", "search.cap_stops",
            "lhv.strategies", "cli.bytes_out")


class Tracer:
    """Span statistics for one traced section; `reset()` starts the next."""

    def __init__(self):
        self._stack = []  # child time accumulated by each open span
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)

    def _span(self, name_of, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args)
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except DegenerateConditionError:
                if name == "functionals.reid_ratio":
                    self.counts["functionals.reid_ratio.degenerate"] += 1
                raise
            finally:
                span = time.perf_counter() - t0
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += span
                self.calls[name] += 1
                self.total_s[name] += span
                self.self_s[name] += span - children
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_pattern_search(self, args, kwargs, result):
        max_evals = kwargs["max_evals"] if "max_evals" in kwargs else args[4]
        evals = result[2]
        self.counts["search.evals"] += evals
        self.counts["search.cap_stops"] += evals >= max_evals

    def _after_enumerate(self, args, kwargs, result):
        scenario = kwargs["scenario"] if "scenario" in kwargs else args[0]
        self.counts["lhv.strategies"] += (math.prod(len(o) for o in scenario.outcomes_a)
                                          * math.prod(len(o) for o in scenario.outcomes_b))

    def _after_emit(self, args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[1]
        if path is not None and os.path.exists(path):
            self.counts["cli.bytes_out"] += os.path.getsize(path)

    def _wrap(self, fn, span):
        if span == "states.expect_product":
            return self._span(lambda args: f"{span}.{args[0].kind}", fn)
        after = {"search.pattern_search_max": self._after_pattern_search,
                 "lhv.enumerate_lhv_bound": self._after_enumerate,
                 "cli.emit_report": self._after_emit}.get(span)
        return self._span(lambda args: span, fn, after)

    @contextlib.contextmanager
    def installed(self):
        """Patch every bellkit namespace that binds a traced function."""
        import bellkit.cli  # noqa: F401  (load every module before patching)

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bellkit" or name.startswith("bellkit."))]
        patched = []
        try:
            for module_name, attr, span in TRACED:
                original = getattr(sys.modules[f"bellkit.{module_name}"], attr)
                wrapper = self._wrap(original, span)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            patched.append((module, name, original))
            yield self
        finally:
            for module, name, original in reversed(patched):
                setattr(module, name, original)

    def snapshot(self) -> dict:
        """Per-layer figures of the section since the last reset."""
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        for counter in COUNTERS:
            out[counter] = self.counts[counter]
        searched = self.total_s["search.pattern_search_max"]
        out["search.evals_per_s"] = self.counts["search.evals"] / searched if searched else 0.0
        return out
