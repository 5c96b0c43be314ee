"""In-memory span recorder wrapped around kreisslab's public functions.

Each public function of a layer module is replaced, in every kreisslab
module namespace that binds it, by a wrapper that records one span
``(name, start, end, parent)``.  Rebinding every namespace matters: a call
from ``resolvent.strong_kreiss_constant`` to ``kreiss_constant`` goes through
``kreisslab.resolvent``'s binding, not ``kreisslab.cli``'s.  Nothing under
``src/`` is edited; ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("cli", "resolvent", "norms", "fourier", "decomp", "positivity", "verify",
          "power", "reporting")

# Called per CSV cell or per objective evaluation, where a span would cost
# more than the work: fmt_cell is left alone, quadrature_points only counted.
NOT_SPANNED = {"reporting.fmt_cell"}
COUNTED = "fourier.quadrature_points"

# Metrics read from span names: calls counts spans, self_s sums self time.
SPAN_CALLS = ("norms.ascent_lower_bound", "norms.operator_p_norm",
              "resolvent.kreiss_constant", "fourier.lp_torus_norm",
              "verify.verify_factorial_sandwich", "positivity.krivine_check",
              "reporting.write_json")
SPAN_SELF = ("norms.ascent_lower_bound", "norms.operator_p_norm",
             "norms.power_norm_sequence", "resolvent.kreiss_constant",
             "resolvent.strong_kreiss_constant", "resolvent.exponential_criterion",
             "resolvent.cesaro_partial_sum_bound", "decomp.estimate_constant",
             "fourier.lp_torus_norm", "verify.sweep_appendix",
             "verify.verify_window_bounds", "positivity.krivine_check",
             "positivity.block_bound_check", "power.growth_fit",
             "power.check_universal_bounds", "reporting.write_csv")

# Counts worked out from call arguments rather than observed, labelled so.
COMPUTED = ("resolvent.grid_points", "norms.ascent_ops_bound")

_GRID_SEARCHES = {"resolvent.kreiss_constant", "resolvent.strong_kreiss_constant",
                  "resolvent.exponential_criterion"}
_WRITERS = {"reporting.write_json", "reporting.write_csv", "reporting.svg_line_chart"}
_REFINE_SEEDS = 5
_REFINE_POINTS = 81  # one 9x9 local grid per seed and round


def _grid_points(cfg) -> int:
    """(radial+1)*angular grid points plus 5 seeds x rounds x 81 refinement points."""
    grid = (cfg.radial_count + 1) * cfg.angular_count
    return grid + _REFINE_SEEDS * cfg.refine_rounds * _REFINE_POINTS


class Tracer:
    """Spans and counters for one traced pass; ``reset`` starts the next."""

    def __init__(self):
        self._bindings: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._active_estimates = 0
        self.counters = {"decomp.objective_evals": 0, "reporting.bytes_written": 0,
                         **{name: 0 for name in COMPUTED}}

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "kreisslab" or modname.startswith("kreisslab.")):
                continue
            for attr, fn in list(vars(module).items()):
                name = _span_name(attr, fn)
                if name is None:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn)
                self._bindings.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in self._bindings:
            setattr(module, attr, fn)
        self._bindings.clear()

    def _wrap(self, name: str, fn):
        if name == COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self._active_estimates:
                    self.counters["decomp.objective_evals"] += 1
                return fn(*args, **kwargs)
            return counted

        signature = inspect.signature(fn)
        observe = name in _GRID_SEARCHES or name in _WRITERS or name == "norms.ascent_lower_bound"
        is_estimate = name == "decomp.estimate_constant"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            self._active_estimates += is_estimate
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._stack.pop()
                self._active_estimates -= is_estimate
            if observe:
                self._observe(name, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def _observe(self, name: str, bound: inspect.BoundArguments, result) -> None:
        bound.apply_defaults()
        args = bound.arguments
        if name in _GRID_SEARCHES:
            if not getattr(result, "diverged", False):
                self.counters["resolvent.grid_points"] += _grid_points(args["cfg"])
        elif name == "norms.ascent_lower_bound":
            cfg = args["cfg"]
            self.counters["norms.ascent_ops_bound"] += cfg.restarts * cfg.max_steps
        else:
            self.counters["reporting.bytes_written"] += os.path.getsize(args["path"])

    # -- metrics ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        layer_s = {layer: 0.0 for layer in LAYERS}
        for (name, *_), own in zip(self.spans, self.self_times()):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            layer_s[name.split(".", 1)[0]] += own
        out: dict[str, float] = {}
        for name in SPAN_CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in SPAN_SELF:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for layer, seconds in layer_s.items():
            out[f"{layer}.self_s"] = seconds
        out.update(self.counters)
        return out


def _span_name(attr: str, fn) -> str | None:
    """'<layer>.<function>' for a public function defined in a layer module."""
    if attr.startswith("_") or not inspect.isfunction(fn):
        return None
    module = fn.__module__.rpartition(".")[2]
    if not fn.__module__.startswith("kreisslab.") or module not in LAYERS:
        return None
    name = f"{module}.{fn.__name__}"
    return None if name in NOT_SPANNED else name
