"""Layer tracing from outside the program.

The tracer swaps wrappers onto roughmor's functions under the names their
calling modules bind them (``roughmor.cli.two_stage_reduce``,
``roughmor.reduction.solve_algebraic_gramian``, ...), so no file under
``src/`` changes. Each wrapper records a span (name, start, end, parent)
and bumps counters; ``uninstall`` puts the original functions back.

Span names are ``<layer>.<what>`` with the layer named after the module that
does the work. Self time of a span is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _order(model) -> int:
    # rough_rk_simulate takes a BilinearRoughSystem or a ReducedModel
    return getattr(model, "system", model).n


def _sim_attrs(bound, result):
    return {"n": _order(bound["model"]), "steps": bound["path"].M}


def _build_attrs(bound, result):
    return {"n": bound["cfg"].n}


def _solve_attrs(bound, result):
    return {"sweeps": result.iterations}


def _mc_attrs(bound, result):
    sys, side = bound["sys"], bound["side"]
    runs = 1 if side == "reach" else int((abs(sys.C).sum(axis=1) > 0).sum())
    steps = int(round(bound["T"] / bound["dt"]))
    return {"path_steps": runs * bound["n_paths"] * steps}


def _write_attrs(bound, result):
    return {"bytes": len(bound["text"].encode())}


# (module, attribute, span name, attrs extractor or None). One entry per
# binding a call goes through; a function bound in several modules appears
# once per module.
_WRITERS = ("write_path_csv", "write_spectrum_csv", "write_stage_metadata_csv",
            "write_trajectory_csv", "write_error_csv", "_write_summary",
            "_echo_config")
SPAN_HOOKS = [
    ("roughmor.cli", "main", "cli.main", None),
    ("roughmor.cli", "build_heat1d", "heat.build", _build_attrs),
    ("roughmor.cli", "is_mean_square_stable", "system.gate", None),
    ("roughmor.gramians", "is_mean_square_stable", "system.gate", None),
    ("roughmor.reduction", "solve_algebraic_gramian", "gramians.solve",
     _solve_attrs),
    ("roughmor.gramians", "monte_carlo_second_moment", "gramians.mc",
     _mc_attrs),
    ("roughmor.gramians", "integrate_gramian_ode", "gramians.ode", None),
    ("roughmor.cli", "two_stage_reduce", "reduction.two_stage", None),
    ("roughmor.reduction", "truncate_psd_spectrum", "reduction.truncate", None),
    ("roughmor.reduction", "project_system", "reduction.project", None),
    ("roughmor.cli", "sample_fbm_path", "drivers.fbm", None),
    ("roughmor.cli", "rough_rk_simulate", "solver.sim", _sim_attrs),
    ("roughmor.solver", "lu_factor", "solver.lu", None),
    ("roughmor.cli", "relative_L2_error", "solver.error", None),
    ("roughmor.cli", "pointwise_relative_error", "solver.error", None),
    ("roughmor.cli", "atomic_write_text", "cli.write", _write_attrs),
] + [("roughmor.cli", name, "cli.write", None) for name in _WRITERS]

# Hot calls that only bump a counter: a span per Lyapunov solve would cost
# more than the bookkeeping is worth. Every module that writes artifacts
# binds atomic_write_text, so bytes are counted wherever the write happens.
COUNT_HOOKS = [
    ("roughmor._lyap", "SchurLyapunov.solve_neg", "gramians.lyap_solves",
     None),
] + [(module, "atomic_write_text", "cli.bytes_written", _write_attrs)
     for module in ("roughmor.drivers", "roughmor.gramians",
                    "roughmor.reduction", "roughmor.solver")]


def _resolve(module_name, dotted):
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span recorded by the benchmark itself."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _wrap(self, fn, name, attrs_of):
        signature = inspect.signature(fn) if attrs_of else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if attrs_of:
                bound = signature.bind(*args, **kwargs).arguments
                span.attrs = attrs_of(bound, result)
            return result
        return wrapper

    def _count(self, fn, name, attrs_of):
        signature = inspect.signature(fn) if attrs_of else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if attrs_of:
                for value in attrs_of(signature.bind(*args, **kwargs)
                                      .arguments, result).values():
                    self.counts[name] += value
            else:
                self.counts[name] += 1
            return result
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for hooks, make in ((SPAN_HOOKS, self._wrap),
                            (COUNT_HOOKS, self._count)):
            for module_name, dotted, name, attrs_of in hooks:
                owner, attr = _resolve(module_name, dotted)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(original, name, attrs_of))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()


def outermost_time(spans, name):
    """Total time in spans called ``name``; nested ones count once."""
    return sum(s.duration for s in spans
               if s.name == name and not _nested_in(spans, s, name))


def self_times(spans):
    """Self time per span name: each span's time minus its children's."""
    out = Counter()
    for span in spans:
        out[span.name] += span.duration
        if span.parent >= 0:
            out[spans[span.parent].name] -= span.duration
    return out


def _nested_in(spans, span, name):
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
