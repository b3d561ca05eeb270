"""Span tracer that wraps the package's layer functions from outside.

A :class:`Tracer` replaces each target function with a wrapper that records
one span per call: a name id, start and end (``time.perf_counter``), the index
of the enclosing span, and whether the call raised. The replacement is made
in every loaded ``kirchhoff_spectral`` module that holds a reference to the
original, and in every dict such a module holds (a suite registry), so a name
imported with ``from .x import f`` is traced too. Spans
stay in memory until :meth:`Tracer.spans` hands them out; leaving the
``with`` block restores every original reference.

:func:`self_times` gives each span's duration minus the union of its
children's intervals, the quantity behind every ``self`` metric.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "kirchhoff_spectral"
ROOT_PARENT = -1


class TraceError(RuntimeError):
    """A target is missing, or an expected layer recorded no calls."""


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner`` is a module path, optionally ``module:Class``.

    ``everywhere`` patches every package module that imported the function by
    name, and every module-level dict that lists it; otherwise only the
    reference held by ``owner`` is replaced.
    """

    span: str
    owner: str
    attr: str
    everywhere: bool = True


@dataclass
class Spans:
    names: list[str]
    name_of: list[int]
    parent: list[int]
    start: list[float]
    end: list[float]
    raised: set[int]
    steps: list[tuple[int, int]]  # (accepted, rejected) per integrate span, in order

    def __len__(self) -> int:
        return len(self.start)


# the package's layers, outermost first
TARGETS = (
    Target("cli.main", "kirchhoff_spectral.cli", "main"),
    Target("suites.quartic", "kirchhoff_spectral.suites", "measure_quartic_constant"),
    Target("suites.neumann-vs-dense", "kirchhoff_spectral.suites", "suite_neumann_vs_dense"),
    Target("integrate", "kirchhoff_spectral.integrate", "integrate"),
    Target("dynamics.rhs_original", "kirchhoff_spectral.dynamics:KirchhoffDynamics", "rhs"),
    Target("dynamics.rhs_normal_form", "kirchhoff_spectral.dynamics:NormalFormDynamics", "rhs"),
    Target("normal_form.rhs", "kirchhoff_spectral.normal_form", "normal_form_rhs_arrays"),
    Target("normal_form.rhs", "kirchhoff_spectral.normal_form", "normal_form_rhs"),
    Target("coupling.solve", "kirchhoff_spectral.coupling", "solve_jacobian_arrays"),
    Target("coupling.jac", "kirchhoff_spectral.coupling", "jac_arrays"),
    Target("coupling.dense", "kirchhoff_spectral.coupling", "dense_jacobian_matrix"),
    Target("transforms.cov", "kirchhoff_spectral.transforms", "change_of_variables"),
    Target("transforms.cubic_inv", "kirchhoff_spectral.transforms", "cubic_stage_inverse_arrays"),
    # one span per fixed-point iteration of the cubic-stage inverse (and per
    # forward cubic stage); only the transforms module's reference is wrapped
    Target("transforms.mix", "kirchhoff_spectral.transforms", "mix_arrays", everywhere=False),
    Target("grid.build", "kirchhoff_spectral.grid:SpectralGrid", "__init__"),
)
MONITOR_SPAN = "integrate.monitor"


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    module = importlib.import_module(module_name)
    if not cls:
        return module
    if not hasattr(module, cls):
        raise TraceError(f"{module_name} has no class {cls!r}")
    return getattr(module, cls)


class Tracer:
    """Context manager: patch the targets on entry, restore them on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        # (holder, key, original): holder is a module, class or dict
        self._patches: list[tuple[object, str, object]] = []
        # name ids are fixed when a wrapper is built and outlive span buffers
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._clear()

    def _clear(self) -> None:
        self._name_of: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._raised: set[int] = set()
        self._steps: list[tuple[int, int]] = []
        self._stack = [ROOT_PARENT]

    def spans(self) -> Spans:
        """Hand out the spans recorded so far and start afresh."""
        if len(self._stack) != 1:
            raise TraceError("spans requested while a traced call is still open")
        out = Spans(
            list(self._names), self._name_of, self._parent, self._start, self._end,
            self._raised, self._steps,
        )
        self._clear()
        return out

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """A traced version of ``fn``; the hooks may rewrite arguments or read the result."""
        sid = self._id(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            idx = len(self._start)
            self._name_of.append(sid)
            self._parent.append(self._stack[-1])
            self._end.append(0.0)
            self._stack.append(idx)
            self._start.append(perf())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._raised.add(idx)
                raise
            finally:
                self._end[idx] = perf()
                self._stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _integrate_hooks(self):
        def on_call(args, kwargs):
            # integrate(evaluator, state0, config, monitors=None, t_eval=None)
            if "monitors" in kwargs:
                kwargs = dict(kwargs, monitors=self._wrap_monitors(kwargs["monitors"]))
            elif len(args) > 3:
                args = args[:3] + (self._wrap_monitors(args[3]),) + args[4:]
            return args, kwargs

        def on_return(rec):
            self._steps.append((rec.n_steps, rec.n_rejected))

        return on_call, on_return

    def _wrap_monitors(self, monitors):
        if not monitors:
            return monitors
        return {k: self.wrap(MONITOR_SPAN, fn) for k, fn in monitors.items()}

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, target: Target) -> None:
        owner = _resolve(target.owner)
        # vars(): a method inherited from a base class would not be traced
        original = vars(owner).get(target.attr)
        if not callable(original):
            raise TraceError(f"{target.owner} has no function {target.attr!r}")
        if getattr(original, "__wrapped_by_tracer__", False):
            raise TraceError(f"{target.owner}.{target.attr} is already traced")
        hooks = self._integrate_hooks() if target.span == "integrate" else (None, None)
        wrapper = self.wrap(target.span, original, *hooks)
        holders = [owner]
        if target.everywhere and isinstance(owner, type(sys)):
            holders = [
                mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
            ]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
                elif target.everywhere and isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, original))
                            value[key] = wrapper

    def _restore(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()


def self_times(start, end, parent) -> list[float]:
    """Per span: its duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval and merged before
    they are subtracted, so overlapping or overhanging children are not
    counted twice.
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p != ROOT_PARENT:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        reach = lo
        for k in sorted(kids, key=start.__getitem__):
            a = max(start[k], reach)
            b = min(end[k], hi)
            if b > a:
                covered += b - a
                reach = b
        out[p] -= covered
    return out


# -- per-layer metrics -----------------------------------------------------------

WORK, TIME, CHECK, OVERHEAD = "work", "time", "check", "overhead"

PER_LAYER = (
    # name, unit, better, kind
    ("integrate.steps", "count", "lower", WORK),
    ("integrate.rejected", "count", "lower", WORK),
    ("integrate.accept_ratio", "1", "higher", WORK),
    ("integrate.rhs_per_step", "1", "lower", WORK),
    ("integrate.self_us_per_step", "us", "lower", TIME),
    ("integrate.monitor_s", "s", "lower", TIME),
    ("dynamics.rhs_original.calls", "count", "lower", WORK),
    ("dynamics.rhs_original.us", "us", "lower", TIME),
    ("dynamics.rhs_normal_form.calls", "count", "lower", WORK),
    ("dynamics.rhs_normal_form.us", "us", "lower", TIME),
    ("normal_form.self_us", "us", "lower", TIME),
    ("coupling.solve.calls", "count", "lower", WORK),
    ("coupling.solve.us", "us", "lower", TIME),
    ("coupling.solve.per_rhs", "1", "lower", WORK),
    ("coupling.solve.failed", "count", "lower", WORK),
    ("coupling.jac.calls", "count", "lower", WORK),
    ("coupling.jac.us", "us", "lower", TIME),
    ("coupling.jac.per_solve", "1", "lower", WORK),
    ("transforms.cov.calls", "count", "lower", WORK),
    ("transforms.cov.us", "us", "lower", TIME),
    ("transforms.cov.failed", "count", "lower", WORK),
    ("transforms.cubic_inv.calls", "count", "lower", WORK),
    ("transforms.cubic_inv.us", "us", "lower", TIME),
    ("transforms.cubic_inv.iters", "1", "lower", WORK),
    ("grid.builds", "count", "lower", WORK),
    ("grid.build_ms", "ms", "lower", TIME),
    ("coupling.dense.calls", "count", "lower", WORK),
    ("coupling.dense.ms", "ms", "lower", TIME),
    ("cli.main.self_ms", "ms", "lower", TIME),
    ("suites.quartic.self_ms", "ms", "lower", TIME),
    ("suites.neumann-vs-dense.s", "s", "lower", TIME),
    ("check.max_norm_ratio", "1", "lower", CHECK),
    ("check.cstar_spread", "1", "lower", CHECK),
    ("check.worst_defect_over_bound", "1", "lower", CHECK),
    ("trace.overhead", "1", "lower", OVERHEAD),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans) -> dict[str, float]:
    """The work and time metrics of one traced repetition (no check or overhead metrics)."""
    names = spans.names
    selfs = self_times(spans.start, spans.end, spans.parent)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    raised: dict[str, int] = {}
    edges: dict[tuple[str, str], int] = {}
    for i in range(len(spans)):
        name = names[spans.name_of[i]]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (spans.end[i] - spans.start[i])
        own[name] = own.get(name, 0.0) + selfs[i]
        p = spans.parent[i]
        if p != ROOT_PARENT:
            edge = (names[spans.name_of[p]], name)
            edges[edge] = edges.get(edge, 0) + 1
    for i in spans.raised:
        name = names[spans.name_of[i]]
        raised[name] = raised.get(name, 0) + 1

    def n(name):
        return calls.get(name, 0)

    def per_call(name, scale):
        return _ratio(total.get(name, 0.0), n(name)) * scale

    def under(parent, child):
        return edges.get((parent, child), 0)

    accepted = sum(a for a, _ in spans.steps)
    rejected = sum(r for _, r in spans.steps)
    attempted = accepted + rejected
    rhs_direct = under("integrate", "dynamics.rhs_original") + under(
        "integrate", "dynamics.rhs_normal_form"
    )
    out = {
        "integrate.steps": accepted,
        "integrate.rejected": rejected,
        "integrate.accept_ratio": _ratio(accepted, attempted),
        "integrate.rhs_per_step": _ratio(rhs_direct, attempted),
        "integrate.self_us_per_step": _ratio(own.get("integrate", 0.0), attempted) * 1e6,
        "integrate.monitor_s": total.get(MONITOR_SPAN, 0.0),
        "dynamics.rhs_original.calls": n("dynamics.rhs_original"),
        "dynamics.rhs_original.us": per_call("dynamics.rhs_original", 1e6),
        "dynamics.rhs_normal_form.calls": n("dynamics.rhs_normal_form"),
        "dynamics.rhs_normal_form.us": per_call("dynamics.rhs_normal_form", 1e6),
        "normal_form.self_us": _ratio(own.get("normal_form.rhs", 0.0), n("normal_form.rhs")) * 1e6,
        "coupling.solve.calls": n("coupling.solve"),
        "coupling.solve.us": per_call("coupling.solve", 1e6),
        "coupling.solve.per_rhs": _ratio(
            under("normal_form.rhs", "coupling.solve"), n("normal_form.rhs")
        ),
        "coupling.solve.failed": raised.get("coupling.solve", 0),
        "coupling.jac.calls": n("coupling.jac"),
        "coupling.jac.us": per_call("coupling.jac", 1e6),
        "coupling.jac.per_solve": _ratio(under("coupling.solve", "coupling.jac"), n("coupling.solve")),
        "transforms.cov.calls": n("transforms.cov"),
        "transforms.cov.us": per_call("transforms.cov", 1e6),
        "transforms.cov.failed": raised.get("transforms.cov", 0),
        "transforms.cubic_inv.calls": n("transforms.cubic_inv"),
        "transforms.cubic_inv.us": per_call("transforms.cubic_inv", 1e6),
        "transforms.cubic_inv.iters": _ratio(
            under("transforms.cubic_inv", "transforms.mix"), n("transforms.cubic_inv")
        ),
        "grid.builds": n("grid.build"),
        "grid.build_ms": per_call("grid.build", 1e3),
        "coupling.dense.calls": n("coupling.dense"),
        "coupling.dense.ms": per_call("coupling.dense", 1e3),
        "cli.main.self_ms": _ratio(own.get("cli.main", 0.0), n("cli.main")) * 1e3,
        "suites.quartic.self_ms": _ratio(own.get("suites.quartic", 0.0), n("suites.quartic")) * 1e3,
        "suites.neumann-vs-dense.s": total.get("suites.neumann-vs-dense", 0.0),
    }
    return out


def span_calls(spans: Spans) -> dict[str, int]:
    """Number of spans recorded per name."""
    counts: dict[str, int] = {}
    for sid in spans.name_of:
        name = spans.names[sid]
        counts[name] = counts.get(name, 0) + 1
    return counts
