"""Span tracing of the acdyn layers, installed from outside the package.

``Tracer.install`` wraps, for the duration of one traced call,

* every public module-level function of each ``acdyn`` module,
* the public methods of ``acdyn.stepper.StepOperator``,
* ``scipy.sparse.linalg.splu``, whose factor is returned behind a proxy
  that times ``solve``.

Patching is by identity: every name bound to a wrapped function, in any
``acdyn`` module or in ``scipy.sparse.linalg``, is replaced, so the
``from ... import`` copies in ``cli``, ``scenario``, ``stepper`` and the
package ``__init__`` are covered whatever the import order was.
``Tracer.restore`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, thread]`` and
written out by ``write_spans``.  A span opened on a worker thread with
no open span of its own is parented to the open harness span
(``continuous_dependence`` or ``eps_sweep``) that submitted it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import threading
import time

import scipy.sparse.linalg as spla

MARK = "__perfbench_wrapped__"
HARNESS_SPANS = ("diagnostics.continuous_dependence", "diagnostics.eps_sweep")


def acdyn_modules() -> list:
    """The ``acdyn`` package and every one of its submodules, imported."""
    pkg = importlib.import_module("acdyn")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"acdyn.{info.name}"))
    return mods


def is_wrapped(obj) -> bool:
    return getattr(obj, MARK, False)


def wrapped_names() -> list[str]:
    """Names in ``acdyn`` modules, their classes and ``scipy.sparse.linalg``
    still bound to a tracing wrapper; empty after a clean restore."""
    left = []
    for mod in [spla, *acdyn_modules()]:
        for name, val in vars(mod).items():
            if is_wrapped(val):
                left.append(f"{mod.__name__}.{name}")
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for attr, meth in vars(val).items():
                    if is_wrapped(meth):
                        left.append(f"{mod.__name__}.{name}.{attr}")
    return left


class _FactorProxy:
    """A SuperLU factor whose ``solve`` calls are recorded as spans."""

    __slots__ = ("_factor", "_tracer")

    def __init__(self, factor, tracer: "Tracer") -> None:
        self._factor = factor
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("stepper.lu_solve", self._factor.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._factor, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.lu_fill: list[int] = []
        self.step_active: list[bool] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._harness: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is not threading.main_thread() and self._harness:
            parent = self._harness[-1]
        else:
            parent = -1
        span = [name, 0.0, 0.0, parent, threading.get_ident()]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        harness = name in HARNESS_SPANS
        if harness:
            self._harness.append(sid)
        stack.append(sid)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            if harness:
                self._harness.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        if fn is spla.splu:
            def wrapper(*args, **kwargs):
                factor = tracer.call(name, fn, args, kwargs)
                tracer.lu_fill.append(int(factor.nnz))
                return _FactorProxy(factor, tracer)
        elif name == "stepper.step":
            def wrapper(*args, **kwargs):
                rec = tracer.call(name, fn, args, kwargs)
                tracer.step_active.append(rec.lam != 0.0)
                return rec
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, True)
        return wrapper

    # -- installation -------------------------------------------------------

    def _targets(self, mods) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every traced callable."""
        targets = {id(spla.splu): (spla.splu, self._wrap("stepper.lu", spla.splu))}
        for mod in mods:
            layer = mod.__name__.rpartition(".")[2]
            for name, val in vars(mod).items():
                if (
                    inspect.isfunction(val)
                    and val.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    targets[id(val)] = (val, self._wrap(f"{layer}.{name}", val))
        return targets

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = acdyn_modules()
        targets = self._targets(mods)
        for mod in [spla, *mods]:
            for name, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, name, hit[1])
        step_op = importlib.import_module("acdyn.stepper").StepOperator
        for name, val in list(vars(step_op).items()):
            if inspect.isfunction(val) and not name.startswith("_"):
                self._patch(step_op, name, self._wrap(f"stepper.{name}", val))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((t0, t1))
        out = []
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out.append((t1 - t0) - covered)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start,end,parent,thread\n")
            for sid, (name, t0, t1, parent, thread) in enumerate(self.spans):
                fh.write(f"{sid},{name},{t0!r},{t1!r},{parent},{thread}\n")

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json (values only)."""
        self_s = self.self_times()
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for (name, t0, t1, _, _), s in zip(self.spans, self_s):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (t1 - t0)
            own[name] = own.get(name, 0.0) + s

        def n(name):
            return calls.get(name, 0)

        steps = max(n("stepper.step"), 1)  # ratios read 0 when nothing stepped
        step_ms = [1e3 * (t1 - t0) for name, t0, t1, _, _ in self.spans if name == "stepper.step"]
        if len(step_ms) > 1:
            p50 = statistics.median(step_ms)
            p90 = statistics.quantiles(step_ms, n=10, method="inclusive")[8]
        else:
            p50 = p90 = sum(step_ms)
        constraint = [k for k in calls if k.startswith("constraint.")]
        m = {
            "scenario.validate.calls": n("scenario.validate"),
            "scenario.validate.s": total.get("scenario.validate", 0.0),
            "scenario.build_problem.calls": n("scenario.build_problem"),
            "scenario.build_problem.self_s": own.get("scenario.build_problem", 0.0),
            "mesh.assemble.calls": n("mesh.assemble"),
            "mesh.assemble.s": total.get("mesh.assemble", 0.0),
        }
        for g in ("yosida", "yosida_slope", "moreau"):
            m[f"graphs.{g}.calls"] = n(f"graphs.{g}")
            m[f"graphs.{g}.s"] = total.get(f"graphs.{g}", 0.0)
        m["constraint.calls"] = sum(calls[k] for k in constraint)
        m["constraint.s"] = sum(total[k] for k in constraint)
        m.update({
            "stepper.step.calls": n("stepper.step"),
            "stepper.step.self_s": own.get("stepper.step", 0.0),
            "stepper.step_ms.p50": p50,
            "stepper.step_ms.p90": p90,
            "stepper.active_share": sum(self.step_active) / steps,
            "stepper.inner_solves_per_step": n("stepper.solve_fixed_lambda") / steps,
            "stepper.jacobian.calls": n("stepper.jacobian"),
            "stepper.jacobian.self_s": own.get("stepper.jacobian", 0.0),
            "stepper.residual.calls": n("stepper.residual"),
            "stepper.residual.self_s": own.get("stepper.residual", 0.0),
            "stepper.simulate.s": total.get("stepper.simulate", 0.0),
            "stepper.lu.calls": n("stepper.lu"),
            "stepper.lu.s": total.get("stepper.lu", 0.0),
            "stepper.lu.per_step": n("stepper.lu") / steps,
            "stepper.lu.fill_nnz": statistics.fmean(self.lu_fill) if self.lu_fill else 0.0,
            "stepper.lu_solve.calls": n("stepper.lu_solve"),
            "stepper.lu_solve.s": total.get("stepper.lu_solve", 0.0),
            "diagnostics.harness.self_s": sum(own.get(h, 0.0) for h in HARNESS_SPANS),
            "diagnostics.parallel_eff": self._parallel_eff(),
            "cli.self_s": own.get("cli.main", 0.0),
        })
        return m

    def _parallel_eff(self) -> float:
        """Busy seconds of the runs a harness submitted over threads x pool wall.

        The pool wall runs from the first run's start to the last run's
        end; threads counts the distinct threads that ran them.  0 when no
        harness ran.
        """
        busy = capacity = 0.0
        for sid, span in enumerate(self.spans):
            if span[0] not in HARNESS_SPANS:
                continue
            runs = [s for s in self.spans if s[3] == sid and s[0] == "stepper.simulate"]
            if not runs:
                continue
            busy += sum(t1 - t0 for _, t0, t1, _, _ in runs)
            wall = max(s[2] for s in runs) - min(s[1] for s in runs)
            capacity += len({s[4] for s in runs}) * wall
        return busy / capacity if capacity > 0.0 else 0.0
