"""Spans, per-function aggregates and counters for the thermophase layers.

Everything here is installed from outside the package: a wrapper replaces a
function in every ``thermophase`` module that binds it (the package imports
functions by name, e.g. ``from .grid import cg_solve``), in module-level
dicts such as ``cli._COMMANDS``, and methods on their class.  ``restore``
puts the originals back.

Each wrapped call pushes a frame that collects the time of its wrapped
children, so a function's self time is its duration minus the time its child
calls cover.  Hot leaves (the stencil, inner products, the nonlinearity
evaluations) are aggregated as count and total time; every other call also
keeps one span (id, parent, operation id, name, start, end) in memory until
``write_spans``.

Counters come from hooks on a few functions (CG iterations by operator,
Newton iterations, forward solves, gradients, optimizer iterations, bytes of
snapshots).  They do not depend on the hardware, so the untimed counting mode
and the full tracing mode must produce identical counts for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

LAYERS = ("grid", "nonlinearity", "state", "sensitivity", "control", "config", "cli",
          "snapshots")

# Methods wrapped besides the public module-level functions of each layer.
METHODS = {
    "nonlinearity": {"Potential": ("gamma_hat", "gamma", "dgamma", "d2gamma", "contains"),
                     "Coupling": ("pi_hat", "pi", "dpi", "d2pi")},
    "control": {"ReducedProblem": ("state", "cost", "gradient")},
    "config": {"ProblemConfig": ("problem", "control", "cost_spec", "admissible_set",
                                 "initial_data", "solver_options", "optimize_options")},
}

# Called up to millions of times per operation: aggregated, no span per call.
LEAVES = frozenset({
    "grid.laplacian_neumann", "grid.inner", "grid.norm",
    "control.u_inner", "control.u_norm", "control.v0_inner", "control.v0_norm",
    *(f"nonlinearity.{cls}.{m}" for cls, ms in METHODS["nonlinearity"].items() for m in ms),
})

# The CG operator is named by the function that calls cg_solve.
CG_CALLERS = {"phi_step": "phase", "_phi_solver": "phase",
              "thermal_step": "thermal", "_thermal_solver": "thermal", "solve_q": "thermal",
              "riesz_v": "riesz"}


def cg_operator(code) -> str:
    """'phase', 'thermal', 'riesz' or 'other' from the calling code object."""
    qualname = getattr(code, "co_qualname", code.co_name)
    for part in qualname.replace(".<locals>", "").split("."):
        if part in CG_CALLERS:
            return CG_CALLERS[part]
    return "other"


class Hook(NamedTuple):
    """Counter update around one wrapped call; ``enter`` returns a token for ``leave``."""

    leave: Callable
    enter: Callable | None = None
    fail: Callable | None = None


def _cg_leave(c, token, args, kwargs, result, caller):
    op = cg_operator(caller)
    c[f"cg.solves.{op}"] += 1
    c[f"cg.iters.{op}"] += result.iterations


def _cg_fail(c, caller, exc):
    c[f"cg.failed.{cg_operator(caller)}"] += 1


def _phi_step_leave(c, token, args, kwargs, result, caller):
    info = result[1]
    c["phase.steps"] += 1
    c["newton.iters"] += info.newton_iters
    c["newton.domain_guard_hits"] += info.domain_guard_hits


def _count(key):
    def leave(c, token, args, kwargs, result, caller):
        c[key] += 1
    return leave


def _state_enter(c):
    return c["forward.solves"]


def _state_leave(c, token, args, kwargs, result, caller):
    c["state_cache.calls"] += 1
    if c["forward.solves"] == token:
        c["state_cache.hits"] += 1


def _optimize_enter(c):
    return Counter(c)


def _optimize_leave(c, token, args, kwargs, result, caller):
    iters = len(result.iterates) - 1
    c["optimize.iters"] += iters
    c["optimize.forward_solves"] += c["forward.solves"] - token["forward.solves"]
    c["optimize.gradients"] += c["gradient.calls"] - token["gradient.calls"]
    # the first cost evaluation is the initial point; every later one is a trial
    c["line_search.trials"] += c["cost.calls"] - token["cost.calls"] - 1
    c["line_search.accepted"] += iters


def _write_field_leave(c, token, args, kwargs, result, caller):
    values = args[1] if len(args) > 1 else kwargs["values"]
    c["snapshots.bytes"] += 12 + 8 * np.asarray(values).size  # CGW1 header + float64 payload


HOOKS = {
    "grid.cg_solve": Hook(_cg_leave, fail=_cg_fail),
    "state.phi_step": Hook(_phi_step_leave),
    "state.solve_state": Hook(_count("forward.solves")),
    "sensitivity.adjoint_solve_discrete": Hook(_count("adjoint.calls")),
    "sensitivity.tangent_solve": Hook(_count("tangent.calls")),
    "sensitivity.tangent_transpose": Hook(_count("transpose.calls")),
    "control.ReducedProblem.state": Hook(_state_leave, enter=_state_enter),
    "control.ReducedProblem.cost": Hook(_count("cost.calls")),
    "control.ReducedProblem.gradient": Hook(_count("gradient.calls")),
    "control.optimize": Hook(_optimize_leave, enter=_optimize_enter),
    "snapshots.write_field": Hook(_write_field_leave),
}


def _targets():
    """(name, owner, attribute, function) for every wrappable callable of each layer."""
    for layer in LAYERS:
        mod = importlib.import_module(f"thermophase.{layer}")
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                yield f"{layer}.{attr}", mod, attr, obj
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name, None)
            for method in methods:
                fn = getattr(cls, "__dict__", {}).get(method)
                if callable(fn):
                    yield f"{layer}.{cls_name}.{method}", cls, method, fn


class Tracer:
    """Installs wrappers on the thermophase layers and collects what they record.

    ``install(spans=False)`` wraps only the functions that carry counter hooks
    (the counting mode of the timed runs); ``install(spans=True)`` wraps every
    target and keeps spans.  Timed sections of the benchmark itself are root
    frames opened with ``section``.
    """

    def __init__(self):
        self.counters: Counter = Counter()
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.spans: list[tuple] = []
        self.sections: list[tuple[str, float]] = []
        self.hook_errors = 0
        self.op_id = 0
        self._stack = [[0.0, -1]]  # frames: [time covered by children, span id]
        self._ids = itertools.count()
        self._keep_spans = False
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------
    def install(self, spans: bool) -> None:
        self._keep_spans = spans
        for name, owner, attr, fn in _targets():
            hook = HOOKS.get(name)
            if hook is None and not spans:
                continue
            keep = spans and name not in LEAVES
            self._replace(owner, attr, fn, self._wrap(name, fn, keep, hook))

    def restore(self) -> None:
        for kind, holder, key, orig in reversed(self._undo):
            if kind == "attr":
                setattr(holder, key, orig)
            else:
                holder[key] = orig
        self._undo.clear()
        self._keep_spans = False

    def _replace(self, owner, attr, orig, wrapper) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append(("attr", owner, attr, orig))
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "thermophase" or mod_name.startswith("thermophase.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append(("attr", mod, key, orig))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is orig:
                            value[dkey] = wrapper
                            self._undo.append(("item", value, dkey, orig))

    def _wrap(self, name, fn, keep_span, hook):
        stack, spans, counters, ids = self._stack, self.spans, self.counters, self._ids
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            caller = sys._getframe(1).f_code if hook is not None else None
            token = tracer._call_hook(hook.enter, counters) if hook and hook.enter else None
            frame = [0.0, next(ids) if keep_span else -1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None and hook.fail is not None:
                    tracer._call_hook(hook.fail, counters, caller, exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if keep_span:
                    spans.append((frame[1], parent[1], tracer.op_id, name, t0, t1))
            if hook is not None:
                tracer._call_hook(hook.leave, counters, token, args, kwargs, result, caller)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _call_hook(self, hook, *args):
        # A hook that no longer matches the program's API must not stop the
        # run or fail its checks; the miss is reported as trace.hook_errors.
        try:
            return hook(*args)
        except Exception:
            self.hook_errors += 1
            return None

    # -- timed sections of the benchmark -------------------------------------
    @contextmanager
    def section(self, name: str):
        """Time one region of a workload; a root span when spans are kept."""
        full = f"bench.{name}"
        rec = self.stats.setdefault(full, [0, 0.0, 0.0])
        frame = [0.0, next(self._ids) if self._keep_spans else -1]
        parent = self._stack[-1]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            parent[0] += dur
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[0]
            self.sections.append((name, dur))
            if self._keep_spans:
                self.spans.append((frame[1], -1, self.op_id, full, t0, t1))

    def take_sections(self) -> dict[str, float]:
        """Durations of the sections since the last call, summed by name."""
        out: dict[str, float] = {}
        for name, dur in self.sections:
            out[name] = out.get(name, 0.0) + dur
        self.sections.clear()
        return out

    def take_counters(self) -> Counter:
        out = Counter(self.counters)
        self.counters.clear()
        return out

    def reset_stats(self) -> None:
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0.0]
        self.spans.clear()

    def write_spans(self, path: str) -> None:
        """CSV of every kept span, times in seconds from the first span's start."""
        t_origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for sid, parent, op, name, t0, t1 in sorted(self.spans):
                fh.write(f"{sid},{parent},{op},{name},{t0 - t_origin:.9f},{t1 - t_origin:.9f}\n")
