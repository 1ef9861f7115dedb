"""Span recorder that times the package's layers from outside.

The package has no tracing of its own, so the traced benchmark run wraps the
public functions of each module (and a few ``PolySeries``/``MomentumProvider``
/``OscillatorModel`` methods) with recording wrappers.  ``cli`` and the
engine modules import functions by name (``from .hjformal import
solve_hj_formal``), so a wrapper is installed in every ``anharmonic``
module namespace that holds the original object, and methods are patched on
their class.

Spans live in memory as ``[name, start, end, parent, op]`` rows and are only
recorded while an operation is open, so the benchmark's own output checks
never show up in them.  ``layer_metrics`` turns the rows into per-layer
numbers after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "anharmonic"

# (module, attribute path, span name).  A dotted attribute path names a
# method patched on its class.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("series", "PolySeries.__mul__", "series.mul"),
    ("series", "PolySeries.to_json", "series.to_json"),
    ("model", "OscillatorModel.from_json", "model.from_json"),
    ("hjformal", "solve_hj_formal", "hjformal.solve_hj_formal"),
    ("hjformal", "sternberg_linearize", "hjformal.sternberg_linearize"),
    ("hjformal", "sternberg_residual", "hjformal.sternberg_residual"),
    ("transport", "ground_expansion", "transport.ground_expansion"),
    ("transport", "excited_expansion", "transport.excited_expansion"),
    ("closedform", "wavefunction_factors", "closedform.wavefunction_factors"),
    ("closedform", "s0_closed", "closedform.s0_closed"),
    ("closedform", "s1_closed", "closedform.s1_closed"),
    ("variational", "minimize_action", "variational.minimize_action"),
    ("variational", "MomentumProvider.momentum", "variational.momentum"),
    ("variational", "MomentumProvider.hessian", "variational.hessian"),
    ("variational", "semi_flow", "variational.semi_flow"),
    ("variational", "numeric_s1", "variational.numeric_s1"),
    ("rsoracle", "rs_expand", "rsoracle.rs_expand"),
    ("rsoracle", "compare_with_transport", "rsoracle.compare_with_transport"),
    ("resummation", "resum_series", "resummation.resum_series"),
    ("resummation", "pade_coefficients", "resummation.pade_coefficients"),
    ("resummation", "borel_pade", "resummation.borel_pade"),
    ("resummation", "reference_energy", "resummation.reference_energy"),
]

# Span name of the benchmark's own per-operation root span.
OP_SPAN = "op"


class TraceError(RuntimeError):
    """The wrappers could not be installed or did not fire as expected."""


class Tracer:
    """In-memory span and counter store with install/uninstall of wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op: int | None = None
        self._root: int | None = None
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str, parent) -> int:
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        return idx

    def begin_op(self, op: int) -> None:
        """Open the root span of operation ``op``; wrappers record under it."""
        self._op = op
        self._root = self._open(OP_SPAN, None)

    def end_op(self) -> None:
        self.spans[self._root][2] = time.perf_counter()
        self._op = None
        self._root = None

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, name: str, fn):
        hooks = _HOOKS.get(name)
        sig = inspect.signature(fn) if hooks and hooks.need_args else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            # spans opened in a worker thread have no caller on that thread:
            # they hang off the operation's root span
            idx = self._open(name, stack[-1] if stack else self._root)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if hooks and hooks.on_error:
                    hooks.on_error(self, exc)
                raise
            finally:
                stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if hooks and hooks.on_return:
                bound = sig.bind(*args, **kwargs).arguments if sig else None
                hooks.on_return(self, out, bound)
            return out

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every ``anharmonic`` module that holds it."""
        if self._restore:
            raise TraceError("wrappers are already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, path, span in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = self.wrap(span, fn)
                replacement = classmethod(wrapped) if is_cm else wrapped
                # aliases such as MomentumProvider.gradient = momentum
                for attr, value in list(cls.__dict__.items()):
                    if value is raw:
                        self._restore.append((cls, attr, raw))
                        setattr(cls, attr, replacement)
                continue
            original = getattr(mod, path)
            wrapped = self.wrap(span, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, attr, original))
                        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()


@dataclass(frozen=True)
class _Hooks:
    """Counters taken at a span: from the return value (and, with
    ``need_args``, the bound arguments) or from the exception raised."""
    on_return: Callable | None = None
    on_error: Callable | None = None
    need_args: bool = False


def _mul_terms(tracer, out, _args):
    tracer.count("series.mul.terms_out", len(out._terms))


def _newton_iters(tracer, out, _args):
    tracer.count("variational.newton_iters", out.iterations)


def _pade_stepdown(tracer, out, args):
    num, den = out
    if len(num) - 1 < args["p"] or len(den) - 1 < args["q"]:
        tracer.count("resummation.pade_stepdowns")


def _pole_rejection(tracer, exc):
    if type(exc).__name__ == "PoleOnRay":
        tracer.count("resummation.pole_rejections")


_HOOKS = {
    "series.mul": _Hooks(on_return=_mul_terms),
    "variational.minimize_action": _Hooks(on_return=_newton_iters),
    "resummation.pade_coefficients": _Hooks(on_return=_pade_stepdown,
                                            need_args=True),
    "resummation.borel_pade": _Hooks(on_error=_pole_rejection),
}


# -- analysis -----------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: the wall time during which it was innermost.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Where spans of several threads are innermost at
    once, the interval is split evenly between them, so the self times of an
    operation's spans add up to its root span's duration.
    """
    events = []
    for i, (_, start, end, _, _) in enumerate(spans):
        events.append((start, 1, i))
        events.append((end, 0, i))
    events.sort()
    out = [0.0] * len(spans)
    active: set[int] = set()
    last = None
    for t, is_start, i in events:
        if active and t > last:
            parents = {spans[j][3] for j in active}
            leaves = [j for j in active if j not in parents]
            share = (t - last) / len(leaves)
            for j in leaves:
                out[j] += share
        if is_start:
            active.add(i)
        else:
            active.discard(i)
        last = t
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed duration ``s`` and summed ``self_s``."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, _, _), own in zip(spans, selfs):
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
    return dict(totals)


def layer_metrics(spans: list[list], totals: dict, counters: dict[str, float],
                  passes: int) -> dict[str, float]:
    """Per-layer numbers per pass from the spans, their ``span_totals`` and
    the counters of ``passes`` traced passes."""

    def get(name, field):
        return totals.get(name, {}).get(field, 0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    issued = sum(1 for s in spans
                 if s[0] == "variational.minimize_action"
                 and spans[s[3]][0] == "variational.momentum")
    under_s1 = sum(1 for i, s in enumerate(spans)
                   if s[0] == "variational.minimize_action"
                   and _has_ancestor(spans, i, "variational.numeric_s1"))
    momentum_calls = totals.get("variational.momentum", {}).get("calls", 0)
    s1_calls = totals.get("variational.numeric_s1", {}).get("calls", 0)
    out = {
        "cli.self_s": get("cli.main", "self_s"),
        "series.mul.calls": get("series.mul", "calls"),
        "series.mul.s": get("series.mul", "s"),
        "series.mul.terms_out": counters.get("series.mul.terms_out", 0) / passes,
        "series.to_json.s": get("series.to_json", "s"),
        "model.from_json.s": get("model.from_json", "s"),
    }
    for name in ("hjformal.solve_hj_formal", "hjformal.sternberg_linearize",
                 "transport.ground_expansion", "transport.excited_expansion"):
        out[f"{name}.s"] = get(name, "s")
        out[f"{name}.self_s"] = get(name, "self_s")
    out["hjformal.solve_hj_formal.calls"] = get("hjformal.solve_hj_formal", "calls")
    out.update({
        "closedform.wavefunction_factors.s": get("closedform.wavefunction_factors", "s"),
        "closedform.s0_closed.calls": get("closedform.s0_closed", "calls"),
        "closedform.s1_closed.calls": get("closedform.s1_closed", "calls"),
        "variational.minimize_action.calls": get("variational.minimize_action", "calls"),
        "variational.minimize_action.s": get("variational.minimize_action", "s"),
        "variational.newton_iters": counters.get("variational.newton_iters", 0) / passes,
        "variational.momentum.calls": get("variational.momentum", "calls"),
        "variational.momentum.hit_ratio": (1.0 - issued / momentum_calls
                                           if momentum_calls else 0.0),
        "variational.hessian.calls": get("variational.hessian", "calls"),
        "variational.minimize_per_s1": ratio(under_s1, s1_calls),
        "variational.semi_flow.self_s": get("variational.semi_flow", "self_s"),
        "variational.numeric_s1.s": get("variational.numeric_s1", "s"),
        "rsoracle.rs_expand.calls": get("rsoracle.rs_expand", "calls"),
        "rsoracle.rs_expand.s": get("rsoracle.rs_expand", "s"),
        "rsoracle.compare_with_transport.s": get("rsoracle.compare_with_transport", "s"),
        "resummation.pade_coefficients.calls": get("resummation.pade_coefficients", "calls"),
        "resummation.pade_coefficients.s": get("resummation.pade_coefficients", "s"),
        "resummation.pade_stepdowns": counters.get("resummation.pade_stepdowns", 0) / passes,
        "resummation.pole_rejections": counters.get("resummation.pole_rejections", 0) / passes,
        "resummation.borel_pade.s": get("resummation.borel_pade", "s"),
        "resummation.reference_energy.calls": get("resummation.reference_energy", "calls"),
        "resummation.reference_energy.s": get("resummation.reference_energy", "s"),
    })
    return out
