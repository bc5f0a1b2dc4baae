"""Per-layer tracing of setfix from outside the library.

setfix's modules bind each other's functions by name
(``from .intervals import hausdorff``), so replacing ``setfix.intervals.hausdorff``
alone misses every call site.  ``Tracer.installed()`` puts one wrapper into
every ``setfix`` module namespace that bound the original function object, and
onto ``MultivaluedOperator`` for the two methods, and puts the originals back
on exit.

Each wrapper records calls, inclusive wall seconds and self seconds (duration
minus the time spent in wrapped calls it made).  A few functions carry an
extra counter; see ``_EXTRA``.  Wrapped calls must come from one thread:
setfix only calls them from the caller's thread.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict

#: (module, function) pairs the tracer wraps, one layer per setfix module.
#: ``cli`` is a thin front end and is not traced.
TRACED = {
    "intervals": ("hausdorff", "excess", "gap", "dist_point_to_set", "normalize"),
    "operators": ("MultivaluedOperator.eval", "MultivaluedOperator.set_image",
                  "perturb", "get_builtin"),
    "iteration": ("scan_fixed_points", "picard_orbit"),
    "certify": ("certify_contraction", "displacement_constant_L", "sup_ratio_l",
                "sup_gap_ratio_l", "retraction_displacement_check"),
    "stability": ("data_dependence_verify", "psi_mp_data_dependence",
                  "ulam_hyers_verify", "well_posedness_verify", "ostrowski_verify",
                  "quasi_contraction_verify", "unique_strict_fixed_point"),
    "scenario": ("run_scenario", "load_scenario"),
}

#: Metric names that are reported per set-up instead of per operation.
SETUP_LAYERS = ("operators.get_builtin", "operators.perturb", "scenario.load_scenario")

#: Functions whose process CPU seconds are also recorded (certify's pair
#: sweep runs on a thread pool, so its CPU time exceeds its wall time).
_CPU = ("certify.certify_contraction",)


def layer_names() -> list[str]:
    return [f"{mod}.{fn.split('.')[-1]}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Counters of one traced phase; ``begin_op``/``end_op`` delimit operations."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.cpu: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._stack: list[float] = []   # child seconds of each open wrapped call
        self._seen: dict[str, set] = defaultdict(set)
        self._op_keys: dict[int, tuple[object, str]] = {}

    # -- operations ----------------------------------------------------------

    def begin_op(self) -> None:
        self._seen.clear()
        self._op_keys.clear()

    def end_op(self) -> None:
        for name, seen in self._seen.items():
            self.extra[f"{name}.distinct"] += len(seen)
        self.ops += 1

    def _operator_key(self, op) -> str:
        # keyed by value: run_scenario builds a fresh constant comparison
        # operator per harness, which is still the same operator.  The entry
        # holds a reference so that id() stays unique within the operation.
        hit = self._op_keys.get(id(op))
        if hit is None:
            hit = (op, json.dumps(op.to_json(), sort_keys=True))
            self._op_keys[id(op)] = hit
        return hit[1]

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        extra = _EXTRA.get(name)
        cpu = name in _CPU
        sig = inspect.signature(fn)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            c0 = time.process_time() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_s[name] += dur - child
                if cpu:
                    self.cpu[name] += time.process_time() - c0
            if extra is not None:
                extra(self, name, sig, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, setfix_module):
        """Wrap every traced function at every setfix binding; restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "setfix" or n.startswith("setfix."))]
        undo: list[tuple[object, str, object]] = []
        try:
            for mod_name, fns in TRACED.items():
                mod = getattr(setfix_module, mod_name)
                for fn_path in fns:
                    name = f"{mod_name}.{fn_path.split('.')[-1]}"
                    if "." in fn_path:
                        cls_name, meth = fn_path.split(".")
                        cls = getattr(mod, cls_name)
                        orig = cls.__dict__[meth]
                        undo.append((cls, meth, orig))
                        setattr(cls, meth, self._wrap(name, orig))
                        continue
                    orig = getattr(mod, fn_path)
                    wrapper = self._wrap(name, orig)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                undo.append((m, attr, orig))
                                setattr(m, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)


# -- extra counters ------------------------------------------------------------


def _eval_key(tr: Tracer, name, sig, args, kwargs, result) -> None:
    op, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    tr._seen[name].add((tr._operator_key(op), x))


def _scan_key(tr: Tracer, name, sig, args, kwargs, result) -> None:
    b = sig.bind(*args, **kwargs)
    b.apply_defaults()
    a = b.arguments
    tr._seen[name].add((tr._operator_key(a["t"]), a["grid_n"], a["tol"]))


def _orbit_steps(tr: Tracer, name, sig, args, kwargs, result) -> None:
    tr.extra[f"{name}.steps"] += len(result.steps)


def _pairs(tr: Tracer, name, sig, args, kwargs, result) -> None:
    b = sig.bind(*args, **kwargs)
    b.apply_defaults()
    n = b.arguments["grid_n"]
    tr.extra[f"{name}.pairs"] += n * (n - 1)


def _applicable(tr: Tracer, name, sig, args, kwargs, result) -> None:
    tr.extra["stability.reports"] += len(result.stability)
    tr.extra["stability.applicable"] += sum(bool(r["applicable"]) for r in result.stability)


_EXTRA = {
    "operators.eval": _eval_key,
    "iteration.scan_fixed_points": _scan_key,
    "iteration.picard_orbit": _orbit_steps,
    "certify.certify_contraction": _pairs,
    "scenario.run_scenario": _applicable,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops: Tracer, setup: Tracer, overhead_s: float,
                  untraced_s: float) -> dict[str, float]:
    """Per-layer numbers: per operation from ``ops``, per set-up from ``setup``."""
    n = max(ops.ops, 1)
    out: dict[str, float] = {}
    for name in layer_names():
        out[f"{name}.calls"] = ops.calls[name] / n
        out[f"{name}.s"] = ops.total[name] / n
        out[f"{name}.self_s"] = ops.self_s[name] / n
    for name in SETUP_LAYERS:
        out[f"{name}.setup_s"] = setup.total[name] / max(setup.ops, 1)
    for name in ("operators.eval", "iteration.scan_fixed_points"):
        out[f"{name}.unique_frac"] = _ratio(ops.extra[f"{name}.distinct"], ops.calls[name])
    out["iteration.picard_orbit.steps"] = ops.extra["iteration.picard_orbit.steps"] / n
    out["certify.certify_contraction.pairs"] = ops.extra["certify.certify_contraction.pairs"] / n
    out["certify.certify_contraction.cpu_s"] = ops.cpu["certify.certify_contraction"] / n
    out["stability.applicable_frac"] = _ratio(ops.extra["stability.applicable"],
                                              ops.extra["stability.reports"])
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_frac"] = _ratio(overhead_s, untraced_s)
    return out
