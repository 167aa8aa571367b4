"""Outside-in tracer: wraps loopgas's public functions from the benchmark's side.

``install()`` replaces every public function of the loopgas modules, at every
module that binds it (``euler_inverse`` is imported by name into annulus,
observables and characters; ``partition_direct`` into observables; the package
re-exports everything), and the ``GenSeries`` methods ``__mul__``/``__rmul__``,
``__add__``, ``from_terms``, ``eval_at`` and ``to_json_dict``.  Each call
records a span (name, start, end, parent id) kept in memory until
``metrics()`` folds them into per-layer numbers.  When the tracer is off the
wrappers cost one attribute test per call.

Self time of a span is its duration minus the durations of its direct
children; spans nest because loopgas is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

MODULES = ("qseries", "params", "annulus", "characters", "observables", "boundary")

# span name -> metric prefix, where the catalogue names a layer differently
_ALIASES = {
    "qseries.GenSeries.__mul__": "qseries.mul",
    "qseries.GenSeries.__add__": "qseries.add",
    "qseries.GenSeries.from_terms": "qseries.from_terms",
    "qseries.GenSeries.eval_at": "qseries.eval_at",
    "qseries.GenSeries.to_json_dict": "qseries.serialise",
}


# module-level aliases that only forward to a traced GenSeries method
_METHOD_ALIASES = {"qseries.eval_at"}


class Tracer:
    """Span recorder.  ``spans[i] = (name, start, end, parent, error_type)``."""

    def __init__(self):
        self.on = False
        self.spans: list = []
        self.stack: list[int] = []
        self.open_names: list[str] = []
        self.counters: dict[str, float] = {}

    def add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    @contextmanager
    def active(self):
        self.on = True
        try:
            yield self
        finally:
            self.on = False

    @contextmanager
    def paused(self):
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def metrics(self) -> dict[str, float]:
        """Fold spans and counters into additive per-layer sums."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = dict(self.counters)
        for i, (name, t0, t1, parent, err) in enumerate(spans):
            key = _ALIASES.get(name, name)
            out[key + ".calls"] = out.get(key + ".calls", 0) + 1
            out[key + ".self_ms"] = out.get(key + ".self_ms", 0.0) + (t1 - t0 - child[i]) * 1e3
            if key == "qseries.mul":
                p = parent
                while p >= 0:
                    if spans[p][0] == "observables.saw_loop_dense":
                        out["observables.saw_loop_dense.child_mul_calls"] = (
                            out.get("observables.saw_loop_dense.child_mul_calls", 0) + 1)
                        break
                    p = spans[p][3]
            elif key == "annulus.partition_direct" and err == "DomainError":
                if parent >= 0 and spans[parent][0] == "annulus.duality_check":
                    out["annulus.duality_check.exact_fallbacks"] = (
                        out.get("annulus.duality_check.exact_fallbacks", 0) + 1)
        return out


def _span(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrap ``fn`` so that each call records a span named ``name``.

    ``before(args, kwargs)`` may rewrite the arguments and returns state passed
    to ``after(state, result, exc)``; both run outside the span's interval."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        state = None
        if before is not None:
            args, kwargs, state = before(args, kwargs)
        spans, stack = tracer.spans, tracer.stack
        sid = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        tracer.open_names.append(name)
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            tracer.open_names.pop()
            spans[sid] = (name, t0, t1, parent, type(exc).__name__ if exc else None)
            if after is not None:
                after(state, result, exc)

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def install(tracer: Tracer) -> None:
    """Install wrappers on every binding of loopgas's public functions."""
    pkg = importlib.import_module("loopgas")
    mods = {m: importlib.import_module(f"loopgas.{m}") for m in MODULES}
    holders = [pkg, *mods.values(), importlib.import_module("loopgas.cli")]
    qs = mods["qseries"]
    GenSeries, Backend = qs.GenSeries, qs.Backend
    DomainError = importlib.import_module("loopgas.errors").DomainError

    # exact_domain_errors: partition_direct asked for the exact backend and refused
    def direct_before(args, kwargs):
        backend = kwargs.get("backend", args[3] if len(args) > 3 else Backend.EXACT)
        return args, kwargs, backend is Backend.EXACT

    def direct_after(exact, result, exc):
        if exact and isinstance(exc, DomainError):
            tracer.add("annulus.partition_direct.exact_domain_errors", 1)

    hooks = {"annulus.partition_direct": (direct_before, direct_after)}
    # every module's public functions, at every module that binds them
    for mname, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if getattr(obj, "__wrapped_by_perfbench__", False):
                continue
            name = f"{mname}.{attr}"
            if name in _METHOD_ALIASES:
                continue
            before, after = hooks.get(name, (None, None))
            wrapped = _span(tracer, name, obj, before, after)
            for holder in holders:
                for hattr, hobj in list(vars(holder).items()):
                    if hobj is obj:
                        setattr(holder, hattr, wrapped)

    # flux sectors: count the p values annulus._flux_range returns inside flux_sum
    flux_range = mods["annulus"]._flux_range

    @functools.wraps(flux_range)
    def counted_flux_range(*args, **kwargs):
        ps = flux_range(*args, **kwargs)
        if tracer.on and tracer.open_names and tracer.open_names[-1] == "annulus.flux_sum":
            tracer.add("annulus.flux_sum.sectors", len(ps))
        return ps

    mods["annulus"]._flux_range = counted_flux_range

    # GenSeries methods
    mul = GenSeries.__mul__

    def mul_before(args, kwargs):
        a, b = args[0], args[1]
        return args, kwargs, (len(a) * len(b) if isinstance(b, GenSeries) else 0)

    wrapped_mul = _span(tracer, "qseries.GenSeries.__mul__", mul, mul_before,
                        lambda st, r, e: tracer.add("qseries.mul.pairs", st))
    GenSeries.__mul__ = wrapped_mul
    GenSeries.__rmul__ = wrapped_mul
    GenSeries.__add__ = _span(tracer, "qseries.GenSeries.__add__", GenSeries.__add__)
    GenSeries.eval_at = _span(tracer, "qseries.GenSeries.eval_at", GenSeries.eval_at)

    def ser_after(state, result, exc):
        if result is not None:
            tracer.add("qseries.serialise.bytes", len(json.dumps(result)))

    GenSeries.to_json_dict = _span(tracer, "qseries.GenSeries.to_json_dict",
                                   GenSeries.to_json_dict, None, ser_after)

    from_terms = GenSeries.__dict__["from_terms"].__func__

    def ft_before(args, kwargs):
        args = list(args)
        if args and not hasattr(args[0], "__len__"):
            args[0] = list(args[0])
        n_in = len(args[0]) if args else len(kwargs["pairs"])
        return tuple(args), kwargs, n_in

    def ft_after(n_in, result, exc):
        tracer.add("qseries.from_terms.terms_in", n_in)
        if result is not None:
            tracer.add("qseries.from_terms.terms_out", len(result))

    GenSeries.from_terms = staticmethod(
        _span(tracer, "qseries.GenSeries.from_terms", from_terms, ft_before, ft_after))


def layer_metrics(sums: dict[str, float], names) -> dict[str, float]:
    """Project additive sums onto the catalogue names (missing ones are 0)."""
    out = {}
    for name in names:
        if name == "qseries.from_terms.keep_ratio":
            t_in = sums.get("qseries.from_terms.terms_in", 0)
            out[name] = sums.get("qseries.from_terms.terms_out", 0) / t_in if t_in else 0.0
        else:
            out[name] = sums.get(name, 0)
    return out
