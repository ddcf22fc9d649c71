"""Spans and counters at the layer boundaries of ctckit, installed from outside.

The package is not edited.  :class:`Tracer` replaces each public function of
the traced modules, in *every* ctckit module that holds it by name (for
example ``fixed_point_set`` in ``deutsch``, ``discontinuity``, ``selection``,
``cli`` and the package itself), with a wrapper that records a span: layer
name, start, end, parent span and operation id.  Two methods and one
constructor are wrapped on their class instead.  Spans stay in memory; the
per-layer metrics are derived from them once the traced round has ended.

:func:`count_diagnostics` is the light variant used by untraced rounds: it
only counts ``SolverDiagnostic`` raised by ``fixed_point_set``, which
``discontinuity._solve_cached`` would otherwise swallow.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("deutsch", "selection", "discontinuity", "states", "basis", "linalg", "census", "cli")

# Methods traced on their class: (module, class, attribute, span name).
_METHODS = (
    ("states", "DensityOperator", "__init__", "states.DensityOperator"),
    ("basis", "HermitianBasis", "traceless_coords", "basis.traceless_coords"),
    ("basis", "HermitianBasis", "from_traceless", "basis.from_traceless"),
)


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "ctckit" or name.startswith("ctckit."))]


def _public_functions(module):
    """Plain functions defined in ``module`` and exported by it."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        fn = getattr(module, name, None)
        if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not inspect.isgeneratorfunction(fn)):
            out.append((name, fn))
    return out


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace_everywhere(self, original, replacement):
        """Rebind ``original`` to ``replacement`` in every ctckit module."""
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def replace(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder for one traced round.

    ``op_boundary`` names the span that starts one benchmark operation (a
    gate's ``classify``, a ``cli.main`` call, a ``ctc_channel`` call); spans
    opened inside it carry its operation id, spans outside carry -1.
    """

    def __init__(self, op_boundary):
        self.op_boundary = op_boundary
        self.names = []
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.counters = Counter()
        self._stack = []
        self._current_op = -1
        self._next_op = 0
        self._patches = _Patches()

    # -- installation -----------------------------------------------------

    def install(self):
        import ctckit.deutsch as deutsch

        self._diagnostic = deutsch.SolverDiagnostic
        hooks = {
            "deutsch.fixed_point_set": (self._on_solve, self._on_solve_error),
            "selection.select": (self._on_select, None),
            "discontinuity.classify": (self._on_classify, None),
        }
        for layer in LAYERS:
            module = importlib.import_module(f"ctckit.{layer}")
            for attr, fn in _public_functions(module):
                name = f"{layer}.{attr}"
                on_result, on_error = hooks.get(name, (None, None))
                self._patches.replace_everywhere(fn, self._wrap(name, fn, on_result, on_error))
        for layer, cls_name, attr, name in _METHODS:
            cls = getattr(importlib.import_module(f"ctckit.{layer}"), cls_name)
            self._patches.replace(cls, attr, self._wrap(name, cls.__dict__[attr]))
        return self

    def uninstall(self):
        self._patches.undo()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn, on_result=None, on_error=None):
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack)
        clock = time.perf_counter
        boundary = name == self.op_boundary
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            if boundary:
                saved_op = tracer._current_op
                tracer._current_op = tracer._next_op
                tracer._next_op += 1
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer._current_op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = clock()
                stack.pop()
                if boundary:
                    tracer._current_op = saved_op
                if on_error is not None:
                    on_error(exc, fn, args, kwargs)
                raise
            ends[sid] = clock()
            stack.pop()
            if boundary:
                tracer._current_op = saved_op
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _on_solve(self, fps):
        self.counters["deutsch.solves_ok"] += 1
        self.counters["deutsch.degenerate"] += fps.k > 0
        self.counters["deutsch.cesaro_iterations"] += int(fps.residuals.get("iterations", 0))

    def _on_solve_error(self, exc, fn, args, kwargs):
        if isinstance(exc, self._diagnostic):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            self.counters["deutsch.solver_diagnostics"] += 1
            self.counters["deutsch.cesaro_iterations"] += int(bound.arguments["max_iterations"])

    def _on_select(self, sel):
        self.counters["selection.iterations"] += int(sel.iterations)
        self.counters["selection.nonconverged"] += not sel.converged

    def _on_classify(self, cls):
        self.counters["discontinuity.refinements"] += int(cls.witness.get("refinements_used", 0))

    # -- derived metrics ----------------------------------------------------

    def layer_table(self):
        """Per span name: calls, busy (inclusive) seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        child spans; a layer's self time is the sum over its spans.
        """
        n = len(self.start)
        if n == 0:
            return {}
        name = np.asarray(self.name, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            self.names[i]: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                            "self_s": float(self_s[i])}
            for i in range(k) if calls[i]
        }

    def write_spans(self, path):
        """Spans as CSV: name, start_s, end_s, parent span index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op[i]}\n")


@contextlib.contextmanager
def count_diagnostics(counter):
    """Count ``SolverDiagnostic`` from ``fixed_point_set`` into ``counter[0]``."""
    import ctckit.deutsch as deutsch

    original = deutsch.fixed_point_set
    diagnostic = deutsch.SolverDiagnostic

    @functools.wraps(original)
    def counted(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        except diagnostic:
            counter[0] += 1
            raise

    patches = _Patches()
    patches.replace_everywhere(original, counted)
    try:
        yield counter
    finally:
        patches.undo()
