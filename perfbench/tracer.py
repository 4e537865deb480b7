"""Outside-in span tracer for the isacwave package.

The tracer edits nothing in the package.  It replaces each public
function of the five layer modules with a timing wrapper in *every*
namespace that bound the function object, then puts the originals back.
Patching only the defining module would miss calls: ``montecarlo``
imports ``solve``, ``zero_forcing_target``, the draws and
``chirp_reference`` by name, and ``cli._RUNNERS`` holds the ``run_*``
functions from import time.  The namespaces searched are every loaded
``isacwave`` module plus every dict held directly in a module global.

Spans are kept in memory (aggregated per name, plus the first
``MAX_SPANS`` raw spans) and written by the caller when the run ends.
A span's self time is its duration minus the time its child spans
cover.  Spans recorded in forked pool workers stay in the workers and
are lost; only the parent's spans are reported.

Not thread-safe: trace one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from array import array

PACKAGE = "isacwave"
LAYERS = ("signal_model", "admm", "kpi", "montecarlo", "cli")
# the process pool is a class, not a public function; its ``with`` block
# is recorded as one span per pool start
POOL_SPAN = "montecarlo.pool"
SPAN_FIELDS = ("request", "span", "parent", "name", "start_ns", "end_ns")
MAX_SPANS = 50_000  # raw spans kept; later ones only enter the aggregates


def public_functions() -> dict:
    """Map "layer.name" to each public function defined in a layer module."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for key, value in vars(module).items():
            if (not key.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                found[f"{layer}.{key}"] = value
    return found


def package_namespaces() -> list:
    """Every loaded package module dict, plus dicts held in their globals."""
    spaces = []
    for name, module in sorted(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        namespace = vars(module)
        spaces.append(namespace)
        spaces.extend(value for key, value in namespace.items()
                      if isinstance(value, dict) and key != "__builtins__")
    return spaces


class Tracer:
    """Times calls into the package's public functions while installed."""

    def __init__(self):
        self.names: list = []
        self.calls: list = []
        self.total_ns: list = []
        self.self_ns: list = []
        self.request = 0
        self.spans = array("q")
        self._room = MAX_SPANS
        self.dropped_spans = 0
        self.solves = 0
        self.iterations = 0
        self.converged = 0
        self._index: dict = {}
        self._stack: list = []
        self._span_ids = itertools.count(1)
        self._bindings: list = []

    # --- spans ---------------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self._index[name]

    def _enter(self, index: int) -> list:
        frame = [0, next(self._span_ids)]  # child ns, span id
        self._stack.append(frame)
        frame.append(time.perf_counter_ns())
        return frame

    def _exit(self, index: int, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        duration = end - frame[2]
        self.calls[index] += 1
        self.total_ns[index] += duration
        self.self_ns[index] += duration - frame[0]
        if stack:
            stack[-1][0] += duration
        if self._room:
            self.spans.extend((self.request, frame[1],
                               stack[-1][1] if stack else 0, index,
                               frame[2], end))
            self._room -= 1
        else:
            self.dropped_spans += 1

    def _wrap(self, name: str, fn):
        index = self._name_index(name)
        enter, leave = self._enter, self._exit
        after = self._solve_done if name == "admm.solve" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(index, frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _solve_done(self, args, kwargs, result) -> None:
        """Count iterations and primal-residual convergence of one solve.

        Converged means every final primal residual is within the
        instance's feasibility tolerance (Boyd et al. 2011, section 3.3);
        a solve that ran no iterations is judged by its constraint
        violations instead.
        """
        spec = args[0] if args else kwargs.get("spec")
        self.solves += 1
        self.iterations += int(getattr(result, "iterations_run", 0))
        tolerance = getattr(spec, "feasibility_tolerance", None)
        history = getattr(result, "residual_history", None)
        if tolerance is None or history is None:
            return
        finals = [float(series[-1]) for series in
                  (getattr(history, field, ()) for field in
                   ("energy", "similarity", "papr")) if len(series)]
        if not finals:
            violations = getattr(result, "constraint_violations", None)
            finals = [violations.max()] if violations is not None else []
        if finals and max(finals) <= tolerance:
            self.converged += 1

    def _traced_pool(self, pool_class):
        index = self._name_index(POOL_SPAN)
        tracer = self

        class TracedPool(pool_class):
            def __enter__(self):
                self._span_frame = tracer._enter(index)
                return super().__enter__()

            def __exit__(self, *exc_info):
                try:
                    return super().__exit__(*exc_info)
                finally:
                    tracer._exit(index, self._span_frame)

        return TracedPool

    # --- install / restore ---------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every public layer function."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        targets = {id(fn): (name, fn)
                   for name, fn in public_functions().items()}
        from isacwave import montecarlo
        pool_class = getattr(montecarlo, "ProcessPoolExecutor", None)
        if inspect.isclass(pool_class):
            targets[id(pool_class)] = (POOL_SPAN, pool_class)
        wrappers = {}
        for namespace in package_namespaces():
            for key, value in list(namespace.items()):
                hit = targets.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                name, original = hit
                if name not in wrappers:
                    wrappers[name] = (self._traced_pool(original)
                                      if name == POOL_SPAN
                                      else self._wrap(name, original))
                self._bindings.append((namespace, key, original))
                namespace[key] = wrappers[name]

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._bindings:
            namespace, key, original = self._bindings.pop()
            namespace[key] = original

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    # --- results -------------------------------------------------------------

    def stats(self) -> dict:
        """Aggregate per name: calls, inclusive and self nanoseconds."""
        return {name: {"calls": self.calls[i], "total_ns": self.total_ns[i],
                       "self_ns": self.self_ns[i]}
                for i, name in enumerate(self.names)}

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        width = len(SPAN_FIELDS)
        return {
            "stats": self.stats(),
            "solves": {"count": self.solves, "iterations": self.iterations,
                       "converged": self.converged},
            "span_fields": list(SPAN_FIELDS),
            "span_names": list(self.names),
            "spans": [list(self.spans[i:i + width])
                      for i in range(0, len(self.spans), width)],
            "dropped_spans": self.dropped_spans,
        }
