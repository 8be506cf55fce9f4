"""Span tracer that wraps npivlab's public functions from outside the package.

Every public function defined in an ``npivlab.*`` module is replaced, in every
``npivlab`` module that binds its name, by one wrapper that records a span.
The package's modules import names from each other (``harness`` binds
``check_shape``, ``estimators`` binds ``apply``), so patching only the
defining module would miss most calls.

LAPACK entry points of ``numpy.linalg`` and the ``nnls`` that ``estimators``
imports are wrapped as external spans. Each is credited to the innermost open
layer span of its thread, as ``<module>.linalg_<fn>`` or ``<module>.nnls``, so
that ``make_grid``'s ``eigvalsh`` (through ``leggauss``) is kept apart from the
solvers' ``eigvalsh``. External calls made inside another external call are
not counted.

A span's self time is its duration minus the durations of its child spans in
the same thread. Stacks are kept per thread, so a child in a pool thread is
not subtracted from the main thread's ``run_experiment``: that self time
includes the wait for the pool.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from collections import Counter
from time import perf_counter_ns

PACKAGE = "npivlab"
# The entry point is timed as a whole by the caller (run_s); the layers are
# the modules below it.
ENTRY_MODULE = "npivlab.cli"
LAPACK_FUNCTIONS = ("svd", "eigvalsh", "solve", "qr", "lstsq")
# Spans in these modules are bookkeeping, not work, for the busy-time ratio.
NON_WORK_MODULES = {"harness"}


class _Frame:
    __slots__ = ("module", "external", "child_ns")

    def __init__(self, module, external):
        self.module = module
        self.external = external
        self.child_ns = 0


class Tracer:
    """Wraps functions on install(), restores the originals on restore()."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.converged = Counter()
        self.raised = Counter()
        self.busy_ns = 0

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local
        except AttributeError:
            local.stack = []
            local.work_depth = 0
            return local.stack, local

    def _span(self, name, module, external, fn, args, kwargs):
        stack, local = self._state()
        frame = _Frame(module, external)
        work = not external and module not in NON_WORK_MODULES
        outermost_work = work and local.work_depth == 0
        if work:
            local.work_depth += 1
        stack.append(frame)
        result = None
        raised = None
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            raised = type(exc).__name__
            raise
        finally:
            elapsed = perf_counter_ns() - start
            stack.pop()
            if work:
                local.work_depth -= 1
            if stack:
                stack[-1].child_ns += elapsed
            with self._lock:
                self.calls[name] += 1
                self.self_ns[name] += elapsed - frame.child_ns
                self.total_ns[name] += elapsed
                if outermost_work:
                    self.busy_ns += elapsed
                if raised is not None:
                    self.raised[f"{name}.{raised}"] += 1
                elif getattr(result, "converged", None) is True:
                    self.converged[name] += 1

    def _layer(self, fn):
        module = fn.__module__[len(PACKAGE) + 1:]
        name = f"{module}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, module, False, fn, args, kwargs)

        return wrapper

    def _external(self, short, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, _ = self._state()
            if stack and stack[-1].external:
                return fn(*args, **kwargs)
            owner = stack[-1].module if stack else "outside"
            return self._span(f"{owner}.{short}", owner, True, fn, args, kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every public npivlab function and the external solvers."""
        import numpy.linalg
        from scipy.optimize import nnls

        externals = {nnls: self._external("nnls", nnls)}
        for fn_name in LAPACK_FUNCTIONS:
            original = getattr(numpy.linalg, fn_name)
            externals[original] = self._external(f"linalg_{fn_name}", original)
            self._patch(numpy.linalg, fn_name, externals[original])

        layers = {}
        modules = [
            mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if home.startswith(PACKAGE + ".") and home != ENTRY_MODULE:
                    if obj not in layers:
                        layers[obj] = self._layer(obj)
                    self._patch(mod, attr, layers[obj])
                elif obj in externals:
                    self._patch(mod, attr, externals[obj])

    def restore(self):
        """Put every original back; return the bindings that did not restore."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        leftover = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if getattr(owner, attr) is not original
        ]
        self._patches.clear()
        return leftover

    def summary(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
                "total_s": {k: v / 1e9 for k, v in self.total_ns.items()},
                "converged": dict(self.converged),
                "raised": dict(self.raised),
                "busy_s": self.busy_ns / 1e9,
            }
