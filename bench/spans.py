"""Spans and counters recorded around calls into mmrabi's layers.

Instrumentation wraps the package's public functions as module attributes
from outside the package; nothing under ``src/`` changes.  A span carries
its name, start, end and parent index and stays in memory until the run
ends.  A span's self time is its duration minus the durations of its
children, so the self times of one traced repetition sum to its root span.

Without a tracer the instrumentation only reads the integrator's ``nfev``
and state length from each ``solve_ivp`` result: one extra Python call per
integration, which the end-to-end run can afford.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from mmrabi import cli, dynamics, hilbert, operators, solutions, spectra

ROOT = "bench.rep"
RHS = "dynamics.rhs"

# Span name -> (metric that takes its self time, metric that takes its whole
# duration).  The self-time metrics partition the root span.
SPAN_METRICS = {
    ROOT: ("bench.self_s", "trace.wall_s"),
    RHS: ("dynamics.rhs_s", None),
    "dynamics.solve_ivp": ("dynamics.integrator_self_s", "dynamics.integrate_s"),
    "dynamics.ScheduledHamiltonian.__init__": ("dynamics.hamiltonian_init_s", None),
    "dynamics.evolve_schrodinger": ("dynamics.evolve_self_s", "dynamics.evolve_schrodinger_s"),
    "dynamics.evolve_lindblad": ("dynamics.evolve_self_s", "dynamics.evolve_lindblad_s"),
    "dynamics.gap_monitor": ("dynamics.gap_monitor_s", None),
    "hilbert.enumerate_basis": ("hilbert.enumerate_s", None),
    "spectra.eigenspectrum": ("spectra.eigensolve_s", None),
    "spectra.sweep_coupling": ("spectra.sweep_self_s", None),
    "solutions.verify_eigenstate": ("solutions.verify_s", None),
}
# Functions wrapped with a plain span (the rest of SPAN_METRICS is special).
PLAIN = (
    "dynamics.evolve_schrodinger",
    "dynamics.evolve_lindblad",
    "dynamics.gap_monitor",
    "hilbert.enumerate_basis",
    "spectra.eigenspectrum",
    "spectra.sweep_coupling",
    "solutions.verify_eigenstate",
)
# Families of functions that share one pair of metrics.
FAMILIES = (
    ("cli", "cmd_", ("cli.self_s", "cli.command_s")),
    ("operators", "build_", ("operators.build_s", None)),
    ("solutions", "dark_state_", ("solutions.dark_state_s", None)),
)
LAYERS = {m.__name__.rsplit(".", 1)[1]: m for m in (cli, dynamics, hilbert, operators, solutions, spectra)}
SELF_METRICS = sorted({pair[0] for pair in SPAN_METRICS.values()} | {f[2][0] for f in FAMILIES})
HAMILTONIAN_PATHS = {
    "apply": "dynamics.h_apply_calls",
    "at": "dynamics.h_at_calls",
    "at_dense": "dynamics.h_at_dense_calls",
    "derivative_at": "dynamics.h_derivative_calls",
}

# Per-layer metrics and units.  "count" is counted at a call boundary,
# "computed" is derived from array sizes, "inferred" is a solver choice
# inferred from the input size against DENSE_THRESHOLD.
UNITS = {
    **{name: "s" for name in SELF_METRICS},
    "cli.command_s": "s",
    "dynamics.integrate_s": "s",
    "dynamics.evolve_lindblad_s": "s",
    "dynamics.evolve_schrodinger_s": "s",
    "dynamics.nfev": "count",
    "dynamics.rhs_ms": "ms",
    "dynamics.state_len": "computed",
    **{name: "count" for name in HAMILTONIAN_PATHS.values()},
    "operators.build_calls": "count",
    "operators.nnz_built": "computed",
    "hilbert.basis_states": "computed",
    "spectra.eigensolve_calls": "count",
    "spectra.dense_calls": "inferred",
    "spectra.iterative_calls": "inferred",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` plus named counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def metrics(self) -> dict:
        """Per-layer metrics of one traced repetition."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 if unit in ("s", "ms") else 0 for name, unit in UNITS.items()}
        for (name, start, end, _), covered in zip(self.spans, child):
            self_metric, total_metric = span_metrics(name)
            out[self_metric] += end - start - covered
            if total_metric:
                out[total_metric] += end - start
        out.update(self.counts)
        nfev = out["dynamics.nfev"]
        out["dynamics.rhs_ms"] = 1e3 * out["dynamics.rhs_s"] / nfev if nfev else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def span_metrics(name: str):
    if name in SPAN_METRICS:
        return SPAN_METRICS[name]
    for layer, prefix, pair in FAMILIES:
        if name.startswith(f"{layer}.{prefix}"):
            return pair
    raise KeyError(f"span {name!r} has no metric")


class Integrations:
    """``nfev`` and state length of every ``solve_ivp`` call."""

    def __init__(self):
        self.nfev = []
        self.state_len = []


def _spanned(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result

    return wrapper


def _counted(tracer: Tracer, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _solve_ivp(original, integrations: Integrations, tracer: Tracer | None):
    @functools.wraps(original)
    def wrapper(fun, t_span, y0, *args, **kwargs):
        if tracer is None:
            sol = original(fun, t_span, y0, *args, **kwargs)
        else:
            index = tracer.begin("dynamics.solve_ivp")
            try:
                sol = original(_spanned(tracer, RHS, fun), t_span, y0, *args, **kwargs)
            finally:
                tracer.end(index)
            tracer.counts["dynamics.nfev"] += sol.nfev
            tracer.counts["dynamics.state_len"] = max(tracer.counts["dynamics.state_len"], len(y0))
        integrations.nfev.append(int(sol.nfev))
        integrations.state_len.append(len(y0))
        return sol

    return wrapper


def _record_build(tracer, args, kwargs, op):
    tracer.counts["operators.build_calls"] += 1
    tracer.counts["operators.nnz_built"] += op.matrix.nnz


def _record_basis(tracer, args, kwargs, space):
    tracer.counts["hilbert.basis_states"] += space.dim


_EIGENSPECTRUM = inspect.signature(spectra.eigenspectrum)


def _record_eigensolve(tracer, args, kwargs, result):
    bound = _EIGENSPECTRUM.bind(*args, **kwargs)
    dim = bound.arguments["H"].dim
    n_levels = bound.arguments.get("n_levels") or dim
    # the test eigenspectrum applies to choose its solver
    dense = dim <= operators.DENSE_THRESHOLD or n_levels >= dim - 1
    tracer.counts["spectra.eigensolve_calls"] += 1
    tracer.counts["spectra.dense_calls" if dense else "spectra.iterative_calls"] += 1


ON_RESULT = {
    "hilbert.enumerate_basis": _record_basis,
    "spectra.eigenspectrum": _record_eigensolve,
    "operators.build_": _record_build,
}


def _replacements(tracer: Tracer | None, integrations: Integrations):
    """Original function -> wrapper, and (class, method) -> wrapper."""
    funcs = {dynamics.solve_ivp: _solve_ivp(dynamics.solve_ivp, integrations, tracer)}
    methods = {}
    if tracer is None:
        return funcs, methods
    for name in PLAIN:
        layer, _, attr = name.partition(".")
        fn = getattr(LAYERS[layer], attr)
        funcs[fn] = _spanned(tracer, name, fn, ON_RESULT.get(name))
    for layer, prefix, _ in FAMILIES:
        module = LAYERS[layer]
        for attr, fn in vars(module).items():
            if attr.startswith(prefix) and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                on_result = ON_RESULT.get(f"{layer}.{prefix}")
                funcs[fn] = _spanned(tracer, f"{layer}.{attr}", fn, on_result)
    cls = dynamics.ScheduledHamiltonian
    methods[(cls, "__init__")] = _spanned(
        tracer, "dynamics.ScheduledHamiltonian.__init__", cls.__init__
    )
    for attr, counter in HAMILTONIAN_PATHS.items():
        methods[(cls, attr)] = _counted(tracer, counter, getattr(cls, attr))
    return funcs, methods


@contextmanager
def instrumented(tracer: Tracer | None, integrations: Integrations):
    """Rebind every mmrabi module attribute that names a wrapped function."""
    funcs, methods = _replacements(tracer, integrations)
    by_id = {id(fn): wrapper for fn, wrapper in funcs.items()}
    undo = []
    modules = [m for n, m in list(sys.modules.items()) if n == "mmrabi" or n.startswith("mmrabi.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                undo.append((module, attr, value))
                setattr(module, attr, by_id[id(value)])
    for (owner, attr), wrapper in methods.items():
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
