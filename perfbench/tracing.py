"""Spans around calls into echo-gfa's layers, recorded from outside the program.

The tracer replaces public functions of the package's modules with wrappers
that record a span (name, start, end, parent) per call, or only count the
call.  Spans stay in memory; :meth:`Tracer.summary` derives per-layer self
times, call counts and bytes from them.  Only the process that installed the
wrappers records: forked pool workers call straight through.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# (module, attribute, layer name, kind); kind is "span", "count" or "bytes".
# A function imported by name into several modules is wrapped in each.
TARGETS = (
    ("echo_gfa.harness", "build_realization", "rmt.build_realization", "span"),
    ("echo_gfa.cli", "build_realization", "rmt.build_realization", "span"),
    ("echo_gfa.echo", "EchoOperator.__init__", "echo.eigh", "span"),
    ("echo_gfa.echo", "EchoOperator.fidelity_values", "echo.fidelity_values", "span"),
    ("echo_gfa.echo", "EchoOperator.kernel_values", "echo.kernel_values", "span"),
    ("echo_gfa.volterra", "solve_many", "volterra.solve_many", "span"),
    ("echo_gfa.volterra", "first_order", "volterra.first_order", "span"),
    ("echo_gfa.master", "gamma_operator", "master.gamma_operator", "span"),
    # counted without a span, so quadrature time stays in gamma_operator
    ("echo_gfa.master", "CorrelationKernel.transform", "master.transform", "count"),
    ("echo_gfa.harness", "propagate", "master.propagate", "span"),
    ("echo_gfa.cli", "propagate", "master.propagate", "span"),
    ("echo_gfa.cli", "run_ensemble", "harness.run_ensemble", "span"),
    ("echo_gfa.cli", "theory_pipeline", "harness.theory_pipeline", "span"),
    ("echo_gfa.harness", "theory_pipeline", "harness.theory_pipeline", "span"),
    ("echo_gfa.cli", "load_config", "cli.config", "span"),
    ("echo_gfa.cli", "parse_ensemble_config", "cli.config", "span"),
    ("echo_gfa.cli", "parse_general_config", "cli.config", "span"),
    ("echo_gfa.cli", "write_curve", "cli.write_curve", "bytes"),
    ("echo_gfa.cli", "read_curve", "cli.read_curve", "bytes"),
)

ROOT = "cli.main"


class Tracer:
    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent index or -1, bytes]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._pid = os.getpid()

    def _span(self, name: str, func, args, kwargs, with_bytes: bool):
        index = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, 0]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
            if with_bytes:
                try:
                    span[4] = os.path.getsize(args[0])
                except (IndexError, OSError, TypeError):
                    pass

    def call(self, name: str, func, *args, **kwargs):
        """Run ``func`` under a span named ``name`` (used for the root span)."""
        return self._span(name, func, args, kwargs, False)

    def _wrapper(self, name: str, func, kind: str):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return func(*args, **kwargs)
            if kind == "count":
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
                return func(*args, **kwargs)
            return tracer._span(name, func, args, kwargs, kind == "bytes")

        return wrapper

    def install(self) -> None:
        """Wrap every target; raise if the package no longer has one of them."""
        missing = []
        for module_name, path, name, kind in TARGETS:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                func = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrapper(name, func, kind))
        if missing:
            raise RuntimeError("trace targets not found: " + ", ".join(missing))

    def summary(self) -> dict:
        """Per layer: calls, self time, total time (s) and bytes, from the spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, nbytes), children in zip(self.spans, child_ns):
            layer = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "bytes": 0})
            layer["calls"] += 1
            layer["self_s"] += (end - start - children) * 1e-9
            layer["total_s"] += (end - start) * 1e-9
            layer["bytes"] += nbytes
        for name, calls in self.counts.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "bytes": 0})
            out[name]["calls"] += calls
        return out
