"""Spans and counters around quatflow's public functions, from outside.

The traced run rebinds each target where its callers look it up: a
module-level function is replaced in every ``quatflow`` module that holds
the same object (so ``quatflow.cli.all_force_methods`` and
``quatflow.forces.all_force_methods`` are both wrapped), and a method is
replaced on its class.  ``uninstall`` puts the originals back.  A target
that no longer exists is recorded as absent instead of failing the run.

Public functions get one span per call (name, start, end, parent,
request).  Per-node methods get a call count and accumulated time only,
and ``Quaternion.__mul__`` only a count.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time

# Spanned functions: dotted target -> span name.
SPAN_TARGETS = {
    "quatflow.surfaces.integrate_g_dsigma_f": "integrate_g_dsigma_f",
    "quatflow.fields.is_monogenic": "is_monogenic",
    "quatflow.forces.all_force_methods": "all_force_methods",
    "quatflow.forces.force_pressure_direct": "force_pressure_direct",
    "quatflow.forces.force_blasius": "force_blasius",
    "quatflow.forces.force_components_sc": "force_components_sc",
    "quatflow.forces.force_monogenic_form": "force_monogenic_form",
    "quatflow.forces.moment_quadratic": "moment_quadratic",
    "quatflow.forces.moment_from_pressure": "moment_from_pressure",
    "quatflow.integrals.verify_stokes": "verify_stokes",
    "quatflow.integrals.verify_cauchy_theorem": "verify_cauchy_theorem",
    "quatflow.integrals.cauchy_reconstruct": "cauchy_reconstruct",
    "quatflow.planar.reduce_and_compare": "reduce_and_compare",
    "quatflow.scenarios.scenario_catalog": "scenario_catalog",
    "quatflow.cli.main": "cli.main",
    "quatflow.cli._cmd_verify": "cli.verify",
    "quatflow.cli._cmd_force": "cli.force",
    "quatflow.cli._cmd_moment": "cli.moment",
    "quatflow.cli._cmd_convergence": "cli.convergence",
    "quatflow.cli._cmd_reduce2d": "cli.reduce2d",
}

ROUTE_SPANS = ("force_pressure_direct", "force_blasius",
               "force_components_sc", "force_monogenic_form",
               "moment_quadratic", "moment_from_pressure")

COUNTER_TARGETS = (
    "quatflow.surfaces.Chart.nodes",
    "quatflow.surfaces.ParametricSurface.quadrature",
    "quatflow.surfaces.RegularBody.volume_nodes",
    "quatflow.surfaces.evaluate_nodes",
    "quatflow.fields.QuaternionField.jet_at",
    "quatflow.quaternion.Quaternion.__mul__",
)


def _split(target: str):
    """'quatflow.mod.a.b' -> (the module quatflow.mod, ['a', 'b'])."""
    parts = target.split(".")
    module = importlib.import_module(".".join(parts[:2]))
    return module, parts[2:]


def _quatflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "quatflow"
                                  or name.startswith("quatflow."))]


class Tracer:
    """Holds spans and counters for one traced phase."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, request]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.request = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._products = itertools.count()
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + value

    def count(self, key: str) -> float:
        if key == "products":
            # itertools.count ticks atomically; its repr is "count(N)"
            return float(repr(self._products)[len("count("):-1])
        return self.counts.get(key, 0.0)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None, self.request]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                record[2] = time.perf_counter()
                stack.pop()
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # counters for per-node methods
    # ------------------------------------------------------------------
    def _counter_wrapper(self, target: str, fn):
        qual = target.split(".", 2)[2]
        tracer = self

        if qual == "Quaternion.__mul__":
            tick = self._products

            def mul(a, b):
                next(tick)
                return fn(a, b)
            return mul

        if qual == "QuaternionField.jet_at":
            local = self._local

            def jet_at(*args, **kwargs):
                # only outermost calls: a composite field's jet may call
                # the jets of its parts
                if getattr(local, "in_jet", False):
                    return fn(*args, **kwargs)
                local.in_jet = True
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    local.in_jet = False
                    with tracer._lock:
                        c = tracer.counts
                        c["jet_calls"] = c.get("jet_calls", 0.0) + 1.0
                        c["jet_s"] = c.get("jet_s", 0.0) + dt
            return jet_at

        if qual == "Chart.nodes":
            def nodes(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                tracer.add("chart_nodes_s", time.perf_counter() - t0)
                tracer.add("chart_nodes_calls")
                tracer.add("chart_nodes_points",
                           len(getattr(result, "points", ())))
                return result
            return nodes

        if qual == "ParametricSurface.quadrature":
            def quadrature(*args, **kwargs):
                before = tracer.counts.get("chart_nodes_calls", 0.0)
                result = fn(*args, **kwargs)
                tracer.add("quadrature_calls")
                if tracer.counts.get("chart_nodes_calls", 0.0) == before:
                    tracer.add("quadrature_hits")
                return result
            return quadrature

        if qual == "RegularBody.volume_nodes":
            def volume_nodes(body, order):
                cache = getattr(body, "_volume_cache", None)
                if cache is None:
                    tracer.note_absent("RegularBody._volume_cache")
                    return fn(body, order)
                if int(order) in cache:
                    return fn(body, order)
                t0 = time.perf_counter()
                result = fn(body, order)
                tracer.add("volume_build_s", time.perf_counter() - t0)
                tracer.add("volume_nodes_built",
                           len(getattr(result, "weights", ())))
                return result
            return volume_nodes

        if qual == "evaluate_nodes":
            def evaluate_nodes(*args, **kwargs):
                workers = args[2] if len(args) > 2 else kwargs.get("workers")
                if workers is not None and workers > 1:
                    tracer.add("pool_starts")
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.add("evaluate_nodes_s", time.perf_counter() - t0)
            return evaluate_nodes

        raise ValueError(f"no counter defined for {target}")

    def note_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _route_result(self, result) -> None:
        self.add("route_nodes", getattr(result, "node_count", 0))

    def _comparison_result(self, result) -> None:
        self.add("all_force_methods_calls")
        if getattr(result, "gated", None):
            self.add("gate_refusals")

    def install(self) -> None:
        hooks = {name: self._route_result for name in ROUTE_SPANS}
        hooks["all_force_methods"] = self._comparison_result
        for target, name in SPAN_TARGETS.items():
            module, rest = _split(target)
            original = getattr(module, rest[0], None)
            if original is None:
                self.note_absent(target)
                continue
            wrapper = self._span_wrapper(name, original, hooks.get(name))
            for mod in _quatflow_modules():
                if getattr(mod, rest[0], None) is original:
                    self._rebind(mod, rest[0], original, wrapper)
        for target in COUNTER_TARGETS:
            module, rest = _split(target)
            owner = module
            for part in rest[:-1]:
                owner = getattr(owner, part, None)
            original = (owner.__dict__.get(rest[-1]) if owner is not None
                        and hasattr(owner, "__dict__") else None)
            if original is None:
                self.note_absent(target)
                continue
            wrapper = self._counter_wrapper(target, original)
            if owner is module:
                for mod in _quatflow_modules():
                    if getattr(mod, rest[-1], None) is original:
                        self._rebind(mod, rest[-1], original, wrapper)
            else:
                self._rebind(owner, rest[-1], original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
