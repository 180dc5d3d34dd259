"""Spans around satflow's public functions, recorded from outside.

`Tracer.install()` replaces each traced function, wherever a satflow module
holds a reference to it, with a wrapper that appends one span
``[name, start, end, parent]`` to an in-memory list; `uninstall()` puts the
originals back.  satflow itself is not changed.  The runner opens one root
span per job, so the spans of a job share its index as their ancestor.
"""

from __future__ import annotations

import json
from time import perf_counter

import satflow
from satflow import cli, dynamics, equilibria, model, transitions

MODULES = (satflow, model, dynamics, equilibria, transitions, cli)

#: span name -> the function it wraps
TRACED = {
    "model.validate": model.validate,
    "model.classify_routing": model.classify_routing,
    "model.invariant_vector": model.invariant_vector,
    "model.h_operator": model.h_operator,
    "dynamics.integrate": dynamics.integrate,
    "equilibria.picard_min": equilibria.picard_min,
    "equilibria.picard_max": equilibria.picard_max,
    "equilibria.multiplicity_test": equilibria.multiplicity_test,
    "equilibria.equilibrium_set": equilibria.equilibrium_set,
    "transitions.sweep": transitions.sweep,
    "transitions.on_critical_manifold": transitions.on_critical_manifold,
    "transitions.directional_limits": transitions.directional_limits,
    "cli.load_scenario": cli.load_scenario,
    "cli.cmd_equilibria": cli.cmd_equilibria,
}

#: (metric, unit) in report order; see per_layer() for the definitions
PER_LAYER = (
    ("dynamics.integrate_calls", "count"),
    ("dynamics.rk4_steps", "count"),
    ("dynamics.step_us", "us"),
    ("dynamics.integrate_ms", "ms"),
    ("equilibria.picard_iterations", "count"),
    ("equilibria.picard_ms", "ms"),
    ("equilibria.picard_iter_us", "us"),
    ("equilibria.solve_calls", "count"),
    ("equilibria.solve_self_ms", "ms"),
    ("equilibria.multiplicity_calls", "count"),
    ("model.classify_calls", "count"),
    ("model.classify_ms", "ms"),
    ("model.classify_per_network", "count"),
    ("model.pi_calls", "count"),
    ("model.pi_ms", "ms"),
    ("model.h_calls", "count"),
    ("model.h_ms", "ms"),
    ("model.validate_calls", "count"),
    ("model.validate_ms", "ms"),
    ("cli.load_ms", "ms"),
    ("cli.write_ms", "ms"),
    ("transitions.sweep_self_ms", "ms"),
    ("transitions.manifold_calls", "count"),
    ("transitions.limits_self_ms", "ms"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index or -1]
        self.stack: list[int] = []
        self.work: dict[str, int] = {"rk4_steps": 0, "picard_iterations": 0}
        self._saved: list[tuple[object, str, object]] = []
        self._index: dict[str, int] = {}

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([self._name(name), perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer._count(name, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, args, kwargs, out) -> None:
        if name in ("equilibria.picard_min", "equilibria.picard_max"):
            self.work["picard_iterations"] += out.iterations
        elif name == "dynamics.integrate":
            cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or dynamics.IntegratorConfig()
            self.work["rk4_steps"] += round(float(out.times[-1]) / cfg.dt)

    def install(self) -> None:
        for name, fn in TRACED.items():
            wrapper = self._wrap(name, fn)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "names": self.names, "spans": self.spans}, fh)

    def per_layer(self, jobs: int) -> dict[str, float]:
        """Per-job values of PER_LAYER over every span recorded so far.

        `*_ms` of model, cli, equilibria.solve and transitions are self
        times: the span's duration less the time covered by its traced
        children.  Picard and integrate times are whole spans (they have no
        traced children).  Every job hands satflow one routing matrix, so
        classify_per_network is classify calls per job and per matrix.
        """
        calls = dict.fromkeys(TRACED, 0)
        total = dict.fromkeys(TRACED, 0.0)
        own = dict.fromkeys(TRACED, 0.0)
        child = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):  # children come after parents
            _, start, end, parent = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
        for i, (name_idx, start, end, _) in enumerate(self.spans):
            name = self.names[name_idx]
            if name in calls:
                calls[name] += 1
                total[name] += end - start
                own[name] += end - start - child[i]

        def per_job(v):
            return v / jobs

        ms = 1e3
        steps = self.work["rk4_steps"]
        iters = self.work["picard_iterations"]
        picard_s = total["equilibria.picard_min"] + total["equilibria.picard_max"]
        return {
            "dynamics.integrate_calls": per_job(calls["dynamics.integrate"]),
            "dynamics.rk4_steps": per_job(steps),
            "dynamics.step_us": own["dynamics.integrate"] * 1e6 / steps if steps else 0.0,
            "dynamics.integrate_ms": per_job(total["dynamics.integrate"] * ms),
            "equilibria.picard_iterations": per_job(iters),
            "equilibria.picard_ms": per_job(picard_s * ms),
            "equilibria.picard_iter_us": picard_s * 1e6 / iters if iters else 0.0,
            "equilibria.solve_calls": per_job(calls["equilibria.equilibrium_set"]),
            "equilibria.solve_self_ms": per_job(own["equilibria.equilibrium_set"] * ms),
            "equilibria.multiplicity_calls": per_job(calls["equilibria.multiplicity_test"]),
            "model.classify_calls": per_job(calls["model.classify_routing"]),
            "model.classify_ms": per_job(own["model.classify_routing"] * ms),
            "model.classify_per_network": per_job(calls["model.classify_routing"]),
            "model.pi_calls": per_job(calls["model.invariant_vector"]),
            "model.pi_ms": per_job(own["model.invariant_vector"] * ms),
            "model.h_calls": per_job(calls["model.h_operator"]),
            "model.h_ms": per_job(own["model.h_operator"] * ms),
            "model.validate_calls": per_job(calls["model.validate"]),
            "model.validate_ms": per_job(own["model.validate"] * ms),
            "cli.load_ms": per_job(own["cli.load_scenario"] * ms),
            "cli.write_ms": per_job(own["cli.cmd_equilibria"] * ms),
            "transitions.sweep_self_ms": per_job(own["transitions.sweep"] * ms),
            "transitions.manifold_calls": per_job(calls["transitions.on_critical_manifold"]),
            "transitions.limits_self_ms": per_job(own["transitions.directional_limits"] * ms),
        }
