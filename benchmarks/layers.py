"""Spans around the calls into each layer of `annihilate`, recorded from outside.

`Tracer.install` replaces a function on every module attribute through
which callers look it up (for example `integrator.velocity_field`, which
`evolve` calls, and `particles.velocity_field`) with a wrapper that records
a span: name, parent span, start and end.  Spans stay in memory and are
written when the traced call ends; `layer_metrics` folds them into the
per-layer counts and times named in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# (span name, the module attributes that hold the function)
TRACED = (
    ("cli.main", ("cli.main",)),
    ("harness.run_convergence", ("harness.run_convergence",)),
    ("harness.run_property_suite", ("harness.run_property_suite",)),
    ("harness.sample_particles", ("harness.sample_particles",)),
    ("integrator.evolve", ("integrator.evolve", "harness.evolve", "cli.evolve")),
    ("integrator.detect_clusters", ("integrator.detect_clusters",)),
    ("particles.velocity_field", ("particles.velocity_field", "integrator.velocity_field")),
    ("particles.energy", ("particles.energy", "harness.energy")),
    ("levelset.from_particles", ("levelset.from_particles",)),
    ("levelset.nonlocal_operator_quadrature", ("levelset.nonlocal_operator_quadrature",)),
    ("moments.d_M", ("moments.d_M",)),
    ("hjsolver.solve_hj", ("hjsolver.solve_hj",)),
    ("hjsolver.step_hj", ("hjsolver.step_hj",)),
    ("hjsolver.levy_operator_all", ("hjsolver.levy_operator_all",)),
    ("measures.aec_modulus", ("measures.aec_modulus",)),
    ("measures.narrow_distance_proxy", ("measures.narrow_distance_proxy",)),
    ("io.write", tuple(f"io.{name}" for name in (
        "write_trajectory_csv", "write_events_jsonl", "write_xy_csv",
        "write_measure_csv", "write_stepfunction_csv", "write_convergence_csv",
    ))),
)

LADDER_RUNGS = (8, 16, 32, 64)

# name -> unit of every per-layer metric, in the order they are reported
PER_LAYER = {
    "particles.velocity_field.calls": "count",
    "particles.velocity_field.s": "s",
    "particles.velocity_field.pairs": "count",
    "integrator.evolve.calls": "count",
    "integrator.evolve.s": "s",
    "integrator.evolve.self_s": "s",
    "integrator.detect_clusters.calls": "count",
    "integrator.detect_clusters.s": "s",
    "integrator.events": "count",
    "integrator.accepted_steps": "count",
    "integrator.evals_per_step": "evals/step",
    "hjsolver.levy_operator_all.calls": "count",
    "hjsolver.levy_operator_all.s": "s",
    "hjsolver.solve_hj.s": "s",
    "hjsolver.solve_hj.self_s": "s",
    "hjsolver.step_hj.calls": "count",
    "hjsolver.step_hj.s": "s",
    "hjsolver.node_updates": "count",
    "harness.sample_particles.calls": "count",
    "harness.sample_particles.s": "s",
    **{f"harness.row_s.n{n}": "s" for n in LADDER_RUNGS},
    "harness.run_convergence.self_s": "s",
    "harness.run_property_suite.self_s": "s",
    "levelset.from_particles.calls": "count",
    "levelset.from_particles.s": "s",
    "levelset.nonlocal_operator_quadrature.calls": "count",
    "levelset.nonlocal_operator_quadrature.s": "s",
    "moments.d_M.calls": "count",
    "moments.d_M.s": "s",
    "particles.energy.calls": "count",
    "particles.energy.s": "s",
    "measures.aec_modulus.s": "s",
    "measures.aec_modulus.intervals": "count",
    "measures.narrow_distance_proxy.calls": "count",
    "measures.narrow_distance_proxy.s": "s",
    "io.write.s": "s",
    "io.write.bytes": "B",
    "cli.main.self_s": "s",
    "setup.import_scipy_signal_s": "s",
    "setup.import_annihilate_s": "s",
    "trace.overhead_s": "s",
}

# per-layer counts that must repeat exactly between runs with one seed
COUNTS = (
    "particles.velocity_field.calls",
    "integrator.accepted_steps",
    "integrator.evals_per_step",
    "integrator.events",
    "hjsolver.levy_operator_all.calls",
    "measures.aec_modulus.intervals",
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rows: dict[int, float] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(sid)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[sid] = time.perf_counter()
                self._stack.pop()
            self._count(name, sid, args, result)
            return result

        return wrapper

    def _count(self, name: str, sid: int, args, result) -> None:
        c = self.counts
        parent = self.names[self.parents[sid]] if self.parents[sid] >= 0 else ""
        if name == "particles.velocity_field":
            m = int((args[1] != 0).sum())
            c["pairs"] += m * (m - 1)
            if parent == "integrator.evolve":
                c["step_evals"] += 1
        elif name == "integrator.detect_clusters":
            if parent == "integrator.evolve" and not result:
                c["accepted_steps"] += 1
        elif name == "integrator.evolve":
            c["events"] += len(result.events)
        elif name == "hjsolver.levy_operator_all":
            c["node_updates"] += args[0].values.size
        elif name == "measures.aec_modulus":
            c["intervals"] += sum(mu.n_atoms * (mu.n_atoms + 1) // 2 for mu in args[0])
        elif name == "io.write" and parent != "io.write":
            c["bytes"] += os.path.getsize(args[0])
        elif name == "harness.run_convergence":
            for row in result.rows:
                self.rows[row.n] = row.runtime_s

    def install(self) -> None:
        import importlib

        for name, attrs in TRACED:
            for attr in attrs:
                mod_name, fn_name = attr.rsplit(".", 1)
                mod = importlib.import_module(f"annihilate.{mod_name}")
                setattr(mod, fn_name, self.wrap(name, getattr(mod, fn_name)))

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: number of calls, inclusive seconds, self seconds."""
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for sid, name in enumerate(self.names):
            dur = self.ends[sid] - self.starts[sid]
            calls[name] += 1
            self_s[name] += dur
            parent = self.parents[sid]
            if parent >= 0:
                self_s[self.names[parent]] -= dur
            if parent < 0 or self.names[parent] != name:
                incl[name] += dur  # a call nested in its own name is already inside
        return calls, incl, self_s

    def write(self, path: Path) -> None:
        """Spans as columns; times are seconds from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        table = sorted(set(self.names))
        ids = {n: k for k, n in enumerate(table)}
        payload = {
            "names": table,
            "name": [ids[n] for n in self.names],
            "parent": self.parents,
            "start": [round(t - t0, 7) for t in self.starts],
            "end": [round(t - t0, 7) for t in self.ends],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric the traced process can give (not setup or overhead)."""
        calls, incl, self_s = self.totals()
        c = self.counts
        steps = c["accepted_steps"]
        m = {
            "particles.velocity_field.pairs": c["pairs"],
            "integrator.events": c["events"],
            "integrator.accepted_steps": steps,
            "integrator.evals_per_step": c["step_evals"] / steps if steps else 0.0,
            "hjsolver.node_updates": c["node_updates"],
            "measures.aec_modulus.intervals": c["intervals"],
            "io.write.bytes": c["bytes"],
        }
        for n in LADDER_RUNGS:
            m[f"harness.row_s.n{n}"] = self.rows.get(n, 0.0)
        for metric in PER_LAYER:
            if metric in m:
                continue
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                m[metric] = calls.get(span, 0)
            elif kind == "s":
                m[metric] = incl.get(span, 0.0)
            elif kind == "self_s":
                m[metric] = self_s.get(span, 0.0)
        return m
