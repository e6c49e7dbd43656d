"""Span tracing of the repro layers, installed from outside the program.

The tracer wraps public functions and methods of the ``repro`` modules
(nothing in ``src/`` is edited).  Each wrapped call records one span
``(name, start, end, parent, call_id, count)``: ``parent`` is the index
of the enclosing span in the same list, ``call_id`` the benchmark call
it belongs to, and ``count`` a layer-specific amount of work (events
processed, tasks simulated, bytes written).  Spans stay in memory and
are aggregated, and optionally written out, when the run ends.

A name is wrapped wherever callers look it up: ``repro.storage.devices``
binds ``contention_factor_nfs`` at import, so replacing the attribute in
``repro.storage.costmodel`` alone would count nothing.  :meth:`install`
therefore rebinds every attribute of every loaded ``repro`` module that
*is* the original function.

Pool workers are forked from the traced parent, so they inherit the
wrappers.  A cell that runs in a worker records its spans into a fresh
list and returns them inside the cell dict; the ``run_specs`` wrapper
in the parent moves them into the parent's list under its own span.
``time.perf_counter`` reads the system-wide monotonic clock on Linux,
so worker timestamps line up with the parent's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

#: Span name -> per-layer metric that sums its self time (ms).
SELF_MS = {
    "cluster.scheduler.acquire": "cluster.scheduler.acquire_ms",
    "cluster.scheduler.release": "cluster.scheduler.release_ms",
    "storage.costmodel": "storage.costmodel.ms",
    "des.sharding": "des.sharding.ms",
    "sim.engine.run": "sim.engine.run_ms",
    "cluster.platform.run_trace": "cluster.platform.run_trace_ms",
    "verify.scenarios.build_workload": "verify.scenarios.build_workload_ms",
    "core.simulate.scalar": "core.simulate.scalar_ms",
    "core.simulate.vector": "core.simulate.vector_ms",
    "core.simulate.replay": "core.simulate.replay_ms",
    "parallel.run_specs": "parallel.dispatch_ms",
    "store.get": "store.get_ms",
    "store.put": "store.put_ms",
    "spec.spec_digest": "spec.spec_digest_ms",
    "experiments.common.evaluate_policy": "experiments.common.evaluate_policy_ms",
    "experiments.common.trace_synth": "experiments.common.trace_synth_ms",
}

#: Span name -> metric counting its calls.
CALLS = {
    "cluster.scheduler.acquire": "cluster.scheduler.calls",
    "cluster.scheduler.release": "cluster.scheduler.calls",
    "storage.costmodel": "storage.costmodel.calls",
    "verify.scenarios.build_workload": "verify.scenarios.calls",
    "parallel.cell": "parallel.cells",
    "store.get": "store.gets",
    "store.put": "store.puts",
}

#: Span name -> metric summing the span's ``count`` field.
COUNTS = {
    "sim.engine.run": "sim.engine.events",
    "des.sharding": "des.sharding.shards",
    "core.simulate.scalar": "core.simulate.tasks",
    "core.simulate.vector": "core.simulate.tasks",
    "core.simulate.replay": "core.simulate.tasks",
    "store.put": "store.bytes_written",
    "parallel.run_specs": "parallel.workers_effective",
}

#: Span name -> metric of the span's whole duration (children included).
TOTAL_MS = {
    "parallel.run_specs": "parallel.run_specs_ms",
    "sim.engine.run": "sim.engine.run_total_ms",
}

ROOT = "bench.call"
WORKER_CELL = "parallel.cell"
_SPANS_KEY = "_bench_spans"


def _n_tasks(_args, result):
    return int(result.wallclock.size)


def _engine_events(args, _result):
    return int(args[0].events_processed)


def _shards(_args, result):
    return int(result.extra.get("n_shards", 0))


def _file_bytes(_args, path):
    return int(path.stat().st_size)


def _workers_effective(_args, report):
    return int(report["workers_effective"])


class Tracer:
    """Records spans of wrapped repro calls for one process tree."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.call_id = -1
        self.pid = os.getpid()
        self.schedulers: list = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------
    @contextmanager
    def call(self, call_id: int):
        """Root span of one benchmark call; nested spans carry its id."""
        self.call_id = call_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, t0, t1, -1, call_id, 0)

    def span(self, name: str, fn, count=None):
        """A wrapper of ``fn`` that records a span named ``name``.

        ``count(args, result)`` gives the span's work amount; it runs
        after the span's end time is taken.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                n = count(args, result) if ok and count is not None else 0
                tracer.spans[idx] = (name, t0, t1, stack[-1] if stack else -1,
                                     tracer.call_id, n)

        return wrapper

    # -- installation ----------------------------------------------------
    def _rebind(self, orig, wrapper) -> int:
        """Replace ``orig`` by ``wrapper`` in every loaded repro module."""
        n = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, orig))
                    n += 1
        if n == 0:
            raise RuntimeError(f"tracer found no binding of {orig.__qualname__}")
        return n

    def _wrap_function(self, orig, name, count=None) -> None:
        self._rebind(orig, self.span(name, orig, count))

    def _wrap_method(self, cls, attr, name, count=None) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.span(name, orig, count))
        self._undo.append((cls, attr, orig))

    def install(self) -> None:
        """Wrap every traced layer boundary (idempotent per instance)."""
        if self._undo:
            return
        import repro.api
        import repro.campaign
        import repro.des.sharding
        import repro.experiments.common as common
        import repro.parallel.sweep as sweep
        import repro.storage.costmodel as costmodel
        import repro.verify.runner  # noqa: F401  (binds simulate_task)
        import repro.verify.scenarios as scenarios
        from repro.cluster.platform import CloudPlatform
        from repro.cluster.scheduler import GreedyScheduler
        from repro.core import simulate
        from repro.sim.engine import Environment
        from repro.spec import RunSpec
        from repro.store import ResultStore

        self.pid = os.getpid()
        for fn in (costmodel.checkpoint_cost_local, costmodel.checkpoint_cost_nfs,
                   costmodel.checkpoint_op_time, costmodel.contention_factor_nfs,
                   costmodel.dmnfs_cost, costmodel.restart_cost):
            self._wrap_function(fn, "storage.costmodel")
        self._wrap_function(repro.des.sharding.run_des_sharded, "des.sharding",
                            _shards)
        self._wrap_function(scenarios.build_workload,
                            "verify.scenarios.build_workload")
        self._wrap_function(simulate.simulate_task, "core.simulate.scalar",
                            lambda _a, _r: 1)
        self._wrap_function(simulate.simulate_tasks_blocked,
                            "core.simulate.vector", _n_tasks)
        self._wrap_function(simulate.simulate_tasks_scaled,
                            "core.simulate.vector", _n_tasks)
        self._wrap_function(simulate.simulate_tasks_replay,
                            "core.simulate.replay", _n_tasks)
        self._wrap_function(common.evaluate_policy,
                            "experiments.common.evaluate_policy")
        self._wrap_function(common.default_trace,
                            "experiments.common.trace_synth")
        self._wrap_function(repro.api.run, "api.run")
        self._wrap_function(repro.campaign.run_campaign, "campaign.run_campaign")
        self._wrap_method(GreedyScheduler, "acquire", "cluster.scheduler.acquire")
        self._wrap_method(GreedyScheduler, "release", "cluster.scheduler.release")
        self._wrap_method(Environment, "run", "sim.engine.run", _engine_events)
        self._wrap_method(CloudPlatform, "run_trace", "cluster.platform.run_trace")
        self._wrap_method(ResultStore, "get", "store.get")
        self._wrap_method(ResultStore, "put", "store.put", _file_bytes)
        self._wrap_method(RunSpec, "spec_digest", "spec.spec_digest")

        sched_init = GreedyScheduler.__init__

        @functools.wraps(sched_init)
        def register(sched, *args, **kwargs):
            sched_init(sched, *args, **kwargs)
            self.schedulers.append(sched)

        GreedyScheduler.__init__ = register
        self._undo.append((GreedyScheduler, "__init__", sched_init))

        self._rebind(sweep._run_spec_cell, self._worker_cell(sweep._run_spec_cell))
        self._rebind(sweep.run_specs, self._harvesting(sweep.run_specs))

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _worker_cell(self, fn):
        """Cell wrapper that ships a pool worker's spans back in the cell."""
        traced = self.span(WORKER_CELL, fn)

        @functools.wraps(fn)
        def cell(job):
            if os.getpid() == self.pid:
                return traced(job)
            # A forked worker: its span list and stack are stale copies
            # of the parent's, so record into fresh ones.
            self.spans, self._stack = [], []
            out = traced(job)
            out[_SPANS_KEY] = self.spans
            self.spans = []
            return out

        return cell

    def _harvesting(self, fn):
        """``run_specs`` wrapper that adopts the spans workers sent back."""
        traced = self.span("parallel.run_specs", fn, _workers_effective)

        @functools.wraps(fn)
        def run_specs(*args, **kwargs):
            idx = len(self.spans)
            report = traced(*args, **kwargs)
            for cell in report["points"]:
                remote = cell.pop(_SPANS_KEY, None)
                if not remote:
                    continue
                base = len(self.spans)
                for name, t0, t1, parent, _call, n in remote:
                    self.spans.append((name, t0, t1,
                                       idx if parent < 0 else base + parent,
                                       self.call_id, n))
            return report

        return run_specs

    def scheduler_counts(self) -> tuple[int, int]:
        """``(grants, peak queue)`` over schedulers built since the last
        call, then forget them."""
        grants = sum(s.total_grants for s in self.schedulers)
        peak = max((s.peak_queue_length for s in self.schedulers), default=0)
        self.schedulers.clear()
        return grants, peak

    # -- aggregation -----------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the union of its children."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, t0, t1, parent, _call, _n in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((t0, t1))
        out = []
        for i, (_name, t0, t1, _p, _c, _n) in enumerate(self.spans):
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(i, ())):
                c0 = max(c0, end)
                c1 = min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out.append((t1 - t0) - covered)
        return out

    def per_call(self) -> dict[int, dict[str, float]]:
        """Per-call layer metrics keyed by call id."""
        selfs = self.self_times()
        calls: dict[int, dict[str, float]] = {}
        for (name, t0, t1, _p, call, n), self_s in zip(self.spans, selfs):
            m = calls.setdefault(call, {"self_total_ms": 0.0})
            m["self_total_ms"] += self_s * 1e3
            m[f"self:{name}"] = m.get(f"self:{name}", 0.0) + self_s * 1e3
            if name in SELF_MS:
                key = SELF_MS[name]
                m[key] = m.get(key, 0.0) + self_s * 1e3
            if name in CALLS:
                m[CALLS[name]] = m.get(CALLS[name], 0) + 1
            if name in COUNTS:
                m[COUNTS[name]] = m.get(COUNTS[name], 0) + n
            if name in TOTAL_MS:
                m[TOTAL_MS[name]] = m.get(TOTAL_MS[name], 0.0) + (t1 - t0) * 1e3
        return calls

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
