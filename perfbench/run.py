#!/usr/bin/env python3
"""Layered benchmark of the checkpoint-restart reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload des-queue-nfs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

``--trace 0`` times the workload calls untraced and reports the
end-to-end metrics; ``--trace 1`` times half the run untraced, then
wraps the repro layers (see ``tracing.py``) and reports per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--quick`` runs every workload in both modes at tiny
sizes and checks that every metric in ``BENCHMARK.json`` is emitted
with its unit.  See README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Seconds from the script's first statement to here: the imports.
IMPORT_S = time.perf_counter() - _T0

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Median time of :func:`reference_loop` on the host the benchmark was
#: tuned on; a scaled call time is its raw time times this over the
#: loop's time around the call.
REF_NOMINAL_S = 0.020

END_TO_END = {
    "setup_s": "s",
    "call_p50_ms": "ms",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cluster.scheduler.acquire_ms": "ms",
    "cluster.scheduler.release_ms": "ms",
    "cluster.scheduler.calls": "count",
    "cluster.scheduler.grants": "count",
    "cluster.scheduler.peak_queue": "count",
    "cluster.scheduler.self_pct": "%",
    "storage.costmodel.ms": "ms",
    "storage.costmodel.calls": "count",
    "des.sharding.ms": "ms",
    "des.sharding.shards": "count",
    "sim.engine.run_ms": "ms",
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "1/s",
    "cluster.platform.run_trace_ms": "ms",
    "verify.scenarios.build_workload_ms": "ms",
    "verify.scenarios.calls": "count",
    "core.simulate.scalar_ms": "ms",
    "core.simulate.vector_ms": "ms",
    "core.simulate.replay_ms": "ms",
    "core.simulate.tasks": "count",
    "parallel.run_specs_ms": "ms",
    "parallel.dispatch_ms": "ms",
    "parallel.cells": "count",
    "parallel.workers_effective": "count",
    "store.get_ms": "ms",
    "store.put_ms": "ms",
    "store.gets": "count",
    "store.puts": "count",
    "store.bytes_written": "B",
    "campaign.n_cached": "count",
    "campaign.n_computed": "count",
    "spec.spec_digest_ms": "ms",
    "experiments.common.evaluate_policy_ms": "ms",
    "experiments.common.trace_synth_ms": "ms",
    "trace.call_p50_ms": "ms",
    "trace.untraced_call_p50_ms": "ms",
    "trace.overhead_pct": "%",
}


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python heap-and-dict loop.

    Timed between workload calls to follow the host's speed, which other
    tenants move by 15-30% within a run (README.md).  The collector is
    off while it runs, so its time does not depend on what the workload
    left alive.
    """
    gc.disable()
    t0 = time.perf_counter()
    heap: list = []
    acc: dict = {}
    for i in range(12000):
        heapq.heappush(heap, (((i * 7919) % 1009) * 0.5, i))
        key = i % 97
        acc[key] = acc.get(key, 0.0) + i * 0.25
    while heap:
        heapq.heappop(heap)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its live children."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        except OSError:
            pass
    return kb / 1024.0


class Loop:
    """Timed calls of one workload, with their checks."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.times: list[float] = []
        #: call times scaled to the reference host (see ``reference_loop``)
        self.scaled: list[float] = []
        self.counters: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = False

    def run(self, seconds: float, tracer=None, first_id: int = 0) -> None:
        deadline = time.perf_counter() + seconds
        ref_before = reference_loop()
        while True:
            call_id = first_id + self.attempted
            self.w.prepare()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = self.w.call()
                else:
                    with tracer.call(call_id):
                        result = self.w.call()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result = None
            dt = time.perf_counter() - t0
            ref_after = reference_loop()
            self.attempted += 1
            if tracer is not None:
                grants, peak = tracer.scheduler_counts()
            problems = ["call raised"] if result is None else self.w.check(result)
            if problems:
                self.failed += 1
                self.wrong = self.wrong or result is not None
                print(f"{self.w.name}: call {call_id} failed: {problems}",
                      file=sys.stderr)
            else:
                self.times.append(dt)
                self.scaled.append(dt * 2 * REF_NOMINAL_S / (ref_before + ref_after))
                counters = self.w.counters(result)
                if tracer is not None:
                    counters.update({"cluster.scheduler.grants": grants,
                                     "cluster.scheduler.peak_queue": peak,
                                     "call_id": call_id})
                self.counters.append(counters)
            ref_before = ref_after
            if time.perf_counter() >= deadline:
                break

    def p50_s(self, scaled: bool = False) -> float:
        if not self.times:
            raise RuntimeError(f"{self.w.name}: no call succeeded")
        return statistics.median(self.scaled if scaled else self.times)


def _quantile_note(times: list[float]) -> str:
    if len(times) < 40:
        return f"n={len(times)} (no tail reported below 40 calls)"
    p90 = statistics.quantiles(times, n=10)[-1]
    return f"n={len(times)} p90={p90 * 1e3:.2f}ms"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, reps: int = SETUP_REPS) -> dict:
    workdir = REPO / ".perfbench"
    workdir.mkdir(exist_ok=True)
    w = workloads.make(name, workdir)
    try:
        setups = []
        for _ in range(reps):
            t0 = time.perf_counter()
            w.setup(seed, quick)
            setups.append(time.perf_counter() - t0)
        setup_s = IMPORT_S + statistics.median(setups)
        if trace:
            return _traced(w, seed, seconds, setup_s)
        loop = Loop(w)
        loop.run(seconds)
        metrics = {
            "setup_s": setup_s,
            "call_p50_ms": loop.p50_s(scaled=True) * 1e3,
            "tasks_per_s": statistics.median(
                c["tasks"] / t for c, t in zip(loop.counters, loop.scaled)
            ),
            "peak_rss_mb": _peak_rss_mb(),
        }
        print(f"# {name} seed={seed} {_quantile_note(loop.scaled)} "
              f"raw_p50={loop.p50_s() * 1e3:.2f}ms "
              f"scaled_p50={loop.p50_s(scaled=True) * 1e3:.2f}ms "
              f"setups={[round(s, 3) for s in setups]} import={IMPORT_S:.3f}s")
        for key, unit in END_TO_END.items():
            print(f"{name} {key} {metrics[key]:.6g} {unit}")
        return _result((loop,), metrics, END_TO_END)
    finally:
        w.close()


def _traced(w, seed: int, seconds: float, setup_s: float) -> dict:
    plain = Loop(w)
    plain.run(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Pool workers fork from the traced process, so restart the pool
        # (if any) and warm the traced path up before timing it.
        workloads.shutdown_pool()
        w.prepare()
        problems = w.check(w.call())
        if problems:
            raise RuntimeError(f"{w.name}: traced warm-up call failed: {problems}")
        tracer.spans.clear()
        tracer.schedulers.clear()
        traced = Loop(w)
        traced.run(seconds / 2, tracer=tracer, first_id=plain.attempted)
    finally:
        tracer.uninstall()
    per_call = tracer.per_call()
    rows = []
    for counters in traced.counters:
        row = per_call.get(counters["call_id"], {})
        row.update(counters)
        rows.append(row)
    metrics = {}
    for key in PER_LAYER:
        if key.startswith("trace."):
            continue
        values = [row.get(key, 0.0) for row in rows]
        metrics[key] = statistics.median(values) if values else 0.0
    sched = [
        100.0 * (row.get("cluster.scheduler.acquire_ms", 0.0)
                 + row.get("cluster.scheduler.release_ms", 0.0))
        / row["self_total_ms"] for row in rows
    ]
    metrics["cluster.scheduler.self_pct"] = statistics.median(sched)
    run_ms = [row.get("sim.engine.run_total_ms", 0.0) for row in rows]
    events = [row.get("sim.engine.events", 0) for row in rows]
    metrics["sim.engine.events_per_s"] = statistics.median(
        [e / (ms / 1e3) if ms > 0 else 0.0 for e, ms in zip(events, run_ms)]
    )
    traced_s, plain_s = traced.p50_s(scaled=True), plain.p50_s(scaled=True)
    metrics["trace.call_p50_ms"] = traced_s * 1e3
    metrics["trace.untraced_call_p50_ms"] = plain_s * 1e3
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1)

    # Self-time breakdown of every span name, as shares of all self time.
    names = sorted({k[5:] for row in rows for k in row if k.startswith("self:")})
    total = statistics.median([row["self_total_ms"] for row in rows])
    print(f"# {w.name} seed={seed} setup_s={setup_s:.3f} traced "
          f"{_quantile_note(traced.times)}; self time per call (median ms, share):")
    for span_name in sorted(names, key=lambda n: -statistics.median(
            [row.get(f"self:{n}", 0.0) for row in rows])):
        ms = statistics.median([row.get(f"self:{span_name}", 0.0) for row in rows])
        print(f"#   {span_name:40s} {ms:10.2f} ms {100 * ms / total:6.1f} %")
    for key, unit in PER_LAYER.items():
        print(f"{w.name} {key} {metrics[key]:.6g} {unit}")
    out = REPO / ".perfbench" / f"spans-{w.name}.jsonl"
    tracer.write(out)
    print(f"# spans written to {out.relative_to(REPO)}")
    return _result((plain, traced), metrics, PER_LAYER)


def _result(loops, metrics: dict, units: dict) -> dict:
    return {
        "correct": not any(loop.wrong for loop in loops),
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in units.items()},
    }


def quick() -> int:
    """Every workload, both modes, tiny sizes; check names and units."""
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    names = [w["name"] for w in declared["workloads"]]
    problems = []
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != "
                        f"{list(workloads.WORKLOADS)}")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            out = run_workload(name, 0, 0.2, bool(trace), quick=True, reps=1)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != "
                                f"declared {expected[trace]}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {out}")
    for line in problems:
        print(f"quick: {line}", file=sys.stderr)
    print(json.dumps({"quick": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-run every workload at tiny sizes")
    args = parser.parse_args(argv)
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required without --quick")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
