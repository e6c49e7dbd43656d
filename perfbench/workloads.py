"""The three benchmark workloads, each driven through the public API.

A workload has a repeatable ``setup`` (inputs, reference results, a
warm-up call), an untimed ``prepare`` step before every call, the timed
``call`` itself, and ``check``, which returns the violated properties
of one call's output.  Every reference a check compares against is
computed anew in ``setup`` by another tier or another code path, never
read from a saved copy.

* ``des-queue-nfs`` — one queue-deep batch on the DES tier with every
  checkpoint on one shared NFS server.  Sharding refuses shared storage,
  so the single event loop and the scheduler's queue scans carry it.
* ``des-queue-local`` — the same batch and cluster with local ramdisk
  checkpoints; host-group sharding runs and the scheduler idles.
* ``campaign-resume`` — a campaign over a replay-tier base and a
  Google-like trace on the scalar and vector tiers, resumed from a
  store that holds half its cells.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro import api
from repro.campaign import CampaignSpec, load_campaign, report_json, run_campaign
from repro.experiments.common import clear_trace_cache
from repro.parallel.runner import shutdown_pool
from repro.spec import (
    ExecutionSpec,
    FailureLawSpec,
    FailureSpec,
    RunSpec,
    StorageSpec,
    WorkloadSpec,
)
from repro.store import ResultStore
from repro.verify.compare import WELCH_MULT, check_allclose, check_array_equal
from repro.verify.runner import STATS_FAIL_ABS, STATS_FAIL_REL, STATS_WALL_SLACK
from repro.verify.scenarios import build_workload

REPO = Path(__file__).resolve().parent.parent

#: The DES cluster: 16 hosts x 7 VMs, as in the paper's testbed scale-up.
DES_HOSTS, DES_VMS_PER_HOST = 16, 7
#: Tasks in the DES batch; all arrive at time 0, so ~90 wait in queue.
DES_TASKS = 200
#: Google-like trace jobs per campaign base; large enough that the
#: missing cells' estimated cost passes the serial-fallback threshold of
#: ``repro.parallel.sweep``, so the resumed cells run on the pool.
CAMPAIGN_TRACE_JOBS = 120
CAMPAIGN_WORKERS = 2


def _des_spec(storage: str, seed: int, quick: bool) -> RunSpec:
    # One spec name for both storages: the workload builder seeds from
    # (base_seed, name), so the two DES workloads get the same batch.
    return RunSpec(
        name="perfbench-des-queue",
        workload=WorkloadSpec(source="synthetic",
                              n_tasks=24 if quick else DES_TASKS,
                              arrival="batch"),
        failures=FailureSpec(laws=(
            FailureLawSpec(priority=5, family="exponential", mean=600.0),
        )),
        storage=StorageSpec(mode=storage),
        execution=ExecutionSpec(
            tier="des", base_seed=seed, workers=1,
            n_hosts=2 if quick else DES_HOSTS,
            vms_per_host=DES_VMS_PER_HOST,
        ),
    )


class DesQueue:
    """A queue-deep DES batch, checked against the scalar tier."""

    def __init__(self, storage: str) -> None:
        self.storage = storage
        self.name = f"des-queue-{storage}"

    def setup(self, seed: int, quick: bool) -> None:
        self.spec = _des_spec(self.storage, seed, quick)
        self.te = build_workload(api.spec_to_scenario(self.spec), seed).te
        self.scalar = api.run(
            self.spec.evolve(**{"execution.tier": "scalar"})
        ).tier_result
        ex = self.spec.execution
        self.n_vms = ex.n_hosts * ex.vms_per_host
        self.digest = None
        problems = self.check(self.call())
        if problems:
            raise RuntimeError(f"{self.name}: warm-up call failed: {problems}")

    def prepare(self) -> None:
        pass

    def call(self):
        return api.run(self.spec)

    def check(self, result) -> list[str]:
        tr = result.tier_result
        if self.digest is None:
            self.digest = result.digest
        problems = []
        if result.digest != self.digest:
            problems.append("digest differs from the warm-up call")
        if self.storage == "local":
            # Contention-free: per task, exactly verify's `exact` mode.
            for check in (
                check_array_equal("failure-counts", self.scalar.n_failures,
                                  tr.n_failures),
                check_allclose("comparable-wallclock", tr.wallclock,
                               self.scalar.wallclock, rtol=1e-7, atol=1e-5),
                check_array_equal("completion", self.scalar.completed,
                                  tr.completed),
            ):
                if not check.passed:
                    problems.append(f"scalar-vs-des {check.name}: {check.detail}")
            return problems
        # Shared storage prices contention only in the DES, so check
        # properties that hold under any scheduler instead.
        wall = tr.wallclock
        if wall.size != self.te.size or not bool(np.all(tr.completed)):
            problems.append("not every task has one completed record")
        elif not bool(np.all(wall >= self.te * (1 - 1e-12))):
            problems.append("a task's comparable wallclock is below its te")
        if result.extra["makespan"] < self.te.sum() / self.n_vms:
            problems.append("makespan below sum(te) / number of VMs")
        if float(np.mean(wall)) < float(np.mean(self.scalar.wallclock)):
            problems.append("DES mean wallclock below the uncontended scalar mean")
        return problems

    def counters(self, result) -> dict:
        return {"tasks": int(np.sum(result.tier_result.completed))}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
def _campaign(seed: int, quick: bool) -> CampaignSpec:
    """The shipped policy grid plus a Google-like trace base.

    Bases: the shipped replay-tier base under each of its policies, and
    a Google-like trace on the scalar and the vector tier at base seeds
    0-3; one axis: the shipped storage modes.  ``seed`` picks the replay
    base's historical trace.  The Google-like traces stay fixed: their
    task count and the failure tail of their frailest task move the
    call time by more than the benchmark's bound from one trace to the
    next.  They run the optimal policy only: under Young's and Daly's
    intervals a frail task often exceeds the scalar tier's failure cap
    (see README.md, "Known fault").
    """
    shipped = load_campaign(REPO / "examples" / "specs"
                            / "campaign-policy-grid.toml")
    axes = dict(shipped.axes)
    replay = shipped.specs[0]
    replay = replay.evolve(**{
        "workload.trace_seed": replay.workload.trace_seed + seed,
        "workload.n_jobs": 40 if quick else replay.workload.n_jobs,
    })
    # Scalar and vector twins share a name, hence a trace per base seed.
    google = RunSpec(
        name="perfbench-google",
        workload=WorkloadSpec(source="google",
                              trace_jobs=6 if quick else CAMPAIGN_TRACE_JOBS),
    )
    specs = tuple(replay.evolve(**{"policy.name": name})
                  for name in axes["policy.name"])
    specs += tuple(
        google.evolve(**{"execution.tier": tier, "execution.base_seed": base})
        for tier in ("scalar", "vector") for base in range(4)
    )
    return CampaignSpec(
        name="perfbench-campaign-resume",
        specs=specs,
        axes=(("storage.mode", axes["storage.mode"]),),
        workers=CAMPAIGN_WORKERS,
    )


def _twin_key(cell: dict) -> str:
    spec = json.loads(json.dumps(cell["spec"]))
    del spec["execution"]["tier"]
    return json.dumps(spec, sort_keys=True)


def _means_close(a: dict, b: dict, field: str, rel: float, abs_: float) -> bool:
    """verify's ``check_mean_close`` bound, from summary statistics."""
    na, nb = a["n_tasks"], b["n_tasks"]
    var_a = a[f"std_{field}"] ** 2 * na / max(na - 1, 1)
    var_b = b[f"std_{field}"] ** 2 * nb / max(nb - 1, 1)
    se = math.sqrt(var_a / na + var_b / nb)
    ma, mb = a[f"mean_{field}"], b[f"mean_{field}"]
    bound = WELCH_MULT * se + rel * max(abs(ma), abs(mb)) + abs_
    return abs(ma - mb) <= bound


def twin_problems(cells: list[dict]) -> list[str]:
    """Vector cells that disagree with their scalar twin."""
    scalar = {_twin_key(c): c for c in cells if c["tier"] == "scalar"}
    problems = []
    for cell in cells:
        if cell["tier"] != "vector":
            continue
        twin = scalar.get(_twin_key(cell))
        where = f"{cell['spec']['policy']['name']}/" \
                f"{cell['spec']['storage']['mode']}/seed " \
                f"{cell['spec']['execution']['base_seed']}"
        if twin is None:
            problems.append(f"vector cell {where} has no scalar twin")
            continue
        a, b = cell["summary"], twin["summary"]
        if not _means_close(a, b, "wallclock", STATS_WALL_SLACK, 1e-9):
            problems.append(f"{where}: vector mean wallclock "
                            f"{a['mean_wallclock']:.1f} vs scalar "
                            f"{b['mean_wallclock']:.1f}")
        if not _means_close(a, b, "failures", STATS_FAIL_REL, STATS_FAIL_ABS):
            problems.append(f"{where}: vector mean failures "
                            f"{a['mean_failures']:.3f} vs scalar "
                            f"{b['mean_failures']:.3f}")
    return problems


class CampaignResume:
    """Kill-and-resume: every call restores a half-full store first."""

    name = "campaign-resume"

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.tmp = None

    def setup(self, seed: int, quick: bool) -> None:
        # Cold start on every repetition: fresh pool, no memoized trace.
        self.close()
        clear_trace_cache()
        self.tmp = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.workdir))
        self.campaign = _campaign(seed, quick)
        full = self.tmp / "from-scratch"
        report, _stats = run_campaign(self.campaign, store=full,
                                      workers=CAMPAIGN_WORKERS)
        self.reference = report_json(report)
        problems = twin_problems(report["cells"])
        if problems:
            raise RuntimeError(f"from-scratch campaign: {problems}")
        self.half = self.tmp / "half"
        shutil.copytree(full, self.half)
        store = ResultStore(self.half, create=False)
        digests = self.campaign.cell_digests()
        self.removed = sorted(set(digests[1::2]))
        for digest in self.removed:
            store.path_for(digest).unlink()
        self.store = self.tmp / "resumed"
        self.prepare()
        problems = self.check(self.call())
        if problems:
            raise RuntimeError(f"{self.name}: warm-up call failed: {problems}")

    def prepare(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.half, self.store)

    def call(self):
        return run_campaign(self.campaign, store=self.store,
                            workers=CAMPAIGN_WORKERS)

    def check(self, result) -> list[str]:
        report, stats = result
        problems = []
        if report_json(report) != self.reference:
            problems.append("report differs from the from-scratch report")
        if stats["n_computed"] != len(self.removed):
            problems.append(f"computed {stats['n_computed']} cells, "
                            f"{len(self.removed)} records were removed")
        return problems + twin_problems(report["cells"])

    def counters(self, result) -> dict:
        report, stats = result
        removed = set(self.removed)
        tasks = sum(
            cell["summary"]["n_tasks"] * cell["summary"]["completion_rate"]
            for cell in report["cells"] if cell["spec_digest"] in removed
        )
        return {"tasks": int(round(tasks)), "campaign.n_cached": stats["n_cached"],
                "campaign.n_computed": stats["n_computed"]}

    def close(self) -> None:
        shutdown_pool()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


def make(name: str, workdir: Path):
    """The workload called ``name``."""
    if name == "des-queue-nfs":
        return DesQueue("nfs")
    if name == "des-queue-local":
        return DesQueue("local")
    if name == "campaign-resume":
        return CampaignResume(workdir)
    raise KeyError(name)


WORKLOADS = ("des-queue-nfs", "des-queue-local", "campaign-resume")
