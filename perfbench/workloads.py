"""The benchmark's three workloads and one measured run of each.

Every workload is one IRA compaction of partition 1 racing MPL 30
simulated client threads in a closed loop, on a freshly built database
of the standard scale (6 partitions x 1,020 objects, 163 pages).  The
workloads differ in which layers do the work; BENCHMARK.json records
why each was chosen.

A run is driven only through the program's public API: ``Database``,
``repro.workload``, ``repro.hlock.bench`` and ``repro.config``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.config import ExperimentConfig, SystemConfig, WorkloadConfig
from repro.core import CompactionPlan
from repro.database import Database
from repro.hlock.bench import ESCALATE_AFTER, LockBenchDriver
from repro.workload import ExperimentMetrics, WorkloadDriver

#: Standard scale: 6 x 1,020 objects fill 163 pages.
STANDARD = dict(num_partitions=6, objects_per_partition=1020)
#: Quick scale, used only by the BENCH_10 anchor test.
QUICK = dict(num_partitions=3, objects_per_partition=340)

#: Sub-seed ``i`` of a run at seed ``s`` is ``s + SUBSEED_STRIDE * i``;
#: sub-seed 0 is the seed itself, so seed 42 is the BENCH_9 point.
SUBSEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    #: WorkloadConfig fields besides the scale and the seed.
    workload: Dict[str, object]
    #: SystemConfig fields; ``None`` keeps the default engine on the
    #: default-construction path (byte-identical to ``run_point``).
    system: Optional[Dict[str, object]]
    driver: type
    #: Sub-seeds per run.  The modelled metrics pool their runs, which
    #: is what keeps them steady from one ``--seed`` to the next.
    subseeds: int
    #: The simulated digest of sub-seed 0 at seed 42.
    digest_at_42: str

    def configs(self, seed: int, scale: Dict[str, int] = STANDARD,
                **overrides) -> tuple:
        params = dict(scale, **self.workload, seed=seed)
        params.update(overrides)
        workload = WorkloadConfig(**params)
        system = SystemConfig(**self.system) if self.system else None
        return workload, system


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ira-walk", {"update_prob": 0.5}, None, WorkloadDriver,
             subseeds=16, digest_at_42="673bc6b150658203"),
    Workload("scan-hier", {"update_prob": 0.1},
             {"lock_manager": "hier", "lock_escalate_after": ESCALATE_AFTER},
             LockBenchDriver, subseeds=7, digest_at_42="f1019e8c5e66aed8"),
    Workload("disk-evict", {"update_prob": 0.9},
             {"disk_resident": True, "buffer_pool_pages": 96},
             WorkloadDriver, subseeds=10, digest_at_42="7e1a9bf2b41f01ff"),
)}


def subseeds(workload: Workload, seed: int) -> List[int]:
    return [seed + SUBSEED_STRIDE * i for i in range(workload.subseeds)]


def digest(metrics: ExperimentMetrics, counters: Dict[str, int]) -> str:
    """Fingerprint of everything simulated: the summary, the kernel
    counters and every response-time record."""
    payload = json.dumps({
        "summary": metrics.summary(),
        "counters": counters,
        "records": [(r.thread_id, repr(r.started_ms), repr(r.finished_ms),
                     r.retries) for r in metrics.records],
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunResult:
    """One build + run + verify of a workload at one seed."""

    seed: int
    setup_s: float
    run_s: float
    verify_s: float
    metrics: ExperimentMetrics
    counters: Dict[str, int]
    digest: str
    integrity_ok: bool
    db: Database

    @property
    def events(self) -> int:
        return self.counters["events_dispatched"]


def build_s(workload: Workload, seed: int) -> float:
    """Host seconds of one build of the database, with nothing run."""
    workload_cfg, system = workload.configs(seed)
    started = time.perf_counter()
    Database.with_workload(workload_cfg, system=system)
    return time.perf_counter() - started


def run_once(workload: Workload, seed: int,
             scale: Dict[str, int] = STANDARD,
             mark: Optional[Callable[[str, Database], None]] = None,
             **overrides) -> RunResult:
    """Build the database, run the workload to drain, check integrity.

    ``mark(phase, db)`` is called at the start of the "run" and "verify"
    phases, outside the timed regions (the tracer's phase boundaries).
    """
    workload_cfg, system = workload.configs(seed, scale, **overrides)
    started = time.perf_counter()
    db, layout = Database.with_workload(workload_cfg, system=system)
    built = time.perf_counter()
    driver = workload.driver(
        db.engine, layout,
        ExperimentConfig(workload=workload_cfg,
                         system=system or SystemConfig()))
    reorganizer = db.reorganizer(1, "ira", plan=CompactionPlan())
    if mark is not None:
        mark("run", db)
    run_started = time.perf_counter()
    metrics = driver.run(reorganizer=reorganizer)
    ran = time.perf_counter()
    if mark is not None:
        mark("verify", db)
    verify_started = time.perf_counter()
    report = db.verify_integrity()
    verified = time.perf_counter()
    counters = db.engine.sim.counters()
    return RunResult(seed=seed, setup_s=built - started,
                     run_s=ran - run_started, verify_s=verified - verify_started,
                     metrics=metrics, counters=counters,
                     digest=digest(metrics, counters),
                     integrity_ok=report.ok, db=db)
