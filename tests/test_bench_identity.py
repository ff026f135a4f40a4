"""Pinned-seed byte-identity: the determinism contract behind BENCH_*.json.

Every perf PR (ROADMAP item 3) must leave seeded runs byte-identical —
same simulated clock, same kernel counters, same WAL bytes, same page
images, same per-transaction records.  The bench `--compare` gate can
only catch drift *between* commits; these tests pin determinism *within*
one tree, across the configurations the gate relies on: memory- and
disk-resident systems, the one- and two-lock reorganizers, the
hierarchical lock manager with escalation under the lock bench's scan
mix, and policy-driven (RandomWalkPolicy) schedules — the last
exercising the kernel's general loop where the default runs exercise
the fast one.

Generalizes the tracing-focused guard in test_cluster_identity.py.
"""

import pytest

from repro import Database, SystemConfig, WorkloadConfig
from repro.config import ExperimentConfig
from repro.core import CompactionPlan
from repro.explore.scheduler import RandomWalkPolicy
from repro.hlock.bench import ESCALATE_AFTER, LockBenchDriver
from repro.workload import WorkloadDriver

WORKLOAD = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                          mpl=4, seed=7)


HIER = SystemConfig(lock_manager="hier", lock_escalate_after=ESCALATE_AFTER)


def _observables(system, algorithm="ira", policy_seed=None,
                 driver_cls=WorkloadDriver):
    """Run workload + reorganization; return every observable byte."""
    db, layout = Database.with_workload(WORKLOAD, system=system)
    engine = db.engine
    if policy_seed is not None:
        engine.sim.set_policy(RandomWalkPolicy(seed=policy_seed))
    driver = driver_cls(engine, layout, ExperimentConfig(
        workload=WORKLOAD, system=system))
    metrics = driver.run(
        reorganizer=db.reorganizer(1, algorithm, plan=CompactionPlan()))
    return {
        "sim_now": engine.sim.now,
        "counters": engine.sim.counters(),
        "summary": metrics.summary(),
        "records": [(r.thread_id, r.started_ms, r.finished_ms, r.retries)
                    for r in metrics.records],
        "locks": engine.locks.counters_summary(force=True),
        "wal": list(engine.log._encoded),
        "pages": {pid: engine.store.partition(pid).snapshot()
                  for pid in engine.store.partition_ids()},
    }


@pytest.mark.parametrize("system, algorithm, policy_seed, driver_cls", [
    pytest.param(SystemConfig(), "ira", None, WorkloadDriver,
                 id="memory-ira"),
    pytest.param(SystemConfig(disk_resident=True, buffer_pool_pages=8),
                 "ira", None, WorkloadDriver, id="disk-ira"),
    pytest.param(SystemConfig(), "ira-2lock", None, WorkloadDriver,
                 id="memory-two-lock"),
    pytest.param(SystemConfig(), "ira", 99, WorkloadDriver,
                 id="memory-ira-random-walk"),
    pytest.param(HIER, "ira", None, LockBenchDriver, id="hier-scan-mix"),
    pytest.param(HIER, "ira", 99, LockBenchDriver,
                 id="hier-scan-mix-random-walk"),
])
def test_pinned_seed_runs_are_byte_identical(system, algorithm, policy_seed,
                                             driver_cls):
    first = _observables(system, algorithm, policy_seed, driver_cls)
    second = _observables(system, algorithm, policy_seed, driver_cls)
    assert first == second
    # Non-vacuity: the run did real work in every observable dimension.
    assert first["sim_now"] > 0
    assert first["counters"]["events_dispatched"] > 0
    assert first["wal"]
    assert first["records"]
    if system.lock_manager == "hier":
        assert first["locks"]["escalations"] > 0
