"""End-to-end and per-layer measurement of one workload.

``measure_end_to_end`` runs the workload untraced, cycling through its
sub-seeds while another repetition fits in the time budget (always at
least one full cycle).  Host speed metrics are the best over every
repetition: on a shared host other tenants only ever slow a repetition
down, and the best of many moves far less from run to run than their
median does.  Set-up time is the best over every build: each repetition
builds once, and one extra build follows it.  Modelled ("sim") metrics
pool the first repetition of each sub-seed, with the program's own
throughput and percentile rules.

``measure_layers`` alternates untraced and traced repetitions at the
seed itself and reports the per-layer counts and self times of the
traced ones.

Every repetition is checked: integrity after the run, the same digest
as the first repetition of its sub-seed, and at seed 42 the digest
recorded for the workload.  Repetitions that raise or fail a check
count as failed.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

from layers import RUN_LAYERS, STORE_READS, STORE_WRITES, TXN_OPS, Tracer
from workloads import RunResult, Workload, build_s, run_once, subseeds

RECORDED_SEED = 42

Metrics = Dict[str, Tuple[float, str]]


class Checker:
    """Output checks across the repetitions of one measurement."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.first_digest: Dict[int, str] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, seed: int, **kwargs) -> Optional[RunResult]:
        """One checked repetition; ``None`` when it failed."""
        self.attempted += 1
        try:
            result = run_once(self.workload, seed, **kwargs)
        except Exception:  # a crashed run is a failed output, not a stop
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        problem = self.problem(result)
        if problem:
            print(f"{self.workload.name} seed {seed}: {problem}",
                  file=sys.stderr)
            self.failed += 1
            return None
        return result

    def problem(self, result: RunResult) -> str:
        if not result.integrity_ok:
            return "integrity check failed"
        expected = self.first_digest.setdefault(result.seed, result.digest)
        if result.digest != expected:
            return f"digest {result.digest} differs from {expected}"
        if (result.seed == RECORDED_SEED
                and result.digest != self.workload.digest_at_42):
            return (f"digest {result.digest} differs from the recorded "
                    f"{self.workload.digest_at_42}")
        return ""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(ordered: List[float], pct: float) -> float:
    """Percentile of an ascending list, by the rank rule of
    ``ExperimentMetrics.percentile_response_ms``."""
    rank = min(len(ordered) - 1, max(0, int(round(
        pct / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def sim_metrics(runs: List[RunResult]) -> Metrics:
    """The modelled metrics, pooled over ``runs``.  Throughput counts
    the commits inside each run's window, as ``throughput_tps`` does;
    the transactions that drain after the reorganizer ends do not."""
    times = sorted(t for r in runs for t in r.metrics.response_times())
    in_window = sum(1 for r in runs for rec in r.metrics.records
                    if rec.finished_ms <= r.metrics.window_ms)
    commits = sum(r.metrics.completed for r in runs)
    aborts = sum(r.metrics.aborts for r in runs)
    window_s = sum(r.metrics.window_ms for r in runs) / 1000.0
    return {
        "sim_tps": (in_window / window_s, "1/s"),
        "sim_rt_p50_ms": (percentile(times, 50), "ms"),
        "sim_rt_p99_ms": (percentile(times, 99), "ms"),
        "sim_reorg_s": (statistics.fmean(
            r.metrics.reorg_duration_ms for r in runs) / 1000.0, "s"),
        "sim_abort_frac": (aborts / (aborts + commits), "ratio"),
    }


def measure_end_to_end(workload: Workload, seed: int,
                       seconds: float) -> Tuple[Metrics, Checker]:
    check = Checker(workload)
    seeds = subseeds(workload, seed)
    deadline = time.perf_counter() + seconds
    setup, rates, sim_speeds, events = [], [], [], []
    pooled: Dict[int, RunResult] = {}
    rep, last = 0, 0.0
    while rep < len(seeds) or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        # The previous repetition's garbage is collected here, not
        # inside the next one's timed run.
        gc.collect()
        result = check.run(seeds[rep % len(seeds)])
        rep += 1
        if result is not None:
            result.db = None
            setup.append(result.setup_s)
            gc.collect()
            setup.append(build_s(workload, result.seed))
            rates.append(result.events / result.run_s)
            sim_speeds.append(result.metrics.window_ms / 1000.0
                              / result.run_s)
            events.append(result.events)
            pooled.setdefault(result.seed, result)
        last = time.perf_counter() - started
    if not pooled:
        return {}, check
    events_per_s = max(rates)
    metrics: Metrics = {
        "setup_s": (min(setup), "s"),
        # Host seconds of a mean repetition at the best event rate: each
        # repetition's time is taken per event, so that the sub-seeds'
        # different amounts of work do not add spread.
        "run_s": (statistics.fmean(events) / events_per_s, "s"),
        "events_per_s": (events_per_s, "1/s"),
        "sim_s_per_wall_s": (max(sim_speeds), "s/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": ((check.attempted - check.failed) / check.attempted,
                    "ratio"),
    }
    metrics.update(sim_metrics(list(pooled.values())))
    return metrics, check


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(result: RunResult, tracer: Tracer,
                 wal_base: Dict[str, int]) -> Metrics:
    """The exact per-layer counts of one traced repetition's run."""
    def count(*names):
        return tracer.phase_count("run", "verify", *names)

    engine = result.db.engine
    m = result.metrics
    out: Metrics = {}
    for key, value in result.counters.items():
        name = {"events_dispatched": "events"}.get(key, key)
        out[f"sim.{name}"] = (value, "count")

    # A layer the workload never loads reports zeros.
    locks = engine.locks.counters_summary(force=True)
    if locks["manager"] == "hier":
        flat, hier = {}, locks
    else:
        flat, hier = dict(locks, timeouts=engine.locks.stats.timeouts), {}
    for key in ("acquires", "conflicts", "table_peak", "timeouts"):
        out[f"concurrency.{key}"] = (flat.get(key, 0), "count")
    out["concurrency.conflict_ratio"] = (
        _ratio(flat.get("conflicts", 0), flat.get("acquires", 0)), "ratio")
    for key in ("acquires", "conflicts", "escalations",
                "escalation_failures", "deescalations", "table_peak"):
        out[f"hlock.{key}"] = (hier.get(key, 0), "count")
    escalations = hier.get("escalations", 0)
    out["hlock.escalation_success_ratio"] = (_ratio(
        escalations, escalations + hier.get("escalation_failures", 0)),
        "ratio")

    out["storage.reads"] = (count(
        *(f"ObjectStore.{n}" for n in STORE_READS)), "count")
    out["storage.writes"] = (count(
        *(f"ObjectStore.{n}" for n in STORE_WRITES)), "count")

    buf = m.buffer or {}
    out["buffer.fixes"] = (count("BufferPool.fix"), "count")
    out["buffer.hit_ratio"] = (m.buffer_hit_ratio, "ratio")
    for key in ("misses", "evictions", "writebacks", "coalesced_reads"):
        out[f"buffer.{key}"] = (buf.get(key, 0), "count")
    out["buffer.pages_fetched_per_txn"] = (m.pages_fetched_per_txn,
                                           "pages/txn")

    log = engine.log
    commits = count("Transaction.commit")
    aborts = count("Transaction.abort")
    wal_bytes = len(log.durable_bytes()) - wal_base["bytes"]
    out["wal.records"] = (log.last_lsn - wal_base["records"], "count")
    out["wal.bytes"] = (wal_bytes, "B")
    out["wal.bytes_per_commit"] = (_ratio(wal_bytes, commits), "B")
    out["wal.flushes"] = (log.flush_count - wal_base["flushes"], "count")

    out["txn.commits"] = (commits, "count")
    out["txn.aborts"] = (aborts, "count")
    out["txn.ops"] = (count(
        *(f"Transaction.{n}" for n in TXN_OPS)), "count")
    out["txn.commit_ratio"] = (_ratio(commits, commits + aborts), "ratio")

    reorg = m.reorg_stats
    out["refs.analyzer_records"] = (count("LogAnalyzer.process"),
                                    "count")
    out["refs.trt_peak"] = (reorg.trt_peak, "count")
    for key in ("objects_migrated", "parent_patches", "deadlock_retries",
                "max_locks_held"):
        out[f"core.{key}"] = (getattr(reorg, key), "count")
    return out


def traced_run(check: Checker, seed: int, tracer: Tracer
               ) -> Tuple[Optional[RunResult], Dict[str, int]]:
    """One checked repetition with ``tracer`` installed."""
    wal_base: Dict[str, int] = {}

    def mark(phase, db):
        if phase == "run":
            log = db.engine.log
            wal_base.update(records=log.last_lsn, flushes=log.flush_count,
                            bytes=len(log.durable_bytes()))
        tracer.mark(phase)

    with tracer.installed():
        result = check.run(seed, mark=mark)
    return result, wal_base


def measure_layers(workload: Workload, seed: int, seconds: float,
                   spans_path: Optional[str] = None
                   ) -> Tuple[Metrics, Checker]:
    check = Checker(workload)
    deadline = time.perf_counter() + seconds
    plain: List[RunResult] = []
    # (traced run_s, per-layer self times of its run phase)
    traced: List[Tuple[float, Dict[str, float]]] = []
    counts: Metrics = {}
    objects, last = 0, 0.0
    while not (plain and traced) or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        gc.collect()
        result = check.run(seed)
        if result is not None:
            objects = sum(1 for _ in result.db.store.all_live_oids())
            result.db = None
            plain.append(result)
        gc.collect()
        tracer = Tracer(record_spans=not traced and spans_path is not None)
        result, wal_base = traced_run(check, seed, tracer)
        if result is not None:
            if not traced:
                counts = layer_counts(result, tracer, wal_base)
                if spans_path is not None:
                    tracer.write(spans_path)
            traced.append((result.run_s,
                           tracer.phase_self_s("run", "verify")))
        if check.failed:
            break
        last = time.perf_counter() - started
    if not (plain and traced):
        return {}, check

    # One representative traced repetition, the median by run time, so
    # that its layer self times and unattributed time sum to its run_s.
    traced.sort(key=lambda item: item[0])
    traced_run_s, self_times = traced[(len(traced) - 1) // 2]
    out: Metrics = dict(counts)
    for layer in RUN_LAYERS:
        out[f"{layer}.self_s"] = (self_times[layer], "s")
        out[f"{layer}.share"] = (self_times[layer] / traced_run_s, "ratio")
    out["workload.build_objects_per_s"] = (
        objects / statistics.median(r.setup_s for r in plain), "1/s")
    out["verify.integrity_s"] = (
        statistics.median(r.verify_s for r in plain), "s")
    out["trace.overhead_frac"] = (
        traced_run_s / statistics.median(r.run_s for r in plain) - 1.0,
        "ratio")
    unattributed = traced_run_s - sum(self_times[layer]
                                      for layer in RUN_LAYERS)
    out["trace.unattributed_frac"] = (unattributed / traced_run_s, "ratio")
    return out, check
