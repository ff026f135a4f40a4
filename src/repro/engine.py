"""The storage engine: everything wired together.

This is the stand-in for Brahmā, the storage manager the paper's
experiments ran on: slotted-page object store with physical OIDs, strict
2PL with a 1-second lock timeout for deadlocks, WAL through an
ARIES-style implementation, extendible-hash-backed ERT/TRT maintained by
a log analyzer, latches, checkpoints and restart recovery.

An engine lives inside one :class:`~repro.sim.Simulator`; all blocking
operations are generators driven by simulation processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .concurrency import LatchManager
from .hlock import build_lock_manager
from .config import SystemConfig
from .refs import ExternalReferenceTable, LogAnalyzer, TemporaryReferenceTable
from .sim import Resource, Simulator, Use
from .storage import ObjectStore, Oid
from .storage.buffer import BufferPool
from .txn import TransactionManager
from .wal import (
    CheckpointRecord,
    LogManager,
    RecoveryManager,
    SnapshotStore,
)


@dataclass
class CrashImage:
    """What survives a simulated system failure.

    The database is memory-resident (paper §5.3); a crash leaves behind
    only the flushed log prefix — a CRC-framed byte stream that may end
    in a torn record — and the checkpoint snapshots.
    """

    durable_log: bytes
    snapshots: SnapshotStore
    config: SystemConfig


@dataclass
class IntegrityReport:
    """Result of a full physical/logical consistency sweep."""

    dangling_refs: List[Tuple[Oid, int, Oid]] = field(default_factory=list)
    ert_missing: List[Tuple[int, Oid, Oid]] = field(default_factory=list)
    ert_spurious: List[Tuple[int, Oid, Oid]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.dangling_refs or self.ert_missing
                    or self.ert_spurious)

    def problems(self) -> List[str]:
        out = [f"dangling ref {p}[{s}] -> {c}"
               for p, s, c in self.dangling_refs]
        out += [f"ERT p{pid} missing {c} <- {p}"
                for pid, c, p in self.ert_missing]
        out += [f"ERT p{pid} spurious {c} <- {p}"
                for pid, c, p in self.ert_spurious]
        return out


class StorageEngine:
    """One database instance: store + WAL + locks + reference tables."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 sim: Optional[Simulator] = None):
        self.config = config or SystemConfig()
        self.sim = sim or Simulator()
        self._build_cpu()
        self.log_disk = Resource(self.sim, capacity=1, name="log-disk")
        self.data_disk = Resource(self.sim, capacity=1, name="data-disk")
        self.buffer = (BufferPool(self.sim, self.data_disk,
                                  capacity_pages=self.config.buffer_pool_pages,
                                  read_ms=self.config.disk_read_ms,
                                  write_ms=self.config.disk_write_ms,
                                  io_retry_limit=self.config.io_retry_limit,
                                  io_retry_backoff_ms=self.config.io_retry_backoff_ms)
                       if self.config.disk_resident else None)
        self.store = ObjectStore(page_size=self.config.page_size)
        self.log = LogManager(self.sim, self.log_disk,
                              flush_time_ms=self.config.log_flush_ms,
                              io_retry_limit=self.config.io_retry_limit,
                              io_retry_backoff_ms=self.config.io_retry_backoff_ms)
        self.locks = build_lock_manager(self.sim, self.config)
        self.latches = LatchManager(self.sim)
        self._erts: Dict[int, ExternalReferenceTable] = {}
        self.analyzer = LogAnalyzer(
            self.ert_for, strict_2pl=self.config.strict_transactions)
        self.log.subscribe(self.analyzer.process)
        self.txns = TransactionManager(self)
        self.snapshots = SnapshotStore()
        #: Populated by :meth:`recover` on engines built from a crash image.
        self.recovery_stats = None
        #: Set by :meth:`repro.faults.FaultInjector.attach`; ``crash()``
        #: detaches it so a recovered engine starts fault-free.
        self.injector = None
        #: True once the store holds content that never went through the
        #: WAL (the §5.2 bulk load).  Recorded in every checkpoint so
        #: single-page repair knows when log replay alone cannot rebuild
        #: a page from scratch.
        self.unlogged_base = False
        #: Called with ``(payload, snapshot_id, lsn)`` after every
        #: checkpoint; the fault injector uses it to corrupt just-written
        #: snapshot pages (torn checkpoint writes).
        self.checkpoint_hook = None
        #: Access-history recorder (``repro.explore.history.HistoryRecorder``)
        #: fed by Transaction/TransactionManager when installed.
        self.history = None
        #: Attached :class:`repro.mvcc.MvccTier` (versioned read path);
        #: ``None`` keeps the classic 2PL-only engine.  Set by
        #: ``MvccTier.attach``/``recover`` — engine restart does *not*
        #: carry it over, recovery paths rebuild it explicitly.
        self.mvcc = None
        #: Clustering tracer (``repro.cluster.ClusterTracer``) fed by
        #: user transactions when installed; ``None`` costs nothing and
        #: tracing itself never perturbs the simulation.
        self.tracer = None
        #: ``oid -> bool`` existence oracle for objects in partitions this
        #: store does not hold (repro.dist wires the cluster directory
        #: here).  ``verify_integrity`` consults it before declaring a
        #: cross-node reference dangling; ``None`` keeps the historical
        #: single-node behaviour.
        self.remote_resolver = None
        #: ``partition_id -> set[(child, parent)]`` of cross-node
        #: references into a locally-owned partition, computed by the
        #: cluster from the *other* nodes' stores.  Local page scans
        #: cannot see remote parents, so without this hook a correct
        #: remote-parent ERT entry would read as spurious.
        self.remote_ert_expected = None
        self._wire_read_verification()

    def _build_cpu(self) -> None:
        """The CPU resource plus the shared ``Use`` commands of the fixed
        per-access charges.  The kernel only reads a yielded ``Use``, so
        the hot transactional paths reuse one instance per configured
        cost instead of allocating one per object access; a zero cost is
        ``None`` and skips the CPU entirely.  Both construction sites —
        ``__init__`` and :meth:`recover` — call this."""
        config = self.config
        self.cpu = cpu = Resource(self.sim, capacity=config.cpu_count,
                                  name="cpu")
        self._access_use = (Use(cpu, config.cpu_object_access_ms)
                            if config.cpu_object_access_ms > 0 else None)
        self._update_use = (Use(cpu, config.cpu_update_extra_ms)
                            if config.cpu_update_extra_ms > 0 else None)

    def _wire_read_verification(self) -> None:
        if self.buffer is not None and self.config.verify_page_reads:
            self.buffer.verify_hook = self._verify_page_read

    def _verify_page_read(self, key) -> None:
        """Checksum-verify a page as the buffer pool reads it in."""
        partition_id, page_no = key
        if not self.store.has_partition(partition_id):
            return
        partition = self.store.partition(partition_id)
        if page_no in partition._pages:
            partition.page(page_no).verify()

    def spawn_scrubber(self):
        """Start the background checksum scrubber configured by
        ``scrub_interval_ms`` (no-op when disabled); returns the
        :class:`~repro.storage.scrub.Scrubber` or ``None``."""
        if self.config.scrub_interval_ms <= 0:
            return None
        from .storage.scrub import Scrubber
        scrubber = Scrubber(
            self, interval_ms=self.config.scrub_interval_ms,
            pages_per_sweep=self.config.scrub_pages_per_sweep)
        self.sim.spawn(scrubber.run(), name="scrubber")
        return scrubber

    # -- partitions & reference tables ------------------------------------------

    def create_partition(self, partition_id: int,
                         max_pages: Optional[int] = None):
        return self.store.create_partition(partition_id, max_pages=max_pages)

    def ert_for(self, partition_id: int) -> ExternalReferenceTable:
        ert = self._erts.get(partition_id)
        if ert is None:
            ert = ExternalReferenceTable(
                partition_id,
                bucket_capacity=self.config.ert_bucket_capacity)
            self._erts[partition_id] = ert
        return ert

    def fix_page(self, oid: Oid, dirty: bool = False):
        """Pin an object's page in the buffer pool (no-op when the
        database is memory-resident, the paper's §5.3 setting)."""
        if self.buffer is not None:
            yield from self.buffer.fix((oid.partition, oid.page),
                                       dirty=dirty)

    def activate_trt(self, partition_id: int) -> TemporaryReferenceTable:
        """Bring a TRT into existence for a reorganization (§4.5: the TRT
        "is required only if a reorganization process is in progress and
        does not exist otherwise")."""
        trt = TemporaryReferenceTable(
            partition_id, bucket_capacity=self.config.ert_bucket_capacity)
        self.analyzer.activate_trt(trt)
        return trt

    def deactivate_trt(self, partition_id: int) -> None:
        self.analyzer.deactivate_trt(partition_id)

    # -- checkpoints, crash, recovery ----------------------------------------------

    def take_checkpoint(self) -> int:
        """Take a sharp checkpoint; returns the CHECKPOINT record's LSN.

        Snapshots all pages, the ERTs and the tid counter, then logs and
        flushes a CHECKPOINT record naming the snapshot.  Instantaneous in
        simulated time (the paper's experiments checkpoint at load time).
        """
        payload = {
            "store": self.store.snapshot(),
            "erts": {pid: ert.snapshot() for pid, ert in self._erts.items()},
            "next_tid": self.txns._next_tid,
            "unlogged_base": self.unlogged_base,
        }
        snapshot_id = self.snapshots.save(payload)
        active = tuple(
            (tid, self.txns.transaction(tid).last_lsn)
            for tid in sorted(self.txns.active_tids()))
        lsn = self.log.append(CheckpointRecord(
            0, 0, snapshot_id=snapshot_id, active_txns=active))
        self.log.flush_now()
        if self.checkpoint_hook is not None:
            self.checkpoint_hook(payload, snapshot_id, lsn)
        return lsn

    def crash_image(self) -> CrashImage:
        """Capture what survives a failure *without* killing anything.

        The seam for multi-node simulations (:mod:`repro.dist`): a single
        node's crash must capture its own durable state and kill only its
        own processes, while the rest of the cluster keeps running on the
        shared simulator.
        """
        if self.injector is not None:
            self.injector.detach()
        return CrashImage(durable_log=self.log.durable_bytes(),
                          snapshots=self.snapshots,
                          config=self.config)

    def crash(self) -> CrashImage:
        """Simulate a system failure: kill every process, keep only the
        durable state."""
        image = self.crash_image()
        self.sim.kill_all()
        return image

    @classmethod
    def recover(cls, image: CrashImage,
                sim: Optional[Simulator] = None) -> "StorageEngine":
        """Restart recovery: rebuild an engine from a crash image.

        Analysis / redo / undo run over the durable log; the ERTs are
        restored from the last checkpoint and rolled forward by replaying
        the log through the analyzer (§4.4's checkpointed-ERT option).
        """
        engine = cls.__new__(cls)
        engine.config = image.config
        engine.sim = sim or Simulator()
        engine._build_cpu()
        engine.log_disk = Resource(engine.sim, capacity=1, name="log-disk")
        engine.data_disk = Resource(engine.sim, capacity=1,
                                    name="data-disk")
        engine.buffer = (BufferPool(
            engine.sim, engine.data_disk,
            capacity_pages=image.config.buffer_pool_pages,
            read_ms=image.config.disk_read_ms,
            write_ms=image.config.disk_write_ms,
            io_retry_limit=image.config.io_retry_limit,
            io_retry_backoff_ms=image.config.io_retry_backoff_ms)
            if image.config.disk_resident else None)
        engine.log = LogManager.from_durable(
            engine.sim, engine.log_disk,
            flush_time_ms=image.config.log_flush_ms,
            durable=image.durable_log)
        engine.log.io_retry_limit = image.config.io_retry_limit
        engine.log.io_retry_backoff_ms = image.config.io_retry_backoff_ms
        engine.injector = None
        engine.locks = build_lock_manager(engine.sim, image.config)
        engine.latches = LatchManager(engine.sim)
        engine.snapshots = image.snapshots

        # Restore ERTs from the last durable checkpoint, if any.
        engine._erts = {}
        checkpoint_payload = None
        for record in engine.log.records():
            if isinstance(record, CheckpointRecord) and \
                    image.snapshots.has(record.snapshot_id):
                checkpoint_payload = image.snapshots.load(record.snapshot_id)
        if checkpoint_payload is not None:
            for pid, state in checkpoint_payload["erts"].items():
                engine._erts[pid] = ExternalReferenceTable.restore(
                    pid, state,
                    bucket_capacity=image.config.ert_bucket_capacity)

        engine.analyzer = LogAnalyzer(
            engine.ert_for, strict_2pl=image.config.strict_transactions)
        # Subscribe before running recovery: the undo pass appends CLRs,
        # and aborts that reintroduce deleted references must update the
        # ERTs.  Redo replays the (already-appended) durable records via
        # the replay hook, so nothing is processed twice.
        engine.log.subscribe(engine.analyzer.process)

        recovery = RecoveryManager(
            engine.log, image.snapshots, image.config.page_size,
            replay_hook=engine.analyzer.process)
        engine.store = recovery.run()
        engine.recovery_stats = recovery.stats

        engine.txns = TransactionManager(engine)
        max_tid = 0
        for record in engine.log.records():
            max_tid = max(max_tid, record.tid)
        base_tid = (checkpoint_payload or {}).get("next_tid", 1)
        engine.txns.set_next_tid(max(max_tid + 1, base_tid))
        engine.unlogged_base = bool(
            (checkpoint_payload or {}).get("unlogged_base", False))
        engine.checkpoint_hook = None
        engine.history = None
        engine.mvcc = None
        engine.tracer = None
        engine.remote_resolver = None
        engine.remote_ert_expected = None
        engine._wire_read_verification()
        return engine

    # -- integrity -----------------------------------------------------------------------

    def verify_integrity(self) -> IntegrityReport:
        """Full sweep: no dangling physical references; every ERT holds
        exactly the cross-partition references into its partition.

        With an MVCC tier attached, reference slots hold *logical* OIDs
        and are resolved through the lineage map before the existence
        check; the ERT comparison is skipped, because under lineage
        indirection relocation never patches parents and the reference
        tables exist only for the 2PL reorganizers' benefit.
        """
        report = IntegrityReport()
        lineage = (self.mvcc.resolve_physical if self.mvcc is not None
                   else None)
        actual_ert: Dict[int, set] = {pid: set()
                                      for pid in self.store.partition_ids()}
        for parent in self.store.all_live_oids():
            image = self.store.read_object(parent)
            for slot, child in image.refs():
                if lineage is not None:
                    child = lineage(child)
                if not self.store.exists(child):
                    # A reference into a partition this store does not
                    # hold is cross-node: ask the cluster directory (the
                    # child's owner keeps the authoritative ERT for it).
                    if (self.remote_resolver is not None
                            and not self.store.has_partition(
                                child.partition)):
                        if not self.remote_resolver(child):
                            report.dangling_refs.append(
                                (parent, slot, child))
                        continue
                    report.dangling_refs.append((parent, slot, child))
                elif child.partition != parent.partition:
                    actual_ert[child.partition].add((child, parent))
        if lineage is not None:
            return report
        for pid in self.store.partition_ids():
            recorded = set(self.ert_for(pid).entries())
            expected = actual_ert.get(pid, set())
            if self.remote_ert_expected is not None:
                expected = expected | set(self.remote_ert_expected(pid))
            for child, parent in expected - recorded:
                report.ert_missing.append((pid, child, parent))
            for child, parent in recorded - expected:
                report.ert_spurious.append((pid, child, parent))
        return report

    def __repr__(self) -> str:
        return (f"<StorageEngine partitions={self.store.partition_ids()} "
                f"t={self.sim.now:.1f}ms>")
