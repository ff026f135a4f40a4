"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions of each layer with timing
wrappers for the duration of a ``with tracer.installed():`` block and
restores the originals on exit.  Every call is one span (name, start,
end, parent span, request id); a generator function is timed per resume,
and its wrapper forwards ``send``/``throw``/``close`` unchanged, so the
simulation runs exactly as untraced.  A span's self time is its duration
minus the durations of the spans it contains; a layer's self time is the
sum over its spans.  Work the program inlines past a wrapped function
stays in its caller's self time.

Spans stay in memory, in flat arrays, and :meth:`Tracer.write` saves
them at the end of the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.database
from repro.concurrency import LockManager
from repro.core import IncrementalReorganizer
from repro.database import Database
from repro.hlock import HierarchicalLockManager
from repro.hlock.bench import LockBenchDriver
from repro.refs.log_analyzer import LogAnalyzer
from repro.sim import Simulator
from repro.storage import ObjectStore
from repro.storage.buffer import BufferPool
from repro.txn import Transaction
from repro.wal.log import LogManager
from repro.workload import WorkloadDriver

#: Layers whose self times partition the traced run time.
RUN_LAYERS = ("sim", "concurrency", "hlock", "storage", "buffer", "wal",
              "txn", "refs", "core", "workload")
LAYERS = RUN_LAYERS + ("verify",)

STORE_READS = ("read_object", "read_object_with_children", "read_raw",
               "exists", "ref_capacity", "get_ref", "get_payload",
               "children_tuple", "children_of", "page_lsn")
STORE_WRITES = ("allocate_object", "allocate_object_at", "replace_object",
                "free_object", "set_ref", "set_payload_bytes",
                "set_page_lsn")
TXN_OPS = ("lock", "unlock", "read", "read_refs", "write_payload",
           "insert_ref", "delete_ref", "update_ref", "create_object",
           "replace_object", "delete_object")
LOCK_CALLS = ("try_acquire", "acquire_wait", "release", "release_all")

#: Request ids: spans under the reorganizer carry ``REORG``; spans of a
#: user walk carry its transaction's tid (positive); spans outside both
#: carry ``KERNEL``.  A walk resume is ``UNRESOLVED`` until its first
#: transaction span names the tid.
REORG = -1
KERNEL = 0
UNRESOLVED = -2

# Frame slots of an open span.
_IDX, _START, _CHILD, _LAYER, _RID = range(5)


class Tracer:
    """Spans and per-layer self times of the calls made while installed."""

    def __init__(self, record_spans: bool = True):
        self.record_spans = record_spans
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self.calls: Counter = Counter()
        self.self_s = [0.0] * len(LAYERS)
        self.marks: Dict[str, Tuple[List[float], Counter]] = {}
        self._stack: List[list] = []
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_rid = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layer.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _enter(self, nid: int, rid: Optional[int]) -> list:
        """Open a span; ``rid=None`` inherits the parent's request id."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if rid is None:
            rid = parent[_RID] if parent is not None else KERNEL
        elif rid > 0 and parent is not None:
            outer = parent[_RID]
            if outer == UNRESOLVED:
                # The first transaction span under a walk names the
                # walk's request: hand its tid up to the open frames.
                for frame in reversed(stack):
                    if frame[_RID] != UNRESOLVED:
                        break
                    frame[_RID] = rid
            elif outer != KERNEL:
                rid = outer  # a reorganizer's system transaction
        self.calls[nid] += 1
        idx = -1
        if self.record_spans:
            idx = len(self._span_name)
            self._span_name.append(nid)
            self._span_parent.append(parent[_IDX] if parent else -1)
            self._span_rid.append(UNRESOLVED)
            self._span_end.append(0.0)
        frame = [idx, 0.0, 0.0, self.name_layer[nid], rid]
        stack.append(frame)
        frame[_START] = start = perf_counter()
        if idx >= 0:
            self._span_start.append(start)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[_START]
        self.self_s[frame[_LAYER]] += duration - frame[_CHILD]
        if stack:
            stack[-1][_CHILD] += duration
        idx = frame[_IDX]
        if idx >= 0:
            self._span_end[idx] = end
            self._span_rid[idx] = frame[_RID]

    def mark(self, phase: str) -> None:
        """Snapshot the self times and call counts at a phase boundary."""
        if self._stack:
            raise RuntimeError(f"span open across phase mark {phase!r}")
        self.marks[phase] = (list(self.self_s), Counter(self.calls))

    def phase_self_s(self, first: str, last: str) -> Dict[str, float]:
        """Per-layer self time between two marks."""
        base, end = self.marks[first][0], self.marks[last][0]
        return {layer: end[i] - base[i] for i, layer in enumerate(LAYERS)}

    def phase_count(self, first: str, last: str, *names: str) -> int:
        """Calls to the named functions between two marks."""
        calls = self.marks[last][1] - self.marks[first][1]
        wanted = set(names)
        return sum(n for nid, n in calls.items()
                   if self.names[nid] in wanted)

    @property
    def span_count(self) -> int:
        return len(self._span_name)

    def write(self, path: str) -> None:
        """Save the spans: one JSON header line, then the raw arrays in
        the header's field order (native byte order)."""
        # A span that closed before its walk learned its tid (the BEGIN
        # record's append) takes the walk's; parents precede children.
        rids, parents = self._span_rid, self._span_parent
        for idx, rid in enumerate(rids):
            if rid == UNRESOLVED and parents[idx] >= 0:
                rids[idx] = rids[parents[idx]]
        header = {"names": self.names,
                  "layers": [LAYERS[i] for i in self.name_layer],
                  "count": self.span_count,
                  "fields": [["name", "i"], ["parent", "q"],
                             ["request", "q"], ["start_s", "d"],
                             ["end_s", "d"]]}
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self._span_name, self._span_parent,
                           self._span_rid, self._span_start,
                           self._span_end):
                column.tofile(handle)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn: Callable, pick: Callable[[tuple], int],
              rid_of: Optional[Callable[[tuple], int]]) -> Callable:
        enter, leave = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            traced = self._traced_gen

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return traced(fn(*args, **kwargs), pick(args),
                              rid_of(args) if rid_of else None)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(pick(args), rid_of(args) if rid_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
        return wrapper

    def _traced_gen(self, gen, nid: int, rid: Optional[int]):
        """Drive ``gen`` one resume per span, forwarding every value and
        exception both ways."""
        enter, leave = self._enter, self._exit
        value, error = None, None
        while True:
            frame = enter(nid, rid)
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                leave(frame)
                return stop.value
            except BaseException:
                leave(frame)
                raise
            leave(frame)
            value, error = None, None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                error = exc

    def _patch(self, owner, attr: str, layer: str,
               rid_of: Optional[Callable[[tuple], int]] = None,
               alt_layer: Optional[Tuple[type, str]] = None) -> None:
        """Replace ``owner.attr`` with a traced version of itself."""
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        nid = self._name_id(f"{getattr(owner, '__name__', owner)}.{attr}",
                            layer)
        if alt_layer is None:
            def pick(args, nid=nid):
                return nid
        else:
            # Inherited code running on behalf of a subclass instance
            # counts toward the subclass's layer.
            cls, other = alt_layer
            alt = self._name_id(f"{cls.__name__}->{owner.__name__}.{attr}",
                                other)

            def pick(args, nid=nid, alt=alt, cls=cls):
                return alt if isinstance(args[0], cls) else nid
        wrapped = self._wrap(fn, pick, rid_of)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Trace every layer boundary while the block runs.  Install
        before building the database: some callbacks are bound then."""
        patch = self._patch
        try:
            patch(Simulator, "run", "sim", rid_of=lambda args: KERNEL)
            for name in LOCK_CALLS:
                patch(LockManager, name, "concurrency",
                      alt_layer=(HierarchicalLockManager, "hlock"))
                patch(HierarchicalLockManager, name, "hlock")
            for name in STORE_READS + STORE_WRITES:
                patch(ObjectStore, name, "storage")
            for name in ("fix", "flush_all"):
                patch(BufferPool, name, "buffer")
            for name in ("append", "flush"):
                patch(LogManager, name, "wal")
            for name in TXN_OPS + ("commit", "abort"):
                patch(Transaction, name, "txn",
                      rid_of=lambda args: args[0].tid)
            patch(LogAnalyzer, "process", "refs")
            patch(IncrementalReorganizer, "run", "core",
                  rid_of=lambda args: REORG)
            patch(repro.database, "build_database", "workload")
            for driver in (WorkloadDriver, LockBenchDriver):
                patch(driver, "walk_fn", "workload",
                      rid_of=lambda args: UNRESOLVED)
            patch(Database, "verify_integrity", "verify")
            yield self
        finally:
            while self._saved:
                owner, attr, raw = self._saved.pop()
                setattr(owner, attr, raw)
