"""Content-addressed epoch work units and the shared blobs they reference.

A work unit must let a worker process reproduce the coordinator's serial
epoch execution *exactly*, with nothing but the unit, the blobs it
references, and the program image. Units used to carry whole pickled
checkpoints and per-unit log slices; they now carry *skeletons* and
*references*, and the heavy bytes travel separately as content-addressed
blobs (:mod:`repro.memory.blob`) that worker caches dedupe across units,
segments, and whole recordings:

* **Checkpoints as skeletons.** A unit's ``start`` is a full
  :class:`~repro.checkpoint.checkpoint.WireCheckpoint` (contexts plus a
  ``{page_no: digest}`` table); a record unit's ``boundary`` is a pure
  *delta* against its start — consecutive checkpoints share almost every
  page object under copy-on-write, so the delta is exactly the epoch's
  dirty pages. Kernel state is stripped: epoch executors inject logged
  syscalls and never touch a live kernel, and forward recovery (which
  does) always runs on the coordinator.

* **Shared log blobs, not per-unit slices.** Syscall/signal injection is
  keyed lookup — ``(tid, seq)`` and ``(tid, retired)`` — so any superset
  of an epoch's reachable records behaves identically (the serial paths
  pass the *full* logs). Each batch therefore interns ONE segment-level
  slice per log (everything reachable from the segment's first
  checkpoint, via :class:`ThreadLogIndex`) and every unit references it
  by digest. This replaces the old per-epoch rescans — O(epochs ×
  records) filtering and O(epochs × slice) wire bytes both collapse to
  O(records) per segment.

* **One hint tuple per segment.** The sync hints a record unit needs are
  the suffix of the segment's acquisition hints from its epoch's start
  mark (cutting them at the epoch boundary would change how the oracle
  hands objects out — see ``DoublePlayRecorder.record``). Suffixes of
  one tuple used to be materialised per unit, duplicating the tail
  O(epochs²); now the batch interns the whole segment tuple once and
  each unit carries its integer start offset.

``BlobRef`` and ``WireCheckpoint`` keep coordinator-side ``_local``
shortcuts to the original objects. They are stripped at the pickle
boundary — a worker always resolves through its cache — but the
executor's serial fallback rehydrates to the exact original objects,
zero-decode and trivially bit-identical to the ``jobs=1`` path.

A worker that cannot resolve every digest a unit references (cache
eviction racing an in-flight dispatch, a fresh pool after a crash)
answers with a structured :class:`NeedBlobs` instead of failing; the
coordinator re-dispatches that unit with the full blob set.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.checkpoint.checkpoint import Checkpoint, WireCheckpoint
from repro.memory.blob import blob_digest, encode_object
from repro.oskernel.syscalls import SyscallRecord


@dataclass
class UnitTiming:
    """Host-side cost of one work unit.

    ``wall``/``cpu``, the blob-cache fields, and the observability
    piggybacks (``spans``/``metrics``) are measured in the worker;
    ``bytes_shipped``/``blobs_sent`` are filled by the coordinator (it is
    the side that knows what crossed the wire, including resends).
    """

    #: worker wall-clock seconds spent executing the unit
    wall: float = 0.0
    #: worker CPU seconds spent executing the unit. On an oversubscribed
    #: host (more workers than cores) this is the honest per-unit cost:
    #: wall time there includes time-slicing against sibling workers.
    cpu: float = 0.0
    #: referenced digests already resident in the worker's blob cache
    blob_cache_hits: int = 0
    #: referenced digests that had to be decoded from the dispatch
    blob_cache_misses: int = 0
    #: pid of the process that ran the unit — a worker's, or the
    #: coordinator's own for serial fallbacks (every executed unit is
    #: attributable to a real track; 0 only on never-run placeholders)
    worker_pid: int = 0
    #: digests the worker evicted while absorbing this unit's dispatch
    evicted: Tuple[int, ...] = ()
    #: wire bytes shipped for this unit (all dispatch attempts)
    bytes_shipped: int = 0
    #: blobs shipped for this unit (all dispatch attempts)
    blobs_sent: int = 0
    #: raw-clock worker spans ``(name, cat, start, end, args)`` collected
    #: when the dispatch asked for tracing (see :mod:`repro.obs.spans`);
    #: the coordinator re-bases them onto its trace timeline
    spans: Tuple[tuple, ...] = ()
    #: worker-process counter delta for this unit, as sorted
    #: ``(name, amount)`` pairs (see :mod:`repro.obs.metrics`)
    metrics: Tuple[Tuple[str, int], ...] = ()


@dataclass
class BlobRef:
    """A by-digest reference to a shared batch blob.

    ``_local`` is the decoded object itself, kept on the coordinator for
    the serial fallback and stripped at the pickle boundary (workers
    resolve the digest through their cache / the dispatch blobs).
    """

    digest: int
    _local: object = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        # A 1-tuple, not the bare int: a falsy state would make pickle
        # skip __setstate__ entirely.
        return (self.digest,)

    def __setstate__(self, state):
        self.digest = state[0]
        self._local = None


@dataclass
class NeedBlobs:
    """A worker's structured "I cannot resolve these digests" response.

    Returned in place of a unit result when a required digest is neither
    in the worker's cache nor in the dispatch; the coordinator answers by
    re-dispatching the unit with every blob it references.
    """

    position: int
    missing: Tuple[int, ...]
    worker_pid: int = 0
    #: digests evicted while absorbing the dispatch that still failed
    evicted: Tuple[int, ...] = ()


@dataclass
class RecordEpochUnit:
    """One epoch of a segment, packaged for a worker process."""

    #: unit kind (a class constant, not a field: it never crosses the wire)
    kind = "record"

    #: position within the segment (0-based; orders the merge)
    position: int
    #: global epoch index (naming/diagnostics only)
    epoch_index: int
    #: epoch start state as a full skeleton (kernel-stripped)
    start: WireCheckpoint
    #: next checkpoint — per-thread targets + the end state to verify —
    #: as a pure delta against ``start``
    boundary: WireCheckpoint
    #: the segment-level syscall-log slice (shared by every unit)
    syscalls: BlobRef
    #: the segment-level signal-delivery slice (shared by every unit)
    signals: BlobRef
    #: the segment's whole acquisition-hint tuple (shared by every unit)
    sync_events: BlobRef
    #: this unit's start offset into the hint tuple (its hints are the
    #: suffix ``hints[sync_start:]``)
    sync_start: int = 0
    use_sync_hints: bool = True
    #: fault-injection directives for this unit (testing knob; stamped by
    #: the executor from ``REPRO_FAULT``, applied by the worker — see
    #: :mod:`repro.host.faults`). Never part of the recording.
    faults: Tuple = ()

    def required_digests(self) -> Set[int]:
        """Every blob digest a worker must resolve to run this unit."""
        required = set(self.start.blob_digests())
        required.update(self.boundary.blob_digests())
        required.add(self.syscalls.digest)
        required.add(self.signals.digest)
        required.add(self.sync_events.digest)
        return required


@dataclass
class ReplayEpochUnit:
    """One committed epoch of a recording, packaged for parallel replay."""

    kind = "replay"

    #: position within the recording (0-based; orders the merge)
    position: int
    #: the committed epoch's index
    epoch_index: int
    #: epoch start state as a full skeleton (kernel-stripped)
    start: WireCheckpoint
    #: per-thread retired-op targets at the epoch's end boundary
    targets: dict
    #: the committed timeslice schedule to follow (per-epoch, inline)
    schedule: object
    #: the committed acquisition order (per-epoch and disjoint, inline)
    sync_events: Tuple[tuple, ...]
    #: guest-state digest the replay must reach
    end_digest: int
    #: the recording's epoch-reachable syscall log (shared by every unit)
    syscalls: BlobRef
    #: the recording's signal-delivery log (shared by every unit)
    signals: BlobRef
    #: fault-injection directives for this unit (see ``RecordEpochUnit``)
    faults: Tuple = ()

    def required_digests(self) -> Set[int]:
        """Every blob digest a worker must resolve to run this unit."""
        required = set(self.start.blob_digests())
        required.add(self.syscalls.digest)
        required.add(self.signals.digest)
        return required


@dataclass
class UnitBatch:
    """A segment's (or recording's) units plus their shared blob set.

    ``blobs`` holds every blob any unit in the batch references, keyed by
    digest — the executor ships each worker only the subset it is not
    already believed to hold.
    """

    units: List[object]
    blobs: Dict[int, bytes]

    def __len__(self) -> int:
        return len(self.units)


# ----------------------------------------------------------------------
# Log slicing.
# ----------------------------------------------------------------------
class ThreadLogIndex:
    """Per-thread key index over a log, for suffix queries without rescans.

    Built once per log in O(records); each :meth:`slice_from` then costs
    O(selected) plus a bisect per thread, instead of a full-log filter.
    Selection is by per-thread key floor and the result preserves log
    order, so it is exactly equivalent to the old linear filters.
    """

    def __init__(self, records: Sequence, tid_of: Callable, key_of: Callable):
        self._tid_of = tid_of
        self._key_of = key_of
        self._records: List = []
        self._by_tid: Dict[int, Tuple[List[int], List[int]]] = {}
        self._absorb(records, 0)

    def _absorb(self, records: Sequence, start: int) -> None:
        append = self._records.append
        by_tid = self._by_tid
        tid_of, key_of = self._tid_of, self._key_of
        unsorted_tail = False
        for position in range(start, len(records)):
            record = records[position]
            append(record)
            tid, key = tid_of(record), key_of(record)
            entry = by_tid.get(tid)
            if entry is None:
                entry = by_tid[tid] = ([], [])
            keys = entry[0]
            # Per-thread keys are appended in increasing order, so this
            # is a linear pass; a sort below keeps the bisect correct
            # regardless.
            if keys and key < keys[-1]:
                unsorted_tail = True
            keys.append(key)
            entry[1].append(position)
        if unsorted_tail:
            for tid, (keys, positions) in by_tid.items():
                pairs = sorted(zip(keys, positions))
                by_tid[tid] = (
                    [k for k, _ in pairs], [p for _, p in pairs]
                )

    def extend_to(self, records: Sequence) -> "ThreadLogIndex":
        """Absorb records appended to the same log since the index was
        built — O(new records), the streaming commit path's amortizer.

        Only valid when ``records`` is the already-indexed log plus new
        entries at the tail; callers seeing a shrink or an in-place
        rewrite must rebuild instead.
        """
        if len(records) < len(self._records):
            raise ValueError(
                "log shrank since the index was built — rebuild it"
            )
        self._absorb(records, len(self._records))
        return self

    @classmethod
    def for_syscalls(cls, records: Sequence[SyscallRecord]) -> "ThreadLogIndex":
        return cls(records, lambda r: r.tid, lambda r: r.seq)

    @classmethod
    def for_signals(cls, records: Sequence[tuple]) -> "ThreadLogIndex":
        return cls(records, lambda r: r[0], lambda r: r[1])

    def slice_from(self, floors: Dict[int, int]) -> tuple:
        """Records whose key is at least their thread's floor, in log order.

        Threads absent from ``floors`` (spawned after the slicing point)
        keep all their records.
        """
        selected: List[int] = []
        for tid, (keys, positions) in self._by_tid.items():
            lowest = bisect_left(keys, floors.get(tid, 0))
            selected.extend(positions[lowest:])
        selected.sort()
        return tuple(self._records[p] for p in selected)

    def positions_between(
        self, start_floors: Dict[int, int], end_floors: Optional[Dict[int, int]]
    ) -> Tuple[int, ...]:
        """Log positions of records in the half-open per-thread key window
        ``[start_floors[tid], end_floors[tid])``, in log order.

        This is the *shard extent* query of the durable log
        (:mod:`repro.record.shards`): per-epoch per-thread shards are
        exactly these windows between consecutive checkpoints' per-thread
        counts. Floor semantics match :meth:`slice_from`: a thread absent
        from ``start_floors`` starts at 0 (spawned mid-epoch), a thread
        absent from ``end_floors`` keeps everything from its start floor
        (the final, unbounded slice), and ``end_floors=None`` means no
        upper bound for anyone. Records at exactly a checkpoint's count —
        boundary-straddling calls logged at their later completion —
        land in the *following* window, mirroring the floor rule.
        """
        selected: List[int] = []
        for tid, (keys, positions) in self._by_tid.items():
            lowest = bisect_left(keys, start_floors.get(tid, 0))
            if end_floors is None or tid not in end_floors:
                highest = len(keys)
            else:
                highest = bisect_left(keys, end_floors[tid])
            selected.extend(positions[lowest:highest])
        selected.sort()
        return tuple(selected)

    def slice_between(
        self, start_floors: Dict[int, int], end_floors: Optional[Dict[int, int]]
    ) -> tuple:
        """Records of the ``[start, end)`` per-thread window, in log order."""
        return tuple(
            self._records[p]
            for p in self.positions_between(start_floors, end_floors)
        )

    def record_at(self, position: int):
        """The record at a global log position (shard frame rebuild)."""
        return self._records[position]


def syscall_slice(
    records: Sequence[SyscallRecord], start: Checkpoint
) -> Tuple[SyscallRecord, ...]:
    """Records an epoch starting at ``start`` can reach.

    Injection looks up ``(tid, ctx.syscall_count)`` and a thread's count
    starts at the checkpoint's value and only grows, so records below it
    are unreachable. Threads absent from the checkpoint (spawned later)
    start at count 0 and keep everything.
    """
    counts = {tid: ctx.syscall_count for tid, ctx in start.contexts.items()}
    return ThreadLogIndex.for_syscalls(records).slice_from(counts)


def signal_slice(records: Sequence[tuple], start: Checkpoint) -> Tuple[tuple, ...]:
    """Signal deliveries an epoch starting at ``start`` can reach.

    Delivery fires at ``(tid, ctx.retired)`` and retired counts start at
    the checkpoint's values; records below them can never match.
    """
    retired = {tid: ctx.retired for tid, ctx in start.contexts.items()}
    return ThreadLogIndex.for_signals(records).slice_from(retired)


# ----------------------------------------------------------------------
# Batch builders.
# ----------------------------------------------------------------------
def intern_object(obj, blobs: Dict[int, bytes]) -> BlobRef:
    """Encode ``obj`` into the batch blob set and return its reference."""
    blob = encode_object(obj)
    digest = blob_digest(blob)
    blobs.setdefault(digest, blob)
    return BlobRef(digest, obj)


def _intern_pages(checkpoint: Checkpoint, blobs: Dict[int, bytes]) -> None:
    """Add every page of a checkpoint's snapshot to the batch blob set."""
    for page in checkpoint.memory.pages.values():
        digest, blob = page.wire_blob()
        if digest not in blobs:
            blobs[digest] = blob


def record_units_for_segment(
    checkpoints: Sequence[Checkpoint],
    hints: Sequence[tuple],
    hint_marks: Sequence[int],
    syscall_log: Sequence[SyscallRecord],
    signal_log: Sequence[tuple],
    first_epoch_index: int,
    use_sync_hints: bool,
) -> UnitBatch:
    """Package every epoch of a recorded segment as a work-unit batch.

    The logs are sliced ONCE, at segment level: everything reachable from
    the segment's first checkpoint. Per-unit tighter slices would be
    redundant (injection is keyed lookup; extra records are never
    consulted) and would defeat blob sharing across the segment's units.
    """
    blobs: Dict[int, bytes] = {}
    segment_start = checkpoints[0]
    syscalls_ref = intern_object(syscall_slice(syscall_log, segment_start), blobs)
    signals_ref = intern_object(signal_slice(signal_log, segment_start), blobs)
    hints_ref = intern_object(tuple(hints), blobs)
    units = []
    for position in range(len(checkpoints) - 1):
        start = checkpoints[position]
        boundary = checkpoints[position + 1]
        _intern_pages(start, blobs)
        _intern_pages(boundary, blobs)
        units.append(
            RecordEpochUnit(
                position=position,
                epoch_index=first_epoch_index + position,
                start=start.to_wire(),
                boundary=boundary.wire_delta(start),
                syscalls=syscalls_ref,
                signals=signals_ref,
                sync_events=hints_ref,
                sync_start=hint_marks[position],
                use_sync_hints=use_sync_hints,
            )
        )
    return UnitBatch(units, blobs)


def speculative_record_unit(
    position: int,
    epoch_index: int,
    start: Checkpoint,
    boundary: Checkpoint,
    hints_window: Sequence[tuple],
    syscall_log: Sequence[SyscallRecord],
    signal_log: Sequence[tuple],
    use_sync_hints: bool,
    blobs: Dict[int, bytes],
) -> object:
    """Package one epoch for *speculative* dispatch during the TP run.

    Unlike :func:`record_units_for_segment` the segment is still being
    produced, so the unit ships snapshots cut at dispatch time: the hint
    window ``hints[mark:cut]`` as its own tuple (``sync_start=0``) and
    log slices taken from the *current* log prefixes. The recorder
    validates at segment end that nothing arriving after the cut could
    have been consulted (see ``DoublePlayRecorder``); blob interning
    goes through the session-shared ``blobs`` dict so consecutive
    speculative units dedupe their checkpoint pages.
    """
    syscalls_ref = intern_object(syscall_slice(syscall_log, start), blobs)
    signals_ref = intern_object(signal_slice(signal_log, start), blobs)
    hints_ref = intern_object(tuple(hints_window), blobs)
    _intern_pages(start, blobs)
    _intern_pages(boundary, blobs)
    return RecordEpochUnit(
        position=position,
        epoch_index=epoch_index,
        start=start.to_wire(),
        boundary=boundary.wire_delta(start),
        syscalls=syscalls_ref,
        signals=signals_ref,
        sync_events=hints_ref,
        sync_start=0,
        use_sync_hints=use_sync_hints,
    )


def replay_units_for_recording(recording) -> UnitBatch:
    """Package every committed epoch of a recording for parallel replay.

    Requires materialised start checkpoints (like any parallel replay).
    The logs ship whole — exactly what the serial replayer consumes — as
    two blobs shared by every unit.
    """
    from repro.errors import ReplayError

    blobs: Dict[int, bytes] = {}
    syscalls_ref = intern_object(tuple(recording.syscalls_for_epochs()), blobs)
    signals_ref = intern_object(tuple(recording.signal_records), blobs)
    units = []
    for position, epoch in enumerate(recording.epochs):
        start = epoch.start_checkpoint
        if start is None:
            raise ReplayError(
                f"epoch {epoch.index} has no materialised checkpoint; "
                "run materialize_checkpoints() or replay sequentially"
            )
        _intern_pages(start, blobs)
        units.append(
            ReplayEpochUnit(
                position=position,
                epoch_index=epoch.index,
                start=start.to_wire(),
                targets=dict(epoch.targets),
                schedule=epoch.schedule,
                sync_events=epoch.sync_log.events,
                end_digest=epoch.end_digest,
                syscalls=syscalls_ref,
                signals=signals_ref,
            )
        )
    return UnitBatch(units, blobs)
