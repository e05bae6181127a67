"""The worker-pool executor: epoch work units on real host cores.

``HostExecutor`` wraps a spawn-context :class:`ProcessPoolExecutor`.
Spawn (not fork) keeps workers safe on every platform and guarantees
they import a fresh ``repro`` — nothing leaks from the coordinator
except what the work units carry.

Protocol per batch: build dispatches lazily inside a bounded submission
window (about two per worker — blobs are encoded and shipped only for
units that will actually run), consume results strictly in position
order (the merge on the coordinator is therefore deterministic
regardless of completion order), and on the first divergence cancel
everything not yet started — epochs after a divergence belong to an
abandoned thread-parallel future and their results would be discarded
anyway. A worker that is already mid-epoch runs to completion
harmlessly; its result is dropped.

**The content-addressed wire.** A dispatch carries a unit *skeleton*
(:mod:`repro.host.wire`) plus only the blobs the pool's workers are not
already believed to hold: workers keep byte-budgeted LRU caches of
decoded blobs and the coordinator mirrors their contents in a
module-level :class:`~repro.host.blobs.WorkerCacheTracker` (module
level for the same reason the shared pool is — worker caches persist
across ``HostExecutor`` instances, so the model must too). The pool
gives no control over which worker pops a unit, so a blob is omitted
only when *every* live worker holds it; the tracker is advisory — a
worker missing a digest answers with a structured
:class:`~repro.host.wire.NeedBlobs` result and the coordinator
re-dispatches that unit with its full blob set (capped, then treated as
a task error and contained like any other). In steady state a unit
ships its skeleton plus the epoch's dirty pages, nothing else.

**Fault containment.** A failed epoch-parallel attempt is disposable by
design — that is the paper's core insight — so host faults are treated
the same way a guest divergence is: contain, re-execute, keep going.
Three failure classes, one policy (per unit: retry once on a fresh pool,
then fall back to in-coordinator serial execution):

* **crash** — a worker process died; ``concurrent.futures`` breaks the
  whole pool, so surviving results are harvested out of their futures,
  the pool is rebuilt, and unfinished units are resubmitted. The crash
  is attributed to the unit the coordinator was waiting on; collateral
  victims are resubmitted without blame (they may occasionally burn an
  attempt of their own — that costs parallelism, never correctness).
* **timeout** — a unit exceeded the per-unit wall-clock budget
  (``unit_timeout``, default ``REPRO_UNIT_TIMEOUT`` or 60 s; 0
  disables). The hung worker cannot be recalled, so the pool's processes
  are terminated and the pool rebuilt.
* **task error** — the unit raised inside the worker. The worker returns
  the exception as a structured, picklable
  :class:`~repro.errors.WorkerTaskError` result instead of raising, so
  the pool stays healthy. A deterministic guest error reproduces during
  the serial fallback and is re-raised there, exactly as the ``jobs=1``
  path would have raised it.

**One unit lifecycle.** Every attempt at a unit — a fresh dispatch, a
full-blob resend, or a speculative dispatch from the commit pipeline —
is shipped by one helper (``HostExecutor._ship``) and settled by one
function (:func:`_settle`) into one of five states: ok, need-blobs,
task-error, crash, timeout. The unit then ends as accepted, retried,
discarded (speculation never retries) or serial, and every result that
stands is accepted through one ``HostExecutor._accept``, which is where
wire stamping, observability ingest, the ``unit_wall_s``/``unit_bytes``
histograms and ``unit_timings`` happen — so each committed unit is
counted exactly once, whatever path it took.

Because epoch execution is a deterministic function of the checkpoints
and logs, and the serial fallback runs the identical pure function in
the coordinator (through the units' ``_local`` shortcuts — the exact
original objects, no decode), every recording and replay verdict is
bit-identical to ``jobs=1`` no matter which workers crashed, hung,
raised, or missed their caches along the way. Faults and cache traffic
change only wall-clock time and the host accounting
(``timing_summary()["faults"]`` / ``["wire"]``), which is surfaced on
``RecordResult.host`` / ``ReplayResult.host`` and never stored in a
recording.

One shared pool is kept per coordinator process (``shared_pool``) so a
test suite or benchmark sweep pays the spawn cost once, not per
recording. A broken shared pool is detected and rebuilt transparently on
the next call; growing the pool drains in-flight work before replacing
it.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.config import default_unit_timeout
from repro.core.epoch_runner import EpochRunResult, run_epoch
from repro.errors import (
    HostPoolError,
    WorkerCrashError,
    WorkerTaskError,
    WorkerTimeoutError,
)
from repro.host import faults as fault_injection
from repro.host.blobs import (
    BlobCache,
    WorkerCacheTracker,
    blob_cache_capacity,
    decode_blob_object,
)
from repro.host.wire import NeedBlobs, UnitBatch, UnitTiming
from repro.memory.blob import blob_digest, encode_object
from repro.obs import events as obs_events
from repro.obs import histo as obs_histo
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.record.sync_log import SyncOrderLog

_shared_pool = None
_shared_size = 0

#: guards ``_shared_pool``/``_shared_size``: concurrent sessions (the
#: service layer, or any threaded caller) reach shared_pool() and
#: invalidate_shared_pool() simultaneously, and the grow/rebuild path is
#: a multi-step read-modify-write — unlocked, two racing callers can
#: shut down a pool twice or leak one entirely. RLock because a locked
#: path may call another locked path (shutdown → invalidate).
_pool_lock = threading.RLock()

#: coordinator-side mirror of every worker's blob cache, keyed by pid.
#: Thread-safe (internally locked): with the service layer many session
#: threads build dispatches and fold acks concurrently.
_cache_tracker = WorkerCacheTracker()

#: pool attempts per unit before the serial fallback (initial + 1 retry)
_POOL_ATTEMPTS = 2

#: full-blob-set re-dispatches per unit before a NeedBlobs answer is
#: treated as a task error (a full dispatch is self-sufficient — the
#: worker can always hydrate straight from it — so one resend suffices
#: unless something is genuinely wrong)
_BLOB_RESEND_LIMIT = 2

#: ceiling on worker spawn + first ping (a stuck spawn is a host bug)
_SPAWN_TIMEOUT = 120.0


@contextlib.contextmanager
def _worker_import_path():
    """Temporarily export the package root so spawned workers can ``import repro``.

    Spawn re-execs the interpreter, which builds ``sys.path`` from
    ``PYTHONPATH`` — the coordinator may instead have been launched with
    a ``sys.path`` hack (benchmarks do), so the package root is exported
    explicitly. The export is scoped to pool construction and restored
    exactly afterwards: a persistent mutation would leak into every
    unrelated subprocess the caller (or its test suite) spawns later.
    """
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    original = os.environ.get("PYTHONPATH")
    parts = [p for p in (original or "").split(os.pathsep) if p]
    if root in parts:
        yield
        return
    os.environ["PYTHONPATH"] = os.pathsep.join([root] + parts)
    try:
        yield
    finally:
        if original is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = original


def _worker_ping() -> int:
    """No-op worker task: forces a spawn and proves the import worked."""
    return os.getpid()


def _new_pool(jobs: int) -> ProcessPoolExecutor:
    """A fresh spawn-context pool with all ``jobs`` workers pre-spawned.

    Workers must spawn while the scoped ``PYTHONPATH`` export is active,
    and ``ProcessPoolExecutor`` spawns lazily per submit — so every
    worker is forced up with a ping before the export is rolled back.
    (A pool never replaces dead workers — a death breaks it and we build
    a new one through here — so no worker can ever spawn later without
    the export.)
    """
    context = multiprocessing.get_context("spawn")
    with _worker_import_path():
        pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
        try:
            pings = [pool.submit(_worker_ping) for _ in range(jobs)]
            for ping in pings:
                ping.result(timeout=_SPAWN_TIMEOUT)
        except Exception:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return pool


def _pool_broken(pool: ProcessPoolExecutor) -> bool:
    return bool(getattr(pool, "_broken", False))


def _pool_pids(pool: ProcessPoolExecutor) -> List[int]:
    return list(getattr(pool, "_processes", None) or ())


def _forget_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Drop the cache-tracker state of a pool whose workers are going away."""
    if pool is None:
        return
    for pid in _pool_pids(pool):
        _cache_tracker.forget_worker(pid)


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool whose workers may be hung (they cannot be recalled)."""
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.join(timeout=5)
        except Exception:
            pass


def shared_pool(jobs: int) -> ProcessPoolExecutor:
    """The coordinator-wide pool, grown (never shrunk) to ``jobs`` workers.

    A previously-broken pool (a worker died) is detected here and rebuilt
    transparently — the breakage of one recording must never poison the
    next. Growing drains in-flight units before replacing the pool, so a
    still-running batch keeps its results.
    """
    global _shared_pool, _shared_size
    with _pool_lock:
        if _shared_pool is not None and _pool_broken(_shared_pool):
            invalidate_shared_pool()
        if _shared_pool is None or _shared_size < jobs:
            if _shared_pool is not None:
                # Drain, don't yank: both running and queued units complete
                # before the pool is replaced (growth must never lose work).
                _forget_pool(_shared_pool)
                _shared_pool.shutdown(wait=True, cancel_futures=False)
            _shared_pool = _new_pool(jobs)
            _shared_size = jobs
        return _shared_pool


def invalidate_shared_pool(kill: bool = False) -> None:
    """Drop the cached shared pool so the next ``shared_pool()`` rebuilds it.

    ``kill=True`` terminates the worker processes first — required after
    a unit timeout, when a worker is hung and would otherwise block
    interpreter exit (the executor's atexit handler joins workers).
    """
    global _shared_pool, _shared_size
    with _pool_lock:
        if _shared_pool is None:
            return
        _forget_pool(_shared_pool)
        if kill:
            _kill_workers(_shared_pool)
        else:
            _shared_pool.shutdown(wait=True, cancel_futures=True)
        _shared_pool = None
        _shared_size = 0


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (tests and benchmark hygiene)."""
    invalidate_shared_pool(kill=False)


# ----------------------------------------------------------------------
# The dispatch envelope and the worker-side blob cache.
# ----------------------------------------------------------------------
@dataclass
class UnitDispatch:
    """One unit skeleton plus exactly the blobs being shipped with it."""

    machine: object
    unit: object
    program_digest: int
    blobs: Dict[int, bytes] = field(default_factory=dict)
    #: when True the worker collects observability spans for this unit
    #: and ships them home on ``UnitTiming.spans`` (set from the
    #: coordinator's active tracer; workers have no tracer of their own)
    trace: bool = False

    def required_digests(self) -> Set[int]:
        required = self.unit.required_digests()
        required.add(self.program_digest)
        return required


#: this worker process's decoded-blob cache (created at first dispatch,
#: so ``REPRO_BLOB_CACHE_MB`` is read in the worker, not inherited state)
_worker_blobs: Optional[BlobCache] = None

#: decoded :class:`~repro.isa.program.ProgramImage` objects pinned per
#: worker process, keyed by program blob digest. The blob cache already
#: dedupes decoded blobs, but it is byte-budgeted and may evict the
#: program — and re-decoding an image also throws away the decode and
#: superblock tables lazily rebuilt on its ``__dict__`` (both are
#: stripped at the pickle boundary). Pinning a handful of images keeps
#: those tables memoised once per image per process.
_worker_programs: Dict[int, object] = {}
_WORKER_PROGRAM_CAP = 4


def _worker_program(digest: int, resolve) -> object:
    program = _worker_programs.get(digest)
    if program is None:
        program = resolve(digest)
        while len(_worker_programs) >= _WORKER_PROGRAM_CAP:
            _worker_programs.pop(next(iter(_worker_programs)))
        _worker_programs[digest] = program
    return program


def _worker_cache() -> BlobCache:
    global _worker_blobs
    if _worker_blobs is None:
        _worker_blobs = BlobCache(blob_cache_capacity())
    return _worker_blobs


def _absorb_dispatch(dispatch: UnitDispatch):
    """Insert the dispatch's blobs into this worker's cache and check it.

    Returns ``(resolve, timing)`` on success — ``resolve`` maps a digest
    to its decoded object, falling back from the cache to the dispatch's
    own blobs (via a per-dispatch memo), so a digest that was shipped can
    ALWAYS be resolved even if a tiny cache evicted it during this very
    absorb; that fallback is what makes NeedBlobs loops impossible.
    Returns ``(None, NeedBlobs)`` when a required digest is neither
    cached nor shipped.
    """
    cache = _worker_cache()
    evicted: List[int] = []
    for digest, blob in dispatch.blobs.items():
        evicted.extend(cache.insert(digest, blob))
    hits = misses = 0
    missing: List[int] = []
    for digest in dispatch.required_digests():
        if digest in dispatch.blobs:
            misses += 1
        elif cache.has(digest) or digest in _worker_programs:
            hits += 1
        else:
            missing.append(digest)
    if missing:
        return None, NeedBlobs(
            position=dispatch.unit.position,
            missing=tuple(sorted(missing)),
            worker_pid=os.getpid(),
            evicted=tuple(evicted),
        )
    memo: Dict[int, object] = {}

    def resolve(digest: int):
        obj = cache.get(digest)
        if obj is not None:
            return obj
        obj = memo.get(digest)
        if obj is None:
            obj = decode_blob_object(dispatch.blobs[digest])
            memo[digest] = obj
        return obj

    timing = UnitTiming(
        blob_cache_hits=hits,
        blob_cache_misses=misses,
        worker_pid=os.getpid(),
        evicted=tuple(evicted),
    )
    return resolve, timing


# ----------------------------------------------------------------------
# The one execution body (module-level for pickling).
#
# ``_hydrate`` turns a unit into a ready-to-run epoch; it is the only
# step that differs by unit kind (a record unit also hydrates its
# boundary and its sync-hint suffix, a replay unit does not).
# ``_unit_task`` is the worker entry point: it applies injected faults,
# absorbs the dispatch into the blob cache, and converts any exception
# into a structured WorkerTaskError *result*, so a bad unit can never
# break the pool. ``_run_local`` is the coordinator's serial fallback:
# it hydrates through the units' ``_local`` shortcuts (the exact
# original objects — no fault injection, no exception conversion, so a
# deterministic guest error raises there with full context, matching
# the jobs=1 path).
# ----------------------------------------------------------------------
def _hydrate(program, machine, unit, resolve) -> Callable[[], object]:
    """Rebuild one unit's inputs; return the call that executes it.

    ``resolve`` maps a digest to its decoded blob (worker side); None
    rehydrates from the coordinator's ``_local`` objects instead.
    """

    def fetch(ref):
        return ref._local if resolve is None else resolve(ref.digest)

    start = unit.start.hydrate(resolve)
    syscalls = fetch(unit.syscalls)
    signals = fetch(unit.signals)
    if unit.kind == "record":
        boundary = unit.boundary.hydrate(resolve, base_pages=start.memory.pages)
        hints = fetch(unit.sync_events)
        return lambda: run_epoch(
            program,
            machine,
            unit.epoch_index,
            start,
            boundary,
            syscalls,
            SyncOrderLog(hints[unit.sync_start :]),
            unit.use_sync_hints,
            signal_records=signals,
        )
    # Imported here, not at module top: repro.core.replayer is the only
    # core module this one touches, and it imports us lazily in return.
    from repro.core.replayer import replay_epoch_unit

    return lambda: replay_epoch_unit(program, machine, unit, start, syscalls, signals)


def _timed(run: Callable[[], object]) -> Tuple[object, float, float]:
    """``(value, wall seconds, CPU seconds)`` of one epoch execution."""
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    value = run()
    return value, time.perf_counter() - wall0, time.process_time() - cpu0


def _unit_task(dispatch: UnitDispatch):
    """Worker entry point: ``(position, value, UnitTiming)`` and never raises."""
    unit = dispatch.unit
    # A fresh registry per task: whatever an aborted or dropped previous
    # task accumulated must never ride home with this unit's counters.
    obs_metrics.process_stats().clear()
    spanlog = obs_spans.WorkerSpanLog() if dispatch.trace else None
    try:
        fault_injection.inject(unit.faults)
        decode_start = time.perf_counter()
        resolve, timing = _absorb_dispatch(dispatch)
        if resolve is None:
            return unit.position, timing, UnitTiming(worker_pid=os.getpid())
        program = _worker_program(dispatch.program_digest, resolve)
        run = _hydrate(program, dispatch.machine, unit, resolve)
        if spanlog is not None:
            spanlog.add(
                "wire-decode",
                obs_spans.CAT_WIRE,
                decode_start,
                time.perf_counter(),
                position=unit.position,
                cache_hits=timing.blob_cache_hits,
                cache_misses=timing.blob_cache_misses,
            )
        value, timing.wall, timing.cpu = _timed(run)
        if spanlog is not None:
            end = time.perf_counter()
            spanlog.add(
                "execute",
                obs_spans.CAT_EPOCH,
                end - timing.wall,
                end,
                epoch=unit.epoch_index,
                position=unit.position,
                kind=unit.kind,
            )
            timing.spans = spanlog.export()
        timing.metrics = tuple(sorted(obs_metrics.drain_process().items()))
        return unit.position, value, timing
    except Exception as exc:
        return unit.position, _as_task_error(exc, unit.position), UnitTiming(
            worker_pid=os.getpid()
        )


def _run_local(program, machine, unit) -> Tuple[object, UnitTiming]:
    """Execute one unit in the coordinator (the serial fallback)."""
    value, wall, cpu = _timed(_hydrate(program, machine, unit, None))
    tracer = obs_spans.current()
    if tracer is not None:
        end = tracer.now()
        tracer.add(
            "execute",
            obs_spans.CAT_EPOCH,
            end - wall,
            end,
            args={
                "epoch": unit.epoch_index,
                "position": unit.position,
                "kind": unit.kind + "-serial",
            },
        )
    return value, UnitTiming(wall=wall, cpu=cpu, worker_pid=os.getpid())


def _as_task_error(exc: BaseException, position: int) -> WorkerTaskError:
    return WorkerTaskError(
        f"{type(exc).__name__}: {exc}",
        position=position,
        exc_type=type(exc).__name__,
        traceback_text=traceback.format_exc(),
    )


# ----------------------------------------------------------------------
# The unit lifecycle, coordinator side.
# ----------------------------------------------------------------------
#: attempt states: ``submitted`` until :func:`_settle` resolves it to
#: one of the next five; ``serial`` marks the coordinator's own run.
#: The three failure states are the ``kind`` of the HostPoolError a
#: failed attempt carries.
SUBMITTED = "submitted"
OK = "ok"
NEED_BLOBS = "need-blobs"
TASK_ERROR = "task-error"
CRASH = "crash"
TIMEOUT = "timeout"
SERIAL = "serial"

_COUNTER_BY_KIND = {
    CRASH: "crashes",
    TIMEOUT: "timeouts",
    TASK_ERROR: "task_errors",
}


@dataclass
class _Batch:
    """Coordinator-side state of one in-flight unit batch."""

    program: object
    machine: object
    program_digest: int
    units: List[object]
    #: every blob any unit references, keyed by digest
    blobs: Dict[int, bytes]
    #: per-unit wire accounting, accumulated across re-dispatches
    bytes_shipped: List[int] = field(default_factory=list)
    blobs_sent: List[int] = field(default_factory=list)
    #: per-unit digest set of the most recent dispatch's blobs
    last_shipped: List[Set[int]] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.units)
        self.bytes_shipped = [0] * n
        self.blobs_sent = [0] * n
        self.last_shipped = [set() for _ in range(n)]

    def add(self, unit) -> int:
        """Append one unit (speculative batches grow); returns its index."""
        self.units.append(unit)
        self.bytes_shipped.append(0)
        self.blobs_sent.append(0)
        self.last_shipped.append(set())
        return len(self.units) - 1


@dataclass
class _Attempt:
    """One attempt at one unit: a submitted dispatch and how it ended.

    ``index`` locates the unit in ``batch`` (a speculative batch indexes
    by push order, a full batch by segment position).
    """

    batch: _Batch
    index: int
    future: object = None
    state: str = SUBMITTED
    #: the unit's result (ok/serial), the worker's NeedBlobs answer, or
    #: the structured HostPoolError a failed attempt is contained as
    value: object = None
    timing: Optional[UnitTiming] = None

    @property
    def position(self) -> int:
        return self.batch.units[self.index].position


def _apply_ack(pid: int, shipped: Set[int], evicted) -> None:
    """Fold a worker's response into the coordinator's cache mirror."""
    if not pid:
        return
    _cache_tracker.note_inserted(pid, shipped)
    _cache_tracker.note_evicted(pid, evicted)


def _settle(attempt: _Attempt, timeout) -> _Attempt:
    """Resolve a submitted attempt into one of the five end states.

    Applies the cache-mirror ack for ``ok`` and ``need-blobs`` (the
    worker really did absorb the blobs either way). A missing future —
    the submission failed or the pool broke first — counts as a crash.
    Idempotent, so a non-blocking sweep and a final wait compose.
    """
    if attempt.state != SUBMITTED:
        return attempt
    future, position = attempt.future, attempt.position
    if future is None:
        return _fail(attempt, WorkerCrashError(
            f"worker pool broke before unit {position} could be submitted",
            position=position,
        ))
    try:
        _, value, timing = future.result(timeout=timeout)
    except FutureTimeout:
        future.cancel()
        return _fail(attempt, WorkerTimeoutError(
            f"unit {position} exceeded the {timeout:g}s unit timeout",
            position=position,
            timeout=timeout,
        ))
    except Exception as exc:
        return _fail(attempt, WorkerCrashError(
            f"worker died running unit {position}: {exc!r}", position=position
        ))
    attempt.value, attempt.timing = value, timing
    shipped = attempt.batch.last_shipped[attempt.index]
    if isinstance(value, NeedBlobs):
        attempt.state = NEED_BLOBS
        _apply_ack(value.worker_pid, shipped, set(value.evicted) | set(value.missing))
    elif isinstance(value, WorkerTaskError):
        attempt.state = TASK_ERROR
    else:
        attempt.state = OK
        _apply_ack(timing.worker_pid, shipped, timing.evicted)
    return attempt


def _fail(attempt: _Attempt, failure: HostPoolError) -> _Attempt:
    """End an attempt as the failure state named by ``failure.kind``."""
    attempt.state, attempt.value = failure.kind, failure
    return attempt


def _salvage(futures: Dict[int, object]) -> None:
    """Keep a broken batch's completed results; drop everything else."""
    for position, future in list(futures.items()):
        if not future.done() or future.cancelled() or future.exception(timeout=0):
            del futures[position]


def _ingest_observability(timing: UnitTiming) -> None:
    """Fold a worker unit's piggybacked counters/spans into this process."""
    if timing.metrics:
        obs_metrics.process_stats().update_from(dict(timing.metrics))
    if timing.spans:
        tracer = obs_spans.current()
        if tracer is not None:
            tracer.ingest(
                timing.spans,
                track=timing.worker_pid,
                annotate={
                    "bytes_shipped": timing.bytes_shipped,
                    "blobs_sent": timing.blobs_sent,
                },
            )


class _DirectDispatcher:
    """The default submission path: the coordinator-wide shared pool.

    This is the seam the service layer replaces: a dispatcher owns *where*
    a built dispatch goes (``submit``), which workers it may assume hold
    cached blobs (``pids``), and what abandoning a suspect pool means
    (``abandon``). The direct dispatcher is a pass-through to
    :func:`shared_pool`, while a fleet dispatcher (``repro.service``)
    routes the same calls through per-session queues into one
    multiplexed pool.
    """

    def __init__(self, jobs: int):
        self._jobs = jobs

    def warm(self) -> None:
        """Bring the pool up (speculative sessions warm off-thread)."""
        shared_pool(self._jobs)

    def pids(self) -> List[int]:
        return _pool_pids(shared_pool(self._jobs))

    def submit(self, fn, dispatch: UnitDispatch):
        return shared_pool(self._jobs).submit(fn, dispatch)

    def abandon(self, kill: bool) -> None:
        invalidate_shared_pool(kill)


class HostExecutor:
    """Runs epoch work units on a pool of worker processes.

    ``unit_timeout`` is the per-unit wall-clock budget in seconds (None =
    the ``REPRO_UNIT_TIMEOUT`` env default of 60; 0 disables hang
    detection).

    ``dispatcher`` overrides the submission path (see
    :class:`_DirectDispatcher`); the service layer injects a per-session
    fleet dispatcher here so many concurrent sessions share one pool
    with fair-share scheduling and bounded backpressure. ``fault_specs``
    overrides the ``REPRO_FAULT`` env with an explicit per-executor
    directive string (or pre-parsed spec tuple) — the service scopes
    injected faults to a single tenant this way.
    """

    def __init__(
        self,
        jobs: int,
        unit_timeout=None,
        dispatcher=None,
        fault_specs=None,
    ):
        self.jobs = max(1, int(jobs))
        self.unit_timeout = (
            default_unit_timeout()
            if unit_timeout is None
            else max(0.0, float(unit_timeout))
        )
        if fault_specs is None:
            self._fault_specs = fault_injection.active_faults()
        elif isinstance(fault_specs, str):
            self._fault_specs = fault_injection.parse_fault_specs(
                fault_specs, os.environ.get("REPRO_FAULT_STATE", "")
            )
        else:
            self._fault_specs = tuple(fault_specs)
        self._dispatch_path = (
            dispatcher if dispatcher is not None else _DirectDispatcher(self.jobs)
        )
        #: optional dispatcher hook observing each dispatch's shipped and
        #: cache-omitted blob bytes (the fleet's cross-session dedup
        #: accounting); None (the direct default) costs nothing.
        self._wire_observer = getattr(self._dispatch_path, "note_dispatch", None)
        #: (program object, digest, blob) of the last program shipped
        self._program_blob: Optional[Tuple[object, int, bytes]] = None
        #: per-unit timings of every accepted unit, in merge order:
        #: (kind, position, UnitTiming). Serial-fallback units record
        #: coordinator timings under "<kind>-serial".
        self.unit_timings: List[Tuple[str, int, UnitTiming]] = []
        #: coordinator seconds spent building + submitting dispatches
        self.dispatch_wall = 0.0
        #: same work measured on the dispatching thread's CPU clock —
        #: wall inflates under timesharing (workers compete for cores
        #: while the coordinator builds dispatches), so models of an
        #: uncontended host should use this instead
        self.dispatch_cpu = 0.0
        #: containment counters (crashes, timeouts, task_errors, retries,
        #: serial_fallbacks) — surfaced via ``timing_summary()``
        self.counters: Dict[str, int] = dict.fromkeys(
            ("crashes", "timeouts", "task_errors", "retries", "serial_fallbacks"),
            0,
        )
        #: one entry per observed failure: kind, position, attempt, error
        self.fault_events: List[Dict[str, object]] = []
        #: NeedBlobs turnarounds (benign cache-coherence traffic, never a
        #: fault — kept out of ``counters`` so clean-run assertions hold)
        self.blob_resends = 0
        #: two-deep commit pipeline accounting (see
        #: :class:`SpeculativeSession`): units dispatched during the
        #: thread-parallel run, how many results were accepted into the
        #: merge, invalidated by late-arriving log/hint events, or
        #: discarded for host reasons (crash, timeout, NeedBlobs, task
        #: error). Kept out of ``counters`` — speculation failures are
        #: never faults, just discarded wall-clock.
        self.speculation: Dict[str, int] = dict.fromkeys(
            ("dispatched", "accepted", "invalidated", "discarded"), 0
        )

    # ------------------------------------------------------------------
    def _program_wire(self, program) -> Tuple[int, bytes]:
        """The program image's blob, encoded once per program object."""
        cached = self._program_blob
        if cached is None or cached[0] is not program:
            blob = encode_object(program)
            self._program_blob = (program, blob_digest(blob), blob)
            cached = self._program_blob
        return cached[1], cached[2]

    def _stamp_faults(self, unit) -> None:
        unit.faults = fault_injection.faults_for(
            self._fault_specs, unit.kind, unit.position
        )

    def _begin_batch(self, program, machine, batch: UnitBatch) -> _Batch:
        """Stamp fault specs onto the units and set up wire accounting."""
        for unit in batch.units:
            self._stamp_faults(unit)
        digest, blob = self._program_wire(program)
        blobs = dict(batch.blobs)
        blobs[digest] = blob
        return _Batch(
            program=program,
            machine=machine,
            program_digest=digest,
            units=list(batch.units),
            blobs=blobs,
        )

    def _make_dispatch(
        self, batch: _Batch, position: int, pids: Sequence[int] = (), full: bool = False
    ) -> UnitDispatch:
        """Build one dispatch, shipping only blobs the pool may be missing."""
        unit = batch.units[position]
        required = set(unit.required_digests())
        required.add(batch.program_digest)
        omitted: Set[int] = set()
        if not full:
            held = _cache_tracker.common(pids)
            omitted = required & held
            required -= held
        blobs = {digest: batch.blobs[digest] for digest in required}
        if self._wire_observer is not None:
            self._wire_observer(
                {digest: len(blobs[digest]) for digest in blobs},
                {digest: len(batch.blobs[digest]) for digest in omitted},
            )
        batch.bytes_shipped[position] += sum(len(b) for b in blobs.values())
        batch.blobs_sent[position] += len(blobs)
        batch.last_shipped[position] = set(blobs)
        return UnitDispatch(
            machine=batch.machine,
            unit=unit,
            program_digest=batch.program_digest,
            blobs=blobs,
            trace=obs_spans.enabled(),
        )

    def _ship(self, batch: _Batch, index: int, full: bool = False, **span_args):
        """Build, submit and time one dispatch; None if submission failed.

        The one ship path: a normal dispatch omits blobs every live
        worker holds, ``full=True`` (the answer to a NeedBlobs) ships the
        unit's whole blob set. The coordinator's dispatch wall/CPU and
        one ``dispatch`` (or ``blob-resend``) span account for it.
        """
        t0 = time.perf_counter()
        c0 = time.thread_time()
        tracer = obs_spans.current()
        span_start = tracer.now() if tracer else 0.0
        bytes_before = batch.bytes_shipped[index]
        try:
            dispatcher = self._dispatch_path
            pids = () if full else dispatcher.pids()
            future = dispatcher.submit(
                _unit_task, self._make_dispatch(batch, index, pids=pids, full=full)
            )
        except Exception:
            return None
        finally:
            self.dispatch_wall += time.perf_counter() - t0
            self.dispatch_cpu += time.thread_time() - c0
        if tracer is not None:
            tracer.add(
                "blob-resend" if full else "dispatch",
                obs_spans.CAT_WIRE,
                span_start,
                tracer.now(),
                args={
                    "position": batch.units[index].position,
                    "bytes": batch.bytes_shipped[index] - bytes_before,
                    **span_args,
                },
            )
        return future

    def _fill_window(self, batch: _Batch, futures, start: int, skip) -> None:
        """Keep the submission window full of live futures from ``start``.

        Dispatches are built lazily, at most ~2 per worker ahead of the
        merge head (the head position itself is always submitted): blobs
        are encoded and shipped only for units that will actually run, so
        a divergence exit wastes no dispatch work on cancelled tails. If
        the pool breaks mid-submission (a just-submitted unit crashed
        already), the loop stops quietly: the head attempt carries the
        breakage, and settling it attributes the failure and rebuilds.
        """
        window = max(2 * self.jobs, 2)
        live = sum(1 for f in futures.values() if not f.done())
        for position in range(start, len(batch.units)):
            if position in futures or position in skip:
                continue
            if position > start and live >= window:
                break
            future = self._ship(batch, position)
            if future is None:
                return
            futures[position] = future
            live += 1

    def _contain(self, attempt: _Attempt, tries: List[int], futures):
        """Contain one failed attempt: retry it (None) or run it serially.

        The failure is counted as a host fault. Crash and timeout make
        the pool itself suspect: finished results are salvaged and the
        pool is rebuilt on the next submit (a timeout kills the hung
        workers first). A unit that has used its pool attempts runs in
        the coordinator instead.
        """
        failure, position = attempt.value, attempt.index
        failure.attempt = tries[position]
        self.counters[_COUNTER_BY_KIND[failure.kind]] += 1
        self.fault_events.append(
            {
                "kind": failure.kind,
                "position": failure.position,
                "attempt": failure.attempt,
                "error": str(failure),
            }
        )
        obs_events.emit(
            "fault-contained", fault=failure.kind,
            position=failure.position, attempt=failure.attempt,
        )
        if attempt.state in (CRASH, TIMEOUT):
            _salvage(futures)
            self._dispatch_path.abandon(kill=attempt.state == TIMEOUT)
        tries[position] += 1
        if tries[position] < _POOL_ATTEMPTS:
            self.counters["retries"] += 1
            obs_events.emit("fault-retry", position=position)
            return None
        self.counters["serial_fallbacks"] += 1
        obs_events.emit("serial-fallback", position=position)
        batch = attempt.batch
        value, timing = _run_local(batch.program, batch.machine, batch.units[position])
        return _Attempt(batch, position, state=SERIAL, value=value, timing=timing)

    def _accept(self, attempt: _Attempt, stop_on, futures) -> bool:
        """Commit one unit's result to the run; True ends the batch here.

        The one acceptance path, for fresh, speculative and serial units
        alike, called at consume time in merge order — so a divergence at
        an earlier position drops a later result exactly as it would have
        cancelled its dispatch (``jobs=1`` metric parity). Worker results
        bring their counters and spans home here; a serial unit already
        counted in this process. ``stop_on(value)`` truthy cancels
        everything still pending (the record path's divergence exit).
        """
        batch, index, timing = attempt.batch, attempt.index, attempt.timing
        timing.bytes_shipped = batch.bytes_shipped[index]
        timing.blobs_sent = batch.blobs_sent[index]
        kind = batch.units[index].kind
        if attempt.state == SERIAL:
            kind += "-serial"
        else:
            _ingest_observability(timing)
        self.unit_timings.append((kind, attempt.position, timing))
        obs_histo.observe("unit_wall_s", timing.wall)
        obs_histo.observe("unit_bytes", timing.bytes_shipped)
        if stop_on is None or not stop_on(attempt.value):
            return False
        for pending in futures.values():
            pending.cancel()
        return True

    def _run_units(
        self, batch: _Batch, stop_on=None,
        preloaded: Optional[Dict[int, _Attempt]] = None,
    ) -> Iterator[Tuple[int, object]]:
        """Yield ``(position, value)`` in position order with containment.

        Each unit runs through one lifecycle. An attempt is submitted and
        settles as ok, need-blobs, task-error, crash or timeout
        (:func:`_settle`). NeedBlobs re-ships the unit with its full blob
        set (bounded, never a fault); any other failure is contained
        (:meth:`_contain`: retry once, then serial). Whatever result
        stands is accepted through :meth:`_accept`.

        ``preloaded`` maps positions to ok speculative attempts (see
        :class:`SpeculativeSession`); those positions are never
        dispatched, only accepted.
        """
        n = len(batch.units)
        preloaded = preloaded if preloaded is not None else {}
        futures: Dict[int, object] = {}
        tries = [0] * n
        resends = [0] * n
        position = 0
        try:
            while position < n:
                attempt = preloaded.pop(position, None)
                if attempt is not None:
                    self.speculation["accepted"] += 1
                else:
                    self._fill_window(batch, futures, position, preloaded)
                    attempt = _settle(
                        _Attempt(batch, position, futures.pop(position, None)),
                        self.unit_timeout or None,
                    )
                    if attempt.state == NEED_BLOBS:
                        # Benign cache miss, not a fault: the worker could
                        # not resolve every digest (eviction raced the
                        # dispatch, or a fresh pool lost its caches).
                        # Answer with the full blob set and wait again.
                        self.blob_resends += 1
                        resends[position] += 1
                        obs_events.emit(
                            "blob-resend", position=position,
                            missing=len(attempt.value.missing),
                        )
                        if resends[position] <= _BLOB_RESEND_LIMIT:
                            future = self._ship(batch, position, full=True)
                            if future is not None:
                                futures[position] = future
                            continue
                        _fail(attempt, WorkerTaskError(
                            f"unit {position} still missing "
                            f"{len(attempt.value.missing)} blob(s) after a "
                            f"full re-dispatch",
                            position=position,
                        ))
                    if attempt.state != OK:
                        attempt = self._contain(attempt, tries, futures)
                        if attempt is None:
                            continue
                stop = self._accept(attempt, stop_on, futures)
                yield position, attempt.value
                if stop:
                    return
                position += 1
        finally:
            for pending in futures.values():
                pending.cancel()

    # ------------------------------------------------------------------
    def run_record_units(
        self, program, machine, batch: UnitBatch,
        preloaded: Optional[Dict[int, _Attempt]] = None,
    ) -> Iterator[Tuple[int, EpochRunResult]]:
        """Yield ``(position, result)`` in position order.

        Stops after the first divergence, cancelling all not-yet-started
        units — exactly the serial loop's early exit. Worker crashes,
        hangs, and exceptions are contained per unit (retry once, then
        serial fallback), so the stream always completes and is always
        bit-identical to the serial path. ``preloaded`` carries the
        speculative attempts :meth:`SpeculativeSession.harvest` accepted,
        consumed in place of a dispatch.
        """
        state = self._begin_batch(program, machine, batch)
        yield from self._run_units(
            state, stop_on=lambda result: not result.ok, preloaded=preloaded
        )

    def speculative_session(self, program, machine) -> "SpeculativeSession":
        """A per-segment speculative dispatch session (commit pipeline)."""
        return SpeculativeSession(self, program, machine)

    def run_replay_units(
        self, program, machine, batch: UnitBatch
    ) -> List[Tuple[int, int, object]]:
        """All ``(position, cycles, failure)`` results, in position order."""
        state = self._begin_batch(program, machine, batch)
        return [
            (position, cycles, failure)
            for position, (cycles, failure) in self._run_units(state)
        ]

    # ------------------------------------------------------------------
    def timing_summary(self) -> dict:
        """Host-cost accounting for benchmarks and ``RecordResult.host``."""
        timings = [t for _, _, t in self.unit_timings]
        return {
            "jobs": self.jobs,
            "units": len(self.unit_timings),
            "unit_wall": [round(t.wall, 6) for t in timings],
            "unit_cpu": [round(t.cpu, 6) for t in timings],
            "unit_pids": [t.worker_pid for t in timings],
            "dispatch_wall": round(self.dispatch_wall, 6),
            "dispatch_cpu": round(self.dispatch_cpu, 6),
            "faults": dict(self.counters),
            "fault_events": list(self.fault_events),
            "speculation": dict(self.speculation),
            "wire": {
                "bytes_shipped": sum(t.bytes_shipped for t in timings),
                "blobs_sent": sum(t.blobs_sent for t in timings),
                "blob_cache_hits": sum(t.blob_cache_hits for t in timings),
                "blob_cache_misses": sum(t.blob_cache_misses for t in timings),
                "blob_resends": self.blob_resends,
                "unit_bytes": [t.bytes_shipped for t in timings],
            },
        }


class SpeculativeSession:
    """One segment's speculative record-unit attempts (commit pipeline).

    The recorder creates a session per segment when the two-deep commit
    pipeline is on. It runs the executor's unit lifecycle with one
    difference — submit early, no containment. :meth:`push` ships one
    epoch unit to the pool *while the thread-parallel run is still
    producing later epochs* — strictly non-blocking, so a broken pool or
    full queue costs nothing but the speculation. :meth:`harvest`
    settles every attempt at segment end.

    A speculative attempt that does not settle ok (crash, timeout,
    NeedBlobs, task error, failed submission) is simply discarded: no
    retry, no fault count, no pool kill — the position runs again
    through the full-knowledge batch with the pool's normal containment.
    Cache-mirror acks are applied when an attempt settles (the worker
    really did absorb the blobs); acceptance — observability ingest,
    histograms, timing records — waits for the merge, so a discarded or
    never-consumed result leaves no trace in the run metrics, which is
    what keeps ``jobs=1`` and ``jobs=N`` metrics identical.
    """

    def __init__(self, executor: HostExecutor, program, machine):
        self.executor = executor
        digest, blob = executor._program_wire(program)
        self._batch = _Batch(
            program=program,
            machine=machine,
            program_digest=digest,
            units=[],
            blobs={digest: blob},
        )
        #: segment position -> its one speculative attempt
        self._attempts: Dict[int, _Attempt] = {}
        #: attempts pushed before the pool was up, awaiting submission
        self._deferred: List[_Attempt] = []
        #: set by the warm-up thread; read (GIL-atomic) by push/harvest
        self._ready = False
        self._warm = threading.Thread(target=self._warm_pool, daemon=True)
        self._warm.start()

    @property
    def blobs(self) -> Dict[int, bytes]:
        """The session-shared blob set speculative units intern into."""
        return self._batch.blobs

    def _warm_pool(self) -> None:
        """Bring the worker pool up off the thread-parallel run's path.

        Spawning worker processes costs ~a second of wall — paid inline
        it would stall the guest at the first speculative dispatch. The
        warm-up overlaps the thread-parallel run instead; pushes arriving
        before the pool is ready are buffered and flushed the moment it
        is (or at harvest, whichever comes first). A failed spawn leaves
        ``_ready`` unset: the buffered units are discarded at harvest and
        the batch path reports the pool problem the normal way. (A fleet
        dispatcher's ``warm`` is a no-op — the service owns the pool.)
        """
        try:
            self.executor._dispatch_path.warm()
            self._ready = True
        except Exception:
            pass

    def _flush(self) -> None:
        """Ship every buffered attempt (a failed ship leaves no future)."""
        while self._deferred:
            attempt = self._deferred.pop(0)
            attempt.future = self.executor._ship(
                self._batch, attempt.index, speculative=True
            )

    def push(self, unit) -> None:
        """Dispatch one speculative unit; non-blocking, never raises."""
        executor = self.executor
        executor._stamp_faults(unit)
        attempt = _Attempt(self._batch, self._batch.add(unit))
        self._attempts[unit.position] = attempt
        executor.speculation["dispatched"] += 1
        # Fold finished speculations into the cache mirror *before*
        # building this dispatch: without this, every mid-segment
        # dispatch sees the tracker as it stood at segment start (acks
        # normally arrive at harvest) and re-ships the full blob set —
        # measured at ~100x the steady-state dispatch cost on
        # page-heavy workloads. ``done()`` keeps the sweep non-blocking.
        for other in self._attempts.values():
            if other.future is not None and other.future.done():
                _settle(other, timeout=0)
        self._deferred.append(attempt)
        if self._ready:
            self._flush()

    def harvest(self, valid) -> Dict[int, _Attempt]:
        """Settle every speculative attempt; return those to accept.

        ``valid(position, result)`` is the recorder's check that a
        speculative result may stand in for the full-knowledge run. An
        attempt that did not settle ok is counted ``discarded``, an ok
        one ``valid`` rejects is counted ``invalidated``; either way the
        position falls through to the full-knowledge dispatch.
        """
        executor = self.executor
        self._warm.join()
        if self._ready:
            self._flush()
        self._deferred.clear()
        accepted: Dict[int, _Attempt] = {}
        timeout = executor.unit_timeout or None
        for position in sorted(self._attempts):
            attempt = _settle(self._attempts[position], timeout)
            if attempt.state != OK:
                executor.speculation["discarded"] += 1
            elif valid(position, attempt.value):
                accepted[position] = attempt
            else:
                executor.speculation["invalidated"] += 1
        self._attempts.clear()
        return accepted

    def close(self) -> None:
        """Abandon whatever is still in flight (error-path hygiene)."""
        for attempt in self._attempts.values():
            if attempt.future is not None:
                attempt.future.cancel()
        self._attempts.clear()
