"""The DoublePlay recorder.

Record proceeds in *segments*. Within a segment:

1. The **thread-parallel execution** runs the program on the application's
   W cores with a live kernel, logging every syscall completion and every
   sync acquisition, and taking a checkpoint at each epoch boundary.
2. Each epoch is then re-executed by an **epoch-parallel executor**
   (``repro.core.epoch_runner``): one simulated CPU, injected syscalls,
   hint-ordered grants, stopping at the next checkpoint's per-thread
   retired-op targets. Matching end state ⇒ the epoch's timeslice schedule
   is committed to the recording.
3. On divergence, forward recovery (``repro.core.recovery``) re-executes
   the epoch live, commits its result, discards the abandoned
   thread-parallel future, and a new segment starts from the recovered
   state.

Logical execution and timing are deliberately separated: step 2's results
cannot depend on *when* executors run (they are deterministic functions of
checkpoints and logs), so the recorder replays the commit sequence through
``repro.core.pipeline`` afterwards to obtain the recording makespan on a
machine with or without spare cores. Overhead numbers in the benchmarks
are ``makespan / native - 1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.checkpoint.checkpoint import Checkpoint
from repro.checkpoint.manager import CheckpointManager
from repro.core.config import DoublePlayConfig, pipelined_commit_enabled
from repro.core.epoch_runner import run_epoch
from repro.core.epochs import AdaptiveEpochPolicy, FixedEpochPolicy
from repro.core.pipeline import (
    EpochTiming,
    PipelineResult,
    schedule_shared_cores,
    schedule_spare_cores,
)
from repro.core.recovery import recover_epoch
from repro.errors import SimulationError
from repro.exec.multicore import MulticoreEngine
from repro.exec.services import LiveSyscalls
from repro.isa.program import ProgramImage
from repro.obs import events as obs_events
from repro.obs import histo as obs_histo
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.metrics import RunMetrics
from repro.oskernel.kernel import Kernel, KernelSetup
from repro.oskernel.syscalls import SyscallRecord
from repro.record.recording import (
    EpochRecord,
    Recording,
    prune_signal_records,
    prune_syscall_records,
)
from repro.record.sync_log import SyncOrderLog


@dataclass
class RecordResult:
    """A recording plus the timing the benchmarks report."""

    recording: Recording
    #: recording-timeline instant the last epoch committed
    makespan: int
    #: recording-timeline instant the thread-parallel execution finished
    tp_finish: int
    #: guest-visible duration of the committed execution
    app_time: int
    stats: Dict[str, int] = field(default_factory=dict)
    #: kernel state of the committed execution's final checkpoint
    final_kernel_state: object = None
    #: guest crash message when the recorded program faulted (the
    #: recording then reproduces the state at the instant before the crash)
    fault: Optional[str] = None
    #: host-parallelism accounting (jobs, per-unit worker timings). Never
    #: part of the recording — recordings are bit-identical at any jobs
    #: count, host numbers by construction are not.
    host: Dict[str, object] = field(default_factory=dict)
    #: merged run-wide counters: coordinator execution counters, worker
    #: counters harvested through unit results, host wire/fault
    #: accounting, and the recording stats — one queryable snapshot
    #: (see :mod:`repro.obs.metrics`). Observability only, never part
    #: of the recording.
    metrics: RunMetrics = field(default_factory=RunMetrics)

    def overhead_vs(self, native_time: int) -> float:
        """Fractional logging overhead relative to a native run."""
        if native_time <= 0:
            raise ValueError("native_time must be positive")
        return self.makespan / native_time - 1.0

    def committed_kernel(self, setup: KernelSetup, heap_base: int) -> Kernel:
        """Materialise the committed execution's final kernel.

        Lets workload validators check the *recorded* execution's output
        (files written, responses sent), not just state digests.
        """
        kernel = Kernel(setup, heap_base)
        kernel.restore(self.final_kernel_state)
        return kernel


class DoublePlayRecorder:
    """Records one program execution with uniparallelism."""

    def __init__(
        self,
        program: ProgramImage,
        setup: KernelSetup,
        config: Optional[DoublePlayConfig] = None,
    ):
        self.program = program
        self.setup = setup
        self.config = config or DoublePlayConfig()
        self.machine = self.config.machine

    # ------------------------------------------------------------------
    def _segment_epoch_results(
        self,
        executor,
        checkpoints: List[Checkpoint],
        hints: List,
        hint_marks: List[int],
        syscall_log: List[SyscallRecord],
        signal_log: List,
        first_epoch_index: int,
        preloaded: Optional[Dict[int, object]] = None,
    ):
        """Yield ``(position, EpochRunResult)`` for a segment, in order.

        Serial path (``executor is None``): exactly the pre-host-layer
        loop — lazy, one epoch at a time, so an early divergence runs
        nothing past it. Parallel path: every epoch of the segment fans
        out to worker processes; results merge back in position order and
        a divergence at position *k* cancels everything after it. Both
        paths stop after the first failure; both produce identical result
        streams, because epoch execution is a deterministic function of
        the checkpoints and logs. ``preloaded`` carries the segment's
        validated speculative attempts (parallel path only — speculation
        requires an executor).
        """
        positions = len(checkpoints) - 1
        if executor is None or positions <= 1:
            for position in range(positions):
                # The executor gets the hint *suffix* from its epoch's
                # start to the segment end: grants decided near the epoch
                # boundary retire in later epochs, and cutting the hints
                # at the boundary would make the executor hand objects out
                # differently than the thread-parallel run did.
                sync_slice = SyncOrderLog(tuple(hints[hint_marks[position] :]))
                with obs_spans.span(
                    "execute", obs_spans.CAT_EPOCH,
                    epoch=first_epoch_index + position,
                    position=position, kind="record",
                ):
                    result = run_epoch(
                        self.program,
                        self.machine,
                        first_epoch_index + position,
                        checkpoints[position],
                        checkpoints[position + 1],
                        syscall_log,
                        sync_slice,
                        self.config.use_sync_hints,
                        signal_records=signal_log,
                    )
                yield position, result
                if not result.ok:
                    return
            return
        from repro.host.wire import record_units_for_segment

        batch = record_units_for_segment(
            checkpoints,
            hints,
            hint_marks,
            syscall_log,
            signal_log,
            first_epoch_index,
            self.config.use_sync_hints,
        )
        yield from executor.run_record_units(
            self.program, self.machine, batch, preloaded=preloaded
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _speculation_valid(
        result,
        cuts: tuple,
        boundary_cp: Checkpoint,
        hints: List,
        syscall_log: List[SyscallRecord],
        signal_log: List,
    ) -> bool:
        """May a speculative result stand in for the full-knowledge run?

        The unit ran on snapshots cut mid-segment — hints truncated at
        ``c_hint``, logs at ``c_sys``/``c_sig`` — while the full-knowledge
        unit would see the segment-complete hints suffix and logs. The
        speculative run is bit-identical to that run iff nothing arriving
        after its cuts could ever have been consulted:

        * The epoch's replay consumes syscall records with per-thread seq
          in ``[start.syscall_count, boundary.syscall_count)`` — exactly.
          The call straddling the boundary (seq == boundary count, logged
          at its later completion) is deliberately never re-issued
          (``boundary_blocked`` excludes syscalls), and a count below the
          boundary's means the call completed — and was logged — before
          the boundary checkpoint was taken, i.e. before any later cut.
          A late record inside the window therefore cannot normally
          exist; the floor check below enforces that invariant rather
          than assumes it. Signal deliveries are keyed by per-thread
          retired count and the same monotonicity argument applies.
        * A sync object the grant oracle starved on (consulted past its
          truncated queue) must have no hint events past the cut. The
          first grant decision where a truncated run differs from the
          full-suffix run is always such a consult, so no starved object
          with later events ⇒ every decision was identical.

        A failed run stops at its first divergence, so the rule covers
        failures too: a *validated* failure is a real divergence and goes
        straight to forward recovery, exactly as at ``jobs=1``.
        """
        c_hint, c_sys, c_sig = cuts
        sys_floor = {
            tid: ctx.syscall_count for tid, ctx in boundary_cp.contexts.items()
        }
        for record in syscall_log[c_sys:]:
            if record.seq < sys_floor.get(record.tid, 0):
                return False
        sig_floor = {
            tid: ctx.retired for tid, ctx in boundary_cp.contexts.items()
        }
        for record in signal_log[c_sig:]:
            if record[1] < sig_floor.get(record[0], 0):
                return False
        if result.starved:
            starved = set(result.starved)
            for _, addr, _ in hints[c_hint:]:
                if addr in starved:
                    return False
        return True

    # ------------------------------------------------------------------
    def record(self) -> RecordResult:
        """Record one run; the durable sink never leaks on a crash.

        Everything that can go wrong mid-run — a workload fault escaping
        the engine, ``KeyboardInterrupt``, a host-layer error — used to
        skip ``sink.close()`` entirely, losing the group-commit buffer
        and the sealing manifest: the one scenario a durable log exists
        for. The sink is tracked on the instance so this wrapper can
        seal the committed prefix (``close_partial``) with the crash
        reason before re-raising; `repro log recover` / `replay --tail`
        then open exactly that artifact.
        """
        self._sink = None
        try:
            return self._record()
        except BaseException as exc:
            sink = self._sink
            if sink is not None and not sink.closed:
                try:
                    sink.close_partial(f"{type(exc).__name__}: {exc}")
                except Exception:
                    pass  # never mask the original failure
            raise

    def _record(self) -> RecordResult:
        config = self.config
        costs = self.machine.costs
        stats_baseline = obs_metrics.process_stats().snapshot()
        policy_cls = AdaptiveEpochPolicy if config.adaptive_epochs else FixedEpochPolicy
        policy = policy_cls(config.epoch_cycles)

        syscall_log: List[SyscallRecord] = []
        signal_log: List = []
        kernel = Kernel(self.setup, self.program.heap_base)
        services = LiveSyscalls(kernel, syscall_log)
        engine = MulticoreEngine.boot(self.program, self.machine, services)
        engine.signal_log = signal_log
        engine.halt_on_fault = True  # crashes are recorded, not raised
        manager = CheckpointManager()
        initial = manager.initial(engine)
        recording = Recording(
            program_name=self.program.name,
            worker_threads=self.machine.cores,
            initial_checkpoint=initial,
        )

        sink = None
        if config.log_dir:
            # Imported lazily: purely in-memory recordings never touch
            # the durable-log layer.
            from repro.record.shards import ShardedLogWriter

            sink = self._sink = ShardedLogWriter(
                config.log_dir,
                initial,
                self.program.name,
                self.machine.cores,
                codec=config.log_codec,
                meta=config.log_meta,
                flight_window=config.resolve_flight_window(),
            )
        elif config.log_spill:
            raise ValueError("log_spill requires log_dir")
        elif config.flight_window:
            raise ValueError("flight_window requires log_dir")

        host_jobs = config.resolve_host_jobs()
        executor = None
        if host_jobs > 1:
            # Imported lazily: jobs=1 (the default) never touches the
            # host-parallelism layer at all.
            from repro.host.pool import HostExecutor

            executor = HostExecutor(
                host_jobs,
                unit_timeout=config.unit_timeout,
                dispatcher=config.host_dispatcher,
                fault_specs=config.host_faults,
            )

        committed = initial
        next_cp_index = 1
        divergences = 0
        recoveries = 0
        epoch_index = 0
        slots = config.executor_slots()
        worker_free = [0] * slots
        #: recording-time minus app-time for the current segment
        timeline_offset = 0
        makespan = 0
        tp_finish = 0
        finished = False

        while not finished:
            if engine is None:
                # Segment restart after recovery: rebuild the live machine
                # from the committed state.
                kernel = Kernel(self.setup, self.program.heap_base)
                kernel.restore(committed.kernel_state)
                services = LiveSyscalls(kernel, syscall_log)
                engine = MulticoreEngine.from_checkpoint(
                    self.program,
                    self.machine,
                    services,
                    memory_snapshot=committed.memory,
                    contexts=committed.copy_contexts(),
                    sync_state=committed.sync_state,
                    start_time=committed.time + costs.restore_base,
                    name=f"{self.program.name}/tp",
                )
                engine.signal_log = signal_log
                engine.halt_on_fault = True
            hints: List = []
            engine.acquisition_log = hints
            policy.start_segment(engine.time)
            segment_app_start = engine.time
            segment_checkpoints: List[Checkpoint] = [committed]
            hint_marks: List[int] = [0]
            session = None
            if executor is not None and pipelined_commit_enabled():
                session = executor.speculative_session(
                    self.program, self.machine
                )
            #: speculated position -> (hint cut, syscall cut, signal cut)
            spec_cuts: Dict[int, tuple] = {}

            fault = None
            tracer = obs_spans.current()
            try:
                while True:
                    tp_span_start = tracer.now() if tracer is not None else 0.0
                    status = engine.run(
                        stop_check=lambda e: policy.should_checkpoint(e.time),
                        stop_after=policy.next_boundary(),
                    )
                    checkpoint = manager.take(engine, index=next_cp_index)
                    next_cp_index += 1
                    policy.note_checkpoint(engine.time)
                    segment_checkpoints.append(checkpoint)
                    hint_marks.append(len(hints))
                    if tracer is not None:
                        tracer.add(
                            "tp-epoch", obs_spans.CAT_SEGMENT,
                            tp_span_start, tracer.now(),
                            args={
                                "epoch": epoch_index
                                + len(segment_checkpoints) - 2,
                                "position": len(segment_checkpoints) - 2,
                            },
                        )
                    if status == "faulted":
                        # A crash ends recording at this boundary: the
                        # epochs up to here commit, and replay reproduces
                        # the program state the instant before the crash.
                        fault = engine.fault
                        break
                    if engine.all_exited():
                        break
                    # --------------------------------------------------
                    # Two-deep commit pipeline: once boundary p+2 exists,
                    # epoch p's unit ships to the pool while the
                    # thread-parallel run executes ahead. Its hints and
                    # logs are snapshots cut *now*; whether the result
                    # may stand in for the full-knowledge run is decided
                    # at segment end (``_speculation_valid``).
                    # --------------------------------------------------
                    if session is not None and len(segment_checkpoints) >= 3:
                        from repro.host.wire import speculative_record_unit

                        position = len(segment_checkpoints) - 3
                        unit = speculative_record_unit(
                            position,
                            epoch_index + position,
                            segment_checkpoints[position],
                            segment_checkpoints[position + 1],
                            tuple(hints[hint_marks[position] :]),
                            syscall_log,
                            signal_log,
                            config.use_sync_hints,
                            session.blobs,
                        )
                        spec_cuts[position] = (
                            len(hints), len(syscall_log), len(signal_log)
                        )
                        session.push(unit)
            except BaseException:
                if session is not None:
                    session.close()
                raise

            segment_tp_finish = engine.time

            # ----------------------------------------------------------
            # Epoch-parallel execution of the segment's epochs.
            # ----------------------------------------------------------
            preloaded = {}
            if session is not None:
                preloaded = session.harvest(
                    lambda position, result: self._speculation_valid(
                        result,
                        spec_cuts[position],
                        segment_checkpoints[position + 1],
                        hints,
                        syscall_log,
                        signal_log,
                    )
                )
            diverged_at: Optional[int] = None
            recovery = None
            attempt_duration = 0
            timings: List[EpochTiming] = []
            epoch_results = self._segment_epoch_results(
                executor,
                segment_checkpoints,
                hints,
                hint_marks,
                syscall_log,
                signal_log,
                epoch_index,
                preloaded=preloaded,
            )
            for position, result in epoch_results:
                start_cp = segment_checkpoints[position]
                end_cp = segment_checkpoints[position + 1]
                timings.append(
                    EpochTiming(
                        index=epoch_index,
                        ready_time=start_cp.time + timeline_offset,
                        boundary_time=end_cp.time + timeline_offset,
                        duration=result.duration,
                    )
                )
                if result.ok:
                    commit_started = time.perf_counter()
                    with obs_spans.span(
                        "commit", obs_spans.CAT_COMMIT, epoch=epoch_index
                    ):
                        record = EpochRecord(
                            index=epoch_index,
                            start_checkpoint=start_cp,
                            targets=end_cp.targets(),
                            schedule=result.schedule,
                            # Store the grant order the committed run
                            # actually used — replay pins its decisions
                            # from this, not from the raw hints.
                            sync_log=result.committed_sync,
                            end_digest=result.end_digest,
                            duration=result.duration,
                        )
                        recording.epochs.append(record)
                        if sink is not None:
                            sink.commit_epoch(
                                record, start_cp, end_cp,
                                syscall_log, signal_log,
                            )
                            if config.log_spill:
                                record.spill()
                    obs_histo.observe(
                        "commit_wall_s", time.perf_counter() - commit_started
                    )
                    obs_events.emit(
                        "epoch-commit", epoch=epoch_index,
                        cycles=result.duration,
                    )
                    committed = end_cp
                    epoch_index += 1
                    continue
                # ------------------------------------------------------
                # Divergence: forward recovery.
                # ------------------------------------------------------
                divergences += 1
                attempt_duration = result.duration
                obs_events.emit(
                    "divergence", epoch=epoch_index,
                    reason=result.reason[:120],
                )
                with obs_spans.span(
                    "divergence", obs_spans.CAT_RECOVERY,
                    epoch=epoch_index, reason=result.reason[:120],
                ):
                    counts = {
                        tid: ctx.syscall_count
                        for tid, ctx in start_cp.contexts.items()
                    }
                    syscall_log[:] = prune_syscall_records(syscall_log, counts)
                    retired_counts = {
                        tid: ctx.retired
                        for tid, ctx in start_cp.contexts.items()
                    }
                    signal_log[:] = prune_signal_records(
                        signal_log, retired_counts
                    )
                with obs_spans.span(
                    "recovery", obs_spans.CAT_RECOVERY, epoch=epoch_index
                ):
                    recovery = recover_epoch(
                        self.program,
                        self.machine,
                        self.setup,
                        start_cp,
                        config.epoch_cycles,
                        syscall_log,
                        signal_log=signal_log,
                    )
                obs_events.emit(
                    "recovery", epoch=epoch_index, cycles=recovery.duration
                )
                record = EpochRecord(
                    index=epoch_index,
                    start_checkpoint=start_cp,
                    targets=recovery.committed.targets(),
                    schedule=recovery.schedule,
                    sync_log=recovery.committed_sync,
                    end_digest=recovery.end_digest,
                    duration=recovery.duration,
                    recovered=True,
                )
                recording.epochs.append(record)
                if sink is not None:
                    sink.commit_epoch(
                        record, start_cp, recovery.committed,
                        syscall_log, signal_log,
                    )
                    if config.log_spill:
                        record.spill()
                obs_events.emit(
                    "epoch-commit", epoch=epoch_index,
                    cycles=recovery.duration, recovered=True,
                )
                committed = recovery.committed
                epoch_index += 1
                diverged_at = position
                break
            epoch_results.close()

            # ----------------------------------------------------------
            # Timing composition for this segment.
            # ----------------------------------------------------------
            segment_start_rec = segment_app_start + timeline_offset
            if config.spare_cores:
                pipeline = schedule_spare_cores(
                    timings,
                    workers=slots,
                    dispatch_cost=costs.epoch_dispatch,
                    max_inflight=config.inflight_bound(),
                    worker_free=worker_free,
                )
            else:
                pipeline = schedule_shared_cores(
                    timings,
                    tp_span=segment_tp_finish - segment_app_start,
                    cores=self.machine.cores,
                    dispatch_cost=costs.epoch_dispatch,
                    segment_start=segment_start_rec,
                )
            makespan = max(makespan, pipeline.makespan)
            tp_finish = max(
                tp_finish,
                segment_tp_finish + timeline_offset + pipeline.throttle_stall,
            )

            if diverged_at is None:
                finished = True
                recording.final_digest = committed.digest()
            else:
                # Anything the abandoned thread-parallel future saw —
                # including a crash — is discarded with it.
                fault = None
                recoveries += 1
                if recoveries > config.max_recoveries:
                    raise SimulationError(
                        f"recording exceeded {config.max_recoveries} recoveries"
                    )
                detection = pipeline.commits[diverged_at].finish
                recovery_finish = (
                    detection + costs.restore_base + recovery.duration
                )
                makespan = max(makespan, recovery_finish)
                worker_free = [recovery_finish] * slots
                timeline_offset = recovery_finish - committed.time
                # Release the abandoned future's checkpoints.
                for checkpoint in segment_checkpoints[diverged_at + 1 :]:
                    checkpoint.release()
                engine = None
                if recovery.finished:
                    finished = True
                    recording.final_digest = recovery.end_digest
                    tp_finish = max(tp_finish, recovery_finish)
            if config.log_spill and not finished:
                # Flight-recorder mode: at a segment restart every record
                # still in the raw logs belongs to a committed (hence
                # durable) epoch — the divergence prune dropped the
                # abandoned future and recovery's appends were committed
                # above. The next segment starts from the committed
                # checkpoint's per-thread counts, so nothing below them is
                # ever consulted again: clear the logs instead of letting
                # them grow with run length.
                syscall_log.clear()
                signal_log.clear()

        recording.stats = {
            "divergences": divergences,
            "recoveries": recoveries,
            "faulted": 1 if fault is not None else 0,
            "epochs": len(recording.epochs),
            "checkpoint_cost": manager.total_cost,
            "makespan": makespan,
            "tp_finish": tp_finish,
            "app_time": committed.time,
            "attempt_waste": attempt_duration if divergences else 0,
        }
        if fault is not None:
            recording.stats["fault_message"] = str(fault)
        if sink is not None:
            # Final manifest write — stats are sealed into it *before* any
            # spill-mode markers, so a durable log's stats are identical
            # whether or not the in-memory copy was dropped.
            sink.close(
                final_digest=recording.final_digest, stats=recording.stats
            )
        if config.log_spill:
            # The durable log holds the only full copy of the event
            # streams; retaining them here would re-grow memory with run
            # length, defeating flight-recorder mode.
            recording.stats["log_spilled"] = 1
        else:
            recording.syscall_records = list(syscall_log)
            recording.signal_records = list(signal_log)
        host_summary = executor.timing_summary() if executor else {"jobs": 1}
        run_metrics = obs_metrics.build_run_metrics(
            obs_metrics.delta_since(stats_baseline),
            host=host_summary,
            record=recording.stats,
        )
        return RecordResult(
            recording=recording,
            makespan=makespan,
            tp_finish=tp_finish,
            app_time=committed.time,
            stats=dict(recording.stats),
            final_kernel_state=committed.kernel_state,
            fault=str(fault) if fault is not None else None,
            host=host_summary,
            metrics=run_metrics,
        )
