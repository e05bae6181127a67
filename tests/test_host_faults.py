"""Host-pool fault tolerance: crashes, hangs, and worker exceptions.

The epoch-parallel attempt is disposable by design, so a host fault must
never change an observable result — only wall-clock time and the host
accounting. Every test here injects a deterministic fault (via
``REPRO_FAULT``, see :mod:`repro.host.faults`), lets the containment
policy (retry once, then serial fallback) finish the run, and asserts the
recording or replay verdict is bit-identical to the clean ``jobs=1``
path, with the failure counters reporting what happened.

Also covers the pool-management regressions: a broken shared pool used
to be cached (and returned, broken) forever; growing the pool used to
cancel in-flight units; spawning workers used to leak ``PYTHONPATH``
into the coordinator's environment permanently.
"""

from __future__ import annotations

import json
import os
import pickle
import time

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.baselines import run_native
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.core.config import default_unit_timeout
from repro.errors import (
    HostPoolError,
    WorkerCrashError,
    WorkerTaskError,
    WorkerTimeoutError,
)
from repro.host import faults as fault_mod
from repro.host.pool import (
    HostExecutor,
    _worker_ping,
    shared_pool,
    shutdown_shared_pool,
)
from repro.machine.config import MachineConfig
from repro.workloads import build_workload


def _record(name, workers, jobs, **overrides):
    instance = build_workload(name, workers=workers, scale=2, seed=11)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
        host_jobs=jobs,
        **overrides,
    )
    recorder = DoublePlayRecorder(instance.image, instance.setup, config)
    return instance, machine, recorder.record()


def _assert_bit_identical(faulted, serial):
    assert json.dumps(faulted.recording.to_plain(), sort_keys=True) == json.dumps(
        serial.recording.to_plain(), sort_keys=True
    ), "fault containment changed the recording"
    assert faulted.makespan == serial.makespan
    assert faulted.tp_finish == serial.tp_finish
    assert faulted.app_time == serial.app_time
    assert faulted.stats == serial.stats
    assert faulted.recording.final_digest == serial.recording.final_digest


def _assert_units_counted(result):
    """Every committed unit lands in the unit histograms exactly once,
    whether it was dispatched fresh, accepted from speculation, or run
    by the serial fallback."""
    assert result.metrics.histogram("unit_wall_s").count == result.host["units"]
    assert result.metrics.histogram("unit_bytes").count == result.host["units"]


# ----------------------------------------------------------------------
# Pool management regressions
# ----------------------------------------------------------------------
def test_shared_pool_rebuilds_after_worker_death():
    pool = shared_pool(2)
    with pytest.raises(BrokenProcessPool):
        pool.submit(os._exit, 70).result(timeout=60)
    # Regression: the broken pool used to be cached and returned forever.
    rebuilt = shared_pool(2)
    assert rebuilt is not pool
    assert rebuilt.submit(_worker_ping).result(timeout=60) > 0


def test_record_succeeds_after_pool_poisoned():
    """A worker death in one run must not poison the next recording."""
    pool = shared_pool(2)
    with pytest.raises(BrokenProcessPool):
        pool.submit(os._exit, 70).result(timeout=60)
    _, _, serial = _record("fft", 2, jobs=1)
    _, _, parallel = _record("fft", 2, jobs=2)
    _assert_bit_identical(parallel, serial)
    assert not any(parallel.host["faults"].values())


def test_shared_pool_growth_drains_in_flight_units():
    shutdown_shared_pool()
    pool = shared_pool(1)
    future = pool.submit(time.sleep, 0.4)
    grown = shared_pool(2)
    assert grown is not pool
    # Regression: growth used to shutdown(wait=False, cancel_futures=True),
    # yanking the old pool out from under still-draining units.
    assert future.done() and not future.cancelled()
    assert future.result(timeout=0) is None


def test_worker_import_path_is_scoped(monkeypatch):
    """Spawning workers must not persistently mutate os.environ."""
    shutdown_shared_pool()
    monkeypatch.setenv("PYTHONPATH", "/tmp/unrelated-entry")
    pool = shared_pool(1)
    assert pool.submit(_worker_ping).result(timeout=60) > 0
    assert os.environ["PYTHONPATH"] == "/tmp/unrelated-entry"
    shutdown_shared_pool()
    monkeypatch.delenv("PYTHONPATH")
    pool = shared_pool(1)
    assert pool.submit(_worker_ping).result(timeout=60) > 0
    assert "PYTHONPATH" not in os.environ
    shutdown_shared_pool()


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------
def test_worker_errors_are_structured_and_picklable():
    crash = WorkerCrashError("worker died", position=2, attempt=1)
    timeout = WorkerTimeoutError("too slow", position=1, attempt=0, timeout=1.5)
    task = WorkerTaskError(
        "ValueError: boom", position=3, attempt=1,
        exc_type="ValueError", traceback_text="Traceback ...",
    )
    for err in (crash, timeout, task):
        assert isinstance(err, HostPoolError)
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is type(err)
        assert (clone.position, clone.attempt) == (err.position, err.attempt)
        assert str(clone) == str(err)
    assert pickle.loads(pickle.dumps(timeout)).timeout == 1.5
    roundtrip = pickle.loads(pickle.dumps(task))
    assert roundtrip.exc_type == "ValueError"
    assert roundtrip.traceback_text == "Traceback ..."
    assert (crash.kind, timeout.kind, task.kind) == (
        "crash", "timeout", "task-error",
    )


def test_parse_fault_specs():
    specs = fault_mod.parse_fault_specs(
        "crash:unit2, replay:hang:unit1:2.5, slow:unit0:0.1, record:error:unit3"
    )
    assert [s.kind for s in specs] == ["crash", "hang", "slow", "error"]
    assert [s.position for s in specs] == [2, 1, 0, 3]
    assert specs[1].scope == "replay" and specs[1].seconds == 2.5
    assert specs[0].matches("record", 2) and specs[0].matches("replay", 2)
    assert not specs[1].matches("record", 1)
    assert fault_mod.faults_for(specs, "record", 3) == (specs[3],)
    assert fault_mod.parse_fault_specs("") == ()
    with pytest.raises(ValueError):
        fault_mod.parse_fault_specs("nonsense")
    with pytest.raises(ValueError):
        fault_mod.parse_fault_specs("explode:unit1")
    with pytest.raises(ValueError):
        fault_mod.parse_fault_specs("crash:unit")
    with pytest.raises(ValueError):
        fault_mod.parse_fault_specs("crash:unit1:wat")
    with pytest.raises(ValueError):
        # 'once' needs a fuse directory (REPRO_FAULT_STATE)
        fault_mod.parse_fault_specs("crash:unit1:once")
    once = fault_mod.parse_fault_specs("crash:unit1:once", state_dir="/tmp/x")
    assert once[0].once and once[0].state_dir == "/tmp/x"


def test_default_unit_timeout_env(monkeypatch):
    monkeypatch.delenv("REPRO_UNIT_TIMEOUT", raising=False)
    assert default_unit_timeout() == 60.0
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "2.5")
    assert default_unit_timeout() == 2.5
    assert DoublePlayConfig().unit_timeout == 2.5
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "not-a-number")
    assert default_unit_timeout() == 60.0
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "-3")
    assert default_unit_timeout() == 0.0
    assert HostExecutor(2, unit_timeout=1.25).unit_timeout == 1.25


# ----------------------------------------------------------------------
# Fault-injected recording: always completes, always bit-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec,counter,expect_fallback",
    [
        ("crash:unit1", "crashes", True),
        ("error:unit2", "task_errors", True),
        ("slow:unit1:0.05", None, False),
    ],
)
def test_record_faults_bit_identical(monkeypatch, spec, counter, expect_fallback):
    _, _, serial = _record("fft", 2, jobs=1)
    monkeypatch.setenv("REPRO_FAULT", spec)
    for pipeline in ("1", "0"):
        monkeypatch.setenv("REPRO_PIPELINE", pipeline)
        _, _, faulted = _record("fft", 2, jobs=4)
        _assert_bit_identical(faulted, serial)
        _assert_units_counted(faulted)
        counts = faulted.host["faults"]
        if counter is None:
            assert not any(counts.values())
        else:
            assert counts[counter] >= 1
            assert counts["retries"] >= 1
            if expect_fallback:
                assert counts["serial_fallbacks"] >= 1
            assert faulted.host["fault_events"], "events missing from accounting"
            assert all(
                set(event) == {"kind", "position", "attempt", "error"}
                for event in faulted.host["fault_events"]
            )


def test_record_hang_contained_by_unit_timeout(monkeypatch):
    _, _, serial = _record("fft", 2, jobs=1)
    monkeypatch.setenv("REPRO_FAULT", "hang:unit1:30")
    _, _, faulted = _record("fft", 2, jobs=4, unit_timeout=1.0)
    _assert_bit_identical(faulted, serial)
    counts = faulted.host["faults"]
    assert counts["timeouts"] >= 1
    assert counts["serial_fallbacks"] >= 1


def test_record_crash_and_hang_complete_via_fallback(monkeypatch):
    """The acceptance scenario: a crash AND a hang in one jobs=4 recording."""
    _, _, serial = _record("fft", 2, jobs=1)
    monkeypatch.setenv("REPRO_FAULT", "crash:unit1,hang:unit3:30")
    _, _, faulted = _record("fft", 2, jobs=4, unit_timeout=1.0)
    _assert_bit_identical(faulted, serial)
    counts = faulted.host["faults"]
    assert counts["crashes"] >= 1
    assert counts["timeouts"] >= 1
    assert counts["serial_fallbacks"] >= 2
    assert counts["retries"] >= 2


def test_record_crash_once_recovers_on_retry(monkeypatch, tmp_path):
    """With a one-shot fault the retry (not the fallback) saves the unit.

    Pipelining is pinned off: this test exercises the *batch* retry path,
    and a speculative dispatch would otherwise blow the one-shot fuse
    before the batch ever dispatched (the speculative variants live in
    the pipelined-fault tests below).
    """
    monkeypatch.setenv("REPRO_PIPELINE", "0")
    _, _, serial = _record("fft", 2, jobs=1)
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path))
    monkeypatch.setenv("REPRO_FAULT", "crash:unit1:once")
    _, _, faulted = _record("fft", 2, jobs=4)
    _assert_bit_identical(faulted, serial)
    counts = faulted.host["faults"]
    assert counts["crashes"] >= 1
    assert counts["retries"] >= 1
    # The fuse blew on the first attempt, so nothing ever needed the
    # serial fallback: every retry ran clean.
    assert counts["serial_fallbacks"] == 0
    assert counts["timeouts"] == 0 and counts["task_errors"] == 0


def test_record_fault_with_divergence_and_recovery(monkeypatch, tmp_path):
    """Host containment composes with guest forward recovery."""
    monkeypatch.setenv("REPRO_PIPELINE", "0")  # one-shot fuse, batch path
    _, _, serial = _record("racy-counter", 2, jobs=1)
    assert serial.stats["divergences"] > 0  # the workload actually diverges
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path))
    monkeypatch.setenv("REPRO_FAULT", "crash:unit0:once")
    _, _, faulted = _record("racy-counter", 2, jobs=2)
    _assert_bit_identical(faulted, serial)
    assert faulted.host["faults"]["crashes"] >= 1


# ----------------------------------------------------------------------
# Pipelined speculation under faults
#
# With the two-deep commit pipeline on (the default), epoch N's unit is
# dispatched while the thread-parallel run executes N+1 and beyond. A
# speculative attempt is disposable twice over: host faults silently
# discard it (the full-knowledge batch re-runs the position with normal
# containment), and segment-end validation drops any run whose snapshot
# cuts proved stale. Either way the recording must stay byte-identical
# to jobs=1.
# ----------------------------------------------------------------------
def test_pipelined_clean_run_accepts_speculation(monkeypatch):
    """No faults: speculative results are accepted, never re-run.

    The pipeline-off pass is the control: nothing speculates, and the
    unit histograms still count every committed unit.
    """
    _, _, serial = _record("fft", 2, jobs=1)
    for pipeline in ("1", "0"):
        monkeypatch.setenv("REPRO_PIPELINE", pipeline)
        _, _, parallel = _record("fft", 2, jobs=4)
        _assert_bit_identical(parallel, serial)
        _assert_units_counted(parallel)
        spec = parallel.host["speculation"]
        if pipeline == "1":
            assert spec["dispatched"] >= 1
            assert spec["accepted"] >= 1
        else:
            assert spec["dispatched"] == 0
        assert spec["discarded"] == 0
        assert not any(parallel.host["faults"].values())


@pytest.mark.parametrize(
    "spec,timeout,counter",
    [
        ("crash:unit1", None, "crashes"),
        ("hang:unit1:30", 1.0, "timeouts"),
        ("error:unit1", None, "task_errors"),
    ],
)
def test_pipelined_faults_discard_speculation(monkeypatch, spec, timeout, counter):
    """A host fault during speculation is contained twice.

    The fault fires on *every* dispatch of the position: the speculative
    attempt dies (silently discarded), then the batch attempts die and
    the retry/serial-fallback containment finishes the unit — recording
    byte-identical to jobs=1 throughout. With the pipeline off only the
    batch containment runs.
    """
    _, _, serial = _record("fft", 2, jobs=1)
    monkeypatch.setenv("REPRO_FAULT", spec)
    overrides = {"unit_timeout": timeout} if timeout is not None else {}
    for pipeline in ("1", "0"):
        monkeypatch.setenv("REPRO_PIPELINE", pipeline)
        _, _, faulted = _record("fft", 2, jobs=4, **overrides)
        _assert_bit_identical(faulted, serial)
        _assert_units_counted(faulted)
        if pipeline == "1":
            assert faulted.host["speculation"]["discarded"] >= 1
        else:
            assert faulted.host["speculation"]["dispatched"] == 0
        counts = faulted.host["faults"]
        assert counts[counter] >= 1, "batch path never saw the fault"
        assert counts["serial_fallbacks"] >= 1


def test_pipelined_speculative_crash_only_is_invisible(monkeypatch, tmp_path):
    """A one-shot crash consumed by the speculation leaves no fault trace.

    The fuse blows on the speculative dispatch, so the batch re-run of
    the position runs clean: zero entries in the fault counters (those
    count only batch containment), one discarded speculation, and a
    byte-identical recording.
    """
    _, _, serial = _record("fft", 2, jobs=1)
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path))
    monkeypatch.setenv("REPRO_FAULT", "crash:unit1:once")
    _, _, faulted = _record("fft", 2, jobs=4)
    _assert_bit_identical(faulted, serial)
    assert faulted.host["speculation"]["discarded"] >= 1
    assert not any(faulted.host["faults"].values())


def test_pipelined_divergence_while_speculating():
    """A divergence in epoch N must void in-flight speculation cleanly.

    racy-counter diverges mid-segment while later epochs' speculative
    units are already in the pool. The merge loop stops at the diverged
    position, recovery rolls the segment back, and whatever speculation
    returned for the discarded tail must leave no trace — recording and
    stats byte-identical to jobs=1.
    """
    _, _, serial = _record("racy-counter", 2, jobs=1)
    assert serial.stats["divergences"] > 0
    _, _, parallel = _record("racy-counter", 2, jobs=2)
    _assert_bit_identical(parallel, serial)
    assert parallel.host["speculation"]["dispatched"] >= 1
    assert not any(parallel.host["faults"].values())


def test_pipeline_env_toggle_is_parity(monkeypatch):
    """REPRO_PIPELINE=0 changes wall-clock shape only, never results."""
    _, _, piped = _record("pbzip", 2, jobs=2)
    assert piped.host["speculation"]["dispatched"] >= 1
    monkeypatch.setenv("REPRO_PIPELINE", "0")
    _, _, phased = _record("pbzip", 2, jobs=2)
    assert phased.host["speculation"]["dispatched"] == 0
    _assert_bit_identical(piped, phased)


# ----------------------------------------------------------------------
# Fault-injected parallel replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec,timeout,counter",
    [
        ("crash:unit1", None, "crashes"),
        ("hang:unit1:30", 1.0, "timeouts"),
        ("error:unit1", None, "task_errors"),
    ],
)
def test_replay_parallel_faults_bit_identical(monkeypatch, spec, timeout, counter):
    instance, machine, result = _record("fft", 2, jobs=1)
    replayer = Replayer(instance.image, machine)
    serial = replayer.replay_parallel(result.recording)
    monkeypatch.setenv("REPRO_FAULT", spec)
    kwargs = {"unit_timeout": timeout} if timeout is not None else {}
    faulted = replayer.replay_parallel(result.recording, jobs=4, **kwargs)
    assert faulted.verified, faulted.details
    assert faulted.total_cycles == serial.total_cycles
    assert faulted.makespan == serial.makespan
    assert faulted.epochs_replayed == serial.epochs_replayed
    _assert_units_counted(faulted)
    counts = faulted.host["faults"]
    assert counts[counter] >= 1
    assert counts["serial_fallbacks"] >= 1


def test_fault_scope_filters_by_phase(monkeypatch):
    """A record-scoped fault must not fire during replay, and vice versa."""
    instance, machine, result = _record("fft", 2, jobs=1)
    replayer = Replayer(instance.image, machine)
    monkeypatch.setenv("REPRO_FAULT", "record:error:unit1")
    outcome = replayer.replay_parallel(result.recording, jobs=2)
    assert outcome.verified
    assert not any(outcome.host["faults"].values())
    monkeypatch.setenv("REPRO_FAULT", "replay:error:unit1")
    _, _, recorded = _record("fft", 2, jobs=2)
    assert not any(recorded.host["faults"].values())


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def run_cli(*argv):
    import io

    from repro.cli import main as cli_main

    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


def test_cli_record_reports_contained_faults(monkeypatch, tmp_path):
    clean = tmp_path / "clean.json"
    code, _ = run_cli(
        "record", "fft", "--scale", "2", "--seed", "11", "-o", str(clean)
    )
    assert code == 0
    monkeypatch.setenv("REPRO_FAULT", "crash:unit1")
    faulted = tmp_path / "faulted.json"
    code, out = run_cli(
        "record", "fft", "--scale", "2", "--seed", "11",
        "--jobs", "4", "-o", str(faulted),
    )
    assert code == 0
    assert "host faults contained" in out
    assert "crash(es)" in out
    assert json.loads(faulted.read_text()) == json.loads(clean.read_text())


def test_cli_replay_reports_contained_faults(monkeypatch, tmp_path):
    path = tmp_path / "rec.json"
    code, _ = run_cli(
        "record", "fft", "--scale", "2", "--seed", "11", "-o", str(path)
    )
    assert code == 0
    monkeypatch.setenv("REPRO_FAULT", "error:unit1")
    code, out = run_cli(
        "replay", str(path), "--jobs", "2", "--unit-timeout", "30"
    )
    assert code == 0
    assert "verified" in out
    assert "host faults contained" in out
