"""The four workloads: set-up, the closed loop of timed ops, and the checks.

Every workload is one client in a closed loop: the next op starts when
the previous one has ended. CLI workloads time each op as a whole
``python -m repro`` process, from spawn until the parent sees it exit
with its artifact on disk. ``serve-burst`` keeps one ``RecordService``
(and its worker fleet) warm in this process and times each session from
the start of its burst to its completion.

Checks run after the loop, so the loop's wall holds only ops.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import layers, mix, stats
from perfbench.mix import Input
from perfbench.spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"

#: set-up runs this many times per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: no op starts after this many seconds of loop (the run must end < 180 s)
HARD_STOP_S = 120.0
#: a single CLI op that takes longer than this is killed and failed
OP_TIMEOUT_S = 30.0
#: ops per run at least: enough that the tail percentile has ten samples
#: beyond it and that every distinct input runs at least once. The two
#: workloads ``BENCHMARK.json`` gates reach theirs inside a 25 s run
#: (about 28 replays and 240 sessions on the host in ``README.md``), so
#: their tail is the highest percentile such a run reliably supports.
MIN_OPS = {
    "record-j1": 36,
    "record-j2-log": 25,
    "replay-j2-log": 25,
    "serve-burst": 200,
}
#: the ``repro record`` default epoch divisor (epochs per native runtime)
CLI_EPOCH_DIVISOR = 18


@dataclass
class Op:
    """One timed op and what the checks made of it."""

    input: Input
    wall: float
    traced: bool
    #: guest instructions the op completed (its input's native count)
    instructions: int = 0
    failure: Optional[str] = None
    #: the failure is the documented known defect (``mix.known_defect``)
    known: bool = False
    ledger: Optional[layers.OpLedger] = None


@dataclass
class RunResult:
    ops: List[Op]
    run_wall: float
    setup_s: float
    sim_overhead_pct: float
    log_bytes_per_kinstr: float
    #: per-layer metrics that do not come from spans (serve-burst)
    extra_layers: Dict[str, float] = field(default_factory=dict)


@dataclass
class Native:
    duration: int
    ops: int


@dataclass
class Sim:
    """One recording's simulated figures."""

    makespan: int
    log_bytes: int


# ----------------------------------------------------------------------
# Helpers shared by the workloads.
# ----------------------------------------------------------------------
def _natives(inputs: List[Input]) -> Dict[Input, Native]:
    from repro.baselines import run_native
    from repro.machine.config import MachineConfig
    from repro.workloads import build_workload

    natives = {}
    for inp in dict.fromkeys(inputs):
        instance = build_workload(
            inp.program, workers=inp.workers, scale=inp.scale, seed=inp.seed
        )
        result = run_native(instance.image, instance.setup, MachineConfig(cores=inp.workers))
        natives[inp] = Native(result.duration, result.ops)
    return natives


def _record_in_process(inp: Input, native: Native, epoch_divisor: int, floor: int, **config):
    """A jobs=1 recording configured as ``repro record`` (or a session) would."""
    from repro.core import DoublePlayConfig, DoublePlayRecorder
    from repro.machine.config import MachineConfig
    from repro.workloads import build_workload

    instance = build_workload(
        inp.program, workers=inp.workers, scale=inp.scale, seed=inp.seed
    )
    dp_config = DoublePlayConfig(
        machine=MachineConfig(cores=inp.workers),
        epoch_cycles=max(native.duration // epoch_divisor, floor),
        host_jobs=1,
        **config,
    )
    return DoublePlayRecorder(instance.image, instance.setup, dp_config).record()


def _sim_metrics(
    natives: Dict[Input, Native], sims: Dict[Input, Sim]
) -> Tuple[float, float]:
    """Overhead % and log bytes per 1000 instructions over distinct inputs."""
    duration = sum(natives[inp].duration for inp in sims)
    instructions = sum(natives[inp].ops for inp in sims)
    makespan = sum(sim.makespan for sim in sims.values())
    log_bytes = sum(sim.log_bytes for sim in sims.values())
    if not duration or not instructions:
        return 0.0, 0.0
    return 100.0 * (makespan / duration - 1.0), 1000.0 * log_bytes / instructions


def _repeat_setup(setup: Callable[[Path], None], workdir: Path) -> float:
    """Run ``setup`` SETUP_REPEATS times in fresh dirs (the last one stays);
    return the median of their walls."""
    times = []
    for attempt in range(SETUP_REPEATS):
        target = workdir / f"setup{attempt}"
        if attempt:
            shutil.rmtree(workdir / f"setup{attempt - 1}", ignore_errors=True)
        target.mkdir(parents=True)
        started = time.monotonic()
        setup(target)
        times.append(time.monotonic() - started)
    return stats.median(times)


def _keep_going(started: float, seconds: float, done: int, min_ops: int) -> bool:
    elapsed = time.monotonic() - started
    if elapsed > HARD_STOP_S:
        return False
    return elapsed < seconds or done < min_ops


def tally(ops: List[Op]) -> Tuple[int, int, int]:
    """``(attempted, failed, unexpected)``: every failure counts against
    the ops attempted; only failures other than the known defect make
    the run's output wrong."""
    failed = [op for op in ops if op.failure is not None]
    return len(ops), len(failed), sum(1 for op in failed if not op.known)


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process the fleet's spawn pool started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


_LOG_BYTES = re.compile(r"log (\d+) bytes, valid=(True|False)")
#: the failure a record op reports when the workload's validator rejects it
INVALID = "record printed valid=False"


# ----------------------------------------------------------------------
# CLI workloads.
# ----------------------------------------------------------------------
@dataclass
class _CliRun:
    """One CLI process: its command, outputs and timing."""

    input: Input
    opdir: Path
    traced: bool
    returncode: int
    stdout: str
    wall: float
    ledger: Optional[layers.OpLedger] = None


def _run_cli(argv: List[str], env: Dict[str, str], opdir: Path, traced: bool):
    if traced:
        trace_path = opdir / "trace.json"
        env = dict(env, PERFBENCH_TRACE_OUT=str(trace_path))
        command = [sys.executable, str(TRACED_CLI), *argv]
    else:
        command = [sys.executable, "-m", "repro", *argv]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=OP_TIMEOUT_S,
        )
        returncode, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as exc:
        returncode, stdout = -1, f"timed out after {OP_TIMEOUT_S} s: {exc}"
    exited = time.monotonic()
    ledger = None
    if traced and returncode >= 0 and trace_path.is_file():
        with open(trace_path) as handle:
            ledger = layers.cli_op_ledger(json.load(handle), started, exited)
    return returncode, stdout, exited - started, ledger


class CliWorkload:
    """A workload whose every op is one ``python -m repro`` process."""

    name = ""

    def __init__(self, seed: int, workdir: Path, env: Dict[str, str]):
        self.workdir = workdir
        self.env = env
        self.inputs = mix.WORKLOAD_INPUTS[self.name](seed)
        self.natives: Dict[Input, Native] = {}
        #: distinct input -> its recording's simulated figures
        self.sims: Dict[Input, Sim] = {}

    def setup(self, target: Path) -> None:
        self.natives = _natives(self.inputs)

    def argv(self, inp: Input, opdir: Path) -> List[str]:
        raise NotImplementedError

    def check(self, run: _CliRun) -> Optional[str]:
        """Why the op's output is wrong, or None."""
        raise NotImplementedError

    def _check_record(self, run: _CliRun) -> Optional[str]:
        match = _LOG_BYTES.search(run.stdout)
        if run.returncode not in (0, 1) or match is None:
            return f"exit {run.returncode}: {run.stdout.strip()[-300:]}"
        if match.group(2) != "True":
            return INVALID
        if run.returncode != 0:
            return f"record exited {run.returncode} with valid=True"
        return None

    def run(self, seconds: float, trace: bool) -> RunResult:
        setup_s = _repeat_setup(self.setup, self.workdir)
        min_ops = MIN_OPS[self.name]
        if trace:
            # Each input runs untraced, then traced: cover every input.
            min_ops = max(min_ops, 2 * len(self.inputs))
        runs: List[_CliRun] = []
        started = time.monotonic()
        while _keep_going(started, seconds, len(runs), min_ops):
            index = len(runs)
            traced = trace and index % 2 == 1
            inp = self.inputs[(index // 2 if trace else index) % len(self.inputs)]
            opdir = self.workdir / f"op{index}"
            opdir.mkdir()
            returncode, stdout, wall, ledger = _run_cli(
                self.argv(inp, opdir), self.env, opdir, traced
            )
            runs.append(_CliRun(inp, opdir, traced, returncode, stdout, wall, ledger))
        run_wall = time.monotonic() - started

        ops = []
        for run in runs:
            op = Op(run.input, run.wall, run.traced, ledger=run.ledger)
            op.failure = self.check(run)
            op.known = op.failure == INVALID and mix.known_defect(run.input) is not None
            if op.failure is None or op.known:
                # A known-defect op still ran the program to completion.
                op.instructions = self.natives[run.input].ops
            ops.append(op)
        overhead, per_kinstr = _sim_metrics(self.natives, self.sims)
        return RunResult(ops, run_wall, setup_s, overhead, per_kinstr)


class RecordJ1(CliWorkload):
    """``repro record ... --jobs 1 -o FILE``: the serial record path."""

    name = "record-j1"

    def __init__(self, *args):
        super().__init__(*args)
        self._artifact_digest: Dict[Input, str] = {}

    def argv(self, inp, opdir):
        return ["record", *inp.cli_args(), "--jobs", "1", "-o", str(opdir / "rec.json")]

    def check(self, run):
        failure = self._check_record(run)
        artifact = run.opdir / "rec.json"
        if failure not in (None, INVALID):
            return failure
        if not artifact.is_file():
            return "no recording written"
        data = artifact.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        first = self._artifact_digest.setdefault(run.input, digest)
        if digest != first:
            return "recording differs from an earlier op on the same input"
        if run.input not in self.sims:
            recording = json.loads(data)["recording"]
            self.sims[run.input] = Sim(
                recording["stats"]["makespan"],
                int(_LOG_BYTES.search(run.stdout).group(1)),
            )
        return failure


class RecordJ2Log(CliWorkload):
    """``repro record ... --jobs 2 --log-dir DIR``: pool, wire and durable log."""

    name = "record-j2-log"

    def __init__(self, *args):
        super().__init__(*args)
        #: distinct input -> final digest of its jobs=1 recording
        self.reference: Dict[Input, int] = {}

    def setup(self, target):
        super().setup(target)
        self.reference = {}
        for inp in dict.fromkeys(self.inputs):
            result = _record_in_process(inp, self.natives[inp], CLI_EPOCH_DIVISOR, 400)
            self.reference[inp] = result.recording.final_digest

    def argv(self, inp, opdir):
        return ["record", *inp.cli_args(), "--jobs", "2", "--log-dir", str(opdir / "log")]

    def check(self, run):
        failure = self._check_record(run)
        if failure not in (None, INVALID):
            return failure
        manifest_path = run.opdir / "log" / "manifest.json"
        if not manifest_path.is_file():
            return "no durable log manifest written"
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        if not manifest.get("complete"):
            return "durable log not sealed"
        if manifest["final_digest"] != self.reference[run.input]:
            return "final digest differs from the jobs=1 recording"
        if run.input not in self.sims:
            self.sims[run.input] = Sim(
                manifest["stats"]["makespan"],
                int(_LOG_BYTES.search(run.stdout).group(1)),
            )
        return failure


class ReplayJ2Log(CliWorkload):
    """``repro replay DIR --jobs 2`` over durable logs recorded in set-up."""

    name = "replay-j2-log"

    def __init__(self, *args):
        super().__init__(*args)
        self.corpus: Dict[Input, Path] = {}

    def setup(self, target):
        super().setup(target)
        self.corpus = {}
        self.sims = {}
        for number, inp in enumerate(dict.fromkeys(self.inputs)):
            log_dir = target / f"log{number}"
            result = _record_in_process(
                inp, self.natives[inp], CLI_EPOCH_DIVISOR, 400,
                log_dir=str(log_dir),
                log_meta={
                    "name": inp.program, "workers": inp.workers,
                    "scale": inp.scale, "seed": inp.seed,
                },
            )
            self.corpus[inp] = log_dir
            self.sims[inp] = Sim(result.makespan, result.recording.total_log_bytes())

    def argv(self, inp, opdir):
        return ["replay", str(self.corpus[inp]), "--jobs", "2"]

    def check(self, run):
        if run.returncode != 0 or ": verified," not in run.stdout:
            return f"replay not verified (exit {run.returncode}): {run.stdout.strip()[-300:]}"
        return None


# ----------------------------------------------------------------------
# serve-burst: RecordService in this process.
# ----------------------------------------------------------------------
def _plain_digest(plain: dict) -> str:
    return hashlib.sha256(json.dumps(plain, sort_keys=True).encode()).hexdigest()


class ServeBurst:
    """Bursts of record sessions, each followed by a burst replaying them."""

    name = "serve-burst"
    #: bursts generated per run (the loop cycles through them)
    BURSTS = 64
    #: the ``SessionRequest`` default epoch divisor
    SESSION_EPOCH_DIVISOR = 12

    def __init__(self, seed: int, workdir: Path, env: Dict[str, str]):
        self.workdir = workdir
        self.pool = mix.serve_pool(seed)
        self.bursts = mix.serve_bursts(seed, self.pool, self.BURSTS)
        self.natives: Dict[Input, Native] = {}
        self.reference: Dict[Input, str] = {}
        self.sims: Dict[Input, Sim] = {}
        self.service = None
        self._completed: Dict[str, float] = {}

    def setup(self, target: Path) -> None:
        from repro.host.pool import shared_pool, shutdown_shared_pool
        from repro.service import RecordService, ServiceConfig

        self.natives = _natives(self.pool)
        self.reference, self.sims = {}, {}
        for inp in self.pool:
            result = _record_in_process(
                inp, self.natives[inp], self.SESSION_EPOCH_DIVISOR, 500
            )
            self.reference[inp] = _plain_digest(result.recording.to_plain())
            self.sims[inp] = Sim(result.makespan, result.recording.total_log_bytes())
        # A service keeps its fleet warm: the spawn is paid here, once.
        shutdown_shared_pool()
        shared_pool(2)
        self.service = RecordService(ServiceConfig(jobs=2, max_active=2))
        completed = self.service.hub.session_completed

        def stamp(sid, **kwargs):
            self._completed[sid] = time.monotonic()
            return completed(sid, **kwargs)

        self.service.hub.session_completed = stamp

    def _burst(self, requests, tracer: Optional[Tracer]):
        """Run one burst; per session: (result, latency from burst start)."""
        patches = layers.install_service(tracer) if tracer is not None else None
        started = time.monotonic()
        try:
            report = self.service.run(requests)
        finally:
            if patches is not None:
                patches.restore()
        latencies = [self._completed[r.sid] - started for r in report.results]
        return report, latencies

    def run(self, seconds: float, trace: bool) -> RunResult:
        from repro.host.pool import shutdown_shared_pool
        from repro.service import SessionRequest

        setup_s = _repeat_setup(self.setup, self.workdir)
        ops: List[Op] = []
        reports = []
        tracer = Tracer() if trace else None
        traced_sessions = []
        started = time.monotonic()
        number = 0
        try:
            while _keep_going(started, seconds, len(ops), MIN_OPS[self.name]):
                burst = self.bursts[number % len(self.bursts)]
                traced = trace and number % 2 == 1
                records = [
                    SessionRequest(
                        sid=f"b{number}r{k}", workload=inp.program,
                        workers=inp.workers, scale=inp.scale, seed=inp.seed,
                    )
                    for k, inp in enumerate(burst)
                ]
                report, latencies = self._burst(records, tracer if traced else None)
                replays = [
                    SessionRequest(
                        sid=f"b{number}p{k}", workload=inp.program,
                        workers=inp.workers, scale=inp.scale, seed=inp.seed,
                        kind="replay", recording_plain=result.recording_plain,
                    )
                    for k, (inp, result) in enumerate(zip(burst, report.results))
                    if result.recording_plain is not None
                ]
                replay_report, replay_latencies = self._burst(
                    replays, tracer if traced else None
                )
                replayed = [
                    inp for inp, result in zip(burst, report.results)
                    if result.recording_plain is not None
                ]
                sessions = [
                    *zip(burst, report.results, latencies),
                    *zip(replayed, replay_report.results, replay_latencies),
                ]
                for inp, result, latency in sessions:
                    ops.append(self._op(inp, result, latency, traced))
                    if traced:
                        traced_sessions.append((ops[-1], result))
                if trace:
                    # Reports hold every recording; keeping them in an
                    # untraced run would make peak_rss_mb grow with the
                    # number of sessions the run completes.
                    reports.extend((report, replay_report))
                number += 1
            run_wall = time.monotonic() - started
        finally:
            shutdown_shared_pool()
            _stop_resource_tracker()
        if tracer is not None:
            self._attach_ledgers(tracer, traced_sessions)
        overhead, per_kinstr = _sim_metrics(self.natives, self.sims)
        extra = self._service_metrics(reports) if trace else {}
        return RunResult(ops, run_wall, setup_s, overhead, per_kinstr, extra)

    def _op(self, inp: Input, result, latency: float, traced: bool) -> Op:
        op = Op(inp, latency, traced)
        if not result.ok:
            op.failure = f"session {result.sid} failed: {result.error}"
        elif result.kind == "record":
            if _plain_digest(result.recording_plain) != self.reference[inp]:
                op.failure = f"session {result.sid} differs from the solo jobs=1 recording"
        elif not result.verified:
            op.failure = f"session {result.sid} replay not verified"
        if op.failure is None:
            op.instructions = self.natives[inp].ops
        return op

    @staticmethod
    def _attach_ledgers(tracer: Tracer, traced_sessions) -> None:
        spans = tracer.to_plain()
        selfs = self_times(spans)
        roots = {
            span["label"]: index
            for index, span in enumerate(spans)
            if span["name"] == "service.session_body"
        }
        for op, result in traced_sessions:
            root = roots.get(result.sid)
            if root is None:
                continue
            ledger = layers.op_ledger(spans, selfs, layers.subtree(spans, root), op.wall)
            ledger.layers["service.admission_wait"] = result.admission_wait
            ledger.gaps["service.handoff"] = max(
                0.0, op.wall - result.admission_wait - result.duration
            )
            op.ledger = ledger

    @staticmethod
    def _service_metrics(reports) -> Dict[str, float]:
        results = [r for report in reports for r in report.results]
        waits = [r.admission_wait for r in results]
        shipped = saved = 0
        for report in reports:
            wire = report.fleet.get("wire", {})
            shipped += wire.get("bytes_shipped", 0)
            saved += wire.get("cross_session_bytes_saved", 0)
        hits = [r.metrics.get("service", {}).get("backpressure_hits", 0) for r in results]
        return {
            "service.admission_wait_p50_s": stats.median(waits) if waits else 0.0,
            "service.admission_wait_max_s": max(waits, default=0.0),
            "service.session_body_s": stats.median([r.duration for r in results]) if results else 0.0,
            "service.backpressure_hits": sum(hits) / len(hits) if hits else 0.0,
            "service.dedup_ratio": (shipped + saved) / shipped if shipped else 0.0,
        }


WORKLOADS = {
    cls.name: cls for cls in (RecordJ1, RecordJ2Log, ReplayJ2Log, ServeBurst)
}
