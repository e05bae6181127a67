"""The layer ledger: which program calls are spanned, and what they add up to.

Wrappers are bound where each name is looked up — ``run_epoch`` in
``repro.core.recorder``, ``run_native`` in ``repro.cli`` and so on — so
the program runs unchanged apart from the span bookkeeping. Worker
processes are not wrapped; their numbers come from the public
``host`` summary a record or replay returns.

Per op, every layer's *self* time (span minus its children) is summed;
``coverage`` is that sum over the op's wall. Spans that only group
other work (``cli.main``, ``core.record``, ``service.session_body``)
are not layers: their self time is uncovered, and the ledger names the
largest such gap instead of spreading it over the layers.
"""

from __future__ import annotations

import functools
import json
import types
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench import stats
from perfbench.spans import Patches, Tracer, self_times

#: spans whose self time is an uncovered gap, not a layer
CONTAINERS = ("cli.main", "core.record", "service.session_body")

#: per-layer time metrics: metric name -> ledger layer
TIME_METRICS = {
    "cli.import_s": "cli.import",
    "cli.exit_s": "cli.exit",
    "cli.artifact_write_s": "cli.artifact_write",
    "workloads.build_s": "workloads.build",
    "baselines.run_native_s": "baselines.run_native",
    "exec.multicore.run_s": "exec.multicore.run",
    "exec.multicore.native_run_s": "exec.multicore.native_run",
    "checkpoint.take_s": "checkpoint.take",
    "core.run_epoch_s": "core.run_epoch",
    "core.recover_epoch_s": "core.recover_epoch",
    "core.replay_s": "core.replay",
    "host.pool.spawn_s": "host.pool.spawn",
    "host.pool.run_units_s": "host.pool.run_units",
    "record.shards.commit_s": "record.shards.commit",
    "record.shards.close_s": "record.shards.close",
    "record.shards.load_s": "record.shards.load",
}

#: per-layer counts and worker times (mean per op): metric -> (count key, unit)
COUNT_METRICS = {
    "exec.ops_executed": ("ops", "count"),
    "checkpoint.takes": ("checkpoint_takes", "count"),
    "core.divergences": ("divergences", "count"),
    "host.units": ("units", "count"),
    "host.retries": ("retries", "count"),
    "host.serial_fallbacks": ("serial_fallbacks", "count"),
    "host.wire.bytes_shipped": ("bytes_shipped", "bytes"),
    "record.shards.bytes_written": ("shard_bytes", "bytes"),
    "record.shards.fsyncs": ("fsyncs", "count"),
    "host.worker_exec_s": ("worker_exec_s", "s"),
    "host.worker_cpu_s": ("worker_cpu_s", "s"),
    "host.dispatch_cpu_s": ("dispatch_cpu_s", "s"),
}

#: ratio metrics: metric name -> (numerator keys, denominator keys)
RATIO_METRICS = {
    "exec.superblock.fused_ratio": (("fused_ops",), ("ops",)),
    "core.commit_ratio": (("clean_commits",), ("clean_commits", "divergences")),
    "core.speculation_accept_ratio": (("spec_accepted",), ("spec_dispatched",)),
    "host.wire.hit_ratio": (("cache_hits",), ("cache_hits", "cache_misses")),
}

SERVICE_METRICS = (
    "service.admission_wait_p50_s",
    "service.admission_wait_max_s",
    "service.session_body_s",
    "service.backpressure_hits",
    "service.dedup_ratio",
)

PER_LAYER_UNITS: Dict[str, str] = {
    **{name: "s" for name in TIME_METRICS},
    **{name: unit for name, (_, unit) in COUNT_METRICS.items()},
    **{name: "ratio" for name in RATIO_METRICS},
    "service.admission_wait_p50_s": "s",
    "service.admission_wait_max_s": "s",
    "service.session_body_s": "s",
    "service.backpressure_hits": "count",
    "service.dedup_ratio": "ratio",
    "coverage": "ratio",
    "ledger.uncovered_s": "s",
    "trace.overhead_s": "s",
}


# ----------------------------------------------------------------------
# What each wrapped call reports besides its time.
# ----------------------------------------------------------------------
def _host_counts(host: dict) -> Dict[str, float]:
    wire = host.get("wire", {})
    faults = host.get("faults", {})
    speculation = host.get("speculation", {})
    return {
        "units": host.get("units", 0),
        "worker_exec_s": sum(host.get("unit_wall", ())),
        "worker_cpu_s": sum(host.get("unit_cpu", ())),
        "dispatch_cpu_s": host.get("dispatch_cpu", 0.0),
        "retries": faults.get("retries", 0),
        "serial_fallbacks": faults.get("serial_fallbacks", 0),
        "bytes_shipped": wire.get("bytes_shipped", 0),
        "cache_hits": wire.get("blob_cache_hits", 0),
        "cache_misses": wire.get("blob_cache_misses", 0),
        "spec_dispatched": speculation.get("dispatched", 0),
        "spec_accepted": speculation.get("accepted", 0),
    }


def _record_counts(span, result) -> None:
    span.info.update(_host_counts(result.host))
    recording_stats = result.stats
    span.info.update(
        clean_commits=recording_stats.get("epochs", 0)
        - recording_stats.get("recoveries", 0),
        divergences=recording_stats.get("divergences", 0),
        shard_bytes=result.metrics.get("durable", "segment_bytes")
        + result.metrics.get("durable", "blob_bytes"),
        fsyncs=result.metrics.get("durable", "fsyncs"),
    )


def _replay_counts(span, result) -> None:
    span.info.update(_host_counts(result.host))


def _label_session(span, result) -> None:
    span.label = result.sid


def _engine_run(tracer: Tracer, run):
    """``MulticoreEngine.run`` with its executed and fused op counts."""
    from repro.obs import metrics as obs_metrics

    @functools.wraps(run)
    def wrapper(engine, *args, **kwargs):
        counters = obs_metrics.process_stats()
        ops = counters.get("exec.ops_executed")
        fused = counters.get("superblock.fused_ops")
        index = tracer.begin("exec.multicore.run")
        try:
            return run(engine, *args, **kwargs)
        finally:
            span = tracer.end(index)
            span.info["ops"] = counters.get("exec.ops_executed") - ops
            span.info["fused_ops"] = counters.get("superblock.fused_ops") - fused

    return wrapper


def _json_with_spanned_dump(patches: Patches):
    """The ``json`` module as ``repro.cli`` sees it, with ``dump`` spanned."""
    proxy = types.ModuleType("json")
    proxy.__dict__.update(json.__dict__)
    patches.wrap(proxy, "dump", "cli.artifact_write")
    return proxy


def _install_core(patches: Patches) -> None:
    from repro.checkpoint.manager import CheckpointManager
    from repro.core import recorder
    from repro.core.replayer import Replayer
    from repro.exec.multicore import MulticoreEngine

    patches.replace(
        MulticoreEngine, "run", _engine_run(patches.tracer, MulticoreEngine.run)
    )
    patches.wrap(CheckpointManager, "take", "checkpoint.take")
    patches.wrap(recorder.DoublePlayRecorder, "record", "core.record", _record_counts)
    patches.wrap(recorder, "run_epoch", "core.run_epoch")
    patches.wrap(recorder, "recover_epoch", "core.recover_epoch")
    patches.wrap(Replayer, "replay_parallel", "core.replay", _replay_counts)

    def pool_layers(pool) -> None:
        patches.wrap(pool, "shared_pool", "host.pool.spawn")
        patches.wrap_generator(
            pool.HostExecutor, "run_record_units", "host.pool.run_units"
        )
        patches.wrap(pool.HostExecutor, "run_replay_units", "host.pool.run_units")
        for method in ("push", "harvest", "close"):
            patches.wrap(pool.SpeculativeSession, method, "host.pool.run_units")

    def shard_layers(shards) -> None:
        patches.wrap(shards.ShardedLogWriter, "commit_epoch", "record.shards.commit")
        patches.wrap(shards.ShardedLogWriter, "close", "record.shards.close")
        patches.wrap(shards.ShardedLogReader, "__init__", "record.shards.load")
        patches.wrap(shards.ShardedLogReader, "load_recording", "record.shards.load")

    # Both are imported lazily by the program (jobs > 1, --log-dir).
    patches.when_imported("repro.host.pool", pool_layers)
    patches.when_imported("repro.record.shards", shard_layers)


def install_cli(tracer: Tracer) -> Patches:
    """Span the layers of one ``repro`` CLI process (``repro.cli.main``)."""
    import repro.cli
    from repro.record.recording import Recording

    patches = Patches(tracer)
    patches.wrap(repro.cli, "build_workload", "workloads.build")
    patches.wrap(repro.cli, "run_native", "baselines.run_native")
    patches.wrap(Recording, "to_plain", "cli.artifact_write")
    patches.replace(repro.cli, "json", _json_with_spanned_dump(patches))
    _install_core(patches)
    return patches


def install_service(tracer: Tracer) -> Patches:
    """Span the layers of ``RecordService`` sessions in this process."""
    import repro.baselines
    from repro.service import coordinator, fleet

    patches = Patches(tracer)
    patches.wrap(
        coordinator.RecordService, "_session_body", "service.session_body",
        _label_session,
    )
    patches.wrap(coordinator, "build_workload", "workloads.build")
    patches.wrap(repro.baselines, "run_native", "baselines.run_native")
    patches.wrap(fleet, "shared_pool", "host.pool.spawn")
    _install_core(patches)
    return patches


# ----------------------------------------------------------------------
# One op's ledger.
# ----------------------------------------------------------------------
@dataclass
class OpLedger:
    """Where one op's wall went."""

    wall: float
    #: layer -> self seconds on the op's own thread
    layers: Dict[str, float] = field(default_factory=dict)
    #: container or gap -> uncovered seconds with a name
    gaps: Dict[str, float] = field(default_factory=dict)
    #: layer -> self seconds on other threads (off the op's path)
    offpath: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def covered(self) -> float:
        return sum(self.layers.values())

    @property
    def coverage(self) -> float:
        return self.covered / self.wall if self.wall > 0 else 0.0


def _layer_name(spans: List[dict], index: int) -> str:
    name = spans[index]["name"]
    if name == "exec.multicore.run":
        parent = spans[index]["parent"]
        while parent is not None:
            if spans[parent]["name"] == "baselines.run_native":
                return "exec.multicore.native_run"
            parent = spans[parent]["parent"]
    return name


def _add(mapping: Dict[str, float], key: str, value: float) -> None:
    mapping[key] = mapping.get(key, 0.0) + value


def subtree(spans: List[dict], root: int) -> List[int]:
    """Indices of ``root`` and every span below it."""
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index]["parent"] in inside:
            inside.add(index)
    return sorted(inside)


def op_ledger(
    spans: List[dict],
    selfs: List[float],
    members: List[int],
    wall: float,
    offpath: Optional[List[int]] = None,
) -> OpLedger:
    """Fold the spans of one op into its ledger."""
    ledger = OpLedger(wall=wall)
    for index in members:
        span = spans[index]
        name = _layer_name(spans, index)
        if name in CONTAINERS:
            _add(ledger.gaps, name, selfs[index])
        else:
            _add(ledger.layers, name, selfs[index])
        if name == "checkpoint.take":
            _add(ledger.counts, "checkpoint_takes", 1)
        for key, value in span["info"].items():
            _add(ledger.counts, key, value)
    for index in offpath or ():
        _add(ledger.offpath, _layer_name(spans, index), selfs[index])
    return ledger


def cli_op_ledger(trace: dict, spawned: float, exited: float) -> OpLedger:
    """The ledger of one traced CLI process (see ``traced_cli``).

    ``cli.import`` runs from spawn until ``import repro.cli`` returns and
    ``cli.exit`` from ``main`` returning until the parent saw the exit;
    both are timed on the shared monotonic clock.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    main_thread = spans[0]["thread"] if spans else None
    members = [i for i, s in enumerate(spans) if s["thread"] == main_thread]
    offpath = [i for i, s in enumerate(spans) if s["thread"] != main_thread]
    ledger = op_ledger(spans, selfs, members, exited - spawned, offpath)
    ledger.layers["cli.import"] = trace["import_done"] - spawned
    ledger.layers["cli.exit"] = exited - trace["main_end"]
    ledger.gaps["trace.install"] = trace["main_start"] - trace["import_done"]
    return ledger


# ----------------------------------------------------------------------
# A workload's per-layer metrics and printed ledger.
# ----------------------------------------------------------------------
def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(ops: List[OpLedger]) -> Dict[str, float]:
    """Per-layer metrics over a workload's traced ops.

    Times and counts are means per op; ratios divide summed numerators
    by summed denominators; ``coverage`` is the median op's.
    """
    metrics: Dict[str, float] = {}
    for metric, layer in TIME_METRICS.items():
        metrics[metric] = _mean([op.layers.get(layer, 0.0) for op in ops])
    for metric, (key, _) in COUNT_METRICS.items():
        metrics[metric] = _mean([op.counts.get(key, 0.0) for op in ops])
    for metric, (numerator, denominator) in RATIO_METRICS.items():
        top = sum(op.counts.get(key, 0.0) for op in ops for key in numerator)
        bottom = sum(op.counts.get(key, 0.0) for op in ops for key in denominator)
        metrics[metric] = top / bottom if bottom else 0.0
    metrics["coverage"] = stats.median([op.coverage for op in ops]) if ops else 0.0
    metrics["ledger.uncovered_s"] = _mean([op.wall - op.covered for op in ops])
    return metrics


def ledger_lines(workload: str, ops: List[OpLedger]) -> List[str]:
    """The printed ledger: layer, self seconds per op, share of op wall."""
    if not ops:
        return [f"ledger {workload}: no traced ops"]
    wall = sum(op.wall for op in ops)
    count = len(ops)
    totals: Dict[str, float] = {}
    gaps: Dict[str, float] = {}
    offpath: Dict[str, float] = {}
    for op in ops:
        for name, seconds in op.layers.items():
            _add(totals, name, seconds)
        for name, seconds in op.gaps.items():
            _add(gaps, name, seconds)
        for name, seconds in op.offpath.items():
            _add(offpath, name, seconds)
    covered = sum(totals.values())
    lines = [
        f"ledger {workload}: {count} traced ops, mean op wall "
        f"{wall / count:.4f} s",
        f"  {'layer':32s} {'self s/op':>10s} {'share':>7s}",
    ]
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {name:32s} {seconds / count:10.4f} {seconds / wall:7.1%}"
        )
    lines.append(
        f"  {'coverage':32s} {covered / count:10.4f} {covered / wall:7.1%}"
    )
    named = sum(gaps.values())
    gaps["unattributed"] = max(0.0, wall - covered - named)
    gap, seconds = max(gaps.items(), key=lambda kv: kv[1])
    lines.append(
        f"  largest uncovered gap: {gap} {seconds / count:.4f} s/op "
        f"({seconds / wall:.1%} of op wall)"
    )
    for name, seconds in sorted(gaps.items(), key=lambda kv: -kv[1]):
        lines.append(f"    gap {name:28s} {seconds / count:10.4f} {seconds / wall:7.1%}")
    for name, seconds in sorted(offpath.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"    off-path {name:23s} {seconds / count:10.4f} (other thread)"
        )
    return lines
