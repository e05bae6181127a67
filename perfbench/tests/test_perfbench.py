"""Tests of the benchmark's own code: ``python -m pytest perfbench/tests``."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import mix, stats  # noqa: E402
from perfbench.layers import op_ledger  # noqa: E402
from perfbench.spans import Patches, Tracer, self_times  # noqa: E402
from perfbench.workloads import Op, RecordJ1, _CliRun, tally  # noqa: E402


def _span(name, start, end, parent=None, thread=1, info=None):
    return {
        "name": name, "start": start, "end": end, "parent": parent,
        "thread": thread, "info": info or {}, "label": "",
    }


# ----------------------------------------------------------------------
# Self time.
# ----------------------------------------------------------------------
def test_self_time_nested_spans():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("core.record", 1.0, 9.0, parent=0),
        _span("core.run_epoch", 2.0, 5.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 5.0, 3.0])


def test_self_time_sibling_spans():
    spans = [
        _span("core.record", 0.0, 10.0),
        _span("checkpoint.take", 1.0, 2.0, parent=0),
        _span("core.run_epoch", 3.0, 6.0, parent=0),
        _span("checkpoint.take", 7.0, 7.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.5, 1.0, 3.0, 0.5])


def test_self_time_never_negative_and_clipped_to_parent():
    spans = [
        _span("core.record", 0.0, 4.0),
        _span("core.run_epoch", 1.0, 6.0, parent=0),
        _span("core.run_epoch", 2.0, 3.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_ledger_coverage_counts_layers_not_containers():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("core.record", 1.0, 9.0, parent=0),
        _span("core.run_epoch", 2.0, 5.0, parent=1),
        _span("checkpoint.take", 5.0, 6.0, parent=1),
    ]
    ledger = op_ledger(spans, self_times(spans), list(range(4)), wall=10.0)
    assert ledger.layers == pytest.approx({"core.run_epoch": 3.0, "checkpoint.take": 1.0})
    assert ledger.gaps == pytest.approx({"cli.main": 2.0, "core.record": 4.0})
    assert ledger.coverage == pytest.approx(0.4)
    assert ledger.counts["checkpoint_takes"] == 1


def test_tracer_records_parents_and_patches_restore():
    class Engine:
        def run(self, value):
            return value * 2

    def numbers():
        yield 1
        yield 2

    holder = type("Holder", (), {"numbers": staticmethod(numbers)})
    original = Engine.__dict__["run"]
    tracer = Tracer()
    patches = Patches(tracer)
    patches.wrap(Engine, "run", "exec.multicore.run")
    patches.wrap_generator(holder, "numbers", "host.pool.run_units")
    outer = tracer.begin("core.record")
    assert Engine().run(3) == 6
    assert list(holder.numbers()) == [1, 2]
    tracer.end(outer)
    patches.restore()
    assert Engine.__dict__["run"] is original
    names = [span.name for span in tracer.spans]
    assert names[:2] == ["core.record", "exec.multicore.run"]
    # one span per resumption, plus the close
    assert names.count("host.pool.run_units") == 4
    assert all(span.parent == outer for span in tracer.spans[1:])


# ----------------------------------------------------------------------
# The tail percentile.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("min_samples, expected", [(25, 60), (100, 90), (11, 9), (40, 75)])
def test_tail_percentile_choice(min_samples, expected):
    assert stats.tail_percentile(min_samples) == expected


@pytest.mark.parametrize("min_samples", [11, 25, 33, 100])
def test_tail_has_ten_samples_beyond_at_any_run_length(min_samples):
    pct = stats.tail_percentile(min_samples)
    for count in range(min_samples, min_samples + 200):
        values = [float(i) for i in range(count)]
        assert stats.beyond_count(values, pct) >= stats.TAIL_BEYOND
        value = stats.percentile(values, pct)
        assert sum(1 for v in values if v > value) >= stats.TAIL_BEYOND
    # and it is the highest such whole percentile at the minimum count
    values = [float(i) for i in range(min_samples)]
    assert stats.beyond_count(values, pct + 1) < stats.TAIL_BEYOND


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(10)


# ----------------------------------------------------------------------
# Seeded inputs.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(mix.WORKLOAD_INPUTS))
def test_same_seed_same_inputs_other_seed_different(workload):
    make = mix.WORKLOAD_INPUTS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_input_mix_is_fixed_across_seeds():
    for make in mix.WORKLOAD_INPUTS.values():
        shape = sorted((i.program, i.workers) for i in make(1))
        assert all(sorted((i.program, i.workers) for i in make(s)) == shape for s in range(2, 6))


def test_serve_bursts_are_seeded_and_balanced():
    pool = mix.serve_pool(3)
    bursts = mix.serve_bursts(3, pool, 4)
    assert bursts == mix.serve_bursts(3, pool, 4)
    assert bursts != mix.serve_bursts(4, pool, 4)
    for burst in bursts:
        assert len(burst) == mix.SERVE_BURST
        assert {burst.count(inp) for inp in pool} == {mix.SERVE_BURST // len(pool)}


def test_ocean_stays_in_the_race_free_pool_at_failing_scales():
    (ocean,) = [i for i in mix.record_j1_inputs(1) if i.program == "ocean"]
    assert mix.known_defect(ocean)


# ----------------------------------------------------------------------
# Failures are counted.
# ----------------------------------------------------------------------
def test_failed_op_is_counted():
    inp = mix.Input("pbzip", 4, 96, 1)
    ops = [
        Op(inp, 1.0, False),
        Op(inp, 1.0, False, failure="replay not verified"),
        Op(inp, 1.0, False, failure="record printed valid=False", known=True),
    ]
    assert tally(ops) == (3, 2, 1)


def _record_run(opdir, inp, returncode, stdout):
    opdir.mkdir()
    return _CliRun(inp, opdir, False, returncode, stdout, 1.0)


def test_invalid_record_fails_the_op(tmp_path):
    workload = RecordJ1(1, tmp_path, {})
    inp = mix.Input("pbzip", 4, 96, 1)
    run = _record_run(
        tmp_path / "op0", inp, 1,
        "recorded pbzip: 19 epochs, 0 divergences, overhead 20.0%, "
        "log 195336 bytes, valid=False\n",
    )
    assert workload.check(run) is not None
    crashed = _record_run(tmp_path / "op1", inp, 2, "Traceback ...")
    assert "exit 2" in workload.check(crashed)


def test_wrappers_wait_for_a_lazy_import():
    sys.modules.pop("colorsys", None)
    seen = []
    patches = Patches(Tracer())
    patches.when_imported("colorsys", seen.append)
    assert seen == []
    import colorsys

    assert seen == [colorsys]
    patches.restore()
    assert patches._after_import is None
