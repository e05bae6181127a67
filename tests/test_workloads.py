"""Workload construction and validation across parameters."""

import pytest

from repro.baselines import run_native
from repro.machine.config import MachineConfig
from repro.workloads import (
    WORKLOADS,
    build_workload,
    workload_names,
)


class TestRegistry:
    def test_expected_suite_registered(self):
        names = workload_names()
        for expected in (
            "pbzip", "pfscan", "aget", "apache", "mysql",
            "fft", "lu", "ocean", "radix", "water",
            "racy-counter", "racy-lazyinit",
        ):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_workload("nope")

    def test_categories(self):
        from repro.workloads import workload_names as names

        assert set(names("scientific")) == {"fft", "lu", "ocean", "radix", "water"}
        assert set(names("server")) == {"apache", "mysql"}
        assert set(names("client")) == {"pbzip", "pfscan", "aget", "prodcons", "prodcons-sem"}
        assert set(names("micro")) == {"racy-counter", "racy-lazyinit"}

    def test_racy_flags(self):
        assert WORKLOADS["racy-counter"].racy
        assert WORKLOADS["racy-lazyinit"].racy
        assert not WORKLOADS["pbzip"].racy

    def test_duplicate_registration_rejected(self):
        from repro.workloads.base import Workload, register_workload

        with pytest.raises(ValueError):
            @register_workload
            class Dup(Workload):  # noqa: N801
                name = "pbzip"

                def build(self, workers=2, scale=1, seed=0):
                    raise NotImplementedError


@pytest.mark.parametrize("scale", [23, 48])
def test_ocean_validates_when_stencil_sums_overflow(scale):
    """From scale 23 the stencil sum ``l + 2c + r`` exceeds 64 bits; the
    validator's model must wrap it before the shift, as the guest does."""
    inst = build_workload("ocean", workers=2, scale=scale, seed=0)
    result = run_native(inst.image, inst.setup, MachineConfig(cores=2))
    assert inst.validate(result.kernel)


@pytest.mark.parametrize("name", workload_names())
class TestEveryWorkload:
    def test_native_run_validates(self, name):
        inst = build_workload(name, workers=2, scale=2, seed=5)
        result = run_native(inst.image, inst.setup, MachineConfig(cores=2))
        assert inst.validate(result.kernel)

    def test_scale_increases_work(self, name):
        small = build_workload(name, workers=2, scale=1, seed=5)
        big = build_workload(name, workers=2, scale=4, seed=5)
        machine = MachineConfig(cores=2)
        small_run = run_native(small.image, small.setup, machine)
        big_run = run_native(big.image, big.setup, machine)
        assert big_run.ops > small_run.ops
        assert small.validate(small_run.kernel)
        assert big.validate(big_run.kernel)

    def test_seed_changes_inputs_not_validity(self, name):
        a = build_workload(name, workers=2, scale=2, seed=1)
        b = build_workload(name, workers=2, scale=2, seed=2)
        machine = MachineConfig(cores=2)
        run_a = run_native(a.image, a.setup, machine)
        run_b = run_native(b.image, b.setup, machine)
        assert a.validate(run_a.kernel)
        assert b.validate(run_b.kernel)

    def test_three_workers(self, name):
        inst = build_workload(name, workers=3, scale=2, seed=5)
        result = run_native(inst.image, inst.setup, MachineConfig(cores=3))
        assert inst.validate(result.kernel)
        # main + 3 workers
        assert len(result.engine.contexts) == 4

    def test_validator_rejects_corrupted_output(self, name):
        inst = build_workload(name, workers=2, scale=2, seed=5)
        result = run_native(inst.image, inst.setup, MachineConfig(cores=2))
        # corrupt the observable output and expect rejection
        kernel = result.kernel
        if kernel.output:
            kernel.output[0] += 1
            assert not inst.validate(kernel)
            kernel.output[0] -= 1
        else:
            kernel.output.append(12345)
            assert not inst.validate(kernel)


class TestWorkloadDetails:
    def test_pbzip_records_cover_all_blocks(self):
        inst = build_workload("pbzip", workers=2, scale=2, seed=9)
        result = run_native(inst.image, inst.setup, MachineConfig(cores=2))
        out = result.kernel.fs.file_contents(1)
        block_ids = sorted(out[0::2])
        assert block_ids == list(range(inst.expected["blocks"]))

    def test_pfscan_count_matches_python(self, ):
        inst = build_workload("pfscan", workers=2, scale=2, seed=9)
        result = run_native(inst.image, inst.setup, MachineConfig(cores=2))
        assert result.output == [inst.expected["matches"]]

    def test_aget_reassembles_in_order(self):
        inst = build_workload("aget", workers=3, scale=2, seed=9)
        result = run_native(inst.image, inst.setup, MachineConfig(cores=3))
        out = result.kernel.fs.file_contents(2)
        assert len(out) == inst.expected["total_words"]

    def test_apache_every_request_answered(self):
        inst = build_workload("apache", workers=2, scale=2, seed=9)
        result = run_native(inst.image, inst.setup, MachineConfig(cores=2))
        conversations = result.kernel.net.all_conversations()
        assert len(conversations) == inst.expected["requests"]
        assert all(len(resp) == 1 for _, resp in conversations.values())

    def test_mysql_conserves_total_balance(self):
        inst = build_workload("mysql", workers=2, scale=2, seed=9)
        result = run_native(inst.image, inst.setup, MachineConfig(cores=2))
        balances_base = inst.image.address_of("balances")
        total = sum(
            result.engine.mem.read(balances_base + index)
            for index in range(inst.expected["accounts"])
        )
        assert total == inst.expected["balance_sum"]

    def test_radix_actually_sorts(self):
        inst = build_workload("radix", workers=2, scale=1, seed=9)
        result = run_native(inst.image, inst.setup, MachineConfig(cores=2))
        final_symbol = "keysB"  # 3 passes -> odd -> B
        base = inst.image.address_of(final_symbol)
        keys = [
            result.engine.mem.read(base + index)
            for index in range(inst.expected["keys"])
        ]
        assert keys == sorted(keys)

    def test_racy_counter_loses_updates_sometimes(self):
        """Across seeds/configs, at least one run must actually lose an
        update (otherwise the workload is not exercising its race)."""
        lost = False
        for seed in range(4):
            inst = build_workload("racy-counter", workers=4, scale=2, seed=seed)
            result = run_native(inst.image, inst.setup, MachineConfig(cores=4))
            if result.output[0] < inst.expected["increments"]:
                lost = True
        assert lost
