"""ocean: iterative stencil relaxation with boundary sharing.

Simplified from the 2-D grid to a 1-D ring — the property DoublePlay (and
the CREW baseline) care about is that each iteration reads the neighbour
cells at partition boundaries, written by other threads in the previous
iteration. Double buffering plus a barrier per iteration keeps it
race-free, exactly like the original's red-black phases.
"""

from __future__ import annotations

from repro.isa.assembler import Assembler
from repro.memory.layout import wrap_word
from repro.oskernel.kernel import Kernel, KernelSetup
from repro.oskernel.syscalls import SyscallKind
from repro.workloads.base import (
    Workload,
    WorkloadInstance,
    fork_join_main,
    register_workload,
)


def _model(cells, iterations):
    current = list(cells)
    n = len(current)
    for _ in range(iterations):
        current = [
            # The guest wraps the stencil sum to 64 bits before ``shri``.
            wrap_word(current[(i - 1) % n] + current[i] * 2 + current[(i + 1) % n])
            >> 1
            for i in range(n)
        ]
    return current


def _checksum(words) -> int:
    value = 0
    for word in words:
        value = wrap_word(value * 31 + word)
    return value


@register_workload
class OceanWorkload(Workload):
    """Ring stencil relaxation."""

    name = "ocean"
    category = "scientific"

    def build(self, workers: int = 2, scale: int = 1, seed: int = 0) -> WorkloadInstance:
        rng = self.rng(seed)
        n = 24 * workers
        iterations = 2 * max(scale, 1) + 2  # even: result lands in grid A
        chunk = n // workers
        cost = 3 * chunk
        cells = [rng.randint(0, 1 << 24) for _ in range(n)]

        asm = Assembler(name="ocean")
        asm.page_aligned_array("gridA", n, values=cells)
        asm.page_aligned_array("gridB", n)
        asm.word("barrier", 0)

        with asm.function("worker"):
            asm.muli("r2", "r0", chunk)     # lo
            asm.addi("r3", "r2", chunk)     # hi
            asm.li("r4", "gridA")           # src
            asm.li("r5", "gridB")           # dst
            for it in range(iterations):
                asm.mov("r6", "r2")
                asm.label(f"cell{it}")
                # left, centre, right with ring wraparound
                asm.addi("r7", "r6", n - 1)
                asm.li("r8", n)
                asm.mod("r7", "r7", "r8")
                asm.add("r9", "r4", "r7")
                asm.load("r10", "r9", 0)        # left
                asm.add("r9", "r4", "r6")
                asm.load("r11", "r9", 0)        # centre
                asm.addi("r7", "r6", 1)
                asm.mod("r7", "r7", "r8")
                asm.add("r9", "r4", "r7")
                asm.load("r12", "r9", 0)        # right
                asm.muli("r11", "r11", 2)
                asm.add("r10", "r10", "r11")
                asm.add("r10", "r10", "r12")
                asm.shri("r10", "r10", 1)
                asm.add("r9", "r5", "r6")
                asm.store("r10", "r9", 0)
                asm.addi("r6", "r6", 1)
                asm.blt("r6", "r3", f"cell{it}")
                asm.work(cost)
                asm.mov("r13", "r4")
                asm.mov("r4", "r5")
                asm.mov("r5", "r13")
                asm.li("r14", "barrier")
                asm.li("r15", workers)
                asm.barrier("r14", "r15")
            asm.exit_()

        def epilogue(a: Assembler) -> None:
            a.li("r2", 0)
            a.li("r3", 0)
            a.label("cks")
            a.li("r4", "gridA")
            a.add("r4", "r4", "r3")
            a.load("r5", "r4", 0)
            a.muli("r6", "r2", 31)
            a.add("r2", "r6", "r5")
            a.addi("r3", "r3", 1)
            a.blti("r3", n, "cks")
            a.syscall("r7", SyscallKind.PRINT, args=["r2"])

        fork_join_main(asm, workers, epilogue=epilogue)
        image = asm.assemble()

        expected = _checksum(_model(cells, iterations))

        def validate(kernel: Kernel) -> bool:
            return kernel.output == [expected]

        return WorkloadInstance(
            name=self.name,
            image=image,
            setup=KernelSetup(),
            workers=workers,
            racy=False,
            validate=validate,
            expected={"cells": n, "iterations": iterations},
        )
