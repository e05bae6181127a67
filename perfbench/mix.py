"""Seeded input lists for the four workloads.

Every list is a pure function of ``(workload, seed)``. The seed picks
each input's scale inside its band and its guest seed; which programs
appear, at which worker count, how often and in which order is fixed.
A run stops after a whole number of seconds, not of passes, so a fixed
order also fixes which inputs the last partial pass covers: seeds
change the inputs but not the load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Input:
    """One program input: what ``repro record`` takes on its command line."""

    program: str
    workers: int
    scale: int
    seed: int

    def cli_args(self) -> List[str]:
        return [
            self.program,
            "--workers", str(self.workers),
            "--scale", str(self.scale),
            "--seed", str(self.seed),
        ]


#: race-free programs: (workers, scale band) for ``record-j1``. Bands are
#: set so one jobs=1 record process spends most of its wall in
#: simulation (about 0.7-1.3 s per op on a 2-CPU host) rather than in
#: interpreter start; a program's band differs because its work per
#: scale unit differs by an order of magnitude across the suite. Bands
#: are narrow (about +-5%) so that seeds change inputs, not the load.
RACE_FREE: Dict[str, Tuple[int, int, int]] = {
    "aget": (2, 240, 264),
    "apache": (2, 240, 264),
    "fft": (4, 36, 40),
    "lu": (4, 30, 34),
    "mysql": (4, 192, 208),
    "ocean": (2, 44, 48),
    "pbzip": (4, 104, 116),
    "pfscan": (2, 104, 116),
    "prodcons": (2, 344, 376),
    "prodcons-sem": (4, 192, 208),
    "radix": (2, 44, 48),
    "water": (4, 22, 26),
}

#: the ``--jobs 2`` workloads run the same programs at this fraction of
#: their ``record-j1`` band: pool spawn and the wire dominate those ops,
#: and the jobs=1 reference recordings are made during set-up
J2_SCALE_DIVISOR = 6

#: racy programs in ``record-j2-log``: (workers, scale band, copies).
#: racy-counter's divergences, and with them about two thirds of the
#: workload's simulated overhead, step with its scale, so its band is
#: one scale wide: the seed then moves only its guest seed.
RACY: Dict[str, Tuple[int, int, int, int]] = {
    "racy-counter": (4, 4, 4, 2),
    "racy-lazyinit": (4, 6, 8, 2),
}

#: race-free programs recorded into the ``replay-j2-log`` corpus
CORPUS_PROGRAMS = ("aget", "fft", "mysql", "pbzip", "radix", "water")

#: ``serve-burst`` input pool: (program, workers, scale band). With only
#: three inputs one scale step moves the pool's simulated overhead by a
#: tenth, so each band is one scale wide and the seed moves the guest
#: seeds and the order of sessions in each burst.
SERVE_POOL: Tuple[Tuple[str, int, int, int], ...] = (
    ("pbzip", 2, 20, 20),
    ("fft", 2, 10, 10),
    ("lu", 2, 10, 10),
)
#: sessions per burst; each pool input appears this many times / len(pool)
SERVE_BURST = 6


def known_defect(inp: Input) -> Optional[str]:
    """Why ``inp`` is expected to fail validation, or None.

    ``ocean`` at scale 23 or more prints ``valid=False`` at any worker
    count, even natively without recording: the validator's model and
    the guest disagree once grid cells overflow 64 bits. Such ops are
    counted as failed; the benchmark does not steer scales around it.
    """
    if inp.program == "ocean" and inp.scale >= 23:
        return "ocean validator overflows at scale >= 23"
    return None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _draw(rng: random.Random, program: str, workers: int, lo: int, hi: int) -> Input:
    return Input(program, workers, rng.randint(lo, hi), rng.randrange(1, 1_000_000))


def record_j1_inputs(seed: int) -> List[Input]:
    """Every race-free program once."""
    rng = _rng("record-j1", seed)
    return [
        _draw(rng, name, workers, lo, hi)
        for name, (workers, lo, hi) in sorted(RACE_FREE.items())
    ]


def _j2_race_free(rng: random.Random, names) -> List[Input]:
    inputs = []
    for name in names:
        workers, lo, hi = RACE_FREE[name]
        inputs.append(
            _draw(
                rng, name, workers,
                max(2, lo // J2_SCALE_DIVISOR), max(2, hi // J2_SCALE_DIVISOR),
            )
        )
    return inputs


def record_j2_inputs(seed: int) -> List[Input]:
    """Every race-free program once plus the racy copies."""
    rng = _rng("record-j2-log", seed)
    inputs = _j2_race_free(rng, sorted(RACE_FREE))
    for name, (workers, lo, hi, copies) in sorted(RACY.items()):
        inputs.extend(_draw(rng, name, workers, lo, hi) for _ in range(copies))
    return inputs


def replay_corpus_inputs(seed: int) -> List[Input]:
    """The corpus programs plus one copy of each racy program."""
    rng = _rng("replay-j2-log", seed)
    inputs = _j2_race_free(rng, CORPUS_PROGRAMS)
    for name, (workers, lo, hi, _) in sorted(RACY.items()):
        inputs.append(_draw(rng, name, workers, lo, hi))
    return inputs


def serve_pool(seed: int) -> List[Input]:
    rng = _rng("serve-burst", seed)
    return [_draw(rng, *entry) for entry in SERVE_POOL]


def serve_bursts(seed: int, pool: List[Input], count: int) -> List[List[Input]]:
    """``count`` bursts, each holding every pool input equally often."""
    rng = _rng("serve-burst-order", seed)
    copies = SERVE_BURST // len(pool)
    bursts = []
    for _ in range(count):
        burst = [inp for inp in pool for _ in range(copies)]
        rng.shuffle(burst)
        bursts.append(burst)
    return bursts


WORKLOAD_INPUTS = {
    "record-j1": record_j1_inputs,
    "record-j2-log": record_j2_inputs,
    "replay-j2-log": replay_corpus_inputs,
    "serve-burst": serve_pool,
}
