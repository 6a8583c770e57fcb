"""CPU-time measurement scaled by a calibration loop.

The end-to-end timings are CPU seconds of this process and its waited-for
children, so time the host spends running other guests (steal) is not
counted.  CPU seconds still stretch when another tenant shares the physical
core: on a 2-vCPU Xeon guest, back-to-back runs of the same 10k-slot
``sim.run`` took between 9 and 18 us of CPU per slot, in phases lasting
5 to 30 s.  So every timed operation is bracketed by a fixed calibration
loop that does not touch ``lfbp`` (a small backpressure-like loop over lists,
tuples and dicts, a walk over a large dict, and ``Fraction`` arithmetic), and its
CPU time is scaled by ``(NOMINAL_CAL_S / calibration time) ** ELASTICITY``.
A scaled second is a second on a host where the loop takes
``NOMINAL_CAL_S``.  Both the scaled and the raw figures are reported.
"""
from __future__ import annotations

import random
import resource
from dataclasses import dataclass
from fractions import Fraction

# CPU seconds the calibration loop takes on a quiet Intel Xeon vCPU
# (Python 3.11).  It only sets the scale of the reported figures.
NOMINAL_CAL_S = 0.020

# How strongly the measured code's CPU time follows the loop's: the slope of
# log(operation time) on log(loop time) over 80 to 180 back-to-back pairs.
# Measured on the reference host at different times, it was 0.56 to 0.83 for
# sim.run and 0.87 to 0.95 for er_batch and lex_min_overload.  One value in
# between keeps either kind from being over- or under-corrected by much when
# the host is busy.
ELASTICITY = 0.8

_TABLE = {i: (i, i + 1, (i, i)) for i in range(20_000)}


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _calibration_loop() -> int:
    rng = random.Random(5)
    queues = [[rng.randrange(100) for _ in range(16)] for _ in range(3)]
    edges = [(i % 16, (i * 5 + 1) % 16) for i in range(24)]
    moved = 0
    for _ in range(150):
        snaps = [q.copy() for q in queues]
        plans: dict[int, list] = {}
        for a, b in edges:
            best, pick = 0, None
            for y in range(3):
                d = snaps[y][a] - snaps[y][b]
                if d > best:
                    best, pick = d, (y, a, b)
                d = -d
                if d > best:
                    best, pick = d, (y, b, a)
            if pick is not None:
                plans.setdefault(pick[1], []).append((-best, pick[2], pick[0]))
        for u in sorted(plans):
            for _negd, v, y in sorted(plans[u]):
                if queues[y][u] > 0:
                    queues[y][u] -= 1
                    queues[y][v] += 1
                    moved += 1
        queues[0][0] += 3
    for _ in range(8000):
        moved += _TABLE[rng.randrange(20_000)][2][1] & 1
    acc, x = Fraction(0), Fraction(3, 7)
    for i in range(1, 700):
        acc = acc + x / i - Fraction(1, i + 1)
        if acc.denominator > 10**12:
            acc = Fraction(int(acc))
    return moved + int(acc)


def calibration_seconds() -> float:
    t0 = cpu_seconds()
    _calibration_loop()
    return cpu_seconds() - t0


@dataclass(frozen=True)
class Timing:
    raw_s: float  # CPU seconds
    scaled_s: float  # CPU seconds scaled to the nominal calibration speed


def scaled(raw_s: float, cal_before: float, cal_after: float) -> float:
    """``raw_s`` scaled to a host where the calibration loop takes
    ``NOMINAL_CAL_S``, given the loop times measured around it."""
    return raw_s * (NOMINAL_CAL_S * 2 / (cal_before + cal_after)) ** ELASTICITY


def timed(fn, *args, **kwargs):
    """Run ``fn`` between two calibration loops; return (result, Timing)."""
    before = calibration_seconds()
    t0 = cpu_seconds()
    result = fn(*args, **kwargs)
    raw = cpu_seconds() - t0
    after = calibration_seconds()
    return result, Timing(raw, scaled(raw, before, after))
