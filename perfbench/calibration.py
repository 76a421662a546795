"""Host-speed calibration for the benchmark's timings.

A shared host runs the same pure-Python code up to twice as fast or slow
from one second to the next, and the mix drifts over minutes. The harness
therefore runs short slices of a fixed kernel inside each command it times
(see ``sampled.py``) and scales the command's times by how fast the kernel
ran there. The kernel lives here, not in the program, so a change to the
program cannot move it: it does dictionary-keyed products of small
Grassmann-like numbers, with float arithmetic and method calls, much like
the program's own inner loops.

``REFERENCE_ROUND_S`` is about the time of one round of the kernel on a
2-vCPU Xeon at 2.1 GHz under CPython 3.11 with quiet neighbours: 320 rounds
take 0.02 s there.  The program swings less than the kernel: on that host,
the log of a command's time against the log of the kernel's slowdown around
it has a fitted slope of 0.7 to 0.9, and ``SENSITIVITY`` is a slope in that
range.  A calibrated time is ``measured / slowdown ** SENSITIVITY``, with
the slowdown the mean round time over ``REFERENCE_ROUND_S``.
"""

from __future__ import annotations

import math
import time

REFERENCE_ROUND_S = 0.02 / 320
SENSITIVITY = 0.75


def _sign(a: int, b: int) -> float:
    """Sign of reordering generators ``a`` then ``b`` into ascending order."""
    swaps = 0
    while b:
        low = b & -b
        swaps += bin(a >> low.bit_length()).count("1")
        b ^= low
    return -1.0 if swaps & 1 else 1.0


class _Number:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, float]):
        self.terms = terms

    def __mul__(self, other: "_Number") -> "_Number":
        out: dict[int, float] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma & mb:
                    continue
                m = ma | mb
                out[m] = out.get(m, 0.0) + ca * cb * _sign(ma, mb)
        return _Number({m: v for m, v in out.items() if v != 0.0})

    def __add__(self, other: "_Number") -> "_Number":
        out = dict(self.terms)
        for m, v in other.terms.items():
            out[m] = out.get(m, 0.0) + v
        return _Number(out)


def kernel(rounds: int) -> float:
    a = _Number({0: 1.5, 3: 0.25, 5: -0.5, 6: 0.125})
    b = _Number({0: 0.75, 9: 0.5, 10: -0.25, 12: 0.0625})
    acc = 0.0
    for r in range(rounds):
        c = a * b + b * a
        d = c * c + a
        acc += math.sin(d.terms.get(0, 0.0) + r) + len(d.terms)
    return acc


class Calibration:
    """Kernel slices run during a timed command, and the speed they show."""

    def __init__(self, slices: int = 0, rounds: int = 0, seconds: float = 0.0):
        self.slices = slices
        self.rounds = rounds
        self.seconds = seconds

    def sample(self, rounds: int) -> None:
        """Run and time one slice of ``rounds`` rounds."""
        t0 = time.perf_counter()
        kernel(rounds)
        self.seconds += time.perf_counter() - t0
        self.slices += 1
        self.rounds += rounds

    def add(self, other: "Calibration") -> None:
        self.slices += other.slices
        self.rounds += other.rounds
        self.seconds += other.seconds

    @property
    def slowdown(self) -> float:
        """Mean round time over the reference one; above 1 on a slow host."""
        if self.rounds == 0:
            return 1.0
        return self.seconds / self.rounds / REFERENCE_ROUND_S


def scale(seconds: float, slowdown: float) -> float:
    """A time measured at ``slowdown``, in seconds of the reference host."""
    return seconds / slowdown ** SENSITIVITY
