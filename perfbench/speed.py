"""The machine-speed reference that the benchmark's timings are scaled by.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes, and CPU time drifts with it, so neither wall
nor CPU time of a command repeats from one set of runs to the next.  A fixed
piece of pure-Python exact arithmetic (``Fraction`` sums whose denominators
grow, the kind of work depthforge does) is timed right before and right after
each measured command or pass.  The measured time is then scaled to what it
would be at the speed at which the reference takes ``NOMINAL_S``:

    scaled = seconds * NOMINAL_S / mean(reference before, reference after)

The reference lives here, not in the program, so a change to the program
cannot move it.  ``NOMINAL_S`` is the reference's median on the machine
described in README.md, so scaled times read close to that machine's seconds.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.030
TERMS = 3000


def reference() -> float:
    """Wall seconds of the fixed reference work."""
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, TERMS):
        acc += Fraction(i, i + 7) * Fraction(3, 5)
        seen[i % 97] = acc
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference timings, at nominal speed."""
    return seconds * NOMINAL_S / ((before + after) / 2)
