"""A frozen reference kernel that measures how fast the host is right now.

On a shared host the speed of pure-Python exact arithmetic changes by up to
twofold over seconds to minutes, so raw times of two runs a few minutes
apart are not comparable.  The benchmark times this kernel between
operations and scales each time by REFERENCE_S over the kernel's median
time in the same run (a pass's times by that ratio to PASS_EXPONENT):
seconds on a host that runs one slice of the kernel in REFERENCE_S.

The kernel stands for the program's own kind of work: Gauss-Jordan
elimination and a product over `Fraction`, on a sparse matrix of small
integers like the differentials of a weight row.  It uses only the standard
library and must never change, or every scaled figure shifts with it.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0125
# When the host slows down, a pass of either workload slows about as the
# square root of the kernel's slowdown; scaling by the full ratio made slow
# spells read fast.  Ten seeds per workload spread least with this exponent
# (perfbench/NOTES.md).  A set-up, scaled by the slices next to it, tracks
# the kernel one to one.
PASS_EXPONENT = 0.5
NROWS, NCOLS = 16, 22

_rng = random.Random(12345)
_MATRIX = [
    [_rng.choice((-2, -1, 1, 2, 3)) if _rng.random() < 0.15 else 0 for _ in range(NCOLS)]
    for _ in range(NROWS)
]


def reference_slice() -> float:
    """Run the kernel once; return its duration in seconds."""
    start = perf_counter()
    rows = [[Fraction(x) for x in row] for row in _MATRIX]
    r = 0
    for c in range(NCOLS):
        pivot = next((i for i in range(r, NROWS) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(NROWS):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == NROWS:
            break
    columns = list(zip(*rows))[:12]
    [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in columns] for row in rows]
    return perf_counter() - start


class HostSpeed:
    """Reference slices timed during one run."""

    # Share of the bracketed busy time spent on reference slices.
    SHARE = 0.1

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, busy: float) -> float:
        """Run slices for SHARE of `busy` seconds, at least one; return the
        seconds spent."""
        spent = 0.0
        while not spent or spent < self.SHARE * busy:
            self.samples.append(reference_slice())
            spent += self.samples[-1]
        return spent

    def scale(self, since: int = 0) -> float:
        """Factor that turns seconds measured in this run into seconds on
        the reference host, from the slices from index `since` on."""
        return REFERENCE_S / statistics.median(self.samples[since:])
