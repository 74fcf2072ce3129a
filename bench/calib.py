"""Machine-speed calibration for a shared, drifting host.

On a shared host the speed at which Python runs drifts by tens of percent
over seconds to minutes.  The benchmark runs `calibrate()`, a fixed
pure-Python loop using only the standard library, before every task and scales
its timing metrics by `factor()`: the median calibration time of the run over
CAL_REF_S, the calibration time on the reference machine (2-core x86-64 VM,
Python 3.11).  Timings are so reported in reference-machine units: a slower
library reads slower, a busier host does not.  The raw values and the factor
are printed beside them.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

CAL_REF_S = 0.003
# One sample is ~3 ms and noisy (cv ~20% on a busy host); a run takes this
# many, spread evenly before its tasks, so their median is good to ~2%.
SAMPLES_PER_RUN = 400


def calibrate() -> float:
    """Seconds one pass of a fixed loop of Fraction, list and int operations takes."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 200):
        acc += Fraction(i, i + 3)
        table[i] = [i] * 3
    s = 0
    for i in range(30000):
        s += i * i
    return time.perf_counter() - t0


def factor(samples: list) -> float:
    """How much slower than the reference machine the host ran while sampled."""
    return statistics.median(samples) / CAL_REF_S
