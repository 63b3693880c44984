"""How fast the host is running this process, step by step.

The host this benchmark runs on is shared: the pinned CPU runs the
same code 30–50 % slower in some stretches than in others, stretches
that last from seconds to several minutes and move every timing of a
run at once.  Nothing inside a run averages out a stretch that covers
the whole run, so the flows' end-to-end times and rates are scaled by
the host's speed, measured right beside each step:

* :func:`reference_ms` times a fixed pure-Python routine that calls
  nothing of the program's (dict and list work, string formatting,
  integer arithmetic);
* the benchmark runs it before and after every measured step, and the
  step's *host factor* is the mean of the two over
  :data:`REFERENCE_MS`: above 1 the host ran slow, below 1 fast;
* a flow divides each step's times by that step's factor (and
  multiplies its rates), so its end-to-end metrics read as on a host
  where the reference routine takes :data:`REFERENCE_MS`.

A change to the program moves its steps but not the reference, so it
shows in the scaled metrics as it would in wall time; a change of host
speed moves both, and mostly cancels.  Every run also prints the
unscaled values and the host factors it applied.
"""

import time

#: Nominal time of :func:`reference_ms`: the scaled metrics read as on
#: a host where the routine takes this long.
REFERENCE_MS = 1.0
#: The routine runs this many times per measurement; the fastest
#: counts, so an interrupt landing in one repeat does not count.
REPEATS = 3


def _routine():
    table = {}
    for i in range(1_000):
        key = i % 97
        table[key] = table.get(key, 0) + len(f"{i:x}")
    ordered = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    total = 0
    for i in range(6_000):
        total += i * 3 % 7
    return total + len(ordered)


def reference_ms():
    """Time of the fixed routine, fastest of :data:`REPEATS` (ms)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _routine()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def factor(before_ms, after_ms):
    """Host factor of a step between two :func:`reference_ms`."""
    return (before_ms + after_ms) / 2 / REFERENCE_MS


def scale_of(scales, step):
    """Step `step`'s host factor, 1 when the run is unscaled."""
    return 1.0 if scales is None else scales[step]
