"""Machine-speed calibration for the benchmark's times.

The benchmark shares its machine with other work, and the speed at which one
core runs Python changes by up to 1.6x from one second to the next.  So every
timed stretch is bracketed by runs of a fixed pure-Python loop, and its wall
time is scaled by REFERENCE_S over the loop's mean time around it: the result
is the time the stretch would have taken at the speed at which the loop takes
REFERENCE_S.  A change to revflow moves the stretch and not the loop.
"""

import time

# The loop's best time on an unloaded 2-core x86-64 VM with Python 3.11.7.
REFERENCE_S = 0.0025


def _loop() -> int:
    """Allocation, hashing, big-integer bit operations and string splitting:
    the kinds of work revflow's layers do."""
    items = [frozenset((i, i >> 1, i >> 2)) for i in range(4000)]
    index = {s: i for i, s in enumerate(items)}
    plane = (1 << 16384) - 1
    acc = 0
    for s in items[::16]:
        acc ^= (plane >> (index[s] & 1023)) & plane
    words = " ".join(map(str, range(1000))).split()
    return acc.bit_length() + len(words)


def loop_time() -> float:
    """Best of three runs of the calibration loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall seconds measured between two loop times, at reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)
