"""The fixed reference kernel that defines the benchmark's time unit, `ref`.

Host speed on a shared machine drifts independently of the program: a fixed
pure-Python loop's 10 s window medians ranged from 37.9 to 55.7 ms over
150 s.  Each operation's time is therefore divided by the time of this
kernel, run right before that operation.  The kernel
mixes the two kinds of work the program does, Python-scalar integer
arithmetic and bulk numpy array passes, in roughly equal shares.

It imports nothing from cfspectra and must never change: a change to it
rescales every `ref` figure.
"""

import numpy as np

_DATA = np.random.default_rng(20091).integers(0, 1 << 30, size=200_000, dtype=np.int64)


def reference_kernel() -> int:
    """About 12 ms of fixed work; returns a value so nothing is skipped."""
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
    ordered = np.sort(_DATA)
    counts = np.bincount(ordered & 0xFFFF, minlength=1 << 16)
    return acc + int(counts.argmax())
