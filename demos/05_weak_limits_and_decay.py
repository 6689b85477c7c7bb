#!/usr/bin/env python3
"""Weak-limit probes and correlation decay, exactly evaluated.

On a translate-labelled stage the power of the tower map at the stage
height looks like (rigidity) * identity + (rest) * mean projection, and on
a twisted component like (rigidity) * orbit-average * identity.  The probe
compares exact inner-product tables against those predictions; the budget
is 3 over the stage's column count.
"""

import time
from fractions import Fraction

from cfspectra import DeltaBlock, SessionConfig, correlation_decay, synth, weak_limit_probe
from cfspectra.koopman_lab import sample_lags

session = synth(SessionConfig(
    mode="direct", targets=(1, 2),
    blocks=(DeltaBlock(Fraction(1, 2), 4, r_seq=(8, 8, 64, 64)),),
))

for stage, component in [(3, ("eta", 0)), (3, ("chi", (0, 1))), (4, ("eta", 1))]:
    rep = weak_limit_probe(session, stage, component)
    print(f"stage {stage} {component}: prediction '{rep.prediction_kind}', "
          f"max deviation {rep.max_deviation:.5f} vs budget {rep.tolerance:.5f} "
          f"-> {'ok' if rep.passed else 'EXCEEDED'}")

# Correlation decay on a pure staircase tower: late lags decorrelate.
staircase = synth(SessionConfig(
    mode="direct", targets=(1,), shape="staircase",
    r_seq=(2, 2, 3, 3, 4, 4, 5, 5, 6, 6),
))
tower = staircase.tower_at()  # its stages and cuts; no level is listed
heights = staircase.schedule.heights()
pairs = [(f, g) for f in range(heights[1]) for g in range(heights[1])]
t0 = time.monotonic()
for n in (1, 5, 9):
    lags = sample_lags(heights[n], 2 * heights[n], count=12)
    rows = correlation_decay(tower, pairs, lags)
    worst = max(float(r.value) for r in rows)
    print(f"lag window [h_{n}, 2 h_{n}] = [{heights[n]}, {2 * heights[n]}]: "
          f"max |corr - product| = {worst:.5f}")
print(f"({time.monotonic() - t0:.2f}s on a {tower.height}-level tower; "
      "every value is an exact fraction)")
