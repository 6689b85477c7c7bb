#!/usr/bin/env python3
"""Cut-and-stack schedules: the one cut rule, its three kinds, and schedule validation."""

from fractions import Fraction

from cfspectra import (
    DeltaBlock,
    concat_delta_blocks,
    cut_stage,
    validate,
)

# A cut set lists the base offset of each column in the next tower: a rigid
# run, an offset run (delayed kind only), then a staircase run.
print("rigid+staircase, h=5, 2 rigid of 4:", cut_stage("rigid_staircase", 5, 2, 4).cuts)
print("delayed variant, h=5, i=2, r=6:   ", cut_stage("delayed_staircase", 5, 2, 6).cuts)
print("pure staircase, h=3, r=4:         ", cut_stage("staircase", 3, 0, 4).cuts)

# Chaining blocks of decreasing rigidity fraction: heights continue across
# the seams and the column count restarts low in each block.
schedule = concat_delta_blocks([
    DeltaBlock(Fraction(1, 2), 3),
    DeltaBlock(Fraction(1, 4), 3),
    DeltaBlock(Fraction(1, 8), 3),
])
print("\nheights:", schedule.heights())
print("columns per stage:", [st.r_count for st in schedule.stages])
print("rigid columns per stage:", [st.i_count for st in schedule.stages])

report = validate(schedule)
print("\nvalidation ok:", report.ok)
print("mass ratios:", [str(r) for r in report.ratios])
print("spacer fraction:", report.spacer_fraction, "=", float(report.spacer_fraction))
print("staircase mixing quantities i^2/h:", [str(q) for q in report.mixing_ratios])
