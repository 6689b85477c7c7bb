"""Decay shift counts through the cut-and-stack recursion against a bitset.

correlation_decay counts |O & (O - s)| for O the starts of the depth-n0
copies from the differences of the stage cuts, and never lists O.  Every
count must equal `bitset_autocorrelation`, an AND and a popcount over an
h-bit indicator of the listed O, and every row the rolled masks of
`rolled_decay`, on random schedules that mix all three stage kinds.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfspectra.cf_builder import (
    KIND_DELAYED_STAIRCASE,
    KIND_RIGID_STAIRCASE,
    KIND_STAIRCASE,
    build_schedule,
)
from cfspectra.cocycle_engine import Tower, TowerModel
from cfspectra.koopman_lab import _shift_counts, correlation_decay
from test_koopman_lab import rolled_decay


def bitset_autocorrelation(levels: np.ndarray, h: int):
    """s -> #{x in O : (x - s) mod h in O} for a set O of levels, memoised per shift.

    The indicator of O is packed into uint64 words (little-endian bit
    order), and so is a doubled copy of it, which serves the cyclic wrap:
    shift s reads the doubled copy from bit t = -s mod h on, as a word offset
    and a bit offset, so a count is an AND and a popcount per word.
    """
    n_words = -(-h // 64)

    def pack(positions, n):
        bits = np.zeros(64 * n, dtype=bool)
        bits[positions] = True
        return np.packbits(bits, bitorder="little").view("<u8")

    words = pack(levels, n_words)  # the bits past h are zero
    doubled = pack(np.concatenate([levels, levels + h]), 2 * n_words + 1)
    counts = {}

    def count(s: int) -> int:
        t = -s % h
        if t not in counts:
            q, r = divmod(t, 64)
            shifted = doubled[q:q + n_words] >> r
            if r:
                shifted |= doubled[q + 1:q + 1 + n_words] << (64 - r)
            shifted &= words
            counts[t] = int(np.bitwise_count(shifted).sum())
        return counts[t]

    return count


class ListedTower(Tower):
    """A Tower that lists its cylinder ids, as rolled_decay reads them."""

    cylinder_ids = TowerModel.cylinder_ids


KINDS = (KIND_RIGID_STAIRCASE, KIND_DELAYED_STAIRCASE, KIND_STAIRCASE)


@st.composite
def stage_specs(draw):
    kind = draw(st.sampled_from(KINDS))
    r = draw(st.integers(2, 6))
    i = draw(st.integers(1, r // 2 if kind == KIND_DELAYED_STAIRCASE else r))
    return {"kind": kind, "r": r, "i": i}


@st.composite
def decay_cases(draw):
    """(initial height, stage specs, n0, shifts, lags, pairs)."""
    h0 = draw(st.integers(1, 3))
    specs = draw(st.lists(stage_specs(), min_size=1, max_size=4))
    n0 = draw(st.integers(0, len(specs)))
    schedule = build_schedule(h0, specs)
    h, n_cyl = schedule.height(len(specs)), schedule.height(n0)
    shifts = draw(st.lists(st.integers(-n_cyl + 1, h + n_cyl - 1), min_size=1, max_size=6))
    lags = [0, h - 1] + draw(st.lists(st.integers(0, h - 1), max_size=3))
    cylinder = st.integers(0, n_cyl - 1)
    pairs = draw(st.lists(st.tuples(cylinder, cylinder), min_size=1, max_size=4))
    return h0, specs, n0, shifts, lags, pairs


STAIRCASE, RIGID, DELAYED = ({"kind": k, "r": r, "i": i} for k, r, i in (
    (KIND_STAIRCASE, 4, 1), (KIND_RIGID_STAIRCASE, 5, 2), (KIND_DELAYED_STAIRCASE, 6, 2)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=decay_cases())
# n0 = depth, where O = {0}: every shift is a wrap or a miss
@example(case=(2, [RIGID, DELAYED], 2, [-80, 0, 1, 80, 81, 160], [0, 40, 80],
               [(0, 80), (80, 0), (5, 5)]))
# n0 = depth - 1: the top stage alone, over O = {0} below it
@example(case=(1, [STAIRCASE, RIGID, DELAYED], 2, [-37, 0, 37, 38, 231, 268],
               [0, 5, 230], [(0, 37), (37, 0), (3, 9)]))
# all three kinds below the top, with lag 0 at f < g and lag h - 1 at f > g
@example(case=(3, [DELAYED, STAIRCASE, RIGID, DELAYED], 1, [-20, -1, 0, 1, 2630, 2650],
               [0, 1, 2630], [(0, 20), (20, 0), (2, 11)]))
def test_decay_counts_equal_bitset_on_random_schedules(case):
    h0, specs, n0, shifts, lags, pairs = case
    schedule = build_schedule(h0, specs)
    depth = len(specs)
    h = schedule.height(depth)
    tower = ListedTower(schedule, depth, (), None, cap=h)
    oracle = bitset_autocorrelation(tower.cylinder_starts(n0), h)
    got = _shift_counts(tower, n0, np.array(shifts, dtype=np.int64) % h)
    assert got.tolist() == [oracle(s) for s in shifts], (shifts, n0)
    rows = correlation_decay(tower, pairs, lags, n0)
    assert [(r.lag, r.pair, r.value.numerator, r.value.denominator) for r in rows] \
        == rolled_decay(tower, pairs, lags, n0)
