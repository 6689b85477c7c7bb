"""Probe pair counts through the cut-and-stack recursion against the level pass.

weak_limit_probe counts the level pairs of the depth-n tower from the
structure of its stages: pairs inside a column come from the depth-(n-1)
tables, pairs across a column boundary from the words at the column ends,
and the step h_(n-1) from the depth-(n-1) tables over the gaps.  No tower
deeper than the cylinder level is listed unless a lag reaches its column
height.  Every raw table it counts must equal `level_pass_counts`, one
bucket count over all levels of a full-depth TowerModel.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfspectra.cf_builder import DeltaBlock
from cfspectra.cocycle_engine import MODE_DIRECT, MODE_PRODUCT, Tower, TowerModel
from cfspectra.koopman_lab import _raw_pair_counts
from cfspectra.session import SessionConfig, synth
from test_probe_tables import PROBED, level_pass_counts

TABLE_LIMIT = 10**6  # raw tables larger than this are not compared with a module part


def assert_counts_equal(session, n, n0):
    schedule = session.schedule
    args = (schedule, n, session.maps[:n], session.ctx)
    model = TowerModel(*args, cap=schedule.height(n))
    tower = Tower(*args, cap=schedule.height(n))
    entries = (schedule.height(n0) * session.k_order) ** 2
    for step in (schedule.height(n - 1), 1):
        for module in (False, True):
            if module and entries * session.ctx.module.size > TABLE_LIMIT:
                continue
            got = _raw_pair_counts(tower, step, n0, module)
            want = level_pass_counts(model, step, n0, module)
            assert np.array_equal(got, want), (n, n0, step, module)


# (mode, targets): kappa 2 and 3 in direct mode, and delayed stages in
# product mode; labels cycle translate, (delayed,) rotate, and the first
# rotate target is 0, so a rotate stage acts from stage 4 (direct) or 6
# (product) on
ALGEBRAS = [(MODE_DIRECT, (1, 2)), (MODE_DIRECT, (1, 3)),
            (MODE_PRODUCT, (1, 2)), (MODE_PRODUCT, (2,))]


@st.composite
def schedules(draw):
    mode, targets = draw(st.sampled_from(ALGEBRAS))
    deltas = draw(st.lists(st.sampled_from([Fraction(3, 4), Fraction(1, 2), Fraction(1, 3),
                                            Fraction(1, 5)]),
                           min_size=1, max_size=2, unique=True))
    blocks = tuple(DeltaBlock(delta, len(r_seq), r_seq=r_seq) for delta, r_seq in zip(
        sorted(deltas, reverse=True),
        draw(st.lists(st.lists(st.integers(2, 6), min_size=1, max_size=3),
                      min_size=len(deltas), max_size=len(deltas)))))
    cylinder_level = draw(st.sampled_from([1, 2]))
    stages = sum(b.stages for b in blocks)
    return mode, targets, blocks, min(cylinder_level, stages)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(schedules())
# an acting rotate stage of kappa 3, then a translate stage under it
@example((MODE_DIRECT, (1, 3), (DeltaBlock(Fraction(1, 2), 5, r_seq=(3, 4, 3, 5, 4)),), 1))
# delayed stages above an acting rotate stage, at cylinder level 2
@example((MODE_PRODUCT, (1, 2), (DeltaBlock(Fraction(1, 2), 5, r_seq=(3, 3, 3, 4, 6)),
                                 DeltaBlock(Fraction(1, 3), 2, r_seq=(2, 5))), 2))
def test_counts_equal_level_pass_on_random_schedules(drawn):
    mode, targets, blocks, n0 = drawn
    session = synth(SessionConfig(mode=mode, targets=targets, blocks=blocks,
                                  cylinder_level=n0))
    for n in range(n0, session.schedule.depth + 1):
        assert_counts_equal(session, n, n0)


@pytest.mark.parametrize("name, depth", PROBED, ids=[f"{n}-{d}" for n, d in PROBED])
def test_counts_equal_level_pass_on_probe_fixtures(request, name, depth):
    assert_counts_equal(request.getfixturevalue(name), depth, 1)
