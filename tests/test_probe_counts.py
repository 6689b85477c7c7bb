"""Probe pair counts through the cut-and-stack recursion against the level pass.

weak_limit_probe counts the level pairs of the depth-n tower from the
structure of its stages: pairs inside a column come from the depth-(n-1)
tables, pairs across a column boundary from the words at the column ends,
and the step h_(n-1) from the depth-(n-1) tables over the gaps.  No tower
deeper than the cylinder level is listed unless a lag reaches its column
height.  Every raw table it counts must equal `level_pass_counts`, one
bucket count over all levels of a full-depth TowerModel, and its sparse
fold the nonzero entries of the dense fold of that table.  A table with a
module part at the step h_(n-1) of a stage whose columns differ in their
group exponent is refused, not counted.  The probe tables, contracted per
nonzero bucket, must equal the dense contraction of the level pass bit for
bit, and an eta table read from a counter with the module part the one
read from a counter without it.
"""

from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfspectra.cf_builder import DeltaBlock
from cfspectra.cocycle_engine import MODE_DIRECT, MODE_PRODUCT, Tower, TowerModel
from cfspectra.errors import ParameterError
from cfspectra.koopman_lab import _chi_values, _eta_values, _merged, _PairCounter
from cfspectra.session import SessionConfig, synth
from test_probe_tables import (
    PROBED,
    folded_counts,
    level_pass_counts,
    oracle_chi_values,
    oracle_eta_values,
)

TABLE_LIMIT = 10**6  # raw tables larger than this are not compared with a module part


def raw_counts(counter, steps):
    """The counter's raw table at `steps`, its keys merged, as a dense array."""
    key, count = _merged([counter.raw(steps)])
    raw = np.zeros(prod(counter.shape), dtype=np.int64)
    raw[key] = count
    return raw.reshape(counter.shape)


def depth_n(session, n):
    schedule = session.schedule
    args = (schedule, n, session.maps[:n], session.ctx)
    return TowerModel(*args, cap=schedule.height(n)), Tower(*args, cap=schedule.height(n))


def module_fits(session, n0):
    """Whether the raw table with a module part is small enough to compare."""
    entries = (session.schedule.height(n0) * session.k_order) ** 2
    return entries * session.ctx.module.size <= TABLE_LIMIT


def refused(session, n, n0, step, module):
    """Whether the counter refuses this table: one with a module part at the
    column step of a stage whose columns differ in their group exponent."""
    return (module and n > n0 and step == session.schedule.height(n - 1)
            and len(set(session.maps[n - 1].beta)) > 1)


def assert_counts_equal(session, n, n0):
    model, tower = depth_n(session, n)
    for step in (session.schedule.height(n - 1), 1):
        for module in (False, True):
            if module and not module_fits(session, n0):
                continue
            counter = _PairCounter(tower, n0, module)
            if refused(session, n, n0, step, module):
                with pytest.raises(ParameterError, match="differ in their group exponent"):
                    counter.raw(step)
                continue
            want = level_pass_counts(model, step, n0, module)
            assert np.array_equal(raw_counts(counter, step), want), (n, n0, step, module)
            key, count = counter.folded(step)
            dense = folded_counts(model, step, n0, module).ravel()
            assert np.array_equal(key, np.flatnonzero(dense)), (n, n0, step, module)
            assert np.array_equal(count, dense[key]), (n, n0, step, module)


def assert_values_equal_dense_contraction(session, n, n0):
    # eta = kappa - 1 and d the last element of A; compared as bytes, so
    # signed zeros count
    model, tower = depth_n(session, n)
    kappa = session.k_order
    module = session.ctx.module
    d = module.element_by_index(module.size - 1)
    steps = (session.schedule.height(n - 1), 1)
    tables = _eta_values(_PairCounter(tower, n0, False), steps, kappa - 1)
    for step, got in zip(steps, tables):
        assert got.tobytes() == oracle_eta_values(model, step, n0, kappa - 1).tobytes(), step
    if not module_fits(session, n0):
        return
    counter = _PairCounter(tower, n0, True)
    if refused(session, n, n0, steps[0], True):
        with pytest.raises(ParameterError, match="differ in their group exponent"):
            _chi_values(counter, steps, d, session.root_order)
        steps = steps[1:]
    tables = _chi_values(counter, steps, d, session.root_order)
    for step, got in zip(steps, tables):
        want = oracle_chi_values(model, step, n0, d, session.root_order)
        assert got.tobytes() == want.tobytes(), (n, n0, step)


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


def on_random_schedules(test):
    """Run `test` on 60 drawn schedules and on two fixed ones."""
    # an acting rotate stage of kappa 3, then a translate stage under it
    test = example((MODE_DIRECT, (1, 3),
                    (DeltaBlock(Fraction(1, 2), 5, r_seq=(3, 4, 3, 5, 4)),), 1))(test)
    # delayed stages above an acting rotate stage, at cylinder level 2
    test = example((MODE_PRODUCT, (1, 2), (DeltaBlock(Fraction(1, 2), 5, r_seq=(3, 3, 3, 4, 6)),
                                           DeltaBlock(Fraction(1, 3), 2, r_seq=(2, 5))), 2))(test)
    return settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)(given(schedules())(test))


def drawn_session(drawn):
    mode, targets, blocks, n0 = drawn
    return synth(SessionConfig(mode=mode, targets=targets, blocks=blocks,
                               cylinder_level=n0)), n0


@on_random_schedules
def test_counts_equal_level_pass_on_random_schedules(drawn):
    session, n0 = drawn_session(drawn)
    for n in range(n0, session.schedule.depth + 1):
        assert_counts_equal(session, n, n0)


@on_random_schedules
def test_values_equal_dense_contraction_on_random_schedules(drawn):
    session, n0 = drawn_session(drawn)
    for n in range(n0, session.schedule.depth + 1):
        assert_values_equal_dense_contraction(session, n, n0)


@on_random_schedules
def test_eta_tables_of_a_module_counter_equal_the_module_less_ones(drawn):
    # the probes of a stage share one counter, which carries the module when
    # a chi probe asks for it; eta sums each cell's module values out exactly
    session, n0 = drawn_session(drawn)
    kappa = session.k_order
    for n in range(n0, session.schedule.depth + 1):
        if not module_fits(session, n0):
            continue
        _, tower = depth_n(session, n)
        steps = [s for s in (session.schedule.height(n - 1), 1)
                 if not refused(session, n, n0, s, True)]
        plain, shared = _PairCounter(tower, n0, False), _PairCounter(tower, n0, True)
        for eta in range(kappa):
            got = _eta_values(shared, steps, eta)
            want = _eta_values(plain, steps, eta)
            assert [t.tobytes() for t in got] == [t.tobytes() for t in want], (n, eta)


@pytest.mark.parametrize("name, depth", PROBED, ids=[f"{n}-{d}" for n, d in PROBED])
def test_counts_equal_level_pass_on_probe_fixtures(request, name, depth):
    assert_counts_equal(request.getfixturevalue(name), depth, 1)


@pytest.mark.parametrize("name, depth", PROBED, ids=[f"{n}-{d}" for n, d in PROBED])
def test_values_equal_dense_contraction_on_probe_fixtures(request, name, depth):
    assert_values_equal_dense_contraction(request.getfixturevalue(name), depth, 1)
