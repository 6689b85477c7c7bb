"""Probe pair counts through the cut-and-stack recursion against the level pass.

weak_limit_probe counts the level pairs of the depth-n tower from the
structure of its stages: pairs inside a column come from the depth-(n-1)
tables, pairs across a column boundary from the words at the column ends,
and pairs of a lag of at least the column height, the step h_(n-1) among
them, from the depth-(n-1) tables at the lags their column offsets leave.
No tower deeper than the cylinder level is listed.  Every raw table it
counts must equal `level_pass_counts`, one bucket count over all levels of
a full-depth TowerModel, and its sparse fold the nonzero entries of the
dense fold of that table, with or without a module part, on stages whose
columns differ in their group exponent too.  The probe tables, contracted
per nonzero bucket at the cells the fold reaches, must equal the dense
contraction of the level pass bit for bit, and an eta table read from a
counter with the module part the one read from a counter without it.  At
kappa = 3, where b' - b and b - b' differ and so do theta^b and theta^-b,
fixed schedules whose rotate stage acts pin the fold's direction and the
build's untwisting.  The tables of
any lags and twists, big lags among them, must equal `listed_pairs`, the
level pass over the whole tower.  One counter that counts the tables of
every labelled stage in one pass must give each stage the raw and folded
tables that a counter of that stage alone gives it.  The counter's key
split must equal np.divmod, and its merge a dict sum.
"""

import tracemalloc
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfspectra.cf_builder import DeltaBlock
from cfspectra.cocycle_engine import LABEL_PLAIN, MODE_DIRECT, MODE_PRODUCT, Tower, TowerModel
from cfspectra.errors import SizeCapError
from cfspectra.koopman_lab import (
    _chi_values,
    _eta_values,
    _joined,
    _merged,
    _module_tables,
    _PairCounter,
    _split,
)
from cfspectra.session import SessionConfig, synth
from test_probe_tables import (
    PROBED,
    dense_values,
    folded_counts,
    level_pass_counts,
    oracle_chi_values,
    oracle_eta_values,
)

TABLE_LIMIT = 10**6  # raw tables larger than this are not compared with a module part


def raw_counts(counter, depth, steps):
    """The counter's raw table of the cyclic depth-`depth` tower at `steps`,
    its keys merged, as a dense array."""
    key, count = _merged([counter.raw([(depth, steps)])])
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


def assert_counts_equal(session, n, n0):
    model, tower = depth_n(session, n)
    for step in (session.schedule.height(n - 1), 1):
        for module in (False, True):
            if module and not module_fits(session, n0):
                continue
            counter = _PairCounter(tower, n0, module)
            want = level_pass_counts(model, step, n0, module)
            assert np.array_equal(raw_counts(counter, n, step), want), (n, n0, step, module)
            key, count = counter.folded(n, step)
            dense = folded_counts(model, step, n0, module).ravel()
            assert np.array_equal(key, np.flatnonzero(dense)), (n, n0, step, module)
            assert np.array_equal(count, dense[key]), (n, n0, step, module)


def assert_values_equal_dense_contraction(session, n, n0):
    # eta = kappa - 1 and d the last element of A; compared as bytes, so
    # signed zeros count; a table lists exactly the cells its fold reaches
    model, tower = depth_n(session, n)
    kappa, n_cyl = session.k_order, session.schedule.height(n0)
    module = session.ctx.module
    d = module.element_by_index(module.size - 1)
    steps = (session.schedule.height(n - 1), 1)
    tables = _eta_values(_PairCounter(tower, n0, False), n, steps, kappa - 1)
    for step, got in zip(steps, tables):
        reached = folded_counts(model, step, n0, False).reshape(n_cyl * n_cyl, -1).any(axis=1)
        assert np.array_equal(got[0], np.flatnonzero(reached)), step
        want = oracle_eta_values(model, step, n0, kappa - 1)
        assert dense_values(n_cyl, got).tobytes() == want.tobytes(), step
    if not module_fits(session, n0):
        return
    tables = _chi_values(_PairCounter(tower, n0, True), n, steps, d, session.root_order)
    for step, got in zip(steps, tables):
        reached = folded_counts(model, step, n0, True).reshape(n_cyl * n_cyl, -1).any(axis=1)
        assert np.array_equal(got[0], np.flatnonzero(reached)), (n, n0, step)
        want = oracle_chi_values(model, step, n0, d, session.root_order)
        assert dense_values(n_cyl, got).tobytes() == want.tobytes(), (n, n0, step)


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
        steps = (session.schedule.height(n - 1), 1)
        plain, shared = _PairCounter(tower, n0, False), _PairCounter(tower, n0, True)
        for eta in range(kappa):
            got = _eta_values(shared, n, steps, eta)
            want = _eta_values(plain, n, steps, eta)
            assert [(c.tobytes(), v.tobytes()) for c, v in got] == [
                (c.tobytes(), v.tobytes()) for c, v in want], (n, eta)


@pytest.mark.parametrize("name, depth", PROBED, ids=[f"{n}-{d}" for n, d in PROBED])
def test_counts_equal_level_pass_on_probe_fixtures(request, name, depth):
    assert_counts_equal(request.getfixturevalue(name), depth, 1)


@pytest.mark.parametrize("name, depth", PROBED, ids=[f"{n}-{d}" for n, d in PROBED])
def test_values_equal_dense_contraction_on_probe_fixtures(request, name, depth):
    assert_values_equal_dense_contraction(request.getfixturevalue(name), depth, 1)


# kappa = 3 schedules whose stage 4 rotates by k = 1: the counter's raw and
# folded tables against the level pass at the rotate stage and at stage 3,
# whose lags, like stage 4's, reach past the column height below
KAPPA3 = [("probe_kappa3_wide", 3), ("probe_kappa3_wide", 4), ("probe_kappa3", 4)]


@pytest.mark.parametrize("name, depth", KAPPA3, ids=[f"{n}-{d}" for n, d in KAPPA3])
def test_counts_equal_level_pass_at_kappa_3(request, name, depth):
    session = request.getfixturevalue(name)
    assert session.k_order == 3 and len(set(session.maps[3].beta)) > 1
    assert module_fits(session, 1)
    assert_counts_equal(session, depth, 1)
    assert_values_equal_dense_contraction(session, depth, 1)


def by_table(counter, part, tables):
    """Raw keys merged, as (keys within the table, counts) per table."""
    key, count = _merged([part])
    table, key = np.divmod(key, counter.table_size)
    ends = np.searchsorted(table, np.arange(tables + 1))
    return [(key[a:b], count[a:b]) for a, b in zip(ends[:-1], ends[1:])]


def assert_joint_pass_equals_one_stage_passes(session, n0):
    """Both steps of every labelled stage from n0 on, counted in one pass of
    a counter on the full tower, against a counter per stage and step."""
    stages = [n for n in range(max(n0, 1), session.schedule.depth + 1)
              if session.label(n).kind != LABEL_PLAIN]
    if not stages:
        return
    asked = sorted({(n, step) for n in stages for step in (session.schedule.height(n - 1), 1)},
                   reverse=True)
    for module in (False, True):
        if module and not module_fits(session, n0):
            continue
        joint = _PairCounter(session.tower_at(), n0, module)
        tables = by_table(joint, joint.raw(asked), len(asked))
        joint.count(asked)
        for (n, step), (key, count) in zip(asked, tables):
            alone = _PairCounter(session.tower_at(n), n0, module)
            [(want_key, want_count)] = by_table(alone, alone.raw([(n, step)]), 1)
            assert np.array_equal(key, want_key) and np.array_equal(count, want_count), (
                n, step, module)
            got, want = joint.folded(n, step), alone.folded(n, step)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (n, step, module)


@on_random_schedules
def test_joint_pass_equals_one_stage_passes_on_random_schedules(drawn):
    session, n0 = drawn_session(drawn)
    assert_joint_pass_equals_one_stage_passes(session, n0)


@pytest.mark.parametrize("name", sorted({n for n, _ in PROBED + KAPPA3}))
def test_joint_pass_equals_one_stage_passes_on_probe_fixtures(request, name):
    assert_joint_pass_equals_one_stage_passes(request.getfixturevalue(name), 1)


def test_asked_tables_are_counted_below_a_call_that_asks_nothing(probe_kappa3_wide):
    # a given table whose lag passes the height pairs nothing and asks
    # nothing of the tower below; the asked table of depth 2 is still
    # counted there, and comes back as table 1
    session = probe_kappa3_wide
    heights = session.schedule.heights()
    counter = _PairCounter(session.tower_at(4), 1, True)
    parts = counter.pairs(4, np.array([heights[4]]), np.ones((1, 1), dtype=np.int64),
                          np.zeros(1, dtype=np.int64), 0, [(2, heights[1])])
    (key, _), (got_key, got_count) = by_table(counter, _joined(parts), 2)
    alone = _PairCounter(session.tower_at(2), 1, True)
    [(want_key, want_count)] = by_table(alone, alone.raw([(2, heights[1])]), 1)
    assert key.size == 0 and want_key.size
    assert np.array_equal(got_key, want_key) and np.array_equal(got_count, want_count)


def listed_pairs(model, n0, lags, weights, twists, module):
    """raw[c, g, b, f, b', x] of the pairs (l, l + s) of a tower listed level
    by level: table c counts the lag lags[i] weights[c, i] times and keys a
    pair by x, the index of u - theta^(twists[c]) u'."""
    kappa = model.ctx.k_order
    n_cyl = model.schedule.height(n0)
    orders, radix, theta, images = _module_tables(model.ctx, module)
    cyl, beta = model.cylinder_ids(n0), model.word_beta
    u = model.word_untwisted[:, :len(orders)]
    raw = np.zeros((len(weights), n_cyl, kappa, n_cyl, kappa, images.shape[1]), dtype=np.int64)
    for c, i in zip(*np.nonzero(weights)):
        first = np.arange(model.height - lags[i])
        second = first + lags[i]
        keep = (cyl[first] >= 0) & (cyl[second] >= 0)
        first, second = first[keep], second[keep]
        x = (u[first] - u[second] @ theta[twists[c]].T) % orders @ radix
        np.add.at(raw[c], (cyl[first], beta[first], cyl[second], beta[second], x), weights[c, i])
    return raw


def counted_pairs(counter, m, lags, weights, twists):
    """The counter's tables of the same pairs, as a dense raw array."""
    key, count = _merged(counter.pairs(m, lags, weights, twists))
    n_cyl, kappa, _, _, n_a = counter.shape
    c, first, second, x = counter.decode(key)
    raw = np.zeros((len(weights), n_cyl, kappa, n_cyl, kappa, n_a), dtype=np.int64)
    raw[c, first // kappa, first % kappa, second // kappa, second % kappa, x] = count
    return raw


def assert_pairs_equal_listed(session, m, n0, lags, seed):
    """Three tables of random weights over the lags, each of its own twist."""
    model, _ = depth_n(session, m)
    # one lag pairs up to h_m levels, listed once per table that counts it
    tower = Tower(session.schedule, m, session.maps[:m], session.ctx,
                  cap=3 * session.schedule.height(m) * len(lags))
    rng = np.random.default_rng(seed)
    lags = np.unique(np.array(lags, dtype=np.int64))
    weights = rng.integers(0, 3, (3, lags.size))
    for module in (False, True):
        if module and not module_fits(session, n0):
            continue
        counter = _PairCounter(tower, n0, module)
        twists = np.arange(3) % counter.twist_order
        got = counted_pairs(counter, m, lags, weights, twists)
        want = listed_pairs(model, n0, lags, weights, twists, module)
        assert np.array_equal(got, want), (m, n0, module, lags.tolist())


def spread_lags(session, m):
    """Lags around every column height below depth m, and up to h_m - 1."""
    heights = session.schedule.heights()[:m + 1]
    around = [h + d for h in heights for d in (-2, -1, 0, 1, 3)]
    return [s for s in around + [heights[m] - 1, heights[m] // 2] if 0 <= s < heights[m]]


@pytest.mark.parametrize("depth", [3, 4])
def test_pairs_of_any_lag_and_twist_equal_the_listed_pairs(probe_kappa3_wide, depth):
    assert_pairs_equal_listed(probe_kappa3_wide, depth, 1, spread_lags(probe_kappa3_wide, depth),
                              depth)


@on_random_schedules
def test_pairs_of_any_lag_and_twist_equal_the_listed_pairs_on_random_schedules(drawn):
    session, n0 = drawn_session(drawn)
    for m in range(n0, session.schedule.depth + 1):
        assert_pairs_equal_listed(session, m, n0, spread_lags(session, m), m)


def test_pair_tables_past_the_int64_key_space_are_refused(probe_kappa3_wide):
    # a key packs (table, cylinder, exponent, cylinder, exponent, x), so more
    # tables than 2^63 / (n_cyl^2 kappa^2 |A|) would wrap and merge unrelated
    # pairs; with the cap lifted they are refused before any key is formed,
    # the weights broadcast from one entry so that none is allocated
    session = probe_kappa3_wide
    tower = Tower(session.schedule, 4, session.maps, session.ctx, cap=10**18)
    counter = _PairCounter(tower, 1, True)
    assert counter.table_size == (5 * 3) ** 2 * 14
    tables = 2**63 // counter.table_size + 1
    weights = np.broadcast_to(np.ones((1, 1), dtype=np.int64), (tables, 1))
    twists = np.broadcast_to(np.zeros(1, dtype=np.int64), (tables,))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=f"{tables * 3150} keys exceed the int64 key space"):
            counter.pairs(4, np.array([1]), weights, twists)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**5, peak


def test_column_offset_groups_past_the_int64_key_space_are_refused():
    # the column offsets of a lag of at least h_(m-1) pack (table,
    # orientation, b_j, b_k, d) and then |t| < h_(m-1) into one key, of
    # 2 kappa^2 |A| h_(m-1) per table; one table at stage 9 of this tower
    # passes 2^63 there, though its pair keys fit, and is refused under the
    # default cap before any offset is listed
    session = synth(SessionConfig(
        mode="direct", targets=(1, 3),
        blocks=(DeltaBlock(Fraction(1, 2), 9,
                           r_seq=(4, 4, 14, 46, 1000, 1000, 1000, 5000, 100)),)))
    below = session.schedule.height(8)
    counter = _PairCounter(session.tower_at(9), 1, True)
    assert counter.table_size < 2**63 < 2 * 3 * 3 * 14 * below
    with pytest.raises(SizeCapError, match=f"column offset groups of {252 * below} keys "
                                           "exceed the int64 key space"):
        counter.pairs(9, np.array([below]), np.ones((1, 1), dtype=np.int64),
                      np.zeros(1, dtype=np.int64))


def test_weights_over_the_cap_are_refused_before_they_are_listed(probe_kappa3_wide):
    # many tables at one lag: below h_3 their crossing weights, tables x
    # (lag + 1), and past it the column offsets each table weighs, are
    # refused over the tower's cap before either is allocated
    session = probe_kappa3_wide
    tower = Tower(session.schedule, 4, session.maps, session.ctx, cap=1000)
    counter = _PairCounter(tower, 1, False)
    below = session.schedule.height(3)
    weights = np.broadcast_to(np.ones((1, 1), dtype=np.int64), (200, 1))
    twists = np.broadcast_to(np.zeros(1, dtype=np.int64), (200,))
    for lag, message in ((20, "4200 crossing weights exceed cap 1000"),
                         (below, "18400 column offsets exceed cap 1000")):
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match=message):
                counter.pairs(4, np.array([lag]), weights, twists)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**4, (lag, peak)


def test_moved_keys_cost_memory_per_key_not_per_group():
    # kappa = 6 and |A| = 294 of rank 4: an offset group per orientation and
    # d, each key of a few moved by its own group, with no table of |A|
    # images per group (588 x 294 x 4 entries, 5.5 MB)
    session = synth(SessionConfig(mode="direct", targets=(1, 2, 3),
                                  blocks=(DeltaBlock(Fraction(1, 2), 2, r_seq=(4, 4)),)))
    counter = _PairCounter(session.tower_at(2), 1, True)
    kappa, n_a = counter.kappa, counter.shape[4]
    assert (kappa, n_a, counter.images.shape[2]) == (6, 294, 4)
    rev = np.repeat(np.arange(2), n_a)
    d = np.tile(np.arange(n_a), 2)
    c, b_j, b_k = np.zeros_like(d), (rev + d) % kappa, d % kappa
    twists = np.array([1])
    rng = np.random.default_rng(5)
    sides = counter.shifted.shape[1]
    group = rng.integers(0, d.size, 50)
    first, second, x = (rng.integers(0, sides, 50), rng.integers(0, sides, 50),
                        rng.integers(0, n_a, 50))
    key = counter.encode(7 + group, first, second, x)
    tracemalloc.start()
    try:
        got, _ = counter.moved(key, np.ones(50, dtype=np.int64), (c, rev, b_j, b_k, d), twists, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 10**4, peak
    # the documented move, key by key
    for k, (i, f, s, w) in enumerate(zip(group, first, second, x)):
        if rev[i]:
            power, sign, f, s = (twists[0] - b_k[i]) % kappa, -1, s, f
        else:
            power, sign = -b_j[i] % kappa, 1
        moved = counter.index(counter.images[0, d[i]] + sign * counter.images[power, w])
        assert got[k] == counter.encode(c[i], counter.shifted[b_j[i], f],
                                        counter.shifted[b_k[i], s], moved)


# keys and counts as the counter forms them: small keys repeat, large ones
# span the int64 range
KEYS = st.integers(0, 40) | st.integers(0, 2**63 - 1)
PARTS = st.lists(st.lists(st.tuples(KEYS, st.integers(1, 2**40))), max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PARTS)
@example([])  # no part
@example([[], []])  # empty parts
@example([[(5, 1), (2, 3)], [(9, 2), (0, 7)]])  # distinct keys, arriving as sorted runs
@example([[(3, 1), (3, 2), (1, 4)]])  # a key repeated within a part
@example([[(3, 1)], [(1, 1)], [(3, 5)]])  # a key repeated across parts
def test_merge_equals_the_summed_dict(parts):
    # a merge that skips the segment sum when keys repeat fails the examples
    # that repeat a key
    want = {}
    for part in parts:
        for key, count in part:
            want[key] = want.get(key, 0) + count
    key, count = _merged([(np.array([k for k, _ in part], dtype=np.int64),
                           np.array([c for _, c in part], dtype=np.int64)) for part in parts])
    assert key.dtype == count.dtype == np.int64
    assert key.tolist() == sorted(want)
    assert count.tolist() == [want[k] for k in sorted(want)]


# the split's product (a // n) n stays in the int64 range down to -2^63 + n
SPLIT_VALUES = st.integers(-2**63 + 2**40, 2**63 - 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(SPLIT_VALUES, max_size=40), st.integers(1, 2**40) | st.just(1))
@example([-7, -1, 0, 1, 7, -2**62, 2**63 - 1], 1)
@example([-7, -6, -1, 0, 5, 6], 3)
def test_split_equals_divmod(values, n):
    a = np.array(values, dtype=np.int64)
    got, want = _split(a, n), np.divmod(a, n)
    for g, w in zip(got, want):
        assert isinstance(g, np.ndarray) and g.dtype == np.int64 and np.array_equal(g, w)
    for value in values[:4]:
        # Python ints stay Python ints; a numpy scalar or a 0-d array, as
        # `index` meets on one vector, gives numpy scalars
        assert _split(value, n) == divmod(value, n)
        assert all(type(g) is int for g in _split(value, n))
        for scalar in (np.int64(value), np.array(value)):
            got = _split(scalar, n)
            assert all(isinstance(g, np.int64) for g in got)
            assert got == tuple(np.divmod(scalar, n))
