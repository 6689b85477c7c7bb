"""The TowerModel build against per-cut and per-level oracles.

The build computes each distinct table entry's column block once and copies
it to the later cuts carrying the same entry, and it keeps the module part
untwisted; the oracle below recomputes the twisted block at every cut.
Cylinder measures come in closed form from the schedule, and the starts of
the cylinder copies from the stage cuts; the oracles count the levels of
each cylinder and stack its ids stage by stage.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfspectra.cf_builder import DeltaBlock
from cfspectra.cocycle_engine import (
    LABEL_RIGID_ROTATE,
    MODE_DIRECT,
    MODE_PRODUCT,
    Tower,
    TowerModel,
)
from cfspectra.errors import ParameterError
from cfspectra.koopman_lab import exact_spectrum
from cfspectra.session import SessionConfig, synth
from oracles import binary_power
from test_finite_algebra import refusal_peak


def per_cut_word_products(model):
    """Word products built one column block per cut, with no block reused."""
    ctx = model.ctx
    orders = np.array(ctx.module.orders, dtype=np.int64)
    theta = ctx.action.generator_maps[0]
    theta_mats = np.stack([binary_power(theta, k).matrix for k in range(ctx.k_order)])
    rank = len(orders)
    kappa = ctx.k_order
    h0 = model.schedule.initial_height
    beta = np.zeros(h0, dtype=np.int64)
    alpha = np.zeros((h0, rank), dtype=np.int64)
    for stage, tables in zip(model.schedule.stages[: model.depth], model.maps_by_stage):
        h_prev = stage.base_height
        nb = np.zeros(stage.new_height, dtype=np.int64)
        na = np.zeros((stage.new_height, rank), dtype=np.int64)
        for idx, c in enumerate(stage.cuts):
            b_c = tables.beta[idx]
            a_c = tables.alpha[idx]
            seg = slice(c, c + h_prev)
            nb[seg] = (beta + b_c) % kappa
            if any(a_c):
                powered = theta_mats @ np.array(a_c, dtype=np.int64) % orders
                na[seg] = (alpha + powered[beta % kappa]) % orders
            else:
                na[seg] = alpha
        beta, alpha = nb, na
    return beta, alpha


def assert_matches_oracle(model):
    # the model keeps the module part untwisted; twisted back by theta^beta
    # it is the word product's module part
    beta, alpha = per_cut_word_products(model)
    assert np.array_equal(model.word_beta, beta)
    assert np.array_equal(model._apply_theta_pow(model.word_beta, model.word_untwisted), alpha)


@pytest.mark.parametrize("fixture", ["shipped_direct", "shipped_product", "shipped_staircase",
                                     "probe_direct", "probe_product", "probe_large"])
def test_word_products_equal_per_cut_build(request, fixture):
    assert_matches_oracle(request.getfixturevalue(fixture).model())


@pytest.fixture(scope="module")
def twisted_rotate():
    # direct {1,2,3}: kappa = 6 on Z/2 + Z/3 + Z/7 + Z/7; stage 3 translates
    # by (0, 0, 0, 1) and stage 4 rotates by k = 1 over it
    return synth(SessionConfig(mode=MODE_DIRECT, targets=(1, 2, 3),
                               blocks=(DeltaBlock(Fraction(1, 2), 4, r_seq=(4, 4, 4, 4)),)))


def test_rotate_blocks_untwist_by_theta_inverse(twisted_rotate):
    # a fixed case for the one twist of the build, theta^(-b_c) on a rotate
    # block: theta, its transpose and its inverse are three matrices here,
    # and the block twists a non-zero module part, so a transposed theta or
    # theta^(b_c) in its place fails
    session = twisted_rotate
    mats = session.ctx.action.matrices
    assert session.k_order >= 3
    assert not np.array_equal(mats[1], mats[1].T) and not np.array_equal(mats[1], mats[-1])
    assert session.label(4).kind == LABEL_RIGID_ROTATE and set(session.maps[3].beta) == {0, 5}
    assert session.model(3).word_untwisted.any()
    model = session.model()
    assert_matches_oracle(model)
    # (beta, untwisted) per level: theta^(-5) = theta sends (0, 0, 0, 6) to
    # (0, 0, 3, 0), where its transpose and its inverse give (0, 0, 6, 0)
    words, counts = np.unique(np.column_stack([model.word_beta, model.word_untwisted]),
                              axis=0, return_counts=True)
    assert dict(zip(map(tuple, words.tolist()), counts.tolist())) == {
        (0, 0, 0, 0, 0): 23, (0, 0, 0, 0, 6): 63, (5, 0, 0, 0, 0): 66, (5, 0, 0, 3, 0): 189}


def test_probe_fixtures_reuse_blocks_with_acting_labels(probe_direct):
    # the fixtures above must exercise both halves of the table entry: a
    # translate stage repeats group parts under distinct module parts, a
    # rotate stage the reverse, so keying blocks by either half alone fails
    def repeats(n):
        maps = probe_direct.maps[n - 1]
        entries = set(zip(maps.beta, maps.alpha))
        return len(entries), len(set(maps.beta)), len(set(maps.alpha))

    entries, betas, alphas = repeats(3)  # translate
    assert betas == 1 and alphas == entries > 1
    entries, betas, alphas = repeats(4)  # rotate
    assert alphas == 1 and betas == entries > 1


def _session(mode, delta, r_seq):
    targets = (1, 2) if mode == MODE_DIRECT else (2, 3)
    return synth(SessionConfig(mode=mode, targets=targets,
                               blocks=(DeltaBlock(delta, len(r_seq), r_seq=r_seq),)))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(mode=st.sampled_from([MODE_DIRECT, MODE_PRODUCT]),
       delta=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]),
       r_seq=st.lists(st.integers(2, 6), min_size=1, max_size=4),
       wide_last=st.booleans())
# labels cycle translate, (delayed,) rotate, and the first targets of each
# kind are the identity, so acting 64-column stages come fourth and later
@example(mode=MODE_DIRECT, delta=Fraction(1, 2), r_seq=[3, 3, 3, 64], wide_last=False)
@example(mode=MODE_PRODUCT, delta=Fraction(1, 2), r_seq=[3, 3, 3, 64], wide_last=False)
# the sixth stage is product mode's first rotate stage with a non-identity
# target: beta != 0 with kappa = 6, where theta^(-b) and theta^b differ
@example(mode=MODE_PRODUCT, delta=Fraction(1, 2), r_seq=[3, 3, 3, 3, 3, 8], wide_last=False)
# stage 7 translates after that acting rotate: its blocks twist a non-zero
# module part by theta^(-b) with b != 0, the one use of the build's matrices
@example(mode=MODE_PRODUCT, delta=Fraction(1, 2), r_seq=[3] * 7, wide_last=False)
def test_word_products_equal_per_cut_build_on_random_schedules(mode, delta, r_seq, wide_last):
    if wide_last:
        r_seq = r_seq[:-1] + [64]
    session = _session(mode, delta, r_seq)
    for depth in range(1, session.schedule.depth + 1):
        assert_matches_oracle(session.model(depth))


def test_build_allocates_no_block_cache(probe_large):
    # the build holds two stages' arrays and a few temporaries of one block
    # at a time; a block is 1/64 of the last stage, so the peak reads 1.04
    # times the result, and keeping the last stage's three distinct blocks
    # on the side would read 1.07
    tracemalloc.start()
    try:
        model = TowerModel(probe_large.schedule, probe_large.schedule.depth, probe_large.maps,
                           probe_large.ctx, cap=probe_large.config.state_cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * (model.word_beta.nbytes + model.word_untwisted.nbytes)


def test_model_over_the_cap_is_refused_before_its_arrays(probe_large):
    # the tower lists no level, so no cap refuses it; its model, about 21 MB
    # of word arrays over 874,928 levels, is refused one level over the cap
    schedule, depth = probe_large.schedule, probe_large.schedule.depth
    h = schedule.height(depth)
    assert Tower(schedule, depth, probe_large.maps, probe_large.ctx, cap=1).height == h
    assert refusal_peak(lambda: TowerModel(schedule, depth, probe_large.maps, probe_large.ctx,
                                           cap=h - 1),
                        f"tower height {h} exceeds cap {h - 1}") < 10**5


def test_a_depth_outside_the_schedule_is_refused(shipped_direct):
    # depth -1 would read the last height, and a depth past the schedule
    # names no height
    depth = shipped_direct.schedule.depth
    for bad in (-1, depth + 1):
        with pytest.raises(ParameterError, match=rf"no depth-{bad} tower in a {depth}-stage"):
            shipped_direct.tower_at(bad)
        with pytest.raises(ParameterError):
            exact_spectrum(shipped_direct, bad)
    assert shipped_direct.tower_at(0).height == shipped_direct.schedule.initial_height
    assert shipped_direct.tower_at(depth).height == shipped_direct.tower_at().height


def bincount_measures(model, n0):
    """Measure of each depth-n0 cylinder by counting its levels."""
    cyl = model.cylinder_ids(n0)
    counts = np.bincount(cyl[cyl >= 0], minlength=model.schedule.height(n0))
    return counts / model.height


def stacked_cylinder_ids(model, n0):
    """Cylinder ids stacked stage by stage: each cut of a deeper stage gets a
    copy of the ids of the tower below it, spacers -1."""
    ids = np.arange(model.schedule.height(n0), dtype=np.int64)
    for st in model.schedule.stages[n0:model.depth]:
        nxt = np.full(st.new_height, -1, dtype=np.int64)
        for c in st.cuts:
            nxt[c:c + len(ids)] = ids
        ids = nxt
    return ids


@pytest.mark.parametrize("name", ["shipped_direct", "shipped_product", "shipped_staircase",
                                  "probe_direct", "probe_product", "probe_large",
                                  "scaled_16x16x128x16", "scaled_32x32x256"])
def test_cylinder_measures_equal_level_counts(request, name):
    # the measures, the cylinder ids and the start set read by correlation
    # decay, each against the levels of a tower model
    session = request.getfixturevalue(name)
    schedule = session.schedule
    for depth in range(1, schedule.depth + 1):
        model = TowerModel(schedule, depth, session.maps[:depth], session.ctx,
                           cap=session.config.state_cap)
        tower = Tower(schedule, depth, session.maps[:depth], session.ctx,
                      cap=session.config.state_cap)
        for n0 in range(depth + 1):
            got = np.full(schedule.height(n0), model.cylinder_size(n0) / model.height)
            assert np.array_equal(got, bincount_measures(model, n0)), (depth, n0)
            ids = model.cylinder_ids(n0)
            assert np.array_equal(ids, stacked_cylinder_ids(model, n0)), (depth, n0)
            assert np.array_equal(tower.cylinder_starts(n0), np.flatnonzero(ids == 0)), \
                (depth, n0)
