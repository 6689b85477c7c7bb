import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cfspectra.cf_builder import (
    KIND_DELAYED_STAIRCASE,
    KIND_RIGID_STAIRCASE,
    DeltaBlock,
    build_schedule,
    concat_delta_blocks,
    cut_stage,
)
from cfspectra.cocycle_engine import (
    LABEL_DELAYED_TRANSLATE,
    LABEL_PLAIN,
    LABEL_RIGID_ROTATE,
    LABEL_RIGID_TRANSLATE,
    MODE_DIRECT,
    MODE_PRODUCT,
    CocycleStageMaps,
    CoordinateWord,
    SemidirectContext,
    StageLabel,
    TowerModel,
    canonical_word,
    evaluate_cocycle,
    label_cycle,
    stage_maps,
)
from cfspectra.errors import InvalidElementError, LabelError, PairError, ParameterError
from cfspectra.finite_algebra import FiniteAbelianGroup
from cfspectra.module_factory import assemble_triple, dualize
from cfspectra.session import SessionConfig, synth
from oracles import act, binary_power, cocycle_between, inv, transition_values, word_product


def small_ctx():
    """K = Z/2 acting on Z/2 + Z/3 by identity x negation (dual side of {1,2})."""
    rec = dualize(assemble_triple({1, 2}))
    return SemidirectContext(rec.triple.k_order, rec.dual_module, rec.dual_action)


def direct_maps(sched, ctx):
    """Direct-mode round-robin tables for every stage of a rigid schedule."""
    labels = islice(label_cycle(ctx.module, ctx.k_order, MODE_DIRECT), sched.depth)
    return [stage_maps(l, st, ctx.k_order, ctx.module) for l, st in zip(labels, sched.stages)]


def padded(word):
    """Length-`depth` cut vector of a word, with zeros below its least depth."""
    return (0,) * word.least_depth + word.cuts


def expansion_oracle(x, y, maps_by_stage, ctx):
    """Independent route: the explicit two-sided expansion of the cocycle.

    group part:  sum of per-stage group entries along x minus along y;
    module part: sum_j theta^{prefix_j(x)} alpha_j(x_j)
                 - theta^{total(x)-total(y)} . (same sum along y).
    """
    def side(word):
        total = 0
        acc = ctx.module.zero()
        for maps, c in zip(maps_by_stage, padded(word)):
            idx = maps.cuts.index(c)
            acc = ctx.module.add(acc, act(ctx, total, maps.alpha[idx]))
            total = (total + maps.beta[idx]) % ctx.k_order
        return total, acc

    bx, ax = side(x)
    by, ay = side(y)
    b = (bx - by) % ctx.k_order
    a = ctx.module.sub(ax, act(ctx, b, ay))
    return b, a


class TestLabels:
    def test_single_target_all_translate(self):
        g = FiniteAbelianGroup((1,))
        gen = label_cycle(g, 1, MODE_DIRECT)
        kinds = [next(gen).kind for _ in range(4)]
        assert kinds == [
            LABEL_RIGID_TRANSLATE,
            LABEL_RIGID_ROTATE,
            LABEL_RIGID_TRANSLATE,
            LABEL_RIGID_ROTATE,
        ]

    def test_product_mode_cycles_three_kinds(self):
        g = FiniteAbelianGroup((1,))
        gen = label_cycle(g, 1, MODE_PRODUCT)
        kinds = [next(gen).kind for _ in range(6)]
        assert kinds == [
            LABEL_RIGID_TRANSLATE,
            LABEL_DELAYED_TRANSLATE,
            LABEL_RIGID_ROTATE,
        ] * 2

    def test_targets_advance_independently(self):
        g = FiniteAbelianGroup((2,))
        gen = label_cycle(g, 2, MODE_DIRECT)
        labels = [next(gen) for _ in range(8)]
        assert [l.a for l in labels[0::2]] == [(0,), (1,), (0,), (1,)]
        assert [l.k for l in labels[1::2]] == [0, 1, 0, 1]

    def test_delayed_label_requires_delayed_shape(self):
        sched = concat_delta_blocks([DeltaBlock("1/2", 2)])  # rigid_staircase shapes
        g = FiniteAbelianGroup((2,))
        labels = label_cycle(g, 2, MODE_PRODUCT)
        # the second label is a delayed translate, which a rigid stage refuses
        stage_maps(next(labels), sched.stages[0], 2, g)
        with pytest.raises(LabelError):
            stage_maps(next(labels), sched.stages[1], 2, g)

    def test_staircase_schedule_gets_plain_labels(self):
        session = synth(SessionConfig(mode=MODE_DIRECT, targets=(1, 2), shape="staircase",
                                      r_seq=(2, 3)))
        assert all(l.kind == LABEL_PLAIN for l in session.labels)
        assert [st.kind for st in session.schedule.stages] == ["staircase"] * 2


class TestStageMaps:
    def setup_method(self):
        self.module = FiniteAbelianGroup((5,))

    def test_rotate_with_single_rigid_column(self):
        st = cut_stage(KIND_RIGID_STAIRCASE, 3, 1, 4)
        maps = stage_maps(StageLabel(LABEL_RIGID_ROTATE, k=1), st, 6, self.module)
        assert maps.beta == (0, 0, 0, 0)  # empty stepping range

    def test_translate_unrolled(self):
        st = cut_stage(KIND_RIGID_STAIRCASE, 3, 3, 5)
        maps = stage_maps(StageLabel(LABEL_RIGID_TRANSLATE, a=(1,)), st, 2, self.module)
        assert maps.alpha == ((0,), (4,), (3,), (3,), (3,))
        assert maps.beta == (0,) * 5

    def test_delayed_unrolled(self):
        st = cut_stage(KIND_DELAYED_STAIRCASE, 3, 2, 6)
        maps = stage_maps(StageLabel(LABEL_DELAYED_TRANSLATE, a=(1,)), st, 2, self.module)
        assert maps.alpha == ((0,), (0,), (4,), (3,), (3,), (3,))

    def test_rotate_unrolled(self):
        st = cut_stage(KIND_RIGID_STAIRCASE, 3, 3, 5)
        maps = stage_maps(StageLabel(LABEL_RIGID_ROTATE, k=1), st, 6, self.module)
        assert maps.beta == (0, 5, 4, 4, 4)

    def test_tables_constant_past_stepping_range(self):
        st = cut_stage(KIND_RIGID_STAIRCASE, 2, 4, 9)
        maps = stage_maps(StageLabel(LABEL_RIGID_TRANSLATE, a=(2,)), st, 2, self.module)
        tail = maps.alpha[st.i_count - 1 :]
        assert all(v == tail[0] for v in tail)

    def test_shape_mismatch_raises(self):
        st = cut_stage(KIND_RIGID_STAIRCASE, 3, 2, 4)
        with pytest.raises(LabelError):
            stage_maps(StageLabel(LABEL_DELAYED_TRANSLATE, a=(1,)), st, 2, self.module)

    @pytest.mark.parametrize("cuts, beta, alpha, message", [
        ((1, 4), (0, 1), ((0, 0), (1, 2)), "starts at 1, not 0"),
        ((0, 4), (1, 1), ((0, 0), (1, 2)), "cut 0 to the identity"),
        ((0, 4), (0, 1), ((0, 1), (1, 2)), "cut 0 to the identity"),
    ])
    def test_cut_0_leads_and_maps_to_the_identity(self, cuts, beta, alpha, message):
        # products skip the stages below a word's least depth, as if at cut 0:
        # a table with no cut 0, or a non-identity entry there, would be misread
        with pytest.raises(LabelError, match=message):
            CocycleStageMaps(1, cuts, beta, alpha)
        CocycleStageMaps(1, (0, 4), (0, 1), ((0, 0), (1, 2)))


class TestCanonicalWord:
    def setup_method(self):
        # heights 1 -> 4 -> 19 with a spacer at level 3 of stage 1
        self.sched = build_schedule(
            1, [{"kind": "staircase", "r": 3}, {"kind": "staircase", "r": 4}]
        )

    def test_level_zero_all_zero(self):
        w = canonical_word(0, self.sched)
        assert (w.least_depth, w.residual, w.cuts) == (0, 0, (0, 0))

    def test_cut_level(self):
        # C_2 = {0, 4, 9, 15}; level 9 is the base of column 2
        w = canonical_word(9, self.sched)
        assert (w.least_depth, w.residual, w.cuts) == (0, 0, (0, 9))

    def test_spacer_marker(self):
        # stage 1 cuts {0,1,3} over height 1: level 2 of the height-4 tower is a spacer
        w = canonical_word(2, self.sched, depth=1)
        assert (w.least_depth, w.residual, w.cuts) == (1, 2, ())

    def test_spacer_at_full_depth(self):
        w = canonical_word(4 + 2, self.sched)  # spacer copy inside column 1
        assert (w.least_depth, w.residual, w.cuts) == (1, 2, (4,))
        assert padded(w) == (0, 4)

    def test_levels_roundtrip(self):
        for l in range(self.sched.height(2)):
            w = canonical_word(l, self.sched)
            assert w.residual + sum(w.cuts) == l

    def test_out_of_range(self):
        with pytest.raises(PairError):
            canonical_word(19, self.sched)

    def test_bisection_matches_linear_scan(self, shipped_direct, shipped_product):
        # oracle: the first cut whose column contains the residual, scanning up
        def scanned(level, sched, depth):
            cuts, rest = [], level
            for n in range(depth, 0, -1):
                st = sched.stages[n - 1]
                col = next((c for c in st.cuts if c <= rest < c + st.base_height), None)
                if col is None:
                    return CoordinateWord(depth, n, rest, tuple(reversed(cuts)))
                cuts.append(col)
                rest -= col
            return CoordinateWord(depth, 0, rest, tuple(reversed(cuts)))

        for sched in (self.sched, shipped_direct.schedule, shipped_product.schedule):
            for depth in range(sched.depth + 1):
                levels = range(sched.height(depth))
                if len(levels) > 4000:
                    levels = random.Random(depth).sample(levels, 4000)
                for level in levels:
                    assert canonical_word(level, sched, depth) == scanned(level, sched, depth)


class TestEvaluate:
    def setup_method(self):
        self.ctx = small_ctx()
        self.sched = concat_delta_blocks([DeltaBlock("1/2", 2, r_start=3)])
        # nontrivial targets on both stages
        self.labels = (
            StageLabel(LABEL_RIGID_TRANSLATE, a=(1, 1)),
            StageLabel(LABEL_RIGID_ROTATE, k=1),
        )
        self.maps = [
            stage_maps(l, st, self.ctx.k_order, self.ctx.module)
            for l, st in zip(self.labels, self.sched.stages)
        ]

    def test_diagonal_is_identity(self):
        for l in range(self.sched.height(2)):
            w = canonical_word(l, self.sched)
            assert evaluate_cocycle(w, w, self.maps, self.ctx) == self.ctx.identity()

    def test_matches_expansion_oracle(self):
        h = self.sched.height(2)
        for l1 in range(h):
            for l2 in range(h):
                x = canonical_word(l1, self.sched)
                y = canonical_word(l2, self.sched)
                assert evaluate_cocycle(x, y, self.maps, self.ctx) == expansion_oracle(
                    x, y, self.maps, self.ctx
                )

    def test_cocycle_identity_random_triples(self):
        rng = random.Random(5)
        h = self.sched.height(2)
        words = [canonical_word(l, self.sched) for l in range(h)]
        for _ in range(300):
            x, y, z = (words[rng.randrange(h)] for _ in range(3))
            v_xy = evaluate_cocycle(x, y, self.maps, self.ctx)
            v_yz = evaluate_cocycle(y, z, self.maps, self.ctx)
            v_xz = evaluate_cocycle(x, z, self.maps, self.ctx)
            assert self.ctx.mul(v_xy, v_yz) == v_xz

    def test_abelian_degeneration(self):
        # all group parts trivial: module part is a plain difference of sums
        maps = [
            stage_maps(StageLabel(LABEL_RIGID_TRANSLATE, a=(1, 2)), st,
                       self.ctx.k_order, self.ctx.module)
            for st in self.sched.stages
        ]
        h = self.sched.height(2)
        for l1 in range(0, h, 3):
            for l2 in range(0, h, 5):
                x = canonical_word(l1, self.sched)
                y = canonical_word(l2, self.sched)
                b, a = evaluate_cocycle(x, y, maps, self.ctx)
                assert b == 0
                expected = self.ctx.module.zero()
                for m, cx, cy in zip(maps, padded(x), padded(y)):
                    expected = self.ctx.module.add(
                        expected, m.alpha[m.cuts.index(cx)]
                    )
                    expected = self.ctx.module.sub(
                        expected, m.alpha[m.cuts.index(cy)]
                    )
                assert a == expected

    def test_depth_mismatch_rejected(self):
        x = canonical_word(0, self.sched, depth=1)
        y = canonical_word(0, self.sched, depth=2)
        with pytest.raises(PairError):
            evaluate_cocycle(x, y, self.maps, self.ctx)


class TestEvaluateKappa6:
    """K = Z/6 acting on Z/3 + Z/7 + Z/7 (product_23's context), where the
    inverse of theta^k is not theta^k and K acts differently from the left
    and from the right."""

    @pytest.fixture(autouse=True)
    def setup(self, shipped_product):
        self.ctx = shipped_product.ctx
        assert self.ctx.k_order == 6
        self.sched = concat_delta_blocks([DeltaBlock("1/2", 3, r_start=3)])
        labels = (
            StageLabel(LABEL_RIGID_ROTATE, k=1),
            StageLabel(LABEL_RIGID_TRANSLATE, a=(1, 2, 3)),
            StageLabel(LABEL_RIGID_ROTATE, k=2),
        )
        self.maps = [stage_maps(l, st, 6, self.ctx.module)
                     for l, st in zip(labels, self.sched.stages)]
        for m in self.maps:
            assert any(m.beta) or any(any(a) for a in m.alpha)
        self.words = [canonical_word(l, self.sched) for l in range(self.sched.height(3))]

    def test_matches_expansion_oracle(self):
        twisted = 0
        for x in self.words:
            for y in self.words:
                value = evaluate_cocycle(x, y, self.maps, self.ctx)
                assert value == expansion_oracle(x, y, self.maps, self.ctx), (x, y)
                twisted += value[0] not in (0, 3) and any(value[1])
        assert twisted
        assert {w.least_depth for w in self.words} == {0, 2, 3}  # spacers skip stages

    def test_word_product_matches_expansion_oracle(self):
        origin = canonical_word(0, self.sched)
        for w in self.words:
            assert word_product(w, self.maps, self.ctx) == expansion_oracle(
                w, origin, self.maps, self.ctx)


class TestResolvedTables:
    """The context keeps the resolved tables of the last maps tuple it served."""

    def setup_method(self):
        self.ctx = small_ctx()
        self.sched = concat_delta_blocks([DeltaBlock("1/2", 2, r_start=3)])
        self.words = [canonical_word(l, self.sched) for l in range(self.sched.height(2))]

    def maps(self, *labels):
        return tuple(stage_maps(l, st, self.ctx.k_order, self.ctx.module)
                     for l, st in zip(labels, self.sched.stages))

    def test_alternating_tuples_get_their_own_tables(self):
        one = self.maps(StageLabel(LABEL_RIGID_TRANSLATE, a=(1, 1)),
                        StageLabel(LABEL_RIGID_ROTATE, k=1))
        two = self.maps(StageLabel(LABEL_RIGID_ROTATE, k=1),
                        StageLabel(LABEL_RIGID_TRANSLATE, a=(0, 2)))
        y = self.words[-1]
        assert any(expansion_oracle(u, y, one, self.ctx) != expansion_oracle(u, y, two, self.ctx)
                   for u in self.words[::7])
        shallow = canonical_word(2, self.sched, depth=1), canonical_word(0, self.sched, depth=1)
        for _ in range(3):
            for maps in (one, two):
                # a depth-1 value first, then the full depth on the same tuple
                assert evaluate_cocycle(*shallow, maps, self.ctx) == expansion_oracle(
                    *shallow, maps, self.ctx)
                for u in self.words[::7]:
                    assert evaluate_cocycle(u, y, maps, self.ctx) == expansion_oracle(
                        u, y, maps, self.ctx)
                    assert word_product(u, maps, self.ctx) == expansion_oracle(
                        u, self.words[0], maps, self.ctx)

    def test_a_list_is_resolved_on_every_call(self):
        first = self.maps(StageLabel(LABEL_RIGID_TRANSLATE, a=(1, 1)),
                          StageLabel(LABEL_RIGID_ROTATE, k=1))
        other = self.maps(StageLabel(LABEL_RIGID_TRANSLATE, a=(1, 1)),
                          StageLabel(LABEL_RIGID_TRANSLATE, a=(0, 1)))
        maps = list(first)
        x, y = self.words[-1], self.words[0]
        before = evaluate_cocycle(x, y, maps, self.ctx)
        maps[1] = other[1]
        after = evaluate_cocycle(x, y, maps, self.ctx)
        assert before == evaluate_cocycle(x, y, first, self.ctx)
        assert after == evaluate_cocycle(x, y, other, self.ctx) != before
        assert word_product(x, maps, self.ctx) == word_product(x, other, self.ctx)

    def test_a_tampered_tuple_fails_on_its_first_value(self):
        good = self.maps(StageLabel(LABEL_RIGID_TRANSLATE, a=(1, 1)),
                         StageLabel(LABEL_RIGID_ROTATE, k=1))
        bad = (good[0], CocycleStageMaps(2, good[1].cuts, (0, 2) + good[1].beta[2:],
                                         good[1].alpha))
        x, y = self.words[-1], self.words[0]
        want = evaluate_cocycle(x, y, good, self.ctx)
        for _ in range(2):  # a refused tuple is not kept
            with pytest.raises(InvalidElementError):
                evaluate_cocycle(x, y, bad, self.ctx)
            with pytest.raises(InvalidElementError):
                word_product(x, bad, self.ctx)
        assert evaluate_cocycle(x, y, good, self.ctx) == want

    def test_tuple_and_list_give_equal_values(self):
        maps = self.maps(StageLabel(LABEL_RIGID_TRANSLATE, a=(1, 2)),
                         StageLabel(LABEL_RIGID_ROTATE, k=1))
        for x in self.words:
            assert word_product(x, maps, self.ctx) == word_product(x, list(maps), self.ctx)
            for y in self.words[::3]:
                assert evaluate_cocycle(x, y, maps, self.ctx) == evaluate_cocycle(
                    x, y, list(maps), self.ctx)


class TestTransitions:
    def setup_method(self):
        self.ctx = small_ctx()

    def test_plain_labels_give_identities(self):
        sched = build_schedule(1, [{"kind": "staircase", "r": 3}])
        maps = [stage_maps(StageLabel(LABEL_PLAIN), sched.stages[0],
                           self.ctx.k_order, self.ctx.module)]
        vals = transition_values(sched, maps, self.ctx)
        assert all(v == self.ctx.identity() for v in vals)

    def test_single_rotate_stage_boundaries(self):
        # one stage, three columns, stepping range of length 1:
        # the nonidentity values sit exactly at the column boundaries
        h = 4
        sched = build_schedule(h, [{"kind": "rigid_staircase", "i": 2, "r": 3}])
        maps = [stage_maps(StageLabel(LABEL_RIGID_ROTATE, k=1), sched.stages[0],
                           self.ctx.k_order, self.ctx.module)]
        vals = transition_values(sched, maps, self.ctx)
        zero = self.ctx.module.zero()
        boundary_1 = sched.stages[0].cuts[1] - 1  # top of column 0
        boundary_2 = sched.stages[0].cuts[2] - 1
        for l, v in enumerate(vals[:-1]):
            if l == boundary_1:
                assert v == (1, zero)
            elif l == boundary_2:
                assert v == (0, zero)
            else:
                assert v == self.ctx.identity()

    def test_wraparound_closes_the_cycle(self):
        sched = concat_delta_blocks([DeltaBlock("1/2", 2, r_start=3)])
        labels = (
            StageLabel(LABEL_RIGID_TRANSLATE, a=(1, 2)),
            StageLabel(LABEL_RIGID_ROTATE, k=1),
        )
        maps = [stage_maps(l, st, self.ctx.k_order, self.ctx.module)
                for l, st in zip(labels, sched.stages)]
        vals = transition_values(sched, maps, self.ctx)
        acc = self.ctx.identity()
        for v in vals:
            acc = self.ctx.mul(acc, v)
        assert acc == self.ctx.identity()
        # and the wrap edge equals the inverse of the rest of the loop
        partial = self.ctx.identity()
        for v in vals[:-1]:
            partial = self.ctx.mul(partial, v)
        assert vals[-1] == inv(self.ctx, partial)


class TestTowerModel:
    def setup_method(self):
        self.ctx = small_ctx()
        self.sched = concat_delta_blocks(
            [DeltaBlock("1/2", 3, r_start=3), DeltaBlock("1/4", 1, r_start=5)]
        )
        self.maps = direct_maps(self.sched, self.ctx)
        self.model = TowerModel(self.sched, self.sched.depth, self.maps, self.ctx)

    def test_cylinder_ids_match_words(self):
        ids = self.model.cylinder_ids(1)
        for l in range(self.model.height):
            w = canonical_word(l, self.sched)
            if w.least_depth <= 1:
                expected = w.residual + (padded(w)[0] if w.least_depth == 0 else 0)
                assert ids[l] == expected
            else:
                assert ids[l] == -1

    def test_cylinder_ids_only_at_the_model_depth_or_above(self):
        assert self.model.cylinder_ids(0).size == self.model.height
        for n0 in (-1, self.model.depth + 1):
            with pytest.raises(ParameterError):
                self.model.cylinder_ids(n0)
            with pytest.raises(ParameterError):
                self.model.cylinder_starts(n0)

    def test_word_products_match_scalar_route(self):
        for l in range(0, self.model.height, 7):
            w = canonical_word(l, self.sched)
            g = word_product(w, self.maps, self.ctx)
            assert int(self.model.word_beta[l]) == g[0]
            # the module part is stored untwisted: theta^(-beta) alpha
            untwisted = tuple(int(x) for x in self.model.word_untwisted[l])
            assert untwisted == act(self.ctx, -g[0], g[1])

    def test_transitions_match_scalar_route(self):
        d_beta, d_alpha = self.model.step_values(1)
        h = self.model.height
        for l in range(0, h, 11):
            x = canonical_word(l, self.sched)
            y = canonical_word((l + 1) % h, self.sched)
            b, a = evaluate_cocycle(x, y, self.maps, self.ctx)
            assert int(d_beta[l]) == b
            assert tuple(int(v) for v in d_alpha[l]) == a

    def test_step_values_match_pairwise_cocycle(self):
        steps = self.sched.height(3)
        d_beta, d_alpha = self.model.step_values(steps)
        h = self.model.height
        for l in range(0, h, 13):
            b, a = cocycle_between(self.model, l, (l + steps) % h)
            assert int(d_beta[l]) == b
            assert tuple(int(v) for v in d_alpha[l]) == a


def test_apply_theta_pow_matches_scalar_action(shipped_product):
    # product_23: kappa = 6 acting on a rank-3 module; every exponent t < kappa
    # appears, then random ones
    model = shipped_product.model(1)
    ctx = model.ctx
    assert ctx.k_order == 6 and len(ctx.module.orders) == 3
    rng = np.random.default_rng(7)
    exps = np.concatenate([np.arange(ctx.k_order), rng.integers(0, ctx.k_order, 600)])
    vecs = np.stack([rng.integers(0, n, exps.size) for n in ctx.module.orders], axis=1)
    got = model._apply_theta_pow(exps, vecs)
    assert (got != vecs).any()
    for t, v, w in zip(exps.tolist(), vecs.tolist(), got.tolist()):
        assert tuple(w) == act(ctx, t, tuple(v)), (t, v)


def gathered_theta_pow(model, exps, vecs):
    """theta^{exps[l]}(vecs[l]) as first computed: per level, one gather of a
    matrix entry for each of the rank^2 (i, j)."""
    out = np.zeros_like(vecs)
    rank = len(model._orders)
    for i in range(rank):
        for j in range(rank):
            out[:, i] += model._theta_mats[:, i, j][exps] * vecs[:, j]
    return out % model._orders


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_apply_theta_pow_equals_gathered_entries(shipped_product, data):
    # product_23: kappa = 6 on a rank-3 module; exponents grouped any way,
    # zero included, and the input left as it was
    model = shipped_product.model(1)
    kappa, orders = model.ctx.k_order, model._orders
    assert kappa == 6 and len(orders) == 3
    n = data.draw(st.integers(0, 400))
    exps = data.draw(arrays(np.int64, n, elements=st.integers(0, kappa - 1)))
    vecs = data.draw(arrays(np.int64, (n, 3), elements=st.integers(0, 6))) % orders
    before = vecs.copy()
    got = model._apply_theta_pow(exps, vecs)
    assert np.array_equal(vecs, before)
    assert np.array_equal(got, gathered_theta_pow(model, exps, vecs))


def test_semidirect_act_matches_module_action(shipped_product):
    ctx = shipped_product.ctx
    rng = random.Random(3)
    module = ctx.module
    samples = [module.element_by_index(rng.randrange(module.size)) for _ in range(20)]
    # binary powers of theta: independent of the power table that act reads
    theta = ctx.action.generator_maps[0]
    powers = [binary_power(theta, k) for k in range(ctx.k_order)]
    for k in range(-ctx.k_order, 2 * ctx.k_order):
        for a in samples:
            assert act(ctx, k, a) == powers[k % ctx.k_order].apply(a)
    for bad_k in (1.0, np.int64(1), "1", None):
        with pytest.raises(InvalidElementError):
            act(ctx, bad_k, samples[0])


def test_group_part_telescopes_to_zero():
    ctx = small_ctx()
    sched = concat_delta_blocks([DeltaBlock("1/2", 4)])
    model = TowerModel(sched, sched.depth, direct_maps(sched, ctx), ctx)
    d_beta, d_alpha = model.step_values(1)
    assert int(d_beta.sum() % ctx.k_order) == 0


def test_twisted_module_map_is_a_cocycle_on_the_skew_relation():
    # on pairs of skew states ((l, k), (l', k + beta(l, l'))) the twisted
    # value k . alpha(l, l') satisfies the chain rule exactly
    ctx = small_ctx()
    sched = concat_delta_blocks([DeltaBlock("1/2", 3, r_start=3)])
    model = TowerModel(sched, sched.depth, direct_maps(sched, ctx), ctx)
    rng = random.Random(11)
    h = model.height
    for _ in range(200):
        l1, l2, l3 = (rng.randrange(h) for _ in range(3))
        k1 = rng.randrange(ctx.k_order)
        b12, a12 = cocycle_between(model, l1, l2)
        b23, a23 = cocycle_between(model, l2, l3)
        b13, a13 = cocycle_between(model, l1, l3)
        k2 = (k1 + b12) % ctx.k_order
        lhs = act(ctx, k1, a13)
        rhs = ctx.module.add(act(ctx, k1, a12), act(ctx, k2, a23))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the unchecked K x| A kernel and the checks at its boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["direct_12", "product_23"])
def test_unchecked_kernel_equals_checked_product(name, shipped_direct, shipped_product):
    session = shipped_direct if name == "direct_12" else shipped_product
    ctx = session.ctx
    # every direct_12 entry is the identity, so the random left factors below
    # carry the non-trivial products there
    entries = {(b, a) for m in session.maps for b, a in zip(m.beta, m.alpha)}
    rng = random.Random(len(name))
    module = ctx.module
    lefts = list(entries) + [
        (rng.randrange(ctx.k_order), module.element_by_index(rng.randrange(module.size)))
        for _ in range(30)
    ]
    for e in sorted(entries):
        assert ctx._inv(e) == inv(ctx, e)
        for g in lefts:
            assert ctx._mul(g, e) == ctx.mul(g, e), (g, e)
            assert ctx._mul(e, g) == ctx.mul(e, g), (e, g)


def test_stage_entries_mark_identities(shipped_product):
    ctx = shipped_product.ctx
    for maps in shipped_product.maps:
        table = maps.entries(ctx)
        assert list(table) == list(maps.cuts)
        for c, b, a in zip(maps.cuts, maps.beta, maps.alpha):
            assert table[c] == (None if (b, a) == ctx.identity() else (b, a))
    assert any(v is not None for m in shipped_product.maps for v in m.entries(ctx).values())


class TestKernelBoundary:
    def setup_method(self):
        self.ctx = small_ctx()  # K = Z/2 on Z/2 + Z/3
        self.sched = build_schedule(2, [{"kind": "rigid_staircase", "i": 2, "r": 3}])
        self.good = stage_maps(StageLabel(LABEL_RIGID_TRANSLATE, a=(1, 1)),
                               self.sched.stages[0], self.ctx.k_order, self.ctx.module)

    def tampered(self, beta=None, alpha=None):
        return CocycleStageMaps(self.good.stage_index, self.good.cuts,
                                beta or self.good.beta, alpha or self.good.alpha)

    @pytest.mark.parametrize("beta, alpha", [
        (None, ((0, 0), (1, 3), (0, 1))),  # module coordinate out of range
        (None, ((0, 0), (1, -1), (0, 1))),
        (None, ((0, 0), [1, 1], (0, 1))),  # not a tuple
        (None, ((0, 0), (1,), (0, 1))),  # wrong rank
        (None, ((0, 0), (1, 1.0), (0, 1))),
        ((0, 2, 0), None),  # group exponent out of range
        ((0, -1, 0), None),
        ((0, 1.0, 0), None),
        ((0, np.int64(1), 0), None),
    ])
    def test_evaluate_cocycle_rejects_bad_entries(self, beta, alpha):
        maps = [self.tampered(beta, alpha)]
        x = canonical_word(self.sched.stages[0].cuts[1], self.sched)
        y = canonical_word(0, self.sched)
        with pytest.raises(InvalidElementError):
            evaluate_cocycle(x, y, maps, self.ctx)
        # the good tables pass the same boundary
        assert evaluate_cocycle(x, y, [self.good], self.ctx)[1] == (1, 2)

    def test_unknown_cut_still_fails(self):
        word = CoordinateWord(1, 0, 0, (1,))
        with pytest.raises(KeyError):
            word_product(word, [self.good], self.ctx)

    def test_public_operations_still_check(self):
        ctx = self.ctx
        e = (1, (1, 2))
        for bad in [(1, 3), (2, 0), [1, 1], (1,), (np.int64(1), 0), (1.0, 0)]:
            with pytest.raises(InvalidElementError):
                act(ctx, 1, bad)
            with pytest.raises(InvalidElementError):
                ctx.mul(e, (0, bad))
            with pytest.raises(InvalidElementError):
                inv(ctx, (1, bad))
        for bad_k in (1.0, np.int64(1)):
            with pytest.raises(InvalidElementError):
                ctx.mul((bad_k, (0, 0)), e)
        # both operands are checked in full: the left module part, the right
        # exponent, and the exponent that inv negates
        with pytest.raises(InvalidElementError):
            ctx.mul((0, (5, 7)), (0, (0, 0)))
        with pytest.raises(InvalidElementError):
            ctx.mul((0, [1, 1]), (7, (0, 0)))
        with pytest.raises(InvalidElementError):
            inv(ctx, (9, (0, 0)))
        for bad_k in (1.0, np.int64(1), "1", None):
            with pytest.raises(InvalidElementError):
                act(ctx, bad_k, (0, 0))
