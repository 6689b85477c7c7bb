from fractions import Fraction

import pytest

from cfspectra.cf_builder import (
    KIND_DELAYED_STAIRCASE,
    KIND_RIGID_STAIRCASE,
    KIND_STAIRCASE,
    CFSchedule,
    CFStage,
    DeltaBlock,
    build_schedule,
    concat_delta_blocks,
    cut_stage,
    rigid_count,
    validate,
)
from cfspectra.errors import ParameterError, ScheduleError


def oracle_two_regime(h, i, r):
    """Direct recursion: +h below i, +h+(j-i) from i on."""
    c = [0]
    for j in range(1, r):
        c.append(c[-1] + h + (j - i if j >= i else 0))
    return c


def oracle_three_regime(h, i, r):
    c = [0]
    for j in range(1, r):
        if j < i:
            c.append(c[-1] + h)
        elif j < 2 * i:
            c.append(c[-1] + h + 1)
        else:
            c.append(c[-1] + h + (j - 2 * i))
    return c


class TestCutShapes:
    def test_two_regime_frozen_example(self):
        st = cut_stage(KIND_RIGID_STAIRCASE, 5, 2, 4)
        assert st.cuts == (0, 5, 10, 16)
        assert st.new_height == 21

    def test_two_regime_pure_arithmetic(self):
        st = cut_stage(KIND_RIGID_STAIRCASE, 7, 5, 5)
        assert st.cuts == tuple(7 * j for j in range(5))
        assert st.new_height == 5 * 7  # no spacers

    def test_two_regime_small(self):
        # recursion oracle: h=1, i=1, r=3 gives 0, 0+1+0, 1+1+1
        assert oracle_two_regime(1, 1, 3) == [0, 1, 3]
        st = cut_stage(KIND_RIGID_STAIRCASE, 1, 1, 3)
        assert st.cuts == (0, 1, 3)

    @pytest.mark.parametrize("h,i,r", [(1, 1, 2), (3, 2, 7), (10, 4, 4), (2, 1, 9)])
    def test_two_regime_matches_oracle(self, h, i, r):
        assert list(cut_stage(KIND_RIGID_STAIRCASE, h, i, r).cuts) == oracle_two_regime(h, i, r)

    def test_two_regime_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            cut_stage(KIND_RIGID_STAIRCASE, 5, 0, 4)
        with pytest.raises(ParameterError):
            cut_stage(KIND_RIGID_STAIRCASE, 5, 5, 4)
        with pytest.raises(ParameterError):
            cut_stage(KIND_RIGID_STAIRCASE, 5, 1, 1)

    def test_three_regime_frozen_example(self):
        st = cut_stage(KIND_DELAYED_STAIRCASE, 5, 2, 6)
        assert st.cuts == (0, 5, 11, 17, 22, 28)

    def test_three_regime_no_staircase_at_boundary(self):
        st = cut_stage(KIND_DELAYED_STAIRCASE, 4, 3, 6)
        assert st.regimes == ("rigid",) * 3 + ("offset",) * 3
        assert st.cuts == (0, 4, 8, 13, 18, 23)

    def test_three_regime_small(self):
        assert oracle_three_regime(1, 1, 4) == [0, 2, 3, 5]
        assert cut_stage(KIND_DELAYED_STAIRCASE, 1, 1, 4).cuts == (0, 2, 3, 5)

    @pytest.mark.parametrize("h,i,r", [(1, 1, 2), (5, 2, 8), (3, 3, 9)])
    def test_three_regime_matches_oracle(self, h, i, r):
        st = cut_stage(KIND_DELAYED_STAIRCASE, h, i, r)
        assert list(st.cuts) == oracle_three_regime(h, i, r)

    def test_three_regime_rejects_overflow(self):
        with pytest.raises(ParameterError):
            cut_stage(KIND_DELAYED_STAIRCASE, 5, 4, 6)

    def test_staircase_frozen_examples(self):
        assert cut_stage(KIND_STAIRCASE, 3, 0, 4).cuts == (0, 3, 7, 12)
        assert cut_stage(KIND_STAIRCASE, 9, 0, 2).cuts == (0, 9)
        assert cut_stage(KIND_STAIRCASE, 1, 0, 3).cuts == (0, 1, 3)

    @pytest.mark.parametrize("h,r", [(1, 2), (3, 4), (5, 9)])
    def test_staircase_is_the_rigid_rule_with_one_rigid_column(self, h, r):
        st = cut_stage(KIND_STAIRCASE, h, 7, r, delta=Fraction(1, 2))
        assert st.cuts == cut_stage(KIND_RIGID_STAIRCASE, h, 1, r).cuts
        assert st.regimes == ("rigid",) + ("staircase",) * (r - 1)
        assert (st.i_count, st.delta) == (0, None)  # i and delta are ignored

    def test_short_staircase_and_unknown_kind_are_refused(self):
        with pytest.raises(ParameterError):
            cut_stage(KIND_STAIRCASE, 5, 0, 1)
        with pytest.raises(ScheduleError):
            cut_stage("spiral", 5, 1, 4)
        with pytest.raises(ScheduleError):
            build_schedule(1, [{"kind": "spiral", "i": 1, "r": 4}])

    def test_staircase_second_difference_is_one(self):
        st = cut_stage(KIND_STAIRCASE, 4, 0, 8)
        diffs = [b - a for a, b in zip(st.cuts, st.cuts[1:])]
        assert all(d2 - d1 == 1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_disjointness_and_containment(self):
        for st in [
            cut_stage(KIND_RIGID_STAIRCASE, 5, 2, 6),
            cut_stage(KIND_DELAYED_STAIRCASE, 5, 2, 6),
            cut_stage(KIND_STAIRCASE, 5, 0, 6),
        ]:
            assert st.min_gap() >= st.base_height
            assert st.new_height == st.cuts[-1] + st.base_height


class TestSchedule:
    def test_heights_chain(self):
        sched = build_schedule(
            1,
            [
                {"kind": "rigid_staircase", "i": 2, "r": 3},
                {"kind": "rigid_staircase", "i": 2, "r": 4},
            ],
        )
        assert sched.heights() == (1, 3, 13)
        assert sched.height(2) == 13

    def test_broken_chain_rejected(self):
        st1 = cut_stage(KIND_RIGID_STAIRCASE, 1, 2, 3, index=1)
        st2 = cut_stage(KIND_RIGID_STAIRCASE, 99, 2, 3, index=2)
        with pytest.raises(ScheduleError):
            CFSchedule(1, (st1, st2))


class TestDeltaBlocks:
    def test_single_block_is_identity(self):
        blk = DeltaBlock(Fraction(1, 2), 3)
        sched = concat_delta_blocks([blk])
        assert sched.depth == 3
        assert [st.r_count for st in sched.stages] == [2, 3, 4]

    def test_two_blocks_seam(self):
        sched = concat_delta_blocks(
            [DeltaBlock(Fraction(1, 2), 3), DeltaBlock(Fraction(1, 4), 3)]
        )
        # heights chain continuously across the seam
        assert sched.stages[3].base_height == sched.stages[2].new_height
        # column counts reset to 2, 3, 4 inside block 2
        assert [st.r_count for st in sched.stages[3:]] == [2, 3, 4]
        assert [st.block for st in sched.stages] == [1, 1, 1, 2, 2, 2]

    def test_non_monotone_deltas_rejected(self):
        with pytest.raises(ScheduleError):
            concat_delta_blocks(
                [DeltaBlock(Fraction(1, 4), 2), DeltaBlock(Fraction(1, 2), 2)]
            )

    def test_delta_tracking_within_one_over_r(self):
        blocks = [DeltaBlock(Fraction(1, 2**j), 2) for j in range(1, 5)]
        sched = concat_delta_blocks(blocks)
        for st in sched.stages:
            assert abs(Fraction(st.i_count, st.r_count) - st.delta) <= Fraction(1, st.r_count)

    def test_one_cut_kind_per_stage(self):
        blocks = [DeltaBlock(Fraction(3, 4), 2, r_start=4),
                  DeltaBlock(Fraction(1, 4), 1, r_start=8)]
        kinds = ["delayed_staircase", "rigid_staircase", "delayed_staircase"]
        sched = concat_delta_blocks(blocks, 1, kinds)
        assert [st.kind for st in sched.stages] == kinds
        assert [st.i_count for st in sched.stages] == [2, 4, 2]  # delayed needs 2i <= r
        with pytest.raises(ScheduleError):
            concat_delta_blocks(blocks, 1, kinds[:2])

    def test_rigid_count_rounds_to_nearest(self):
        assert rigid_count(Fraction(1, 2), 8) == 4
        assert rigid_count(Fraction(1, 16), 4) == 1  # clamped up to 1
        assert rigid_count(Fraction(1, 2), 7, "delayed_staircase") == 3  # 2i <= r


class TestValidate:
    def test_generated_stage_passes(self):
        sched = build_schedule(5, [{"kind": "rigid_staircase", "i": 2, "r": 4}])
        rep = validate(sched)
        assert rep.ok
        assert rep.stage_checks[0]["columns_disjoint"]

    def test_gap_violation_flagged(self):
        bad = CFStage(
            index=1, base_height=5, cuts=(0, 3, 8), i_count=2, r_count=3,
            kind="rigid_staircase", regimes=("rigid", "rigid", "staircase"),
        )
        rep = validate(CFSchedule(5, (bad,)))
        assert not rep.ok
        assert any("columns_disjoint" in f for f in rep.failures)

    def test_pure_staircase_depth_12(self):
        specs = [{"kind": "staircase", "r": n} for n in range(2, 14)]
        sched = build_schedule(1, specs)
        rep = validate(sched)
        assert rep.ok
        assert rep.ratio_bounded
        assert all(q == 0 for q in rep.mixing_ratios)  # i = 0 convention
        assert rep.mixing_trend_ok
        assert any("diagnostic-only" in w for w in rep.warnings)

    def test_ratio_monotone_and_bounded(self):
        sched = concat_delta_blocks(
            [DeltaBlock(Fraction(1, 2), 3), DeltaBlock(Fraction(1, 4), 3)]
        )
        rep = validate(sched)
        assert rep.ok
        assert all(b >= a for a, b in zip(rep.ratios, rep.ratios[1:]))
        assert 0 <= rep.spacer_fraction < 1

    def test_spacer_fraction_zero_for_pure_arithmetic(self):
        sched = build_schedule(2, [{"kind": "rigid_staircase", "i": 3, "r": 3}])
        assert validate(sched).spacer_fraction == 0

    def test_mixing_trend_flagged_when_increasing(self):
        # growing i with slowly growing h makes i^2/h increase
        specs = [{"kind": "rigid_staircase", "i": j, "r": j, "delta": None} for j in (2, 2, 2, 3)]
        specs = [{"kind": "rigid_staircase", "i": s["i"], "r": s["r"]} for s in specs]
        sched = build_schedule(1, specs)
        rep = validate(sched)
        assert not rep.mixing_trend_ok
