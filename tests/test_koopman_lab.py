import dataclasses
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfspectra.cf_builder import DeltaBlock
from cfspectra.cocycle_engine import TowerModel, canonical_word, evaluate_cocycle
from cfspectra.errors import (
    CharacterTypeError,
    ConsistencyError,
    InvalidElementError,
    LabelError,
    LagRangeError,
    ParameterError,
    SizeCapError,
)
from cfspectra.finite_algebra import (
    Character,
    CyclotomicSum,
    FiniteAbelianGroup,
    GroupAutomorphism,
    ModuleAction,
    cyclo_equal,
    orbit_average,
)
from cfspectra.koopman_lab import (
    PhasedCycleOperator,
    build_component,
    class_equivalence_check,
    correlation_decay,
    disjointness_certificate,
    exact_spectrum,
    factor_classes,
    loop_product,
    multiplicity_report,
    sample_lags,
    weak_limit_probe,
)
from cfspectra.module_factory import assemble_triple, dualize
from cfspectra.session import SessionConfig, synth
from oracles import apply, apply_inverse, binary_power, simplicity_probe
from test_finite_algebra import refusal_peak


@pytest.fixture(scope="module")
def direct_session():
    return synth(SessionConfig(
        mode="direct", targets=(1, 2),
        blocks=(DeltaBlock(Fraction(1, 2), 4, r_start=3),),
    ))


@pytest.fixture(scope="module")
def probe_session():
    return synth(SessionConfig(
        mode="direct", targets=(1, 2),
        blocks=(DeltaBlock(Fraction(1, 2), 4, r_seq=(8, 8, 64, 64)),),
    ))


@pytest.fixture(scope="module")
def product_session():
    return synth(SessionConfig(
        mode="product", targets=(2, 3),
        blocks=(DeltaBlock(Fraction(1, 2), 5, r_seq=(6, 6, 6, 6, 64)),),
    ))


def with_cap(session, cap):
    """The session under another state cap, not re-synthesized."""
    return dataclasses.replace(session, config=dataclasses.replace(session.config, state_cap=cap))


class TestExactSpectrum:
    def test_apply_matches_matrix(self):
        op = PhasedCycleOperator([1, 2, 0], [1, 0, 2], 3)
        v = np.array([1.0, 2.0, 3.0], dtype=complex)
        w = apply(op, v)
        z = np.exp(2j * np.pi / 3)
        assert np.allclose(w, [z * 2.0, 3.0, z**2 * 1.0])
        assert np.allclose(apply_inverse(op, apply(op, v)), v)


class TestComponents:
    def test_trivial_eta_is_pure_cycle(self, direct_session):
        s = direct_session
        h = s.schedule.height(3)
        op = build_component(s, Character(s.triple.k_group, (0,)), depth=3)
        assert not op.phase_exp.any()
        assert np.array_equal(op.succ, (np.arange(h) + 1) % h)
        assert exact_spectrum(s, 3)["eta"] == {
            "cycles": [{"length": h, "phase_num": 0, "phase_den": 1, "count": 1}],
            "total_multiplicity": h,
        }

    def test_eta_component_single_cycle_simple_spectrum(self, direct_session):
        # one h-cycle with total phase 0: the h distinct h-th roots of unity
        s = direct_session
        h = s.schedule.height(3)
        for e in range(s.k_order):
            op = build_component(s, Character(s.triple.k_group, (e,)), depth=3)
            assert np.array_equal(op.succ, (np.arange(h) + 1) % h)
            assert op.phase_exp.sum() % op.phase_order == 0

    def test_plain_labels_give_phase_free_chi(self):
        s = synth(SessionConfig(mode="direct", targets=(1,), shape="staircase",
                                r_seq=(2, 3, 4)))
        d = s.factor_characters()[1]
        op = build_component(s, s.duality.character_of_dual(d))
        assert not op.phase_exp.any()

    def test_rotate_stage_phases_at_boundaries(self):
        # single rotate stage: phases are eta(-k) exactly at column boundaries
        s = synth(SessionConfig(mode="direct", targets=(1, 2),
                                blocks=(DeltaBlock(Fraction(1, 2), 2, r_start=3),)))
        op = build_component(s, Character(s.triple.k_group, (1,)), depth=2)
        st = s.stage(2)
        assert s.label(2).kind == "rigid_rotate"
        interior = [l for l in range(st.base_height - 1)]
        assert not op.phase_exp[interior].any()

    def test_wrong_dual_rejected(self, direct_session):
        foreign = Character(FiniteAbelianGroup((5,)), (1,))
        with pytest.raises(CharacterTypeError):
            build_component(direct_session, foreign)

    @pytest.mark.parametrize("name, depth", [("shipped_product", 6), ("probe_kappa3", 4)])
    def test_components_equal_scalar_oracle(self, request, name, depth):
        # state (l, k) steps to (l + 1, k + b) with phase chi_d(theta^k a), for
        # the transition value (b, a) of l -> l + 1 from the scalar cocycle and
        # theta^k from binary powers, not from the action's tables.  product_23
        # has a non-symmetric theta and a != 0 at depth 6; probe_kappa3 has
        # kappa = 3 and b != 0 at depth 4
        s = request.getfixturevalue(name)
        h, kappa, n = s.schedule.height(depth), s.k_order, s.root_order
        theta = s.ctx.action.generator_maps[0]
        words = [canonical_word(l, s.schedule, depth) for l in range(h)]
        values = [evaluate_cocycle(words[l], words[(l + 1) % h], s.maps, s.ctx)
                  for l in range(h)]
        assert any(b for b, _ in values) or any(map(any, (a for _, a in values)))
        for e in range(kappa):
            op = build_component(s, Character(s.triple.k_group, (e,)), depth=depth)
            assert op.phase_exp.tolist() == [e * b * (n // kappa) % n for b, _ in values]
        scale = n // s.duality.dual_module.exponent
        for d in s.factor_characters()[1:4]:
            chi = s.duality.character_of_dual(d)
            op = build_component(s, chi, depth=depth)
            for l, (b, a) in enumerate(values):
                for k in range(kappa):
                    state = l * kappa + k
                    assert op.succ[state] == (l + 1) % h * kappa + (k + b) % kappa
                    moved = binary_power(theta, k).apply(a)
                    assert op.phase_exp[state] == chi.evaluate(moved) * scale

    def test_chi_cycle_holonomy_telescopes(self, direct_session):
        # walk each cycle of a built chi component from its level-0 state:
        # it closes after exactly h steps with total phase 0, as the closed
        # form says once the loop product is the identity
        s = direct_session
        for depth in range(1, s.schedule.depth + 1):
            assert loop_product(s.model(depth)) == s.ctx.identity()
        h, kappa = s.schedule.height(3), s.k_order
        for d in s.factor_characters():
            op = build_component(s, s.duality.character_of_dual(d), depth=3)
            pos = np.arange(kappa)  # states (level 0, k)
            total, seen = np.zeros(kappa, dtype=np.int64), []
            for _ in range(h):
                seen.extend(pos.tolist())
                total += op.phase_exp[pos]
                pos = op.succ[pos]
            assert np.array_equal(pos, np.arange(kappa))  # each walk closes after h steps
            assert len(set(seen)) == h * kappa  # and the kappa walks cover every state
            assert not (total % op.phase_order).any()
        assert exact_spectrum(s, 3)["chi"] == {
            "cycles": [{"length": h, "phase_num": 0, "phase_den": 1, "count": kappa}],
            "total_multiplicity": h * kappa,
        }

    def test_loop_product_matches_scalar_fold(self, product_session, monkeypatch):
        # the prefix-sum formula against a left-to-right fold of ctx.mul, on
        # honest transition values and on values with one level corrupted
        s = product_session
        ctx = s.ctx

        def fold(model):
            d_beta, d_alpha = model.step_values(1)
            values = [(int(b), tuple(int(x) for x in a)) for b, a in zip(d_beta, d_alpha)]
            return reduce(ctx.mul, values, ctx.identity())

        model = s.model(3)
        assert loop_product(model) == fold(model) == ctx.identity()
        honest = TowerModel.step_values

        def corrupted(self, steps):
            d_beta, d_alpha = honest(self, steps)
            d_beta, d_alpha = d_beta.copy(), d_alpha.copy()
            d_beta[1] = (d_beta[1] + 1) % self.ctx.k_order
            d_alpha[2, 0] = (d_alpha[2, 0] + 1) % self._orders[0]
            return d_beta, d_alpha

        monkeypatch.setattr(TowerModel, "step_values", corrupted)
        assert loop_product(model) == fold(model) != ctx.identity()
        with pytest.raises(ConsistencyError):
            class_equivalence_check(model)


class TestWeakLimitProbes:
    def test_rigidity_on_translate_stage(self, probe_session):
        rep = weak_limit_probe(probe_session, 3, ("eta", 0))
        assert rep.prediction_kind == "partial_rigidity"
        assert rep.tolerance == pytest.approx(3 / 64)
        assert rep.passed

    def test_orbit_average_on_translate_stage(self, probe_session):
        for d in [(1, 0), (0, 1), (1, 2)]:
            rep = weak_limit_probe(probe_session, 3, ("chi", d))
            assert rep.prediction_kind == "orbit_average"
            assert rep.passed, f"{d}: {rep.max_deviation} > {rep.tolerance}"

    def test_rotation_on_rotate_stage(self, probe_session):
        for e in range(probe_session.k_order):
            rep = weak_limit_probe(probe_session, 4, ("eta", e))
            assert rep.passed

    def test_delayed_on_delayed_stage(self, product_session):
        rep = weak_limit_probe(product_session, 5, ("eta", 0))
        assert rep.prediction_kind == "delayed"
        assert rep.passed
        rep = weak_limit_probe(product_session, 5, ("chi", (0, 1, 0)))
        assert rep.prediction_kind == "delayed_orbit_average"
        assert rep.passed

    def test_eta_paths_twist_no_module_vectors(self, product_session, monkeypatch):
        # eta probes and eta components read only the group part of the
        # transition values, and chi probes fold the twist into their bucket
        # table: no probe computes a transition value or a twist per level
        def refuse(*args):
            raise AssertionError("a probe path twisted module parts per level")

        monkeypatch.setattr(TowerModel, "_apply_theta_pow", refuse)
        monkeypatch.setattr(TowerModel, "step_values", refuse)
        rep = weak_limit_probe(product_session, 5, ("eta", 1))
        assert rep.prediction_kind == "delayed" and rep.passed
        model = product_session.model(5)
        op = build_component(product_session, Character(product_session.triple.k_group, (1,)),
                             depth=5)
        assert op.n_states == model.height
        rep = weak_limit_probe(product_session, 4, ("chi", (0, 1, 0)))
        assert rep.prediction_kind == "orbit_average" and rep.passed
        rep = weak_limit_probe(product_session, 5, ("chi", (0, 1, 0)))
        assert rep.prediction_kind == "delayed_orbit_average" and rep.passed

    def test_pair_table_sums_to_cylinder_carpet(self, probe_session):
        # summing the table over all pairs gives <U^h 1_C, 1_C> for the union
        # C of the cylinders; cross-check by direct counting
        s = probe_session
        rep = weak_limit_probe(s, 3, ("eta", 0))
        total = sum(r["value"][0] for r in rep.rows)
        model = s.model(3)
        cyl = model.cylinder_ids(1)
        h_n = s.stage(3).base_height
        covered = cyl >= 0
        direct = (covered & np.roll(covered, -h_n)).sum() / model.height
        assert total == pytest.approx(direct, abs=1e-12)

    def test_trivial_chi_reduces_to_rigidity(self, probe_session):
        rep = weak_limit_probe(probe_session, 3, ("chi", (0, 0)))
        assert rep.prediction_kind == "partial_rigidity"
        assert rep.passed

    def test_plain_stage_rejected(self):
        s = synth(SessionConfig(mode="direct", targets=(1,), shape="staircase",
                                r_seq=(2, 3)))
        with pytest.raises(LabelError):
            weak_limit_probe(s, 1, ("eta", 0))

    def test_oversized_probe_table_is_refused_before_allocating(self):
        # at cylinder level 3 the stage-4 eta table has ((h_3 + 1) * kappa)**2
        # entries, over the default state cap of 2 * 10**6
        s = synth(SessionConfig(mode="direct", targets=(1, 2), cylinder_level=3,
                                blocks=(DeltaBlock(Fraction(1, 2), 4, r_seq=(8, 8, 64, 64)),)))
        assert ((s.schedule.height(3) + 1) * s.k_order) ** 2 > s.config.state_cap
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match="probe table"):
                weak_limit_probe(s, 4, ("eta", 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_tall_stage_is_probed_under_a_cap_below_its_height(self, probe_session):
        # stage 4 has 515,568 levels, yet its eta table holds 392 entries and
        # the counter lists at most 496 level pairs at once, those that cross
        # stage 3's column boundaries at lags up to 31: a cap of 500 refuses
        # nothing, and the report is the uncapped one
        report = weak_limit_probe(with_cap(probe_session, 500), 4, ("eta", 0))
        assert report.to_dict() == weak_limit_probe(probe_session, 4, ("eta", 0)).to_dict()
        # a cap of 450 refuses those level pairs, and a cap of 700 stage
        # 3's chi value tables of (2 * 14)**2 = 784 entries before any pair
        s = with_cap(probe_session, 450)
        with pytest.raises(SizeCapError, match="496 level pairs exceed cap 450"):
            weak_limit_probe(s, 4, ("eta", 0))
        with pytest.raises(SizeCapError, match="probe table of 784 entries exceeds cap 700"):
            weak_limit_probe(with_cap(probe_session, 700), 3, ("chi", (1, 0)))
        # at cylinder level 2, stage 1 has no depth-2 cylinders
        s = synth(dataclasses.replace(probe_session.config, cylinder_level=2))
        with pytest.raises(ParameterError, match="no depth-2 cylinders in a depth-1 tower"):
            weak_limit_probe(s, 1, ("eta", 0))

    def test_probe_bound_counts_the_arrays_the_probe_builds(self, shipped_product):
        # product_23's chi probe at stage 8 builds value tables of
        # (6 * 2)**2 = 144 entries and module images of 6 * 147 * 3 = 2,646:
        # under a cap of 20,000 it runs as uncapped, under 2,646 it is refused
        component = ("chi", (0, 1, 0))
        report = weak_limit_probe(with_cap(shipped_product, 20000), 8, component)
        assert report.to_dict() == weak_limit_probe(shipped_product, 8, component).to_dict()
        with pytest.raises(SizeCapError, match="probe table of 2646 entries exceeds cap 2645"):
            weak_limit_probe(with_cap(shipped_product, 2645), 8, component)

    def test_module_images_over_the_cap_are_refused_before_they_are_built(self):
        # {1, 3, 5}: kappa = 15 and A = Z/2 + Z/7 + (Z/11)^3, so a chi probe's
        # images theta^k w hold 15 * 18,634 * 5 = 1,397,550 entries; built
        # under the default cap, the probe peaks at about 23 MB traced
        s = synth(SessionConfig(mode="direct", targets=(1, 3, 5), state_cap=10**6,
                                blocks=(DeltaBlock(Fraction(1, 2), 2),)))
        assert refusal_peak(lambda: weak_limit_probe(s, 1, ("chi", (0, 1, 0, 0, 0))),
                            "probe table of 1397550 entries exceeds cap 1000000") < 10**5

    def test_level_pairs_over_the_cap_are_refused_before_they_are_listed(self):
        # stage 4 of (8, 8, 32, 512) rotates; its spacer gaps of at least
        # h_2 = 118 levels join the columns of stage 3 at 8,832 listed column
        # offsets, and its shorter gaps cross stage 3's boundaries in 6,903
        # level pairs; listed over the 3,896-level depth-3 tower, its pairs
        # were 511,911.  Under a cap of 10**5 the probe runs as uncapped.
        s = synth(SessionConfig(mode="direct", targets=(1, 2), state_cap=10**5,
                                blocks=(DeltaBlock(Fraction(1, 2), 4, r_seq=(8, 8, 32, 512)),)))
        report = weak_limit_probe(s, 4, ("eta", 1))
        assert report.to_dict() == weak_limit_probe(with_cap(s, 10**9), 4, ("eta", 1)).to_dict()
        # under a lower cap the offsets are refused before they are listed,
        # and so are the 496 crossing pairs of (8, 8, 64, 64)'s stage 4
        assert refusal_peak(lambda: weak_limit_probe(with_cap(s, 8000), 4, ("eta", 1)),
                            "8832 column offsets exceed cap 8000") < 1.5 * 10**5
        s = synth(SessionConfig(mode="direct", targets=(1, 2), state_cap=450,
                                blocks=(DeltaBlock(Fraction(1, 2), 4, r_seq=(8, 8, 64, 64)),)))
        assert refusal_peak(lambda: weak_limit_probe(s, 4, ("eta", 0)),
                            "496 level pairs exceed cap 450") < 10**5

    def test_rotate_stage_has_no_skew_prediction(self, probe_session):
        with pytest.raises(LabelError):
            weak_limit_probe(probe_session, 4, ("chi", (1, 0)))

    @pytest.mark.parametrize("stage, component, error", [
        (3, ("zeta", 0), CharacterTypeError),
        (4, ("chi", (1, 0)), LabelError),
        (3, ("chi", (1,)), InvalidElementError),
        (3, ("chi", (2, 0)), InvalidElementError),
        (3, ("eta", 5), InvalidElementError),
        (4, ("eta", -1), InvalidElementError),
        (0, ("eta", 0), ParameterError),
        (5, ("eta", 0), ParameterError),
        (3, ("eta", True), InvalidElementError),
        (3, ("chi", (True, False)), InvalidElementError),
    ])
    def test_bad_input_is_refused_before_building(self, probe_session, monkeypatch,
                                                   stage, component, error):
        # no model can be built; under a state cap of 1, which refuses every
        # table, the input is still judged first.  Stages 0 and 5 lie outside
        # the 4-stage schedule: at cylinder level 0, stage 0 would read stage
        # 4's label against a depth-0 tower
        def refuse(*args, **kwargs):
            raise AssertionError("a tower model was built for a refused probe")

        monkeypatch.setattr(TowerModel, "__init__", refuse)
        for cap in (probe_session.config.state_cap, 1):
            for n0 in (1, 0):
                config = dataclasses.replace(probe_session.config, state_cap=cap,
                                             cylinder_level=n0)
                s = dataclasses.replace(probe_session, config=config)
                with pytest.raises(error):
                    weak_limit_probe(s, stage, component)

    def test_mean_zero_vectors_weak_mixing_shadow(self, probe_session):
        # |<U^h v, v>| <= delta ||v||^2 + 3/r for mean-zero v on translate stages
        s = probe_session
        rep = weak_limit_probe(s, 3, ("eta", 0))
        n_cyl = s.schedule.height(1)
        vals = np.zeros((n_cyl, n_cyl), dtype=complex)
        mu = np.zeros(n_cyl)
        for row in rep.rows:
            vals[row["v"], row["u"]] = row["value"][0] + 1j * row["value"][1]
        model = s.model(3)
        cyl = model.cylinder_ids(1)
        for f in range(n_cyl):
            mu[f] = (cyl == f).sum() / model.height
        # v = 1_B0 - mu(B0) * 1 has <U^h v, v> = vals[0,0] - mu0 * (row sums)
        v00 = vals[0, 0] - mu[0] * vals[0, :].sum() - mu[0] * vals[:, 0].sum() \
            + mu[0] ** 2 * vals.sum()
        norm_sq = mu[0] * (1 - mu[0])
        assert abs(v00) <= 0.5 * norm_sq + 3 / 64


class TestCorrelationDecay:
    def setup_method(self):
        self.session = synth(SessionConfig(
            mode="direct", targets=(1,), shape="staircase", r_seq=(2, 2, 3, 3, 4),
        ))
        self.model = self.session.model()

    def test_lag_zero_self_correlation(self):
        rows = correlation_decay(self.model, [(0, 0)], [0])
        cyl = self.model.cylinder_ids(1)
        mu = Fraction(int((cyl == 0).sum()), self.model.height)
        assert rows[0].value == mu * (1 - mu)

    def test_out_of_range_lag(self):
        with pytest.raises(LagRangeError):
            correlation_decay(self.model, [(0, 0)], [self.model.height])

    def test_unknown_cylinder_refused(self):
        # an id outside range(n_cyl) names no cylinder; read as an empty set
        # it would show as perfect decay
        assert self.session.schedule.height(1) == 2
        for pair in [(5, 5), (0, 2), (-1, 0)]:
            with pytest.raises(ParameterError, match=rf"\({pair[0]}, {pair[1]}\).* 2 depth-1"):
                correlation_decay(self.model, [pair], [0])

    def test_cylinder_level_is_checked_before_it_is_read(self, shipped_direct):
        # direct_12's depth-3 tower has no depth-12 cylinders (no height 12
        # is read) and no depth-(-1) ones (the last height is no cylinder count)
        tower = shipped_direct.tower_at(3)
        for n0 in (12, -1):
            with pytest.raises(ParameterError, match=rf"no depth-{n0} cylinders in a depth-3"):
                correlation_decay(tower, [(0, 0)], [0], n0)

    def test_decay_pairs_over_the_cap_are_refused_before_they_are_formed(self):
        # the top stage stacks 10,000 columns over a 262,144-level tower: the
        # late window's 144 differences ask 1,440,000 column pairs, so the
        # difference table of the tower below would be built, about 19 MB
        s = synth(SessionConfig(mode="direct", targets=(1,), shape="staircase",
                                r_seq=(2,) * 18 + (10000,), state_cap=10**5))
        below = s.schedule.height(18)
        lags = sample_lags(below, 2 * below)
        pairs = [(f, g) for f in range(2) for g in range(2)]
        # np.unique imports numpy.ma on its first call, about 1 MB traced;
        # imported here, the peak is the refusal's own
        assert np.ma.is_masked(np.ma.masked_array([0], mask=[True]))
        assert refusal_peak(lambda: correlation_decay(s.tower_at(), pairs, lags),
                            "decay pairs of 262144 entries exceed cap 100000") < 10**5

    def test_pure_rotation_has_no_decay(self):
        s = synth(SessionConfig(mode="direct", targets=(1,), shape="arithmetic",
                                r_seq=(2, 2, 2, 2, 2, 2)))
        model = s.model()
        h1 = s.schedule.height(1)
        rows_early = correlation_decay(model, [(0, 0)], [h1])
        rows_late = correlation_decay(model, [(0, 0)], [s.schedule.height(5)])
        # the odometer is rigid at tower heights: correlation stays maximal
        assert rows_late[0].value >= rows_early[0].value

    def test_staircase_decay_trend(self):
        s = synth(SessionConfig(
            mode="direct", targets=(1,), shape="staircase",
            r_seq=(2, 2, 3, 3, 4, 4, 5, 5, 6, 6),
        ))
        model = s.model()
        n_cyl = s.schedule.height(1)
        pairs = [(f, g) for f in range(n_cyl) for g in range(n_cyl)]
        h = s.schedule.heights()
        early = correlation_decay(model, pairs, sample_lags(h[1], 2 * h[1]))
        late = correlation_decay(model, pairs, sample_lags(h[9], 2 * h[9]))
        e_max = max(float(r.value) for r in early)
        l_max = max(float(r.value) for r in late)
        assert l_max <= 0.5 * e_max

    def test_sample_lags_deterministic_and_bounded(self):
        lags = sample_lags(100, 200, count=10)
        assert lags == sample_lags(100, 200, count=10)
        assert lags[0] == 100 and lags[-1] == 200
        assert sample_lags(5, 7) == [5, 6, 7]


class TestCertificates:
    def setup_method(self):
        self.rec = dualize(assemble_triple({1, 2}))

    def test_same_character_witnessed_by_identity(self):
        chi = self.rec.character_of_dual((1, 1))
        cert = disjointness_certificate(self.rec, chi, chi)
        assert cert.equivalent and cert.witness_k == 0

    def test_conjugate_pair_witnessed(self):
        chi = self.rec.character_of_dual((0, 1))
        chi2 = self.rec.character_of_dual((0, 2))  # the orbit partner
        cert = disjointness_certificate(self.rec, chi, chi2)
        assert cert.equivalent and cert.witness_k == 1

    def test_separating_element_found(self):
        chi = self.rec.character_of_dual((1, 0))
        chi2 = self.rec.character_of_dual((0, 1))
        cert = disjointness_certificate(self.rec, chi, chi2)
        assert not cert.equivalent
        assert not cyclo_equal(cert.l_left, cert.l_right)

    def test_coordinate_action_example(self):
        # module Z/3 + Z/3, group element negates the first coordinate only
        module = FiniteAbelianGroup((3, 3))
        theta = GroupAutomorphism(module, ((2, 0), (0, 1)))
        k2 = FiniteAbelianGroup((2,))
        action = ModuleAction(k2, module, (theta,))

        class FakeTriple:
            k_order = 2

        class FakeDual:
            dual_action = action
            triple = FakeTriple()

        chi1 = Character(module, (1, 0))
        chi2 = Character(module, (0, 1))
        cert = disjointness_certificate(FakeDual(), chi1, chi2)
        assert not cert.equivalent
        assert not cyclo_equal(cert.l_left, cert.l_right)
        # the element with a genuinely averaged orbit separates as 1 vs -1/2
        assert orbit_average(action, chi1, (1, 0)) == CyclotomicSum.from_fraction(
            Fraction(-1, 2)
        )
        assert orbit_average(action, chi2, (1, 0)) == CyclotomicSum.from_fraction(1)


class TestMultiplicityReport:
    def test_trivial_module(self):
        s = synth(SessionConfig(mode="direct", targets=(1,),
                                blocks=(DeltaBlock(Fraction(1, 2), 4, r_start=3),)))
        rep = multiplicity_report(s)
        assert rep.multiplicities == {1}
        assert rep.consistent

    def test_direct_12(self, direct_session):
        rep = multiplicity_report(direct_session)
        assert rep.multiplicities == {1, 2}
        assert sorted(rep.class_sizes) == [1, 2, 2]
        assert rep.consistent
        assert all(all(v.values()) for v in rep.equivalence_verdicts.values())
        assert all(not c.equivalent for c in rep.certificates.values())

    def test_product_23(self, product_session):
        rep = multiplicity_report(product_session)
        assert rep.multiplicities == {2, 3}
        assert set(rep.class_sizes) == {2, 3}
        assert rep.consistent

    def test_single_two_in_product_mode(self):
        s = synth(SessionConfig(mode="product", targets=(2,),
                                blocks=(DeltaBlock(Fraction(1, 2), 4, r_start=4),)))
        rep = multiplicity_report(s)
        assert rep.multiplicities == {2}  # class sizes {2}, square factor adds 2

    def test_classes_partition_nonzero_d(self, product_session):
        classes = factor_classes(product_session)
        union = [d for cls in classes for d in cls]
        d_all = set(product_session.triple.d_elements())
        zero = product_session.triple.module.zero()
        assert sorted(union) == sorted(d_all - {zero})


class TestSimplicityProbe:
    def test_identity_operator_distance_to_line(self):
        ident = PhasedCycleOperator([0, 1, 2], [0, 0, 0], 2)
        v = np.array([1.0, 1.0, 0.0])
        rep = simplicity_probe(ident, None, v, power_window=3)
        assert rep.residuals[0] == pytest.approx(np.sqrt(1 / 2), abs=1e-9)
        assert rep.residuals[2] == pytest.approx(1.0, abs=1e-9)
        assert all(rep.conditioning_flags)  # powers of the identity collapse

    def test_cyclic_vector_spans_quadratic_phases(self):
        n = 15
        succ = (np.arange(n) + 1) % n
        phases = np.array([(2 * t + 1) % n for t in range(n)])
        op = PhasedCycleOperator(succ, phases, n)
        orbit = [0]
        for _ in range(n - 1):
            orbit.append(int(op.succ[orbit[-1]]))
        assert len(set(orbit)) == n  # a single n-cycle: n distinct eigenvalues
        rep = simplicity_probe(op, None, np.ones(n), power_window=n)
        assert rep.max_residual <= 1e-6

    def test_shared_eigenvalue_blocks_joint_cyclicity(self):
        op1 = PhasedCycleOperator([1, 0], [0, 0], 4)  # eigenvalues {1, -1}
        op2 = PhasedCycleOperator([0], [0], 4)  # eigenvalue {1}: collision
        v = np.array([1.0, 0.0, 1.0])
        rep = simplicity_probe(op1, op2, v, power_window=4)
        assert rep.max_residual >= 0.1

    def test_distinct_components_jointly_cyclic(self):
        op1 = PhasedCycleOperator([1, 0], [0, 0], 4)  # {1, -1}
        op2 = PhasedCycleOperator([0], [1], 4)  # {i}: disjoint
        v = np.array([1.0, 0.0, 1.0])
        rep = simplicity_probe(op1, op2, v, power_window=4)
        assert rep.max_residual <= 1e-9


def rolled_decay(model, pairs, lags, n0=1):
    """Decay rows as first computed: a rolled copy of cylinder f's mask per
    (lag, pair), ANDed with cylinder g's and counted."""
    h = model.height
    cyl = model.cylinder_ids(n0)
    masks = {}
    for f, g in pairs:
        masks.setdefault(f, cyl == f)
        masks.setdefault(g, cyl == g)
    sizes = {f: int(m.sum()) for f, m in masks.items()}
    rows = []
    for lag in lags:
        for f, g in pairs:
            count = int(np.count_nonzero(masks[g] & np.roll(masks[f], lag)))
            value = abs(Fraction(count, h) - Fraction(sizes[f] * sizes[g], h * h))
            rows.append((lag, (f, g), value.numerator, value.denominator))
    return rows


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_decay_equals_rolled_masks(shipped_direct, shipped_product, shipped_staircase, data):
    session = data.draw(st.sampled_from([shipped_direct, shipped_product, shipped_staircase]))
    n0 = data.draw(st.sampled_from([1, 2, 3]))
    depth = data.draw(st.integers(n0, session.schedule.depth))
    model = session.model(depth)
    h, n_cyl = model.height, session.schedule.height(n0)
    lags = [0, h - 1] + data.draw(st.lists(st.integers(0, h - 1), max_size=4))
    cylinder = st.integers(0, n_cyl - 1)
    pairs = data.draw(st.lists(st.tuples(cylinder, cylinder), min_size=1, max_size=4))
    rows = correlation_decay(model, pairs, lags, n0)
    got = [(r.lag, r.pair, r.value.numerator, r.value.denominator) for r in rows]
    assert got == rolled_decay(model, pairs, lags, n0)
