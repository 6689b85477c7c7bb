import dataclasses
import time

import pytest

from cfspectra.errors import ConsistencyError, ConstructionError
from cfspectra.finite_algebra import GroupAutomorphism
from cfspectra.module_factory import (
    CompactTower,
    OrbitBlock,
    _verify_triple,
    assemble_triple,
    compactify,
    dualize,
    orbit_block,
)
from oracles import automorphism_for, binary_power, compose, identity_automorphism, is_identity


def brute_trace_counts(triple):
    """Independent oracle: walk theta step by step, no ModuleAction machinery."""
    theta = triple.theta
    d_set = set(triple.d_elements())
    counts = set()
    for d in d_set:
        if d == triple.module.zero():
            continue
        seen = []
        x = d
        while True:
            seen.append(x)
            x = theta.apply(x)
            if x == d:
                break
        counts.add(sum(1 for y in seen if y in d_set))
    return counts


class TestOrbitBlock:
    def test_length_one(self):
        b = orbit_block(1)
        assert (b.prime, b.multiplier) == (2, 1)

    def test_length_two(self):
        b = orbit_block(2)
        assert (b.prime, b.multiplier) == (3, 2)

    def test_length_three(self):
        b = orbit_block(3)
        assert b.prime == 7
        orb = {1}
        x = 1
        for _ in range(2):
            x = x * b.multiplier % b.prime
            orb.add(x)
        assert orb == {1, 2, 4}

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 10, 12, 30])
    def test_all_nonzero_orbits_exact_length(self, p):
        # oracle for the order check in verify: walk every nonzero orbit
        b = orbit_block(p)
        for x0 in range(1, b.prime):
            x, length = x0, 0
            while True:
                x = x * b.multiplier % b.prime
                length += 1
                if x == x0:
                    break
            assert length == p

    @pytest.mark.parametrize("block", [
        OrbitBlock(7, 2, 6),  # 2 has order 3 mod 7
        OrbitBlock(7, 3, 3),  # 3 has order 6 mod 7
        OrbitBlock(7, 1, 2),  # 1 fixes every point
        OrbitBlock(7, 0, 1),  # 0 is no unit
        OrbitBlock(9, 2, 6),  # order 6 mod 9, yet the orbit of 3 is {3, 6}
        OrbitBlock(2, 1, 0),
    ], ids=lambda b: f"{b.prime}-{b.multiplier}-{b.orbit_length}")
    def test_verify_refuses_a_wrong_order(self, block):
        with pytest.raises(ConsistencyError):
            block.verify()

    def test_large_orbit_length_is_fast(self):
        # the smallest prime = 1 mod 1000 is 3001; verify walks no orbit
        start = time.monotonic()
        b = orbit_block(1000)
        assert (b.prime, b.orbit_length) == (3001, 1000)
        assert time.monotonic() - start < 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ConstructionError):
            orbit_block(0)


class TestAssemble:
    def test_single_two(self):
        t = assemble_triple({2})
        assert t.module.orders == (3,)
        assert t.k_order == 2
        assert set(t.d_elements()) == {(0,), (1,), (2,)}
        assert brute_trace_counts(t) == {2}

    def test_one_and_two(self):
        t = assemble_triple({1, 2})
        assert t.module.orders == (2, 3)
        assert t.theta.images == ((1, 0), (0, 2))  # identity x negation
        assert brute_trace_counts(t) == {1, 2}
        assert set(t.d_elements()) == set(t.module.elements())

    def test_two_and_three(self):
        t = assemble_triple({2, 3})
        assert t.module.orders == (3, 7, 7)
        assert t.d_coords == (0, 1)
        assert t.k_order == 6
        # theta^2 restores the first block and twists both deep copies
        sq = binary_power(t.theta, 2)
        assert sq.apply((1, 0, 0)) == (1, 0, 0)
        assert sq.apply((0, 1, 0)) == (0, 2, 0)
        assert brute_trace_counts(t) == {2, 3}

    def test_depth_truncation(self):
        t = assemble_triple({2, 3}, depth=1)
        assert t.module.orders == (3,)
        assert brute_trace_counts(t) == {2}

    def test_copy_cycling_identity(self):
        # iterating the span automorphism (copies) times twists every copy
        t = assemble_triple({2, 3, 4})
        for span, block in zip(t.spans, t.blocks):
            power = binary_power(t.theta, span.copies)
            for copy in range(span.copies):
                unit = [0] * t.module.rank
                unit[span.start + copy] = 1
                img = power.apply(tuple(unit))
                expected = [0] * t.module.rank
                expected[span.start + copy] = block.multiplier % block.prime
                assert img == tuple(expected)

    @pytest.mark.parametrize(
        "targets", [{1}, {2}, {1, 2}, {2, 3}, {1, 3, 5}, {2, 4, 6}]
    )
    def test_trace_counts_match_targets(self, targets):
        t = assemble_triple(targets)
        assert brute_trace_counts(t) == targets

    def test_theta_order(self):
        t = assemble_triple({2, 3})
        assert is_identity(binary_power(t.theta, 6))
        assert not is_identity(binary_power(t.theta, 3))
        assert not is_identity(binary_power(t.theta, 2))


class TestStackChecks:
    """Each check that reads theta's powers off the stack fails a tampered triple."""

    def test_wrong_block_twist_breaks_the_copy_cycling_identity(self):
        t = assemble_triple({2, 3})
        block = t.blocks[1]  # theta is kept; the block claims the multiplier's square
        bad = dataclasses.replace(block, multiplier=block.multiplier ** 2 % block.prime)
        with pytest.raises(ConsistencyError, match="copy-cycling identity fails on span"):
            _verify_triple(dataclasses.replace(t, blocks=(t.blocks[0], bad)))

    def test_theta_whose_order_does_not_divide_k_is_refused(self):
        t = assemble_triple({2, 3})  # theta of order 6 under K = Z/10
        with pytest.raises(ConsistencyError, match=r"theta\^\|K\| is not the identity"):
            _verify_triple(dataclasses.replace(t, targets=(2, 5)))

    def test_theta_of_smaller_order_is_refused(self):
        t = assemble_triple({2, 3})  # theta of order 6 under K = Z/30
        with pytest.raises(ConsistencyError, match=r"theta has order dividing \|K\|/5"):
            _verify_triple(dataclasses.replace(t, targets=(2, 3, 5)))

    def test_trace_counts_off_the_targets_are_refused(self):
        t = assemble_triple({2, 3})  # D on the first block alone
        with pytest.raises(ConsistencyError, match=r"trace counts \[2\] != targets \[2, 3\]"):
            _verify_triple(dataclasses.replace(t, d_coords=(0,)))

    def test_deep_action_not_factoring_through_k_j_is_refused(self):
        lo, hi = compactify(assemble_triple({2, 3})).levels
        with pytest.raises(ConsistencyError, match="kernel of K_2 -> K_1 acts nontrivially"):
            CompactTower((dataclasses.replace(lo, targets=(1,)), hi)).verify()


class TestCompactify:
    def test_single_level(self):
        tower = compactify(assemble_triple({2}))
        assert tower.depth == 1
        assert tower.k_orders() == [2]

    def test_trivial_targets(self):
        tower = compactify(assemble_triple({1}))
        assert tower.k_orders() == [1]

    def test_two_three_tower(self):
        tower = compactify(assemble_triple({2, 3}))
        assert tower.k_orders() == [2, 6]
        assert tower.project_module(1, (2, 4, 1)) == (2,)

    def test_equivariance_all_elements(self):
        tower = compactify(assemble_triple({2, 3}))
        deep = tower.levels[-1]
        shallow = tower.levels[0]
        for a in deep.module.elements():
            lhs = tower.project_module(1, deep.theta.apply(a))
            rhs = shallow.theta.apply(tower.project_module(1, a))
            assert lhs == rhs

    def test_dense_submodule_orbits_finite(self):
        tower = compactify(assemble_triple({1, 2}))
        deep = tower.levels[-1]
        from cfspectra.finite_algebra import orbit

        for a in deep.module.elements():
            assert len(orbit(deep.action, a)) <= deep.k_order


class TestDualize:
    def test_full_d_gives_trivial_annihilator(self):
        rec = dualize(assemble_triple({1, 2}))  # D = B
        assert rec.annihilator_size == 1
        assert rec.annihilator_elements() == [(0, 0)]

    def test_annihilator_size_two_three(self):
        rec = dualize(assemble_triple({2, 3}))
        assert rec.annihilator_size == 7  # |B|/|D| = 147/21

    def test_product_rule(self):
        for targets in ({1}, {2}, {1, 2}, {2, 3}, {1, 3, 5}):
            t = assemble_triple(targets)
            rec = dualize(t)
            assert rec.annihilator_size * t.d_size() == t.module.size

    def test_pairing_equivariance(self):
        # <k.t, k.b> == <t, b> for the dual action; <t, b> is the exponent of
        # the character of A indexed by b, at t
        t = assemble_triple({2, 3})
        rec = dualize(t)
        pairing = lambda t_el, b: rec.character_of_dual(b).evaluate(t_el)
        for k in range(t.k_order):
            for t_el in [(1, 0, 0), (0, 1, 0), (2, 3, 4)]:
                for b in [(1, 0, 0), (0, 1, 0), (1, 2, 3)]:
                    kt = automorphism_for(rec.dual_action, k).apply(t_el)
                    kb = automorphism_for(t.action, k).apply(b)
                    assert pairing(kt, kb) == pairing(t_el, b)

    def test_annihilator_off_the_pairing_kernel_is_refused(self):
        # B = Z/3 + Z/7 + Z/7 with D on coordinates 0 and 1: the characters
        # on coordinate 1 have the same count as H but pair nontrivially with D
        rec = dualize(assemble_triple({2, 3}))
        assert rec.annihilator_coords == (2,)
        with pytest.raises(ConsistencyError, match="not in the annihilator"):
            dataclasses.replace(rec, annihilator_coords=(1,)).verify()

    def test_dual_orbit_traces_match(self):
        # orbits of the dual action on the D-indexed characters trace the same counts
        t = assemble_triple({1, 2})
        rec = dualize(t)
        from cfspectra.finite_algebra import orbit_trace_counts

        assert orbit_trace_counts(t.action, t.d_elements()) == set(t.targets)
        # the dual action on the dual module has the same orbit sizes
        from cfspectra.finite_algebra import orbit

        for a in rec.dual_module.elements():
            assert len(orbit(rec.dual_action, a)) == len(orbit(t.action, a))


    def test_dual_partition_must_be_the_primal_one(self, monkeypatch):
        # {1, 3, 6} puts the 3-block and the 6-block both on Z/7.  Conjugating
        # the dual generator by psi, which mixes the Z/7 coordinates, keeps
        # D's dual trace counts {1, 3, 6} but moves its traces
        t = assemble_triple({1, 3, 6})
        psi = GroupAutomorphism(t.module, ((1, 0, 0, 0, 0), (0, 6, 5, 0, 0), (0, 0, 5, 0, 3),
                                           (0, 2, 0, 3, 0), (0, 0, 0, 0, 4)))
        psi_inverse = binary_power(psi, 5)  # psi has order 6
        assert is_identity(compose(psi, psi_inverse))
        dual = GroupAutomorphism.dual
        monkeypatch.setattr(GroupAutomorphism, "dual",
                            lambda self: compose(compose(psi, dual(self)), psi_inverse))
        with pytest.raises(ConsistencyError, match=r"dual trace counts \[1, 3, 6\]: the dual"):
            dualize(t)

    @pytest.mark.parametrize("targets", [{1}, {2}, {1, 2}, {2, 3}, {1, 3, 5}, {2, 4, 6}],
                             ids=str)
    def test_identity_dual_action_fails_dual_trace_count(self, monkeypatch, targets):
        # with a trivial dual action every orbit is a point, so D's dual
        # trace counts collapse to {1}: only the target set {1} survives
        t = assemble_triple(targets)
        monkeypatch.setattr(GroupAutomorphism, "dual",
                            lambda self: identity_automorphism(self.group))
        if targets == {1}:
            dualize(t)
            return
        with pytest.raises(ConsistencyError, match="dual trace counts"):
            dualize(t)


class TestScaling:
    def test_large_case_is_fast_without_enumerating_b(self):
        start = time.monotonic()
        t = assemble_triple({2, 4, 6})
        assert brute_trace_counts(t) == {2, 4, 6}
        assert t.module.size == 3 * 5**2 * 7**8
        assert time.monotonic() - start < 5.0
