import random
import time
import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfspectra.errors import (
    InvalidElementError,
    InvalidSubgroupError,
    SizeCapError,
)
from cfspectra.finite_algebra import (
    Character,
    CyclotomicSum,
    FiniteAbelianGroup,
    GroupAutomorphism,
    ModuleAction,
    conjugate_exponents,
    cyclo_equal,
    cyclotomic_polynomial,
    dual_characters,
    orbit,
    orbit_average,
    orbit_images,
    orbit_trace_counts,
    verify_subgroup,
)
from cfspectra.module_factory import assemble_triple, dualize
from oracles import (
    automorphism_for,
    binary_power,
    compose,
    compose_action,
    identity_automorphism,
    is_identity,
    subgroup_from_generators,
)


def negation_action(n):
    """Z/2 acting on Z/n by x -> -x."""
    z2 = FiniteAbelianGroup((2,))
    zn = FiniteAbelianGroup((n,))
    neg = GroupAutomorphism(zn, ((n - 1,),))
    return ModuleAction(z2, zn, (neg,))


def refusal_peak(call, match=None) -> int:
    """Peak traced allocation, in bytes, of a call that must raise SizeCapError
    (with a message matching `match`, when given)."""
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGroups:
    def test_sizes(self):
        g = FiniteAbelianGroup((2, 3))
        assert g.size == 6
        assert g.exponent == 6
        assert len(g.elements()) == 6

    def test_element_index_roundtrip(self):
        g = FiniteAbelianGroup((2, 3, 5))
        for i, a in enumerate(g.elements()):
            assert g.element_by_index(i) == a

    def test_arithmetic(self):
        g = FiniteAbelianGroup((4, 6))
        assert g.add((3, 5), (2, 2)) == (1, 1)
        assert g.neg((1, 2)) == (3, 4)
        assert g.sub((1, 2), (3, 5)) == (2, 3)

    def test_check_rejects_foreign_elements(self):
        g = FiniteAbelianGroup((3,))
        with pytest.raises(InvalidElementError):
            g.check((3,))
        with pytest.raises(InvalidElementError):
            g.check((0, 0))

    def test_enumeration_cap(self):
        # 10**6 + 1000 elements: one over the cap, refused before listing any
        g = FiniteAbelianGroup((1001, 1000))
        assert refusal_peak(g.elements) < 10**6

    def test_coordinate_subgroup_order_and_cap(self):
        g = FiniteAbelianGroup((2, 5, 3))
        # first listed coordinate slowest, each coordinate counting up from 0
        assert g.coordinate_subgroup((0, 2)) == [
            (0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 0), (1, 0, 1), (1, 0, 2)]
        assert g.coordinate_subgroup(()) == [g.zero()]
        assert g.coordinate_subgroup((0, 1, 2)) == g.elements()
        # coordinates (1, 2) of a larger group span 1001 * 1000 elements
        big = FiniteAbelianGroup((2, 1001, 1000))
        assert refusal_peak(lambda: big.coordinate_subgroup((1, 2))) < 10**6


class TestAutomorphisms:
    def test_identity(self):
        g = FiniteAbelianGroup((2, 3))
        assert is_identity(identity_automorphism(g))

    def test_non_bijective_rejected(self):
        g = FiniteAbelianGroup((4,))
        with pytest.raises(InvalidElementError):
            GroupAutomorphism(g, ((2,),))  # doubling is not invertible mod 4

    def test_large_prime_orders_factor_each_order_alone(self):
        # the primes of |G| are found from each cyclic order, so negation on
        # Z/p + Z/q with p, q near 2^30 is checked without factoring p q
        p, q = 1073741789, 1073741783
        g = FiniteAbelianGroup((p, q))
        start = time.perf_counter()
        negation = GroupAutomorphism(g, ((p - 1, 0), (0, q - 1)))
        assert time.perf_counter() - start < 1.0
        assert negation.apply((1, 2)) == (p - 1, q - 2)
        with pytest.raises(InvalidElementError):
            GroupAutomorphism(g, ((p - 1, 0), (0, 0)))

    def test_order_violation_rejected(self):
        g = FiniteAbelianGroup((2, 4))
        # sending the order-2 generator to an order-4 element is not a hom
        with pytest.raises(InvalidElementError):
            GroupAutomorphism(g, ((0, 1), (1, 1)))

    def test_matrix_route_matches_enumeration(self):
        # invertibility decided via determinants mod p agrees with brute force
        g = FiniteAbelianGroup((3, 3))
        ok, bad = 0, 0
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for d in range(3):
                        images = ((a, c), (b, d))
                        try:
                            phi = GroupAutomorphism(g, images)
                        except InvalidElementError:
                            bad += 1
                            continue
                        ok += 1
                        seen = {phi.apply(x) for x in g.elements()}
                        assert len(seen) == g.size
        assert ok == 48  # |GL_2(F_3)|
        assert ok + bad == 81

    def test_compose_and_power(self):
        g = FiniteAbelianGroup((7,))
        mul3 = GroupAutomorphism(g, ((3,),))
        assert compose(mul3, mul3).apply((1,)) == (2,)  # 9 = 2 mod 7
        assert is_identity(binary_power(mul3, 6))  # 3^6 = 1 mod 7

    def test_dual_of_multiplication_is_multiplication(self):
        g = FiniteAbelianGroup((7,))
        mul3 = GroupAutomorphism(g, ((3,),))
        dual = mul3.dual()
        assert dual.images == ((3,),)

    def test_dual_contravariance(self):
        g = FiniteAbelianGroup((3, 3))
        phi = GroupAutomorphism(g, ((0, 1), (1, 0)))  # swap
        psi = GroupAutomorphism(g, ((1, 1), (0, 1)))  # shear
        lhs = compose(phi, psi).dual()
        rhs = compose(psi.dual(), phi.dual())
        assert lhs.images == rhs.images


GROUPS = [(7,), (2, 4), (3, 3), (2, 2, 3), (4, 6)]


@st.composite
def images_of(draw, group):
    """Generator images drawn from the group's elements, a map or not."""
    return tuple(group.element_by_index(draw(st.integers(0, group.size - 1)))
                 for _ in range(group.rank))


def is_automorphism(group, images) -> bool:
    """Whether the images define a bijective homomorphism, by listing the group."""
    orders = group.orders
    if any(any(x * n % m for x, m in zip(img, orders)) for img, n in zip(images, orders)):
        return False
    values = {tuple(sum(c * img[i] for c, img in zip(a, images)) % m
                    for i, m in enumerate(orders)) for a in group.elements()}
    return len(values) == group.size


@st.composite
def automorphism_cases(draw):
    """(group, phi, psi, m) for two automorphisms built with the check."""
    group = FiniteAbelianGroup(draw(st.sampled_from(GROUPS)))
    phis = []
    for _ in range(2):
        images = draw(images_of(group))
        assume(is_automorphism(group, images))
        phis.append(GroupAutomorphism(group, images))
    return group, *phis, draw(st.integers(0, 13))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(automorphism_cases())
def test_composites_and_powers_equal_checked_construction(case):
    # the identity and compose, and so power, build their results unchecked;
    # each must be the automorphism the checked constructor builds from the
    # same images
    group, phi, psi, m = case
    power = identity_automorphism(group)
    for _ in range(m):
        power = compose(phi, power)
    for built in (compose(phi, psi), binary_power(phi, m)):
        assert built == GroupAutomorphism(group, built.images)
    elements = list(group.elements())
    assert [compose(phi, psi).apply(a) for a in elements] == \
        [phi.apply(psi.apply(a)) for a in elements]
    assert binary_power(phi, m).images == power.images


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(GROUPS).map(FiniteAbelianGroup).flatmap(
    lambda group: st.tuples(st.just(group), images_of(group))))
def test_images_from_outside_keep_the_check(case):
    group, images = case
    if is_automorphism(group, images):
        assert GroupAutomorphism(group, images).images == images
    else:
        with pytest.raises(InvalidElementError):
            GroupAutomorphism(group, images)


class TestOrbits:
    def test_trivial_action(self):
        zn = FiniteAbelianGroup((5,))
        act = ModuleAction(FiniteAbelianGroup((1,)), zn, (identity_automorphism(zn),))
        for a in zn.elements():
            assert orbit(act, a) == {a}

    def test_zero_is_fixed(self):
        act = negation_action(9)
        assert orbit(act, (0,)) == {(0,)}

    def test_negation_orbit(self):
        act = negation_action(3)
        assert orbit(act, (1,)) == {(1,), (2,)}

    def test_orbit_contains_element_and_divides_group_order(self):
        z6 = FiniteAbelianGroup((6,))
        z7 = FiniteAbelianGroup((7,))
        mul3 = GroupAutomorphism(z7, ((3,),))  # order 6 mod 7
        act = ModuleAction(z6, z7, (mul3,))
        for a in z7.elements():
            orb = orbit(act, a)
            assert a in orb
            assert 6 % len(orb) == 0

    def test_orbit_rejects_foreign_element(self):
        act = negation_action(3)
        with pytest.raises(InvalidElementError):
            orbit(act, (5,))


class TestCharacters:
    def test_dual_count_z2(self):
        chars = dual_characters(FiniteAbelianGroup((2,)))
        assert [c.exponents for c in chars] == [(0,), (1,)]

    def test_dual_count_z2xz3(self):
        chars = dual_characters(FiniteAbelianGroup((2, 3)))
        assert len(chars) == 6
        assert len({c.exponents for c in chars}) == 6
        assert chars[0].exponents == (0, 0)

    def test_z7_evaluation(self):
        g = FiniteAbelianGroup((7,))
        chi = Character(g, (3,))
        assert chi.evaluate((2,)) == 6  # e^{2 pi i 6/7}

    def test_value_is_reduced_mod_the_exponent(self):
        assert Character(FiniteAbelianGroup((4,)), (3,)).evaluate((3,)) == 1
        # Z/2 + Z/4 has exponent 4, so chi = (1, 2) has weights (2, 2)
        chi = Character(FiniteAbelianGroup((2, 4)), (1, 2))
        assert [chi.evaluate(a) for a in [(0, 0), (1, 0), (0, 1), (1, 3)]] == [0, 2, 2, 0]

    def test_compose_automorphism_scales_exponents(self):
        # (x, y) -> (x, 2x + y) on Z/2 + Z/4; the exponent of chi o phi at
        # generator j is chi(phi(e_j)) rescaled from Z/4 to Z/n_j
        g = FiniteAbelianGroup((2, 4))
        phi = GroupAutomorphism(g, ((1, 2), (0, 1)))
        assert Character(g, (1, 1)).compose_automorphism(phi).exponents == (0, 1)
        for chi in dual_characters(g):
            twisted = chi.compose_automorphism(phi)
            assert all(twisted.evaluate(a) == chi.evaluate(phi.apply(a)) for a in g.elements())

    def test_compose_action(self):
        act = negation_action(3)
        chi = Character(act.module, (1,))
        chi_k = compose_action(chi, act, 1)
        assert chi_k.exponents == (2,)  # chi(-x) = conj


class TestCyclotomicSums:
    def test_zeta3_pair_is_minus_one(self):
        s = CyclotomicSum.from_exponents(3, [1, 2])
        assert cyclo_equal(s, CyclotomicSum.from_fraction(-1))

    def test_i_vs_minus_i(self):
        a = CyclotomicSum.from_exponents(4, [1])
        b = CyclotomicSum.from_exponents(4, [3])
        assert not cyclo_equal(a, b)

    def test_zero_vs_empty(self):
        assert cyclo_equal(CyclotomicSum.from_exponents(6, []), CyclotomicSum.from_fraction(0))

    def test_full_root_sum_vanishes(self):
        for n in (2, 3, 4, 5, 6, 12):
            s = CyclotomicSum.from_exponents(n, range(n))
            assert s.is_zero()

    def test_reduction_idempotent(self):
        s = CyclotomicSum.from_exponents(5, [1, 1, 1, 2], 7)
        again = CyclotomicSum._normalized(s.root_order, list(s.coeffs), s.denominator)
        assert s.coeffs == again.coeffs and s.denominator == again.denominator

    def test_equality_agrees_with_float_evaluation(self):
        rng = random.Random(7)
        sums = []
        for _ in range(40):
            n = rng.choice([2, 3, 4, 6, 8, 12])
            exponents = [rng.randrange(n) for _ in range(rng.randrange(1, 6))]
            sums.append(CyclotomicSum.from_exponents(n, exponents, rng.randrange(1, 4)))
        for x in sums:
            for y in sums:
                exact = cyclo_equal(x, y)
                approx = abs(x.value() - y.value()) < 1e-9
                assert exact == approx

    def test_equivalence_relation(self):
        a = CyclotomicSum.from_exponents(3, [1, 2], 2)
        b = CyclotomicSum.from_fraction(Fraction(-1, 2))
        c = CyclotomicSum.from_exponents(2, [1], 2)
        assert cyclo_equal(a, a)
        assert cyclo_equal(a, b) and cyclo_equal(b, a)
        assert cyclo_equal(b, c) and cyclo_equal(a, c)  # transitivity instance

    def test_rational_detection(self):
        # a rational value reduces to a constant polynomial in the root
        s = CyclotomicSum.from_exponents(3, [1, 2], 2)
        assert not any(s.coeffs[1:])
        assert Fraction(s.coeffs[0], s.denominator) == Fraction(-1, 2)


class TestOrbitAverage:
    def test_trivial_character_gives_one(self):
        act = negation_action(5)
        chi0 = Character(act.module, (0,))
        for a in act.module.elements():
            assert orbit_average(act, chi0, a) == CyclotomicSum.from_fraction(1)

    def test_trivial_action_gives_character_value(self):
        zn = FiniteAbelianGroup((5,))
        act = ModuleAction(FiniteAbelianGroup((1,)), zn, (identity_automorphism(zn),))
        chi = Character(zn, (2,))
        got = orbit_average(act, chi, (1,))
        assert got == CyclotomicSum.from_exponents(zn.exponent, [chi.evaluate((1,))])

    def test_negation_average_is_minus_half(self):
        act = negation_action(3)
        chi = Character(act.module, (1,))
        got = orbit_average(act, chi, (1,))
        assert got == CyclotomicSum.from_fraction(Fraction(-1, 2))


class TestSubgroupsAndTraceCounts:
    def test_verify_subgroup_rejects(self):
        g = FiniteAbelianGroup((4,))
        with pytest.raises(InvalidSubgroupError):
            verify_subgroup(g, [(0,), (1,)])
        with pytest.raises(InvalidSubgroupError):
            verify_subgroup(g, [(2,)])

    def test_subgroup_from_generators(self):
        g = FiniteAbelianGroup((4, 2))
        s = subgroup_from_generators(g, [(2, 0), (0, 1)])
        assert s == {(0, 0), (2, 0), (0, 1), (2, 1)}

    def test_trivial_action_counts(self):
        zn = FiniteAbelianGroup((6,))
        act = ModuleAction(FiniteAbelianGroup((1,)), zn, (identity_automorphism(zn),))
        assert orbit_trace_counts(act, zn.elements()) == {1}

    def test_negation_full_subgroup(self):
        act = negation_action(3)
        assert orbit_trace_counts(act, act.module.elements()) == {2}

    def test_zero_subgroup_has_no_counts(self):
        act = negation_action(3)
        assert orbit_trace_counts(act, [(0,)]) == set()

    def test_counts_bounded_by_group_order(self):
        z6 = FiniteAbelianGroup((6,))
        z7 = FiniteAbelianGroup((7,))
        act = ModuleAction(z6, z7, (GroupAutomorphism(z7, ((3,),)),))
        counts = orbit_trace_counts(act, z7.elements())
        assert counts and all(1 <= c <= 6 for c in counts)


# ---------------------------------------------------------------------------
# the integer paths against the loops they replaced
# ---------------------------------------------------------------------------


def fraction_sum_evaluate(chi, a):
    """Oracle: the phase x in [0, 1) of chi(a) = e^{2 pi i x}, one Fraction
    per coordinate, summed."""
    return sum((Fraction(t * x, n) for t, x, n in zip(chi.exponents, a, chi.group.orders)),
               Fraction(0)) % 1


def fraction_from_roots(exponents, denominator=1):
    """Oracle: the sum of e^{2 pi i x} over Fractions x, over the lcm of their
    reduced denominators."""
    exponents = [Fraction(x) % 1 for x in exponents]
    n = lcm(*(x.denominator for x in exponents))
    raw = [0] * n
    for x in exponents:
        raw[x.numerator * (n // x.denominator)] += 1
    return CyclotomicSum._normalized(n, raw, denominator)


def scale_and_add_apply(phi, a):
    """Oracle: the image as a group sum of scaled generator images."""
    g = phi.group
    acc = g.zero()
    for coeff, img in zip(a, phi.images):
        if coeff:
            acc = g.add(acc, tuple(coeff * x % n for x, n in zip(img, g.orders)))
    return acc


@st.composite
def character_cases(draw):
    orders = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    exps = tuple(draw(st.integers(0, n - 1)) for n in orders)
    elem = tuple(draw(st.integers(0, n - 1)) for n in orders)
    return FiniteAbelianGroup(tuple(orders)), exps, elem


class TestIntegerPaths:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(character_cases())
    def test_evaluate_matches_fraction_sum(self, case):
        group, exps, a = case
        chi = Character(group, exps)
        got = chi.evaluate(a)
        assert 0 <= got < group.exponent
        assert Fraction(got, group.exponent) == fraction_sum_evaluate(chi, a)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), max_size=8), st.integers(1, 6))))
    def test_from_exponents_matches_fraction_roots(self, case):
        order, exponents, denominator = case
        got = CyclotomicSum.from_exponents(order, exponents, denominator)
        want = fraction_from_roots([Fraction(e, order) for e in exponents], denominator)
        assert (got.root_order, got.coeffs, got.denominator) == (
            want.root_order, want.coeffs, want.denominator)

    @pytest.mark.parametrize("targets", [{1, 2}, {2, 3}, {1, 3, 5}, {2, 4, 6}], ids=str)
    def test_apply_matches_scale_and_add(self, targets):
        triple = assemble_triple(targets)
        rng = random.Random(len(targets))
        g = triple.module
        samples = [g.zero()] + [g.element_by_index(rng.randrange(g.size)) for _ in range(40)]
        for k in range(triple.k_order):
            phi = automorphism_for(triple.action, k)
            for a in samples:
                assert phi.apply(a) == scale_and_add_apply(phi, a)

    def test_apply_matches_scale_and_add_on_every_element(self):
        g = FiniteAbelianGroup((3, 3))
        phi = GroupAutomorphism(g, ((2, 1), (1, 1)))
        for a in g.elements():
            assert phi.apply(a) == scale_and_add_apply(phi, a)

    def test_apply_still_checks_its_argument(self):
        g = FiniteAbelianGroup((2, 3))
        phi = identity_automorphism(g)
        for bad in [(0, 3), [0, 1], (0,), (np.int64(1), 0)]:
            with pytest.raises(InvalidElementError):
                phi.apply(bad)

    def test_contains_answers(self):
        class Point(tuple):
            pass

        g = FiniteAbelianGroup((2, 3))
        assert g.contains((1, 2))
        assert g.contains(Point((1, 2)))
        for bad in [
            (True, 2),  # a bool is an int, but no coordinate
            (1, False),
            (np.int64(1), 2),
            (1.0, 2),
            [1, 2],
            (-1, 2),
            (1, 3),
            (2, 0),
            (1,),
            (1, 2, 0),
            (),
            "12",
            None,
        ]:
            assert not g.contains(bad), bad


# ---------------------------------------------------------------------------
# theta-stepped orbits and powers, span-grown subgroups: the loops they
# replaced are the oracles
# ---------------------------------------------------------------------------

ACCEPTANCE_TARGET_SETS = [{1}, {2}, {1, 2}, {2, 3}, {1, 3, 5}, {2, 4, 6}]


def per_k_orbit(action, a):
    """Oracle: one binary power of theta applied per element of the acting group."""
    action.module.check(a)
    theta = action.generator_maps[0]
    return frozenset(binary_power(theta, k).apply(a) for k in range(action.group.size))


def pairwise_verify_subgroup(group, elems):
    """Oracle: closure checked over every pair, and under negation."""
    s = frozenset(elems)
    if group.zero() not in s:
        raise InvalidSubgroupError("subgroup must contain 0")
    for a in s:
        group.check(a)
        if group.neg(a) not in s:
            raise InvalidSubgroupError(f"not closed under negation at {a}")
        for b in s:
            if group.add(a, b) not in s:
                raise InvalidSubgroupError(f"not closed under addition at {a}+{b}")
    return s


def verdict(fn, group, elems):
    try:
        return fn(group, elems)
    except InvalidSubgroupError:
        return "not a subgroup"


@st.composite
def subset_cases(draw):
    """Subgroups, subgroups with one element added or removed, and random sets."""
    orders = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    group = FiniteAbelianGroup(orders)
    elems = group.elements()
    gens = draw(st.lists(st.sampled_from(elems), max_size=3))
    s = set(subgroup_from_generators(group, gens))
    kind = draw(st.sampled_from(["subgroup", "add", "remove", "random"]))
    if kind == "add":
        s.add(draw(st.sampled_from(elems)))
    elif kind == "remove":
        s.discard(draw(st.sampled_from(sorted(s))))
    elif kind == "random":
        s = set(draw(st.lists(st.sampled_from(elems), max_size=12)))
        if draw(st.booleans()):
            s.add(group.zero())
    return group, s


def dual_and_direct_actions():
    for targets in ACCEPTANCE_TARGET_SETS:
        rec = dualize(assemble_triple(targets))
        yield f"{sorted(targets)}", rec.triple.action
        yield f"{sorted(targets)}-dual", rec.dual_action


class TestSteppedOracles:
    @pytest.mark.parametrize("targets", ACCEPTANCE_TARGET_SETS, ids=str)
    def test_orbit_equals_per_k_orbit(self, targets):
        rec = dualize(assemble_triple(targets))
        rng = random.Random(len(targets) * 7 + sum(targets))
        for action in (rec.triple.action, rec.dual_action):
            module = action.module
            samples = [module.zero(), tuple(1 % n for n in module.orders)] + [
                module.element_by_index(rng.randrange(module.size)) for _ in range(40)
            ]
            for a in samples:
                assert orbit(action, a) == per_k_orbit(action, a), (targets, a)

    def test_automorphism_for_equals_power(self):
        for name, action in dual_and_direct_actions():
            kappa = action.group.size
            theta = action.generator_maps[0]
            # highest k first: the whole chain is composed from one request
            got = [automorphism_for(action, k) for k in reversed(range(kappa))][::-1]
            for k in range(kappa):
                assert got[k].images == binary_power(theta, k).images, (name, k)
                assert got[k] is automorphism_for(action, k)

    def test_stepped_power_is_validated(self):
        # every new power goes through __post_init__, so a map that is not of
        # the advertised order is still refused at construction
        z7 = FiniteAbelianGroup((7,))
        with pytest.raises(InvalidElementError):
            ModuleAction(FiniteAbelianGroup((4,)), z7, (GroupAutomorphism(z7, ((3,),)),))
        # K acts cyclically: a rank-two acting group, or a second map, is refused
        neg, dbl = GroupAutomorphism(z7, ((6,),)), GroupAutomorphism(z7, ((2,),))
        with pytest.raises(ValueError):
            ModuleAction(FiniteAbelianGroup((2, 3)), z7, (neg, dbl))
        with pytest.raises(ValueError):
            ModuleAction(FiniteAbelianGroup((6,)), z7, (neg, dbl))
        with pytest.raises(InvalidElementError):
            compose(GroupAutomorphism(z7, ((3,),)),
                    identity_automorphism(FiniteAbelianGroup((7, 7))))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(subset_cases())
    def test_span_verdict_equals_pairwise_verdict(self, case):
        group, s = case
        got = verdict(verify_subgroup, group, s)
        assert got == verdict(pairwise_verify_subgroup, group, s)

    @pytest.mark.parametrize("orders, elems, ok", [
        ((4,), [(0,), (2,)], True),
        ((4,), [(0,), (1,), (3,)], False),  # closed under negation only
        ((6,), [(0,), (2,), (3,), (4,)], False),
        ((2, 2), [(0, 0), (1, 0), (0, 1)], False),
        ((2, 2), [(0, 0), (1, 0), (0, 1), (1, 1)], True),
        ((3, 5), [(0, 0)], True),
    ])
    def test_span_verdicts(self, orders, elems, ok):
        group = FiniteAbelianGroup(orders)
        want = frozenset(elems) if ok else "not a subgroup"
        assert verdict(verify_subgroup, group, elems) == want
        assert verdict(pairwise_verify_subgroup, group, elems) == want

    def test_verify_subgroup_checks_every_element(self):
        g = FiniteAbelianGroup((4,))
        for bad in [(4,), (0, 0), (np.int64(1),), (3.0,)]:
            with pytest.raises(InvalidElementError):
                verify_subgroup(g, [(0,), (2,), bad])

    def test_public_traces_verify_the_subgroup(self):
        # the triple's own coordinate subgroups skip the check; a set from
        # outside keeps it
        act = negation_action(4)
        with pytest.raises(InvalidSubgroupError):
            orbit_trace_counts(act, [(0,), (1,), (3,)])


# ---------------------------------------------------------------------------
# the power stack against binary powers, stepped orbits and per-element sums
# ---------------------------------------------------------------------------


def stepped_orbit(theta, a):
    """Oracle: theta applied one step at a time until the walk returns to a."""
    out, x = [a], theta.apply(a)
    while x != a:
        out.append(x)
        x = theta.apply(x)
    return out


def order_of(phi):
    m, power = 1, phi
    while not is_identity(power):
        m, power = m + 1, compose(phi, power)
    return m


@st.composite
def action_cases(draw):
    """(action, chi) for a drawn automorphism acting through |K| = its order
    times 1 or 2, so that with 2 every orbit, the zero's among them, is
    shorter than |K|; chi is any character of the module."""
    group, phi, _, _ = draw(automorphism_cases())
    kappa = order_of(phi) * draw(st.sampled_from([1, 2]))
    action = ModuleAction(FiniteAbelianGroup((kappa,)), group, (phi,))
    chi = Character(group, group.element_by_index(draw(st.integers(0, group.size - 1))))
    return action, chi


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(action_cases())
def test_stack_orbits_and_averages_equal_the_scalar_oracles(case):
    action, chi = case
    theta, kappa = action.generator_maps[0], action.group.size
    for k in range(kappa):
        assert np.array_equal(action.matrices[k], binary_power(theta, k).matrix), k
        assert automorphism_for(action, k).images == binary_power(theta, k).images
    assert is_identity(binary_power(theta, kappa))  # the action checked theta^kappa
    n = action.module.exponent
    for a in action.module.elements():
        walk = stepped_orbit(theta, a)
        assert orbit(action, a) == frozenset(walk)
        assert kappa % len(walk) == 0
        got = orbit_average(action, chi, a)
        want = CyclotomicSum.from_exponents(n, [chi.evaluate(b) for b in walk], len(walk))
        assert (got.root_order, got.coeffs, got.denominator) == (
            want.root_order, want.coeffs, want.denominator), a
    assert len(orbit(action, action.module.zero())) == 1
    assert conjugate_exponents(action, chi) == [
        compose_action(chi, action, k).exponents for k in range(kappa)]


def test_orbit_shorter_than_k_is_averaged_over_its_distinct_elements():
    # Z/4 acts on Z/5 through x -> -x, of order 2: every orbit is shorter
    # than |K|, and the zero is a fixed point
    z5 = FiniteAbelianGroup((5,))
    action = ModuleAction(FiniteAbelianGroup((4,)), z5, (GroupAutomorphism(z5, ((4,),)),))
    chi = Character(z5, (1,))
    assert orbit(action, (0,)) == {(0,)} and orbit(action, (2,)) == {(2,), (3,)}
    assert orbit_images(action, (2,)).tolist() == [[2], [3], [2], [3]]
    got = orbit_average(action, chi, (2,))
    assert (got.root_order, got.coeffs, got.denominator) == (5, (0, 0, 1, 1, 0), 2)
    assert orbit_average(action, chi, (0,)) == CyclotomicSum.from_fraction(1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1, 2, 3, 4, 6, 12, 15, 30]).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-3, 3), min_size=n, max_size=n), st.integers(1, 4),
    st.integers(1, 3), st.integers(-2, 2), st.booleans())))
def test_equality_over_one_root_order_equals_the_reduced_difference(case):
    # two sums over one root order are compared by their normalized
    # coefficients and denominators; the reduced difference is the oracle.
    # y is x written another way (scaled, plus a multiple of the cyclotomic
    # polynomial) or, with `off`, that plus one; z has x's coefficients
    # over another denominator
    n, coeffs, den, scale, multiple, off = case
    x = CyclotomicSum._normalized(n, coeffs, den)
    phi = cyclotomic_polynomial(n)
    raw = [scale * c for c in coeffs] + [0] * max(0, len(phi) - n)
    for j, c in enumerate(phi):
        raw[j] += multiple * c
    raw[0] += scale * den * off
    y = CyclotomicSum._normalized(n, raw, scale * den)
    z = CyclotomicSum._normalized(n, coeffs, den + 1)
    assert x.root_order == y.root_order == z.root_order == n
    assert x.equals(y) == (x - y).is_zero() == (not off)
    assert x.equals(z) == (x - z).is_zero()


class TestInt64Guard:
    def test_stack_of_a_large_module_is_refused_before_any_product(self):
        # Z/2 acting on Z/2^40 by negation: (2^40 - 1)^2 exceeds int64
        big = FiniteAbelianGroup((2**40,))
        negation = GroupAutomorphism(big, ((2**40 - 1,),))
        with pytest.raises(SizeCapError, match="exceed the int64 range"):
            ModuleAction(FiniteAbelianGroup((2,)), big, (negation,))

    def test_character_values_past_int64_are_refused(self):
        # the stack of Z/p + Z/q fits, p = 2^30 and q = 3^18, but a
        # character's weights reach the exponent pq, about 2^58, times a residue
        p, q = 2**30, 3**18
        module = FiniteAbelianGroup((p, q))
        negation = GroupAutomorphism(module, ((p - 1, 0), (0, q - 1)))
        action = ModuleAction(FiniteAbelianGroup((2,)), module, (negation,))
        assert orbit(action, (1, 1)) == {(1, 1), (p - 1, q - 1)}
        with pytest.raises(SizeCapError, match="character values.*exceed the int64 range"):
            orbit_average(action, Character(module, (1, 1)), (1, 1))

    def test_stack_over_the_enumeration_cap_is_refused_before_allocating(self):
        z5 = FiniteAbelianGroup((5,))
        big_k = FiniteAbelianGroup((10**6 + 1,))
        peak = refusal_peak(lambda: ModuleAction(big_k, z5, (identity_automorphism(z5),)),
                            "power stack of 1000001 x 1 x 1 entries exceeds enumeration cap")
        assert peak < 10**6
