"""The one-element-per-orbit scans against the exhaustive scans they replaced.

`disjointness_certificate` and `orbit_trace_counts` visit one element per
orbit (or per trace).  The oracles below are the exhaustive loops: every
module element for the certificate, every nonzero d for the trace counts.
`disjointness_certificates` shares one scan among many pairs; its oracle
is the scan of each pair on its own.  Results must be identical,
coefficient for coefficient.
"""

import random
from types import SimpleNamespace

import pytest

from cfspectra import finite_algebra, koopman_lab
from cfspectra.errors import ConsistencyError, SizeCapError
from cfspectra.finite_algebra import (
    CyclotomicSum,
    cyclo_equal,
    orbit,
    orbit_average,
    orbit_averages,
    orbit_images,
    orbit_trace_counts,
)
from cfspectra.koopman_lab import (
    Certificate,
    disjointness_certificate,
    disjointness_certificates,
    factor_classes,
)
from cfspectra.module_factory import assemble_triple, dualize
from oracles import automorphism_for, compose_action

TARGET_SETS = [{1}, {2}, {1, 2}, {2, 3}, {1, 3, 5}, {2, 4, 6}]


def exhaustive_certificate(duality, chi, chi2):
    """Oracle: the certificate scan over every module element, no orbit skipped."""
    action = duality.dual_action
    for k in range(duality.triple.k_order):
        if compose_action(chi, action, k).exponents == chi2.exponents:
            return Certificate(equivalent=True, witness_k=k)
    for a in action.module.elements():
        l1 = orbit_average(action, chi, a)
        l2 = orbit_average(action, chi2, a)
        if not cyclo_equal(l1, l2):
            return Certificate(False, None, a, l1, l2)
    raise ConsistencyError("exhausted")


def per_pair_certificate(duality, chi, chi2):
    """Oracle: one pair's own scan, one element per orbit, as if no other
    pair shared it."""
    action = duality.dual_action
    for k in range(duality.triple.k_order):
        if compose_action(chi, action, k).exponents == chi2.exponents:
            return Certificate(equivalent=True, witness_k=k)
    seen = set()
    for a in action.module.elements():
        if a in seen:
            continue
        seen.update(orbit(action, a))
        l1 = orbit_average(action, chi, a)
        l2 = orbit_average(action, chi2, a)
        if not cyclo_equal(l1, l2):
            return Certificate(False, None, a, l1, l2)
    raise ConsistencyError("exhausted")


def assert_shared_scan_equals_per_pair(duality, chars):
    got = disjointness_certificates(duality, chars)
    pairs = [(i, j) for i in range(len(chars)) for j in range(i + 1, len(chars))]
    assert list(got) == pairs
    for i, j in pairs:
        want = per_pair_certificate(duality, chars[i], chars[j])
        assert got[(i, j)].to_dict() == want.to_dict(), (i, j)
    return got


def per_d_trace_counts(action, subgroup):
    """Oracle: one trace count per nonzero d, no trace skipped."""
    d_set = frozenset(subgroup)
    zero = action.module.zero()
    return {len(orbit(action, d) & d_set) for d in d_set if d != zero}


def class_characters(duality):
    """One representative character per factor class, in factor_classes order."""
    classes = factor_classes(SimpleNamespace(triple=duality.triple))
    return [duality.character_of_dual(cls[0]) for cls in classes]


@pytest.fixture(scope="module")
def rec135():
    return dualize(assemble_triple({1, 3, 5}))


@pytest.fixture(scope="module")
def chars135(rec135):
    return class_characters(rec135)


def scan_position(duality, a):
    return duality.dual_module.elements().index(tuple(a))


class TestCertificateOracle:
    @pytest.mark.parametrize("source", ["{1,2}", "{2,3}", "product_23"])
    def test_every_class_pair_matches_exhaustive_scan(self, source, shipped_product):
        if source == "product_23":
            rec = shipped_product.duality
        else:
            rec = dualize(assemble_triple({1, 2} if source == "{1,2}" else {2, 3}))
        chars = class_characters(rec)
        assert len(chars) >= 2
        for i in range(len(chars)):
            for j in range(i + 1, len(chars)):
                got = disjointness_certificate(rec, chars[i], chars[j])
                want = exhaustive_certificate(rec, chars[i], chars[j])
                assert got.to_dict() == want.to_dict(), (source, i, j)

    @pytest.mark.parametrize("pair, position", [((0, 1), 1), ((0, 3), 1331)])
    def test_135_pairs_match_exhaustive_scan(self, rec135, chars135, pair, position):
        i, j = pair
        got = disjointness_certificate(rec135, chars135[i], chars135[j])
        want = exhaustive_certificate(rec135, chars135[i], chars135[j])
        assert got.to_dict() == want.to_dict()
        assert scan_position(rec135, got.separating_a) == position

    def test_scan_averages_each_orbit_once(self, rec135, chars135, monkeypatch):
        # the elements walked are exactly the first element of every orbit
        # met before the separating one, in element order; each orbit's
        # images are computed once and both characters are averaged over
        # them, in one call per orbit
        averaged, computed = [], []

        def recording(action, chars, images):
            assert images is computed[-1][1]
            averaged.append([chi.exponents for chi in chars])
            return orbit_averages(action, chars, images)

        def computing(action, a):
            computed.append((a, orbit_images(action, a)))
            return computed[-1][1]

        monkeypatch.setattr(koopman_lab, "orbit_averages", recording)
        monkeypatch.setattr(koopman_lab, "orbit_images", computing)
        chi, chi2 = chars135[0], chars135[3]
        cert = disjointness_certificate(rec135, chi, chi2)
        stop = scan_position(rec135, cert.separating_a)
        firsts, seen = [], set()
        for a in rec135.dual_module.elements()[: stop + 1]:
            if a not in seen:
                seen.update(orbit(rec135.dual_action, a))
                firsts.append(a)
        assert [a for a, _ in computed] == firsts
        assert averaged == [[chi.exponents, chi2.exponents]] * len(firsts)
        assert len(firsts) < stop + 1

    def test_orbit_average_is_constant_on_orbits(self, rec135, chars135, shipped_product):
        # the lemma behind the skip: L(chi, theta^k a) = L(chi, a) for every k
        rng = random.Random(5)
        for rec, chars in ((rec135, chars135),
                           (shipped_product.duality, class_characters(shipped_product.duality))):
            action = rec.dual_action
            module = rec.dual_module
            samples = [chars[0], chars[-1]] + rng.sample(chars, min(3, len(chars)))
            for chi in samples:
                for _ in range(6):
                    a = module.element_by_index(rng.randrange(module.size))
                    base = orbit_average(action, chi, a)
                    for k in range(rec.triple.k_order):
                        moved = orbit_average(
                            action, chi, automorphism_for(action, k).apply(a))
                        assert moved == base
                        assert (moved.coeffs, moved.denominator, moved.root_order) == (
                            base.coeffs, base.denominator, base.root_order)

    def test_late_separating_pair_certifies(self, rec135, chars135):
        # one of the 16 {1,3,5} pairs whose exhaustive scan runs to element 9317
        cert = disjointness_certificate(rec135, chars135[0], chars135[17])
        assert not cert.equivalent
        assert scan_position(rec135, cert.separating_a) == 9317
        assert not cyclo_equal(cert.l_left, cert.l_right)


class TestSharedCertificateScan:
    @pytest.mark.parametrize("fixture", ["shipped_direct", "shipped_product"])
    def test_every_class_pair_matches_per_pair_scan(self, request, fixture):
        # the class representatives, then a conjugate of the first, so some
        # pairs are witnessed and the rest share the scan
        duality = request.getfixturevalue(fixture).duality
        chars = class_characters(duality)
        chars.append(compose_action(chars[0], duality.dual_action, 1))
        got = assert_shared_scan_equals_per_pair(duality, chars)
        assert any(c.equivalent for c in got.values())
        assert sum(not c.equivalent for c in got.values()) >= 3

    def test_sampled_135_pairs_match_per_pair_scan(self, rec135, chars135):
        # eight of the 33 classes, 28 pairs: both scan strata, the pairs that
        # separate at position 1 and those that run to 1331 or 1332
        sample = sorted(random.Random(135).sample(range(len(chars135)), 8))
        got = assert_shared_scan_equals_per_pair(rec135, [chars135[i] for i in sample])
        positions = {scan_position(rec135, c.separating_a) for c in got.values()}
        assert 1 in positions and positions & {1331, 1332}, positions

    def test_each_orbit_walked_once_and_averaged_per_open_character(self, rec135, chars135,
                                                                    monkeypatch):
        # the scan stops at the last pair's separating orbit, and each orbit
        # is averaged, in one call over its images, once for each character
        # with a pair still open on it
        walked, averaged, images_of = [], [], []

        def computing(action, a):
            walked.append(a)
            images_of.append(orbit_images(action, a))
            return images_of[-1]

        def recording(action, chars, images):
            assert images is images_of[-1] and len(averaged) == len(walked) - 1
            averaged.append([chars135.index(chi) for chi in chars])
            return orbit_averages(action, chars, images)

        monkeypatch.setattr(koopman_lab, "orbit_images", computing)
        monkeypatch.setattr(koopman_lab, "orbit_averages", recording)
        picked = (0, 1, 3, 17)
        certs = disjointness_certificates(rec135, [chars135[i] for i in picked])
        closed = {(picked[i], picked[j]): walked.index(c.separating_a)
                  for (i, j), c in certs.items()}
        assert len(walked) == len(set(walked)) == max(closed.values()) + 1
        # pairs close at orbits 1, 91 and 625, so characters drop out along the way
        assert len(set(closed.values())) == 3, closed
        assert averaged == [[c for c in picked
                             if any(c in p and t <= at for p, at in closed.items())]
                            for t in range(len(walked))]

    def test_135_module_over_the_cap_is_refused_before_the_scan(self, rec135, chars135,
                                                                monkeypatch):
        walked = []
        monkeypatch.setattr(finite_algebra, "ENUMERATION_CAP", rec135.dual_module.size - 1)
        monkeypatch.setattr(koopman_lab, "orbit_images", lambda action, a: walked.append(a))
        with pytest.raises(SizeCapError, match="exceeds enumeration cap"):
            disjointness_certificates(rec135, chars135[:3])
        assert not walked


    def test_scan_that_separates_nothing_raises(self, monkeypatch):
        # averages forced equal on every orbit: the scan walks the whole
        # module and reports the violated identity instead of a certificate
        rec = dualize(assemble_triple({1, 2}))
        walked = []

        def same(action, chars, images):
            walked.append(images[0].tolist())
            return [CyclotomicSum.from_fraction(1)] * len(chars)

        monkeypatch.setattr(koopman_lab, "orbit_averages", same)
        with pytest.raises(ConsistencyError, match="identical orbit averages on the whole"):
            disjointness_certificates(rec, class_characters(rec))
        assert len(walked) == 4  # the orbits of Z/2 + Z/3 under (1, -1)


class TestTraceCountOracle:
    @pytest.mark.parametrize("targets", TARGET_SETS, ids=str)
    def test_matches_per_d_count(self, targets):
        triple = assemble_triple(targets)
        got = orbit_trace_counts(triple.action, triple.d_elements())
        assert got == per_d_trace_counts(triple.action, triple.d_elements())
        assert got == targets

    @pytest.mark.parametrize("targets", [{1, 2}, {2, 3}, {1, 3, 5}], ids=str)
    def test_counts_each_trace_once(self, targets, monkeypatch):
        triple = assemble_triple(targets)
        d_set = frozenset(triple.d_elements())
        counted = []

        def recording(action, a):
            counted.append(a)
            return orbit(action, a)

        monkeypatch.setattr(finite_algebra, "orbit", recording)
        orbit_trace_counts(triple.action, triple.d_elements())
        traces = [orbit(triple.action, d) & d_set for d in counted]
        assert sum(len(t) for t in traces) == len(d_set) - 1
        assert frozenset().union(*traces) == d_set - {triple.module.zero()}
