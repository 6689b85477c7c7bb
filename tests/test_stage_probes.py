"""The probes of several stages, read from one pair counter, against one probe each.

stage_probes checks every component first, then counts the pairs of every
stage in one pass of one counter: the counter carries the module when a
chi component passed its checks, and an eta table read from it sums out
the module value.  Each result must equal weak_limit_probe of that
component alone, whose eta counter has no module, report byte for report
byte, and each refusal the same error with the same message.  A refusal
met in that pass stores no table, and the same counter then counts each
component's tables alone, so a stage that fits still reports beside one
that is refused, and no call builds a second counter.
"""

import tracemalloc
from fractions import Fraction

import pytest

from cfspectra import cli, koopman_lab
from cfspectra.cf_builder import DeltaBlock
from cfspectra.cocycle_engine import LABEL_PLAIN
from cfspectra.errors import CfspectraError, CharacterTypeError, ParameterError, SizeCapError
from cfspectra.koopman_lab import stage_probes, weak_limit_probe
from cfspectra.session import SessionConfig, synth


def outcome(result):
    """A report as its dict and its value bytes (signed zeros count), or a
    refusal as its type and message."""
    if isinstance(result, CfspectraError):
        return type(result).__name__, str(result)
    return result.to_dict(), result.tables.dense("values").tobytes()


def one_by_one(session, n, components):
    out = []
    for component in components:
        try:
            out.append(outcome(weak_limit_probe(session, n, component)))
        except CfspectraError as exc:
            out.append(outcome(exc))
    return out


def mixed_components(session):
    """Refusals between eta and chi probes, chi first, so no component's
    result may lean on its place in the list."""
    module = session.ctx.module
    nonzero = [d for d in session.factor_characters() if any(d)]
    return ([("chi", nonzero[0]), ("eta", 0), ("bogus", 0), ("chi", module.zero()),
             ("eta", session.k_order - 1), ("chi", tuple(module.orders))]
            + [("chi", d) for d in nonzero[1:3]])


def assert_shared_equals_one_by_one(session, n, components):
    got = [outcome(r) for r in stage_probes(session, {n: components})[n]]
    assert got == one_by_one(session, n, components), (n, components)
    return got


# the benchmark's probe stages, each with every component probed there
@pytest.mark.parametrize("fixture, stage, components", [
    ("probe_direct", 3, [("eta", 0), ("chi", (1, 0)), ("chi", (0, 1)), ("chi", (1, 1)),
                         ("chi", (1, 2))]),
    ("probe_direct", 4, [("eta", 0), ("eta", 1)]),
    ("probe_product", 5, [("eta", 0), ("chi", (0, 1, 0))]),
    ("probe_large", 3, [("eta", 0), ("eta", 1)]),
    ("scaled_16x16x128x16", 3, [("eta", 0), ("chi", (1, 1)), ("chi", (0, 2))]),
    ("scaled_16x16x128x16", 4, [("eta", 0), ("eta", 1)]),
    ("scaled_32x32x256", 3, [("eta", 0), ("chi", (1, 1))]),
])
def test_stage_probes_equal_one_probe_each_on_probe_fixtures(request, fixture, stage,
                                                             components):
    got = assert_shared_equals_one_by_one(request.getfixturevalue(fixture), stage, components)
    assert all(isinstance(result[0], dict) for result in got)


@pytest.mark.parametrize("fixture", ["probe_direct", "probe_product", "probe_kappa3"])
def test_stage_probes_equal_one_probe_each_with_refusals(request, fixture):
    session = request.getfixturevalue(fixture)
    for n in range(1, session.schedule.depth + 1):
        assert_shared_equals_one_by_one(session, n, mixed_components(session))


@pytest.mark.parametrize("fixture", ["shipped_direct", "shipped_product", "shipped_staircase"])
def test_stage_probes_equal_one_probe_each_on_shipped_bundles(request, fixture):
    # the stages the weak-limit suite probes; staircase_mixing has only plain
    # stages, each of which refuses every component
    session = request.getfixturevalue(fixture)
    stages = list(cli._probe_stages(session).values())
    for n in stages or range(1, session.schedule.depth + 1):
        got = assert_shared_equals_one_by_one(session, n, mixed_components(session))
        assert any(isinstance(result[0], dict) for result in got) == bool(stages)


@pytest.mark.parametrize("fixture", ["probe_direct", "probe_product", "probe_kappa3",
                                     "probe_kappa3_wide", "shipped_direct", "shipped_product"])
def test_stage_probes_of_every_labelled_stage_equal_one_probe_each(request, fixture):
    # every labelled stage in one call, each with refusals between its probes
    session = request.getfixturevalue(fixture)
    probes = {n: mixed_components(session) for n in range(session.schedule.depth, 0, -1)
              if session.label(n).kind != LABEL_PLAIN}
    results = stage_probes(session, probes)
    assert list(results) == list(probes)
    for n, components in probes.items():
        assert [outcome(r) for r in results[n]] == one_by_one(session, n, components), n


def test_a_stage_refused_while_counting_leaves_the_others_reporting(monkeypatch):
    # (4, 4, 128) at delta = 1/4 under cap 250: the column step of stage 3
    # lists 256 column offsets, over the cap, while rotate stage 2 fits.  The
    # pass over both meets the refusal, so each stage is counted on its own:
    # stage 2 reports, and stage 3 is refused with the message its own count
    # meets.  The suite's height skip would pass over stage 3 (h_3 = 8,528),
    # so the suite is handed both stages.
    session = synth(SessionConfig(mode="direct", targets=(1, 2), state_cap=250,
                                  blocks=(DeltaBlock(Fraction(1, 4), 3, r_seq=(4, 4, 128)),)))
    probes = {3: [("eta", 0), ("chi", (0, 1))], 2: [("eta", 0), ("eta", 1)]}
    results = stage_probes(session, probes)
    message = "256 column offsets exceed cap 250"
    assert [outcome(r) for r in results[3]] == [("SizeCapError", message)] * 2
    assert all(report.passed for report in results[2])
    for n, components in probes.items():
        assert [outcome(r) for r in results[n]] == one_by_one(session, n, components), n
    monkeypatch.setattr(cli, "_probe_stages", lambda session: {"rigid_rotate": 2,
                                                               "rigid_translate": 3})
    passed, doc = cli._suite_weaklimits(session)
    assert not passed
    assert doc["failed"] == [f"stage 3 {c}: {message}" for c in probes[3]]
    assert [(r["stage_index"], r["component"]) for r in doc["reports"]] == [
        (2, {"kind": "eta", "eta": 0}), (2, {"kind": "eta", "eta": 1})]


def test_one_counter_per_call_refusal_or_not(monkeypatch, shipped_direct, shipped_product):
    # each stage_probes call builds one pair counter, on the cap-250 fixture
    # whose pass meets a refusal as on the suite's probes of a shipped
    # bundle, and each refusal it returns is rid of its traceback, which
    # would hold that counter
    session = synth(SessionConfig(mode="direct", targets=(1, 2), state_cap=250,
                                  blocks=(DeltaBlock(Fraction(1, 4), 3, r_seq=(4, 4, 128)),)))
    init, counters, built, refusals = koopman_lab._PairCounter.__init__, [], [], []

    def recording(self, *args):
        counters.append(args)
        init(self, *args)

    def probing(session, probes):
        before = len(counters)
        results = stage_probes(session, probes)
        built.append(len(counters) - before)
        refusals.extend(r for stage in results.values() for r in stage
                        if isinstance(r, CfspectraError))
        return results

    monkeypatch.setattr(koopman_lab._PairCounter, "__init__", recording)
    monkeypatch.setattr(cli, "stage_probes", probing)
    probing(session, {3: [("eta", 0), ("chi", (0, 1)), ("bogus", 0)], 2: [("eta", 0), ("eta", 1)]})
    probing(session, {3: [("eta", 0)], 2: [("eta", 0)]})
    for shipped in (shipped_direct, shipped_product):
        assert cli._suite_weaklimits(shipped)[0]
    assert built == [1, 1, 1, 1], built
    assert [type(r) for r in refusals] == [SizeCapError, SizeCapError, CharacterTypeError,
                                           SizeCapError]
    assert all(r.__traceback__ is None for r in refusals)


@pytest.mark.parametrize("delta, r_seq, cylinder_level, state_cap, stage, error", [
    # a stage under the cylinder level
    (Fraction(1, 2), (2, 2, 3, 3), 3, 2 * 10**6, 1, ParameterError),
    # the 256 column offsets of stage 3's column step, over the cap
    (Fraction(1, 4), (4, 4, 128), 1, 250, 3, SizeCapError),
])
def test_a_refusal_while_counting_repeats_for_each_component(delta, r_seq, cylinder_level,
                                                             state_cap, stage, error):
    # a refusal of the counter is met once per component that passed its
    # checks, with the message one probe raises
    session = synth(SessionConfig(
        mode="direct", targets=(1, 2), cylinder_level=cylinder_level, state_cap=state_cap,
        blocks=(DeltaBlock(delta, len(r_seq), r_seq=r_seq),)))
    components = [("eta", 0), ("chi", (1, 0)), ("chi", (0, 1))]
    results = stage_probes(session, {stage: components})[stage]
    assert all(isinstance(r, error) for r in results), results
    assert [outcome(r) for r in results] == one_by_one(session, stage, components)


def test_chi_refused_on_module_images_builds_none_for_eta():
    # {1,3,5}: kappa 15 and |A| = 18,634 of rank 5, so the chi module images
    # hold 1,397,550 int64 entries (11.2 MB), over the cap; eta_0 on the same
    # stage counts its pairs without the module
    session = synth(SessionConfig(
        mode="direct", targets=(1, 3, 5), state_cap=10**6,
        blocks=(DeltaBlock(Fraction(1, 2), 3, r_seq=(4, 4, 4)),)))
    module = session.ctx.module
    images = session.k_order * module.size * module.rank * 8
    d = next(d for d in session.factor_characters() if any(d))
    components = [("eta", 0), ("chi", d)]
    stage_probes(session, {3: components})[3]  # fills the session's caches first
    tracemalloc.start()
    try:
        eta, chi = stage_probes(session, {3: components})[3]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(chi, SizeCapError) and "exceeds cap" in str(chi)
    assert eta.passed
    assert peak < images // 4, (peak, images)
