"""Deterministic call-count guards on the hot paths.

Each input is checked once where it enters, then the arithmetic runs
unchecked.  These bounds count calls, not seconds, so they hold on any
machine: a path that re-validates an engine-made element on every multiply,
or rebuilds an automorphism per element, breaks them by a wide margin; a
character value is an integer exponent, never a Fraction.  The
full-height passes take their cyclic shifts as slices, never as a rolled
copy.  No command builds a tower model other than a probe's
cylinder-depth tower, and a weak-limit probe lists no deeper one, even for
lags past a column's height, nor any tower twice, nor a dense table of its
raw pair counts; its counter groups each stage's column boundaries once.
The probes of one verify share one counter, which enters each depth once
for all its stages and splits no key array with np.divmod, and a
multiplicity report walks each orbit once.
Decay lists no cylinder start and packs no h-bit indicator.  No command
renders JSON through json's pure-Python encoder, and a process builds its
argument parser once.
"""

import argparse
import functools
import hashlib
import json
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cfspectra import cli, finite_algebra, koopman_lab
from cfspectra.cli import main
from cfspectra.cf_builder import DeltaBlock
from cfspectra.cocycle_engine import (
    CocycleStageMaps,
    Tower,
    TowerModel,
    canonical_word,
    evaluate_cocycle,
)
from cfspectra.finite_algebra import FiniteAbelianGroup, GroupAutomorphism, ModuleAction
from cfspectra.module_factory import assemble_triple, dualize
from cfspectra.session import SessionConfig, synth
from oracles import act, automorphism_for

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
SLACK = 8  # calls allowed beyond the entries checked at the boundary


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_cocycle_triples_check_each_table_entry_once(monkeypatch):
    # a fresh session, so no table has been checked against its context yet
    session = synth(SessionConfig.from_json((CONFIG_DIR / "product_23.json").read_text()))
    sched, maps, ctx = session.schedule, session.maps, session.ctx
    h = sched.height(sched.depth)
    rng = random.Random(23)
    triples = [tuple(rng.randrange(h) for _ in range(3)) for _ in range(250)]
    entries = sum(len(m.cuts) for m in maps)
    act(ctx, 0, ctx.module.zero())  # builds the context's kappa automorphisms once
    calls = count_calls(monkeypatch, FiniteAbelianGroup, "contains")
    lookups = count_calls(monkeypatch, CocycleStageMaps, "entries")
    non_identity = 0
    for levels in triples:
        x, y, z = (canonical_word(lv, sched) for lv in levels)
        for u, v in ((x, y), (y, z), (x, z)):
            non_identity += evaluate_cocycle(u, v, maps, ctx) != ctx.identity()
    assert non_identity  # the triples do multiply non-identity entries
    assert len(calls) <= entries + SLACK, (len(calls), entries)
    # the context resolves each stage's entry table once for the session's maps
    assert len(lookups) == sched.depth, len(lookups)


def test_assembly_builds_O_kappa_automorphisms(monkeypatch):
    calls = count_calls(monkeypatch, GroupAutomorphism, "__post_init__")
    triple = assemble_triple((1, 3, 5))
    kappa = triple.k_order
    assert kappa == 15
    assert len(calls) <= 3 * kappa + SLACK, (len(calls), kappa)


def test_orbit_builds_no_automorphism(monkeypatch):
    triple = assemble_triple((1, 3, 5))
    module = triple.module
    rng = random.Random(135)
    samples = [module.element_by_index(rng.randrange(module.size)) for _ in range(50)]
    calls = count_calls(monkeypatch, GroupAutomorphism, "__post_init__")
    checks = count_calls(monkeypatch, FiniteAbelianGroup, "contains")
    for a in samples:
        finite_algebra.orbit(triple.action, a)
    assert len(calls) == 0
    assert len(checks) == len(samples)


def test_powers_are_read_off_the_stack(monkeypatch):
    triple = assemble_triple((1, 3, 5))
    calls = count_calls(monkeypatch, GroupAutomorphism, "__post_init__")
    applied = count_calls(monkeypatch, GroupAutomorphism, "_apply")
    # a fresh action, with no stack or power cached yet
    action = ModuleAction(triple.action.group, triple.module, triple.action.generator_maps)
    powers = [automorphism_for(action, k) for k in range(triple.k_order)]
    assert len(applied) == 0  # the stack's matrix products make every power
    assert len(calls) == 0  # and a power read off it needs no check
    assert [phi.images for phi in powers] == [tuple(map(tuple, m.T.tolist()))
                                              for m in action.matrices]
    assert powers[1].images == triple.theta.images


def test_weaklimits_stack_theta_matrices_once_per_action(tmp_path, monkeypatch):
    # product_23 has kappa = 6: every tower model and pair counter of the
    # suite reads its action's one stack, built once when the action is,
    # from theta's matrix alone, which the order check takes once more
    bundle = tmp_path / "b"
    assert main(["synth", "--config", str(CONFIG_DIR / "product_23.json"),
                 "--out", str(bundle)]) == 0
    taken, stacked = [], []
    matrix, stack = GroupAutomorphism.matrix.fget, ModuleAction.matrices.func

    def counting_matrix(phi):
        taken.append(phi)
        return matrix(phi)

    def counting_stack(action):
        stacked.append(action)
        return stack(action)

    recording = functools.cached_property(counting_stack)
    recording.__set_name__(ModuleAction, "matrices")
    monkeypatch.setattr(GroupAutomorphism, "matrix", property(counting_matrix))
    monkeypatch.setattr(ModuleAction, "matrices", recording)
    assert main(["verify", "--bundle", str(bundle), "--suite", "weaklimits"]) == 0
    # the bundle's re-synthesis builds the actions of depth 1 and 2 and the dual one
    assert len({id(a) for a in stacked}) == len(stacked) == 3, stacked
    assert sorted(a.group.orders for a in stacked) == [(2,), (6,), (6,)]
    assert sorted(map(id, taken)) == sorted(2 * [id(a.generator_maps[0]) for a in stacked])


def test_certificates_and_duality_build_no_fraction(monkeypatch):
    # a character value is its exponent in Z/N: assembling and dualizing
    # {1,3,5} and certifying three of its class pairs make no Fraction
    calls = count_calls(monkeypatch, Fraction, "__new__")
    rec = dualize(assemble_triple((1, 3, 5)))
    classes = koopman_lab.factor_classes(SimpleNamespace(triple=rec.triple))
    chars = [rec.character_of_dual(cls[0]) for cls in classes[:3]]
    certs = [koopman_lab.disjointness_certificate(rec, chars[i], chars[j])
             for i, j in ((0, 1), (0, 2), (1, 2))]
    assert not any(cert.equivalent for cert in certs)
    assert len(calls) == 0
    assert Fraction(1, 3) and len(calls) == 1  # the counter does see a Fraction


@pytest.mark.parametrize("name, orbits", [("direct_12", 3), ("product_23", 12)],
                         ids=["direct_12", "product_23"])
def test_multiplicity_report_walks_orbits_only_in_the_certificate_scan(monkeypatch, name,
                                                                       orbits):
    # the classes are the triple's trace partition, walked once when it is
    # assembled; the report walks orbits only to separate class pairs, in
    # one scan that serves every pair and walks each orbit once (a scan per
    # pair walks 7 and 98)
    session = synth(SessionConfig.from_json((CONFIG_DIR / f"{name}.json").read_text()))
    callers = []
    original = finite_algebra.orbit_images

    def recording(action, a):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(action, a)

    monkeypatch.setattr(finite_algebra, "orbit_images", recording)
    monkeypatch.setattr(koopman_lab, "orbit_images", recording)
    report = koopman_lab.multiplicity_report(session)
    assert report.certificates
    assert callers and set(callers) == {"disjointness_certificates"}
    assert len(callers) <= orbits, len(callers)


@pytest.mark.parametrize("name, tables", [("direct_12", 2), ("product_23", 4)],
                         ids=["direct_12", "product_23"])
def test_weaklimits_count_each_stage_once(tmp_path, monkeypatch, name, tables):
    # one verify builds one pair counter, on the deepest probed stage's
    # tower, which lists its cylinder-depth tower once and counts the tables
    # of every probed stage, each (stage, step) once, in one `raw` call; a
    # counter per stage builds 2 counters and models on direct_12, 3 on
    # product_23
    bundle = tmp_path / "bundle"
    assert main(["synth", "--config", str(CONFIG_DIR / f"{name}.json"),
                 "--out", str(bundle)]) == 0
    built = count_calls(monkeypatch, koopman_lab._PairCounter, "__init__")
    depths, asked = [], []
    build, raw = TowerModel.__init__, koopman_lab._PairCounter.raw

    def building(self, schedule, depth, *args, **kwargs):
        depths.append(depth)
        build(self, schedule, depth, *args, **kwargs)

    def recording(self, tables):
        asked.append(list(tables))
        return raw(self, tables)

    monkeypatch.setattr(TowerModel, "__init__", building)
    monkeypatch.setattr(koopman_lab._PairCounter, "raw", recording)
    assert main(["verify", "--bundle", str(bundle), "--suite", "weaklimits"]) == 0
    assert len(built) == 1 and depths == [1], (len(built), depths)
    assert len(asked) == 1 and len(asked[0]) == len(set(asked[0])) == tables, asked


@pytest.mark.parametrize("name", ["direct_12", "product_23"])
def test_weaklimits_enter_each_depth_once(tmp_path, monkeypatch, name):
    # stage n's table enters the recursion at depth n, beside the lower
    # tables that the stages above it ask for, so one verify enters `pairs`
    # once per depth from the deepest probed stage down to the cylinder
    # depth; a counter per stage enters the depths below its stage again
    bundle = tmp_path / "bundle"
    assert main(["synth", "--config", str(CONFIG_DIR / f"{name}.json"),
                 "--out", str(bundle)]) == 0
    entered = []
    pairs = koopman_lab._PairCounter.pairs

    def recording(self, m, *args):
        entered.append(m)
        return pairs(self, m, *args)

    monkeypatch.setattr(koopman_lab._PairCounter, "pairs", recording)
    assert main(["verify", "--bundle", str(bundle), "--suite", "weaklimits"]) == 0
    assert sorted(entered) == list(range(1, 10)), entered


@pytest.mark.parametrize("name", ["direct_12", "product_23", "staircase_mixing"])
def test_commands_build_no_tower_model_and_no_loop_product(tmp_path, monkeypatch, name):
    # spectra come from the schedule and decay from the stage cuts; the only
    # model a command builds is the probe counter's cylinder-depth tower
    bundle = tmp_path / "bundle"
    assert main(["synth", "--config", str(CONFIG_DIR / f"{name}.json"),
                 "--out", str(bundle)]) == 0
    loops = count_calls(monkeypatch, koopman_lab, "loop_product")
    checks = count_calls(monkeypatch, koopman_lab, "class_equivalence_check")
    inside, outside = [], []
    build, words = TowerModel.__init__, koopman_lab._PairCounter.words

    def recording(self, *args, **kwargs):
        if not inside:
            outside.append(None)
        build(self, *args, **kwargs)

    def counter_words(self):
        inside.append(None)
        try:
            return words(self)
        finally:
            inside.pop()

    monkeypatch.setattr(TowerModel, "__init__", recording)
    monkeypatch.setattr(koopman_lab._PairCounter, "words", counter_words)
    for command in (["verify", "--suite", "mixing"], ["verify", "--suite", "multiplicity"],
                    ["dump", "--what", "spectra"], ["dump", "--what", "decay"],
                    ["dump", "--what", "report"]):
        assert main([command[0], "--bundle", str(bundle), *command[1:],
                     "--out" if command[0] == "dump" else "--report",
                     str(tmp_path / "out")]) == 0
        assert not outside and not loops and not checks, command
    assert main(["verify", "--bundle", str(bundle), "--suite", "all"]) == 0
    assert not outside and not loops and not checks


@pytest.mark.parametrize("name", ["direct_12", "product_23", "staircase_mixing"])
def test_decay_lists_no_start_set(tmp_path, monkeypatch, name):
    # decay counts the differences of the cylinder starts off the stage cuts
    bundle = tmp_path / "bundle"
    assert main(["synth", "--config", str(CONFIG_DIR / f"{name}.json"),
                 "--out", str(bundle)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("decay listed the cylinder starts")

    monkeypatch.setattr(Tower, "cylinder_starts", refuse)
    assert main(["dump", "--bundle", str(bundle), "--what", "decay",
                 "--out", str(tmp_path / "decay.json")]) == 0
    assert main(["verify", "--bundle", str(bundle), "--suite", "mixing"]) == 0


def test_decay_dump_packs_no_indicator(shipped_staircase):
    # packing an h-bit indicator of the starts and its doubled copy peaks
    # near 3h bytes of bools (8.4 MB at h = 590,866); the dense difference
    # table below the top stage is 2 h_(D-1) int64 entries (1.6 MB)
    cli.dump_decay(shipped_staircase)  # fills the session's caches first
    tracemalloc.start()
    try:
        rows = cli.dump_decay(shipped_staircase)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows
    assert peak < 4 * 10**6, peak


def test_decay_pairs_no_two_cuts_of_a_wide_top_stage():
    # 20,000 rigid columns over a 2-level tower: a table of every difference
    # of two top cuts holds 4 * 10**8 int64 entries; the counter forms at
    # most 2 max(r, h_(D-1)) column pairs at a time
    session = synth(SessionConfig(mode="direct", targets=(1,), shape="arithmetic",
                                  r_seq=(2, 20000)))
    cli.dump_decay(session)  # fills the session's caches first
    tracemalloc.start()
    try:
        rows = cli.dump_decay(session)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows
    assert peak < 4 * 10**6, peak


def test_decay_builds_no_table_over_a_wide_stage(monkeypatch):
    # a dense table over the 20,000-column stage takes 2 r h_2 = 1.6 * 10**9
    # slice-add entries; the few shifts asked of it are summed over its
    # column pairs, and only the 2-level tower below gets a table
    session = synth(SessionConfig(mode="direct", targets=(1,), shape="arithmetic",
                                  r_seq=(2, 20000, 2)))
    built = []
    original = koopman_lab._difference_table

    def recording(stages, base):
        built.append(len(stages))
        return original(stages, base)

    monkeypatch.setattr(koopman_lab, "_difference_table", recording)
    assert cli.dump_decay(session)
    assert cli._suite_mixing(session)[1]["late_max"] >= 0
    assert built and set(built) == {0}


def test_full_height_passes_roll_no_copy(shipped_product, monkeypatch):
    model = shipped_product.model(4)
    h = model.height

    def refuse(*args, **kwargs):
        raise AssertionError("a full-height pass made a rolled copy")

    monkeypatch.setattr(np, "roll", refuse)
    koopman_lab.correlation_decay(model, [(0, 1), (1, 0)], [0, 7, h - 1])
    for steps in (1, 7, h - 1):
        model.step_values(steps)


@pytest.mark.parametrize("fixture, stage, components", [
    ("probe_direct", 3, [("eta", 0), ("chi", (1, 0))]),
    ("probe_direct", 4, [("eta", 0), ("eta", 1)]),
    ("scaled_16x16x128x16", 3, [("eta", 0), ("chi", (1, 1))]),
    ("probe_kappa3_wide", 4, [("eta", 1), ("eta", 2)]),
])
def test_probes_build_no_tower_below_the_cylinder_depth(request, monkeypatch, fixture, stage,
                                                        components):
    # stage 3's gaps reach past h_1 = 14 on (8, 8, 64, 64), past h_1 = 28
    # on (16, 16, 128, 16), and stage 4's past h_2 = 21 on probe_kappa3_wide:
    # those lags pair columns by their offsets, so the only model built is
    # the depth-1 one that the counter lists
    session = request.getfixturevalue(fixture)
    depths = []
    build = TowerModel.__init__

    def recording(self, schedule, depth, *args, **kwargs):
        depths.append(depth)
        build(self, schedule, depth, *args, **kwargs)

    monkeypatch.setattr(TowerModel, "__init__", recording)
    reports = koopman_lab.stage_probes(session, {stage: components})[stage]
    assert all(report.passed for report in reports)
    assert depths == [session.config.cylinder_level], depths


@pytest.mark.parametrize("fixture, stage", [("probe_product", 5), ("probe_direct", 3)])
def test_a_counter_groups_each_stage_boundaries_once(request, monkeypatch, fixture, stage):
    # the delayed stage 5 counts the steps h_4 and 1, and stage 3 of
    # (8, 8, 64, 64) its column step and the offsets below it: every table
    # asks for the boundaries of the stages below, which one counter groups
    # once per stage, orientation and twist
    session = request.getfixturevalue(fixture)
    grouped = []
    stage_of = koopman_lab._PairCounter.stage

    def recording(self, m):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "boundaries":
            grouped.append((id(self), m, *(caller.f_locals[k] for k in ("cyclic", "delta"))))
        return stage_of(self, m)

    monkeypatch.setattr(koopman_lab._PairCounter, "stage", recording)
    components = [("eta", 0)] + [("chi", d) for d in session.factor_characters()[1:3]]
    reports = koopman_lab.stage_probes(session, {stage: components})[stage]
    assert all(report.passed for report in reports)
    assert grouped and len(grouped) == len(set(grouped)), grouped


def test_a_probe_refused_on_its_level_pairs_now_runs_under_the_default_cap():
    # stage 4 of (8, 8, 256, 1024): 394 gaps reach h_2 = 118, and listed over
    # the 38,336-level depth-3 tower their pairs were 14,980,471, refused
    # under the default cap and about 1.4 GB under a lifted one; counted by
    # their column offsets both probes peak near 18 MB
    session = synth(SessionConfig(
        mode="direct", targets=(1, 2),
        blocks=(DeltaBlock(Fraction(1, 2), 4, r_seq=(8, 8, 256, 1024)),)))
    assert session.config.state_cap == koopman_lab.DEFAULT_STATE_CAP
    components = [("eta", 0), ("eta", 1)]
    koopman_lab.stage_probes(session, {4: components})[4]  # fills the session's caches first
    tracemalloc.start()
    try:
        reports = koopman_lab.stage_probes(session, {4: components})[4]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [round(r.max_deviation, 7) for r in reports] == [0.0001107, 0.0015282]
    assert all(report.passed for report in reports)
    assert peak < 4 * 10**7, peak


@pytest.mark.parametrize("fixture, stage, component", [
    ("scaled_16x16x128x16", 4, ("eta", 1)),
    ("probe_large", 3, ("eta", 0)),
    ("scaled_16x16x128x16", 3, ("chi", (1, 1))),
])
def test_probes_list_no_tower_of_the_probed_depth(request, monkeypatch, fixture, stage,
                                                  component):
    # the pairs of the depth-n tower are counted from its stages; only the
    # tower at the cylinder level is listed, no taller than stage n's columns
    session = request.getfixturevalue(fixture)
    heights = []
    build = TowerModel.__init__

    def recording(self, schedule, depth, *args, **kwargs):
        heights.append(schedule.height(depth))
        build(self, schedule, depth, *args, **kwargs)

    monkeypatch.setattr(TowerModel, "__init__", recording)
    report = koopman_lab.weak_limit_probe(session, stage, component)
    assert report.passed
    assert heights and max(heights) <= session.schedule.height(stage - 1), heights


def test_delayed_eta_probe_builds_each_base_case_tower_once(probe_product, monkeypatch):
    # both steps of a delayed probe, h_(n-1) and 1, are read from one pair
    # counter, so the tower it lists is built once per probe
    depths = []
    build = TowerModel.__init__

    def recording(self, schedule, depth, *args, **kwargs):
        depths.append(depth)
        build(self, schedule, depth, *args, **kwargs)

    monkeypatch.setattr(TowerModel, "__init__", recording)
    report = koopman_lab.weak_limit_probe(probe_product, 5, ("eta", 0))
    assert report.passed
    assert report.prediction_kind == "delayed"
    assert depths and sorted(depths) == sorted(set(depths)), depths


def test_chi_probe_builds_no_dense_raw_table(probe_product):
    # the raw pairs of this probe fall in a few dozen buckets, out of the
    # n_cyl^2 kappa^2 |A| int64 entries (3.43 MB) of a dense raw table
    session = probe_product
    n_cyl = session.schedule.height(session.config.cylinder_level)
    dense = n_cyl**2 * session.k_order**2 * session.ctx.module.size * 8
    probe = (session, 5, ("chi", (0, 1, 0)))
    koopman_lab.weak_limit_probe(*probe)  # fills the session's caches first
    tracemalloc.start()
    try:
        report = koopman_lab.weak_limit_probe(*probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < dense, (peak, dense)


@pytest.mark.parametrize("component", [("eta", 0), ("chi", (1, 0))], ids=["eta0", "chi"])
def test_probe_splits_no_key_array_with_divmod(scaled_32x32x256, monkeypatch, component):
    """The pair counter splits its keys, buckets and index arrays by one floor
    division and a multiply-subtract: numpy runs np.divmod, and % by a
    scalar, several times slower than // on int64 arrays.  A handful of
    entries may still go through np.divmod.  % on arrays cannot be spied
    on, so this test does not see a split written with it, nor the
    reductions the probe keeps: group exponents mod kappa and module vectors
    mod their orders (`act`, `edge`, `crossings`, `offsets`, `moved`) and
    the tables a counter or a chi probe builds once (`_module_tables`,
    `shifted`, the chi phases)."""
    sizes = []
    divmod_ = np.divmod

    def spying(*args, **kwargs):
        sizes.append(max(np.size(a) for a in args[:2]))
        return divmod_(*args, **kwargs)

    monkeypatch.setattr(np, "divmod", spying)
    report = koopman_lab.weak_limit_probe(scaled_32x32x256, 3, component)
    assert report.passed
    assert max(sizes, default=0) <= 64, sizes


@pytest.mark.parametrize("name", ["direct_12", "product_23", "staircase_mixing"])
def test_commands_skip_the_pure_python_json_encoder(tmp_path, monkeypatch, capsys, name):
    # json.dumps with an indent runs json.encoder._make_iterencode, a Python
    # generator per value; the bytes still equal the benchmark's reference
    # digests of the same files
    want = json.loads((ROOT / "perfbench" / "reference.json").read_text())["cli"][name]

    def refuse(*args, **kwargs):
        raise AssertionError("rendered through the pure-Python json encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    bundle = tmp_path / "bundle"
    assert main(["synth", "--config", str(CONFIG_DIR / f"{name}.json"),
                 "--out", str(bundle)]) == 0
    capsys.readouterr()
    assert main(["verify", "--bundle", str(bundle), "--suite", "all"]) == want["verify_code"]
    assert capsys.readouterr().out == want["verify_stdout"]
    assert (bundle / "verify_report.json").is_file()
    digests = {fname: hashlib.sha256((bundle / fname).read_bytes()).hexdigest()
               for fname in want["bundle"]}
    for what, fmt in (("spectra", "json"), ("decay", "csv"), ("report", "json")):
        out = tmp_path / f"{what}.{fmt}"
        assert main(["dump", "--bundle", str(bundle), "--what", what, "--format", fmt,
                     "--out", str(out)]) == 0
        digests[what] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == {**want["bundle"], **want["dumps"]}


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # argparse makes a help formatter for every argument it adds, so the
    # parser is built on the first call of a process and reused after it
    builds = count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
    missing = str(tmp_path / "missing")
    per_call = []
    for argv in (["dump", "--bundle", missing, "--what", "spectra", "--format", "csv"],
                 ["synth", "--config", missing, "--out", missing],
                 ["dump", "--bundle", missing, "--what", "report"],
                 ["verify", "--bundle", missing, "--suite", "algebra"]):
        before = len(builds)
        assert main(argv) != 0
        per_call.append(len(builds) - before)
    assert per_call[1:] == [0, 0, 0], per_call
