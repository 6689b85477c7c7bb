"""Tests of the benchmark itself: each guards one of its checks.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from cfspectra import cli, cocycle_engine, koopman_lab, session  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return wl.load_reference()


def test_tampered_bundle_byte_fails_digest_check(tmp_path, reference):
    inputs = {"configs": ["direct_12"]}
    ops = wl.build("cli_roundtrip", HERE.parent, tmp_path, inputs, reference)
    synth_op = ops[0]
    result = synth_op.run()
    assert synth_op.check(result) is None
    target = tmp_path / "direct_12" / "cocycle.json"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 1
    target.write_bytes(bytes(data))
    failure = synth_op.check(result)
    assert failure is not None and "cocycle.json" in failure


def test_failing_probe_verdict_counts_as_failed():
    # (8, 8, 128) warm-up: the translate chi probe at stage 3 is over budget
    doc = {"mode": "direct", "targets": [1, 2],
           "blocks": [{"delta": [1, 2], "stages": 3, "r_seq": [8, 8, 128]}]}
    base = session.synth(session.SessionConfig.from_dict(doc))
    component = ("chi", (0, 1))
    rep = koopman_lab.weak_limit_probe(wl.fresh_session(base), 3, component)
    assert not rep.passed and rep.max_deviation / rep.tolerance > 1.05
    # the reference matches this exact output, so only the verdict can fail
    want = {"prediction_kind": rep.prediction_kind, "max_deviation": rep.max_deviation}
    runner = run.Runner([wl.probe_operation(base, "over_budget", 3, component, want)])
    runner.run_pass(1)
    assert runner.attempted == 1
    assert len(runner.failures) == 1 and "verdict FAIL" in runner.failures[0]


def test_wrong_word_or_cocycle_value_fails_oracle_check(tmp_path, reference):
    h = reference["oracle_heights"]["product_23"]
    inputs = {"target_sets": [], "pairs": [],
              "chunks": [("product_23", [(0, h // 3, h - 1), (5, h // 2, 7)])]}
    (op,) = wl.build("exact_algebra", HERE.parent, tmp_path, inputs, reference)
    result = op.run()
    assert op.check(result) is None
    (x, y, z), v_xy, v_yz, v_xz = result[1]
    # a word that still sums back to its level, but with the wrong cut
    moved = dataclasses.replace(y, residual=y.residual + y.cuts[-1], cuts=y.cuts[:-1] + (0,))
    assert moved.residual + sum(moved.cuts) == y.residual + sum(y.cuts)
    failure = op.check([result[0], ((x, moved, z), v_xy, v_yz, v_xz)])
    assert failure is not None and "canonical word" in failure
    # values that still satisfy the cocycle identity, but are not the cocycle
    config = (HERE.parent / "configs" / "product_23.json").read_text()
    ctx = session.synth(session.SessionConfig.from_json(config)).ctx
    e = (0, ctx.module.generators()[0])
    wrong_xy, wrong_xz = ctx.mul(v_xy, e), ctx.mul(v_xz, e)
    assert ctx.mul(wrong_xy, v_yz) == wrong_xz != v_xz
    failure = op.check([result[0], ((x, y, z), wrong_xy, v_yz, wrong_xz)])
    assert failure is not None and "cocycle value" in failure


def _lookup_table():
    """Every (container, key) -> object a traced run may replace."""
    table = {}
    for name, mod in sys.modules.items():
        if name == "cfspectra" or name.startswith("cfspectra."):
            for attr, value in vars(mod).items():
                if callable(value):
                    table[(name, attr)] = value
    for cls in (cocycle_engine.TowerModel, session.Session):
        for attr, value in vars(cls).items():
            table[(cls.__name__, attr)] = value
    for suite, fn in cli._SUITE_FUNCS.items():
        table[("suite", suite)] = fn
    return table


def test_traced_run_restores_wrapped_functions(tmp_path, reference):
    before = _lookup_table()
    recorder = tracing.SpanRecorder()
    installation = tracing.install(recorder)
    try:
        assert koopman_lab.weak_limit_probe is not before[("cfspectra.koopman_lab",
                                                           "weak_limit_probe")]
        assert cli._SUITE_FUNCS["algebra"] is not before[("suite", "algebra")]
        ops = wl.build("cli_roundtrip", HERE.parent, tmp_path,
                       {"configs": ["direct_12"]}, reference)
        runner = run.Runner(ops, recorder)
        runner.run_pass(1, traced=True)
        assert not runner.failures
    finally:
        installation.restore()
    assert installation.absent == []
    tables = tracing.pass_tables(recorder, [1])
    assert tables[0]["calls"]["cli.verify"] == 1
    assert tables[0]["calls"]["cli.suite.multiplicity"] == 1
    assert tables[0]["calls"]["cocycle_engine.TowerModel.build"] >= 1
    after = _lookup_table()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload, reference):
    assert wl.make_inputs(workload, 7, reference) == wl.make_inputs(workload, 7, reference)


def test_different_seeds_different_inputs(reference):
    a = wl.make_inputs("exact_algebra", 1, reference)
    b = wl.make_inputs("exact_algebra", 2, reference)
    assert a["chunks"] != b["chunks"] and a["pairs"] != b["pairs"]
    probes = {tuple(wl.make_inputs("probe_scale", s, reference)["probes"]) for s in range(1, 11)}
    assert len(probes) > 1


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1, (1, 0)), ("b", 1.0, 4.0, 0, (1, 0)),
             ("c", 2.0, 3.0, 1, (1, 0)), ("b", 5.0, 6.0, 0, (1, 0))]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracing.JSON_METRICS
