import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfspectra.cf_builder import DeltaBlock
from cfspectra.cli import main, run_verify
from cfspectra.cocycle_engine import LABEL_DELAYED_TRANSLATE, TowerModel
from cfspectra.errors import BundleError, ConfigError, ScheduleError
from cfspectra.session import (
    _BLOCK_SCHEMA,
    _CONFIG_SCHEMA,
    BUNDLE_FILES,
    RENDERED_FILES,
    SessionConfig,
    canonical_json,
    load_bundle,
    render_bundle,
    save_bundle,
    synth,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def manifest_hash(bundle_dir) -> str:
    """The manifest's hash of a bundle's stored payload files: one sha256 over
    each file's name and bytes, in BUNDLE_FILES order."""
    h = hashlib.sha256()
    for name in BUNDLE_FILES:
        h.update(name.encode())
        h.update((Path(bundle_dir) / name).read_bytes())
    return h.hexdigest()


def small_direct_config():
    return SessionConfig(
        mode="direct", targets=(1, 2),
        blocks=(DeltaBlock(Fraction(1, 2), 2, r_start=3),
                DeltaBlock(Fraction(1, 4), 2, r_start=3)),
    )


@st.composite
def delta_blocks(draw):
    """One to three blocks with decreasing deltas; each sets r_start, r_seq or neither."""
    deltas = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=64)
                           .filter(lambda d: 0 < d < 1), min_size=1, max_size=3, unique=True))
    blocks = []
    for delta in sorted(deltas, reverse=True):
        stages = draw(st.integers(1, 4))
        counts = draw(st.sampled_from(["r_start", "r_seq", "neither"]))
        extra = {}
        if counts == "r_start":
            extra["r_start"] = draw(st.integers(2, 64))
        elif counts == "r_seq":
            extra["r_seq"] = tuple(draw(st.lists(st.integers(2, 64), min_size=stages,
                                                 max_size=stages)))
        blocks.append(DeltaBlock(delta, stages, **extra))
    return tuple(blocks)


@st.composite
def session_configs(draw):
    """Configs of both modes and all three shapes, optional keys set or left unset."""
    mode = draw(st.sampled_from(["direct", "product"]))
    shapes = ["delta_blocks", "staircase"] + (["arithmetic"] if mode == "direct" else [])
    shape = draw(st.sampled_from(shapes))
    targets = draw(st.sets(st.integers(1, 6), max_size=3)) | {1 if mode == "direct" else 2}
    # the depths whose algebra, with the square factor's 2 in product mode,
    # realizes every target
    square = {2} if mode == "product" else set()
    depths = [d for d in range(1, len(targets) + 1)
              if set(sorted(targets)[:d]) | square == targets]
    kwargs = draw(st.fixed_dictionaries({}, optional={
        "algebra_depth": st.none() | st.sampled_from(depths),
        "initial_height": st.integers(1, 5),
        "state_cap": st.integers(1, 10**7),
        "ratio_bound": st.integers(1, 1000) | st.floats(1, 1e6),
        "spectra_depth": st.none() | st.integers(1, 6),
    }))
    if shape == "delta_blocks":
        kwargs["blocks"] = draw(delta_blocks())
    else:
        kwargs["r_seq"] = tuple(draw(st.lists(st.integers(2, 64), min_size=1, max_size=6)))
    # a cylinder level is a depth of the schedule
    stages = sum(b.stages for b in kwargs["blocks"]) if "blocks" in kwargs else len(kwargs["r_seq"])
    if draw(st.booleans()):
        kwargs["cylinder_level"] = draw(st.integers(1, min(3, stages)))
    return SessionConfig(mode=mode, targets=tuple(targets), shape=shape, **kwargs)


class TestConfig:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(cfg=session_configs())
    def test_json_roundtrip_property(self, cfg):
        text = cfg.to_json()
        again = SessionConfig.from_json(text)
        assert again == cfg
        assert again.to_json() == text
        # a key left out takes its field's default, so a document without
        # the keys that hold defaults reads back as the same config
        doc = cfg.to_dict()
        sparse = {f.name: doc[f.name] for f in fields(SessionConfig)
                  if getattr(cfg, f.name) != f.default}
        assert SessionConfig.from_dict(sparse) == cfg

    def test_schema_keys_are_the_dataclass_fields(self):
        assert set(_CONFIG_SCHEMA) == {f.name for f in fields(SessionConfig)} | {"schema_version"}
        assert set(_BLOCK_SCHEMA) == {f.name for f in fields(DeltaBlock)}

    def test_tuple_block_is_refused(self):
        with pytest.raises(ConfigError, match=r"blocks\[0\]"):
            SessionConfig(mode="direct", targets=(1, 2),
                          blocks=((Fraction(1, 2), 2, None, None),))

    def test_mode_constraints(self):
        with pytest.raises(ScheduleError):
            SessionConfig(mode="direct", targets=(2, 3),
                          blocks=(DeltaBlock(Fraction(1, 2), 2),))
        with pytest.raises(ScheduleError):
            SessionConfig(mode="product", targets=(1, 3),
                          blocks=(DeltaBlock(Fraction(1, 2), 2),))

    def test_shape_constraints(self):
        with pytest.raises(ScheduleError):
            SessionConfig(mode="direct", targets=(1,), shape="staircase")
        with pytest.raises(ScheduleError):
            SessionConfig(mode="product", targets=(2,), shape="arithmetic",
                          r_seq=(2, 2))

    def test_json_roundtrip(self):
        cfg = small_direct_config()
        again = SessionConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_from_dict_accepts_every_key_to_dict_writes(self):
        cfg = SessionConfig(
            mode="product", targets=(2, 3),
            blocks=(DeltaBlock(Fraction(1, 2), 2, r_start=3),
                    DeltaBlock(Fraction(1, 4), 2, r_seq=(5, 6))),
            algebra_depth=2, initial_height=2, cylinder_level=2, state_cap=10**5,
            ratio_bound=50.0, spectra_depth=3,
        )
        doc = cfg.to_dict()
        assert "schema_version" in doc
        assert SessionConfig.from_dict(doc) == cfg

    @pytest.mark.parametrize("doc, path", [
        ({"mode": "direct"}, "missing config key targets"),
        ({"targets": [1]}, "missing config key mode"),
        ({"mode": "direct", "targets": [1, 2], "spectra_dpeth": 3,
          "blocks": [{"delta": [1, 2], "stages": 2}]}, "unknown config key spectra_dpeth"),
        ({"mode": "direct", "targets": [1, 2],
          "blocks": [{"delta": [1, 2], "stages": 2}, {"delta": [1, 4], "stage": 2}]},
         "unknown config key blocks[1].stage"),
        ({"mode": "direct", "targets": [1, 2], "blocks": [{"delta": [1, 2]}]},
         "missing config key blocks[0].stages"),
        ({"mode": "direct", "targets": [1, 2], "blocks": {"delta": [1, 2]}},
         "malformed value for config key blocks"),
        ({"mode": "direct", "targets": [1, 2], "blocks": [[1, 2]]},
         "blocks[0]: expected an object"),
        ([1, 2], "config: expected an object"),
        ({"mode": "direct", "targets": 5, "blocks": [{"delta": [1, 2], "stages": 2}]},
         "malformed value for config key targets"),
        ({"mode": "direct", "targets": [1, 2], "state_cap": "x",
          "blocks": [{"delta": [1, 2], "stages": 2}]},
         "malformed value for config key state_cap"),
        ({"mode": "direct", "targets": [1, 2], "initial_height": 1.5,
          "blocks": [{"delta": [1, 2], "stages": 2}]},
         "malformed value for config key initial_height"),
        ({"mode": "direct", "targets": [1, 2], "blocks": [{"delta": [1, 0], "stages": 2}]},
         "malformed value for config key blocks[0].delta"),
        ({"mode": "direct", "targets": [1, 2],
          "blocks": [{"delta": [1, 2], "stages": 2, "r_seq": [3, "4"]}]},
         "malformed value for config key blocks[0].r_seq"),
        ({"mode": "direct", "targets": [1, 2], "cylinder_level": 3,
          "blocks": [{"delta": [1, 2], "stages": 2}]},
         "malformed value for config key cylinder_level: 3"),
        ({"mode": "direct", "targets": [1, 2], "cylinder_level": -1,
          "blocks": [{"delta": [1, 2], "stages": 2}]},
         "malformed value for config key cylinder_level: -1"),
        ({"mode": "direct", "targets": [1, 2], "spectra_depth": 0,
          "blocks": [{"delta": [1, 2], "stages": 2}]},
         "malformed value for config key spectra_depth: 0"),
        ({"mode": "direct", "targets": [1, 2], "algebra_depth": 0,
          "blocks": [{"delta": [1, 2], "stages": 2}]},
         "malformed value for config key algebra_depth: 0"),
        ({"mode": "direct", "targets": [1, 2], "initial_height": 0,
          "blocks": [{"delta": [1, 2], "stages": 2}]},
         "malformed value for config key initial_height: 0 (a height of at least 1)"),
        ({"mode": "direct", "targets": [1, 2], "initial_height": -3,
          "blocks": [{"delta": [1, 2], "stages": 2}]},
         "malformed value for config key initial_height: -3 (a height of at least 1)"),
        ({"mode": "direct", "targets": [1, 2], "state_cap": 0,
          "blocks": [{"delta": [1, 2], "stages": 2}]},
         "malformed value for config key state_cap: 0 (a cap of at least 1)"),
        ({"mode": "direct", "targets": [1, 2], "state_cap": -5,
          "blocks": [{"delta": [1, 2], "stages": 2}]},
         "malformed value for config key state_cap: -5 (a cap of at least 1)"),
        # a stage of fewer than 2 columns, refused at load by its key
        *(({"mode": "direct", "targets": [1, 2],
            "blocks": [{"delta": [1, 2], "stages": 2, "r_start": r}]},
           f"malformed value for config key blocks[0].r_start: {r} "
           "(a column count of at least 2)") for r in (1, 0, -3)),
        *(({"mode": "direct", "targets": [1, 2],
            "blocks": [{"delta": [1, 2], "stages": 2, "r_start": 4},
                       {"delta": [1, 4], "stages": 2, "r_seq": seq}]},
           f"malformed value for config key blocks[1].r_seq: {seq} "
           "(column counts of at least 2)") for seq in ([1, 2], [-2, 3])),
        ({"mode": "direct", "targets": [1], "shape": "staircase", "r_seq": [1, 3, 4]},
         "malformed value for config key r_seq: [1, 3, 4] (column counts of at least 2)"),
        ({"mode": "direct", "targets": [1, 2], "shape": "arithmetic", "r_seq": [2, 1, 2]},
         "malformed value for config key r_seq: [2, 1, 2] (column counts of at least 2)"),
    ], ids=["no-targets", "no-mode", "misspelled-key", "block-key", "block-missing-key",
            "blocks-not-list", "block-not-object", "not-object", "targets-not-list",
            "state-cap-string", "height-float", "delta-zero-denominator", "r-seq-string",
            "cylinder-level-past-depth", "cylinder-level-negative", "spectra-depth-zero",
            "algebra-depth-zero", "initial-height-zero", "initial-height-negative",
            "state-cap-zero", "state-cap-negative", "r-start-one", "r-start-zero",
            "r-start-negative", "r-seq-one", "r-seq-negative", "staircase-r-seq-one",
            "arithmetic-r-seq-one"])
    def test_malformed_config_names_the_key(self, doc, path):
        with pytest.raises(ConfigError) as info:
            SessionConfig.from_dict(doc)
        assert str(info.value).startswith(path)

    def test_targets_normalized(self):
        cfg = SessionConfig(mode="direct", targets=(2, 1, 1),
                            blocks=(DeltaBlock(Fraction(1, 2), 1),))
        assert cfg.targets == (1, 2)


class TestSynth:
    def test_deterministic_bundles(self, tmp_path):
        cfg = small_direct_config()
        save_bundle(synth(cfg), tmp_path / "a")
        save_bundle(synth(cfg), tmp_path / "b")
        assert manifest_hash(tmp_path / "a") == manifest_hash(tmp_path / "b")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["bundle_hash"] == manifest_hash(tmp_path / "a")
        for name in ("config.json", "algebra.json", "schedule.json", "cocycle.json",
                     "validation.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_rendered_files_name_every_bundle_file(self, tmp_path):
        session = synth(small_direct_config())
        assert tuple(render_bundle(session)) == RENDERED_FILES
        save_bundle(session, tmp_path / "b")
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == sorted(RENDERED_FILES)

    def test_load_roundtrip(self, tmp_path):
        session = synth(small_direct_config())
        save_bundle(session, tmp_path / "b")
        again = load_bundle(tmp_path / "b")
        assert again.schedule == session.schedule
        assert again.labels == session.labels
        assert again.maps == session.maps

    def test_trivial_targets_bundle(self):
        session = synth(SessionConfig(mode="direct", targets=(1,),
                                      blocks=(DeltaBlock(Fraction(1, 2), 2),)))
        assert session.k_order == 1
        assert session.validation.ok

    def test_product_bundle_has_delayed_stages(self):
        session = synth(SessionConfig(mode="product", targets=(2, 3),
                                      blocks=(DeltaBlock(Fraction(1, 4), 6, r_start=4),)))
        kinds = {l.kind for l in session.labels}
        assert LABEL_DELAYED_TRANSLATE in kinds

    def test_validation_clean_for_delta_blocks(self):
        session = synth(small_direct_config())
        assert session.validation.ok


class TestCLI:
    def synth_bundle(self, tmp_path, cfg_dict, name="b"):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg_dict))
        out = tmp_path / name
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        return out

    def test_synth_verify_dump_roundtrip(self, tmp_path, capsys):
        cfg = {
            "mode": "direct", "targets": [1, 2],
            "blocks": [{"delta": [1, 2], "stages": 2, "r_start": 3},
                       {"delta": [1, 4], "stages": 2, "r_start": 4}],
        }
        bundle = self.synth_bundle(tmp_path, cfg)
        assert main(["verify", "--bundle", str(bundle), "--suite", "algebra"]) == 0
        assert main(["dump", "--bundle", str(bundle), "--what", "spectra",
                     "--out", str(tmp_path / "spec.json")]) == 0
        doc = json.loads((tmp_path / "spec.json").read_text())
        assert doc["components"]
        # report roundtrips through a re-parse
        assert main(["dump", "--bundle", str(bundle), "--what", "report",
                     "--out", str(tmp_path / "rep.json")]) == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["multiplicities"] == [1, 2]
        assert rep["consistent"]

    def test_weaklimits_probes_chi_where_kappa_levels_exceed_the_cap(self, tmp_path):
        # translate stage 3 has 8,048 levels, so h * kappa exceeds the state
        # cap, while its chi value tables hold 784 entries: within it
        cfg = {"mode": "direct", "targets": [1, 2], "state_cap": 8049,
               "blocks": [{"delta": [1, 2], "stages": 4, "r_seq": [8, 8, 64, 64]}]}
        bundle = self.synth_bundle(tmp_path, cfg)
        code, results = run_verify(bundle, ("weaklimits",))
        assert code == 0
        probed = [(r["stage_index"], r["component"]["kind"])
                  for r in results["weaklimits"]["detail"]["reports"]]
        assert (3, "chi") in probed, probed

    def test_weaklimits_keeps_reports_when_a_later_probe_is_refused(self, tmp_path):
        # the chi value tables hold (2 * 14)**2 = 784 entries, over this cap;
        # the eta probes before it fit, and their reports stay in the record
        cfg = {"mode": "direct", "targets": [1, 2], "state_cap": 700,
               "blocks": [{"delta": [1, 2], "stages": 4, "r_seq": [8, 8, 64, 64]}]}
        bundle = self.synth_bundle(tmp_path, cfg)
        code, results = run_verify(bundle, ("weaklimits",))
        assert code == 3
        detail = results["weaklimits"]["detail"]
        assert detail["failed"] == [
            "stage 1 ('chi', (0, 1)): probe table of 784 entries exceeds cap 700"]
        probed = [(r["stage_index"], r["component"]) for r in detail["reports"]]
        assert probed == [(2, {"kind": "eta", "eta": 0}), (2, {"kind": "eta", "eta": 1}),
                          (1, {"kind": "eta", "eta": 0})]
        assert all(r["passed"] for r in detail["reports"])

    def test_decay_csv_row_count(self, tmp_path):
        cfg = {
            "mode": "direct", "targets": [1],
            "shape": "staircase", "r_seq": [2, 3, 4, 5],
        }
        bundle = self.synth_bundle(tmp_path, cfg)
        assert main(["dump", "--bundle", str(bundle), "--what", "decay",
                     "--format", "csv", "--out", str(tmp_path / "d.csv")]) == 0
        lines = (tmp_path / "d.csv").read_text().strip().splitlines()
        assert lines[0] == "lag,pairId,value_numerator,value_denominator"
        n_cyl = 2  # height after the first stage
        lags = {int(l.split(",")[0]) for l in lines[1:]}
        assert len(lines) - 1 == len(lags) * n_cyl * n_cyl

    @pytest.mark.parametrize("what", ["spectra", "report"])
    def test_csv_of_a_json_only_dump_is_refused(self, tmp_path, capsys, what):
        bundle = self.synth_bundle(tmp_path, {"mode": "direct", "targets": [1],
                                              "shape": "staircase", "r_seq": [2, 3]})
        out = tmp_path / "dump.csv"
        capsys.readouterr()
        assert main(["dump", "--bundle", str(bundle), "--what", what,
                     "--format", "csv", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["existing-file", "under-a-file"])
    def test_synth_out_that_cannot_hold_a_bundle_is_an_error(self, tmp_path, capsys, case):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"mode": "direct", "targets": [1],
                                        "shape": "staircase", "r_seq": [2, 3]}))
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker if case == "existing-file" else blocker / "b"
        capsys.readouterr()
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bundle not written: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("case", ["missing-directory", "a-directory"])
    def test_dump_out_that_cannot_be_written_is_an_error(self, tmp_path, capsys, case):
        bundle = self.synth_bundle(tmp_path, {"mode": "direct", "targets": [1],
                                              "shape": "staircase", "r_seq": [2, 3]})
        out = tmp_path / "missing" / "x.json" if case == "missing-directory" else tmp_path
        capsys.readouterr()
        assert main(["dump", "--bundle", str(bundle), "--what", "spectra",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: dump not written: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "missing").exists()

    def test_unwritable_report_path_is_an_error(self, tmp_path, capsys):
        bundle = self.synth_bundle(tmp_path, {"mode": "direct", "targets": [1],
                                              "shape": "staircase", "r_seq": [2, 3]})
        report = tmp_path / "missing" / "r.json"
        capsys.readouterr()
        assert main(["verify", "--bundle", str(bundle), "--suite", "algebra",
                     "--report", str(report)]) == 1
        assert capsys.readouterr().err.startswith("error: report not written")
        assert not report.exists()
        # a writable --report path, and the default path, still get the record
        assert main(["verify", "--bundle", str(bundle), "--suite", "algebra",
                     "--report", str(tmp_path / "r.json")]) == 0
        assert json.loads((tmp_path / "r.json").read_text())["algebra"]["passed"]

    @pytest.mark.parametrize("command", ["verify", "dump"])
    def test_output_onto_a_bundle_file_is_refused(self, tmp_path, capsys, command):
        # verify --report B/cocycle.json used to pass and leave a bundle that
        # the next verify refused; every spelling of a bundle file is refused
        # before anything is written
        bundle = self.synth_bundle(tmp_path, {"mode": "direct", "targets": [1],
                                              "shape": "staircase", "r_seq": [2, 3]})
        (tmp_path / "link").symlink_to(bundle, target_is_directory=True)
        before = {name: (bundle / name).read_bytes() for name in RENDERED_FILES}
        what = "report" if command == "verify" else "dump"
        for name in RENDERED_FILES:
            for path in (bundle / name, bundle / ".." / bundle.name / name,
                         tmp_path / "link" / name):
                if command == "verify":
                    args = ["verify", "--bundle", str(bundle), "--suite", "algebra",
                            "--report", str(path)]
                else:
                    args = ["dump", "--bundle", str(bundle), "--what", "spectra",
                            "--out", str(path)]
                capsys.readouterr()
                assert main(args) == 1
                captured = capsys.readouterr()
                assert captured.err == (
                    f"error: {what} not written: {path} is the bundle's own {name}\n")
                assert captured.out == ""
        assert {name: (bundle / name).read_bytes() for name in RENDERED_FILES} == before
        assert not (bundle / "verify_report.json").exists()
        # the bundle still loads, and a path in its directory that is no
        # bundle file, the default report path among them, is written
        assert main(["verify", "--bundle", str(bundle), "--suite", "algebra"]) == 0
        assert main(["verify", "--bundle", str(bundle), "--suite", "algebra",
                     "--report", str(bundle / "verify_report.json")]) == 0
        assert main(["dump", "--bundle", str(bundle), "--what", "spectra",
                     "--out", str(bundle / "spectra.json")]) == 0
        assert json.loads((bundle / "spectra.json").read_text())["components"]
        assert {name: (bundle / name).read_bytes() for name in RENDERED_FILES} == before

    def test_corrupted_subgroup_exits_2(self, tmp_path):
        cfg = {
            "mode": "direct", "targets": [1, 2],
            "blocks": [{"delta": [1, 2], "stages": 2, "r_start": 3}],
        }
        bundle = self.synth_bundle(tmp_path, cfg)
        alg_path = bundle / "algebra.json"
        doc = json.loads(alg_path.read_text())
        assert doc["d_elements"]
        doc["d_elements"] = doc["d_elements"][1:]  # drop zero: not a subgroup
        alg_path.write_text(json.dumps(doc))
        assert main(["verify", "--bundle", str(bundle), "--suite", "algebra"]) == 2

    def test_rigid_bundle_fails_mixing_with_diagnostic(self, tmp_path):
        cfg = {
            "mode": "direct", "targets": [1],
            "shape": "arithmetic", "r_seq": [2, 2, 2, 2, 2, 2],
        }
        bundle = self.synth_bundle(tmp_path, cfg)
        code, results = run_verify(bundle, ("mixing",))
        assert code == 4
        assert "no decay" in results["mixing"]["detail"]["diagnostic"]

    def test_two_stage_bundle_gets_a_mixing_verdict(self, tmp_path):
        # h = 2 h_1, so the early window [h_1, 2 h_1] reaches lag h and is
        # clipped to h - 1 like the late one, not refused as a lag error
        cfg = {"mode": "direct", "targets": [1], "shape": "staircase", "r_seq": [2, 2]}
        bundle = self.synth_bundle(tmp_path, cfg)
        code, results = run_verify(bundle, ("mixing",))
        assert code == 4
        detail = results["mixing"]["detail"]
        assert "error" not in detail
        assert detail["early_window"] == [2, 3]
        assert "no decay" in detail["diagnostic"]

    def test_one_stage_bundle_is_refused_its_early_window(self, tmp_path):
        # h = h_1 = 4, so no lag of the early window [h_1, 2 h_1] lies below
        # the height; the refusal names that, not an empty lag window
        cfg = {"mode": "direct", "targets": [1], "shape": "staircase", "r_seq": [3]}
        code, results = run_verify(self.synth_bundle(tmp_path, cfg), ("mixing",))
        assert code == 4
        assert results["mixing"]["detail"] == {
            "error": "the schedule has no lag in [h_1, 2 h_1] = [4, 8] below its height 4"}

    @pytest.mark.parametrize("name", ["direct_12", "product_23"])
    def test_weaklimits_fails_when_the_cap_skips_every_labelled_stage(self, tmp_path, capsys,
                                                                       name):
        # stage 1 is labelled and 2 levels tall; a cap of 1 leaves no stage
        # to probe, which fails the gate instead of passing it on no probe
        doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        bundle = self.synth_bundle(tmp_path, dict(doc, state_cap=1))
        capsys.readouterr()
        assert main(["verify", "--bundle", str(bundle), "--suite", "weaklimits"]) == 3
        assert capsys.readouterr().out == "weaklimits: FAIL\n"
        report = json.loads((bundle / "verify_report.json").read_text())
        assert report["weaklimits"]["detail"] == {"failed": [
            "no labelled stage probed: state_cap 1 is below the shortest one, "
            "stage 1 of height 2"], "reports": []}

    def test_weaklimits_passes_a_schedule_with_no_labelled_stage(self, tmp_path):
        # staircase_mixing labels no stage, so there is nothing to probe
        # under any cap
        doc = json.loads((CONFIG_DIR / "staircase_mixing.json").read_text())
        for cap in (1, doc.get("state_cap", 2 * 10**6)):
            bundle = self.synth_bundle(tmp_path, dict(doc, state_cap=cap), name=f"cap{cap}")
            code, results = run_verify(bundle, ("weaklimits",))
            assert code == 0
            assert results["weaklimits"]["detail"] == {
                "notes": ["no labelled stages; nothing to probe"], "reports": []}

    def test_rotate_stage_probes_eta_once_when_kappa_is_one(self, tmp_path):
        # with targets [1], kappa = 1, so eta_1 is eta_0: rotate stage 4
        # gets one eta probe
        cfg = {"mode": "direct", "targets": [1],
               "blocks": [{"delta": [1, 2], "stages": 4, "r_seq": [4, 4, 8, 8]}]}
        code, results = run_verify(self.synth_bundle(tmp_path, cfg), ("weaklimits",))
        assert code == 0
        probed = [(r["stage_index"], r["component"])
                  for r in results["weaklimits"]["detail"]["reports"]]
        assert probed == [(4, {"kind": "eta", "eta": 0}), (3, {"kind": "eta", "eta": 0}),
                          (3, {"kind": "chi", "d": [1]})]

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), float("-inf")], ids=str)
    def test_non_finite_ratio_bound_is_refused(self, tmp_path, capsys, bound):
        # r_seq [2000] breaks the default mass-ratio bound, so algebra fails;
        # json reads NaN and Infinity, either of which would turn that gate off
        cfg = {"mode": "direct", "targets": [1], "shape": "staircase", "r_seq": [2000]}
        code, _ = run_verify(self.synth_bundle(tmp_path, cfg), ("algebra",))
        assert code == 2
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(dict(cfg, ratio_bound=bound)))
        capsys.readouterr()
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "n")]) == 1
        assert capsys.readouterr().err == (
            f"error: malformed value for config key ratio_bound: {bound!r} (a finite number)\n")

    @pytest.mark.parametrize("bound", [-1, 0.5], ids=str)
    def test_ratio_bound_below_one_is_refused(self, tmp_path, capsys, bound):
        # every mass ratio is at least 1, so such a bound fails every verify
        cfg = {"mode": "direct", "targets": [1], "shape": "staircase", "r_seq": [2, 3],
               "ratio_bound": bound}
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "n")]) == 1
        assert capsys.readouterr().err == (
            f"error: malformed value for config key ratio_bound: {bound!r} "
            "(a bound of at least 1)\n")
        assert not (tmp_path / "n").exists()
        with pytest.raises(ConfigError, match="ratio_bound"):
            SessionConfig.from_dict(cfg)

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--bundle", "B", "--suite", "bogus"], "argument --suite: invalid choice"),
        (["verify"], "the following arguments are required: --bundle"),
    ], ids=["unknown-suite", "no-bundle"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        # verify exit 2 is a failed algebra suite, which a typo must not read as
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: cfspectra verify ")
        assert f"cfspectra verify: error: {message}" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cfspectra verify ")

    @pytest.mark.parametrize("mode, targets, depth", [
        ("direct", [1, 2], 1), ("direct", [1, 2], 5), ("product", [2, 3], 1),
        ("product", [1, 2, 3], 2)], ids=str)
    def test_algebra_depth_short_of_the_targets_is_refused(self, tmp_path, capsys, mode,
                                                           targets, depth):
        # the algebra of the first `depth` targets, with the square factor's
        # 2 in product mode, misses a target, so the multiplicity suite could
        # never pass; a depth past the targets is refused by key, not by synth
        cfg = {"mode": mode, "targets": targets, "algebra_depth": depth,
               "blocks": [{"delta": [1, 2], "stages": 2}]}
        path = tmp_path / "depth.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "n")]) == 1
        assert capsys.readouterr().err == (
            f"error: malformed value for config key algebra_depth: {depth} (a depth of at "
            f"most {len(targets)} whose algebra realizes the targets {targets})\n")
        assert not (tmp_path / "n").exists()

    @pytest.mark.parametrize("mode, targets, depth", [
        ("product", [1, 2], 1), ("direct", [1, 2], 2), ("direct", [1, 2], None),
        ("product", [2, 3], None)], ids=str)
    def test_algebra_depth_that_realizes_the_targets_is_accepted(self, tmp_path, mode,
                                                                 targets, depth):
        # product [1, 2] at depth 1 takes its 2 from the square factor
        cfg = {"mode": mode, "targets": targets, "algebra_depth": depth,
               "blocks": [{"delta": [1, 2], "stages": 2}]}
        code, results = run_verify(self.synth_bundle(tmp_path, cfg), ("multiplicity",))
        assert code == 0, results

    @pytest.mark.parametrize("bound", [1, 100.0], ids=str)
    def test_ratio_bound_of_at_least_one_is_accepted(self, tmp_path, bound):
        cfg = {"mode": "direct", "targets": [1], "shape": "staircase", "r_seq": [2, 3],
               "ratio_bound": bound}
        bundle = self.synth_bundle(tmp_path, cfg)
        assert load_bundle(bundle).config.ratio_bound == bound
        # the shipped configs take the default, 100.0
        assert {SessionConfig.from_json(p.read_text()).ratio_bound
                for p in CONFIG_DIR.glob("*.json")} == {100.0}

    def test_stage_of_one_column_is_refused_by_its_key(self, tmp_path, capsys):
        # refused when the config loads, not when the schedule is built:
        # synth exits 1, and verify of a bundle whose config.json was edited 2
        doc = json.loads((CONFIG_DIR / "direct_12.json").read_text())
        bundle = self.synth_bundle(tmp_path, doc)
        doc["blocks"][0]["r_start"] = 1
        message = ("malformed value for config key blocks[0].r_start: 1 "
                   "(a column count of at least 2)")
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "n")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        (bundle / "config.json").write_text(json.dumps(doc))
        assert main(["verify", "--bundle", str(bundle), "--suite", "all"]) == 2
        assert f"bundle failed to load: {message}" in capsys.readouterr().out

    def test_oversized_decay_table_is_refused(self, tmp_path, capsys):
        # at cylinder level 9 the pairs of direct_12's cylinders alone number
        # about 10**11; they are refused before they are listed
        doc = json.loads((CONFIG_DIR / "direct_12.json").read_text())
        bundle = self.synth_bundle(tmp_path, dict(doc, cylinder_level=9))
        capsys.readouterr()
        assert main(["dump", "--bundle", str(bundle), "--what", "decay"]) == 1
        assert "decay rows exceed enumeration cap" in capsys.readouterr().err
        code, results = run_verify(bundle, ("mixing",))
        assert code == 4
        assert "decay rows exceed enumeration cap" in results["mixing"]["detail"]["error"]

    def test_a_cap_refuses_what_is_allocated_not_a_height(self, tmp_path, capsys):
        # under a cap of 1,000 the 590,866-level staircase_mixing tower is not
        # refused: the mixing suite is refused on the decay pairs it would
        # form, the multiplicity suite passes, and the closed-form spectra
        # are dumped at the full depth
        doc = json.loads((CONFIG_DIR / "staircase_mixing.json").read_text())
        bundle = self.synth_bundle(tmp_path, dict(doc, state_cap=1000))
        code, results = run_verify(bundle, ("mixing", "multiplicity"))
        assert code == 4
        assert results["mixing"]["detail"] == {
            "error": "decay pairs of 2346 entries exceed cap 1000"}
        assert results["multiplicity"]["passed"]
        capsys.readouterr()
        assert main(["dump", "--bundle", str(bundle), "--what", "spectra"]) == 0
        spectra = json.loads(capsys.readouterr().out)
        assert spectra["depth"] == 10
        assert spectra["components"][0]["spectrum"]["total_multiplicity"] == 590866
        assert main(["dump", "--bundle", str(bundle), "--what", "decay"]) == 1
        assert "decay pairs of 2028 entries exceed cap 1000" in capsys.readouterr().err

    def test_missing_bundle_is_reported(self, tmp_path):
        code, results = run_verify(tmp_path / "nope", ("algebra",))
        assert code == 2
        assert "error" in results

    @pytest.mark.parametrize("case", ["missing-directory", "config-without-targets",
                                      "config-not-utf8", "config-long-integer"])
    def test_unloadable_bundle_dump_is_an_error_not_a_traceback(self, tmp_path, case):
        # in a fresh process, so that an uncaught exception shows as a traceback
        bundle = tmp_path / "b"
        if case != "missing-directory":
            bundle.mkdir()
            (bundle / "config.json").write_bytes({
                "config-without-targets": json.dumps({"mode": "direct"}).encode(),
                "config-not-utf8": b"\xff\xfe{",
                "config-long-integer": b'{"mode": "direct", "targets": [' + b"1" * 5000 + b"]}",
            }[case])
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cfspectra.cli", "dump", "--bundle", str(bundle),
             "--what", "spectra"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: bundle failed to load: ")
        assert "Traceback" not in proc.stderr


# each block is the second of its config, and its refusal names that
MALFORMED_BLOCKS = {
    "delta-out-of-range": ({"delta": [3, 2], "stages": 2},
                           "blocks[1]: delta must be in (0,1), got 3/2"),
    "no-stages": ({"delta": [1, 4], "stages": 0}, "blocks[1]: block needs at least one stage"),
    "r-seq-length": ({"delta": [1, 4], "stages": 2, "r_seq": [3]},
                     "blocks[1]: r_seq must match block size"),
}


# schedules over the size caps, each refused before it is built
OVERSIZED = {
    "too-many-columns": ({"blocks": [{"delta": [1, 2], "stages": 2, "r_start": 10**8}]},
                         "stages 1..1 have 100000000 columns, over the cap 1000000"),
    "too-deep": ({"blocks": [{"delta": [1, 2], "stages": 10**6}]},
                 "1000000 stages would make a tower taller than"),
    "too-tall": ({"initial_height": 2**62}, "stage 1 tower height"),
}


@pytest.mark.parametrize("case", ["config-without-targets", "misspelled-key", "block-key",
                                  "mistyped-value", "missing-file", "not-json", "not-utf8",
                                  "long-integer", "schema-version", *MALFORMED_BLOCKS,
                                  *OVERSIZED])
def test_malformed_config_synth_is_an_error_not_a_traceback(tmp_path, case):
    # in a fresh process, so that an uncaught exception shows as a traceback
    config = tmp_path / "c.json"
    good = {"mode": "direct", "targets": [1, 2], "blocks": [{"delta": [1, 2], "stages": 2}]}
    docs = {
        "config-without-targets": {"mode": "direct"},
        "misspelled-key": dict(good, spectra_dpeth=3),
        "block-key": dict(good, blocks=good["blocks"] + [{"delta": [1, 4], "stage": 2}]),
        "mistyped-value": dict(good, state_cap="x"),
        "schema-version": dict(good, schema_version=7),
        **{name: dict(good, blocks=good["blocks"] + [block])
           for name, (block, _) in MALFORMED_BLOCKS.items()},
        **{name: dict(good, **change) for name, (change, _) in OVERSIZED.items()},
    }
    if case in docs:
        config.write_text(json.dumps(docs[case]))
    elif case == "not-json":
        config.write_text("{mode: direct")
    elif case == "not-utf8":
        config.write_bytes(b"\xff\xfe{")
    elif case == "long-integer":
        config.write_text('{"mode": "direct", "targets": [' + "1" * 5000 + "]}")
    out = tmp_path / "bundle"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cfspectra.cli", "synth", "--config", str(config),
         "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    if case == "block-key":
        assert "blocks[1].stage" in proc.stderr
    if case == "schema-version":
        assert "schema_version: 7" in proc.stderr
    if case in MALFORMED_BLOCKS:
        assert MALFORMED_BLOCKS[case][1] in proc.stderr
    if case in OVERSIZED:
        assert OVERSIZED[case][1] in proc.stderr


SHIPPED_DOCS = {name: SessionConfig.from_json((CONFIG_DIR / f"{name}.json").read_text()).to_dict()
                for name in ("direct_12", "product_23", "staircase_mixing")}
# powers of ten reach the size caps, which plain integer draws seldom do;
# scalars are drawn as often as containers
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(0, 30).map(lambda e: 10**e)
                | st.floats() | st.text(max_size=8))
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(SHIPPED_DOCS)), data=st.data())
def test_synth_of_any_one_key_changed_exits_0_or_1(name, data):
    # one key of a shipped config, at the top level or in a block, takes a
    # random JSON value; synth either writes the bundle or refuses the config
    doc = json.loads(json.dumps(SHIPPED_DOCS[name]))
    paths = [(doc, key) for key in doc]
    paths += [(block, key) for block in doc.get("blocks", []) for key in block]
    owner, key = data.draw(st.sampled_from(paths))
    owner[key] = data.draw(JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "c.json"
        config.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["synth", "--config", str(config), "--out", str(Path(tmp) / "b")])
    assert code in (0, 1)
    assert (code == 1) == err.getvalue().startswith("error: ")


@pytest.fixture(scope="module")
def shipped_bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("shipped")
    return {name: save_bundle(synth(SessionConfig.from_dict(doc)), root / name)
            for name, doc in SHIPPED_DOCS.items()}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(SHIPPED_DOCS)), data=st.data())
def test_verify_and_dump_of_any_one_key_changed_end_in_an_exit_code(shipped_bundles, name,
                                                                    data):
    # one key of a synthesized shipped bundle's config.json, at the top level
    # or in a block, takes a random JSON value; the file stays canonical and
    # the manifest takes its new hash, so a value that leaves the other files
    # unchanged loads and runs every suite
    doc = json.loads(json.dumps(SHIPPED_DOCS[name]))
    paths = [(doc, key) for key in doc]
    paths += [(block, key) for block in doc.get("blocks", []) for key in block]
    owner, key = data.draw(st.sampled_from(paths))
    owner[key] = data.draw(JSON_VALUES)
    what, fmt = data.draw(st.sampled_from(
        [("spectra", "json"), ("report", "json"), ("decay", "json"), ("decay", "csv")]))
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "b"
        bundle.mkdir()
        for fname in BUNDLE_FILES + ("validation.json", "manifest.json"):
            (bundle / fname).write_bytes((shipped_bundles[name] / fname).read_bytes())
        (bundle / "config.json").write_text(canonical_json(doc))
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["bundle_hash"] = manifest_hash(bundle)
        (bundle / "manifest.json").write_text(canonical_json(manifest))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            verify_code = main(["verify", "--bundle", str(bundle), "--suite", "all"])
            dump_code = main(["dump", "--bundle", str(bundle), "--what", what,
                              "--format", fmt, "--out", str(Path(tmp) / "dump")])
    assert verify_code in (0, 2, 3, 4, 5)
    assert dump_code in (0, 1)
    assert (dump_code == 1) == err.getvalue().startswith("error: ")


def _edit(name, change):
    """Tamper with one bundle file: change its JSON and store it canonically."""
    def tamper(bundle):
        path = bundle / name
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(canonical_json(doc))
    return tamper


def _set(keys, value):
    def change(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value(doc[keys[-1]])
    return change


def _rewrite_unindented(bundle):
    path = bundle / "cocycle.json"
    path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True))


TAMPER_CASES = {
    "label": ("cocycle.json", _edit("cocycle.json", _set(
        ["labels", 0, "kind"], lambda _: LABEL_DELAYED_TRANSLATE))),
    "table-row": ("cocycle.json", _edit("cocycle.json", _set(
        ["stage_maps", 0, "alpha", 1], lambda row: [(row[0] + 1) % 2] + row[1:]))),
    "schedule-cut": ("schedule.json", _edit("schedule.json", _set(
        ["stages", 1, "cuts", 1], lambda c: c + 5))),
    "annihilator-size": ("algebra.json", _edit("algebra.json", _set(
        ["annihilator_size"], lambda n: n + 1))),
    "d-elements-without-zero": ("algebra.json", _edit("algebra.json", _set(
        ["d_elements"], lambda elems: elems[1:]))),
    "validation-ok": ("validation.json", _edit("validation.json", _set(
        ["ok"], lambda ok: not ok))),
    "manifest-hash": ("manifest.json", _edit("manifest.json", _set(
        ["bundle_hash"], lambda h: "0" * len(h)))),
    "missing-cocycle": ("cocycle.json", lambda bundle: (bundle / "cocycle.json").unlink()),
    "non-canonical": ("cocycle.json", _rewrite_unindented),
}


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["direct_12", "product_23", "staircase_mixing"])
    def test_config_parses(self, name):
        cfg = SessionConfig.from_json((CONFIG_DIR / f"{name}.json").read_text())
        assert cfg.num_stages >= 4

    # sha256 of the verify_report.json that `verify` (every suite) writes
    # next to each shipped bundle: reports, margins and refusals are pinned
    # byte for byte, so a change that moves any of them must say so here
    VERIFY_REPORT_SHA256 = {
        "direct_12": "6afa107c19215609fcec8610f1894c1e583fdbb5323b30d827476416ad6140e2",
        "product_23": "66c34377c6f1858acfe89579e2dc7fd271948b5452fa30e28e9d32aa65da4799",
        "staircase_mixing": "6f5277c4908d82b0aa782be1896233e1dae85d8847b6ca22aa841c963d8decaf",
    }

    @pytest.mark.parametrize("name", sorted(VERIFY_REPORT_SHA256))
    def test_verify_report_bytes_are_pinned(self, tmp_path, capsys, name):
        bundle = tmp_path / name
        assert main(["synth", "--config", str(CONFIG_DIR / f"{name}.json"),
                     "--out", str(bundle)]) == 0
        assert main(["verify", "--bundle", str(bundle)]) == 0
        digest = hashlib.sha256((bundle / "verify_report.json").read_bytes()).hexdigest()
        assert digest == self.VERIFY_REPORT_SHA256[name]

    def test_verify_all_green_on_shipped_configs(self, tmp_path):
        # the full gate run lives in the acceptance suite; here just synth
        for path in sorted(CONFIG_DIR.glob("*.json")):
            cfg = SessionConfig.from_json(path.read_text())
            session = synth(cfg)
            assert session.validation.ok, path.name

    @pytest.mark.parametrize("case", sorted(TAMPER_CASES))
    def test_tampered_bundle_is_refused(self, tmp_path, capsys, case):
        # a bundle is its config's synthesis: any other stored byte refuses it
        fname, tamper = TAMPER_CASES[case]
        bundle = tmp_path / "b"
        assert main(["synth", "--config", str(CONFIG_DIR / "direct_12.json"),
                     "--out", str(bundle)]) == 0
        tamper(bundle)
        capsys.readouterr()
        assert main(["verify", "--bundle", str(bundle), "--suite", "all"]) == 2
        out = capsys.readouterr().out
        assert out.count("FAIL") == 4 and f"bundle failed to load: {fname}" in out
        assert main(["dump", "--bundle", str(bundle), "--what", "spectra"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(
            f"error: bundle failed to load: {fname}")
        assert len(captured.err) < 250  # a one-line file is quoted in part
        if case != "missing-cocycle":
            assert "line" in captured.err and "expected" in captured.err

    def test_refusal_quotes_the_first_differing_line(self, tmp_path):
        honest = save_bundle(synth(small_direct_config()), tmp_path / "honest")
        bundle = save_bundle(synth(small_direct_config()), tmp_path / "b")
        _edit("schedule.json", _set(["stages", 1, "cuts", 1], lambda c: c + 5))(bundle)
        want = (honest / "schedule.json").read_text().split("\n")
        got = (bundle / "schedule.json").read_text().split("\n")
        n = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        with pytest.raises(BundleError) as info:
            load_bundle(bundle)
        assert str(info.value) == (
            f"schedule.json line {n + 1} differs from the synthesis of config.json: "
            f"stored {got[n]!r}, expected {want[n]!r}")

    @pytest.mark.parametrize("name", ["direct_12", "product_23"])
    @pytest.mark.parametrize("command", [
        ["verify", "--suite", "multiplicity"],
        ["dump", "--what", "spectra"],
        ["dump", "--what", "report"],
    ], ids=["verify-multiplicity", "dump-spectra", "dump-report"])
    def test_corrupted_transition_changes_no_output(self, tmp_path, capsys, monkeypatch,
                                                    name, command):
        # spectra are read off the schedule, so a transition value that the
        # tower model gets wrong changes no byte of these commands' output
        bundle = tmp_path / name
        assert main(["synth", "--config", str(CONFIG_DIR / f"{name}.json"),
                     "--out", str(bundle)]) == 0
        argv = [command[0], "--bundle", str(bundle)] + command[1:]

        def run():
            capsys.readouterr()
            assert main(argv) == 0
            report = bundle / "verify_report.json"
            return capsys.readouterr(), report.read_bytes() if report.exists() else None

        honest_output = run()
        honest = TowerModel.step_values

        def corrupted(self, steps):
            # one level's transition value off by a module generator
            d_beta, d_alpha = honest(self, steps)
            d_alpha = d_alpha.copy()
            d_alpha[0, 0] = (d_alpha[0, 0] + 1) % self._orders[0]
            return d_beta, d_alpha

        monkeypatch.setattr(TowerModel, "step_values", corrupted)
        assert run() == honest_output
