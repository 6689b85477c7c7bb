"""Span recorder for the traced run, installed from outside the program.

Wrappers replace the public functions of each layer at every name where
they are looked up (the defining module, every cfspectra module that
imported the name, the package namespace, class attributes, and the CLI's
suite table) and are restored afterwards.  Each call made while the
recorder is active becomes a span (name, start, end, parent span,
operation id).  Spans are held in memory and written out once, when the
run ends.  A span's self time is its duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# layer -> functions wrapped; "Class.method" entries are patched on the class
LAYERS = {
    "finite_algebra": ("orbit_average", "orbit_trace_counts", "cyclo_equal", "orbit"),
    "module_factory": ("assemble_triple", "compactify", "dualize"),
    "cf_builder": ("concat_delta_blocks", "build_schedule", "validate"),
    "cocycle_engine": ("label_cycle", "stage_maps", "TowerModel.__init__",
                       "TowerModel.step_values", "TowerModel.cylinder_ids",
                       "canonical_word", "evaluate_cocycle"),
    "koopman_lab": ("weak_limit_probe", "correlation_decay", "build_component",
                    "exact_spectrum", "class_equivalence_check",
                    "disjointness_certificate", "multiplicity_report"),
    "session": ("synth", "save_bundle", "load_bundle", "Session.model"),
}
CLI_COMMANDS = ("synth", "verify", "dump")
CLI_SUITES = ("algebra", "weaklimits", "mixing", "multiplicity")

# counters and ratios derived from the spans, beside calls and self time
EXTRAS = {
    "cocycle_engine.levels_built": "count",
    "koopman_lab.component_states": "count",
    "koopman_lab.probe_margin_max": "1",
    "koopman_lab.cert_hit_ratio": "1",
    "session.model_cache_hit_ratio": "1",
}

BUILD = "cocycle_engine.TowerModel.build"
MODEL = "session.Session.model"
CERT = "koopman_lab.disjointness_certificate"
ORBIT_AVERAGE = "finite_algebra.orbit_average"


def span_name(layer, target):
    if target == "TowerModel.__init__":
        return BUILD
    return f"{layer}.{target}"


def span_names():
    """Every span name the traced run reports, in table order."""
    names = [span_name(layer, t) for layer, targets in LAYERS.items() for t in targets]
    names += [f"cli.{c}" for c in CLI_COMMANDS]
    names += [f"cli.suite.{s}" for s in CLI_SUITES]
    return names


def layer_of(name):
    return name.split(".", 1)[0]


class SpanRecorder:
    """Spans and value events of one run, kept in memory."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.events = []  # (name, value, op id) for sizes seen at a boundary
        self.op_id = None
        self.active = False
        self._stack = []

    def wrap(self, name, fn, on_return=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            rec.spans.append(None)
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec._stack.pop()
                rec.spans[idx] = (name, start, end, parent, rec.op_id)
            if on_return is not None:
                on_return(rec, args, result)
            return result

        return traced

    def event(self, name, value):
        self.events.append((name, value, self.op_id))

    def write(self, path):
        """Write spans and events once, as one JSON document."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "events": self.events,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


# -- boundary hooks (sizes and margins read off return values) ---------------


def _levels_built(rec, args, _):
    rec.event("cocycle_engine.levels_built", args[0].height)


def _component_states(rec, _, op):
    rec.event("koopman_lab.component_states", op.n_states)


def _probe_margin(rec, _, report):
    rec.event("koopman_lab.probe_margin", report.max_deviation / report.tolerance)


HOOKS = {
    BUILD: _levels_built,
    "koopman_lab.build_component": _component_states,
    "koopman_lab.weak_limit_probe": _probe_margin,
}


# -- installation -------------------------------------------------------------


class Installation:
    """The wrappers in place; ``restore`` puts every original back."""

    def __init__(self):
        self.patches = []  # (kind, container, key, original)
        self.absent = []

    def _set(self, kind, container, key, value):
        if kind == "attr":
            setattr(container, key, value)
        else:
            container[key] = value

    def patch(self, kind, container, key, original, wrapper):
        self.patches.append((kind, container, key, original))
        self._set(kind, container, key, wrapper)

    def restore(self):
        for kind, container, key, original in reversed(self.patches):
            self._set(kind, container, key, original)
        self.patches.clear()


def _cfspectra_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cfspectra" or name.startswith("cfspectra."))]


def install(recorder):
    """Wrap every traced function at every name it is looked up by."""
    import importlib

    inst = Installation()
    modules = _cfspectra_modules()
    for layer, targets in LAYERS.items():
        mod = importlib.import_module(f"cfspectra.{layer}")
        for target in targets:
            name = span_name(layer, target)
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    inst.absent.append(name)
                    continue
                original = vars(cls)[meth]
                inst.patch("attr", cls, meth, original,
                           recorder.wrap(name, original, HOOKS.get(name)))
                continue
            original = getattr(mod, target, None)
            if original is None:
                inst.absent.append(name)
                continue
            wrapper = recorder.wrap(name, original, HOOKS.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        inst.patch("attr", m, attr, original, wrapper)

    cli = importlib.import_module("cfspectra.cli")
    main = cli.main
    wrapped = {c: recorder.wrap(f"cli.{c}", main) for c in CLI_COMMANDS}

    def dispatch(argv=None):
        command = argv[0] if argv else None
        return wrapped.get(command, main)(argv)

    inst.patch("attr", cli, "main", main, dispatch)
    table = getattr(cli, "_SUITE_FUNCS", None)
    for suite in CLI_SUITES:
        if table is None or suite not in table:
            inst.absent.append(f"cli.suite.{suite}")
            continue
        inst.patch("item", table, suite, table[suite],
                   recorder.wrap(f"cli.suite.{suite}", table[suite]))
    return inst


# -- summary --------------------------------------------------------------------


def self_times(spans):
    """Self time per span: its duration minus its direct children's."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def pass_tables(recorder, pass_ids):
    """Per traced pass: calls, self time, and the derived counters."""
    spans = recorder.spans
    selfs = self_times(spans)
    # flags that depend on ancestors/children; parents precede their children
    under_cert = [False] * len(spans)
    built_inside = [False] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        under_cert[i] = name == CERT or (parent >= 0 and under_cert[parent])
        if name == BUILD and parent >= 0:
            built_inside[parent] = True
    tables = {p: {"calls": Counter(), "self": defaultdict(float), "extra": Counter(),
                  "margins": []} for p in pass_ids}
    for i, (name, _, _, _, op) in enumerate(spans):
        p = op[0] if op else None
        if p not in tables:
            continue
        t = tables[p]
        t["calls"][name] += 1
        t["self"][name] += selfs[i]
        if name == ORBIT_AVERAGE and under_cert[i]:
            t["extra"]["cert_orbit_averages"] += 1
        if name == MODEL and not built_inside[i]:
            t["extra"]["model_hits"] += 1
    for name, value, op in recorder.events:
        p = op[0] if op else None
        if p not in tables:
            continue
        if name == "koopman_lab.probe_margin":
            tables[p]["margins"].append(value)
        else:
            tables[p]["extra"][name] += value
    return [tables[p] for p in pass_ids]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tables):
    """Medians over traced passes of each per-pass figure, by metric name."""
    def med(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for name in span_names():
        out[f"{name}.calls"] = (med([t["calls"][name] for t in tables]), "count")
        out[f"{name}.self_s"] = (med([t["self"][name] for t in tables]), "s")
    for layer in list(LAYERS) + ["cli"]:
        out[f"{layer}.self_s"] = (med([
            sum(v for n, v in t["self"].items() if layer_of(n) == layer) for t in tables
        ]), "s")
    out["cocycle_engine.levels_built"] = (
        med([t["extra"]["cocycle_engine.levels_built"] for t in tables]), "count")
    out["koopman_lab.component_states"] = (
        med([t["extra"]["koopman_lab.component_states"] for t in tables]), "count")
    out["koopman_lab.probe_margin_max"] = (
        max((m for t in tables for m in t["margins"]), default=0.0), "1")
    # a certificate evaluates one orbit average per character of each pair
    out["koopman_lab.cert_hit_ratio"] = (med([
        _ratio(t["calls"][CERT], t["extra"]["cert_orbit_averages"] / 2) for t in tables
    ]), "1")
    out["session.model_cache_hit_ratio"] = (med([
        _ratio(t["extra"]["model_hits"], t["calls"][MODEL]) for t in tables
    ]), "1")
    return out


# Self times that are zero on some workload by design (the expected nulls:
# probe_scale never reaches the CLI, spectra or certificates, exact_algebra
# never builds a TowerModel) are printed in the table but kept out of the
# JSON result, whose time figures are measurements that vary from run to
# run.  These are the self times every workload's passes produce.
JSON_SELF_TIMES = ("finite_algebra.orbit_average", "finite_algebra.orbit",
                   "finite_algebra", "cocycle_engine", "koopman_lab")


def json_metric_names():
    """The per-layer metrics of the JSON result line, in BENCHMARK.json order."""
    names = [f"{n}.calls" for n in span_names()]
    names += [f"{n}.self_s" for n in JSON_SELF_TIMES]
    return names + list(EXTRAS) + ["trace.pass_ref", "trace.untraced_pass_ref",
                                   "trace.overhead_ratio"]


JSON_METRICS = json_metric_names()
