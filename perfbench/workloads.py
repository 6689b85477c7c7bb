"""The benchmark's three workloads: seeded inputs, set-up, operations, checks.

A workload is a fixed list of operations that makes up one pass; the
harness runs passes back to back (closed loop, one operation in flight).
An operation's ``run`` is what gets timed.  Its ``check`` compares the
output with the reference digests in ``reference.json`` and returns a
failure reason, or None when the output is correct.

The benchmark reaches cfspectra only from outside, through module
attributes looked up at call time (``kl.weak_limit_probe(...)``, never a
name imported once), so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("cli_roundtrip", "probe_scale", "exact_algebra")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# -- cli_roundtrip ------------------------------------------------------------

CONFIGS = ("direct_12", "product_23", "staircase_mixing")
DUMPS = (("spectra", "json"), ("decay", "csv"), ("report", "json"))
# verify_report.json is not digested: it is a run record, and run records
# are meant to gain timings.
BUNDLE_FILES = ("config.json", "algebra.json", "schedule.json", "cocycle.json",
                "validation.json", "manifest.json")

# -- probe_scale --------------------------------------------------------------

# name -> (mode, targets, per-stage column counts of one delta = 1/2 block)
PROBE_SESSIONS = {
    "probe_direct": ("direct", (1, 2), (8, 8, 64, 64)),
    "probe_product": ("product", (2, 3), (6, 6, 6, 6, 64)),
    "probe_large": ("direct", (1, 2), (45, 45, 64)),
    "scaled_16x16x128x16": ("direct", (1, 2), (16, 16, 128, 16)),
    "scaled_32x32x256": ("direct", (1, 2), (32, 32, 256)),
}
# the acceptance probes: (session, stage, component)
ACCEPTANCE_PROBES = (
    ("probe_direct", 3, ("eta", 0)),
    ("probe_direct", 3, ("chi", (1, 0))),
    ("probe_direct", 3, ("chi", (0, 1))),
    ("probe_direct", 3, ("chi", (1, 1))),
    ("probe_direct", 3, ("chi", (1, 2))),
    ("probe_direct", 4, ("eta", 0)),
    ("probe_product", 5, ("eta", 0)),
    ("probe_product", 5, ("chi", (0, 1, 0))),
    ("probe_large", 3, ("eta", 0)),
)
# The scaled stages: (session, stage, component kind), where the seed draws
# a nonzero character of that kind, or the trivial one for "eta0".  Four,
# so that a pass has an odd number of operations and its median operation
# lies inside one group of like operations rather than between two.
SCALED_PROBES = (
    ("scaled_16x16x128x16", 4, "eta"),  # 1,531,420 levels, rotate
    ("scaled_16x16x128x16", 3, "chi"),  # 95,712 levels, translate, margin 0.39
    ("scaled_32x32x256", 3, "eta0"),  # 1,284,032 levels, translate
    ("scaled_32x32x256", 3, "chi"),  # margin 0.23
)
# relative tolerance on a probe's max_deviation (a float computed from exact
# bucket counts; only summation order may change it)
DEVIATION_RTOL = 1e-9

# -- exact_algebra --------------------------------------------------------------

TARGET_SETS = ((1,), (2,), (1, 2), (2, 3), (1, 3, 5), (2, 4, 6))
ORACLE_CONFIGS = ("direct_12", "product_23")
# 13 chunks of 250 triples make 25 operations per pass.  Then the median
# operation falls in the middle of the direct_12 chunks and the p90 in the
# middle of the {1,3,5} assemblies, each inside a group of like operations
# rather than at the edge between two.
ORACLE_CHUNKS = 13
ORACLE_CHUNK_SIZE = 250
CERT_TARGETS = (1, 3, 5)
# Certificate cost is set by how far the scan runs before an orbit average
# separates the pair.  Of the 528 class pairs, 336 separate at scan position
# 1 (0.005-0.02 s), 176 at 1331 or 1332 (about 2 s) and 16 at 9317 (about
# 14 s, more than a whole pass, so they are not drawn and reference.json
# leaves them out).  Drawing a fixed number from each stratum keeps every
# seed's pass the same size.
CERT_FAST_SCAN = 1  # highest scan position counted as fast
CERT_SLOW_SCAN = 1332  # highest scan position drawn at all
CERT_DRAWS = {"fast": 5, "slow": 1}


def cert_config_doc():
    """Smallest session realizing CERT_TARGETS; only its algebra is used."""
    return {"mode": "direct", "targets": list(CERT_TARGETS),
            "blocks": [{"delta": [1, 2], "stages": 1}]}


def probe_config_doc(name):
    mode, targets, r_seq = PROBE_SESSIONS[name]
    return {"mode": mode, "targets": list(targets),
            "blocks": [{"delta": [1, 2], "stages": len(r_seq), "r_seq": list(r_seq)}]}


def probe_key(session, stage, component):
    kind, payload = component
    text = ",".join(str(x) for x in payload) if kind == "chi" else str(payload)
    return f"{session}/{stage}/{kind}/{text}"


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def make_inputs(workload, seed, reference):
    """Everything the seed decides, as plain data; the program sees only this.

    cli_roundtrip runs the three shipped configs and has nothing to draw.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_roundtrip":
        return {"configs": list(CONFIGS)}
    if workload == "probe_scale":
        scaled = []
        for name, stage, kind in SCALED_PROBES:
            if kind == "eta0":
                scaled.append((name, stage, ("eta", 0)))
                continue
            pick = rng.choice(reference["scaled_choices"][name][kind])
            scaled.append((name, stage, (kind, tuple(pick) if kind == "chi" else pick)))
        return {"probes": list(ACCEPTANCE_PROBES) + scaled}
    if workload == "exact_algebra":
        heights = reference["oracle_heights"]
        chunks = []
        for c in range(ORACLE_CHUNKS):
            name = ORACLE_CONFIGS[c % len(ORACLE_CONFIGS)]
            h = heights[name]
            triples = [tuple(rng.randrange(h) for _ in range(3))
                       for _ in range(ORACLE_CHUNK_SIZE)]
            chunks.append((name, triples))
        strata = {"fast": [], "slow": []}
        for i, j, scan, _ in reference["certificates"]:
            strata["fast" if scan <= CERT_FAST_SCAN else "slow"].append((i, j))
        pairs = []
        for stratum in ("slow", "fast"):
            pairs += rng.sample(strata[stratum], CERT_DRAWS[stratum])
        return {"target_sets": list(TARGET_SETS), "chunks": chunks, "pairs": pairs}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _mismatch(what, got, want):
    return f"{what}: got {got!r}, reference {want!r}"


def session_config(doc):
    from cfspectra import session

    return session.SessionConfig.from_dict(doc)


def build(workload, root, workdir, inputs, reference):
    """Set the workload up; returns the list of operations of one pass."""
    if workload == "cli_roundtrip":
        return _cli_ops(Path(root), Path(workdir), inputs, reference["cli"])
    if workload == "probe_scale":
        return _probe_ops(inputs, reference["probes"])
    if workload == "exact_algebra":
        return _algebra_ops(Path(root), inputs, reference)
    raise ValueError(f"unknown workload {workload!r}")


def run_cli(argv):
    from cfspectra import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_ops(root, workdir, inputs, ref):
    ops = []
    for name in inputs["configs"]:
        config = root / "configs" / f"{name}.json"
        bundle = workdir / name
        want = ref[name]

        def check_synth(res, bundle=bundle, want=want):
            code, _ = res
            if code != 0:
                return f"synth exit code {code}"
            for fname, digest in want["bundle"].items():
                path = bundle / fname
                if not path.is_file():
                    return f"bundle file {fname} missing"
                if sha256_file(path) != digest:
                    return f"bundle file {fname} differs from its reference digest"
            return None

        def check_verify(res, want=want):
            code, text = res
            if code != want["verify_code"]:
                return _mismatch("verify exit code", code, want["verify_code"])
            if "FAIL" in text:
                return "verify printed a FAIL verdict"
            if text != want["verify_stdout"]:
                return _mismatch("verify output", text, want["verify_stdout"])
            return None

        ops.append(Operation(f"{name}:synth",
                             lambda c=config, b=bundle: run_cli(
                                 ["synth", "--config", str(c), "--out", str(b)]),
                             check_synth))
        ops.append(Operation(f"{name}:verify",
                             lambda b=bundle: run_cli(
                                 ["verify", "--bundle", str(b), "--suite", "all"]),
                             check_verify))
        for what, fmt in DUMPS:
            out = workdir / f"{name}.{what}.{fmt}"

            def check_dump(res, out=out, digest=want["dumps"][what]):
                code, _ = res
                if code != 0:
                    return f"dump exit code {code}"
                if not out.is_file() or sha256_file(out) != digest:
                    return f"dump {out.name} differs from its reference digest"
                return None

            ops.append(Operation(
                f"{name}:dump-{what}",
                lambda b=bundle, w=what, f=fmt, o=out: run_cli(
                    ["dump", "--bundle", str(b), "--what", w, "--format", f, "--out", str(o)]),
                check_dump))
    return ops


def fresh_session(base):
    """A copy of a session that shares its data but none of its caches."""
    public = {f.name: getattr(base, f.name)
              for f in dataclasses.fields(base) if not f.name.startswith("_")}
    return type(base)(**public)


def check_probe(report, want):
    """Compare a WeakLimitReport with its reference; None when it matches."""
    if report.prediction_kind != want["prediction_kind"]:
        return _mismatch("prediction kind", report.prediction_kind, want["prediction_kind"])
    if abs(report.max_deviation - want["max_deviation"]) > DEVIATION_RTOL * max(
            1.0, abs(want["max_deviation"])):
        return _mismatch("max deviation", report.max_deviation, want["max_deviation"])
    if not report.passed:
        return (f"probe verdict FAIL: deviation {report.max_deviation:.4g} > "
                f"tolerance {report.tolerance:.4g}")
    return None


def probe_operation(base_session, name, stage, component, want):
    """One weak-limit probe paying a fresh TowerModel build, as verify does."""
    from cfspectra import koopman_lab as kl

    def run():
        return kl.weak_limit_probe(fresh_session(base_session), stage, component)

    return Operation(probe_key(name, stage, component), run,
                     lambda rep: check_probe(rep, want))


def _probe_ops(inputs, ref):
    from cfspectra import session as ses

    sessions = {name: ses.synth(session_config(probe_config_doc(name)))
                for name in PROBE_SESSIONS}
    ops = []
    for name, stage, component in inputs["probes"]:
        key = probe_key(name, stage, component)
        if key not in ref:
            raise KeyError(f"no reference for probe {key}")
        ops.append(probe_operation(sessions[name], name, stage, component, ref[key]))
    return ops


def brute_trace_counts(triple):
    """Trace counts by stepping theta one element at a time (oracle)."""
    d_set = set(triple.d_elements())
    zero = triple.module.zero()
    counts = set()
    for d in d_set:
        if d == zero:
            continue
        x, hits = d, 0
        while True:
            hits += x in d_set
            x = triple.theta.apply(x)
            if x == d:
                break
        counts.add(hits)
    return sorted(counts)


class CocycleOracle:
    """Canonical words and cocycle values recomputed by the benchmark itself.

    It reads only the session's data (stage cuts, base heights, the per-stage
    tables and the generator of the acting group) and does its own arithmetic
    in K x| A: a bisect column search instead of the program's scan, and
    powers of the generator's images instead of the program's automorphisms.
    """

    def __init__(self, session):
        sched, ctx = session.schedule, session.ctx
        self.depth = sched.depth
        self.h0 = sched.initial_height
        self.stages = [(st.cuts, st.base_height) for st in sched.stages[: self.depth]]
        self.tables = [dict(zip(m.cuts, zip(m.beta, m.alpha)))
                       for m in session.maps[: self.depth]]
        self.kappa = ctx.k_order
        self.orders = tuple(ctx.module.orders)
        # images[t][j] = theta^t of the j-th module generator
        gen = [tuple(img) for img in ctx.action.generator_maps[0].images]
        images = [[tuple(int(i == j) for i in range(len(self.orders)))
                   for j in range(len(self.orders))]]
        for _ in range(1, self.kappa):
            images.append([self._combine(gen, img) for img in images[-1]])
        self.images = images

    def _combine(self, images, a):
        """sum_j a[j] * images[j], reduced by the module orders."""
        out = [0] * len(self.orders)
        for coeff, img in zip(a, images):
            for i, x in enumerate(img):
                out[i] += coeff * x
        return tuple(x % n for x, n in zip(out, self.orders))

    def word(self, level):
        """(least depth, residual, cuts) of a level."""
        cuts = []
        rest = level
        for n in range(self.depth, 0, -1):
            stage_cuts, base = self.stages[n - 1]
            c = stage_cuts[bisect.bisect_right(stage_cuts, rest) - 1]
            if rest >= c + base:  # between columns: a spacer of stage n
                return n, rest, tuple(reversed(cuts))
            cuts.append(c)
            rest -= c
        if rest >= self.h0:
            raise ValueError(f"level {level} outside the tower")
        return 0, rest, tuple(reversed(cuts))

    def _mul(self, g1, g2):
        (k1, a1), (k2, a2) = g1, g2
        moved = self._combine(self.images[k1], a2)
        return ((k1 + k2) % self.kappa,
                tuple((x + y) % n for x, y, n in zip(a1, moved, self.orders)))

    def _inv(self, g):
        k, a = g
        back = (-k) % self.kappa
        return back, tuple(-x % n for x, n in zip(self._combine(self.images[back], a),
                                                  self.orders))

    def product(self, word):
        """Product of the table entries along a word's cuts, stage by stage."""
        least, _, cuts = word
        g = (0, tuple(0 for _ in self.orders))
        for table, c in zip(self.tables[least:], cuts):
            g = self._mul(g, table[c])
        return g

    def cocycle(self, wx, wy):
        return self._mul(self.product(wx), self._inv(self.product(wy)))


def _algebra_ops(root, inputs, reference):
    from cfspectra import koopman_lab as kl
    from cfspectra import module_factory as mf
    from cfspectra import session as ses
    from cfspectra import cocycle_engine as ce

    ops = []
    for targets in inputs["target_sets"]:
        want = reference["algebra"][",".join(map(str, targets))]

        def run(targets=targets):
            triple = mf.assemble_triple(targets)
            return triple, mf.compactify(triple), mf.dualize(triple)

        def check(res, targets=targets, want=want):
            triple, tower, duality = res
            got = {"B": triple.module.size, "D": triple.d_size(),
                   "H": duality.annihilator_size, "k_orders": tower.k_orders()}
            if duality.annihilator_size * triple.d_size() != triple.module.size:
                return "|H|*|D| != |B|"
            for key in got:
                if got[key] != want[key]:
                    return _mismatch(key, got[key], want[key])
            counts = brute_trace_counts(triple)
            if counts != sorted(targets) or counts != want["trace_counts"]:
                return _mismatch("trace counts", counts, want["trace_counts"])
            return None

        ops.append(Operation(f"algebra:{','.join(map(str, targets))}", run, check))

    sessions, oracles = {}, {}
    for name in ORACLE_CONFIGS:
        config = ses.SessionConfig.from_json((root / "configs" / f"{name}.json").read_text())
        sessions[name] = ses.synth(config)
        h = sessions[name].schedule.height(sessions[name].schedule.depth)
        if h != reference["oracle_heights"][name]:
            raise ValueError(f"{name}: tower height {h} differs from the reference")
        oracles[name] = CocycleOracle(sessions[name])
    for c, (name, triples) in enumerate(inputs["chunks"]):
        session = sessions[name]

        def run(session=session, triples=triples):
            sched, maps, ctx = session.schedule, session.maps, session.ctx
            out = []
            for levels in triples:
                x, y, z = (ce.canonical_word(lv, sched) for lv in levels)
                out.append(((x, y, z),
                            ce.evaluate_cocycle(x, y, maps, ctx),
                            ce.evaluate_cocycle(y, z, maps, ctx),
                            ce.evaluate_cocycle(x, z, maps, ctx)))
            return out

        def check(res, oracle=oracles[name], triples=triples):
            for levels, (words, *values) in zip(triples, res):
                want = [oracle.word(lv) for lv in levels]
                for lv, w, ow in zip(levels, words, want):
                    if w.depth != oracle.depth or (w.least_depth, w.residual, w.cuts) != ow:
                        return _mismatch(f"canonical word of level {lv}", w, ow)
                wx, wy, wz = want
                for got, pair in zip(values, ((wx, wy), (wy, wz), (wx, wz))):
                    want_value = oracle.cocycle(*pair)
                    if got != want_value:
                        return _mismatch(f"cocycle value on levels {levels}", got, want_value)
            return None

        ops.append(Operation(f"cocycle:{name}:{c}", run, check))

    cert_session = ses.synth(session_config(cert_config_doc()))
    duality = cert_session.duality
    reps = [cls[0] for cls in kl.factor_classes(cert_session)]
    seps = {(i, j): tuple(a) for i, j, _, a in reference["certificates"]}
    for i, j in inputs["pairs"]:
        chi_i = duality.character_of_dual(reps[i])
        chi_j = duality.character_of_dual(reps[j])

        def run(chi_i=chi_i, chi_j=chi_j):
            return kl.disjointness_certificate(duality, chi_i, chi_j)

        def check(cert, want=seps[(i, j)]):
            if cert.equivalent:
                return "cross-class pair certified equivalent"
            if tuple(cert.separating_a) != want:
                return _mismatch("separating element", cert.separating_a, want)
            if cert.l_left.equals(cert.l_right):
                return "separating element has equal orbit averages"
            return None

        ops.append(Operation(f"certificate:{i}-{j}", run, check))
    return ops
