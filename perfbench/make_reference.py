"""Regenerate reference.json, the digests every benchmark output is checked
against, from the program as it stands.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right: whatever the
program prints now becomes what later runs must reproduce.  The
certificate table scans the {1,3,5} module for the class pairs the
benchmark can draw; it takes the longest.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from cfspectra import finite_algebra as fa  # noqa: E402
from cfspectra import koopman_lab as kl  # noqa: E402
from cfspectra import module_factory as mf  # noqa: E402
from cfspectra import session as ses  # noqa: E402


def cli_reference(workdir):
    out = {}
    for name in wl.CONFIGS:
        bundle = workdir / name
        config = ROOT / "configs" / f"{name}.json"
        code, _ = wl.run_cli(["synth", "--config", str(config), "--out", str(bundle)])
        assert code == 0, f"{name}: synth exit {code}"
        entry = {"bundle": {f: wl.sha256_file(bundle / f) for f in wl.BUNDLE_FILES}}
        code, text = wl.run_cli(["verify", "--bundle", str(bundle), "--suite", "all"])
        entry["verify_code"], entry["verify_stdout"] = code, text
        entry["dumps"] = {}
        for what, fmt in wl.DUMPS:
            target = workdir / f"{name}.{what}.{fmt}"
            code, _ = wl.run_cli(["dump", "--bundle", str(bundle), "--what", what,
                                   "--format", fmt, "--out", str(target)])
            assert code == 0, f"{name}: dump {what} exit {code}"
            entry["dumps"][what] = wl.sha256_file(target)
        out[name] = entry
    return out


def probe_reference():
    sessions = {name: ses.synth(wl.session_config(wl.probe_config_doc(name)))
                for name in wl.PROBE_SESSIONS}
    choices = {}
    pool = list(wl.ACCEPTANCE_PROBES)
    for name, stage, kind in wl.SCALED_PROBES:
        s = sessions[name]
        choices[name] = {"eta": list(range(1, s.k_order)),
                         "chi": [list(d) for d in s.factor_characters() if any(d)]}
        if kind == "eta0":
            pool.append((name, stage, ("eta", 0)))
        else:
            pool += [(name, stage, (kind, tuple(c) if kind == "chi" else c))
                     for c in choices[name][kind]]
    probes = {}
    for name, stage, component in pool:
        rep = kl.weak_limit_probe(wl.fresh_session(sessions[name]), stage, component)
        probes[wl.probe_key(name, stage, component)] = {
            "prediction_kind": rep.prediction_kind,
            "max_deviation": rep.max_deviation,
            "tolerance": rep.tolerance,
            "passed": rep.passed,
        }
    return choices, probes


def algebra_reference():
    out = {}
    for targets in wl.TARGET_SETS:
        triple = mf.assemble_triple(targets)
        duality = mf.dualize(triple)
        out[",".join(map(str, targets))] = {
            "B": triple.module.size,
            "D": triple.d_size(),
            "H": duality.annihilator_size,
            "k_orders": mf.compactify(triple).k_orders(),
            "trace_counts": wl.brute_trace_counts(triple),
        }
    return out


def certificate_reference():
    """[i, j, scan position, separating element] for every drawable class pair.

    Same scan as disjointness_certificate (module order, first element whose
    orbit averages differ), with each orbit average computed once per class.
    The scan stops after CERT_SLOW_SCAN: a pair that separates later is never
    drawn, so it is left out.
    """
    session = ses.synth(wl.session_config(wl.cert_config_doc()))
    action = session.duality.dual_action
    elements = action.module.elements()
    chars = [session.duality.character_of_dual(cls[0]) for cls in kl.factor_classes(session)]
    cache = {}

    def average(i, k):
        if (i, k) not in cache:
            cache[(i, k)] = fa.orbit_average(action, chars[i], elements[k])
        return cache[(i, k)]

    table = []
    for i in range(len(chars)):
        for j in range(i + 1, len(chars)):
            k = 0
            while k <= wl.CERT_SLOW_SCAN and fa.cyclo_equal(average(i, k), average(j, k)):
                k += 1
            if k <= wl.CERT_SLOW_SCAN:
                table.append([i, j, k, list(elements[k])])
    return table


def dumps(ref):
    """JSON text of the reference, with the certificate table one row per line."""
    rest = json.dumps({k: v for k, v in ref.items() if k != "certificates"},
                      indent=1, sort_keys=True)
    rows = ",\n  ".join(json.dumps(row) for row in ref["certificates"])
    return rest[:-2] + f',\n "certificates": [\n  {rows}\n ]\n}}\n'


def main():
    workdir = ROOT / ".perfbench" / "reference-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ref = {"cli": cli_reference(workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref["scaled_choices"], ref["probes"] = probe_reference()
    ref["algebra"] = algebra_reference()
    ref["oracle_heights"] = {}
    for name in wl.ORACLE_CONFIGS:
        config = ses.SessionConfig.from_json((ROOT / "configs" / f"{name}.json").read_text())
        sched = ses.synth(config).schedule
        ref["oracle_heights"][name] = sched.height(sched.depth)
    ref["certificates"] = certificate_reference()
    wl.REFERENCE_PATH.write_text(dumps(ref))
    print(f"wrote {wl.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
