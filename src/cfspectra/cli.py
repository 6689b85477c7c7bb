"""Command line front end: synth / verify / dump.

    cfspectra synth  --config c.json --out DIR
    cfspectra verify --bundle DIR [--suite all|algebra|weaklimits|mixing|multiplicity]
    cfspectra dump   --bundle DIR --what spectra|decay|report [--format json|csv] [--out FILE]

Verify exit codes: 0 all gated checks pass, 2 algebra, 3 weak limits,
4 mixing trend, 5 multiplicity (first failing suite in that order).
A usage error (an unknown --suite, a missing --bundle) prints the usage
and exits 1, so it never reads as a failed algebra suite; --help exits 0.
A verify run also writes its suite reports next to the bundle
(verify_report.json, or the --report path).  A --report path that cannot
be written ends the run with `error: ...` and exit 1, and so do a synth
--out that cannot hold the bundle (`error: bundle not written: ...`; an
existing file, or a path under one) and a dump --out that cannot be
written (`error: dump not written: ...`; a missing directory, or a
directory).  A --report or dump --out path that resolves to one of the six
bundle files of the --bundle directory is refused the same way, before
anything is written (`error: report not written: ...`, `error: dump not
written: ...`), since writing it would break the bundle; the default
verify_report.json is no bundle file.

A bundle is fully determined by its config.json.  verify and dump
re-synthesize it from there and compare every bundle file below, byte for
byte, with the re-synthesized text.  A missing or differing file refuses
the bundle (verify exit 2, dump exit 1) with a message naming the file,
its first differing line, and the stored and expected text of that line.
A missing directory or an unreadable config.json is refused the same way.
synth refuses a config file it cannot read or parse, or one with an
unknown or missing key or a value of the wrong type, with `error: ...`
and exit 1; the message names the key path (for example `blocks[1].stage`).
A schedule with more than 10**6 columns over all its stages, or a tower
taller than 2**63 - 1 levels, is refused the same way before it is built,
and so is a cylinder_level outside 0..(number of stages), or an
initial_height, state_cap or spectra_depth below 1.  So is an
algebra_depth whose algebra cannot realize the targets: the set of the
first algebra_depth targets, with 2 added in product mode (the square
factor's), must be the whole target set, so only product [1, 2] may
stop short of its last target, and no depth may exceed the target count.
verify and dump refuse each array they would build over more entries
than state_cap (the dense table a weak-limit probe's rows render, or its module images; the
cylinder-depth tower a probe lists, its level pairs and column offsets,
the only tower and pairs it lists, and its tables of pair weights; the
column pairs of correlation decay), and a decay table of
more than 10**6 rows, before
building it (a failed suite, or dump exit 1); a tower's height alone is
never refused.  A decay lag window [h_n, 2 h_n] with no lag below the
height, as for a one-stage schedule, fails the mixing suite by name.  A refused probe is
listed in the suite's `failed`, beside the reports of the probes that ran;
a state_cap below every labelled stage's height fails the weak-limit suite
the same way, naming the shortest one.
Spectra are dumped at spectra_depth, clipped to the depth, else at the full depth.

Bundle layout (canonical JSON, schema_version fields throughout):

    config.json      the SessionConfig the bundle was built from
    algebra.json     targets, depth, module orders, generator images of the
                     acting automorphism, distinguished-subgroup coordinates /
                     generators (and elements when small), tower group orders,
                     annihilator size and coordinates
    schedule.json    per-stage base height, cuts, i/r parameters, shape kind,
                     regime tags, rigidity fraction and block index
    cocycle.json     per-stage labels and the beta/alpha tables on the cuts
    validation.json  the schedule validation report
    manifest.json    sha256 over the four payload files

Dump formats: spectra and report as JSON only, so --format csv is
refused for them with `error: ...` and exit 1; decay as JSON or as CSV
with columns lag, pairId, value_numerator, value_denominator (exact
fractions).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .cocycle_engine import LABEL_PLAIN, LABEL_RIGID_ROTATE
from .errors import CfspectraError, LagRangeError, SizeCapError
from .finite_algebra import ENUMERATION_CAP
from .koopman_lab import (
    correlation_decay,
    decay_csv,
    exact_spectrum,
    multiplicity_report,
    sample_lags,
    stage_probes,
)
from .session import (
    RENDERED_FILES,
    SessionConfig,
    canonical_json,
    load_bundle,
    save_bundle,
    synth,
)

EXIT_OK = 0
EXIT_ALGEBRA = 2
EXIT_WEAKLIMITS = 3
EXIT_MIXING = 4
EXIT_MULTIPLICITY = 5

SUITES = ("algebra", "weaklimits", "mixing", "multiplicity")
_SUITE_EXIT = {
    "algebra": EXIT_ALGEBRA,
    "weaklimits": EXIT_WEAKLIMITS,
    "mixing": EXIT_MIXING,
    "multiplicity": EXIT_MULTIPLICITY,
}


# ---------------------------------------------------------------------------
# verify suites; each returns (passed, report dict)
# ---------------------------------------------------------------------------


def _suite_algebra(session):
    # load_bundle re-synthesized the triple (which raises unless its trace
    # counts equal the targets) and matched every stored file against it
    rep = session.validation
    if not rep.ok:
        raise CfspectraError("schedule validation failed: " + "; ".join(rep.failures))
    notes = [f"trace counts {list(session.triple.targets)} match targets",
             "schedule validation clean"]
    return True, {"notes": notes, "validation": rep.to_dict()}


def _probe_stages(session):
    """Highest stage per labelled class kind no taller than state_cap: not an
    allocation bound (no probe lists its stage's tower), but deeper stages
    wait on the finite-stage predictions of ROADMAP item 1."""
    chosen = {}
    cap = session.config.state_cap
    for n in range(session.schedule.depth, 0, -1):
        label = session.label(n)
        if label.kind == LABEL_PLAIN or label.kind in chosen:
            continue
        if session.schedule.height(n) > cap:
            continue
        chosen[label.kind] = n
    return chosen


def _suite_weaklimits(session):
    reports = []
    failed = []
    chosen = _probe_stages(session)
    if not chosen:
        # heights grow with the stage, so the first labelled stage is the shortest
        n = next((n for n, label in enumerate(session.labels, start=1)
                  if label.kind != LABEL_PLAIN), None)
        if n is None:
            return True, {"notes": ["no labelled stages; nothing to probe"], "reports": []}
        return False, {"failed": [f"no labelled stage probed: state_cap "
                                  f"{session.config.state_cap} is below the shortest one, "
                                  f"stage {n} of height {session.schedule.height(n)}"],
                       "reports": []}
    probes = {}
    for kind, n in sorted(chosen.items()):
        if kind == LABEL_RIGID_ROTATE:
            # eta_0 and eta_1, one character when kappa = 1
            probes[n] = [("eta", e) for e in range(min(2, session.k_order))]
        else:
            # eta_0, and the skew-tower probe against the first nonzero factor character
            nonzero = [d for d in session.factor_characters() if any(d)]
            probes[n] = [("eta", 0)] + [("chi", d) for d in nonzero[:1]]
    # every chosen stage counted by one pair counter
    results = stage_probes(session, probes)
    for n, components in probes.items():
        for component, rep in zip(components, results[n]):
            if isinstance(rep, CfspectraError):
                failed.append(f"stage {n} {component}: {rep}")
                continue
            reports.append(rep.to_dict())
            if not rep.passed:
                failed.append(
                    f"stage {n} {component}: {rep.max_deviation:.4g} > {rep.tolerance:.4g}"
                )
    return not failed, {"failed": failed, "reports": reports}


def _cylinder_decay(session, tower, lags):
    """correlation_decay over every pair of cylinders at the session's
    cylinder level; more rows than ENUMERATION_CAP are refused before the
    pairs are listed."""
    n0 = session.config.cylinder_level
    n_cyl = session.schedule.height(n0)
    rows = n_cyl * n_cyl * len(lags)
    if rows > ENUMERATION_CAP:
        raise SizeCapError(f"{rows} decay rows exceed enumeration cap {ENUMERATION_CAP}")
    pairs = [(f, g) for f in range(n_cyl) for g in range(n_cyl)]
    return correlation_decay(tower, pairs, lags, n0)


def _lag_window(schedule, n):
    """[h_n, 2 h_n] clipped to the lags below the full tower's height; a
    window with no such lag is refused (LagRangeError), naming the cause."""
    h, height = schedule.height(n), schedule.height(schedule.depth)
    if h >= height:
        raise LagRangeError(f"the schedule has no lag in [h_{n}, 2 h_{n}] = [{h}, {2 * h}] "
                            f"below its height {height}")
    return h, min(2 * h, height - 1)


def _suite_mixing(session):
    """Decay over an early window [h_1, 2 h_1] and a late one [h_(D-1), 2 h_(D-1)],
    each clipped to the lags below the tower's height and counted off the
    stage cuts, plus the validation's staircase ratio trend; the late maximum
    must be at most half the early one."""
    rep = session.validation
    quantities = rep.mixing_ratios
    trend_ok = rep.mixing_trend_ok
    tower = session.tower_at()
    sched = session.schedule
    (h_early, early_hi), (h_late, late_hi) = (_lag_window(sched, n) for n in (1, sched.depth - 1))
    early = _cylinder_decay(session, tower, sample_lags(h_early, early_hi))
    late = _cylinder_decay(session, tower, sample_lags(h_late, late_hi))
    e_max = max(float(r.value) for r in early)
    l_max = max(float(r.value) for r in late)
    decayed = l_max <= 0.5 * e_max
    doc = {
        "early_window": [h_early, early_hi],
        "late_window": [h_late, late_hi],
        "early_max": e_max,
        "late_max": l_max,
        "decayed": decayed,
        "mixing_ratios": [[q.numerator, q.denominator] for q in quantities],
        "trend_nonincreasing": trend_ok,
    }
    if not decayed:
        doc["diagnostic"] = (
            f"no decay: late max {l_max:.4g} vs early max {e_max:.4g}; "
            "the schedule has no effective staircase part"
        )
    return decayed and trend_ok, doc


def _suite_multiplicity(session):
    report = multiplicity_report(session)
    expected = set(session.config.targets)
    ok = report.multiplicities == expected
    certs_ok = all(not c.equivalent for c in report.certificates.values())
    doc = report.to_dict()
    doc["expected"] = sorted(expected)
    doc["certificates_all_separating"] = certs_ok
    return ok and certs_ok, doc


_SUITE_FUNCS = {
    "algebra": _suite_algebra,
    "weaklimits": _suite_weaklimits,
    "mixing": _suite_mixing,
    "multiplicity": _suite_multiplicity,
}


def _read_config(path) -> SessionConfig:
    """SessionConfig from a JSON file; an unreadable file is a CfspectraError.

    ValueError covers text that is not UTF-8, malformed JSON and integers
    longer than Python converts from text.
    """
    try:
        return SessionConfig.from_json(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CfspectraError(f"config failed to load: {exc}") from exc


def _load_session(bundle_dir):
    """load_bundle, with every way a bundle can fail to load as a CfspectraError.

    ValueError covers a config.json that is not UTF-8 or not JSON, or that
    holds an integer longer than Python converts from text.
    """
    try:
        return load_bundle(bundle_dir)
    except (CfspectraError, OSError, ValueError, KeyError) as exc:
        raise CfspectraError(f"bundle failed to load: {exc}") from exc


def run_verify(bundle_dir, suites) -> tuple[int, dict]:
    try:
        session = _load_session(bundle_dir)
    except CfspectraError as exc:
        return EXIT_ALGEBRA, {"error": str(exc)}
    results = {}
    exit_code = EXIT_OK
    for suite in suites:
        try:
            passed, doc = _SUITE_FUNCS[suite](session)
        except CfspectraError as exc:
            passed, doc = False, {"error": str(exc)}
        results[suite] = {"passed": passed, "detail": doc}
        if not passed and exit_code == EXIT_OK:
            exit_code = _SUITE_EXIT[suite]
    return exit_code, results


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------


def dump_spectra(session) -> dict:
    depth = min(session.config.spectra_depth or session.schedule.depth, session.schedule.depth)
    spectra = exact_spectrum(session, depth)
    components = [{"kind": "eta", "eta": e, "spectrum": spectra["eta"]}
                  for e in range(session.k_order)]
    components += [{"kind": "chi", "d": list(d), "spectrum": spectra["chi"]}
                   for d in session.factor_characters()]
    return {"schema_version": 1, "depth": depth, "components": components}


def dump_decay(session) -> list:
    lags = {lag for n in range(1, session.schedule.depth)
            for lag in sample_lags(*_lag_window(session.schedule, n), count=8)}
    return _cylinder_decay(session, session.tower_at(), sorted(lags))


def _refuse_bundle_file(path, bundle_dir, what):
    """Refuse an output path that resolves to one of the bundle's own files;
    the bundle directory is resolved only for a path with such a name."""
    target = Path(path).resolve()
    if target.name in RENDERED_FILES and target.parent == Path(bundle_dir).resolve():
        raise CfspectraError(f"{what} not written: {path} is the bundle's own {target.name}")


def run_dump(bundle_dir, what, fmt, out_path):
    if out_path:
        _refuse_bundle_file(out_path, bundle_dir, "dump")
    if fmt == "csv" and what != "decay":
        raise CfspectraError(f"a {what} dump is JSON only; csv is for decay")
    session = _load_session(bundle_dir)
    if what == "spectra":
        text = canonical_json(dump_spectra(session))
    elif what == "decay":
        rows = dump_decay(session)
        if fmt == "csv":
            text = decay_csv(rows)
        else:
            text = canonical_json(
                [{"lag": r.lag, "pair": list(r.pair),
                  "num": r.value.numerator, "den": r.value.denominator}
                 for r in rows]
            )
    elif what == "report":
        text = canonical_json(multiplicity_report(session).to_dict())
    else:
        raise CfspectraError(f"nothing to dump for {what!r}")
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise CfspectraError(f"dump not written: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, its subcommands' parsers included, whose usage
    error exits 1, as every other refused input does: exit 2 is a failed
    algebra suite."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    unchanged, and argparse builds a help formatter for every argument."""
    p = _Parser(prog="cfspectra", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="build a bundle from a config")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", required=True)

    pv = sub.add_parser("verify", help="run verification suites on a bundle")
    pv.add_argument("--bundle", required=True)
    pv.add_argument("--suite", default="all", choices=("all",) + SUITES)
    pv.add_argument("--report", help="write the suite reports to this JSON file")

    pd = sub.add_parser("dump", help="export spectra, decay tables or the report")
    pd.add_argument("--bundle", required=True)
    pd.add_argument("--what", required=True, choices=("spectra", "decay", "report"))
    pd.add_argument("--format", default="json", choices=("json", "csv"))
    pd.add_argument("--out")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            session = synth(_read_config(args.config))
            try:
                save_bundle(session, args.out)
            except OSError as exc:
                raise CfspectraError(f"bundle not written: {exc}") from exc
            print(f"bundle written to {args.out}")
            return EXIT_OK
        if args.command == "verify":
            suites = SUITES if args.suite == "all" else (args.suite,)
            if args.report:
                _refuse_bundle_file(args.report, args.bundle, "report")
            code, results = run_verify(args.bundle, suites)
            report_path = Path(args.report) if args.report else (
                Path(args.bundle) / "verify_report.json"
            )
            try:
                report_path.write_text(canonical_json(results))
            except OSError as exc:
                if args.report:
                    raise CfspectraError(f"report not written: {exc}") from exc
                # the default path is in the bundle directory: a missing one
                # already failed above
            for suite in suites:
                res = results.get(suite)
                status = "PASS" if res and res["passed"] else "FAIL"
                print(f"{suite}: {status}")
            if "error" in results:
                print(results["error"])
            return code
        if args.command == "dump":
            return run_dump(args.bundle, args.what, args.format, args.out)
    except CfspectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
