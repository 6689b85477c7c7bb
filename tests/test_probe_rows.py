"""Probe reports against a row-by-row scalar oracle, compared as exact JSON text.

The oracle builds every row of a weak-limit probe one cylinder pair at a
time with scalar complex arithmetic, from the same bucket-count tables the
probe uses.  The probe computes its table as whole arrays and renders the
rows from them when they are first read; the two must agree to the last
bit, because verify_report.json carries the rows.
"""

import cmath
import json

import numpy as np
import pytest

from cfspectra import koopman_lab
from cfspectra.cocycle_engine import (
    LABEL_DELAYED_TRANSLATE,
    LABEL_RIGID_ROTATE,
    LABEL_RIGID_TRANSLATE,
)
from cfspectra.finite_algebra import orbit_average
from cfspectra.koopman_lab import (
    _chi_values,
    _eta_values,
    _PairCounter,
    weak_limit_probe,
)


def _scalar_eta_rows(model, label, eta_exp, n0, h_n, delta, mu):
    kappa = model.ctx.k_order
    counter = _PairCounter(model, n0, False)
    n_cyl = counter.shape[0]
    [values] = _eta_values(counter, model.depth, (h_n,), eta_exp)
    trivial = eta_exp % kappa == 0
    one_step = None
    if label.kind == LABEL_RIGID_TRANSLATE:
        pred_kind = "partial_rigidity"
    elif label.kind == LABEL_RIGID_ROTATE:
        pred_kind = "rotation"
    else:
        pred_kind = "delayed"
        [one_step] = _eta_values(counter, model.depth, (1,), eta_exp)
    rot = 1.0 + 0j
    if label.kind == LABEL_RIGID_ROTATE:
        rot = cmath.exp(2j * cmath.pi * eta_exp * label.k / kappa)

    rows = []
    max_dev = 0.0
    for g in range(n_cyl):
        for f in range(n_cyl):
            inner = mu[f] if f == g else 0.0
            val = values[g, f]
            if label.kind == LABEL_DELAYED_TRANSLATE:
                pred = delta * (inner + np.conj(one_step[f, g]))
                pred += (1 - 2 * delta) * (mu[f] * mu[g] if trivial else 0.0)
            else:
                pred = delta * rot * inner
                pred += (1 - delta) * (mu[f] * mu[g] if trivial else 0.0)
            dev = float(abs(val - pred))
            max_dev = max(max_dev, dev)
            rows.append({
                "u": f, "v": g, "eta": eta_exp,
                "value": [float(val.real), float(val.imag)],
                "pred": [complex(pred).real, complex(pred).imag],
                "deviation": dev,
            })
    return pred_kind, rows, max_dev


def _scalar_chi_rows(session, model, label, d, n0, h_n, delta, mu):
    kappa = model.ctx.k_order
    n = session.root_order
    trivial_d = all(x == 0 for x in d)
    counter = _PairCounter(model, n0, True)
    n_cyl = counter.shape[0]
    [values] = _chi_values(counter, model.depth, (h_n,), d, n)
    one_step = None
    if label.kind == LABEL_DELAYED_TRANSLATE:
        [one_step] = _chi_values(counter, model.depth, (1,), d, n)
    l_value = 1.0 + 0j
    if not trivial_d:
        chi = session.duality.character_of_dual(d)
        l_value = orbit_average(session.duality.dual_action, chi, label.a).value()
    if label.kind == LABEL_RIGID_TRANSLATE:
        pred_kind = "orbit_average" if not trivial_d else "partial_rigidity"
    else:
        pred_kind = "delayed_orbit_average" if not trivial_d else "delayed"

    rows = []
    max_dev = 0.0
    for e_u in range(kappa):
        for e_v in range(kappa):
            for g in range(n_cyl):
                for f in range(n_cyl):
                    inner = mu[f] if (f == g and e_u == e_v) else 0.0
                    mean_uv = mu[f] * mu[g] if (e_u == 0 and e_v == 0) else 0.0
                    val = values[e_u, e_v, g, f]
                    if trivial_d:
                        if label.kind == LABEL_RIGID_TRANSLATE:
                            pred = delta * inner + (1 - delta) * mean_uv
                        else:
                            pred = delta * (inner + np.conj(one_step[e_v, e_u, f, g]))
                            pred += (1 - 2 * delta) * mean_uv
                    else:
                        if label.kind == LABEL_RIGID_TRANSLATE:
                            pred = delta * l_value * inner
                        else:
                            pred = delta * (inner + l_value * np.conj(one_step[e_v, e_u, f, g]))
                    dev = float(abs(val - complex(pred)))
                    max_dev = max(max_dev, dev)
                    rows.append({
                        "u": [f, e_u], "v": [g, e_v],
                        "value": [float(val.real), float(val.imag)],
                        "pred": [complex(pred).real, complex(pred).imag],
                        "deviation": dev,
                    })
    return pred_kind, rows, max_dev


def scalar_report(session, stage_index, component, report):
    """The oracle's version of ``report``: its rows, kind, maximum and verdict."""
    n0 = session.config.cylinder_level
    stage = session.stage(stage_index)
    label = session.label(stage_index)
    model = session.model(stage_index)
    delta = float(stage.delta) if stage.delta is not None else stage.i_count / stage.r_count
    mu = np.full(session.schedule.height(n0), model.cylinder_size(n0) / model.height)
    kind, payload = component
    if kind == "eta":
        pred_kind, rows, max_dev = _scalar_eta_rows(
            model, label, payload, n0, stage.base_height, delta, mu)
    else:
        pred_kind, rows, max_dev = _scalar_chi_rows(
            session, model, label, payload, n0, stage.base_height, delta, mu)
    return dict(report.to_dict(), prediction_kind=pred_kind, rows=rows,
                max_deviation=max_dev, passed=max_dev <= report.tolerance)


# (fixture, stage, component): stage 3 of probe_direct translates, stage 4
# rotates; stage 5 of probe_product is delayed; stage 4 of probe_kappa3
# rotates with a phase that is not real
CASES = [
    ("probe_direct", 3, ("eta", 0)),
    ("probe_direct", 3, ("eta", 1)),
    ("probe_direct", 4, ("eta", 0)),
    ("probe_direct", 4, ("eta", 1)),
    ("probe_product", 5, ("eta", 0)),
    ("probe_product", 5, ("eta", 1)),
    ("probe_direct", 3, ("chi", (0, 0))),
    ("probe_direct", 3, ("chi", (1, 2))),
    ("probe_product", 5, ("chi", (0, 0, 0))),
    ("probe_product", 5, ("chi", (0, 1, 0))),
    ("probe_kappa3", 4, ("eta", 1)),
]


@pytest.mark.parametrize("fixture, stage, component", CASES,
                         ids=[f"{f}-{s}-{c[0]}{c[1]}" for f, s, c in CASES])
def test_probe_report_equals_scalar_oracle(request, fixture, stage, component):
    session = request.getfixturevalue(fixture)
    report = weak_limit_probe(session, stage, component)
    got = report.to_dict()
    want = scalar_report(session, stage, component, report)
    if json.dumps(got) != json.dumps(want):
        # name the first difference; a diff of the whole text would take minutes
        diff = next(((i, g, w) for i, (g, w) in enumerate(zip(got["rows"], want["rows"]))
                     if json.dumps(g) != json.dumps(w)), None)
        pytest.fail(f"first differing row (index, probe, oracle): {diff}; "
                    f"max_deviation {got['max_deviation']!r} vs {want['max_deviation']!r}")


def test_probe_renders_rows_only_when_read(request, monkeypatch):
    # with the row renderer's helper broken, probes still run and give their
    # verdicts; the rows rendered afterwards equal the oracle's
    def refuse(*args):
        raise AssertionError("rows rendered before they were read")

    cases = [("probe_direct", 3, ("eta", 1)), ("probe_direct", 3, ("chi", (1, 2)))]
    reports = []
    with monkeypatch.context() as patch:
        patch.setattr(koopman_lab, "_pairs", refuse)
        for fixture, stage, component in cases:
            report = weak_limit_probe(request.getfixturevalue(fixture), stage, component)
            assert isinstance(report.passed, bool)
            assert isinstance(report.max_deviation, float)
            reports.append(report)
    for (fixture, stage, component), report in zip(cases, reports):
        want = scalar_report(request.getfixturevalue(fixture), stage, component, report)
        assert report.max_deviation == want["max_deviation"]
        assert report.passed == want["passed"]
        assert json.dumps(report.rows) == json.dumps(want["rows"])
        assert json.dumps(report.to_dict()["rows"]) == json.dumps(want["rows"])
