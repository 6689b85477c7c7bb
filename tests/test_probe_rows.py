"""Probe reports against a row-by-row scalar oracle, compared as exact JSON text.

The oracle builds every row of a weak-limit probe one cylinder pair at a
time with scalar complex arithmetic, from the same bucket-count tables the
probe uses, spread over every cell.  The probe holds its tables at the
cells its pairs reach, with one value per side of the diagonal elsewhere,
takes its verdict from them, and renders the rows when they are first
read; the two must agree to the last bit, because verify_report.json
carries the rows.  They must agree on random schedules too, on fixed
probes whose worst entry lies on a cell no pair reaches and whose
one-step table reaches a cell the value table does not, and a large
stage's probe must allocate for the cells it reaches, not for its rows.
"""

import cmath
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

from cfspectra import koopman_lab
from cfspectra.cf_builder import DeltaBlock
from cfspectra.cocycle_engine import (
    LABEL_DELAYED_TRANSLATE,
    LABEL_PLAIN,
    LABEL_RIGID_ROTATE,
    LABEL_RIGID_TRANSLATE,
    MODE_DIRECT,
    MODE_PRODUCT,
)
from cfspectra.finite_algebra import orbit_average
from cfspectra.koopman_lab import (
    _chi_values,
    _eta_values,
    _PairCounter,
    weak_limit_probe,
)
from cfspectra.session import SessionConfig, synth
from test_probe_counts import drawn_session, schedules
from test_probe_tables import dense_values


def _scalar_eta_rows(model, label, eta_exp, n0, h_n, delta, mu):
    kappa = model.ctx.k_order
    counter = _PairCounter(model, n0, False)
    n_cyl = counter.shape[0]
    [values] = _eta_values(counter, model.depth, (h_n,), eta_exp)
    values = dense_values(n_cyl, values)
    trivial = eta_exp % kappa == 0
    one_step = None
    if label.kind == LABEL_RIGID_TRANSLATE:
        pred_kind = "partial_rigidity"
    elif label.kind == LABEL_RIGID_ROTATE:
        pred_kind = "rotation"
    else:
        pred_kind = "delayed"
        [one_step] = _eta_values(counter, model.depth, (1,), eta_exp)
        one_step = dense_values(n_cyl, one_step)
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
    values = dense_values(n_cyl, values)
    one_step = None
    if label.kind == LABEL_DELAYED_TRANSLATE:
        [one_step] = _chi_values(counter, model.depth, (1,), d, n)
        one_step = dense_values(n_cyl, one_step)
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
    model = session.tower_at(stage_index)
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


def assert_equals_oracle(session, stage, component, report):
    got = report.to_dict()
    want = scalar_report(session, stage, component, report)
    if json.dumps(got) != json.dumps(want):
        # name the first difference; a diff of the whole text would take minutes
        diff = next(((i, g, w) for i, (g, w) in enumerate(zip(got["rows"], want["rows"]))
                     if json.dumps(g) != json.dumps(w)), None)
        pytest.fail(f"stage {stage} {component}: first differing row (index, probe, "
                    f"oracle): {diff}; max_deviation {got['max_deviation']!r} vs "
                    f"{want['max_deviation']!r}")


@pytest.mark.parametrize("fixture, stage, component", CASES,
                         ids=[f"{f}-{s}-{c[0]}{c[1]}" for f, s, c in CASES])
def test_probe_report_equals_scalar_oracle(request, fixture, stage, component):
    session = request.getfixturevalue(fixture)
    assert_equals_oracle(session, stage, component, weak_limit_probe(session, stage, component))


ROWS_LIMIT = 2500  # probes with more rows than this are not drawn against the oracle


# a translate stage under a rotate one, kappa 3; delayed stages in product mode
@example((MODE_DIRECT, (1, 3), (DeltaBlock(Fraction(1, 2), 4, r_seq=(3, 4, 3, 5)),), 1))
@example((MODE_PRODUCT, (1, 2), (DeltaBlock(Fraction(1, 2), 5, r_seq=(3, 3, 3, 4, 6)),
                                 DeltaBlock(Fraction(1, 3), 2, r_seq=(2, 5))), 1))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(schedules())
def test_probe_equals_scalar_oracle_on_random_schedules(drawn):
    # every labelled stage from the cylinder level up, eta at e = 0, 1 and
    # kappa - 1 and chi at the zero and one nonzero d (none on a rotate
    # stage, which has no chi prediction)
    session, n0 = drawn_session(drawn)
    kappa, n_cyl = session.k_order, session.schedule.height(n0)
    nonzero = [d for d in session.factor_characters() if any(d)][:1]
    for n in range(n0, session.schedule.depth + 1):
        label = session.label(n)
        if label.kind == LABEL_PLAIN:
            continue
        components = []
        if n_cyl**2 <= ROWS_LIMIT:
            components += [("eta", e) for e in sorted({0, 1 % kappa, kappa - 1})]
        if label.kind != LABEL_RIGID_ROTATE and (kappa * n_cyl)**2 <= ROWS_LIMIT:
            components += [("chi", d) for d in [session.ctx.module.zero(), *nonzero]]
        for component in components:
            assert_equals_oracle(session, n, component, weak_limit_probe(session, n, component))


def test_worst_entry_on_a_cell_no_pair_reaches():
    # stage 4 translates; eta_0's pairs reach 6 of the 9 cells, and an
    # unreached cell off the diagonal deviates by its mean term (1 - delta)
    # mu_f mu_g, more than any reached cell does
    session = synth(SessionConfig(mode=MODE_PRODUCT, targets=(1, 2), blocks=(
        DeltaBlock(Fraction(1, 2), 5, r_seq=(3, 3, 3, 4, 6)),)))
    report = weak_limit_probe(session, 4, ("eta", 0))
    deviations = report.tables.dense("deviations")
    reached = deviations.ravel()[report.tables.cells]
    assert reached.size < session.schedule.height(1) ** 2
    assert reached.max() < report.max_deviation == deviations.max()
    assert_equals_oracle(session, 4, ("eta", 0), report)


def test_one_step_table_reaching_a_cell_the_values_do_not(probe_product):
    # stage 2 is a delayed stage; its one-step table, transposed, reaches a
    # cell of its h_1 table's that no lag-h_1 pair reaches, whose prediction
    # reads the one-step entry
    plan = koopman_lab._probe_plan(probe_product, 2, ("eta", 0))
    counter = _PairCounter(probe_product.tower_at(2), 1, False)
    (cells, _), (step_cells, _) = _eta_values(counter, 2, plan.steps, 0)
    n_cyl = probe_product.schedule.height(1)
    flipped = step_cells % n_cyl * n_cyl + step_cells // n_cyl
    assert np.setdiff1d(flipped, cells).size
    for component in [("eta", 0), ("eta", 1), ("chi", (0, 0, 0)), ("chi", (0, 1, 0))]:
        report = weak_limit_probe(probe_product, 2, component)
        assert np.isin(flipped, report.tables.cells).all()
        assert_equals_oracle(probe_product, 2, component, report)


def test_large_probe_allocates_for_the_cells_it_reaches(probe_large):
    # stage 3's eta_0 pairs reach 9,536 of its 88,804 cells; with its rows
    # unread the probe peaks far below one dense table of them
    weak_limit_probe(probe_large, 3, ("eta", 0))  # fills the session's caches first
    tracemalloc.start()
    try:
        report = weak_limit_probe(probe_large, 3, ("eta", 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.tables.cells.size < probe_large.schedule.height(1) ** 2 // 8
    assert peak < 2 * 10**6, peak
    assert_equals_oracle(probe_large, 3, ("eta", 0), report)


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
