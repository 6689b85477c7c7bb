"""Acceptance gate: one test per shipped criterion, one printed line each.

Every tolerance is pinned here; a red line means the criterion genuinely
fails, never that a threshold drifted.
"""

import random
import time

import numpy as np
import pytest

from cfspectra.cocycle_engine import canonical_word, evaluate_cocycle
from cfspectra.finite_algebra import orbit_average
from cfspectra.koopman_lab import (
    PhasedCycleOperator,
    correlation_decay,
    multiplicity_report,
    sample_lags,
    weak_limit_probe,
)
from cfspectra.module_factory import assemble_triple, dualize
from oracles import automorphism_for, cocycle_between, compose_action, simplicity_probe

TARGET_SETS = [{1}, {2}, {1, 2}, {2, 3}, {1, 3, 5}, {2, 4, 6}]


def report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def brute_trace_counts(triple):
    """Oracle independent of ModuleAction: iterate theta one step at a time."""
    d_set = set(triple.d_elements())
    counts = set()
    for d in d_set:
        if d == triple.module.zero():
            continue
        x, seen = d, []
        while True:
            seen.append(x)
            x = triple.theta.apply(x)
            if x == d:
                break
        counts.add(sum(1 for y in seen if y in d_set))
    return counts


class TestAcceptance:
    def test_algebraic_realization(self):
        worst = 0.0
        for targets in TARGET_SETS:
            start = time.monotonic()
            triple = assemble_triple(targets)
            got = brute_trace_counts(triple)
            elapsed = time.monotonic() - start
            worst = max(worst, elapsed)
            assert got == targets, f"{targets} realized as {got}"
            assert elapsed < 5.0, f"{targets} took {elapsed:.2f}s"
        report("algebraic-realization", True,
               f"6 target sets, exhaustive orbit oracle, worst case {worst:.2f}s")

    def test_duality_bookkeeping(self):
        for targets in TARGET_SETS:
            triple = assemble_triple(targets)
            rec = dualize(triple)
            assert rec.annihilator_size * triple.d_size() == triple.module.size
        report("duality-bookkeeping", True, "|H|*|D| = |B| on all six triples")

    def test_cocycle_identity(self, shipped_direct, shipped_product):
        rng = random.Random(2024)
        checked = 0
        for session in (shipped_direct, shipped_product):
            sched = session.schedule
            h = sched.height(sched.depth)
            ctx = session.ctx
            # the array path builds word products stage by stage, without
            # canonical words; the scalar value must agree with it exactly
            model = session.model()
            for _ in range(10_000):
                lx, ly, lz = (rng.randrange(h) for _ in range(3))
                x = canonical_word(lx, sched)
                y = canonical_word(ly, sched)
                z = canonical_word(lz, sched)
                v_xy = evaluate_cocycle(x, y, session.maps, ctx)
                v_yz = evaluate_cocycle(y, z, session.maps, ctx)
                v_xz = evaluate_cocycle(x, z, session.maps, ctx)
                assert v_xy == cocycle_between(model, lx, ly), (lx, ly)
                assert ctx.mul(v_xy, v_yz) == v_xz
                checked += 1
        report("cocycle-identity", True,
               f"{checked} random triples, exact, against the TowerModel arrays")

    def test_conjugation_shadow(self, probe_product):
        # chi o theta^k is chi with the acting-group coordinate of the skew
        # tower moved by k, so its probe table is chi's with the group
        # characters eta_(e_u), eta_(e_v) rephased: V'[e_u, e_v] =
        # e^(-2 pi i (e_u - e_v) k / kappa) V[e_u, e_v], at kappa = 6 and
        # on entries e_u != e_v that are far from 0
        s = probe_product
        action = s.duality.dual_action
        kappa = s.k_order
        e = np.arange(kappa)
        worst, off_diagonal, checked = 0.0, 0.0, 0
        for n in (4, 5):
            assert s.label(n).kind in ("rigid_translate", "delayed_translate")
            # one character of a 3-element class in each factor, one of a 2-element class
            for d in [(0, 1, 0), (1, 0, 0), (1, 1, 0)]:
                chi = s.duality.character_of_dual(d)
                values = weak_limit_probe(s, n, ("chi", d)).tables.dense("values")
                off_diagonal = max(off_diagonal, np.abs(values[e[:, None] != e]).max())
                for k in range(1, kappa):
                    twisted = compose_action(chi, action, k).exponents
                    phase = np.exp(-2j * np.pi * np.subtract.outer(e, e) * k / kappa)
                    got = weak_limit_probe(s, n, ("chi", twisted)).tables.dense("values")
                    worst = max(worst, np.abs(got - phase[:, :, None, None] * values).max())
                    checked += 1
        assert checked == 2 * 3 * (kappa - 1) and off_diagonal > 1e-3
        report("conjugation-shadow", worst <= 1e-12,
               f"{checked} probes of chi o theta^k against chi at translate and delayed "
               f"stages, max dev {worst:.1e} <= 1e-12; off-diagonal entries up to "
               f"{off_diagonal:.3f}")

    def test_rigidity_probe(self, probe_direct, probe_large):
        # identity + mean prediction on translate and rotate stages, r = 64
        rep_t = weak_limit_probe(probe_direct, 3, ("eta", 0))
        assert rep_t.tolerance == pytest.approx(3 / 64)
        assert rep_t.passed, rep_t.max_deviation
        rep_r = weak_limit_probe(probe_direct, 4, ("eta", 0))
        assert rep_r.passed, rep_r.max_deviation
        # runtime clause: near-million-level model under a minute
        start = time.monotonic()
        rep_big = weak_limit_probe(probe_large, 3, ("eta", 0))
        elapsed = time.monotonic() - start
        h_next = probe_large.schedule.height(3)
        assert h_next <= 10**6 and rep_big.passed and elapsed < 60.0
        report("rigidity-probe", True,
               f"max dev {max(rep_t.max_deviation, rep_r.max_deviation):.2e} <= 3/64; "
               f"{h_next} levels in {elapsed:.2f}s")

    def test_orbit_average_probe(self, probe_direct):
        stage = probe_direct.stage(3)
        a = probe_direct.label(3).a
        action = probe_direct.duality.dual_action
        model = probe_direct.model(3)
        cyl = model.cylinder_ids(1)
        delta = stage.i_count / stage.r_count if stage.delta is None else float(stage.delta)
        worst = 0.0
        for d in [(1, 0), (0, 1), (1, 1), (1, 2)]:
            rep = weak_limit_probe(probe_direct, 3, ("chi", d))
            assert rep.prediction_kind == "orbit_average"
            assert rep.passed, f"{d}: {rep.max_deviation:.4f} > {rep.tolerance:.4f}"
            worst = max(worst, rep.max_deviation)
            # the predicted factor is evaluated exactly and compared at 1e-9
            # with the factor the probe used: pred = delta * L * mu_f on the
            # diagonal rows (f = g, e_u = e_v)
            chi = probe_direct.duality.character_of_dual(d)
            l_exact = orbit_average(action, chi, a)
            exps = [chi.evaluate(automorphism_for(action, k).apply(a))
                    for k in range(probe_direct.k_order)]
            k_mean = np.mean(np.exp(2j * np.pi * np.array(exps) / chi.group.exponent))
            assert abs(l_exact.value() - k_mean) < 1e-9
            diagonal = [r for r in rep.rows if r["u"] == r["v"]]
            assert diagonal
            for row in diagonal:
                mu_f = np.count_nonzero(cyl == row["u"][0]) / model.height
                used = complex(*row["pred"]) / (delta * mu_f)
                assert abs(l_exact.value() - used) < 1e-9, (d, row["u"])
        report("orbit-average-probe", True,
               f"target {a}, r = {stage.r_count}, worst dev {worst:.4f} <= {3 / 64:.4f}")

    def test_delayed_probe(self, probe_product):
        rep0 = weak_limit_probe(probe_product, 5, ("eta", 0))
        assert rep0.prediction_kind == "delayed"
        assert rep0.passed, rep0.max_deviation
        rep1 = weak_limit_probe(probe_product, 5, ("chi", (0, 1, 0)))
        assert rep1.prediction_kind == "delayed_orbit_average"
        assert rep1.passed, rep1.max_deviation
        report("delayed-probe", True,
               f"max dev {max(rep0.max_deviation, rep1.max_deviation):.2e} <= 3/64")

    def test_mixing_trend(self, shipped_staircase):
        session = shipped_staircase
        sched = session.schedule
        assert sched.depth >= 10
        tower = session.tower_at()
        n_cyl = sched.height(1)
        pairs = [(f, g) for f in range(n_cyl) for g in range(n_cyl)]
        h = sched.heights()
        early = correlation_decay(tower, pairs, sample_lags(h[1], 2 * h[1]))
        late = correlation_decay(tower, pairs, sample_lags(h[9], 2 * h[9]))
        e_max = max(float(r.value) for r in early)
        l_max = max(float(r.value) for r in late)
        assert l_max <= 0.5 * e_max, (l_max, e_max)
        quantities = session.validation.mixing_ratios
        tail = quantities[2:]
        assert all(b <= a for a, b in zip(tail, tail[1:])), quantities
        report("mixing-trend", True,
               f"late {l_max:.4f} <= 0.5 * early {e_max:.4f}; "
               "staircase quantity non-increasing beyond stage 3")

    def test_multiplicity_reports(self, shipped_direct, shipped_product):
        rep12 = multiplicity_report(shipped_direct)
        assert rep12.multiplicities == {1, 2}
        assert set(rep12.class_sizes) == rep12.trace_counts == {1, 2}
        assert all(not c.equivalent for c in rep12.certificates.values())
        rep23 = multiplicity_report(shipped_product)
        assert rep23.multiplicities == {2, 3}
        assert set(rep23.class_sizes) == rep23.trace_counts == {2, 3}
        assert all(not c.equivalent for c in rep23.certificates.values())
        n_pairs = len(rep12.certificates) + len(rep23.certificates)
        report("multiplicity-report", True,
               f"{{1,2}} and {{2,3}} realized; {n_pairs} cross-class pairs certified")

    def test_simplicity_probe_sanity(self):
        # a single cycle with quadratic phase steps has distinct eigenvalues
        # and the flat vector is cyclic (odd length; even-length quadratic
        # phase sums lose half the frequencies)
        n = 25
        succ = (np.arange(n) + 1) % n
        phases = np.array([(2 * t + 1) % n for t in range(n)])
        op = PhasedCycleOperator(succ, phases, n)
        orbit = [0]
        for _ in range(n - 1):
            orbit.append(int(op.succ[orbit[-1]]))
        assert len(set(orbit)) == n  # a single n-cycle: n distinct eigenvalues
        rep = simplicity_probe(op, None, np.ones(n), power_window=n)
        assert rep.max_residual <= 1e-6, rep.max_residual
        # two components sharing an eigenvalue block joint cyclicity
        op1 = PhasedCycleOperator([1, 0], [0, 0], 4)  # {1, -1}
        op2 = PhasedCycleOperator([0], [0], 4)  # {1}
        rep2 = simplicity_probe(op1, op2, np.array([1.0, 0.0, 1.0]), power_window=4)
        assert rep2.max_residual >= 0.1, rep2.max_residual
        report("simplicity-probe", True,
               f"cyclic residual {rep.max_residual:.1e} <= 1e-6; "
               f"collision residual {rep2.max_residual:.2f} >= 0.1")

    def test_shipped_bundles_verify_green(self, tmp_path):
        from cfspectra.cli import main, run_verify
        from pathlib import Path

        config_dir = Path(__file__).resolve().parent.parent / "configs"
        codes = {}
        for cfg_path in sorted(config_dir.glob("*.json")):
            out = tmp_path / cfg_path.stem
            assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
            code, _ = run_verify(out, ("algebra", "weaklimits", "mixing", "multiplicity"))
            codes[cfg_path.stem] = code
        assert all(c == 0 for c in codes.values()), codes
        report("shipped-bundles-verify", True,
               f"verify-all exit 0 on {sorted(codes)}")
