"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criteria 4, 9 and 10 are known to fail at the
documented default pathloss constants; the analysis lives in the failure
messages and in tests/test_regime_supplements.py, which demonstrates each
of the underlying claims in the regime where it holds.
"""

import math
import time

import numpy as np
import pytest

from mimo_d2d import (ScenarioConfig, Scenario, PowerAllocation,
                      full_power_allocation, evaluate_network, d2d_se_exact,
                      cu_sinr_mr, cu_sinr_zf, oracle_uatf_mr, oracle_zf,
                      wishart_inverse_diagonal_mean, maxmin_data, maxprod_data,
                      maxmin_joint_mr, maxprod_joint_mr, zf_joint_successive,
                      ControlSettings, gp_solve)
from mimo_d2d.harness import drop_seed
from mimo_d2d.power_control import _stacked_upper
from mimo_d2d.spectral import sinr_terms
from mimo_d2d.gp import LinearFeasibilityProblem, lp_feasible
import phase_one
from posynomials import (Monomial, Posynomial, as_posynomial, monomial_lower_bound, program,
                         variable)


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


DESK_CFG = ScenarioConfig(num_cells=2, antennas_per_bs=20, cus_per_cell=2,
                          num_d2d_pairs=3, num_d2d_pilots=2, coherence_len=200,
                          area_side=600.0)


def test_criterion_01_wishart_identity():
    t0 = time.time()
    got = wishart_inverse_diagonal_mean(32, 10, num_samples=10_000,
                                        rng=np.random.default_rng(0))
    elapsed = time.time() - t0
    rel = abs(got - 1.0 / 22.0) * 22.0
    ok = rel <= 0.02 and elapsed < 30.0
    assert _report(1, "wishart-identity", ok,
                   f"mean {got:.6f} vs 1/22, rel err {rel:.4f}, {elapsed:.1f}s")


def test_criterion_02_mr_closed_form_vs_oracle():
    t0 = time.time()
    cfg = ScenarioConfig(num_cells=2, antennas_per_bs=64, cus_per_cell=2,
                         num_d2d_pairs=2, num_d2d_pilots=2, coherence_len=200,
                         area_side=600.0)
    scn = Scenario.build(cfg, seed=42)
    alloc = full_power_allocation(scn.dims, scn.p_max)
    alloc.data_cu *= np.array([[0.8, 0.5], [0.9, 0.3]])
    alloc.data_d2d *= np.array([0.6, 1.0])
    rng = np.random.default_rng(2)
    worst = 0.0
    for b in range(2):
        for k in range(2):
            closed = cu_sinr_mr(b, k, scn.gains, alloc, scn.dims).sinr
            emp = oracle_uatf_mr(scn.dims, scn.gains, scn.pilots, alloc, b, k,
                                 num_realizations=100_000, rng=rng).sinr
            worst = max(worst, abs(emp - closed) / closed)
    elapsed = time.time() - t0
    ok = worst <= 0.02 and elapsed < 120.0
    assert _report(2, "mr-vs-link-level", ok,
                   f"worst rel dev {worst:.4f} over 4 users, {elapsed:.1f}s")


def test_criterion_03_zf_closed_form_vs_oracle():
    t0 = time.time()
    cfg = ScenarioConfig(num_cells=2, antennas_per_bs=16, cus_per_cell=2,
                         num_d2d_pairs=2, num_d2d_pilots=1, coherence_len=200,
                         area_side=600.0)
    scn = Scenario.build(cfg, seed=42)
    alloc = full_power_allocation(scn.dims, scn.p_max)
    alloc.data_cu *= np.array([[0.7, 1.0], [0.4, 0.9]])
    alloc.data_d2d *= np.array([1.0, 0.5])
    rng = np.random.default_rng(3)
    worst = 0.0
    for b in range(2):
        for k in range(2):
            closed = cu_sinr_zf(b, k, scn.gains, alloc, scn.pilots, scn.dims).sinr
            emp = oracle_zf(scn.dims, scn.gains, scn.pilots, alloc, b, k,
                            num_realizations=100_000, rng=rng).sinr
            worst = max(worst, abs(emp - closed) / closed)
    elapsed = time.time() - t0
    ok = worst <= 0.03 and elapsed < 180.0
    assert _report(3, "zf-vs-link-level", ok,
                   f"worst rel dev {worst:.4f} over 4 users, {elapsed:.1f}s")


def test_criterion_04_d2d_approximation_tightness():
    """Exact-vs-approximate D2D SE over >= 500 evaluations drawn from the
    power-controlled operating points of random reference drops.

    Known to fail at the documented default pathloss constants: the D2D
    links are then strong enough that the conditional SINR's numerator
    fluctuation (an exponential variate) dominates its denominator's, and
    the resulting averaging gap exceeds the stated bounds in exactly the
    way the regime analysis in the supplementary tests predicts.
    """
    cfg = ScenarioConfig()
    gaps, approxes = [], []
    for seed in range(50):
        scn = Scenario.build(cfg, seed=drop_seed(404, seed))
        alloc, lam, _ = maxmin_data(scn, "mr")
        rep = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "mr")
        exact = d2d_se_exact(scn.gains, alloc, scn.pilots, scn.dims)
        for l in range(scn.dims.num_d2d_pairs):
            gaps.append(rep.d2d_se_approx[l] - exact[l])
            approxes.append(rep.d2d_se_approx[l])
    gaps = np.array(gaps)
    approxes = np.array(approxes)
    low = approxes <= 3.0
    max_gap = float(gaps.max())
    mean_low = float(np.abs(gaps[low]).mean()) if low.any() else 0.0
    ok = len(gaps) >= 500 and max_gap <= 0.5 + 0.05 and mean_low <= 0.1
    _report(4, "d2d-tightness", ok,
            f"n={len(gaps)}, max gap {max_gap:.3f} (limit 0.55), "
            f"mean |gap| at approx<=3 {mean_low:.3f} (limit 0.10)")
    assert ok, (
        f"max gap {max_gap:.3f} vs 0.55 and mean low-SE gap {mean_low:.3f} vs 0.10: "
        "unreachable at the documented default pathloss constants; see "
        "test_regime_supplements.py::test_d2d_tightness_holds_at_low_se for the "
        "population where the tightness claim is reproduced")


def test_criterion_05_gp_solver_and_monomial_bound():
    x, y = variable("x"), variable("y")
    gp = program(as_posynomial(x), [as_posynomial(x ** -1.0)], bounds={"x": (1e-3, 1e3)})
    sol = gp_solve(gp, initial=phase_one.start(gp))
    err1 = abs(sol.values["x"] - 1.0)
    gp2 = program(as_posynomial(x**-1.0 * y**-1.0),
                  [as_posynomial(x / 2.0), as_posynomial(y / 3.0)],
                  bounds={"x": (1e-3, 1e3), "y": (1e-3, 1e3)})
    sol2 = gp_solve(gp2, initial=phase_one.start(gp2))
    err2 = abs(sol2.objective - 1.0 / 6.0) * 6.0

    rng = np.random.default_rng(7)
    names = ["u", "v", "w"]
    worst_bound, worst_touch, worst_grad = 0.0, 0.0, 0.0
    for _ in range(100):
        terms = [Monomial(float(rng.uniform(0.1, 3.0)),
                          {n: float(rng.uniform(-2, 2)) for n in names})
                 for _ in range(rng.integers(1, 6))]
        f = Posynomial(terms)
        x0 = {n: float(rng.uniform(0.2, 4.0)) for n in names}
        tilde = monomial_lower_bound(f, x0)
        worst_touch = max(worst_touch, abs(tilde.value(x0) / f.value(x0) - 1.0))
        for _ in range(10):
            probe = {n: float(rng.uniform(0.05, 15.0)) for n in names}
            worst_bound = max(worst_bound,
                              tilde.value(probe) / f.value(probe) - 1.0)
        for n in names:
            h = 1e-6 * x0[n]
            up, dn = dict(x0, **{n: x0[n] + h}), dict(x0, **{n: x0[n] - h})
            df = (f.value(up) - f.value(dn)) / (2 * h)
            dt = (tilde.value(up) - tilde.value(dn)) / (2 * h)
            worst_grad = max(worst_grad, abs(df - dt) / max(abs(df), 1e-12))
    ok = (err1 <= 1e-6 and err2 <= 1e-6 and worst_bound <= 1e-9
          and worst_touch <= 1e-9 and worst_grad <= 1e-6)
    assert _report(5, "gp-kernel", ok,
                   f"analytic errs {err1:.2e}/{err2:.2e}, bound slack {worst_bound:.1e}, "
                   f"touch {worst_touch:.1e}, grad dev {worst_grad:.1e}")


def test_criterion_06_bisection_and_equal_power_dominance():
    t0 = time.time()
    cfg = ScenarioConfig()
    settings = ControlSettings()
    all_ok, details = True, []
    for drop in range(20):
        scn = Scenario.build(cfg, seed=drop_seed(606, drop))
        alloc, lam, diag = maxmin_data(scn, "mr", settings)
        lam_upper = float(diag.notes[0].split("=")[1])
        cap = math.ceil(math.log2(lam_upper / settings.bisection_eps))
        all_ok &= diag.iterations <= cap

        report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "mr")
        ses = np.concatenate([report.cu_se.ravel(), report.d2d_se_approx])
        all_ok &= float(ses.min()) >= lam - 1e-6  # returned level is feasible

        # a level two accuracy steps above the optimum must be infeasible
        full = full_power_allocation(scn.dims, scn.p_max)
        g, terms = sinr_terms(scn.dims, scn.gains, scn.pilots, full, "mr")
        a = terms.sum(axis=0)
        t = 2.0 ** ((lam + 2 * settings.bisection_eps) / scn.dims.prelog) - 1.0
        probe = lp_feasible(LinearFeasibilityProblem(t * a - np.diag(g), np.full(len(g), -t),
                                                     _stacked_upper(scn)))
        all_ok &= not probe.feasible

        rep_eq = evaluate_network(scn.dims, scn.gains, scn.pilots, full, "mr")
        eq_min = float(min(rep_eq.cu_se.min(), rep_eq.d2d_se_approx.min()))
        all_ok &= lam >= eq_min - 1e-9
        details.append(lam)
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 600.0
    assert _report(6, "bisection", ok,
                   f"20 drops, levels {min(details):.2f}..{max(details):.2f}, "
                   f"{elapsed:.0f}s")


def test_criterion_07_successive_approximation():
    converged, mono_ok, feas_ok = 0, True, True
    for drop in range(20):
        scn = Scenario.build(DESK_CFG, seed=drop_seed(707, drop))
        alloc, value, diag = zf_joint_successive(scn, "maxprod")
        trace = diag.objective_trace
        mono_ok &= all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        if diag.status == "converged" and diag.iterations <= 100:
            converged += 1
        report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "zf")
        for user, target in diag.targets.items():
            feas_ok &= report.breakdowns[user].sinr >= target * (1 - 1e-6)
    ok = mono_ok and feas_ok and converged >= 19  # >= 95% of 20
    assert _report(7, "successive-approximation", ok,
                   f"converged {converged}/20, monotone={mono_ok}, "
                   f"true-feasible={feas_ok}")


def test_criterion_08_joint_dominates_data_only():
    cfg = ScenarioConfig()
    ok = True
    margins = []
    for drop in range(20):
        scn = Scenario.build(cfg, seed=drop_seed(808, drop))
        _, lam_data, _ = maxmin_data(scn, "mr")
        _, lam_joint, _ = maxmin_joint_mr(scn)
        ok &= lam_joint >= lam_data - 1e-6
        _, prod_data, _ = maxprod_data(scn, "mr")
        _, prod_joint, _ = maxprod_joint_mr(scn)
        ok &= prod_joint >= prod_data - 1e-6
        margins.append(lam_joint - lam_data)
    assert _report(8, "joint-superset", ok,
                   f"20 drops, max-min joint gain {min(margins):.4f}.."
                   f"{max(margins):.4f} b/s/Hz")


def test_criterion_09_zf_maxprod_full_power_property():
    """Under ZF max-product data-only control, the optimized data powers are
    expected to sit at the power budget and perform like full power.

    Known to fail at the documented default pathloss constants: with 2 GHz
    macro-style losses on a 1 km^2 nine-cell layout, pilot contamination
    leaves enough residual interference that trimming powers genuinely
    improves the product objective (the solver is verified against the
    link-level oracle, criterion 3). The property is reproduced at weaker
    cross-coupling; see test_regime_supplements.py.
    """
    cfg = ScenarioConfig()
    at_pmax, ratios = [], []
    for drop in range(20):
        scn = Scenario.build(cfg, seed=drop_seed(909, drop))
        alloc, _, _ = maxprod_data(scn, "zf")
        p = np.concatenate([alloc.data_cu.ravel(), alloc.data_d2d])
        at_pmax.append(p >= 0.99 * scn.p_max)
        full = full_power_allocation(scn.dims, scn.p_max)
        rep_o = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "zf")
        rep_f = evaluate_network(scn.dims, scn.gains, scn.pilots, full, "zf")
        ratios.append((rep_o.cu_se.sum() + rep_o.d2d_se_approx.sum())
                      / (rep_f.cu_se.sum() + rep_f.d2d_se_approx.sum()))
    frac = float(np.concatenate(at_pmax).mean())
    worst_ratio = float(max(abs(r - 1.0) for r in ratios))
    ok = frac >= 0.90 and worst_ratio <= 0.02
    _report(9, "zf-maxprod-full-power", ok,
            f"fraction at p_max {frac:.3f} (need >= 0.90), "
            f"worst sum-SE deviation {worst_ratio:.3f} (need <= 0.02)")
    assert ok, (
        f"fraction at p_max {frac:.3f} < 0.90 and sum-SE deviation {worst_ratio:.3f} "
        "> 0.02: unreachable at the documented default constants; see "
        "test_regime_supplements.py::test_zf_maxprod_full_power_at_weak_coupling")


def test_criterion_10_d2d_distance_trend_under_equal_power():
    """Mean CU SE as the D2D link distance sweeps 10 -> 50 -> 100 m under
    MR processing with equal (full) power.

    Known to fail structurally: with every transmitter at full power the CU
    SINR depends only on transmitter positions, which are seed-identical
    across the sweep (the receiver of a D2D pair does not transmit), so the
    means are exactly equal rather than strictly decreasing. The underlying
    distance effect requires power control to surface; see
    test_regime_supplements.py::test_d2d_distance_trend_under_power_control.
    """
    means = []
    for dist in (10.0, 50.0, 100.0):
        cfg = ScenarioConfig(d2d_link_distance=dist)
        cu_means = []
        for drop in range(20):
            scn = Scenario.build(cfg, seed=drop_seed(101, drop))
            full = full_power_allocation(scn.dims, scn.p_max)
            rep = evaluate_network(scn.dims, scn.gains, scn.pilots, full, "mr")
            cu_means.append(rep.cu_se.mean())
        means.append(float(np.mean(cu_means)))
    ok = means[0] > means[1] > means[2]
    _report(10, "d2d-distance-trend", ok,
            f"mean CU SE at 10/50/100 m: {means[0]:.4f}/{means[1]:.4f}/{means[2]:.4f}")
    assert ok, (
        f"means {means} are not strictly decreasing (they are exactly equal by "
        "construction: receiver placement cannot affect CU SINR when all "
        "transmit powers are fixed); the distance trend is demonstrated under "
        "max-min power control in test_regime_supplements.py")
