import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from mimo_d2d import (Scenario, ScenarioConfig, SystemDimensions, Geometry,
                      LargeScaleGains, PilotAllocation, PowerAllocation,
                      full_power_allocation, evaluate_network,
                      ControlProblemSpec, ControlSettings,
                      maxmin_data, maxprod_data, maxmin_joint_mr,
                      maxprod_joint_mr, zf_joint_successive, solve_problem,
                      cu_sinr_mr, cu_sinr_zf, d2d_sinr_approx, power_control)
from mimo_d2d.power_control import (_mr_sinr_posynomial, _d2d_sinr_posynomial,
                                    _zf_tilde_denominator, _zf_numerator,
                                    _affine_sinr_rows, _pc, _pd, _qc, _qd,
                                    _default_pilots, _stacked_upper,
                                    _sinr_upper_bounds, _normalized_rows,
                                    _minimal_powers, Processing)
from mimo_d2d.gp import LinearFeasibilityProblem, LPFeasibility, lp_feasible
from mimo_d2d.harness import drop_seed
from gridsearch import refine_maximize


def _scenario_from_gains(dims, beta_cu_bs, beta_d2dtx_bs, beta_cu_d2drx,
                         beta_d2dtx_d2drx, pair_to_pilot, p_max=200.0):
    gains = LargeScaleGains(np.asarray(beta_cu_bs, dtype=float),
                            np.asarray(beta_d2dtx_bs, dtype=float),
                            np.asarray(beta_cu_d2drx, dtype=float),
                            np.asarray(beta_d2dtx_d2drx, dtype=float))
    pair_to_pilot = np.asarray(pair_to_pilot, dtype=int)
    sets = [sorted(np.flatnonzero(pair_to_pilot == i).tolist())
            for i in range(dims.num_d2d_pilots)]
    pilots = PilotAllocation(np.arange(0), sets, pair_to_pilot)
    geom = Geometry(1000.0, np.zeros((dims.num_cells, 2)),
                    np.zeros((dims.num_cells, dims.cus_per_cell, 2)),
                    np.zeros((dims.num_d2d_pairs, 2)),
                    np.zeros((dims.num_d2d_pairs, 2)), 10.0)
    return Scenario(dims, geom, gains, pilots, p_max, seed=0)


def _symmetric_small_scenario(seed=0, m=24):
    """Two-cell network invariant under swapping cells, swapping the two CUs
    of a cell, and swapping the two D2D pairs, so the optimum of every
    power-control problem lives on the (cu power, d2d power) diagonal."""
    rng = np.random.default_rng(seed)
    dims = SystemDimensions(2, m, 2, 2, 2, 200)
    own = rng.uniform(0.05, 0.2)
    cross = own * rng.uniform(0.05, 0.3)
    beta_cu_bs = np.where(np.eye(2)[:, :, None].astype(bool), own, cross) \
        * np.ones((2, 2, 2))
    dd_bs = rng.uniform(1e-4, 1e-3)
    beta_d2dtx_bs = np.full((2, 2), dd_bs)
    cu_rx = rng.uniform(1e-4, 5e-4)
    beta_cu_d2drx = np.where(np.eye(2)[:, :, None].astype(bool), cu_rx, cu_rx * 0.4) \
        * np.ones((2, 2, 2))
    own_d = rng.uniform(2.0, 8.0)
    cross_d = rng.uniform(1e-4, 1e-3)
    beta_d2dtx_d2drx = np.array([[own_d, cross_d], [cross_d, own_d]])
    return _scenario_from_gains(dims, beta_cu_bs, beta_d2dtx_bs,
                                beta_cu_d2drx, beta_d2dtx_d2drx,
                                pair_to_pilot=[0, 1])


def _min_se_at(scn, alloc, processing):
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, processing)
    values = [report.cu_se.min()]
    if scn.dims.num_d2d_pairs:
        values.append(report.d2d_se_approx.min())
    return min(values)


# --- max-min over data powers -----------------------------------------------------

def test_maxmin_single_user_interference_free():
    dims = SystemDimensions(1, 32, 1, 0, 1, 200)
    scn = _scenario_from_gains(dims, [[[0.08]]], np.zeros((1, 0)),
                               np.zeros((0, 1, 1)), np.zeros((0, 0)),
                               pair_to_pilot=[])
    alloc, lam, diag = maxmin_data(scn, "mr")
    full = full_power_allocation(dims, scn.p_max)
    expected = cu_sinr_mr(0, 0, scn.gains, full, dims).se
    assert lam == pytest.approx(expected, abs=1.1e-3)
    assert alloc.data_cu[0, 0] >= 0.98 * scn.p_max


def test_maxmin_symmetric_users_get_equal_everything():
    dims = SystemDimensions(1, 16, 2, 0, 1, 200)
    beta = np.array([[[0.05, 0.05]]])
    scn = _scenario_from_gains(dims, beta, np.zeros((1, 0)),
                               np.zeros((0, 1, 2)), np.zeros((0, 0)),
                               pair_to_pilot=[])
    alloc, lam, diag = maxmin_data(scn, "mr")
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "mr")
    assert report.cu_se[0, 0] == pytest.approx(report.cu_se[0, 1], abs=1.1e-3)
    assert alloc.data_cu[0, 0] == pytest.approx(alloc.data_cu[0, 1], rel=1e-3)


@pytest.mark.parametrize("processing", ["mr", "zf"])
def test_maxmin_matches_symmetric_grid_oracle(processing):
    scn = _symmetric_small_scenario(seed=1)
    alloc, lam, diag = maxmin_data(scn, processing)

    def fun(x):
        a, b = x
        cand = PowerAllocation(np.full((2, 2), a), np.full(2, b),
                               np.full((2, 2), scn.p_max), np.full(2, scn.p_max),
                               scn.p_max)
        return _min_se_at(scn, cand, processing)

    _, best = refine_maximize(fun, [1e-6 * scn.p_max] * 2, [scn.p_max] * 2,
                              rounds=30, pts=13)
    assert lam == pytest.approx(best, abs=1e-2)


def test_maxmin_bisection_iterations_and_sandwich(small_scenario):
    scn = small_scenario
    settings = ControlSettings()
    alloc, lam, diag = maxmin_data(scn, "mr", settings)
    lam_upper = float(diag.notes[0].split("=")[1])
    cap = math.ceil(math.log2(lam_upper / settings.bisection_eps))
    assert diag.iterations <= cap

    # the witness is feasible at lam (within solver slack) and lam + 2 eps is not
    assert _min_se_at(scn, alloc, "mr") >= lam - 1e-6
    from mimo_d2d.power_control import _sinr_upper_bounds  # noqa: F401  (import check)
    eps = settings.bisection_eps
    probe_settings = ControlSettings()
    alloc2, lam2, diag2 = maxmin_data(scn, "mr", probe_settings)
    assert lam2 == lam  # deterministic
    # monotone feasibility: a level 2 eps above the optimum must be infeasible,
    # which bisection certifies through its final upper bound
    assert diag.objective_trace[-1] == lam
    assert lam + 2 * eps >= lam_upper or _level_infeasible(scn, "mr", lam + 2 * eps)


def _lp_probe(rows, t, upper, gp_settings=None):
    """Barrier-LP feasibility of the common SINR target t over the box."""
    a = np.array([t * r.den_coeffs - r.num_coeffs for r in rows])
    c = np.array([-t * r.den_const for r in rows])
    return lp_feasible(LinearFeasibilityProblem(a, c, upper), gp_settings)


def _level_infeasible(scn, processing, level):
    rows = _affine_sinr_rows(scn, Processing(processing), _default_pilots(scn))
    t = 2.0 ** (level / scn.dims.prelog) - 1.0
    return not _lp_probe(rows, t, _stacked_upper(scn)).feasible


def test_maxmin_tightness_and_attainment(small_scenario):
    scn = small_scenario
    settings = ControlSettings()
    alloc, lam, diag = maxmin_data(scn, "zf", settings)
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "zf")
    ses = [report.cu_se[b, k] for b in range(2) for k in range(2)]
    ses += list(report.d2d_se_approx)
    assert min(ses) == pytest.approx(lam, abs=settings.bisection_eps + 1e-6)
    assert any(abs(se - lam) <= settings.bisection_eps + 1e-6 for se in ses)
    assert len(diag.active_constraints) >= 1


@pytest.fixture(scope="module")
def reference_drops():
    return [Scenario.build(ScenarioConfig(), seed=drop_seed(0, d)) for d in (0, 1)]


def _lp_bisection(scn, processing, settings):
    """Algorithm 1 with a barrier-LP probe at every level: the slow path the
    minimal-power test replaced, kept as its oracle. Returns (allocation,
    level, objective trace)."""
    processing, pilots = Processing(processing), _default_pilots(scn)
    excluded = power_control._degenerate_users(scn)
    included = [u for u in power_control._all_users(scn) if u not in excluded]
    rows = _affine_sinr_rows(scn, processing, pilots, include=set(included))
    upper = _stacked_upper(scn)
    bounds = _sinr_upper_bounds(scn, processing, pilots, included)
    lam_hi = min(np.log2(1.0 + v) for v in bounds.values())
    lam_lo, witness, trace = 0.0, upper.copy(), []
    while lam_hi - lam_lo > settings.bisection_eps and len(trace) < settings.bisection_cap:
        lam = (lam_lo + lam_hi) / 2.0
        result = _lp_probe(rows, 2.0 ** (lam / scn.dims.prelog) - 1.0, upper, settings.gp)
        if result.feasible:
            lam_lo, witness = lam, result.witness
        else:
            lam_hi = lam
        trace.append(lam_lo)
    n_cu, k_ = scn.dims.num_cells * scn.dims.cus_per_cell, scn.dims.cus_per_cell
    values = {_pc(b, k) if kind == "cu" else _pd(k):
              witness[b * k_ + k if kind == "cu" else n_cu + k] for kind, b, k in included}
    alloc = power_control._alloc_from_values(scn, values, False, pilots)
    alloc = power_control._snap_small_powers(
        scn, alloc, processing, lambda rep: power_control._min_se(rep, included) >= lam_lo - 1e-6)
    return alloc, lam_lo, trace


@pytest.mark.parametrize("processing", ["mr", "zf"])
@pytest.mark.parametrize("drop", [None, 0, 1])
def test_maxmin_matches_lp_bisection_oracle(small_scenario, reference_drops, processing, drop):
    scn = small_scenario if drop is None else reference_drops[drop]
    settings = ControlSettings()
    alloc, lam, diag = maxmin_data(scn, processing, settings)
    want, lam_want, trace = _lp_bisection(scn, processing, settings)
    assert lam == lam_want
    assert diag.iterations == len(trace)
    assert diag.objective_trace == trace
    for name in ("data_cu", "data_d2d", "pilot_cu", "pilot_d2d"):
        assert np.array_equal(getattr(alloc, name), getattr(want, name)), name


@pytest.mark.parametrize("processing", ["mr", "zf"])
@pytest.mark.parametrize("drop", [None, 0])
@hyp_settings(max_examples=8, deadline=None)
@given(frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_minimal_power_probe_matches_lp(small_scenario, reference_drops, processing,
                                        drop, frac):
    """The minimal-power verdict equals the LP's away from the LP's tolerance;
    a feasible level's minimal powers meet every SINR row with equality and
    lie below any strictly feasible LP witness (Yates' minimality)."""
    scn = small_scenario if drop is None else reference_drops[drop]
    gp_settings = ControlSettings().gp
    pilots = _default_pilots(scn)
    rows = _affine_sinr_rows(scn, Processing(processing), pilots)
    cols = np.array([np.flatnonzero(r.num_coeffs)[0] for r in rows])
    upper = _stacked_upper(scn)
    bounds = _sinr_upper_bounds(scn, Processing(processing), pilots,
                                power_control._all_users(scn))
    t = 2.0 ** (frac * min(np.log2(1.0 + v) for v in bounds.values())
                / scn.dims.prelog) - 1.0
    p = _minimal_powers(*_normalized_rows(rows, cols), t, upper[cols])
    lp = _lp_probe(rows, t, upper, gp_settings)
    if abs(lp.margin) > 10 * gp_settings.feas_tol:
        assert (p is not None) == lp.feasible
    if p is None:
        return
    x = np.zeros_like(upper)
    x[cols] = p
    lhs = np.array([r.num_coeffs @ x for r in rows])
    rhs = np.array([t * (r.den_const + r.den_coeffs @ x) for r in rows])
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9)
    if lp.margin < -10 * gp_settings.feas_tol:
        assert np.all(p <= lp.witness[cols] * (1.0 + 1e-9))


def test_maxmin_bisection_cap_is_reported(small_scenario):
    alloc, lam, diag = maxmin_data(small_scenario, "zf", ControlSettings(bisection_cap=2))
    assert diag.iterations == 2
    assert diag.status == "iteration_cap"
    assert _min_se_at(small_scenario, alloc, "zf") >= lam - 1e-6


def test_maxmin_minimal_powers_when_lp_rejects_level(small_scenario, monkeypatch):
    """Should the LP reject the final level at its tolerance, the minimal
    powers that passed the test are returned, and they meet the level."""
    monkeypatch.setattr(power_control, "lp_feasible",
                        lambda lp, settings=None: LPFeasibility(False, lp.upper / 2.0, 1.0))
    alloc, lam, diag = maxmin_data(small_scenario, "mr")
    assert lam > 0.0
    assert "witness=minimal_powers" in diag.notes
    assert _min_se_at(small_scenario, alloc, "mr") >= lam - 1e-6


# --- max product SINR over data powers ----------------------------------------------

def test_maxprod_single_user_full_power():
    dims = SystemDimensions(1, 32, 1, 0, 1, 200)
    scn = _scenario_from_gains(dims, [[[0.08]]], np.zeros((1, 0)),
                               np.zeros((0, 1, 1)), np.zeros((0, 0)),
                               pair_to_pilot=[])
    alloc, logprod, diag = maxprod_data(scn, "mr")
    assert alloc.data_cu[0, 0] == pytest.approx(scn.p_max, rel=1e-3)


def test_maxprod_constraint_tightness(small_scenario):
    scn = small_scenario
    alloc, logprod, diag = maxprod_data(scn, "mr")
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "mr")
    achieved = sum(np.log(bd.sinr) for bd in report.breakdowns.values())
    # auxiliaries equal achieved SINRs at optimality
    assert achieved == pytest.approx(logprod, rel=1e-6, abs=1e-6)
    tight = [c for c in diag.active_constraints if c[0] == "sinr"]
    assert len(tight) == len(report.breakdowns)


@pytest.mark.parametrize("processing", ["mr", "zf"])
def test_maxprod_matches_symmetric_grid_oracle(processing):
    scn = _symmetric_small_scenario(seed=2)
    alloc, logprod, diag = maxprod_data(scn, processing)

    def fun(x):
        a, b = x
        cand = PowerAllocation(np.full((2, 2), a), np.full(2, b),
                               np.full((2, 2), scn.p_max), np.full(2, scn.p_max),
                               scn.p_max)
        report = evaluate_network(scn.dims, scn.gains, scn.pilots, cand, processing)
        return float(sum(np.log(bd.sinr) for bd in report.breakdowns.values()))

    _, best = refine_maximize(fun, [1e-6 * scn.p_max] * 2, [scn.p_max] * 2,
                              rounds=30, pts=13)
    # log objectives within 1e-3 matches a 1e-3 relative product comparison
    assert logprod == pytest.approx(best, abs=1e-3)


# --- joint pilot and data, MR --------------------------------------------------------

def test_joint_mr_dominates_data_only(small_scenario):
    scn = small_scenario
    _, lam_data, _ = maxmin_data(scn, "mr")
    _, lam_joint, _ = maxmin_joint_mr(scn)
    assert lam_joint >= lam_data - 1e-6

    _, prod_data, _ = maxprod_data(scn, "mr")
    _, prod_joint, _ = maxprod_joint_mr(scn)
    assert prod_joint >= prod_data - 1e-6


def test_joint_mr_maxmin_warm_start_is_interior(small_scenario, monkeypatch):
    """The start handed to the GP lies strictly inside every bound and
    strictly satisfies every constraint, so it is used without phase 1."""
    calls = []
    solve = power_control.gp_solve

    def spy(gp, settings=None, initial=None):
        calls.append((gp, initial))
        return solve(gp, settings, initial=initial)

    monkeypatch.setattr(power_control, "gp_solve", spy)
    maxmin_joint_mr(small_scenario)
    (gp, initial), = calls
    assert set(initial) == set(gp.bounds)
    for var, (lo, hi) in gp.bounds.items():
        assert lo < initial[var] < hi, var
    assert max(c.value(initial) for c in gp.posy_constraints) < 1.0


def test_joint_mr_symmetric_pilots():
    scn = _symmetric_small_scenario(seed=3)
    alloc, lam, _ = maxmin_joint_mr(scn)
    assert alloc.pilot_cu[0, 0] == pytest.approx(alloc.pilot_cu[1, 0], rel=1e-4)
    assert alloc.pilot_cu[0, 1] == pytest.approx(alloc.pilot_cu[1, 1], rel=1e-4)
    assert alloc.pilot_d2d[0] == pytest.approx(alloc.pilot_d2d[1], rel=1e-4)
    assert alloc.data_cu[0, 0] == pytest.approx(alloc.data_cu[1, 0], rel=1e-4)


def _mirror_two_cell_single_user(seed=0, m=16):
    """B=2, K=1, one self-symmetric D2D pair: 4 free powers under symmetry."""
    rng = np.random.default_rng(seed)
    dims = SystemDimensions(2, m, 1, 1, 1, 200)
    own = rng.uniform(0.05, 0.2)
    cross = own * rng.uniform(0.1, 0.4)
    beta_cu_bs = np.array([[[own], [cross]], [[cross], [own]]])
    beta_d2dtx_bs = np.full((2, 1), rng.uniform(1e-4, 1e-3))
    beta_cu_d2drx = np.full((1, 2, 1), rng.uniform(1e-4, 5e-4))
    beta_d2dtx_d2drx = np.array([[rng.uniform(2.0, 8.0)]])
    return _scenario_from_gains(dims, beta_cu_bs, beta_d2dtx_bs,
                                beta_cu_d2drx, beta_d2dtx_d2drx,
                                pair_to_pilot=[0])


def test_joint_mr_maxmin_matches_grid_oracle():
    scn = _mirror_two_cell_single_user(seed=4)
    alloc, lam, _ = maxmin_joint_mr(scn)

    def fun(x):
        pc, pd, qc, qd = x
        cand = PowerAllocation(np.full((2, 1), pc), np.array([pd]),
                               np.full((2, 1), qc), np.array([qd]), scn.p_max)
        return _min_se_at(scn, cand, "mr")

    lo = [1e-6 * scn.p_max] * 4
    hi = [scn.p_max] * 4
    _, best = refine_maximize(fun, lo, hi, rounds=30, pts=9)
    assert lam == pytest.approx(best, abs=1e-2)


def test_joint_mr_maxprod_matches_grid_oracle():
    scn = _mirror_two_cell_single_user(seed=5)
    alloc, logprod, _ = maxprod_joint_mr(scn)

    def fun(x):
        pc, pd, qc, qd = x
        cand = PowerAllocation(np.full((2, 1), pc), np.array([pd]),
                               np.full((2, 1), qc), np.array([qd]), scn.p_max)
        report = evaluate_network(scn.dims, scn.gains, scn.pilots, cand, "mr")
        return float(sum(np.log(bd.sinr) for bd in report.breakdowns.values()))

    _, best = refine_maximize(fun, [1e-6 * scn.p_max] * 4, [scn.p_max] * 4,
                              rounds=30, pts=9)
    assert logprod == pytest.approx(best, abs=1e-3)


def test_joint_mr_single_user_all_full_power():
    dims = SystemDimensions(1, 32, 1, 0, 1, 200)
    scn = _scenario_from_gains(dims, [[[0.08]]], np.zeros((1, 0)),
                               np.zeros((0, 1, 1)), np.zeros((0, 0)),
                               pair_to_pilot=[])
    alloc, logprod, _ = maxprod_joint_mr(scn)
    assert alloc.data_cu[0, 0] == pytest.approx(scn.p_max, rel=1e-3)
    assert alloc.pilot_cu[0, 0] == pytest.approx(scn.p_max, rel=1e-3)


# --- compile consistency ----------------------------------------------------------

def _alloc_to_point(alloc):
    point = {}
    b_, k_ = alloc.data_cu.shape
    for b in range(b_):
        for k in range(k_):
            point[_pc(b, k)] = float(alloc.data_cu[b, k])
            point[_qc(b, k)] = float(alloc.pilot_cu[b, k])
    for l in range(alloc.data_d2d.size):
        point[_pd(l)] = float(alloc.data_d2d[l])
        point[_qd(l)] = float(alloc.pilot_d2d[l])
    return point


def _random_alloc(scn, rng):
    dims = scn.dims
    shape = (dims.num_cells, dims.cus_per_cell)
    return PowerAllocation(scn.p_max * rng.uniform(0.05, 1.0, shape),
                           scn.p_max * rng.uniform(0.05, 1.0, dims.num_d2d_pairs),
                           scn.p_max * rng.uniform(0.05, 1.0, shape),
                           scn.p_max * rng.uniform(0.05, 1.0, dims.num_d2d_pairs),
                           scn.p_max)


def test_compiled_constraints_match_closed_forms(small_scenario, rng):
    scn = small_scenario
    for trial in range(5):
        alloc = _random_alloc(scn, rng)
        point = _alloc_to_point(alloc)
        for b in range(scn.dims.num_cells):
            for k in range(scn.dims.cus_per_cell):
                closed = cu_sinr_mr(b, k, scn.gains, alloc, scn.dims).sinr
                num, den = _mr_sinr_posynomial(scn, b, k, True, None)
                assert num.value(point) / den.value(point) == pytest.approx(closed, rel=1e-9)
                num2, den2 = _mr_sinr_posynomial(scn, b, k, False, alloc)
                assert num2.value(point) / den2.value(point) == pytest.approx(closed, rel=1e-9)
        for l in range(scn.dims.num_d2d_pairs):
            closed = d2d_sinr_approx(l, scn.gains, alloc, scn.pilots, scn.dims).sinr
            num, den = _d2d_sinr_posynomial(scn, l, True, None)
            assert num.value(point) / den.value(point) == pytest.approx(closed, rel=1e-9)
            num2, den2 = _d2d_sinr_posynomial(scn, l, False, alloc)
            assert num2.value(point) / den2.value(point) == pytest.approx(closed, rel=1e-9)


def test_affine_rows_match_closed_forms(small_scenario, rng):
    scn = small_scenario
    alloc = _random_alloc(scn, rng)
    stacked = np.concatenate([alloc.data_cu.ravel(), alloc.data_d2d])
    for processing in (Processing.MR, Processing.ZF):
        rows = _affine_sinr_rows(scn, processing, alloc)
        for row in rows:
            kind, b, idx = row.user
            if kind == "cu":
                fn = cu_sinr_mr(b, idx, scn.gains, alloc, scn.dims) \
                    if processing is Processing.MR \
                    else cu_sinr_zf(b, idx, scn.gains, alloc, scn.pilots, scn.dims)
            else:
                fn = d2d_sinr_approx(idx, scn.gains, alloc, scn.pilots, scn.dims)
            got = (row.num_coeffs @ stacked) / (row.den_const + row.den_coeffs @ stacked)
            assert got == pytest.approx(fn.sinr, rel=1e-9)


# --- successive approximation for joint ZF ------------------------------------------

def test_zf_tilde_bound_touch_and_tangency(rng):
    scn = _mirror_two_cell_single_user(seed=6, m=16)
    expansion = full_power_allocation(scn.dims, scn.p_max)
    expansion.data_cu *= 0.9
    expansion.data_d2d *= 0.7
    expansion.pilot_cu *= 0.6
    expansion.pilot_d2d *= 0.8
    point0 = _alloc_to_point(expansion)
    pilot_point = {k: v for k, v in point0.items() if k.startswith("pp")}

    for b in range(2):
        num = _zf_numerator(scn, b, 0)
        den = _zf_tilde_denominator(scn, b, 0, pilot_point)

        def tilde(point):
            return num.value(point) / den.value(point)

        true0 = cu_sinr_zf(b, 0, scn.gains, expansion, scn.pilots, scn.dims).sinr
        assert tilde(point0) == pytest.approx(true0, rel=1e-9)  # touching

        for _ in range(60):  # global lower bound on random positive probes
            cand = _random_alloc(scn, rng)
            point = _alloc_to_point(cand)
            true = cu_sinr_zf(b, 0, scn.gains, cand, scn.pilots, scn.dims).sinr
            assert tilde(point) <= true * (1 + 1e-9)

        for var in point0:  # tangency via central differences
            h = 1e-5 * point0[var]
            up = dict(point0, **{var: point0[var] + h})
            dn = dict(point0, **{var: point0[var] - h})

            def true_at(point):
                cand = PowerAllocation(
                    np.array([[point[_pc(0, 0)]], [point[_pc(1, 0)]]]),
                    np.array([point[_pd(0)]]),
                    np.array([[point[_qc(0, 0)]], [point[_qc(1, 0)]]]),
                    np.array([point[_qd(0)]]), scn.p_max)
                return cu_sinr_zf(b, 0, scn.gains, cand, scn.pilots, scn.dims).sinr

            d_tilde = (tilde(up) - tilde(dn)) / (2 * h)
            d_true = (true_at(up) - true_at(dn)) / (2 * h)
            scale = max(abs(d_true), abs(d_tilde), 1e-12 / h)
            assert abs(d_tilde - d_true) / scale < 1e-6


def test_zf_joint_single_user_terminates_at_full_power():
    dims = SystemDimensions(1, 16, 1, 0, 1, 200)
    scn = _scenario_from_gains(dims, [[[0.08]]], np.zeros((1, 0)),
                               np.zeros((0, 1, 1)), np.zeros((0, 0)),
                               pair_to_pilot=[])
    alloc, value, diag = zf_joint_successive(scn, "maxprod")
    assert diag.status == "converged"
    assert diag.iterations <= 3
    assert alloc.data_cu[0, 0] == pytest.approx(scn.p_max, rel=1e-3)
    assert alloc.pilot_cu[0, 0] == pytest.approx(scn.p_max, rel=1e-3)


def test_zf_joint_monotone_and_dominates_data_only(caplog):
    scn = _mirror_two_cell_single_user(seed=7, m=16)
    alloc, value, diag = zf_joint_successive(scn, "maxprod")
    trace = diag.objective_trace
    assert all(t2 >= t1 - 1e-9 for t1, t2 in zip(trace, trace[1:]))
    assert diag.status == "converged"

    _, prod_data, _ = maxprod_data(scn, "zf")
    assert value >= prod_data - 1e-6

    # true-constraint feasibility at the final allocation: achieved SINRs sit
    # at or above what the approximated problem certified
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "zf")
    for (kind, target) in diag.active_constraints:
        if kind != "sinr":
            continue

    def fun(x):
        pc, pd, qc, qd = x
        cand = PowerAllocation(np.full((2, 1), pc), np.array([pd]),
                               np.full((2, 1), qc), np.array([qd]), scn.p_max)
        rep = evaluate_network(scn.dims, scn.gains, scn.pilots, cand, "zf")
        return float(sum(np.log(bd.sinr) for bd in rep.breakdowns.values()))

    _, best = refine_maximize(fun, [1e-6 * scn.p_max] * 4, [scn.p_max] * 4,
                              rounds=30, pts=9)
    if value < best - 1e-2 * abs(best):
        logging.getLogger(__name__).warning(
            "local SCA objective %.6f below grid-refinement best %.6f", value, best)
    else:
        assert value == pytest.approx(best, rel=1e-2, abs=1e-2)


def test_zf_joint_maxmin_variant():
    scn = _mirror_two_cell_single_user(seed=8, m=16)
    alloc, value, diag = zf_joint_successive(scn, "maxmin")
    assert diag.status == "converged"
    _, lam_data, _ = maxmin_data(scn, "zf")
    assert value >= lam_data - 2e-3
    trace = diag.objective_trace
    assert all(t2 >= t1 - 1e-9 for t1, t2 in zip(trace, trace[1:]))


# --- generic solver behaviour --------------------------------------------------------

def test_solver_routing(small_scenario):
    scn = small_scenario
    spec = ControlProblemSpec(objective="maxmin", variables="data", processing="zf")
    alloc, value, diag = solve_problem(scn, spec)
    assert diag.status == "optimal"
    spec2 = ControlProblemSpec(objective="maxprod", variables="joint", processing="zf")
    alloc2, value2, diag2 = solve_problem(scn, spec2)
    assert diag2.status in ("converged", "iteration_cap")
    assert spec2.problem_id == "zf-maxprod-joint"


def test_box_respected_everywhere(small_scenario):
    scn = small_scenario
    for solver in (lambda: maxmin_data(scn, "mr"),
                   lambda: maxprod_data(scn, "zf"),
                   lambda: maxmin_joint_mr(scn),
                   lambda: zf_joint_successive(scn, "maxprod")):
        alloc, _, _ = solver()
        for arr in (alloc.data_cu, alloc.data_d2d, alloc.pilot_cu, alloc.pilot_d2d):
            assert np.all(arr >= 0.0) and np.all(arr <= scn.p_max * (1 + 1e-9))


def _permuted_scenario(scn, perm_k, perm_l):
    """Relabel CU indices (within every cell) and D2D pair indices."""
    gains = scn.gains
    new_gains = LargeScaleGains(
        gains.beta_cu_bs[:, :, perm_k],
        gains.beta_d2dtx_bs[:, perm_l],
        gains.beta_cu_d2drx[np.ix_(perm_l, np.arange(scn.dims.num_cells), perm_k)],
        gains.beta_d2dtx_d2drx[np.ix_(perm_l, perm_l)],
    )
    old_map = scn.pilots.pair_to_pilot
    new_map = np.array([old_map[perm_l[j]] for j in range(len(perm_l))])
    sets = [sorted(np.flatnonzero(new_map == i).tolist())
            for i in range(scn.dims.num_d2d_pilots)]
    pilots = PilotAllocation(np.arange(0), sets, new_map)
    return Scenario(scn.dims, scn.geometry, new_gains, pilots, scn.p_max, scn.seed)


def test_order_invariance(small_scenario):
    scn = small_scenario
    perm_k = np.array([1, 0])
    perm_l = np.array([1, 0])
    permuted = _permuted_scenario(scn, perm_k, perm_l)

    a1, lam1, _ = maxmin_data(scn, "mr")
    a2, lam2, _ = maxmin_data(permuted, "mr")
    assert lam2 == pytest.approx(lam1, abs=1e-9)
    assert np.allclose(a2.data_cu, a1.data_cu[:, perm_k], rtol=1e-6, atol=1e-9)
    assert np.allclose(a2.data_d2d, a1.data_d2d[perm_l], rtol=1e-6, atol=1e-9)

    b1, p1, _ = maxprod_data(scn, "mr")
    b2, p2, _ = maxprod_data(permuted, "mr")
    assert p2 == pytest.approx(p1, rel=1e-8)
    assert np.allclose(b2.data_cu, b1.data_cu[:, perm_k], rtol=1e-5)
    assert np.allclose(b2.data_d2d, b1.data_d2d[perm_l], rtol=1e-5)


def test_solve_json_roundtrip(small_scenario):
    from mimo_d2d.power_control import solve_to_json, solve_from_json
    scn = small_scenario
    spec = ControlProblemSpec(objective="maxmin", variables="data", processing="mr")
    alloc, value, diag = solve_problem(scn, spec)
    text = solve_to_json(spec, alloc, value, diag)
    spec2, alloc2, value2, status = solve_from_json(text)
    assert spec2.problem_id == spec.problem_id
    assert value2 == pytest.approx(value)
    assert status == diag.status
    assert np.allclose(alloc2.data_cu, alloc.data_cu)
    assert np.allclose(alloc2.pilot_d2d, alloc.pilot_d2d)
