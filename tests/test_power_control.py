import dataclasses
import inspect
import itertools
import json
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from mimo_d2d import (Scenario, ScenarioConfig, SystemDimensions, Geometry,
                      LargeScaleGains, PilotAllocation, PowerAllocation,
                      full_power_allocation, evaluate_network,
                      ControlProblemSpec, ControlSettings,
                      maxmin_data, maxprod_data, maxmin_joint_mr,
                      maxprod_joint_mr, zf_joint_successive, solve_problem,
                      cu_sinr_mr, cu_sinr_zf, se_from_sinr, sinr_terms,
                      power_control)
from mimo_d2d.power_control import _stacked_upper, _minimal_powers, Processing
from mimo_d2d import gp as gp_module
from mimo_d2d.gp import (Factors, GeometricProgram, GPInfeasibleError, GPSolverError,
                         LinearFeasibilityProblem, LPFeasibility, Monomial, Posynomial,
                         SolverSettings, gp_solve, lp_feasible, monomial_lower_bound)
from mimo_d2d.harness import cellular_only_view, drop_seed
from expanded import (data_sinr_posynomials, expanded_sinr_constraints, model_values,
                      solve_expanded_joint_mr)
from gridsearch import refine_maximize
import closed_forms


def _scenario_from_gains(dims, beta_cu_bs, beta_d2dtx_bs, beta_cu_d2drx,
                         beta_d2dtx_d2drx, pair_to_pilot, p_max=200.0):
    gains = LargeScaleGains(np.asarray(beta_cu_bs, dtype=float),
                            np.asarray(beta_d2dtx_bs, dtype=float),
                            np.asarray(beta_cu_d2drx, dtype=float),
                            np.asarray(beta_d2dtx_d2drx, dtype=float))
    pair_to_pilot = np.asarray(pair_to_pilot, dtype=int)
    sets = [sorted(np.flatnonzero(pair_to_pilot == i).tolist())
            for i in range(dims.num_d2d_pilots)]
    pilots = PilotAllocation(sets, pair_to_pilot)
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


def _summed_model(scn, processing, pilots):
    """(g, a) of SINR_i = g_i p_i / (1 + a_i . p) at the given pilot powers:
    the model's gains and its mechanisms' coupling matrices summed."""
    g, terms = sinr_terms(scn.dims, scn.gains, scn.pilots, pilots, Processing(processing).value)
    return g, terms.sum(axis=0)


def _d2d_sinr(l, scn, alloc):
    return evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "mr").breakdowns[
        ("d2d", -1, l)]


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
    eps = settings.bisection_eps
    probe_settings = ControlSettings()
    alloc2, lam2, diag2 = maxmin_data(scn, "mr", probe_settings)
    assert lam2 == lam  # deterministic
    # monotone feasibility: a level 2 eps above the optimum must be infeasible,
    # which bisection certifies through its final upper bound
    assert diag.objective_trace[-1] == lam
    assert lam + 2 * eps >= lam_upper or _level_infeasible(scn, "mr", lam + 2 * eps)


def _lp_probe(g, a, cols, t, upper):
    """Barrier-LP feasibility of the common SINR target t over the box: the
    rows g_i p_i >= t (1 + a_i . p), where cols[i] is row i's own power."""
    lp_a = t * a
    lp_a[np.arange(len(g)), cols] -= g
    return lp_feasible(LinearFeasibilityProblem(lp_a, np.full(len(g), -t), upper))


def _level_infeasible(scn, processing, level):
    g, a = _summed_model(scn, Processing(processing),
                            full_power_allocation(scn.dims, scn.p_max))
    t = 2.0 ** (level / scn.dims.prelog) - 1.0
    return not _lp_probe(g, a, np.arange(len(g)), t, _stacked_upper(scn)).feasible


def _included_model(scn, processing, excluded):
    """(g, a) restricted to the rows of the users not excluded, and those
    users' own columns."""
    cols = np.array([i for i, u in enumerate(scn.dims.users()) if u not in excluded], dtype=int)
    g, a = _summed_model(scn, Processing(processing),
                            full_power_allocation(scn.dims, scn.p_max))
    return g[cols], a[cols], cols


def test_maxmin_tightness_and_attainment(small_scenario):
    scn = small_scenario
    settings = ControlSettings()
    alloc, lam, diag = maxmin_data(scn, "zf", settings)
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "zf")
    ses = [report.cu_se[b, k] for b in range(2) for k in range(2)]
    ses += list(report.d2d_se_approx)
    assert min(ses) == pytest.approx(lam, abs=settings.bisection_eps + 1e-6)
    assert any(abs(se - lam) <= settings.bisection_eps + 1e-6 for se in ses)


def test_maxmin_solves_evaluate_the_network_only_for_values_they_use(small_scenario,
                                                                     monkeypatch):
    """A max-min solve evaluates the network for the snap test (no power on
    this drop is below the snap threshold, so there is none), the half-power
    start of each joint GP assembly, and the true objective of Algorithm 2's
    start and of each SCA step; no evaluation fills a diagnostic. Algorithm
    2 assembles its GP once, so it evaluates the network once per SCA
    iteration plus twice."""
    callers = []
    evaluate = power_control.evaluate_network

    def spy(*args, **kwargs):
        callers.append(inspect.currentframe().f_back.f_code.co_name)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(power_control, "evaluate_network", spy)
    for processing in ("mr", "zf"):
        maxmin_data(small_scenario, processing)
        assert callers == []
    maxmin_joint_mr(small_scenario)
    assert callers == ["_half_power_sinrs"]
    callers.clear()
    _, _, diag = zf_joint_successive(small_scenario, "maxmin")
    assert diag.iterations >= 2
    assert callers == ["_true_objective", "_half_power_sinrs"] + [
        "_true_objective"] * diag.iterations


@pytest.fixture(scope="module")
def reference_drops():
    return [Scenario.build(ScenarioConfig(), seed=drop_seed(0, d)) for d in (0, 1, 2)]


def _lp_bisection(scn, processing, settings):
    """Algorithm 1 with a barrier-LP probe at every level: the slow path the
    minimal-power test replaced, kept as its oracle. Returns (allocation,
    level, objective trace)."""
    processing = Processing(processing)
    g, a, cols = _included_model(scn, processing, power_control._degenerate_users(scn))
    upper = _stacked_upper(scn)
    lam_hi = np.log2(1.0 + scn.p_max * g).min()
    lam_lo, witness, trace = 0.0, upper.copy(), []
    while lam_hi - lam_lo > settings.bisection_eps and len(trace) < settings.bisection_cap:
        lam = (lam_lo + lam_hi) / 2.0
        result = _lp_probe(g, a, cols, 2.0 ** (lam / scn.dims.prelog) - 1.0, upper)
        if result.feasible:
            lam_lo, witness = lam, result.witness
        else:
            lam_hi = lam
        trace.append(lam_lo)
    names = power_control._stacked_names(scn)
    values = {names[i]: witness[i] for i in cols}
    alloc = power_control._alloc_from_values(scn, values, False,
                                             full_power_allocation(scn.dims, scn.p_max))
    alloc = power_control._snap_small_powers(
        scn, alloc, processing, lambda rep: power_control._min_se(rep, cols) >= lam_lo - 1e-6)
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
    g, a = _summed_model(scn, Processing(processing),
                            full_power_allocation(scn.dims, scn.p_max))
    upper = _stacked_upper(scn)
    t = 2.0 ** (frac * np.log2(1.0 + scn.p_max * g).min() / scn.dims.prelog) - 1.0
    p = _minimal_powers(a / g[:, None], 1.0 / g, t, upper)
    lp = _lp_probe(g, a, np.arange(len(g)), t, upper)
    if abs(lp.margin) > 10 * gp_module.LP_FEAS_TOL:
        assert (p is not None) == lp.feasible
    if p is None:
        return
    np.testing.assert_allclose(g * p, t * (1.0 + a @ p), rtol=1e-9)
    if lp.margin < -10 * gp_module.LP_FEAS_TOL:
        assert np.all(p <= lp.witness * (1.0 + 1e-9))


@pytest.mark.parametrize("processing", ["mr", "zf"])
@pytest.mark.parametrize("drop", [0, 1, 2])
def test_maxmin_level_matches_perron_oracle(reference_drops, processing, drop):
    """With f = a / g and h = 1 / g from the SINR model and per-user power
    limits p_bar, the max-min SINR is t* = 1 / max_i rho(f + h e_i^T / p_bar_i)
    (Tan, Chiang and Srikant, IEEE TSP 2011); the bisection's level lies at
    most bisection_eps below its SE."""
    scn = reference_drops[drop]
    settings = ControlSettings()
    _, lam_lo, diag = maxmin_data(scn, processing, settings)
    g, a, cols = _included_model(scn, processing, diag.excluded_users)
    f, h = a[:, cols] / g[:, None], 1.0 / g
    p_bar = _stacked_upper(scn)[cols]
    rho = max(np.abs(np.linalg.eigvals(f + np.outer(h, e / p))).max()
              for e, p in zip(np.eye(len(h)), p_bar))
    lam_star = se_from_sinr(1.0 / rho, scn.dims)
    assert 0.0 <= lam_star - lam_lo <= settings.bisection_eps


def test_maxmin_bisection_cap_is_reported(small_scenario):
    alloc, lam, diag = maxmin_data(small_scenario, "zf", ControlSettings(bisection_cap=2))
    assert diag.iterations == 2
    assert diag.status == "iteration_cap"
    assert _min_se_at(small_scenario, alloc, "zf") >= lam - 1e-6


def test_maxmin_minimal_powers_when_lp_rejects_level(small_scenario, monkeypatch):
    """Should the LP reject the final level at its tolerance, the minimal
    powers that passed the test are returned, and they meet the level."""
    monkeypatch.setattr(power_control, "lp_feasible",
                        lambda lp: LPFeasibility(False, lp.upper / 2.0, 1.0))
    alloc, lam, diag = maxmin_data(small_scenario, "mr")
    assert lam > 0.0
    assert "witness=minimal_powers" in diag.notes
    assert _min_se_at(small_scenario, alloc, "mr") >= lam - 1e-6



@pytest.mark.parametrize("processing", ["mr", "zf"])
def test_maxmin_data_ignores_gp_settings(reference_drops, processing):
    """The max-min witness LP has its own settings: GP settings far from the
    defaults leave the level and every power bit-identical."""
    want_alloc, want_level, _ = maxmin_data(reference_drops[0], processing)
    gp_settings = SolverSettings(tol=1e-4, feas_tol=1e-20, barrier_mu=100.0)
    alloc, level, _ = maxmin_data(reference_drops[0], processing,
                                  ControlSettings(gp=gp_settings))
    assert level == want_level
    for name in ("data_cu", "data_d2d", "pilot_cu", "pilot_d2d"):
        assert np.array_equal(getattr(alloc, name), getattr(want_alloc, name)), name

# --- max product SINR over data powers ----------------------------------------------

def test_maxprod_single_user_full_power():
    dims = SystemDimensions(1, 32, 1, 0, 1, 200)
    scn = _scenario_from_gains(dims, [[[0.08]]], np.zeros((1, 0)),
                               np.zeros((0, 1, 1)), np.zeros((0, 0)),
                               pair_to_pilot=[])
    alloc, logprod, diag = maxprod_data(scn, "mr")
    assert alloc.data_cu[0, 0] == pytest.approx(scn.p_max, rel=1e-3)


@pytest.mark.parametrize("processing", ["mr", "zf"])
@pytest.mark.parametrize("user", ["cu", "d2d"])
def test_maxprod_zero_pilot_is_infeasible(small_scenario, processing, user):
    """A user without pilot power has an identically zero SINR, so the
    product of SINRs cannot be maximized."""
    pilots = full_power_allocation(small_scenario.dims, small_scenario.p_max)
    if user == "cu":
        pilots.pilot_cu[1, 0] = 0.0
    else:
        pilots.pilot_d2d[1] = 0.0
    with pytest.raises(GPInfeasibleError):
        maxprod_data(small_scenario, processing, fixed_pilots=pilots)


def test_maxprod_constraint_tightness(small_scenario):
    scn = small_scenario
    alloc, logprod, diag = maxprod_data(scn, "mr")
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "mr")
    achieved = sum(np.log(bd.sinr) for bd in report.breakdowns.values())
    # the GP-model SINRs are the achieved SINRs
    assert achieved == pytest.approx(logprod, rel=1e-6, abs=1e-6)


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


def _aux_maxprod(scn, processing, joint):
    """Max-product as a GP with one auxiliary SINR variable per user:
    maximize the product of the auxiliaries subject to aux * den / num <= 1.
    The path the sum of log-posynomials replaced, kept as its oracle.
    Returns (allocation, log product)."""
    processing = Processing(processing)
    pilots = None if joint else full_power_allocation(scn.dims, scn.p_max)
    constraint_map = (expanded_sinr_constraints(scn, processing) if joint else
                      data_sinr_posynomials(scn, processing, pilots))
    bounds = power_control._power_bounds(scn, joint)
    ub = (power_control._joint_upper_bounds(scn, processing) if joint
          else scn.p_max * _summed_model(scn, processing, pilots)[0])
    base = power_control._half_power_sinrs(scn, processing, pilots)
    start = dict.fromkeys(bounds, scn.p_max / 2.0)
    names = [f"aux_{i}" for i in range(len(constraint_map))]
    constraints = []
    # constraint_map, base and ub all list the users in dims.users() order
    for name, (num, den), base_i, ub_i in zip(names, constraint_map.values(), base, ub):
        bounds[name] = (max(base_i * 1e-9, 1e-280), ub_i)
        start[name] = base_i * 0.5
        constraints.append(den * Monomial(1.0, {name: 1.0}) / num)
    gp = GeometricProgram(objective=Monomial(1.0, dict.fromkeys(names, -1.0)),
                          posy_constraints=constraints, bounds=bounds)
    sol = gp_solve(gp, initial=start)
    alloc = power_control._alloc_from_values(scn, sol.values, joint, pilots)
    return alloc, float(sum(np.log(sol.values[name]) for name in names))


@pytest.mark.parametrize("problem", ["mr-data", "zf-data", "mr-joint"])
@pytest.mark.parametrize("drop", [None, 0])
def test_maxprod_matches_auxiliary_gp_oracle(small_scenario, reference_drops, problem, drop):
    scn = small_scenario if drop is None else reference_drops[drop]
    processing, scope = problem.split("-")
    if scope == "data":
        alloc, log_prod, diag = maxprod_data(scn, processing)
    else:
        alloc, log_prod, diag = maxprod_joint_mr(scn)
    want, log_want = _aux_maxprod(scn, processing, scope == "joint")
    assert log_prod == pytest.approx(log_want, rel=1e-9)
    for name in ("data_cu", "data_d2d", "pilot_cu", "pilot_d2d"):
        np.testing.assert_allclose(getattr(alloc, name), getattr(want, name),
                                   rtol=1e-6, err_msg=name)
    # every user's level is its GP-model SINR, exact for MR and ZF data powers
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, processing)
    for user, level in diag.targets.items():
        assert report.breakdowns[user].sinr == pytest.approx(level, rel=1e-9)


def _zero_coupling_scenario(scn):
    """scn with CU (0, 0) unheard at D2D receiver 1, so that receiver's
    coupling to the CU is exactly zero."""
    beta = scn.gains.beta_cu_d2drx.copy()
    beta[1, 0, 0] = 0.0
    return dataclasses.replace(scn, gains=dataclasses.replace(scn.gains, beta_cu_d2drx=beta))


@pytest.mark.parametrize("processing", ["mr", "zf"])
@pytest.mark.parametrize("case", ["small", "zero-coupling", "reference"])
def test_maxprod_data_factors_compile_as_posynomials(small_scenario, reference_drops,
                                                     processing, case):
    """The max-product objective built from the (g, a) arrays compiles to
    exactly the stack of den / num over the per-user posynomial oracle:
    every nonzero, exponent, log coefficient and segment pointer is equal.
    A zero coupling drops its term, and a_ii > 0 gives a constant term."""
    scn = {"small": small_scenario, "zero-coupling": _zero_coupling_scenario(small_scenario),
           "reference": reference_drops[0]}[case]
    pilots = full_power_allocation(scn.dims, scn.p_max)
    _, a = _summed_model(scn, processing, pilots)
    assert (np.diag(a) > 0.0).any()
    assert (a == 0.0).any() == (case == "zero-coupling")
    gp = GeometricProgram(
        objective=power_control._maxprod_data_factors(scn, Processing(processing), pilots),
        bounds=power_control._power_bounds(scn, False))
    _, var_index, _ = gp_module._compile_gp(gp)
    got = gp_module._stack_from_factors(var_index, gp.objective)
    want = gp_module._stack_from_factors(var_index, Factors.from_posynomials(
        [den / num for num, den in data_sinr_posynomials(scn, processing, pilots).values()]))
    for name in ("row", "col", "val", "d", "ptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("solve", [maxprod_data, maxmin_data], ids=["maxprod", "maxmin"])
@pytest.mark.parametrize("processing", ["mr", "zf"])
def test_data_power_solves_build_no_monomial(reference_drops, monkeypatch, solve, processing):
    """The data-power problems read the (g, a) arrays and build no Monomial."""
    built = []
    post_init = gp_module.Monomial.__post_init__

    def counting(self):
        built.append(self.coeff)
        post_init(self)

    monkeypatch.setattr(gp_module.Monomial, "__post_init__", counting)
    solve(reference_drops[0], processing)
    assert len(built) == 0
    gp_module.variable("x")  # the spy sees a Monomial built anywhere
    assert len(built) == 1


def test_joint_solves_build_no_monomial(small_scenario, monkeypatch):
    """The four joint problems build their GPs as arrays straight from the
    gain tensors, and Algorithm 2 condenses its anchors as arrays: no
    Monomial is built."""
    built = []
    post_init = gp_module.Monomial.__post_init__

    def counting(self):
        built.append(self.coeff)
        post_init(self)

    monkeypatch.setattr(gp_module.Monomial, "__post_init__", counting)
    for objective in ("maxmin", "maxprod"):
        for processing in ("mr", "zf"):
            _, _, diag = solve_problem(small_scenario,
                                       ControlProblemSpec(objective, "joint", processing))
            assert diag.status in ("optimal", "converged")
    assert len(built) == 0
    gp_module.variable("x")  # the spy sees a Monomial built anywhere
    assert len(built) == 1


# --- joint pilot and data, MR --------------------------------------------------------

def test_joint_mr_dominates_data_only(small_scenario):
    scn = small_scenario
    _, lam_data, _ = maxmin_data(scn, "mr")
    _, lam_joint, _ = maxmin_joint_mr(scn)
    assert lam_joint >= lam_data - 1e-6

    _, prod_data, _ = maxprod_data(scn, "mr")
    _, prod_joint, _ = maxprod_joint_mr(scn)
    assert prod_joint >= prod_data - 1e-6


def _spy_gp_starts(monkeypatch):
    """Record (gp, initial) of every gp_solve call power_control makes."""
    calls = []
    solve = power_control.gp_solve

    def spy(gp, settings=None, *, initial):
        calls.append((gp, initial))
        return solve(gp, settings, initial=initial)

    monkeypatch.setattr(power_control, "gp_solve", spy)
    return calls


def _assert_strictly_interior(gp, initial):
    """`initial` sets every variable inside its bounds and satisfies every
    constraint, each by more than gp_solve's log-space margin of 1e-12."""
    assert set(initial) == set(gp.bounds)
    for var, (lo, hi) in gp.bounds.items():
        y = math.log(initial[var])
        assert math.log(lo) + 1e-12 < y < math.log(hi) - 1e-12, var
    variables, var_index, _ = gp_module._compile_gp(gp)
    constraints = gp_module._stack_from_factors(var_index, gp.constraints)
    log_values, _ = constraints.values(np.log([initial[v] for v in variables]))
    assert log_values.max(initial=-math.inf) < -1e-12


# every GP family power_control builds; for Algorithm 2, its first GP
GP_FAMILIES = {
    "mr-maxprod-data": (lambda scn: maxprod_data(scn, "mr"), None),
    "zf-maxprod-data": (lambda scn: maxprod_data(scn, "zf"), None),
    "mr-maxmin-joint": (maxmin_joint_mr, Processing.MR),
    "mr-maxprod-joint": (maxprod_joint_mr, Processing.MR),
    "zf-maxmin-joint": (lambda scn: zf_joint_successive(scn, "maxmin"), Processing.ZF),
}


@pytest.mark.parametrize("family", GP_FAMILIES)
def test_joint_mr_maxmin_warm_start_is_interior(small_scenario, monkeypatch, family):
    """The start handed to the GP lies strictly inside every bound and
    strictly satisfies every constraint, so gp_solve accepts it. In a joint
    GP every auxiliary starts just above its factor's value at the start
    powers; the first Algorithm 2 GP is anchored at full power."""
    solve, processing = GP_FAMILIES[family]
    calls = _spy_gp_starts(monkeypatch)
    solve(small_scenario)
    gp, initial = calls[0]
    _assert_strictly_interior(gp, initial)
    if processing is None:
        assert len(calls) == 1
        return

    dims = small_scenario.dims
    anchor = full_power_allocation(dims, small_scenario.p_max).stacked_pilots()
    model = power_control._joint_sinr_model(small_scenario, processing, pilot_point=anchor)
    aux = model.names[2 * len(dims.users()):]
    assert len(aux) == dims.num_cells + dims.num_d2d_pairs
    assert set(aux) <= set(gp.bounds)
    factors = model.lifts.values(np.log([initial[name] for name in model.names]))
    for name, factor in zip(aux, factors):
        ratio = initial[name] / factor
        assert 1.0 < ratio <= 1.0 + power_control.LIFT_MARGIN * (1 + 1e-9), name


@pytest.mark.parametrize("drop", [None, 0, 1])
def test_joint_mr_lifted_optimum_matches_expanded_oracle(small_scenario, reference_drops,
                                                         drop):
    """The lifted joint-MR GPs reach the optimum of the GPs over the
    multiplied-out denominators."""
    scn = small_scenario if drop is None else reference_drops[drop]
    for objective, solve in (("maxmin", maxmin_joint_mr), ("maxprod", maxprod_joint_mr)):
        _, value, diag = solve(scn)
        oracle, want = solve_expanded_joint_mr(scn, objective)
        assert diag.status == oracle.status == "optimal"
        assert value == pytest.approx(want, rel=1e-8), objective


def _spy_gp_solutions(monkeypatch):
    """Record every GPSolution power_control's solvers get back."""
    solutions = []
    solve = power_control.gp_solve

    def spy(gp, settings=None, initial=None):
        solutions.append(solve(gp, settings, initial=initial))
        return solutions[-1]

    monkeypatch.setattr(power_control, "gp_solve", spy)
    return solutions


@pytest.mark.parametrize("objective, size", [("maxmin", (130, 74)), ("maxprod", (129, 19))])
def test_joint_mr_gp_reports_its_compiled_size(reference_drops, monkeypatch, objective, size):
    """A reference joint-MR GP has 2 (B K + L) = 110 powers, one auxiliary
    per BS and per D2D receiver (B + L = 19) and, for max-min, the target;
    its constraints are one per user for max-min and one per auxiliary. The
    counts GPSolution reports are those of the stacks its GP compiles to."""
    seen = []
    solve = power_control.gp_solve

    def spy(gp, settings=None, *, initial):
        seen.append((gp, solve(gp, settings, initial=initial)))
        return seen[-1][1]

    monkeypatch.setattr(power_control, "gp_solve", spy)
    (maxmin_joint_mr if objective == "maxmin" else maxprod_joint_mr)(reference_drops[0])
    ((gp, solution),) = seen
    variables, var_index, _ = gp_module._compile_gp(gp)
    obj = gp_module._stack_from_factors(var_index, gp.objective)
    cons = gp_module._stack_from_factors(var_index, gp.constraints)
    assert (solution.num_variables, solution.num_constraints) == size
    assert (solution.num_variables, solution.num_constraints, solution.num_terms) == (
        len(variables), cons.m, obj.d.size + cons.d.size)


def test_certificate_holds_at_large_centering_factor(reference_drops, monkeypatch):
    """With a centering factor of 100 the joint-MR max-min solve still meets
    its certificate, the surrogate gap and the dual residual, and returns
    the level of the default factor."""
    _, want, _ = maxmin_joint_mr(reference_drops[0])
    solutions = _spy_gp_solutions(monkeypatch)
    settings = ControlSettings(gp=SolverSettings(barrier_mu=100.0))
    _, level, diag = maxmin_joint_mr(reference_drops[0], settings)
    (solution,) = solutions
    assert diag.status == solution.status == "optimal"
    assert solution.duality_gap <= settings.gp.tol
    assert solution.dual_residual <= settings.gp.feas_tol
    assert level == pytest.approx(want, rel=1e-6)


def test_unreachable_dual_residual_is_never_optimal(reference_drops, monkeypatch):
    """A dual-residual tolerance below floating-point reach cannot be
    certified: the solve stalls ("inaccurate") or runs out of steps."""
    solutions = _spy_gp_solutions(monkeypatch)
    settings = ControlSettings(gp=SolverSettings(feas_tol=1e-20))
    try:
        _, _, diag = maxmin_joint_mr(reference_drops[0], settings)
    except GPSolverError:
        return
    (solution,) = solutions
    assert diag.status == solution.status == "inaccurate"
    assert solution.dual_residual > settings.gp.feas_tol


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

def _alloc_to_point(scn, alloc):
    names = power_control._stacked_names(scn) + power_control._stacked_names(scn, pilot=True)
    return dict(zip(names, np.concatenate([alloc.stacked_data(),
                                           alloc.stacked_pilots()]).tolist()))


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
    model = power_control._joint_sinr_model(scn, Processing.MR)
    for trial in range(5):
        alloc = _random_alloc(scn, rng)
        point = _alloc_to_point(scn, alloc)
        # the lifted joint-MR model, every auxiliary at its factor's value
        nums, dens = model_values(model, point)
        for (kind, b, idx), num, den in zip(scn.dims.users(), nums, dens):
            closed = (cu_sinr_mr(b, idx, scn.gains, alloc, scn.dims) if kind == "cu"
                      else _d2d_sinr(idx, scn, alloc))
            assert num / den == pytest.approx(closed.sinr, rel=1e-9)
        # the data-scope posynomials, at the trial's pilot powers
        for processing in (Processing.MR, Processing.ZF):
            for (kind, b, idx), (num, den) in data_sinr_posynomials(
                    scn, processing, alloc).items():
                if kind == "d2d":
                    closed = _d2d_sinr(idx, scn, alloc)
                elif processing is Processing.MR:
                    closed = cu_sinr_mr(b, idx, scn.gains, alloc, scn.dims)
                else:
                    closed = cu_sinr_zf(b, idx, scn.gains, alloc, scn.pilots, scn.dims)
                assert num.value(point) / den.value(point) == pytest.approx(closed.sinr,
                                                                            rel=1e-9)


@hyp_settings(max_examples=40, deadline=None)
@given(cells=st.integers(1, 3), cus=st.integers(1, 2), pairs=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1), bump=st.floats(1e-9, 10.0))
def test_lifted_denominators_match_expanded_oracle(cells, cus, pairs, seed, bump):
    """On random networks whose D2D pairs may share pilots, at random
    positive powers and a random ZF anchor, every denominator of the array
    model equals its multiplied-out oracle with each auxiliary at its
    factor's value, and is no smaller with auxiliaries above their values;
    every numerator equals the oracle's."""
    rng = np.random.default_rng(seed)
    pilots = int(rng.integers(1, pairs + 1)) if pairs else 1
    dims = SystemDimensions(cells, 32, cus, pairs, pilots, 200)
    scn = _scenario_from_gains(dims, 10.0 ** rng.uniform(-4.0, -1.0, (cells, cells, cus)),
                               10.0 ** rng.uniform(-6.0, -3.0, (cells, pairs)),
                               10.0 ** rng.uniform(-6.0, -3.0, (pairs, cells, cus)),
                               10.0 ** rng.uniform(-5.0, 1.0, (pairs, pairs)),
                               pair_to_pilot=rng.integers(0, pilots, pairs))
    point = {name: scn.p_max * 10.0 ** rng.uniform(-6.0, 0.0)
             for name in power_control._power_bounds(scn, True)}
    anchor = scn.p_max * 10.0 ** rng.uniform(-6.0, 0.0, len(dims.users()))
    anchor_point = dict(zip(power_control._stacked_names(scn, pilot=True), anchor))
    for processing in (Processing.MR, Processing.ZF):
        model = power_control._joint_sinr_model(scn, processing, pilot_point=anchor)
        expanded = expanded_sinr_constraints(scn, processing, anchor_point)
        nums, dens = model_values(model, point)
        lifts = model.lifts.ptr.size - 1
        scale = np.where(rng.uniform(size=lifts) < 0.5, 1.0 + bump * rng.uniform(size=lifts), 1.0)
        _, raised = model_values(model, point, scale)
        for user, num, den, den_raised in zip(dims.users(), nums, dens, raised):
            num_want, den_want = (p.value(point) for p in expanded[user])
            assert num == pytest.approx(num_want, rel=1e-12)
            assert den == pytest.approx(den_want, rel=1e-12), user
            assert den_raised >= den_want * (1 - 1e-12), user


def _random_zf_scenario(cells, cus, pairs, rng):
    """A network of random gains whose D2D pairs may share pilots."""
    pilots = int(rng.integers(1, pairs + 1)) if pairs else 1
    dims = SystemDimensions(cells, 32, cus, pairs, pilots, 200)
    return _scenario_from_gains(dims, 10.0 ** rng.uniform(-4.0, -1.0, (cells, cells, cus)),
                                10.0 ** rng.uniform(-6.0, -3.0, (cells, pairs)),
                                10.0 ** rng.uniform(-6.0, -3.0, (pairs, cells, cus)),
                                10.0 ** rng.uniform(-5.0, 1.0, (pairs, pairs)),
                                pair_to_pilot=rng.integers(0, pilots, pairs))


def _dense_factors(factors):
    """Segment pointers, log coefficients and the exponents as a dense
    (terms, names) matrix, in which a stored zero exponent is absent."""
    exps = np.zeros((factors.log_coeff.size, len(factors.names)))
    np.add.at(exps, (factors.term, factors.var), factors.exp)
    return factors.ptr, factors.log_coeff, exps


@hyp_settings(max_examples=30, deadline=None)
@given(cells=st.integers(1, 3), cus=st.integers(1, 2), pairs=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1), objective=st.sampled_from(["maxmin", "maxprod"]))
def test_reanchored_gp_matches_fresh_build(cells, cus, pairs, seed, objective):
    """Algorithm 2's GP, assembled once and re-anchored at three random
    pilot points in turn, equals at each the GP assembled from a fresh
    _joint_sinr_model(scn, ZF, anchor) build: objective and constraint
    Factors, box and start, to 1e-12 relative, with a stored zero exponent
    counting as absent."""
    rng = np.random.default_rng(seed)
    scn = _random_zf_scenario(cells, cus, pairs, rng)
    objective = power_control.Objective(objective)
    users = len(scn.dims.users())

    def random_anchor():
        return scn.p_max * 10.0 ** rng.uniform(-6.0, 0.0, users)

    def close(got, want):
        return np.all(np.abs(np.asarray(got) - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    problem = power_control._JointGP(scn, objective, Processing.ZF, random_anchor())
    for _ in range(3):
        anchor = random_anchor()
        got, got_start = problem.program(anchor)
        fresh = power_control._JointGP(scn, objective, Processing.ZF, anchor)
        assert fresh.residuals.shape.exp.size == problem.residuals.shape.exp.size
        want, want_start = fresh.program()
        for g, w in ((got.objective, want.objective), (got.constraints, want.constraints)):
            assert g.names == w.names
            (g_ptr, *g_arrays), (w_ptr, *w_arrays) = _dense_factors(g), _dense_factors(w)
            assert np.array_equal(g_ptr, w_ptr)
            assert all(close(a, b) for a, b in zip(g_arrays, w_arrays))
        assert got.bounds.keys() == want.bounds.keys() and got_start.keys() == want_start.keys()
        for name, bounds in want.bounds.items():
            assert close(got.bounds[name], bounds), name
            assert close(got_start[name], want_start[name]), name


@hyp_settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 4), cols=st.integers(1, 5))
def test_condensed_rows_match_monomial_lower_bound(seed, rows, cols):
    """The condensation of pilot-sum rows built as arrays, 1 + sum_j c_j x_j
    over a random subset of columns, equals monomial_lower_bound of the same
    posynomial at a random positive point: coefficient and exponents."""
    rng = np.random.default_rng(seed)
    width = cols + 2
    names = [f"x{j}" for j in range(width)]
    coeffs = 10.0 ** rng.uniform(-3.0, 3.0, (rows, cols))
    keep = rng.uniform(size=(rows, cols)) < 0.7
    at = 1 + rng.permutation(width - 1)[:cols]  # column 0 is never read
    x0 = 10.0 ** rng.uniform(-3.0, 3.0, width)
    bound = power_control._rows(coeffs, keep, [at]).condensed(np.log(x0))
    log_coeff, exps = bound.log_coeff, np.zeros((rows, width))
    np.add.at(exps, (bound.term, bound.col), bound.exp)
    for r in range(rows):
        posy = Posynomial([Monomial(1.0)] + [Monomial(coeffs[r, j], {names[at[j]]: 1.0})
                                             for j in range(cols) if keep[r, j]])
        want = monomial_lower_bound(posy, dict(zip(names, x0)))
        assert math.exp(log_coeff[r]) == pytest.approx(want.coeff, rel=1e-12)
        assert {names[j] for j in np.flatnonzero(exps[r])} == set(want.exponents)
        for name, e in want.exponents.items():
            assert exps[r, names.index(name)] == pytest.approx(e, rel=1e-12), name


def test_affine_rows_match_closed_forms(small_scenario, rng):
    """g_i p_i / (1 + a_i . p) from the summed model is every user's
    closed-form SINR (the per-user oracle), with and without D2D pairs."""
    for scn in (small_scenario, cellular_only_view(small_scenario)):
        alloc = _random_alloc(scn, rng)
        stacked = np.concatenate([alloc.data_cu.ravel(), alloc.data_d2d])
        for processing in (Processing.MR, Processing.ZF):
            g, a = _summed_model(scn, processing, alloc)
            got = g * stacked / (1.0 + a @ stacked)
            for (kind, b, idx), sinr in zip(scn.dims.users(), got):
                if kind == "cu":
                    fn = closed_forms.cu_sinr_mr(b, idx, scn.gains, alloc, scn.dims) \
                        if processing is Processing.MR \
                        else closed_forms.cu_sinr_zf(b, idx, scn.gains, alloc, scn.pilots,
                                                     scn.dims)
                else:
                    fn = closed_forms.d2d_sinr_approx(idx, scn.gains, alloc, scn.pilots,
                                                      scn.dims)
                assert sinr == pytest.approx(fn.sinr, rel=1e-9)


# --- successive approximation for joint ZF ------------------------------------------

def test_zf_tilde_bound_touch_and_tangency(rng):
    scn = _mirror_two_cell_single_user(seed=6, m=16)
    expansion = full_power_allocation(scn.dims, scn.p_max)
    expansion.data_cu *= 0.9
    expansion.data_d2d *= 0.7
    expansion.pilot_cu *= 0.6
    expansion.pilot_d2d *= 0.8
    point0 = _alloc_to_point(scn, expansion)
    data_names = power_control._stacked_names(scn)
    pilot_names = power_control._stacked_names(scn, pilot=True)
    pilot_point = {name: point0[name] for name in pilot_names}

    model = power_control._joint_sinr_model(scn, Processing.ZF,
                                            pilot_point=[pilot_point[n] for n in pilot_names])
    for b in range(2):
        user = scn.dims.users().index(("cu", b, 0))

        def tilde(point):  # the lifted model, every auxiliary at its factor's value
            nums, dens = model_values(model, point)
            return nums[user] / dens[user]

        true0 = cu_sinr_zf(b, 0, scn.gains, expansion, scn.pilots, scn.dims).sinr
        assert tilde(point0) == pytest.approx(true0, rel=1e-9)  # touching

        for _ in range(60):  # global lower bound on random positive probes
            cand = _random_alloc(scn, rng)
            point = _alloc_to_point(scn, cand)
            true = cu_sinr_zf(b, 0, scn.gains, cand, scn.pilots, scn.dims).sinr
            assert tilde(point) <= true * (1 + 1e-9)

        for var in point0:  # tangency via central differences
            h = 1e-5 * point0[var]
            up = dict(point0, **{var: point0[var] + h})
            dn = dict(point0, **{var: point0[var] - h})

            def true_at(point):
                cand = PowerAllocation.from_stacked(
                    scn.dims, np.array([point[name] for name in data_names]),
                    np.array([point[name] for name in pilot_names]), scn.p_max)
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
    for user, level in diag.targets.items():
        assert report.breakdowns[user].sinr >= level * (1 - 1e-6)

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


@pytest.mark.parametrize("objective", ["maxmin", "maxprod"])
def test_zf_joint_starts_inside_without_phase_one(small_scenario, monkeypatch, objective):
    """Every Algorithm 2 GP starts from the same cold start, strictly
    interior at each new anchor, so gp_solve accepts every start."""
    calls = _spy_gp_starts(monkeypatch)
    _, _, diag = zf_joint_successive(small_scenario, objective)
    assert diag.status == "converged"
    assert diag.iterations >= 2
    assert len(calls) == diag.iterations
    for gp, initial in calls:
        _assert_strictly_interior(gp, initial)


def test_zf_joint_maxmin_at_reference_scale(reference_drops, monkeypatch):
    """Algorithm 2 on a reference-config drop: every GP starts strictly
    inside, it converges, its true objective never falls, and every
    certified level holds under the closed-form SINRs."""
    calls = _spy_gp_starts(monkeypatch)
    scn = reference_drops[0]
    alloc, value, diag = zf_joint_successive(scn, "maxmin")
    assert len(calls) == diag.iterations
    for gp, initial in calls:
        _assert_strictly_interior(gp, initial)
    assert diag.status == "converged"
    assert diag.iterations <= 5
    trace = diag.objective_trace
    assert all(t2 >= t1 - 1e-9 for t1, t2 in zip(trace, trace[1:]))
    assert value == trace[-1]
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "zf")
    for user, level in diag.targets.items():
        assert report.breakdowns[user].sinr >= level * (1 - 1e-6), user


# The 4-cell config on which the benchmark runs Algorithm 2.
ZF_JOINT_CFG = ScenarioConfig(num_cells=4, antennas_per_bs=64, cus_per_cell=1,
                              num_d2d_pairs=4, num_d2d_pilots=4, area_side=2000.0 / 3.0)


@pytest.mark.parametrize("seed, drop", [(0, 41), (3, 57), (19, 56)])
def test_zf_joint_maxmin_converges_on_non_unique_optimal_face(seed, drop):
    """On these drops the max-min optimal face is not unique: allocations
    whose true levels agree to about 1e-9 differ in their pilots by more
    than 0.001 p_max. A GP warm-started at the previous optimum lands on a
    different point of the face each iteration, and a stop on the pilots'
    move can let Algorithm 2 cycle to its cap; the stop on the true
    objective's rise ends it."""
    scn = Scenario.build(ZF_JOINT_CFG, seed=drop_seed(seed, drop))
    _, _, diag = zf_joint_successive(scn, "maxmin")
    assert diag.status == "converged"
    assert diag.iterations <= 5


def _gp_result(scn, alloc, level):
    """What _solve_gp_problem returns for a GP whose solution is alloc and
    whose every user's level is level."""
    stacked = (alloc.stacked_data(), alloc.stacked_pilots())
    values = {name: p for pilot, powers in zip((False, True), stacked)
              for name, p in zip(power_control._stacked_names(scn, pilot), powers)}
    return (SimpleNamespace(values=values, status="optimal"),
            dict.fromkeys(scn.dims.users(), level))


def test_zf_joint_stops_at_the_fixed_point_of_a_two_cycle(small_scenario, monkeypatch):
    """GPs that alternate between two solutions force a 2-cycle that the
    pilot-move rule never ends. Algorithm 2 stops as "converged" at the
    first GP that does not raise the true objective, its trace never falls,
    and it returns the best iterate's allocation, value and targets."""
    scn = small_scenario
    best, _, _ = zf_joint_successive(scn, "maxprod")
    full = full_power_allocation(scn.dims, scn.p_max)
    names = ("data_cu", "data_d2d", "pilot_cu", "pilot_d2d")
    # every power at the geometric mean of the optimum's and full power
    worse = PowerAllocation(*(np.sqrt(getattr(best, n) * getattr(full, n)) for n in names),
                            scn.p_max)

    cycle = itertools.cycle([_gp_result(scn, worse, 1.0), _gp_result(scn, best, 2.0)])
    monkeypatch.setattr(power_control, "_solve_gp_problem", lambda *args: next(cycle))
    alloc, value, diag = zf_joint_successive(scn, "maxprod")

    want = [power_control._true_objective(scn, a, power_control.Objective.MAXPROD)
            for a in (full, worse, best)]
    assert want[0] <= want[1] < want[2]  # the cycle rises once, then falls
    assert diag.status == "converged"
    assert diag.iterations == 3
    assert "did not rise" in diag.notes[-1]
    assert diag.objective_trace == want
    assert value == want[2]
    for name in names:
        assert np.array_equal(getattr(alloc, name), getattr(best, name)), name
    assert set(diag.targets.values()) == {2.0}


def test_zf_joint_stop_reads_the_objective_not_the_pilots(small_scenario, monkeypatch):
    """GPs that alternate between half and quarter power move every pilot
    by p_max / 4, while the true objective rises by 1e-7 relative per
    evaluation. Algorithm 2 stops as "converged" at iteration 2, the first
    whose rise is within SCA_TOL, and returns iterate 2 with its targets."""
    scn = small_scenario
    full = full_power_allocation(scn.dims, scn.p_max)
    half, quarter = (PowerAllocation(full.data_cu * share, full.data_d2d * share,
                                     full.pilot_cu * share, full.pilot_d2d * share, scn.p_max)
                     for share in (0.5, 0.25))
    cycle = itertools.cycle([_gp_result(scn, half, 1.0), _gp_result(scn, quarter, 2.0)])
    monkeypatch.setattr(power_control, "_solve_gp_problem", lambda *args: next(cycle))
    rising = ((1.0 + 1e-7) ** n for n in itertools.count())
    monkeypatch.setattr(power_control, "_true_objective", lambda *args: next(rising))
    alloc, value, diag = zf_joint_successive(scn, "maxmin")

    assert diag.status == "converged"
    assert diag.iterations == 2
    assert "did not rise" not in diag.notes[-1]
    assert diag.objective_trace == [1.0, 1.0 + 1e-7, (1.0 + 1e-7) ** 2]
    assert value == diag.objective_trace[-1]
    assert np.array_equal(alloc.stacked_pilots(), quarter.stacked_pilots())
    assert np.array_equal(alloc.stacked_data(), quarter.stacked_data())
    assert set(diag.targets.values()) == {2.0}


# Newton steps of the joint-MR GPs on drop_seed(0, 0) and drop_seed(0, 1)
# when an infeasible step was halved instead of stopped short of the boundary.
HALVING_JOINT_MR_STEPS = {"maxmin": (51, 67), "maxprod": (40, 41)}


@pytest.mark.parametrize("objective", sorted(HALVING_JOINT_MR_STEPS))
def test_joint_mr_takes_fewer_newton_steps(reference_drops, monkeypatch, objective):
    """The boundary step saves at least a fifth of the joint-MR GPs' Newton
    steps, on each of the first two reference drops."""
    solutions = _spy_gp_solutions(monkeypatch)
    solve = maxmin_joint_mr if objective == "maxmin" else maxprod_joint_mr
    for drop, halving_steps in enumerate(HALVING_JOINT_MR_STEPS[objective]):
        solutions.clear()
        solve(reference_drops[drop])
        (solution,) = solutions
        assert solution.newton_iterations <= 0.8 * halving_steps, drop


# Newton steps of each joint solve on drop_seed(0, 0) and drop_seed(0, 1) at
# the reference config, summed over Algorithm 2's GPs, with the objective and
# the constraints as two stacks and the centering factor switched to 1 after
# a step shorter than 0.5.
TWO_STACK_JOINT_STEPS = {"mr-maxmin-joint": (38, 44), "mr-maxprod-joint": (27, 26),
                         "zf-maxmin-joint": (215, 246), "zf-maxprod-joint": (88, 70)}


@pytest.mark.parametrize("pid", sorted(TWO_STACK_JOINT_STEPS))
def test_joint_solves_take_a_tenth_fewer_newton_steps(reference_drops, monkeypatch, pid):
    """The centering factor that follows the last step length saves at
    least a tenth of every joint problem's Newton steps on each of the first
    two reference drops."""
    solutions = _spy_gp_solutions(monkeypatch)
    proc, objective, _ = pid.split("-")
    for drop, two_stack_steps in enumerate(TWO_STACK_JOINT_STEPS[pid]):
        solutions.clear()
        solve_problem(reference_drops[drop], ControlProblemSpec(objective, "joint", proc))
        assert sum(s.newton_iterations for s in solutions) <= 0.9 * two_stack_steps, drop


# The eight joint problems' values on the first two drops of master seed 0,
# MR at the reference config and ZF at ZF_JOINT_CFG. The MR values are the
# ones perfbench/reference.json records. The ZF values are Algorithm 2's
# under its stop on the objective's rise; they lie within 1e-6 relative of
# the benchmark's, which holds Algorithm 2 to 1e-3.
JOINT_REFERENCE = {
    0: {"mr-maxmin-joint": 2.7974458357739147, "mr-maxprod-joint": 146.9041626957679,
        "zf-maxmin-joint": 2.8858952206489765, "zf-maxprod-joint": 34.88223736875815},
    1: {"mr-maxmin-joint": 2.4514378727377024, "mr-maxprod-joint": 142.6792860985511,
        "zf-maxmin-joint": 3.9062269813530026, "zf-maxprod-joint": 36.31883773414729},
}


@pytest.mark.parametrize("drop", sorted(JOINT_REFERENCE))
def test_joint_solves_match_reference_values(reference_drops, monkeypatch, drop):
    """Every joint solve certifies each of its GPs and returns the recorded
    value to 1e-9 relative."""
    solutions = _spy_gp_solutions(monkeypatch)
    zf_scn = Scenario.build(ZF_JOINT_CFG, seed=drop_seed(0, drop))
    for pid, want in JOINT_REFERENCE[drop].items():
        proc, objective, _ = pid.split("-")
        scn = reference_drops[drop] if proc == "mr" else zf_scn
        solutions.clear()
        _, value, diag = solve_problem(scn, ControlProblemSpec(objective, "joint", proc))
        assert diag.status == ("optimal" if proc == "mr" else "converged"), pid
        assert {s.status for s in solutions} == {"optimal"}, pid
        assert value == pytest.approx(want, rel=1e-9), pid


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
    pilots = PilotAllocation(sets, new_map)
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
    # a spec carries no solver settings, so the record claims none
    assert "tolerances" not in json.loads(text)["problem"]
    spec2, alloc2, value2, status = solve_from_json(text)
    assert spec2.problem_id == spec.problem_id
    assert value2 == pytest.approx(value)
    assert status == diag.status
    assert np.allclose(alloc2.data_cu, alloc.data_cu)
    assert np.allclose(alloc2.pilot_d2d, alloc.pilot_d2d)
