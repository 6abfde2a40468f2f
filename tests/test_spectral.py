import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from mimo_d2d import (ScenarioConfig, Scenario, SystemDimensions, LargeScaleGains,
                      PilotAllocation, PowerAllocation, full_power_allocation,
                      cu_sinr_mr, cu_sinr_zf, d2d_se_exact,
                      se_from_sinr, evaluate_network, oracle_uatf_mr, oracle_zf,
                      sinr_terms, wishart_inverse_diagonal_mean)
from mimo_d2d.harness import cellular_only_view
from mimo_d2d.power_control import Processing
from mimo_d2d.scenario import ScenarioError

import closed_forms
from montecarlo import d2d_rate_samples, d2d_se_quad


def _d2d_breakdown(l, gains, alloc, pilots, dims):
    """D2D pair l's closed-form breakdown as evaluate_network reports it."""
    return evaluate_network(dims, gains, pilots, alloc, "mr").breakdowns[("d2d", -1, l)]


def _single_user_setup(m=32, tau_c=200, beta=0.8):
    dims = SystemDimensions(1, m, 1, 0, 1, tau_c)
    gains = LargeScaleGains(np.array([[[beta]]]), np.zeros((1, 0)),
                            np.zeros((0, 1, 1)), np.zeros((0, 0)))
    pilots = PilotAllocation(np.arange(1), [[]], np.zeros(0, dtype=int))
    return dims, gains, pilots


def test_se_from_sinr_values(small_scenario):
    dims = SystemDimensions(1, 8, 5, 5, 5, 200)
    assert dims.pilot_len == 10
    assert se_from_sinr(0.0, dims) == 0.0
    assert se_from_sinr(1.0, dims) == pytest.approx(0.95)
    assert se_from_sinr(3.0, dims) == pytest.approx(1.9)
    with pytest.raises(ValueError):
        se_from_sinr(-0.1, dims)


def test_mr_zero_power_and_single_user_collapse():
    dims, gains, pilots = _single_user_setup()
    tau, m, beta = dims.pilot_len, dims.antennas_per_bs, 0.8
    p, pp = 120.0, 180.0
    alloc = PowerAllocation(np.array([[p]]), np.zeros(0), np.array([[pp]]),
                            np.zeros(0), 200.0)
    bd = cu_sinr_mr(0, 0, gains, alloc, dims)
    expected = m * tau * p * pp * beta**2 / ((1 + tau * pp * beta) * (1 + p * beta))
    assert bd.sinr == pytest.approx(expected, rel=1e-12)

    alloc0 = PowerAllocation(np.array([[0.0]]), np.zeros(0), np.array([[pp]]),
                             np.zeros(0), 200.0)
    bd0 = cu_sinr_mr(0, 0, gains, alloc0, dims)
    assert bd0.sinr == 0.0 and bd0.se == 0.0


def test_mr_closed_form_matches_link_level_oracle(small_scenario, rng):
    scn = small_scenario
    alloc = full_power_allocation(scn.dims, scn.p_max)
    alloc.data_cu = alloc.data_cu * np.array([[0.8, 0.5], [0.9, 0.3]])
    alloc.data_d2d = alloc.data_d2d * np.array([0.6, 1.0])
    for (b, k) in [(0, 0), (1, 1)]:
        closed = cu_sinr_mr(b, k, scn.gains, alloc, scn.dims)
        emp = oracle_uatf_mr(scn.dims, scn.gains, scn.pilots, alloc, b, k,
                             num_realizations=30_000, rng=rng)
        assert emp.sinr == pytest.approx(closed.sinr, rel=0.03)
        assert emp.num_realizations == 30_000
        assert emp.stderr["numerator"] < emp.numerator * 0.05


def test_zf_preconditions_and_limits():
    dims = SystemDimensions(2, 5, 3, 2, 2, 200)
    with pytest.raises(ScenarioError):
        dims.require_zf()

    # single cell, huge pilot SNR: residual interference vanishes and the
    # SINR approaches dof * p * beta
    dims, gains, pilots = _single_user_setup(m=16)
    beta = 0.8
    pp = 1e8 / dims.pilot_len / beta
    alloc = PowerAllocation(np.array([[1.0]]), np.zeros(0), np.array([[pp]]),
                            np.zeros(0), pp)
    bd = cu_sinr_zf(0, 0, gains, alloc, pilots, dims)
    dof = dims.zf_dof
    assert bd.sinr / (dof * 1.0 * beta) == pytest.approx(1.0, rel=1e-3)

    alloc0 = PowerAllocation(np.array([[0.0]]), np.zeros(0), np.array([[pp]]),
                             np.zeros(0), pp)
    assert cu_sinr_zf(0, 0, gains, alloc0, pilots, dims).sinr == 0.0


def test_zf_closed_form_matches_link_level_oracle(rng):
    cfg = ScenarioConfig(num_cells=2, antennas_per_bs=16, cus_per_cell=2,
                         num_d2d_pairs=2, num_d2d_pilots=1, coherence_len=200,
                         area_side=600.0)
    scn = Scenario.build(cfg, seed=42)
    alloc = full_power_allocation(scn.dims, scn.p_max)
    alloc.data_cu = alloc.data_cu * np.array([[0.7, 1.0], [0.4, 0.9]])
    alloc.data_d2d = alloc.data_d2d * np.array([1.0, 0.5])
    for (b, k) in [(0, 0), (1, 1)]:
        closed = cu_sinr_zf(b, k, scn.gains, alloc, scn.pilots, scn.dims)
        emp = oracle_zf(scn.dims, scn.gains, scn.pilots, alloc, b, k,
                        num_realizations=30_000, rng=rng)
        assert emp.sinr == pytest.approx(closed.sinr, rel=0.04)


def test_oracle_dimension_guard():
    cfg = ScenarioConfig()  # M=200, B*K+L = 55 -> 11000 > guard
    scn = Scenario.build(cfg, seed=0)
    alloc = full_power_allocation(scn.dims, scn.p_max)
    with pytest.raises(ValueError):
        oracle_uatf_mr(scn.dims, scn.gains, scn.pilots, alloc, 0, 0,
                       num_realizations=10)


def test_oracle_zero_powers(small_scenario, rng):
    scn = small_scenario
    b, k, l = scn.dims.num_cells, scn.dims.cus_per_cell, scn.dims.num_d2d_pairs
    alloc = PowerAllocation(np.zeros((b, k)), np.zeros(l),
                            np.full((b, k), scn.p_max), np.full(l, scn.p_max),
                            scn.p_max)
    emp = oracle_uatf_mr(scn.dims, scn.gains, scn.pilots, alloc, 0, 0,
                         num_realizations=2000, rng=rng)
    assert emp.sinr == 0.0


def _d2d_sinr_expanded(l, gains, alloc, pilots, dims):
    """Fully expanded form of the approximate D2D SINR: the estimate
    quality multiplied out over its pilot-set denominator (oracle)."""
    tau = dims.pilot_len
    beta_row = gains.beta_d2dtx_d2drx[l]
    pd, ppd = alloc.data_d2d, alloc.pilot_d2d
    group = pilots.set_of(l)
    t_own = sum(tau * ppd[j] * beta_row[j] for j in group)
    s_int = float(np.sum(alloc.data_cu * gains.beta_cu_d2drx[l])) \
        + float(pd @ beta_row - pd[l] * beta_row[l])
    tail = pd[l] * beta_row[l] * (1.0 + sum(tau * ppd[j] * beta_row[j]
                                            for j in group if j != l))
    den = (1.0 + t_own) * (1.0 + s_int) + tail
    return tau * pd[l] * ppd[l] * beta_row[l] ** 2 / den


def test_d2d_approx_trivial_and_cross_form(small_scenario):
    scn = small_scenario
    alloc = full_power_allocation(scn.dims, scn.p_max)
    alloc.data_d2d = np.array([0.0, 150.0])
    bd = _d2d_breakdown(0, scn.gains, alloc, scn.pilots, scn.dims)
    assert bd.sinr == 0.0 and bd.se == 0.0

    rng = np.random.default_rng(0)
    for _ in range(25):
        alloc2 = full_power_allocation(scn.dims, scn.p_max)
        alloc2.data_cu = alloc2.data_cu * rng.uniform(0.01, 1.0, alloc2.data_cu.shape)
        alloc2.data_d2d = alloc2.data_d2d * rng.uniform(0.01, 1.0, alloc2.data_d2d.shape)
        alloc2.pilot_d2d = alloc2.pilot_d2d * rng.uniform(0.01, 1.0, alloc2.pilot_d2d.shape)
        for l in range(scn.dims.num_d2d_pairs):
            mid = _d2d_breakdown(l, scn.gains, alloc2, scn.pilots, scn.dims)
            expanded = _d2d_sinr_expanded(l, scn.gains, alloc2, scn.pilots, scn.dims)
            assert expanded == pytest.approx(mid.sinr, rel=1e-9)


def test_d2d_interference_free_limit():
    # one pair, no CUs transmitting, estimate quality driven to beta
    cfg = ScenarioConfig(num_cells=1, antennas_per_bs=16, cus_per_cell=1,
                         num_d2d_pairs=1, num_d2d_pilots=1, coherence_len=2000,
                         area_side=400.0, p_max_mw=2e9)
    scn = Scenario.build(cfg, seed=0)
    beta = scn.gains.beta_d2dtx_d2drx[0, 0]
    pp = 1e9 / scn.dims.pilot_len / beta
    pd = 3.0 / beta
    alloc = PowerAllocation(np.zeros((1, 1)), np.array([pd]),
                            np.zeros((1, 1)), np.array([pp]), 2e9)
    bd = _d2d_breakdown(0, scn.gains, alloc, scn.pilots, scn.dims)
    assert bd.sinr == pytest.approx(pd * beta, rel=1e-3)


def test_d2d_exact_zero_power_and_quadrature_oracle():
    cfg = ScenarioConfig(num_cells=1, antennas_per_bs=16, cus_per_cell=1,
                         num_d2d_pairs=1, num_d2d_pilots=1, coherence_len=2000,
                         area_side=400.0, p_max_mw=2e9)
    scn = Scenario.build(cfg, seed=1)
    beta = scn.gains.beta_d2dtx_d2drx[0, 0]
    pp = 1e9 / scn.dims.pilot_len / beta  # gamma ~= beta
    pd = 5.0 / beta
    alloc = PowerAllocation(np.zeros((1, 1)), np.array([0.0]),
                            np.zeros((1, 1)), np.array([pp]), 2e9)
    assert d2d_se_exact(scn.gains, alloc, scn.pilots, scn.dims)[0] == 0.0

    alloc.data_d2d = np.array([pd])
    got = d2d_se_exact(scn.gains, alloc, scn.pilots, scn.dims)[0]
    # independent oracle: E[log2(1 + pd*beta*T)], T ~ Exp(1), by quadrature
    snr = pd * beta
    val, _ = integrate.quad(lambda t: np.log2(1.0 + snr * t) * np.exp(-t), 0, np.inf)
    expected = scn.dims.prelog * val
    assert got == pytest.approx(expected, rel=0.005)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_d2d_exact_matches_quadrature_and_monte_carlo_oracles(data, seed):
    """On small drops with shared D2D pilots (N < L) and log-uniform powers,
    the fixed-node quadrature matches adaptive quadrature of the same Hamdi
    integrand, lies within 5 standard errors of a 200k-sample Monte-Carlo
    estimate, and is exactly 0 for a pair without data or pilot power."""
    num_pairs = data.draw(st.integers(2, 4))
    cfg = ScenarioConfig(num_cells=data.draw(st.integers(1, 2)), antennas_per_bs=8,
                         cus_per_cell=data.draw(st.integers(1, 2)),
                         num_d2d_pairs=num_pairs,
                         num_d2d_pilots=data.draw(st.integers(1, num_pairs - 1)),
                         coherence_len=100, area_side=400.0)
    scn = Scenario.build(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    cu_shape = (scn.dims.num_cells, scn.dims.cus_per_cell)
    data_cu, pilot_cu, data_d2d, pilot_d2d = (
        np.exp(rng.uniform(np.log(1e-3), np.log(scn.p_max), shape))
        for shape in (cu_shape, cu_shape, num_pairs, num_pairs))
    alloc = PowerAllocation(data_cu, data_d2d, pilot_cu, pilot_d2d, scn.p_max)

    got = d2d_se_exact(scn.gains, alloc, scn.pilots, scn.dims)
    assert got.shape == (num_pairs,)
    for l in range(num_pairs):
        assert got[l] == pytest.approx(
            d2d_se_quad(l, scn.gains, alloc, scn.pilots, scn.dims), rel=1e-8)
        rates = d2d_rate_samples(l, scn.gains, alloc, scn.pilots, scn.dims,
                                 200_000, rng)
        assert abs(got[l] - rates.mean()) <= 5 * rates.std(ddof=1) / np.sqrt(rates.size)

    silent = alloc.copy()
    off = data.draw(st.integers(0, num_pairs - 1))
    getattr(silent, data.draw(st.sampled_from(["data_d2d", "pilot_d2d"])))[off] = 0.0
    assert d2d_se_exact(scn.gains, silent, scn.pilots, scn.dims)[off] == 0.0


def test_d2d_exact_without_d2d_pairs(small_scenario):
    view = cellular_only_view(small_scenario)
    alloc = full_power_allocation(view.dims, view.p_max)
    assert d2d_se_exact(view.gains, alloc, view.pilots, view.dims).shape == (0,)
    report = evaluate_network(view.dims, view.gains, view.pilots, alloc, "mr",
                              exact_d2d=True)
    assert report.d2d_se_exact.shape == (0,)
    assert [row["user_type"] for row in report.rows()] == ["cu"] * 4


def test_mr_contamination_term_scales_with_antennas(small_scenario):
    scn = small_scenario
    alloc = full_power_allocation(scn.dims, scn.p_max)
    bd1 = cu_sinr_mr(0, 0, scn.gains, alloc, scn.dims)
    dims2 = SystemDimensions(scn.dims.num_cells, scn.dims.antennas_per_bs * 2,
                             scn.dims.cus_per_cell, scn.dims.num_d2d_pairs,
                             scn.dims.num_d2d_pilots, scn.dims.coherence_len)
    bd2 = cu_sinr_mr(0, 0, scn.gains, alloc, dims2)
    ratio = (bd2.denominator_terms["coherent_contamination"]
             / bd1.denominator_terms["coherent_contamination"])
    assert ratio == pytest.approx(2.0, rel=1e-12)


def test_sinr_monotone_in_powers(small_scenario):
    scn = small_scenario
    base = full_power_allocation(scn.dims, scn.p_max)
    base.data_cu = base.data_cu * 0.5
    base.data_d2d = base.data_d2d * 0.5
    ref_mr = cu_sinr_mr(0, 0, scn.gains, base, scn.dims).sinr
    ref_d2d = _d2d_breakdown(0, scn.gains, base, scn.pilots, scn.dims).sinr

    up_own = base.copy()
    up_own.data_cu[0, 0] *= 1.3
    assert cu_sinr_mr(0, 0, scn.gains, up_own, scn.dims).sinr >= ref_mr

    up_other = base.copy()
    up_other.data_cu[1, 1] *= 1.3
    assert cu_sinr_mr(0, 0, scn.gains, up_other, scn.dims).sinr <= ref_mr
    up_d = base.copy()
    up_d.data_d2d[1] *= 1.4
    assert _d2d_breakdown(0, scn.gains, up_d, scn.pilots, scn.dims).sinr <= ref_d2d


def test_wishart_identity(rng):
    got = wishart_inverse_diagonal_mean(32, 10, num_samples=10_000, rng=rng)
    assert got == pytest.approx(1.0 / 22.0, rel=0.02)


def test_report_shapes_prelog_and_serialization(small_scenario):
    scn = small_scenario
    alloc = full_power_allocation(scn.dims, scn.p_max)
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "zf",
                              exact_d2d=True)
    assert report.cu_se.shape == (2, 2) and report.d2d_se_approx.shape == (2,)
    assert report.d2d_se_exact.shape == (2,)
    # every user shares the prelog: recover it from each breakdown
    prelogs = {round(bd.se / np.log2(1.0 + bd.sinr), 12)
               for bd in report.breakdowns.values() if bd.sinr > 0}
    assert prelogs == {round(scn.dims.prelog, 12)}
    rows = list(report.rows())
    assert len(rows) == 6
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0].startswith("user_type,cell,index,sinr,se")
    import json
    parsed = json.loads(report.to_json())
    assert parsed["processing"] == "zf" and len(parsed["users"]) == 6


def test_breakdown_terms_sum_to_sinr(small_scenario):
    scn = small_scenario
    alloc = full_power_allocation(scn.dims, scn.p_max)
    for proc in ("mr", "zf"):
        report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, proc)
        for bd in report.breakdowns.values():
            total = sum(bd.denominator_terms.values())
            assert bd.sinr == pytest.approx(bd.numerator / total, rel=1e-12)
            assert all(v >= 0 for v in bd.denominator_terms.values())


@settings(max_examples=120, deadline=None)
@given(data=st.data(), cells=st.integers(1, 3), cus=st.integers(1, 3),
       pairs=st.integers(0, 4), spare=st.integers(1, 40),
       processing=st.sampled_from(["mr", "zf"]), seed=st.integers(0, 2 ** 32 - 1))
def test_sinr_model_matches_per_user_oracle(data, cells, cus, pairs, spare, processing,
                                            seed):
    """The array model against the per-user closed forms of closed_forms.py:
    every SINR and SE to 1e-12, each named term to 1e-12 of its user's
    denominator, the same breakdown keys in the same order, and the summed
    coupling equal to the directly built (g, a)."""
    d2d_pilots = data.draw(st.integers(1, max(pairs, 1)))
    cfg = ScenarioConfig(num_cells=cells, antennas_per_bs=cus + d2d_pilots + spare,
                         cus_per_cell=cus, num_d2d_pairs=pairs,
                         num_d2d_pilots=d2d_pilots, area_side=600.0)
    scn = Scenario.build(cfg, seed=seed % 2 ** 16)
    rng = np.random.default_rng(seed)

    def powers(shape):  # log-uniform in [1e-3, 1] * p_max, some exactly zero
        p = scn.p_max * 10.0 ** rng.uniform(-3.0, 0.0, shape)
        return np.where(rng.uniform(size=shape) < 0.15, 0.0, p)

    shape = (cells, cus)
    alloc = PowerAllocation(powers(shape), powers(pairs), powers(shape), powers(pairs),
                            scn.p_max)
    dims, gains, pilots = scn.dims, scn.gains, scn.pilots

    report = evaluate_network(dims, gains, pilots, alloc, processing)
    want = closed_forms.evaluate_breakdowns(dims, gains, pilots, alloc, processing)
    assert list(report.breakdowns) == list(want)
    for i, (user, bd) in enumerate(report.breakdowns.items()):
        ref = want[user]
        assert list(bd.denominator_terms) == list(ref.denominator_terms)
        assert abs(bd.sinr - ref.sinr) <= 1e-12 * ref.sinr, user
        assert abs(bd.se - ref.se) <= 1e-12 * ref.se, user
        assert report.sinr[i] == bd.sinr
        total = sum(ref.denominator_terms.values())
        for name, value in ref.denominator_terms.items():
            assert abs(bd.denominator_terms[name] - value) <= 1e-12 * total, (user, name)

    g, terms = sinr_terms(dims, gains, pilots, alloc, processing)
    g_want, a_want = closed_forms.fixed_pilot_model(scn, Processing(processing), alloc)
    n = cells * cus + pairs
    assert g.shape == (n,) and terms.shape == (5, n, n)
    assert np.array_equal(g, g_want)
    assert np.array_equal(terms.sum(axis=0), a_want)
