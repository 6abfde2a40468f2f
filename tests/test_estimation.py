import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimo_d2d import (ScenarioConfig, Scenario, PowerAllocation,
                      compute_gamma_bs, compute_gamma_d2drx, full_power_allocation,
                      empirical_gamma)
from mimo_d2d.estimation import gamma_cu_bs_full

import closed_forms


def _zero_alloc(dims, p_max=200.0):
    b, k, l = dims.num_cells, dims.cus_per_cell, dims.num_d2d_pairs
    return PowerAllocation(np.zeros((b, k)), np.zeros(l),
                           np.zeros((b, k)), np.zeros(l), p_max)


def test_zero_pilot_powers_give_zero_gamma(small_scenario):
    scn = small_scenario
    alloc = _zero_alloc(scn.dims)
    bs = compute_gamma_bs(scn.gains, alloc, scn.pilots, scn.dims)
    rx = compute_gamma_d2drx(scn.gains, alloc, scn.pilots, scn.dims)
    assert np.all(bs.gamma_cu_bs == 0) and np.all(bs.gamma_set_bs == 0)
    assert np.all(bs.gamma_d2d_bs == 0)
    assert np.all(rx.gamma_cu_d2drx == 0) and np.all(rx.gamma_d2d_d2drx == 0)


def test_single_cell_asymptote():
    # lone CU with tau * p * beta = 1e6: estimate quality approaches beta
    from mimo_d2d import SystemDimensions, LargeScaleGains, PilotAllocation
    dims = SystemDimensions(1, 8, 1, 0, 1, 200)
    tau = dims.pilot_len
    beta = 1.0
    gains = LargeScaleGains(np.array([[[beta]]]), np.zeros((1, 0)),
                            np.zeros((0, 1, 1)), np.zeros((0, 0)))
    pilots = PilotAllocation([[]], np.zeros(0, dtype=int))
    p = 1e6 / tau / beta
    alloc = PowerAllocation(np.array([[p]]), np.zeros(0),
                            np.array([[p]]), np.zeros(0), p)
    bs = compute_gamma_bs(gains, alloc, pilots, dims)
    assert bs.gamma_cu_bs[0, 0] / beta > 0.999


def test_cu_gamma_matches_fraction_and_monte_carlo(rng):
    # two contaminating cells, one CU pilot: tau=6, beta=(1.0, 0.5), p=200
    tau, betas, power = 6, np.array([1.0, 0.5]), 200.0
    expected = tau * power * betas[0] ** 2 / (1.0 + tau * (power * betas).sum())
    from mimo_d2d import SystemDimensions, LargeScaleGains, PilotAllocation
    dims = SystemDimensions(2, 8, 1, 0, 5, 200)
    assert dims.pilot_len == tau
    gains = LargeScaleGains(
        np.array([[[1.0], [0.5]], [[0.5], [1.0]]]),  # receiving BS 0 sees (1.0, 0.5)
        np.zeros((2, 0)), np.zeros((0, 2, 1)), np.zeros((0, 0)))
    pilots = PilotAllocation([[] for _ in range(5)], np.zeros(0, dtype=int))
    alloc = PowerAllocation(np.full((2, 1), power), np.zeros(0),
                            np.full((2, 1), power), np.zeros(0), power)
    got = compute_gamma_bs(gains, alloc, pilots, dims).gamma_cu_bs[0, 0]
    assert got == pytest.approx(expected, rel=1e-12)
    emp = empirical_gamma(tau, [power, power], betas, target=0,
                          num_realizations=100_000, rng=rng)
    assert emp == pytest.approx(got, rel=0.01)


def test_d2d_gamma_sole_occupant_and_shared(rng):
    scn = Scenario.build(ScenarioConfig(num_cells=1, antennas_per_bs=16,
                                        cus_per_cell=1, num_d2d_pairs=2,
                                        num_d2d_pilots=1, coherence_len=100),
                         seed=2)
    tau = scn.dims.pilot_len
    alloc = full_power_allocation(scn.dims, scn.p_max)
    rx = compute_gamma_d2drx(scn.gains, alloc, scn.pilots, scn.dims)
    # both pairs share the single pilot: closed form with the two-term sum
    beta = scn.gains.beta_d2dtx_d2drx
    for l in range(2):
        den = 1.0 + tau * scn.p_max * (beta[l, 0] + beta[l, 1])
        expected = tau * scn.p_max * beta[l, l] ** 2 / den
        assert rx.gamma_d2d_d2drx[l, l] == pytest.approx(expected, rel=1e-12)
        emp = empirical_gamma(tau, [scn.p_max] * 2, beta[l], target=l,
                              num_realizations=100_000, rng=rng)
        assert emp == pytest.approx(expected, rel=0.01)


def test_combined_set_estimate_matches_monte_carlo(rng):
    # the per-set quality equals the mean square of the MMSE estimate of the
    # plain sum of the co-pilot channels
    tau, power = 7, 150.0
    betas = np.array([2.0, 0.7, 0.1])
    den = 1.0 + tau * power * betas.sum()
    closed = tau * (np.sqrt(power) * betas.sum()) ** 2 / den
    emp = empirical_gamma(tau, [power] * 3, betas, target=None,
                          num_realizations=200_000, rng=rng, combined=True)
    assert emp == pytest.approx(closed, rel=0.01)


def test_scaled_estimate_ratio(small_scenario):
    # per-pair quality relates to the set quality through the pilot weights
    scn = small_scenario
    alloc = full_power_allocation(scn.dims, scn.p_max)
    bs = compute_gamma_bs(scn.gains, alloc, scn.pilots, scn.dims)
    for b in range(scn.dims.num_cells):
        for i, group in enumerate(scn.pilots.d2d_pilot_sets):
            denom = sum(np.sqrt(alloc.pilot_d2d[j]) * scn.gains.beta_d2dtx_bs[b, j]
                        for j in group) ** 2
            for l in group:
                lhs = bs.gamma_d2d_bs[b, l] / bs.gamma_set_bs[b, i]
                rhs = alloc.pilot_d2d[l] * scn.gains.beta_d2dtx_bs[b, l] ** 2 / denom
                assert lhs == pytest.approx(rhs, rel=1e-10)


def test_gamma_bounded_by_beta_and_monotone(small_scenario):
    scn = small_scenario
    alloc = full_power_allocation(scn.dims, scn.p_max)
    bs = compute_gamma_bs(scn.gains, alloc, scn.pilots, scn.dims)
    rx = compute_gamma_d2drx(scn.gains, alloc, scn.pilots, scn.dims)
    full = gamma_cu_bs_full(scn.gains, alloc, scn.dims)
    assert np.all(full <= scn.gains.beta_cu_bs + 1e-15)
    assert np.all(bs.gamma_d2d_bs <= scn.gains.beta_d2dtx_bs + 1e-15)
    assert np.all(rx.gamma_d2d_d2drx <= scn.gains.beta_d2dtx_d2drx + 1e-15)
    assert np.all(rx.gamma_cu_d2drx <= scn.gains.beta_cu_d2drx + 1e-15)

    # own pilot power up -> own quality up; contaminating power up -> down
    bumped = alloc.copy()
    bumped.pilot_cu = alloc.pilot_cu * np.array([[1.5, 1.0], [1.0, 1.0]])
    full_b = gamma_cu_bs_full(scn.gains, bumped, scn.dims)
    assert full_b[0, 0, 0] > full[0, 0, 0]
    assert full_b[1, 1, 0] < full[1, 1, 0]  # cell 1's estimate of its own CU 0 suffers


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cells=st.integers(1, 3), cus=st.integers(1, 3),
       pairs=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_qualities_match_textbook_form(data, cells, cus, pairs, seed):
    """Every EstimationQuality field and gamma_cu_bs_full against the
    per-entry MMSE form of closed_forms.py to 1e-13 relative, with D2D
    pilots shared whenever there are fewer pilots than pairs and some pilot
    powers exactly zero."""
    d2d_pilots = data.draw(st.integers(1, max(pairs, 1)))
    cfg = ScenarioConfig(num_cells=cells, antennas_per_bs=cus + d2d_pilots + 4,
                         cus_per_cell=cus, num_d2d_pairs=pairs,
                         num_d2d_pilots=d2d_pilots, area_side=600.0)
    scn = Scenario.build(cfg, seed=seed % 2 ** 16)
    rng = np.random.default_rng(seed)

    def powers(shape):  # log-uniform in [1e-3, 1] * p_max, some exactly zero
        p = scn.p_max * 10.0 ** rng.uniform(-3.0, 0.0, shape)
        return np.where(rng.uniform(size=shape) < 0.2, 0.0, p)

    shape = (cells, cus)
    alloc = PowerAllocation(powers(shape), powers(pairs), powers(shape), powers(pairs),
                            scn.p_max)
    dims, gains, pilots = scn.dims, scn.gains, scn.pilots
    bs = compute_gamma_bs(gains, alloc, pilots, dims)
    rx = compute_gamma_d2drx(gains, alloc, pilots, dims)
    got = {"full": gamma_cu_bs_full(gains, alloc, dims),
           **{name: getattr(bs, name) for name in ("gamma_cu_bs", "gamma_set_bs",
                                                   "gamma_d2d_bs")},
           **{name: getattr(rx, name) for name in ("gamma_cu_d2drx", "gamma_d2d_d2drx")}}
    want = closed_forms.estimate_qualities(gains, alloc, pilots, dims)
    assert list(got) == list(want)
    for name, w in want.items():
        assert got[name].shape == w.shape, name
        assert np.all(np.abs(got[name] - w) <= 1e-13 * w), name


def test_power_allocation_bounds():
    with pytest.raises(ValueError):
        PowerAllocation(np.array([[300.0]]), np.zeros(0),
                        np.array([[10.0]]), np.zeros(0), p_max=200.0)


def test_quality_serializes(small_scenario):
    scn = small_scenario
    alloc = full_power_allocation(scn.dims, scn.p_max)
    import json
    for q in (compute_gamma_bs(scn.gains, alloc, scn.pilots, scn.dims),
              compute_gamma_d2drx(scn.gains, alloc, scn.pilots, scn.dims)):
        parsed = json.loads(q.to_json())
        assert set(parsed) == {"gamma_cu_bs", "gamma_set_bs", "gamma_d2d_bs",
                               "gamma_cu_d2drx", "gamma_d2d_d2drx"}
