import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimo_d2d import (ScenarioConfig, Scenario, SystemDimensions, PathlossModel,
                      build_scenario, pathloss_db, wrap_distance)
from mimo_d2d.scenario import ScenarioError, DEFAULT_FIXED_LOSS_DB


def test_pathloss_continuous_at_breakpoints():
    model = PathlossModel()
    for d in (model.d0, model.d1):
        below = pathloss_db(d * (1 - 1e-12), model)
        above = pathloss_db(d * (1 + 1e-12), model)
        assert abs(below - above) < 1e-6


def test_pathloss_reference_value():
    # hand evaluation of the documented default at 100 m:
    # -fixed_loss - 35*log10(0.1 km) with fixed_loss = 141.464573004 dB
    assert abs(DEFAULT_FIXED_LOSS_DB - 141.46457300396514) < 1e-9
    got = pathloss_db(100.0, PathlossModel())
    assert abs(got - (-106.46457300396514)) < 1e-9


def test_pathloss_mid_and_near_segments():
    model = PathlossModel()
    # 30 m lies on the 20 dB/decade segment: -L - 15 log10(d1_km) - 20 log10(0.03)
    expect_mid = -DEFAULT_FIXED_LOSS_DB - 15 * math.log10(0.05) - 20 * math.log10(0.03)
    assert abs(pathloss_db(30.0, model) - expect_mid) < 1e-9
    # below d0 the value is flat
    assert pathloss_db(0.5, model) == pytest.approx(pathloss_db(10.0, model), abs=1e-9)


def test_pathloss_rejects_nonpositive_distance():
    with pytest.raises(ScenarioError):
        pathloss_db(0.0, PathlossModel())
    with pytest.raises(ScenarioError):
        pathloss_db(-1.0, PathlossModel())


@given(st.floats(1e-3, 5000.0), st.floats(1.001, 3.0))
@settings(max_examples=50, deadline=None)
def test_pathloss_monotone(d, factor):
    model = PathlossModel()
    assert pathloss_db(d * factor, model) <= pathloss_db(d, model) + 1e-12


def _brute_wrap(p, q, side):
    best = np.inf
    for ix in (-1, 0, 1):
        for iy in (-1, 0, 1):
            shifted = q + np.array([ix * side, iy * side])
            best = min(best, float(np.hypot(*(p - shifted))))
    return best


def test_wrap_distance_trivial():
    assert wrap_distance(np.array([3.0, 4.0]), np.array([3.0, 4.0]), 100.0) == 0.0
    assert wrap_distance(np.array([0.0, 0.0]), np.array([99.0, 0.0]), 100.0) == pytest.approx(1.0)


@given(st.floats(0, 0.999), st.floats(0, 0.999), st.floats(0, 0.999), st.floats(0, 0.999))
@settings(max_examples=100, deadline=None)
def test_wrap_distance_matches_nine_image_search(ax, ay, bx, by):
    side = 250.0
    p = np.array([ax, ay]) * side
    q = np.array([bx, by]) * side
    got = wrap_distance(p, q, side)
    assert got == pytest.approx(_brute_wrap(p, q, side), abs=1e-9)
    assert got == pytest.approx(wrap_distance(q, p, side), abs=1e-12)
    assert got <= float(np.hypot(*(p - q))) + 1e-12


def test_build_scenario_reference_dims():
    cfg = ScenarioConfig()
    dims = cfg.dimensions()
    assert (dims.num_cells, dims.cus_per_cell, dims.num_d2d_pairs,
            dims.num_d2d_pilots) == (9, 5, 10, 5)
    assert dims.pilot_len == 10 and dims.coherence_len == 200
    geom, gains, pilots = build_scenario(cfg, 7)
    assert gains.beta_cu_bs.shape == (9, 9, 5)
    assert gains.beta_d2dtx_bs.shape == (9, 10)
    gains.validate()
    pilots.validate(dims)
    # two-stage allocation: every pilot used, sets partition all pairs
    sizes = sorted(len(s) for s in pilots.d2d_pilot_sets)
    assert sum(sizes) == 10 and sizes[0] >= 1


def test_build_scenario_deterministic():
    cfg = ScenarioConfig()
    _, g1, p1 = build_scenario(cfg, 123)
    _, g2, p2 = build_scenario(cfg, 123)
    for name in ("beta_cu_bs", "beta_d2dtx_bs", "beta_cu_d2drx", "beta_d2dtx_d2drx"):
        assert np.array_equal(getattr(g1, name), getattr(g2, name))
    assert np.array_equal(p1.pair_to_pilot, p2.pair_to_pilot)


def test_single_pair_partition():
    cfg = ScenarioConfig(num_d2d_pairs=1, num_d2d_pilots=1)
    _, _, pilots = build_scenario(cfg, 0)
    assert pilots.d2d_pilot_sets == [[0]]


def test_cu_positions_inside_cells_and_d2d_distance():
    scn = Scenario.build(ScenarioConfig(), seed=5)
    scn.geometry.validate()
    d = wrap_distance(scn.geometry.d2d_tx_positions, scn.geometry.d2d_rx_positions,
                      scn.geometry.area_side)
    assert np.allclose(d, 10.0, atol=1e-9)


def test_geometry_infeasible_rejected():
    with pytest.raises(ScenarioError, match="d2d_link_distance"):
        ScenarioConfig(d2d_link_distance=2000.0)
    # a config forced past its frozen fields still cannot hang the redraw loop
    cfg = ScenarioConfig()
    object.__setattr__(cfg, "d2d_link_distance", 2000.0)
    with pytest.raises(ScenarioError, match="d2d_link_distance"):
        build_scenario(cfg, 0)


def test_dimension_invariants():
    with pytest.raises(ScenarioError):
        SystemDimensions(1, 8, 2, 3, 0, 200)  # pairs without pilots
    with pytest.raises(ScenarioError):
        SystemDimensions(1, 8, 2, 1, 2, 200)  # fewer pairs than pilots
    with pytest.raises(ScenarioError):
        SystemDimensions(1, 8, 150, 100, 60, 200)  # pilots exceed coherence
    dims = SystemDimensions(2, 8, 2, 0, 3, 200)  # reserved D2D pilots, no pairs
    assert dims.pilot_len == 5
    with pytest.raises(ScenarioError):
        SystemDimensions(2, 5, 3, 2, 2, 200).require_zf()


def test_config_json_roundtrip_and_errors(tmp_path):
    cfg = ScenarioConfig(num_cells=4, antennas_per_bs=32)
    text = cfg.to_json()
    back = ScenarioConfig.from_json(text)
    assert back == cfg
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_json("{not json")
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_json(json.dumps({"no_such_key": 1}))
    # a zero link distance would make every redraw of build_scenario fail
    with pytest.raises(ScenarioError, match="d2d_link_distance"):
        ScenarioConfig.from_json(json.dumps({"d2d_link_distance": 0}))


def test_scenario_replay_roundtrip():
    scn = Scenario.build(ScenarioConfig(num_cells=2, antennas_per_bs=16,
                                        cus_per_cell=2, num_d2d_pairs=2,
                                        num_d2d_pilots=1, coherence_len=100),
                         seed=9)
    # replay files written before the geometry lost its wraparound flag still load
    old = json.loads(scn.to_json())
    old["geometry"]["wraparound"] = True
    for text in (scn.to_json(), json.dumps(old)):
        back = Scenario.from_json(text)
        assert np.array_equal(back.gains.beta_cu_bs, scn.gains.beta_cu_bs)
        assert np.array_equal(back.gains.beta_d2dtx_d2drx, scn.gains.beta_d2dtx_d2drx)
        assert back.pilots.d2d_pilot_sets == scn.pilots.d2d_pilot_sets
        assert back.dims == scn.dims
        assert back.to_json() == scn.to_json()


@pytest.mark.parametrize("case", ["negative_gain", "empty_pilot_set", "p_max"])
def test_scenario_replay_rejects_invalid_input(case):
    scn = Scenario.build(ScenarioConfig(num_cells=2, antennas_per_bs=24, cus_per_cell=2,
                                        num_d2d_pairs=2, num_d2d_pilots=2,
                                        coherence_len=200, area_side=600.0), seed=42)
    raw = json.loads(scn.to_json())
    if case == "negative_gain":
        raw["gains"]["beta_cu_bs"][0][0][0] = -1.0
    elif case == "empty_pilot_set":
        raw["pilots"]["d2d_pilot_sets"] = [[0, 1], []]
    bad_inputs = [raw] if case != "p_max" else [
        dict(raw, p_max=p) for p in (0.0, -5.0, math.inf, math.nan, "200")]
    for bad in bad_inputs:
        with pytest.raises(ScenarioError):
            Scenario.from_json(json.dumps(bad))


def test_desired_d2d_link_is_strongest_when_short():
    # with a 10 m link (below d0) the own-pair gain dominates each row
    scn = Scenario.build(ScenarioConfig(), seed=3)
    beta = scn.gains.beta_d2dtx_d2drx
    assert np.all(np.argmax(beta, axis=1) == np.arange(beta.shape[0]))
