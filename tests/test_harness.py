import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mimo_d2d
from mimo_d2d import (ScenarioConfig, Scenario, ControlProblemSpec,
                      ExperimentPlan, Baselines, run_experiment, emit_outputs,
                      empirical_cdf, cellular_only_view, full_power_allocation,
                      evaluate_network)
from mimo_d2d.harness import ResultTable, drop_seed, ROW_FIELDS


SMALL = ScenarioConfig(num_cells=2, antennas_per_bs=24, cus_per_cell=2,
                       num_d2d_pairs=3, num_d2d_pilots=2, coherence_len=200,
                       area_side=600.0)


def test_reference_plan_row_count():
    # one drop, equal-power baseline only: one row per user of the default
    # 9-cell setup (45 CUs + 10 pairs)
    plan = ExperimentPlan(config=ScenarioConfig(), num_drops=1,
                          baselines=Baselines(equal_power=True),
                          master_seed=3, exact_d2d=False)
    table = run_experiment(plan)
    assert len(table.rows) == 55
    assert {r["problem"] for r in table.rows} == {"equal-mr"}


def test_same_master_seed_reproduces_bit_for_bit():
    spec = ControlProblemSpec(objective="maxmin", variables="data", processing="mr")
    plan = ExperimentPlan(config=SMALL, num_drops=2, problems=[spec],
                          baselines=Baselines(equal_power=True), master_seed=11,
                          exact_d2d=True)
    t1 = run_experiment(plan)
    t2 = run_experiment(plan)
    assert t1.rows == t2.rows


def test_drop_seeds_are_stable():
    assert drop_seed(1, 0) != drop_seed(1, 1)
    assert drop_seed(5, 7) == drop_seed(5, 7)


def test_per_drop_independence():
    spec = ControlProblemSpec(objective="maxprod", variables="data", processing="mr")
    short = ExperimentPlan(config=SMALL, num_drops=2, problems=[spec],
                           master_seed=4, exact_d2d=False)
    longer = ExperimentPlan(config=SMALL, num_drops=3, problems=[spec],
                            master_seed=4, exact_d2d=False)
    rows_short = run_experiment(short).rows
    rows_long = [r for r in run_experiment(longer).rows if r["drop"] < 2]
    assert rows_short == rows_long


def test_parallel_workers_match_serial():
    spec = ControlProblemSpec(objective="maxmin", variables="data", processing="mr")
    base = dict(config=SMALL, num_drops=2, problems=[spec], master_seed=9,
                exact_d2d=True)
    serial = run_experiment(ExperimentPlan(**base, workers=1))
    parallel = run_experiment(ExperimentPlan(**base, workers=2))
    assert serial.rows == parallel.rows


def test_baseline_dominance_and_cellular_only_rows():
    spec = ControlProblemSpec(objective="maxmin", variables="data", processing="mr")
    plan = ExperimentPlan(config=SMALL, num_drops=2, problems=[spec],
                          baselines=Baselines(equal_power=True, cellular_only=True),
                          master_seed=6, exact_d2d=False)
    table = run_experiment(plan)
    users = SMALL.num_cells * SMALL.cus_per_cell + SMALL.num_d2d_pairs
    cellonly = [r for r in table.rows if r["problem"].endswith("cellonly")]
    assert len(cellonly) == 2 * SMALL.num_cells * SMALL.cus_per_cell  # no D2D rows
    for drop in (0, 1):
        lam = min(r["se"] for r in table.rows
                  if r["problem"] == "mr-maxmin-data" and r["drop"] == drop)
        eq_min = min(r["se"] for r in table.rows
                     if r["problem"] == "equal-mr" and r["drop"] == drop
                     and r["user_type"] == "cu")
        eq_min = min(eq_min, min(r["se"] for r in table.rows
                                 if r["problem"] == "equal-mr" and r["drop"] == drop
                                 and r["user_type"] == "d2d"))
        # the optimized level cannot fall below the worst user at equal power;
        # exact-D2D reporting noise is off, so compare closed forms directly
        assert lam >= eq_min - 1e-9
    assert len(table.rows) == 2 * (users + SMALL.num_cells * SMALL.cus_per_cell + users)


def test_cellular_only_view_matches_manual_zeroing():
    scn = Scenario.build(SMALL, seed=13)
    view = cellular_only_view(scn)
    assert view.dims.num_d2d_pairs == 0
    assert view.dims.pilot_len == scn.dims.pilot_len  # pilot budget reserved
    alloc = full_power_allocation(view.dims, view.p_max)
    report = evaluate_network(view.dims, view.gains, view.pilots, alloc, "mr")

    full = full_power_allocation(scn.dims, scn.p_max)
    full.data_d2d[:] = 0.0
    full.pilot_d2d[:] = 0.0
    ref = evaluate_network(scn.dims, scn.gains, scn.pilots, full, "mr")
    assert np.allclose(report.cu_se, ref.cu_se, rtol=1e-12)


def test_emit_outputs_empty_and_single_row(tmp_path):
    table = ResultTable(rows=[], summary={"problems": {}, "failure_count": 0,
                                          "failures": [], "master_seed": 0,
                                          "num_drops": 0})
    emit_outputs(table, tmp_path / "empty")
    text = (tmp_path / "empty" / "rows.csv").read_text().strip()
    assert text == ",".join(ROW_FIELDS)
    parsed = json.loads((tmp_path / "empty" / "summary.json").read_text())
    assert parsed["failure_count"] == 0

    grid, cdf = empirical_cdf([1.7])
    assert grid[-1] == pytest.approx(1.7)
    assert cdf[-1] == 1.0 and cdf[0] == 0.0
    assert np.all(np.diff(cdf) >= 0)


def test_cdf_monotone_and_recomputable(tmp_path):
    spec = ControlProblemSpec(objective="maxmin", variables="data", processing="mr")
    plan = ExperimentPlan(config=SMALL, num_drops=2, problems=[spec],
                          output_dir=str(tmp_path / "run"), master_seed=2,
                          exact_d2d=False)
    table = run_experiment(plan)

    # independent recomputation from rows.csv
    with open(tmp_path / "run" / "rows.csv") as fh:
        rows = list(csv.DictReader(fh))
    ses = [float(r["se"]) for r in rows if r["problem"] == "mr-maxmin-data"
           and not math.isnan(float(r["se"]))]
    with open(tmp_path / "run" / "cdf_mr-maxmin-data.csv") as fh:
        cdf_rows = list(csv.DictReader(fh))
    grid = np.array([float(r["se"]) for r in cdf_rows])
    cdf = np.array([float(r["cdf"]) for r in cdf_rows])
    assert np.all(np.diff(cdf) >= 0) and cdf[-1] == 1.0
    sorted_ses = np.sort(ses)
    recomputed = np.searchsorted(sorted_ses, grid, side="right") / len(ses)
    assert np.max(np.abs(recomputed - cdf)) < 1e-12


def test_summary_contents(tmp_path):
    spec = ControlProblemSpec(objective="maxprod", variables="data", processing="zf")
    plan = ExperimentPlan(config=SMALL, num_drops=2, problems=[spec],
                          output_dir=str(tmp_path / "o"), master_seed=5,
                          exact_d2d=False)
    table = run_experiment(plan)
    info = table.summary["problems"]["zf-maxprod-data"]
    assert info["users_per_drop"] == 7
    assert info["sum_se_mean"] > 0
    assert set(info["sum_se_quantiles"]) == {"0.05", "0.25", "0.5", "0.75", "0.95"}
    assert len(info["cdf_grid"]) == 200


def _write_config(path, cfg=SMALL):
    path.write_text(cfg.to_json())
    return str(path)


def test_cli_validate_and_run(tmp_path):
    from mimo_d2d.cli import main
    cfg_path = _write_config(tmp_path / "cfg.json")
    assert main(["validate", "--config", cfg_path, "--build"]) == 0
    rc = main(["run", "--config", cfg_path, "--drops", "1", "--seed", "3",
               "--out", str(tmp_path / "res"), "--processing", "mr",
               "--objective", "maxmin", "--vars", "data", "--no-exact-d2d"])
    assert rc == 0
    assert (tmp_path / "res" / "rows.csv").exists()
    assert (tmp_path / "res" / "summary.json").exists()


def test_cli_config_error_exit_code(tmp_path):
    from mimo_d2d.cli import main
    bad = tmp_path / "bad.json"
    bad.write_text("{\"num_cells\": 0}")
    assert main(["validate", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(bad), "--drops", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2
    # plan values are checked when the plan is built, before any drop runs
    good = _write_config(tmp_path / "good.json")
    assert main(["run", "--config", good, "--drops", "0", "--out", str(tmp_path / "y")]) == 2
    assert main(["run", "--config", good, "--workers", "0",
                 "--out", str(tmp_path / "w")]) == 2


def test_cli_entry_point_subprocess(tmp_path):
    cfg_path = _write_config(tmp_path / "cfg.json")
    # the child imports the same package as this process, installed or not
    src = str(Path(mimo_d2d.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mimo_d2d.cli", "validate",
                           "--config", cfg_path], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "config ok" in proc.stdout


def test_solver_failure_marks_rows_and_cli_exit_code(tmp_path, monkeypatch):
    import mimo_d2d.harness as harness
    from mimo_d2d.gp import GPSolverError

    def broken(*args, **kwargs):
        raise GPSolverError("synthetic failure")

    monkeypatch.setattr(harness, "solve_problem", broken)
    spec = ControlProblemSpec(objective="maxmin", variables="data", processing="mr")
    plan = ExperimentPlan(config=SMALL, num_drops=2, problems=[spec],
                          output_dir=str(tmp_path / "f"), master_seed=1,
                          exact_d2d=False)
    table = run_experiment(plan)
    assert table.summary["failure_count"] == 2
    users = SMALL.num_cells * SMALL.cus_per_cell + SMALL.num_d2d_pairs
    assert len(table.rows) == 2 * users  # NaN-marked rows keep the count
    assert all(math.isnan(r["se"]) for r in table.rows)

    from mimo_d2d.cli import main
    cfg_path = _write_config(tmp_path / "cfg.json")
    rc = main(["run", "--config", cfg_path, "--drops", "1",
               "--out", str(tmp_path / "cli_fail"), "--no-exact-d2d"])
    assert rc == 3
    assert (tmp_path / "cli_fail" / "rows.csv").exists()  # partial output kept
