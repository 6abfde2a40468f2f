"""Batch experiment driver: runs Monte-Carlo drops, applies the configured
power-control problems plus baselines, evaluates the exact D2D bound for
reporting, and assembles per-user rows, empirical CDFs and summary stats.

Per-drop seeds derive deterministically from the master seed, so a run is
reproducible row for row regardless of the worker count.
"""

import contextlib
import csv
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .scenario import Scenario, ScenarioConfig, ScenarioError, SystemDimensions, \
    Geometry, LargeScaleGains, PilotAllocation
from .estimation import full_power_allocation
from .spectral import evaluate_network
from .power_control import (ControlProblemSpec, ControlSettings, Objective,
                            Processing, solve_problem)
from .gp import GPInfeasibleError, GPSolverError

logger = logging.getLogger(__name__)

ROW_FIELDS = ("drop", "problem", "user_type", "cell", "index", "se", "sinr",
              "p_data", "p_pilot")
CDF_GRID_POINTS = 200


@dataclass
class Baselines:
    equal_power: bool = False
    cellular_only: bool = False


@dataclass(frozen=True)
class ExperimentPlan:
    config: ScenarioConfig
    num_drops: int = 1
    problems: list = field(default_factory=list)  # ControlProblemSpec
    baselines: Baselines = field(default_factory=Baselines)
    output_dir: str = None
    master_seed: int = 0
    exact_d2d: bool = True
    # Unused: the exact D2D bound is a quadrature, not a sample mean. Kept
    # because perfbench/workloads.py still passes it for its warm-up plan.
    exact_d2d_samples: int = 10000
    workers: int = 1
    settings: ControlSettings = field(default_factory=ControlSettings)

    def __post_init__(self):
        # a configuration error, so the CLI exits 2 before any drop runs
        if self.num_drops < 1:
            raise ScenarioError("num_drops must be >= 1")
        if self.workers < 1:
            raise ScenarioError("workers must be >= 1")
        if self.master_seed < 0:
            raise ScenarioError("master_seed must be >= 0")


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)  # dicts with ROW_FIELDS keys
    summary: dict = field(default_factory=dict)


def drop_seed(master_seed, drop):
    """Stable 64-bit seed for one drop."""
    words = np.random.SeedSequence([int(master_seed), int(drop)]).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def cellular_only_view(scn: Scenario) -> Scenario:
    """The same drop with the D2D pairs removed; the pilot budget (and with
    it the prelog and the ZF nulling dimension) stays reserved so the
    comparison isolates the D2D underlay itself."""
    dims = scn.dims
    reduced = SystemDimensions(dims.num_cells, dims.antennas_per_bs,
                               dims.cus_per_cell, 0, dims.num_d2d_pilots,
                               dims.coherence_len)
    geom = Geometry(scn.geometry.area_side, scn.geometry.bs_positions,
                    scn.geometry.cu_positions, np.zeros((0, 2)), np.zeros((0, 2)),
                    scn.geometry.d2d_link_distance)
    gains = LargeScaleGains(scn.gains.beta_cu_bs,
                            np.zeros((dims.num_cells, 0)),
                            np.zeros((0, dims.num_cells, dims.cus_per_cell)),
                            np.zeros((0, 0)))
    pilots = PilotAllocation([[] for _ in range(dims.num_d2d_pilots)], np.zeros(0, dtype=int))
    return Scenario(reduced, geom, gains, pilots, scn.p_max, scn.seed)


@dataclass
class _Job:
    job_id: str
    spec: ControlProblemSpec  # None for the equal-power baseline
    processing: Processing
    cellular_only: bool = False


def _plan_jobs(plan: ExperimentPlan):
    jobs = [_Job(spec.problem_id, spec, spec.processing) for spec in plan.problems]
    if plan.baselines.cellular_only:
        jobs += [_Job(f"{spec.problem_id}-cellonly", spec, spec.processing,
                      cellular_only=True) for spec in plan.problems]
    if plan.baselines.equal_power:
        procs = {spec.processing for spec in plan.problems} or {Processing.MR}
        jobs += [_Job(f"equal-{proc.value}", None, proc) for proc in sorted(procs)]
    if not jobs:
        jobs = [_Job("equal-mr", None, Processing.MR)]
    return jobs


def _nan_rows(drop, job, scn):
    return [{"drop": drop, "problem": job.job_id, "user_type": kind, "cell": cell,
             "index": index, **dict.fromkeys(ROW_FIELDS[5:], math.nan)}
            for kind, cell, index in scn.dims.users()]


def _job_rows(drop, job, scn, alloc, plan):
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc,
                              job.processing.value, exact_d2d=plan.exact_d2d)
    # report.rows() yields the users in the stacked order of the powers
    return [{"drop": drop, "problem": job.job_id,
             **{key: user[key] for key in ROW_FIELDS[2:7]},
             "p_data": p_data, "p_pilot": p_pilot}
            for user, p_data, p_pilot in zip(report.rows(), alloc.stacked_data().tolist(),
                                             alloc.stacked_pilots().tolist())]


def run_drop(plan: ExperimentPlan, drop: int):
    """All jobs for one drop; returns (rows, failures, expectation
    violations)."""
    seed = drop_seed(plan.master_seed, drop)
    scn = Scenario.build(plan.config, seed=seed)
    jobs = _plan_jobs(plan)
    rows, failures = [], []
    for job in jobs:
        job_scn = cellular_only_view(scn) if job.cellular_only else scn
        try:
            if job.spec is None:
                alloc = full_power_allocation(job_scn.dims, job_scn.p_max)
            else:
                alloc, _, _ = solve_problem(job_scn, job.spec, plan.settings)
            rows.extend(_job_rows(drop, job, job_scn, alloc, plan))
        except (GPInfeasibleError, GPSolverError) as exc:
            logger.error("drop %d job %s failed: %s", drop, job.job_id, exc)
            failures.append({"drop": drop, "problem": job.job_id, "error": str(exc)})
            rows.extend(_nan_rows(drop, job, job_scn))
    checks = _log_expectation_checks(drop, jobs, rows)
    return rows, failures, checks


def _log_expectation_checks(drop, jobs, rows):
    """Max-product is expected (not required) to reach at least the max-min
    sum SE under the same processing; violations are logged and counted in
    the summary, never fatal."""
    sums = {}
    for job in jobs:
        if job.spec is None or job.cellular_only:
            continue
        total = sum(r["se"] for r in rows
                    if r["problem"] == job.job_id and not math.isnan(r["se"]))
        sums[(job.spec.processing, job.spec.objective, job.spec.variables)] = total
    violations = []
    for (proc, obj, scope), total in sums.items():
        if obj is Objective.MAXPROD:
            other = sums.get((proc, Objective.MAXMIN, scope))
            if other is not None and total < other:
                logger.info("drop %d: max-product sum SE %.3f below max-min %.3f (%s)",
                            drop, total, other, proc.value)
                violations.append({"drop": drop, "processing": proc.value,
                                   "maxprod_sum_se": total, "maxmin_sum_se": other})
    return violations


def run_experiment(plan: ExperimentPlan) -> ResultTable:
    """Execute the plan; deterministic given the master seed. Failed solves
    produce NaN-marked rows and are counted in the summary."""
    out_dir = Path(plan.output_dir) if plan.output_dir else None
    writer = _RowWriter(out_dir / "rows.csv") if out_dir else None

    all_rows, failures, checks = [], [], []
    with (ProcessPoolExecutor(max_workers=plan.workers) if plan.workers > 1
          else contextlib.nullcontext()) as pool:
        # both maps yield results in drop order
        drop_map = pool.map if pool else map
        for rows, fails, viol in drop_map(run_drop, [plan] * plan.num_drops,
                                          range(plan.num_drops)):
            all_rows.extend(rows)
            failures.extend(fails)
            checks.extend(viol)
            if writer:
                writer.write(rows)
    if writer:
        writer.close()

    summary = _summarize(plan, all_rows, failures)
    summary["expectation_violations"] = checks
    table = ResultTable(rows=all_rows, summary=summary)
    if out_dir:
        emit_outputs(table, out_dir, rows_already_written=True)
    return table


class _RowWriter:
    def __init__(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        self.fh = open(path, "w", newline="")
        self.writer = csv.DictWriter(self.fh, fieldnames=ROW_FIELDS)
        self.writer.writeheader()

    def write(self, rows):
        for row in rows:
            self.writer.writerow(row)
        self.fh.flush()

    def close(self):
        self.fh.close()


def empirical_cdf(values, grid_points=CDF_GRID_POINTS):
    """Equispaced SE grid from 0 to the observed maximum with the empirical
    CDF evaluated on it."""
    values = np.asarray([v for v in values if not math.isnan(v)], dtype=float)
    if values.size == 0:
        return np.zeros(0), np.zeros(0)
    top = float(values.max())
    grid = np.linspace(0.0, top if top > 0 else 1.0, grid_points)
    sorted_vals = np.sort(values)
    cdf = np.searchsorted(sorted_vals, grid, side="right") / values.size
    return grid, cdf


def _summarize(plan, rows, failures):
    problems = sorted({r["problem"] for r in rows})
    summary = {"master_seed": plan.master_seed, "num_drops": plan.num_drops,
               "config": asdict(plan.config),
               "failures": failures, "failure_count": len(failures),
               "problems": {}}
    for pid in problems:
        per_drop = {}
        ses = []
        for r in rows:
            if r["problem"] != pid:
                continue
            ses.append(r["se"])
            if not math.isnan(r["se"]):
                per_drop[r["drop"]] = per_drop.get(r["drop"], 0.0) + r["se"]
        grid, cdf = empirical_cdf(ses)
        sums = np.array(sorted(per_drop.values())) if per_drop else np.zeros(0)
        summary["problems"][pid] = {
            "users_per_drop": sum(1 for r in rows
                                  if r["problem"] == pid and r["drop"] == rows[0]["drop"]),
            "cdf_grid": grid.tolist(),
            "cdf": cdf.tolist(),
            "sum_se_mean": float(sums.mean()) if sums.size else None,
            "sum_se_quantiles": {q: float(np.quantile(sums, float(q)))
                                 for q in ("0.05", "0.25", "0.5", "0.75", "0.95")}
            if sums.size else {},
        }
    return summary


def emit_outputs(table: ResultTable, out_dir, rows_already_written=False):
    """Write rows.csv, one cdf_<problem>.csv per problem, and summary.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not rows_already_written:
        writer = _RowWriter(out_dir / "rows.csv")
        writer.write(table.rows)
        writer.close()
    for pid, info in table.summary.get("problems", {}).items():
        safe = pid.replace("/", "_")
        with open(out_dir / f"cdf_{safe}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["se", "cdf"])
            for x, p in zip(info["cdf_grid"], info["cdf"]):
                w.writerow([repr(x), repr(p)])
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(table.summary, fh, indent=2)
    return [str(out_dir / "rows.csv"), str(out_dir / "summary.json")]
