"""The three workloads of the benchmark of record.

Each workload builds its inputs from the workload seed (drop i uses
``harness.drop_seed(seed, i)``), runs one drop at a time through the public
API and checks the outputs. A drop is a group of checked operations:

* campaign: one ``run_experiment`` call, as ``mimo-d2d run`` does it for the
  paper's figures;
* joint-sca: the four joint problems on one drop;
* mc-validate: one MR oracle case, one ZF oracle case and one Wishart case,
  each timed with its closed form and the comparison.

A case is the timed unit of ``case_s``: the oracle case on mc-validate, the
whole drop on the other two. The four joint problems differ in cost by 3x,
so a median over them would sit on the boundary between two problems.

The checks hold for any seed. Every workload also has a desk scale, for the
self-test, and a warm scale, the smallest inputs that run every code path
once, for the warm-up before timing.
"""

import math
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mimo_d2d import (Baselines, ControlProblemSpec, ControlSettings, ExperimentPlan,
                      ScenarioConfig,
                      Scenario, cu_sinr_mr, cu_sinr_zf, evaluate_network,
                      full_power_allocation, harness, linklevel, power_control,
                      se_from_sinr)
from mimo_d2d.harness import drop_seed

# The reference simulation setup: 9 cells, M=200, K=5, L=10, N=5.
REFERENCE = ScenarioConfig()
# Algorithm 2 takes minutes per solve at reference scale and 5-30 s on the
# 9-cell config M=64, K=1, L=4, N=2, so it runs on 4 cells of the reference
# cell size. With D2D pairs sharing pilots its SCA iteration count is
# heavy-tailed (4 to 35 over 14 drops), which a 30 s run cannot average;
# with one pilot per pair it was 3 to 5 on every drop tried.
ZF_JOINT = ScenarioConfig(num_cells=4, antennas_per_bs=64, cus_per_cell=1,
                          num_d2d_pairs=4, num_d2d_pilots=4, area_side=2000.0 / 3.0)
# Acceptance criteria 2 and 3 (link-level oracle configs) and 1 (Wishart).
MR_ORACLE = ScenarioConfig(num_cells=2, antennas_per_bs=64, cus_per_cell=2,
                           num_d2d_pairs=2, num_d2d_pilots=2, area_side=600.0)
ZF_ORACLE = ScenarioConfig(num_cells=2, antennas_per_bs=16, cus_per_cell=2,
                           num_d2d_pairs=2, num_d2d_pilots=1, area_side=600.0)
WISHART = (32, 10)
# Desk-scale config of the acceptance suite, for the warm-up and self-test.
DESK = ScenarioConfig(num_cells=2, antennas_per_bs=20, cus_per_cell=2,
                      num_d2d_pairs=3, num_d2d_pilots=2, area_side=600.0)
WARM = ScenarioConfig(num_cells=1, antennas_per_bs=8, cus_per_cell=1,
                      num_d2d_pairs=1, num_d2d_pilots=1, area_side=300.0)
SCALES = ("reference", "desk", "warm")

MAX_DROPS = 64  # scenarios are built in set-up, so a run has at most this many drops
LEVEL_TOL = 1e-6  # the solvers' own slack when they snap powers on a max-min level


@dataclass
class Drop:
    ops: list = field(default_factory=list)         # operation names in run order
    seconds: list = field(default_factory=list)     # wall time per operation
    failed: set = field(default_factory=set)        # names of failed operations
    messages: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)  # must repeat bit for bit
    values: dict = field(default_factory=dict)       # compared with the reference

    @property
    def wall(self):
        return sum(self.seconds)

    def fail(self, op, message):
        """Mark an operation failed; a key that names none belongs to the first."""
        op = op if op in self.ops else self.ops[0]
        self.failed.add(op)
        self.messages.append(f"{op}: {message}")

    def run(self, op, timed, call):
        """Time one operation; an exception marks it failed and returns None.
        `call` looks the package functions up only once `timed` has entered,
        so a tracer installed by `timed` sees the call."""
        self.ops.append(op)
        t0 = time.perf_counter()
        try:
            with timed():
                result = call()
        except Exception as exc:  # a failed operation is reported, the run goes on
            traceback.print_exc()
            self.fail(op, f"raised {exc!r}")
            result = None
        self.seconds.append(time.perf_counter() - t0)
        return result


def _log_product(sinrs):
    sinrs = list(sinrs)
    return float(sum(math.log(s) for s in sinrs)) if all(s > 0 for s in sinrs) else -math.inf


def _below(value, floor, rel):
    return value < floor - rel * max(1.0, abs(floor))


class Campaign:
    name = "campaign"
    oracle_cases = False
    specs = [ControlProblemSpec(o, "data", p) for p in ("mr", "zf")
             for o in ("maxmin", "maxprod")]

    def __init__(self, seed, scratch, scale="reference"):
        self.seed, self.scratch = seed, scratch
        self.config = dict(zip(SCALES, (REFERENCE, DESK, WARM)))[scale]
        self.dims = self.config.dimensions()
        # the warm-up needs every code path once, not the bisection's accuracy
        self.plan_options = {} if scale != "warm" else {
            "settings": ControlSettings(bisection_eps=0.5), "exact_d2d_samples": 100}

    @staticmethod
    def tolerance(key):
        """(absolute, relative) tolerance of a reference value."""
        if "maxmin" in key:
            return 2 * ControlSettings().bisection_eps, 0.0
        return 0.0, 1e-9 if key.startswith("equal") else 1e-6

    def drop(self, i, timed):
        out = tempfile.mkdtemp(prefix="campaign-", dir=self.scratch)
        try:
            # no cellular-only baseline: it re-runs the same solvers without
            # the D2D pairs and would halve the drops a run can time
            plan = ExperimentPlan(config=self.config, num_drops=1, problems=self.specs,
                                  baselines=Baselines(equal_power=True),
                                  output_dir=out, master_seed=drop_seed(self.seed, i),
                                  **self.plan_options)
            d = Drop()
            table = d.run("drop", timed, lambda: harness.run_experiment(plan))
            if table is not None:
                self._check(d, table, out)
            return d
        finally:
            shutil.rmtree(out)

    def _check(self, d, table, out):
        summary = table.summary
        if summary["failure_count"]:
            d.fail("drop", f"solver failures {summary['failures']}")
        by_job = {}
        for r in table.rows:
            by_job.setdefault(r["problem"], []).append(r)
        nan_jobs = sorted({r["problem"] for r in table.rows if not math.isfinite(r["se"])})
        if nan_jobs:
            d.fail("drop", f"non-finite SEs in {nan_jobs}")
        for pid, info in summary["problems"].items():
            if info["sum_se_mean"] is None or not math.isfinite(info["sum_se_mean"]):
                d.fail("drop", f"summary SE of {pid} is not finite")
        expected = {"rows.csv", "summary.json"} | {f"cdf_{p}.csv" for p in summary["problems"]}
        written = {p.name for p in Path(out).iterdir()}
        if expected - written:
            d.fail("drop", f"missing outputs {sorted(expected - written)}")

        for pid, rows in by_job.items():
            sinrs = [r["sinr"] for r in rows]
            if "maxmin" in pid:
                d.values[pid] = float(min(se_from_sinr(s, self.dims) for s in sinrs))
            else:
                d.values[pid] = _log_product(sinrs)
        eps = ControlSettings().bisection_eps
        for proc in ("mr", "zf"):
            equal = f"equal-{proc}"
            full_min = min(se_from_sinr(r["sinr"], self.dims) for r in by_job[equal])
            if d.values[f"{proc}-maxmin-data"] < full_min - eps - LEVEL_TOL:
                d.fail("drop", f"{proc} max-min level below equal power")
            if _below(d.values[f"{proc}-maxprod-data"], d.values[equal], 1e-6):
                d.fail("drop", f"{proc} max-product below equal power")
        d.fingerprint["drop"] = repr([(r["problem"], r["se"], r["sinr"], r["p_data"],
                                       r["p_pilot"]) for r in table.rows])


class JointSca:
    name = "joint-sca"
    oracle_cases = False
    problems = ("mr-maxmin-joint", "mr-maxprod-joint", "zf-maxmin-joint", "zf-maxprod-joint")

    def __init__(self, seed, scratch, scale="reference"):
        mr_cfg, zf_cfg = dict(zip(SCALES, ((REFERENCE, ZF_JOINT), (DESK, DESK),
                                           (WARM, WARM))))[scale]
        self.scenarios = [(Scenario.build(mr_cfg, seed=drop_seed(seed, i)),
                           Scenario.build(zf_cfg, seed=drop_seed(seed, i)))
                          for i in range(MAX_DROPS if scale == "reference" else 1)]

    @staticmethod
    def tolerance(key):
        # Algorithm 2 is a local method stopped at a pilot-power tolerance
        return 0.0, 1e-3 if key.startswith("zf") else 1e-6

    def drop(self, i, timed):
        d = Drop()
        mr_scn, zf_scn = self.scenarios[i]
        for pid in self.problems:
            proc, objective, _ = pid.split("-")
            scn = mr_scn if proc == "mr" else zf_scn
            spec = ControlProblemSpec(objective, "joint", proc)
            result = d.run(pid, timed, lambda: power_control.solve_problem(scn, spec))
            if result is not None:
                self._check(d, pid, scn, result)
        return d

    def _check(self, d, pid, scn, result):
        alloc, value, diag = result
        proc = pid.split("-")[0]
        d.values[pid] = float(value)
        d.fingerprint[pid] = repr((value, diag.iterations, diag.status, diag.objective_trace))
        report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, proc)
        sinrs = {u: bd.sinr for u, bd in report.breakdowns.items()}
        if "maxmin" in pid:
            if min(se_from_sinr(s, scn.dims) for s in sinrs.values()) < value - LEVEL_TOL:
                d.fail(pid, "max-min level not met at the returned allocation")
        else:
            full = evaluate_network(scn.dims, scn.gains, scn.pilots,
                                    full_power_allocation(scn.dims, scn.p_max), proc)
            if _below(_log_product(sinrs.values()),
                      _log_product(bd.sinr for bd in full.breakdowns.values()), 1e-6):
                d.fail(pid, "max-product below equal power")
        if proc == "zf":
            if diag.status != "converged":
                d.fail(pid, f"SCA status {diag.status}")
            short = [u for u, t in diag.targets.items() if sinrs[u] < t * (1 - LEVEL_TOL)]
            if short:
                d.fail(pid, f"targets not met under evaluate_network: {short}")


class McValidate:
    name = "mc-validate"
    oracle_cases = True
    limits = {"mr": 0.02, "zf": 0.03, "wishart": 0.02}  # acceptance criteria 2, 3, 1

    def __init__(self, seed, scratch, scale="reference"):
        self.seed = seed
        self.realizations, self.wishart_samples = dict(zip(SCALES, (
            (100_000, 10_000), (20_000, 2_000), (1_000, 100))))[scale]
        self.scenarios = [(Scenario.build(MR_ORACLE, seed=drop_seed(seed, i)),
                           Scenario.build(ZF_ORACLE, seed=drop_seed(seed, i)))
                          for i in range(MAX_DROPS if scale == "reference" else 1)]

    @staticmethod
    def tolerance(key):
        return 0.0, 1e-9  # closed forms only; the oracles draw fresh samples

    def _alloc(self, scn, rng):
        """Full pilot power, data powers scaled down per user as in criteria 2-3."""
        alloc = full_power_allocation(scn.dims, scn.p_max)
        alloc.data_cu *= rng.uniform(0.3, 1.0, alloc.data_cu.shape)
        alloc.data_d2d *= rng.uniform(0.3, 1.0, alloc.data_d2d.shape)
        return alloc

    def drop(self, i, timed):
        d = Drop()
        rng = np.random.default_rng([self.seed, i])
        b, k = divmod(i % 4, 2)
        for case, scn in zip(("mr", "zf"), self.scenarios[i]):
            alloc = self._alloc(scn, rng)
            oracle_rng = np.random.default_rng([self.seed, i, len(d.seconds)])
            rel = d.run(case, timed,
                        lambda: self._oracle_case(case, scn, alloc, b, k, oracle_rng))
            if rel is not None:
                d.fingerprint[case], d.values[case] = rel[1], rel[2]
                if rel[0] > self.limits[case]:
                    d.fail(case, f"oracle deviates {rel[0]:.4f} from the closed form")
        wishart_rng = np.random.default_rng([self.seed, i, 2])
        got = d.run("wishart", timed, lambda: linklevel.wishart_inverse_diagonal_mean(
            *WISHART, num_samples=self.wishart_samples, rng=wishart_rng))
        if got is not None:
            d.fingerprint["wishart"] = repr(got)
            if abs(got * (WISHART[0] - WISHART[1]) - 1.0) > self.limits["wishart"]:
                d.fail("wishart", f"mean {got!r} deviates from 1/{WISHART[0] - WISHART[1]}")
        return d

    def _oracle_case(self, case, scn, alloc, b, k, rng):
        if case == "mr":
            emp = linklevel.oracle_uatf_mr(scn.dims, scn.gains, scn.pilots, alloc, b, k,
                                           num_realizations=self.realizations, rng=rng).sinr
            closed = cu_sinr_mr(b, k, scn.gains, alloc, scn.dims).sinr
        else:
            emp = linklevel.oracle_zf(scn.dims, scn.gains, scn.pilots, alloc, b, k,
                                      num_realizations=self.realizations, rng=rng).sinr
            closed = cu_sinr_zf(b, k, scn.gains, alloc, scn.pilots, scn.dims).sinr
        return abs(emp - closed) / closed, repr(emp), float(closed)


WORKLOADS = {w.name: w for w in (Campaign, JointSca, McValidate)}
