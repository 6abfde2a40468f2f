"""Span tracing installed from outside the package.

The tracer replaces the names that one mimo_d2d module imported from another
(for example ``mimo_d2d.power_control.gp_solve``) with timing wrappers, so a
span is recorded at each call that crosses a layer boundary. Nothing under
``src/`` changes; ``installed()`` puts the original functions back on exit.

Spans are kept in memory as [name, start, end, parent, attrs] lists; the
per-layer metrics are computed from them after the run.
"""

import contextlib
import statistics
import time

# (module, attribute, span name): every import site the layers call through.
SITES = (
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "run_drop", "harness.run_drop"),
    ("harness", "solve_problem", "power_control.solve"),
    ("power_control", "solve_problem", "power_control.solve"),
    ("harness", "evaluate_network", "spectral.evaluate"),
    ("power_control", "evaluate_network", "spectral.evaluate"),
    ("spectral", "d2d_se_exact", "spectral.exact"),
    ("power_control", "gp_solve", "gp.gp"),
    ("power_control", "lp_feasible", "gp.lp"),
    ("power_control", "monomial_lower_bound", "gp.mlb"),
    ("power_control", "compute_gamma_bs", "estimation.gamma"),
    ("power_control", "compute_gamma_d2drx", "estimation.gamma"),
    ("power_control", "gamma_cu_bs_full", "estimation.gamma"),
    ("spectral", "compute_gamma_bs", "estimation.gamma"),
    ("spectral", "compute_gamma_d2drx", "estimation.gamma"),
    ("spectral", "gamma_cu_bs_full", "estimation.gamma"),
    ("linklevel", "compute_gamma_bs", "estimation.gamma"),
    ("linklevel", "gamma_cu_bs_full", "estimation.gamma"),
    ("linklevel", "oracle_uatf_mr", "linklevel.oracle"),
    ("linklevel", "oracle_zf", "linklevel.oracle"),
    ("linklevel", "wishart_inverse_diagonal_mean", "linklevel.oracle"),
)

PROBLEM_IDS = tuple(f"{p}-{o}-{v}" for p in ("mr", "zf") for o in ("maxmin", "maxprod")
                    for v in ("data", "joint"))


def _call_attrs(name, args, kwargs, result):
    """Counts taken from a call's arguments and result."""
    if name == "gp.gp":
        gp = args[0]
        # gp_solve rejects a variable without bounds, so the bound keys are
        # exactly the variables of every program it solves
        return {"terms": sum(len(c.terms) for c in gp.posy_constraints),
                "vars": len(gp.bounds), "newton": result.newton_iterations}
    if name == "gp.lp":
        return {"feasible": bool(result.feasible)}
    if name == "power_control.solve":
        spec, diag = args[1], result[2]
        return {"problem": spec.problem_id, "iterations": diag.iterations,
                "trace": list(diag.objective_trace)}
    if name == "linklevel.oracle":
        # the benchmark always passes the sample count by keyword
        return {"realizations": kwargs.get("num_realizations") or kwargs["num_samples"]}
    return None


class Tracer:
    def __init__(self, mimo):
        self.modules = {m: getattr(mimo, m) for m in
                        ("harness", "power_control", "spectral", "linklevel")}
        self.scenario_cls = mimo.scenario.Scenario
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _call_attrs(name, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod, attr, name in SITES:
                module = self.modules[mod]
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(name, getattr(module, attr)))
            build = self.scenario_cls.__dict__["build"]
            saved.append((self.scenario_cls, "build", build))
            self.scenario_cls.build = classmethod(self._wrap("scenario.build", build.__func__))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mark(self):
        return len(self.spans)

    def root_seconds(self, since):
        """Time covered by outermost spans recorded after mark `since`."""
        return sum(s[2] - s[1] for s in self.spans[since:] if s[3] is None)


def _attrs_of(spans, name):
    return [s[4] for s in spans if s[0] == name and s[4] is not None]


def _bisection_solves(solves):
    return [a for a in solves if a["problem"].endswith("maxmin-data")]


def _sca_solves(solves):
    """Algorithm 2 solves: joint ZF problems."""
    return [a for a in solves if a["problem"] in ("zf-maxmin-joint", "zf-maxprod-joint")]


def drop_counts(tracer, since, until):
    """Exact counts of one traced drop, for comparing repeated runs."""
    spans = tracer.spans[since:until]
    solves, gps = _attrs_of(spans, "power_control.solve"), _attrs_of(spans, "gp.gp")
    return {"bisection_probes": sum(a["iterations"] for a in _bisection_solves(solves)),
            "sca_iterations": sum(a["iterations"] for a in _sca_solves(solves)),
            "lp_calls": sum(s[0] == "gp.lp" for s in spans),
            "gp_calls": len(gps), "newton_steps": sum(g["newton"] for g in gps),
            "gp_terms": sum(g["terms"] for g in gps),
            "mlb_calls": sum(s[0] == "gp.mlb" for s in spans)}


def _tally(spans):
    total, count, child = {}, {}, {}
    for s in spans:
        dur = s[2] - s[1]
        total[s[0]] = total.get(s[0], 0.0) + dur
        count[s[0]] = count.get(s[0], 0) + 1
        if s[3] is not None:
            child[s[3]] = child.get(s[3], 0.0) + dur
    return total, count, child


def layer_metrics(tracer, traced_drops, traced_walls, plain_walls,
                  traced_cases, plain_cases, covered):
    """Per-layer metrics of one traced run; times and counts are per traced
    drop unless the name says otherwise."""
    spans = tracer.spans
    total, count, child = _tally(spans)
    n = max(traced_drops, 1)

    def self_time(name):
        return sum(s[2] - s[1] - child.get(i, 0.0)
                   for i, s in enumerate(spans) if s[0] == name)

    solves = _attrs_of(spans, "power_control.solve")
    gps, lps = _attrs_of(spans, "gp.gp"), _attrs_of(spans, "gp.lp")
    oracles = _attrs_of(spans, "linklevel.oracle")
    sca = _sca_solves(solves)
    steps = [(a, b) for s in sca for a, b in zip(s["trace"], s["trace"][1:])]
    newton = sum(g["newton"] for g in gps)
    m = {
        ("harness.drop_s", "s"): total.get("harness.run_drop", 0.0) / n,
        ("harness.io_s", "s"): self_time("harness.run_experiment") / n,
        ("power_control.self_s", "s"): self_time("power_control.solve") / n,
        ("power_control.bisection_probes", "count"):
            sum(a["iterations"] for a in _bisection_solves(solves)) / n,
        ("power_control.sca_iterations", "count"): sum(a["iterations"] for a in sca) / n,
        ("power_control.sca_monotone_ratio", "ratio"):
            sum(b >= a for a, b in steps) / len(steps) if steps else 0.0,
        ("gp.lp_calls", "count"): count.get("gp.lp", 0) / n,
        ("gp.lp_s", "s"): total.get("gp.lp", 0.0) / n,
        ("gp.lp_feasible_ratio", "ratio"):
            sum(a["feasible"] for a in lps) / len(lps) if lps else 0.0,
        ("gp.gp_calls", "count"): count.get("gp.gp", 0) / n,
        ("gp.gp_s", "s"): total.get("gp.gp", 0.0) / n,
        ("gp.newton_steps", "count"): newton / n,
        ("gp.ms_per_newton_step", "ms"):
            1000.0 * total.get("gp.gp", 0.0) / newton if newton else 0.0,
        ("gp.terms", "count"): statistics.fmean(g["terms"] for g in gps) if gps else 0.0,
        ("gp.vars", "count"): statistics.fmean(g["vars"] for g in gps) if gps else 0.0,
        ("gp.mlb_calls", "count"): count.get("gp.mlb", 0) / n,
        ("gp.mlb_s", "s"): total.get("gp.mlb", 0.0) / n,
        ("spectral.evaluate_calls", "count"): count.get("spectral.evaluate", 0) / n,
        ("spectral.evaluate_s", "s"): total.get("spectral.evaluate", 0.0) / n,
        ("spectral.exact_s", "s"): total.get("spectral.exact", 0.0) / n,
        ("estimation.gamma_calls", "count"): count.get("estimation.gamma", 0) / n,
        ("estimation.gamma_s", "s"): total.get("estimation.gamma", 0.0) / n,
        ("scenario.build_s", "s"):
            total.get("scenario.build", 0.0) / count["scenario.build"]
            if count.get("scenario.build") else 0.0,
        ("linklevel.oracle_s", "s"): total.get("linklevel.oracle", 0.0) / n,
        ("linklevel.realizations_per_s", "1/s"):
            sum(a["realizations"] for a in oracles) / total["linklevel.oracle"]
            if oracles else 0.0,
        ("trace.span_coverage", "ratio"): covered / sum(traced_walls),
        ("trace.overhead_drop_s", "s"):
            statistics.median(traced_walls) - statistics.median(plain_walls),
        ("trace.overhead_case_s", "s"):
            statistics.median(traced_cases) - statistics.median(plain_cases),
    }
    per_problem = {pid: [] for pid in PROBLEM_IDS}
    for s in spans:
        if s[0] == "power_control.solve" and s[4] is not None:
            per_problem[s[4]["problem"]].append(s[2] - s[1])
    for pid, durs in per_problem.items():
        m[(f"power_control.solve_s.{pid}", "s")] = statistics.fmean(durs) if durs else 0.0
    return m
