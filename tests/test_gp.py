import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimo_d2d import (GeometricProgram, LinearFeasibilityProblem, SolverSettings, gp_solve,
                      lp_feasible)
from mimo_d2d import gp as gp_module
from mimo_d2d.gp import Factors, GPInfeasibleError, GPSolverError
import phase_one
from posynomials import (Monomial, Posynomial, as_posynomial, factors, monomial_lower_bound,
                         program, variable)
from gridsearch import refine_maximize
from sparse_stack import SparseStack, newton_matrix, two_stack_newton_system


# --- algebra -------------------------------------------------------------------

def test_monomial_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        Monomial(0.0, {"x": 1.0})
    with pytest.raises(ValueError):
        Monomial(-2.0, {"x": 1.0})
    with pytest.raises(ValueError):
        Monomial(np.inf)


def test_algebra_closure_and_values():
    x, y = variable("x"), variable("y")
    f = 2.0 * x * y ** -1.0 + 3.0
    g = f * f
    h = g / (2.0 * x)
    point = {"x": 1.5, "y": 0.5}
    fv = 2.0 * 1.5 / 0.5 + 3.0
    assert isinstance(f, Posynomial) and isinstance(g, Posynomial)
    assert f.value(point) == pytest.approx(fv)
    assert g.value(point) == pytest.approx(fv * fv)
    assert h.value(point) == pytest.approx(fv * fv / 3.0)
    # subtraction would create a signomial: not provided at all
    assert not hasattr(f, "__sub__") or f.__sub__ is None


def test_posynomial_requires_terms():
    with pytest.raises(ValueError):
        Posynomial([])


@given(st.integers(1, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_monomial_bound_trio(n_terms, seed):
    """Bound, touch, and tangency of the local monomial under-approximation."""
    rng = np.random.default_rng(seed)
    names = ["a", "b", "c"]
    terms = [Monomial(float(rng.uniform(0.1, 3.0)),
                      {v: float(rng.uniform(-2, 2)) for v in names})
             for _ in range(n_terms)]
    f = Posynomial(terms)
    x0 = {v: float(rng.uniform(0.2, 4.0)) for v in names}
    tilde = monomial_lower_bound(f, x0)

    assert tilde.value(x0) == pytest.approx(f.value(x0), rel=1e-10)  # touch
    for _ in range(40):  # bound on random positive points
        x = {v: float(rng.uniform(0.05, 20.0)) for v in names}
        assert tilde.value(x) <= f.value(x) * (1 + 1e-9)
    for v in names:  # tangency via central differences
        h = 1e-6 * x0[v]
        up = dict(x0, **{v: x0[v] + h})
        dn = dict(x0, **{v: x0[v] - h})
        df = (f.value(up) - f.value(dn)) / (2 * h)
        dt = (tilde.value(up) - tilde.value(dn)) / (2 * h)
        scale = max(abs(df), abs(dt), 1e-9)
        assert abs(df - dt) / scale < 1e-4


def test_monomial_bound_single_term_is_identity():
    f = as_posynomial(Monomial(2.5, {"x": 1.5, "y": -0.5}))
    tilde = monomial_lower_bound(f, {"x": 2.0, "y": 3.0})
    assert tilde.coeff == pytest.approx(2.5)
    assert tilde.exponents == {"x": 1.5, "y": -0.5}


def test_monomial_bound_hand_case():
    x = variable("x")
    tilde = monomial_lower_bound(as_posynomial(1.0 + x), {"x": 1.0})
    assert tilde.value({"x": 1.0}) == pytest.approx(2.0)
    assert tilde.value({"x": 4.0}) == pytest.approx(4.0)  # 2*sqrt(4) <= 5
    assert tilde.exponents["x"] == pytest.approx(0.5)


def test_monomial_bound_rejects_nonpositive_point():
    with pytest.raises(ValueError):
        monomial_lower_bound(as_posynomial(1.0 + variable("x")), {"x": 0.0})


# --- gp_solve -------------------------------------------------------------------

def _solve_from_phase_one(gp, settings=None):
    """gp_solve from the oracle's phase-1 start."""
    return gp_solve(gp, settings, initial=phase_one.start(gp))


def test_gp_analytic_reciprocal():
    x = variable("x")
    sol = _solve_from_phase_one(program(as_posynomial(x), [as_posynomial(x ** -1.0)],
                                        bounds={"x": (1e-3, 1e3)}))
    assert sol.values["x"] == pytest.approx(1.0, rel=1e-6)
    assert sol.status == "optimal"


def test_gp_analytic_separable():
    x, y = variable("x"), variable("y")
    sol = _solve_from_phase_one(program(
        as_posynomial(x**-1.0 * y**-1.0), [as_posynomial(x / 2.0), as_posynomial(y / 3.0)],
        bounds={"x": (1e-3, 1e3), "y": (1e-3, 1e3)}))
    assert sol.values["x"] == pytest.approx(2.0, rel=1e-6)
    assert sol.values["y"] == pytest.approx(3.0, rel=1e-6)
    assert sol.objective == pytest.approx(1.0 / 6.0, rel=1e-6)


def test_gp_solution_reports_compiled_size():
    """GPSolution counts the compiled columns, constraint segments and
    terms: by hand, 2 variables, 2 constraints and 1 + 3 terms here."""
    x, y = variable("x"), variable("y")
    gp = program(as_posynomial(x**-1.0 * y**-1.0),
                 [as_posynomial(x / 2.0), as_posynomial(y / 3.0 + x / 4.0)],
                 bounds={"x": (1e-3, 1e3), "y": (1e-3, 1e3)})
    sol = gp_solve(gp, initial={"x": 1.0, "y": 1.0})
    assert (sol.num_variables, sol.num_constraints, sol.num_terms) == (2, 2, 4)


def test_geometric_program_takes_factors_only():
    """The objective and the constraints are Factors; anything else, and the
    posynomial keyword posy_constraints, raises TypeError. The constraints
    default to none."""
    objective = factors([variable("x")])
    with pytest.raises(TypeError, match="objective must be Factors"):
        GeometricProgram(objective=as_posynomial(variable("x")))
    with pytest.raises(TypeError, match="constraints must be Factors"):
        GeometricProgram(objective=objective, constraints=[as_posynomial(variable("x"))])
    with pytest.raises(TypeError):
        GeometricProgram(objective=objective, posy_constraints=[as_posynomial(variable("x"))])
    gp = GeometricProgram(objective=objective, bounds={"x": (1.0, 2.0)})
    assert gp.constraints.ptr.tolist() == [0] and gp.variables() == ["x"]


def test_gp_solution_reports_its_wall_times():
    """compile_s (Factors to stack) and newton_s (the primal-dual
    iterations) are non-negative and add up to at most the call's wall
    time."""
    gp, *_ = _random_gp(0)
    start = phase_one.start(gp)
    t0 = time.perf_counter()
    sol = gp_solve(gp, initial=start)
    wall = time.perf_counter() - t0
    assert sol.compile_s >= 0.0 and sol.newton_s >= 0.0
    assert sol.compile_s + sol.newton_s <= wall


def _box_corner_gp():
    """No posynomial constraints: min x/y sits on x's lower and y's upper bound."""
    x, y = variable("x"), variable("y")
    gp = program(as_posynomial(x * y ** -1.0), bounds={"x": (0.5, 4.0), "y": (0.25, 8.0)})
    return gp, {"x": 0.5, "y": 8.0}, 0.5 / 8.0


_PHASE_ONE_CONSTRAINT = as_posynomial(4.0 * variable("x") ** -1.0 * variable("y") ** -1.0)


def _phase_one_gp():
    """min x + y s.t. 4/(xy) <= 1: the box center (1, 1) violates the
    constraint, so phase 1 must find the start; AM-GM gives x = y = 2."""
    x, y = variable("x"), variable("y")
    gp = program(as_posynomial(x + y), [_PHASE_ONE_CONSTRAINT],
                 bounds={"x": (0.01, 100.0), "y": (0.01, 100.0)})
    assert _PHASE_ONE_CONSTRAINT.value({"x": 1.0, "y": 1.0}) > 1.0
    return gp, {"x": 2.0, "y": 2.0}, 4.0


def _product_gp():
    """min (x + 1/x)(y + 4/y): the factors share no variable, so each sits at
    its own AM-GM minimum, 2 at x = 1 and 4 at y = 2."""
    x, y = variable("x"), variable("y")
    gp = program([x + x ** -1.0, y + 4.0 * y ** -1.0],
                 bounds={"x": (1e-2, 1e2), "y": (1e-2, 1e2)})
    return gp, {"x": 1.0, "y": 2.0}, 8.0


@pytest.mark.parametrize("build", [_box_corner_gp, _phase_one_gp, _product_gp],
                         ids=["empty-stack-box-corner", "phase-one", "product-objective"])
def test_gp_box_closed_form_optima(build):
    gp, point, optimum = build()
    sol = _solve_from_phase_one(gp)
    assert sol.objective == pytest.approx(optimum, rel=1e-6)
    for var, value in point.items():
        assert sol.values[var] == pytest.approx(value, rel=1e-6)
        lo, hi = gp.bounds[var]
        assert lo < sol.values[var] < hi


def test_gp_infeasible_certificate():
    """The oracle's phase 1 proves x <= 0.5 and x >= 2 infeasible with a
    positive slack minimum."""
    x = variable("x")
    with pytest.raises(GPInfeasibleError) as err:
        phase_one.start(program(as_posynomial(x),
                                [as_posynomial(x / 0.5), as_posynomial(2.0 * x**-1.0)],
                                bounds={"x": (1e-3, 1e3)}))
    assert err.value.margin > 0


def test_gp_iteration_limit():
    x = variable("x")
    settings = SolverSettings(max_iter=3)
    with pytest.raises(GPSolverError):
        _solve_from_phase_one(program(as_posynomial(x + x**-1.0), [as_posynomial(x / 5.0)],
                                      bounds={"x": (1e-3, 1e3)}), settings)


def test_gp_missing_bounds_rejected():
    """A variable without bounds is rejected, whether the objective names it
    as a posynomial or as Factors built from arrays."""
    x, y = variable("x"), variable("y")
    arrays = Factors(ptr=[0, 1], log_coeff=[0.0], term=[0, 0], var=[0, 1],
                     exp=[1.0, 1.0], names=("x", "y"))
    for objective in (factors([x * y]), arrays):
        with pytest.raises(ValueError, match="variables without bounds"):
            gp_solve(GeometricProgram(objective=objective, bounds={"x": (1e-3, 1e3)}),
                     initial={"x": 1.0, "y": 1.0})


@pytest.mark.parametrize("fields, message", [
    ({"ptr": [0, 1, 1]}, "at least one term"),
    ({"log_coeff": [math.inf]}, "finite"),
    ({"exp": [math.nan]}, "finite"),
    ({"ptr": [0], "log_coeff": [], "term": [], "var": [], "exp": []}, "at least one factor"),
    ({"var": [-1]}, "var must lie in"),
    ({"var": [1]}, "var must lie in"),
    ({"term": [-1]}, "term must lie in"),
    ({"term": [1]}, "term must lie in"),
    ({"ptr": [1, 1]}, "ptr must start at 0"),
    ({"ptr": [0, 2]}, "ptr must start at 0 and end at len"),
    ({"ptr": []}, "ptr must start at 0"),
    ({"exp": [1.0, 2.0]}, "term, var and exp"),
    ({"var": []}, "term, var and exp"),
], ids=["empty-factor", "infinite-coefficient", "nan-exponent", "no-factor",
        "negative-var", "var-past-names", "negative-term", "term-past-coefficients",
        "ptr-not-from-0", "ptr-past-coefficients", "no-ptr", "long-exp", "short-var"])
def test_factors_reject_malformed_arrays(fields, message):
    """Factors, the only input form of a GP, reject malformed arrays with a
    message naming the field: no empty factor, no non-finite coefficient or
    exponent, an objective with a factor, every term and var index in
    range, ptr from 0 to len(log_coeff), and one term, var and exp entry
    per nonzero. A negative var would otherwise wrap to the last name."""
    arrays = dict(ptr=[0, 1], log_coeff=[0.0], term=[0], var=[0], exp=[1.0], names=("x",))
    with pytest.raises(ValueError, match=message):
        GeometricProgram(objective=Factors(**{**arrays, **fields}), bounds={"x": (1.0, 2.0)})


@pytest.mark.parametrize("point, on_constraint", [
    ({"x": 200.0, "y": 2.0}, False),              # outside x's box
    ({"x": 2.0, "y": 2.0}, True),                 # 4/(xy) = 1 exactly
    ({"x": 2.0 * (1.0 + 1e-13), "y": 2.0}, False),  # inside by about 1e-13 in log space
], ids=["outside-box", "on-constraint", "inside-by-less-than-1e-12"])
def test_gp_solve_rejects_start_not_strictly_inside(point, on_constraint, monkeypatch):
    """A start that is not inside every constraint and both sides of the
    box by more than 1e-12 in log space raises GPSolverError, and no solve
    runs from anywhere else."""
    gp, _, _ = _phase_one_gp()
    value = _PHASE_ONE_CONSTRAINT.value(point)
    assert value == 1.0 if on_constraint else value < 1.0

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(gp_module, "_primal_dual", no_solve)
    with pytest.raises(GPSolverError, match="not strictly feasible"):
        gp_solve(gp, initial=point)


def _random_gp(seed):
    """Three variables, mixed-sign exponents in the objective, one coupling
    constraint; optimum away from degenerate corners. Returns the program,
    its bounds, its objective posynomial and its constraint posynomials."""
    rng = np.random.default_rng(seed)
    names = ["x", "y", "z"]
    obj_terms = []
    for _ in range(3):
        obj_terms.append(Monomial(float(rng.uniform(0.5, 2.0)),
                                  {v: float(rng.uniform(-1.5, 1.5)) for v in names}))
    coupling = Posynomial([
        Monomial(float(rng.uniform(0.2, 0.6)), {"x": 1.0, "y": float(rng.uniform(0.2, 1.0))}),
        Monomial(float(rng.uniform(0.2, 0.6)), {"z": 1.0}),
        Monomial(float(rng.uniform(0.05, 0.2)), {"y": -1.0}),
    ])
    bounds = {v: (0.05, 20.0) for v in names}
    objective = Posynomial(obj_terms)
    return program(objective, [coupling], bounds), bounds, objective, [coupling]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gp_matches_grid_refinement_oracle(seed):
    gp, bounds, objective, constraints = _random_gp(seed)
    sol = _solve_from_phase_one(gp)

    names = sorted(bounds)
    lo = [bounds[v][0] for v in names]
    hi = [bounds[v][1] for v in names]

    def neg_obj(x):
        point = dict(zip(names, x))
        if any(c.value(point) > 1.0 for c in constraints):
            return -np.inf
        return -objective.value(point)

    _, best = refine_maximize(neg_obj, lo, hi, rounds=45, pts=13)
    oracle_obj = -best
    assert sol.objective == pytest.approx(oracle_obj, rel=1e-4)
    point = sol.values
    assert all(c.value(point) <= 1.0 + 1e-6 for c in constraints)


def test_gp_log_space_convexity_certificate():
    """Numerical Hessians of log f(exp y) at the solution are PSD."""
    gp, _, objective, constraints = _random_gp(5)
    sol = _solve_from_phase_one(gp)
    y0 = {v: np.log(val) for v, val in sol.values.items()}
    names = sorted(y0)

    def logf(f, y):
        return np.log(f.value({v: np.exp(y[v]) for v in names}))

    for f in [objective, *constraints]:
        n = len(names)
        hess = np.zeros((n, n))
        h = 1e-4
        base = logf(f, y0)
        for i, vi in enumerate(names):
            for j, vj in enumerate(names):
                ypp = dict(y0); ypp[vi] += h; ypp[vj] += h
                ypm = dict(y0); ypm[vi] += h; ypm[vj] -= h
                ymp = dict(y0); ymp[vi] -= h; ymp[vj] += h
                ymm = dict(y0); ymm[vi] -= h; ymm[vj] -= h
                hess[i, j] = (logf(f, ypp) - logf(f, ypm) - logf(f, ymp)
                              + logf(f, ymm)) / (4 * h * h)
        eigs = np.linalg.eigvalsh((hess + hess.T) / 2)
        assert eigs.min() > -1e-6


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_primal_dual_matches_barrier_path_oracle(seed):
    """The primal-dual solve certifies its result and reaches the log
    objective of the oracle's barrier path, run to the same gap target from
    the same phase-1 start, to 1e-8 relative (absolute below 1, the gap's
    scale)."""
    gp, *_ = _random_gp(seed)
    solver_settings = SolverSettings()
    start = phase_one.start(gp, solver_settings)
    sol = gp_solve(gp, solver_settings, initial=start)
    assert sol.status == "optimal"
    assert sol.duality_gap <= solver_settings.tol
    assert sol.dual_residual <= solver_settings.feas_tol

    variables, var_index, box = gp_module._compile_gp(gp)
    cons = gp_module._stack_from_factors(var_index, gp.constraints)
    obj = gp_module._stack_from_factors(var_index, gp.objective)
    y0 = np.array([math.log(start[v]) for v in variables])
    y, _ = phase_one.barrier_path(obj, cons, box, y0, solver_settings,
                                  gap_target=solver_settings.tol)
    want = obj.values(y)[0].sum()
    assert abs(sol.log_objective - want) <= 1e-8 * max(1.0, abs(want))


# --- log-sum-exp stack -------------------------------------------------------------

def _assert_close(got, want, scale):
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, scale)


def _assert_stack_matches(stack, oracle, rng):
    """values, gradients and weighted Hessian of `stack` at a random point
    against the sparse-matrix oracle, to 1e-12 of each quantity's scale."""
    y = rng.normal(size=stack.n)
    f, w = stack.values(y)
    f_ref, w_ref = oracle.values(y)
    _assert_close(f, f_ref, np.abs(f_ref).max(initial=0.0))
    _assert_close(w, w_ref, 1.0)
    grads = stack.gradients(w)
    grads_ref = oracle.gradients(w_ref)
    _assert_close(grads, grads_ref, np.abs(grads_ref).max(initial=0.0))
    seg_scale = rng.uniform(0.1, 10.0, size=stack.m)
    h1, h2 = oracle.hessian_terms(w_ref, seg_scale, grads_ref)
    g = grads[stack.curved]
    hess = stack.pair_hessian(w, seg_scale) - g.T @ (seg_scale[stack.curved, None] * g)
    _assert_close(hess, h1 - h2, np.abs(h1).max(initial=0.0))
    return hess


def _random_stack(rng, dense=False):
    """A random stack and its sparse-matrix oracle: affine and curved
    segments, a row with no nonzeros (a constant term) and an unused column,
    or with dense=True an LP-style stack of affine rows."""
    n = int(rng.integers(1, 9))
    if dense:
        sizes = np.ones(int(rng.integers(1, 12)), dtype=int)
        E = rng.normal(size=(sizes.size, n))
    else:
        sizes = rng.permutation(np.concatenate([
            [1, rng.integers(2, 5)], rng.choice([1, 2, 3, 5], size=rng.integers(0, 5))]))
        E = rng.uniform(-2.0, 2.0, size=(sizes.sum(), n))
        E[rng.random(E.shape) < 0.4] = 0.0
        E[rng.integers(E.shape[0])] = 0.0      # a constant term
        E[:, rng.integers(n)] = 0.0            # an unused column
    ptr = np.concatenate([[0], np.cumsum(sizes)])
    d = rng.normal(size=E.shape[0])
    row, col = np.nonzero(E)
    shuffle = rng.permutation(row.size)
    row, col = row[shuffle], col[shuffle]
    return gp_module._Stack(row, col, E[row, col], d, ptr, n), SparseStack(E, d, ptr)


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_stack_matches_sparse_oracle(seed, dense):
    """Random stacks against the scipy.sparse formulas: affine and curved
    segments, rows with no nonzeros (constant terms), unused columns, or a
    dense LP-style stack of affine rows, whose Hessian is exactly zero."""
    rng = np.random.default_rng(seed)
    stack, oracle = _random_stack(rng, dense)
    hess = _assert_stack_matches(stack, oracle, rng)
    if dense:
        assert np.all(hess == 0.0)


def _first_newton_system(rng):
    """Random objective and constraint stacks over the same columns, each
    with curved and affine segments and a row of no nonzeros, their oracles,
    a box, and the first primal-dual Newton system on the two as one stack,
    objective first, from a strictly feasible point: (obj, con, their
    oracles, box, y, lam, t, hess, grad, dual residual norm). The system is
    the one _primal_dual hands _newton_step; the residual is the one it
    returns when every tolerance is infinite."""
    con, con_oracle = _random_stack(rng)
    while True:
        obj, obj_oracle = _random_stack(rng)
        if obj.n == con.n:
            break
    y = rng.normal(size=con.n)
    f, _ = con.values(y)
    # shift each constraint's offsets so that f(y) = -margin
    con.d -= np.repeat(f + rng.uniform(0.05, 2.0, size=con.m), np.diff(con.ptr))
    box = (y - rng.uniform(0.2, 3.0, size=con.n), y + rng.uniform(0.2, 3.0, size=con.n))
    stack = gp_module._Stack(np.concatenate([obj.row, con.row + obj.d.size]),
                             np.concatenate([obj.col, con.col]),
                             np.concatenate([obj.val, con.val]),
                             np.concatenate([obj.d, con.d]),
                             np.concatenate([obj.ptr, con.ptr[1:] + obj.d.size]), con.n)
    solver_settings = SolverSettings()
    f_all = np.concatenate([con.values(y)[0], y - box[1], box[0] - y])
    lam = 1.0 / (gp_module.BARRIER_T0 * -f_all)
    t = solver_settings.barrier_mu * f_all.size / float(-f_all @ lam)

    seen = []

    def capture(hess, grad):
        seen.append((hess, grad))
        raise StopIteration

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp_module, "_newton_step", capture)
        with pytest.raises(StopIteration):
            gp_module._primal_dual(stack, obj.m, box, y, solver_settings)
    ((hess, grad),) = seen
    at_start = gp_module._primal_dual(stack, obj.m, box, y,
                                      SolverSettings(tol=math.inf, feas_tol=math.inf))
    assert at_start[1] == 0
    return obj, con, obj_oracle, con_oracle, box, y, lam, t, hess, grad, at_start[3]


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_newton_matrix_matches_three_term_oracle(seed):
    """The primal-dual Newton matrix, one pair map and one dense product on
    one stack, against its three-term formula: random objective and
    constraint stacks sharing their columns, both mixing affine and curved
    segments with a row of no nonzeros. Agreement to 1e-12 of the terms'
    scale."""
    rng = np.random.default_rng(seed)
    obj, con, obj_oracle, con_oracle, box, y, lam, _, got, _, _ = _first_newton_system(rng)
    mc, nb = con.m, box[0].size
    _, w0 = obj.values(y)
    _, w = con.values(y)
    grads0, grads = obj.gradients(w0), con.gradients(w)
    f_all = np.concatenate([con.values(y)[0], y - box[1], box[0] - y])
    u = lam / -f_all
    want = newton_matrix(obj_oracle, con_oracle, w0, grads0, w, grads, lam[:mc], u[:mc])
    want[np.arange(nb), np.arange(nb)] += u[mc:mc + nb] + u[mc + nb:]
    scale = max(np.abs(t).max(initial=0.0) for t in
                [*obj_oracle.hessian_terms(w0, np.ones(obj.m), grads0),
                 *con_oracle.hessian_terms(w, lam[:mc], grads),
                 grads.T @ (u[:mc, None] * grads), u[mc:]])
    _assert_close(got, want, scale)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_one_stack_newton_system_matches_two_stack_oracle(seed):
    """The Newton matrix, right-hand side and dual residual that
    _primal_dual forms on one stack equal the two-stack formulas they
    replaced, to 1e-12 of each quantity's scale, on random stacks with
    curved and affine segments in the objective and in the constraints."""
    rng = np.random.default_rng(seed)
    obj, con, _, _, box, y, lam, t, hess, grad, residual = _first_newton_system(rng)
    hess_want, grad_want, r_want = two_stack_newton_system(obj, con, box, y, lam, t)
    _assert_close(hess, hess_want, np.abs(hess_want).max())
    _assert_close(grad, grad_want, np.abs(grad_want).max())
    want = math.sqrt(r_want @ r_want)
    assert abs(residual - want) <= 1e-12 * max(1.0, want)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_boundary_step_stays_inside_and_reaches_half_way(seed):
    """On a random convex stack with a box, from a strictly feasible point
    along a random direction: the boundary step keeps every constraint and
    box side strictly negative, returns the stack's values there, and is at
    least half the largest feasible step up to the cap, found by bisection."""
    rng = np.random.default_rng(seed)
    stack, _ = _random_stack(rng)
    y = rng.normal(size=stack.n)
    f, _ = stack.values(y)
    # shift each segment's offsets so that f(y) = -margin
    stack.d -= np.repeat(f + rng.uniform(0.05, 2.0, size=stack.m), np.diff(stack.ptr))
    f, w = stack.values(y)
    lo, hi = y - rng.uniform(0.2, 3.0, size=stack.n), y + rng.uniform(0.2, 3.0, size=stack.n)
    step = rng.normal(size=stack.n) * rng.uniform(0.5, 8.0)
    cap = float(rng.uniform(0.1, 1.0))
    f_all = np.concatenate([f, y - hi, lo - y])
    df = np.concatenate([stack.gradients(w) @ step, step, -step])

    def inside(s):
        point = y + s * step
        return bool(np.all(stack.values(point)[0] < 0.0) and np.all(point < hi)
                    and np.all(point > lo))

    s, (f_s, w_s) = gp_module._boundary_step(stack, 0, y, step, f_all, df, cap)
    assert 0.0 < s <= cap and inside(s)
    f_ref, w_ref = stack.values(y + s * step)
    assert np.array_equal(f_s, f_ref) and np.array_equal(w_s, w_ref)

    feasible, infeasible = (cap, cap) if inside(cap) else (0.0, cap)
    while infeasible - feasible > 1e-12 * cap:
        mid = 0.5 * (feasible + infeasible)
        feasible, infeasible = (mid, infeasible) if inside(mid) else (feasible, mid)
    assert s >= 0.5 * feasible


def test_boundary_step_reaches_half_way_past_a_sharp_kink():
    """f = log(exp(-1) + exp(100 y - 50)) is flat at y = 0 and steep past
    its kink, so the quadratic through f, its slope and its value at the
    trial puts the root at 0.14, short of the true 0.495; the step still
    reaches half of it."""
    stack = gp_module._Stack([1], [0], [100.0], [-1.0, -50.0], [0, 2], 1)
    y, step = np.zeros(1), np.ones(1)
    f, w = stack.values(y)
    f_all = np.concatenate([f, y - 10.0, -10.0 - y])
    df = np.concatenate([stack.gradients(w) @ step, step, -step])
    s, _ = gp_module._boundary_step(stack, 0, y, step, f_all, df, 1.0)
    root = (50.0 + math.log(1.0 - math.exp(-1.0))) / 100.0
    assert 0.5 * root <= s < root

@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_phase_one_epigraph_appends_dense_slack_column(seed):
    """The oracle's phase-1 stack equals the constraint stack with a -1
    column appended densely, the slack's exponent in every term."""
    rng = np.random.default_rng(seed)
    names = ["a", "b", "c", "d"]
    x_star = {v: float(rng.uniform(0.5, 2.0)) for v in names}
    cons = []
    for _ in range(int(rng.integers(1, 5))):
        posy = Posynomial([
            Monomial(float(rng.uniform(0.1, 3.0)),
                     {v: float(rng.uniform(-2.0, 2.0)) for v in names if rng.random() < 0.6})
            for _ in range(int(rng.integers(1, 4)))])
        cons.append(posy / (2.0 * posy.value(x_star)))  # 1/2 at x_star: feasible
    gp = program(variable("a"), cons, bounds={v: (0.1, 10.0) for v in names})
    _, var_index, box = gp_module._compile_gp(gp)
    con_stack = gp_module._stack_from_factors(var_index, gp.constraints)

    seen = []
    barrier_path = phase_one.barrier_path

    def spy(obj_stack, epigraph, *args, **kwargs):
        seen.append(epigraph)
        return barrier_path(obj_stack, epigraph, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phase_one, "barrier_path", spy)
        phase_one.feasible_start(con_stack, box, SolverSettings())
    (epigraph,) = seen

    E = np.zeros((con_stack.d.size, len(names)))
    E[con_stack.row, con_stack.col] = con_stack.val
    slack = -np.ones((E.shape[0], 1))
    oracle = SparseStack(np.hstack([E, slack]), con_stack.d, con_stack.ptr)
    _assert_stack_matches(epigraph, oracle, rng)


# --- lp_feasible -----------------------------------------------------------------

def test_lp_feasible_trivial_cases():
    ok = lp_feasible(LinearFeasibilityProblem(a=[[1.0]], c=[1.0], upper=[1.0]))
    assert ok.feasible and ok.witness[0] <= 1.0 + 1e-9

    bad = lp_feasible(LinearFeasibilityProblem(a=[[1.0]], c=[-1.0], upper=[1.0]))
    assert not bad.feasible
    assert bad.margin == pytest.approx(1.0, rel=1e-6)


@given(st.integers(1, 15), st.integers(1, 8), st.booleans(), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_lp_barrier_matches_general_path_oracle(m, n, feasible, seed):
    """lp_feasible's slack-only barrier path is the general path with the
    slack objective as a stack, bit for bit: witness, margin and verdict
    equal the oracle's, from the same start with the LP_* constants. A
    feasible LP keeps a random box point strictly inside every row; an
    infeasible one has a first row that no point of the box satisfies, and
    the verdict says which."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    upper = rng.uniform(0.5, 2.0, size=n)
    c = a @ rng.uniform(0.0, upper) + rng.uniform(0.01, 1.0, size=m)
    if not feasible:
        c[0] = np.minimum(a[0] * upper, 0.0).sum() - rng.uniform(0.01, 1.0)
    lp = LinearFeasibilityProblem(a, c, upper)
    got, want = lp_feasible(lp), phase_one.lp_feasible(lp)
    assert got.feasible == want.feasible
    assert np.array_equal(got.witness, want.witness)
    assert got.margin == want.margin
    assert got.feasible == feasible


def _vertex_enumeration_feasible(a, c, upper):
    """Tiny-instance oracle: an LP over a box is feasible iff some vertex of
    a fine sub-box lattice or any constraint-plane intersection point is
    feasible; for robustness we use a dense lattice over the box."""
    grids = [np.linspace(0.0, u, 23) for u in upper]
    for x in itertools.product(*grids):
        if np.all(a @ np.array(x) <= c + 1e-12):
            return True
    return False


@pytest.mark.parametrize("seed", range(8))
def test_lp_feasible_matches_enumeration_oracle(seed):
    rng = np.random.default_rng(seed)
    n, m = 3, 10
    a = rng.normal(size=(m, n))
    upper = rng.uniform(0.5, 2.0, size=n)
    c = rng.normal(loc=0.3, scale=0.8, size=m)
    got = lp_feasible(LinearFeasibilityProblem(a, c, upper))
    oracle = _vertex_enumeration_feasible(a, c, upper)
    if got.feasible != oracle:
        # lattice oracle can miss thin feasible slivers; then the solver must
        # hold a genuine witness
        assert got.feasible and np.all(a @ got.witness <= c + 1e-6)
    if got.feasible:
        assert np.all(a @ got.witness <= c + 1e-6 * np.abs(c).clip(1.0))


def test_lp_feasible_scale_invariance():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 3))
    c = rng.normal(size=6)
    upper = np.ones(3)
    base = lp_feasible(LinearFeasibilityProblem(a, c, upper))
    scales = np.array([1e-6, 1e4, 3.0, 1.0, 42.0, 7e-3])
    scaled = lp_feasible(LinearFeasibilityProblem(a * scales[:, None], c * scales, upper))
    assert base.feasible == scaled.feasible


def test_lp_rejects_bad_inputs():
    with pytest.raises(ValueError):
        LinearFeasibilityProblem(a=[[np.inf]], c=[1.0], upper=[1.0])
    with pytest.raises(ValueError):
        LinearFeasibilityProblem(a=[[1.0]], c=[1.0], upper=[0.0])
