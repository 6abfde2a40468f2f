"""Oracle: the general log-barrier path of `mimo_d2d.gp` and the GP phase 1.

`gp_solve` takes its strictly feasible start from the caller, and the
source's barrier path serves only `lp_feasible`, whose objective is the
slack coordinate and whose rows are affine. This module keeps the general
path: a central path for `min t * (sum of an objective stack's segments)`
plus the log barrier of a constraint stack and a box, whose Newton matrix
is three terms, the objective's and the constraints' Hessians and the
constraints' gradient outer products. On it sit

* phase 1 (Boyd & Vandenberghe, *Convex Optimization*, section 11.4): the
  start of an arbitrary GP, minimizing a slack s subject to f_i(y) - s <= 0
  inside the box, stopped at its first strictly feasible point;
* `lp_feasible` as the source had it on the general path, with the slack
  objective as a one-entry stack: the source's LP path must match it bit
  for bit.
"""

import math

import numpy as np

from mimo_d2d import gp as gp_module
from mimo_d2d.gp import (ARMIJO, BACKTRACK, BARRIER_T0, LP_FEAS_TOL, LP_GAP,
                         LP_MAX_ITER, LP_MU, NEWTON_TOL, GPInfeasibleError,
                         GPSolverError, LPFeasibility, SolverSettings)


class PhaseOneInfeasible(GPInfeasibleError):
    """Phase 1 found no strictly feasible point; `margin` is its slack minimum."""

    def __init__(self, message, margin):
        super().__init__(message)
        self.margin = margin


def stack_hessian(stack, weights, seg_scale, grads):
    """sum_i seg_scale[i] * Hess f_i as a dense matrix: the pair map less the
    curved segments' gradient outer products."""
    g = grads[stack.curved]
    return stack.pair_hessian(weights, seg_scale) - g.T @ (seg_scale[stack.curved, None] * g)


def slack_objective(s_col):
    """The objective s as a one-entry stack over s_col + 1 variables."""
    return gp_module._Stack([0], [s_col], [1.0], [0.0], [0, 1], s_col + 1)


def newton_centering(obj_stack, con_stack, box, y, t, budget, at_y=None, early_exit=None):
    """Minimize t*f0 + barrier at fixed t, where f0 sums the objective
    stack's segments. at_y is (f, w, w0, f0), both stacks' values at y as
    the previous centering returned them; None evaluates them. Stops on the
    decrement test, the caller's early exit, a line-search stall or the
    per-centering step cap; returns the point and the values there."""
    lo, hi = box
    nb = lo.size
    diag = np.arange(nb)
    ones = np.ones(obj_stack.m)

    def stack_values(point):
        """Both stacks' values at point; None outside the barrier's domain."""
        f, w = con_stack.values(point)
        x = point[:nb]
        if np.any(f >= 0.0) or np.any(x >= hi) or np.any(x <= lo):
            return None
        f0, w0 = obj_stack.values(point)
        return f, w, w0, f0

    def barrier_value(point, at):
        if at is None:
            return np.inf
        f, _, _, f0 = at
        x = point[:nb]
        return (t * f0.sum() - np.log(-f).sum()
                - np.log(hi - x).sum() - np.log(x - lo).sum())

    at_y = at_y or stack_values(y)
    phi = barrier_value(y, at_y)
    for _ in range(100):
        f_con, w, w0, _ = at_y
        budget.spend()
        grads0 = obj_stack.gradients(w0)
        grads = con_stack.gradients(w)
        u = 1.0 / (-f_con)
        grad = t * grads0.sum(axis=0) + grads.T @ u
        hess = (t * stack_hessian(obj_stack, w0, ones, grads0)
                + stack_hessian(con_stack, w, u, grads)
                + grads.T @ ((u * u)[:, None] * grads))
        u_hi, u_lo = 1.0 / (hi - y[:nb]), 1.0 / (y[:nb] - lo)
        grad[:nb] += u_hi - u_lo
        hess[diag, diag] += u_hi * u_hi + u_lo * u_lo

        step = gp_module._newton_step(hess, grad)
        decrement = -grad @ step
        if decrement / 2.0 <= NEWTON_TOL * max(1.0, t):
            break
        alpha = 1.0
        while True:
            cand = y + alpha * step
            at_cand = stack_values(cand)
            phi_cand = barrier_value(cand, at_cand)
            if phi_cand <= phi - ARMIJO * alpha * decrement:
                y, phi, at_y = cand, phi_cand, at_cand
                break
            alpha *= BACKTRACK
            if alpha < 1e-14:
                return y, at_y
        if early_exit is not None and early_exit(y):
            break
    return y, at_y


def barrier_path(obj_stack, con_stack, box, y0, settings, gap_target, early_exit=None):
    """Follow the central path until the gap target m/t <= gap_target or
    the caller's early exit; m counts the stack's constraints and both sides
    of the box. Reads settings.barrier_mu and settings.max_iter. Returns the
    point and the Newton steps."""
    budget = gp_module._BarrierBudget(settings.max_iter)
    y = np.array(y0, dtype=float)
    if not gp_module._strictly_inside(con_stack.values(y)[0], box, y, 0.0):
        raise GPSolverError("barrier start point is not strictly feasible")
    if early_exit is not None and early_exit(y):
        return y, 0
    m = con_stack.m + 2 * box[0].size
    t = BARRIER_T0
    at_y = None
    while True:
        y, at_y = newton_centering(obj_stack, con_stack, box, y, t, budget,
                                   at_y=at_y, early_exit=early_exit)
        if (early_exit is not None and early_exit(y)) or m / t <= gap_target:
            return y, budget.used
        t *= settings.barrier_mu


def feasible_start(cons, box, settings):
    """Strictly feasible log-space point of the constraint stack cons and the
    box by phase 1, and its Newton steps. The slack enters every term of
    every segment with exponent -1 (the epigraph stack)."""
    y_lo, y_hi = box
    n = y_lo.size
    center = (y_lo + y_hi) / 2.0
    if not cons.m:
        return center, 0

    terms = np.arange(cons.d.size)
    epigraph = gp_module._Stack(np.concatenate([cons.row, terms]),
                                np.concatenate([cons.col, np.full(terms.size, n)]),
                                np.concatenate([cons.val, np.full(terms.size, -1.0)]),
                                cons.d, cons.ptr, n + 1)
    f_init, _ = cons.values(center)
    y0 = np.concatenate([center, [max(f_init.max(), 0.0) + 1.0]])

    def feasible_now(point):
        vals, _ = cons.values(point[:n])
        return vals.max() < -1e-7

    y, used = barrier_path(slack_objective(n), epigraph, box, y0, settings,
                           gap_target=min(settings.tol, 1e-9), early_exit=feasible_now)
    if not feasible_now(y):
        raise PhaseOneInfeasible("geometric program is infeasible "
                                 f"(phase-1 slack minimum {y[-1]:.3e} > 0)", float(y[-1]))
    return y[:n], used


def start(gp, settings=None):
    """A strictly feasible start of the geometric program gp, per variable,
    as gp_solve takes it."""
    variables, var_index, box = gp_module._compile_gp(gp)
    cons = gp_module._stack_from_factors(var_index, gp.constraints)
    y, _ = feasible_start(cons, box, settings or SolverSettings())
    return {v: math.exp(y[i]) for v, i in var_index.items()}


def lp_feasible(lp):
    """lp_feasible on the general barrier path: the slack objective as a
    stack, the LP_* constants as SolverSettings."""
    m, n = lp.a.shape
    scale = np.maximum.reduce([np.abs(lp.a) @ lp.upper, np.abs(lp.c), np.ones(m)])
    a = lp.a / scale[:, None]
    c = lp.c / scale
    if m == 0:
        return LPFeasibility(True, lp.upper / 2.0, -1.0)

    a_s = np.hstack([a, -np.ones((m, 1))])
    nz_row, nz_col = np.nonzero(a_s)
    rows = gp_module._Stack(nz_row, nz_col, a_s[nz_row, nz_col], -c, np.arange(m + 1), n + 1)
    box = (np.zeros(n), lp.upper)
    x0 = lp.upper / 2.0
    s0 = max(float((a @ x0 - c).max()), 0.0) + 1.0

    def strictly_ok(point):
        return float((a @ point[:n] - c).max()) <= -10.0 * LP_FEAS_TOL

    y, _ = barrier_path(slack_objective(n), rows, box, np.concatenate([x0, [s0]]),
                        SolverSettings(max_iter=LP_MAX_ITER, barrier_mu=LP_MU),
                        gap_target=LP_GAP, early_exit=strictly_ok)
    witness = y[:n]
    margin = float((a @ witness - c).max())
    return LPFeasibility(margin <= LP_FEAS_TOL, witness, margin)
