"""Self-contained optimization kernel: monomial/posynomial algebra,
geometric programs in standard form, and a linear-feasibility solver.

A geometric program here minimizes a product of posynomial factors subject
to posynomial constraints <= 1 inside a variable box. Its objective and its
constraints are held in one array form, Factors, which a caller builds from
arrays or converts from posynomials; every stack is compiled from that form.
After the substitution x = exp(y) the log of the objective is a sum of
log-sum-exp functions, one per factor, and every constraint is a log-sum-exp
<= 0; the resulting smooth convex program is minimized with a primal-dual
interior-point method from a strictly feasible start the caller supplies,
stopped by a certificate: the surrogate duality gap and the dual residual.
The objective and the constraints compile into one log-sum-exp stack,
objective segments first, so each Newton step evaluates one stack. The
linear-feasibility check minimizes its largest slack along a log-barrier
central path, with an early exit at its first strictly feasible point.
Both methods share the stacked log-sum-exp evaluation and the Newton solve.
"""

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)


class GPInfeasibleError(RuntimeError):
    """The model admits no feasible point, found before any solve (a user
    with no usable desired link)."""


class GPSolverError(RuntimeError):
    """A start point that is not strictly feasible, or a numerical failure
    (iteration limit, singular Newton system)."""


BARRIER_T0 = 1.0    # barrier parameter of the first centering, and of the initial duals
NEWTON_TOL = 1e-11  # centering stops once decrement / 2 <= NEWTON_TOL * max(1, t)
BACKTRACK = 0.5     # line-search step shrink factor
ARMIJO = 0.01       # line-search sufficient-decrease fraction
BOUNDARY = 0.99     # a primal-dual step stops this fraction of the way to the boundary

# lp_feasible's own settings, apart from the GP's SolverSettings
LP_FEAS_TOL = 1e-9   # scaled feasibility threshold
LP_GAP = 0.25 * LP_FEAS_TOL  # gap target of its barrier path
LP_MU = 10.0         # centering factor
LP_MAX_ITER = 500    # Newton-step budget


# --- posynomial algebra -----------------------------------------------------

def _clean_exponents(exponents):
    out = {}
    for var, exp in exponents.items():
        e = float(exp)
        if not math.isfinite(e):
            raise ValueError(f"non-finite exponent for {var}")
        if e != 0.0:
            out[str(var)] = e
    return out


@dataclass(frozen=True)
class Monomial:
    """coeff * prod(var ** exponent); coeff must be positive and finite."""

    coeff: float
    exponents: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.coeff) and self.coeff > 0.0):
            raise ValueError("monomial coefficient must be positive and finite")
        object.__setattr__(self, "exponents", _clean_exponents(self.exponents))

    def value(self, point):
        v = self.coeff
        for var, exp in self.exponents.items():
            v *= point[var] ** exp
        return v

    def __mul__(self, other):
        if isinstance(other, Monomial):
            exps = dict(self.exponents)
            for var, exp in other.exponents.items():
                exps[var] = exps.get(var, 0.0) + exp
            return Monomial(self.coeff * other.coeff, exps)
        if isinstance(other, (int, float)):
            return Monomial(self.coeff * other, self.exponents)
        if isinstance(other, Posynomial):
            return other * self
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Monomial):
            return self * other ** -1.0
        if isinstance(other, (int, float)):
            return Monomial(self.coeff / other, self.exponents)
        return NotImplemented

    def __pow__(self, power):
        power = float(power)
        return Monomial(self.coeff ** power,
                        {v: e * power for v, e in self.exponents.items()})

    def __add__(self, other):
        return Posynomial([self]) + other

    __radd__ = __add__


def variable(name) -> Monomial:
    return Monomial(1.0, {name: 1.0})


class Posynomial:
    """Sum of monomials; closed under addition, multiplication and division
    by a monomial. Anything that would produce a negative coefficient (a
    signomial) is rejected by construction."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(t if isinstance(t, Monomial) else Monomial(float(t)) for t in terms)
        if not terms:
            raise ValueError("posynomial needs at least one term")
        self.terms = terms

    def value(self, point):
        return sum(t.value(point) for t in self.terms)

    def variables(self):
        out = set()
        for t in self.terms:
            out.update(t.exponents)
        return out

    def __add__(self, other):
        if isinstance(other, Posynomial):
            return Posynomial(self.terms + other.terms)
        if isinstance(other, Monomial):
            return Posynomial(self.terms + (other,))
        if isinstance(other, (int, float)):
            if other == 0:
                return self
            return Posynomial(self.terms + (Monomial(float(other)),))
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Posynomial):
            return Posynomial([a * b for a in self.terms for b in other.terms])
        if isinstance(other, (Monomial, int, float)):
            return Posynomial([t * other for t in self.terms])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (Monomial, int, float)):
            return Posynomial([t / other for t in self.terms])
        return NotImplemented

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"Posynomial({len(self.terms)} terms over {sorted(self.variables())})"


def as_posynomial(obj) -> Posynomial:
    if isinstance(obj, Posynomial):
        return obj
    if isinstance(obj, Monomial):
        return Posynomial([obj])
    if isinstance(obj, (int, float)):
        return Posynomial([Monomial(float(obj))])
    raise TypeError(f"cannot interpret {type(obj)} as a posynomial")


def monomial_lower_bound(f: Posynomial, x0: dict) -> Monomial:
    """Best local monomial under-approximation of posynomial f at the
    positive point x0: weights are each term's share of f(x0), giving a
    bound that touches f at x0 with matching gradient."""
    f = as_posynomial(f)
    if any(v <= 0.0 for v in x0.values()):
        raise ValueError("expansion point must be strictly positive")
    u = np.array([t.value(x0) for t in f.terms])
    total = u.sum()
    weights = u / total
    coeff = 1.0
    exps = {}
    for t, q, uj in zip(f.terms, weights, u):
        coeff *= (uj / q) ** q if q > 0 else 1.0
        for var, e in t.exponents.items():
            exps[var] = exps.get(var, 0.0) + q * e
    # the coefficient above is prod((u_j/Q_j)^{Q_j}) evaluated at x0; divide
    # out x0's contribution to keep only the true monomial coefficient
    for var, e in exps.items():
        coeff /= x0[var] ** e
    return Monomial(coeff, exps)


# --- problem containers -----------------------------------------------------

@dataclass(frozen=True)
class Factors:
    """Posynomial factors in array form. Factor i sums the terms ptr[i] to
    ptr[i + 1] - 1. Term r is exp(log_coeff[r]) times the product of
    names[var[k]] ** exp[k] over its nonzeros k, those with term[k] == r; a
    term with no nonzero is a constant."""

    ptr: np.ndarray
    log_coeff: np.ndarray
    term: np.ndarray
    var: np.ndarray
    exp: np.ndarray
    names: tuple

    def __post_init__(self):
        for attr, dtype in (("ptr", np.intp), ("log_coeff", float), ("term", np.intp),
                            ("var", np.intp), ("exp", float)):
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), dtype=dtype))
        if np.any(np.diff(self.ptr) < 1):
            raise ValueError("every factor needs at least one term")
        if not (np.all(np.isfinite(self.log_coeff)) and np.all(np.isfinite(self.exp))):
            raise ValueError("coefficients and exponents must be finite")

    @classmethod
    def from_posynomials(cls, posys):
        """The factors of a list of posynomials, term for term."""
        index, ptr, log_coeff, term, var, exp = {}, [0], [], [], [], []
        for posy in posys:
            for t in posy.terms:
                for name, e in t.exponents.items():
                    term.append(len(log_coeff))
                    var.append(index.setdefault(name, len(index)))
                    exp.append(e)
                log_coeff.append(math.log(t.coeff))
            ptr.append(len(log_coeff))
        return cls(ptr, log_coeff, term, var, exp, tuple(index))


@dataclass
class GeometricProgram:
    """minimize the product of the objective's factors s.t. every
    constraint <= 1 and per-variable bounds lo <= x <= hi with
    0 < lo <= hi < inf.

    The objective and the constraints are held as Factors, one factor per
    constraint. Either may be given as Factors built from arrays, or as
    posynomials, which are converted term for term: objective as posynomial
    factors (a lone posynomial is one factor), constraints as the list
    posy_constraints. Either way gp_solve compiles both along the one path
    from Factors to a log-sum-exp stack.

    Every variable must have finite bounds; the compact box rules out
    unbounded programs by construction.
    """

    objective: Factors
    posy_constraints: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)
    constraints: Factors = None

    def __post_init__(self):
        if not isinstance(self.objective, Factors):
            factors = self.objective if isinstance(self.objective, list) else [self.objective]
            self.objective = Factors.from_posynomials([as_posynomial(f) for f in factors])
        if self.objective.ptr.size < 2:
            raise ValueError("objective needs at least one factor")
        self.posy_constraints = [as_posynomial(c) for c in self.posy_constraints]
        if self.constraints is None:
            self.constraints = Factors.from_posynomials(self.posy_constraints)
        elif self.posy_constraints:
            raise ValueError("give the constraints as Factors or as posynomials, not both")
        for var, (lo, hi) in self.bounds.items():
            if not (0.0 < lo <= hi < math.inf):
                raise ValueError(f"bounds for {var} must satisfy 0 < lo <= hi < inf")

    def variables(self):
        return sorted(set(self.bounds) | set(self.objective.names)
                      | set(self.constraints.names))


@dataclass
class LinearFeasibilityProblem:
    """Rows a @ x <= c over the box 0 <= x <= upper."""

    a: np.ndarray
    c: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.upper = np.asarray(self.upper, dtype=float).ravel()
        if self.a.shape != (self.c.size, self.upper.size):
            raise ValueError("inconsistent LP dimensions")
        if not np.all(np.isfinite(self.a)) or not np.all(np.isfinite(self.c)):
            raise ValueError("LP coefficients must be finite")
        if np.any(self.upper <= 0.0):
            raise ValueError("box upper bounds must be positive")


@dataclass
class SolverSettings:
    """Settings of gp_solve, which certifies its result: "optimal" means the
    surrogate duality gap -f^T lambda is <= tol and the dual residual (the
    gradient of the Lagrangian, 2-norm) is <= feas_tol, f counting the
    constraints and both sides of the box. max_iter caps the Newton steps of
    one solve. barrier_mu is the centering factor mu after a full step: the
    primal-dual method aims at t = mu m/gap, and after a step of length s
    takes mu = 1 + (barrier_mu - 1) s^4. lp_feasible reads none of these;
    its barrier path has its own LP_* constants."""

    tol: float = 1e-8
    feas_tol: float = 1e-9
    max_iter: int = 500
    barrier_mu: float = 10.0


@dataclass
class GPSolution:
    values: dict
    objective: float
    log_objective: float
    log_factors: np.ndarray  # log of each objective factor; they sum to log_objective
    status: str
    newton_iterations: int
    duality_gap: float    # surrogate gap -f^T lambda at the returned point
    dual_residual: float  # 2-norm of the Lagrangian's gradient there
    num_variables: int    # compiled size: columns,
    num_constraints: int  # constraint segments,
    num_terms: int        # and objective plus constraint terms
    compile_s: float      # wall time from the Factors to the stack,
    newton_s: float       # and in the primal-dual iterations


@dataclass
class LPFeasibility:
    feasible: bool
    witness: np.ndarray
    margin: float  # minimal scaled slack; <= LP_FEAS_TOL means feasible


# --- stacked log-sum-exp machinery -------------------------------------------
#
# E is held as its nonzeros (row, col, val), sorted by row then column, with
# scatter maps built once per stack, so a Newton step forms no sparse matrix.
# E y is a bincount, not a reduceat, because a constant term is a row with no
# nonzeros. A single-row segment is affine: its E^T diag E and g g^T terms
# cancel, so it enters neither the Hessian's pair map nor its g g^T term.

class _Stack:
    """m smooth functions f_i(y) = logsumexp over that segment's rows of
    (E y + d), E given by its nonzeros over n columns. Single-row segments
    are exactly affine."""

    def __init__(self, row, col, val, offsets, seg_ptr, n):
        row = np.asarray(row, dtype=np.intp)
        col = np.asarray(col, dtype=np.intp)
        order = np.lexsort((col, row))
        self.row, self.col = row[order], col[order]
        self.val = np.asarray(val, dtype=float)[order]
        self.d = np.asarray(offsets, dtype=float)
        self.ptr = np.asarray(seg_ptr, dtype=np.intp)
        self.m, self.n = len(self.ptr) - 1, n
        seg_len = np.diff(self.ptr)
        self.seg_index = np.repeat(np.arange(self.m), seg_len)
        self.grad_idx = self.seg_index[self.row] * n + self.col
        self.curved = np.flatnonzero(seg_len > 1)

        # every ordered pair (a, b) of nonzeros in one row of a curved segment
        keep = seg_len[self.seg_index[self.row]] > 1
        r, c, v = self.row[keep], self.col[keep], self.val[keep]
        start = np.searchsorted(r, r)
        count = np.searchsorted(r, r, side="right") - start
        a = np.repeat(np.arange(r.size), count)
        b = start[a] + np.arange(a.size) - np.repeat(np.cumsum(count) - count, count)
        self.pair_idx = c[a] * n + c[b]
        self.pair_val = v[a] * v[b]
        self.pair_row = r[a]
        self.pair_seg = self.seg_index[self.pair_row]

    def values(self, y):
        z = np.bincount(self.row, self.val * y[self.col], minlength=self.d.size) + self.d
        zmax = np.maximum.reduceat(z, self.ptr[:-1])
        w = np.exp(z - zmax[self.seg_index])
        sums = np.add.reduceat(w, self.ptr[:-1])
        return np.log(sums) + zmax, w / sums[self.seg_index]

    def gradients(self, weights):
        """Dense (m, n) matrix of segment gradients given softmax weights."""
        g = np.bincount(self.grad_idx, weights[self.row] * self.val,
                        minlength=self.m * self.n)
        return g.reshape(self.m, self.n)

    def pair_hessian(self, weights, seg_scale):
        """sum_i seg_scale[i] E_i^T diag(weights) E_i over the curved segments
        as a dense matrix: the part of sum_i seg_scale[i] * Hess f_i that is
        not a gradient outer product."""
        scale = self.pair_val * weights[self.pair_row] * seg_scale[self.pair_seg]
        h1 = np.bincount(self.pair_idx, scale, minlength=self.n * self.n)
        return h1.reshape(self.n, self.n)


def _stack_from_factors(var_index, *factors):
    """Compile Factors into one stack, one segment per factor, each
    argument's factors after those of the one before it."""
    terms = np.cumsum([0] + [f.log_coeff.size for f in factors])
    cols = [np.array([var_index[name] for name in f.names], dtype=np.intp)[f.var]
            for f in factors]
    return _Stack(np.concatenate([f.term + first for f, first in zip(factors, terms)]),
                  np.concatenate(cols), np.concatenate([f.exp for f in factors]),
                  np.concatenate([f.log_coeff for f in factors]),
                  np.concatenate([[0]] + [f.ptr[1:] + first for f, first in zip(factors, terms)]),
                  len(var_index))


# --- interior-point kernels --------------------------------------------------
#
# The box lo <= y[:len(lo)] <= hi never enters a stack: its barrier
# -sum log(hi - y) - sum log(y - lo) is separable, so it adds a diagonal to
# the Newton Hessian. Coordinates past len(lo) (the LP's slack) are free.

class _BarrierBudget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise GPSolverError(f"iteration limit ({self.limit} Newton steps) exceeded")


def _strictly_inside(f, box, y, margin):
    """The constraint values f and both sides of the box at y hold with
    slack > margin."""
    lo, hi = box
    x = y[:lo.size]
    return bool(np.all(f < -margin) and np.all(x - hi < -margin)
                and np.all(lo - x < -margin))


def _newton_centering(rows, grads, box, y, t, budget, f_y, early_exit):
    """Minimize t*s + barrier at fixed t, s = y[-1], over the affine rows
    <= 0 with gradients grads; f_y is the rows' values at y. Stops on the
    decrement test, the early exit, a line-search stall or the per-centering
    step cap; returns the point and the rows' values there."""
    lo, hi = box
    nb = lo.size
    diag = np.arange(nb)

    def row_values(point):
        """The rows' values at point; None outside the barrier's domain."""
        f, _ = rows.values(point)
        x = point[:nb]
        if np.any(f >= 0.0) or np.any(x >= hi) or np.any(x <= lo):
            return None
        return f

    def barrier_value(point, f):
        if f is None:
            return np.inf
        x = point[:nb]
        return (t * point[-1] - np.log(-f).sum()
                - np.log(hi - x).sum() - np.log(x - lo).sum())

    phi = barrier_value(y, f_y)
    for _ in range(100):  # per-centering cap; the path tolerates inexact centers
        budget.spend()
        u = 1.0 / (-f_y)
        grad = grads.T @ u
        grad[-1] += t
        hess = grads.T @ ((u * u)[:, None] * grads)
        u_hi, u_lo = 1.0 / (hi - y[:nb]), 1.0 / (y[:nb] - lo)
        grad[:nb] += u_hi - u_lo
        hess[diag, diag] += u_hi * u_hi + u_lo * u_lo

        step = _newton_step(hess, grad)
        decrement = -grad @ step
        # the decrement certifies suboptimality ~ decrement/t on the true
        # objective, so the threshold scales with the barrier parameter
        if decrement / 2.0 <= NEWTON_TOL * max(1.0, t):
            break
        alpha = 1.0
        while True:
            cand = y + alpha * step
            f_cand = row_values(cand)
            phi_cand = barrier_value(cand, f_cand)
            if phi_cand <= phi - ARMIJO * alpha * decrement:
                y, phi, f_y = cand, phi_cand, f_cand
                break
            alpha *= BACKTRACK
            if alpha < 1e-14:
                return y, f_y
        if early_exit(y):
            break
    return y, f_y


def _newton_step(hess, grad):
    """Solve hess @ step = -grad, adding a growing ridge if hess is singular;
    the ridge's scale, the mean diagonal, is taken once a plain solve fails."""
    n = hess.shape[0]
    ridge = 0.0
    while True:
        h = hess if ridge == 0.0 else hess + ridge * np.eye(n)
        try:
            step = np.linalg.solve(h, -grad)
            if np.all(np.isfinite(step)):
                return step
        except np.linalg.LinAlgError:
            pass
        if not ridge:
            base = np.trace(hess) / n if n else 1.0
        ridge = ridge * 10.0 if ridge else base * 1e-12
        if ridge > base:
            raise GPSolverError("Newton system is numerically singular")


def _barrier_path(rows, box, y, early_exit):
    """Minimize the slack s = y[-1] subject to the affine single-term rows
    <= 0 and the box along the central path, from the strictly feasible y,
    until the gap target m/t <= LP_GAP or the early exit; m counts the rows
    and both sides of the box. The barrier parameter grows by LP_MU between
    centerings, and LP_MAX_ITER caps the Newton steps. Every row's softmax
    weight is 1, so the rows' gradients are constant and add no curvature.
    Returns the point."""
    budget = _BarrierBudget(LP_MAX_ITER)
    if early_exit(y):
        return y
    f_y, weights = rows.values(y)
    grads = rows.gradients(weights)
    m = rows.m + 2 * box[0].size
    t = BARRIER_T0
    while True:
        y, f_y = _newton_centering(rows, grads, box, y, t, budget, f_y, early_exit)
        if early_exit(y) or m / t <= LP_GAP:
            return y
        t *= LP_MU


def _boundary_step(stack, m0, y, step, f_all, df, s):
    """A step length at most s that keeps y + s step strictly inside every
    constraint, the stack's segments past its first m0, and both sides of
    the box, with the stack's values there. f_all and df are every
    constraint's value at y and its slope along step, in _primal_dual's
    order. The box sides are linear, so the length stops BOUNDARY of the way
    to the nearest one. A log-sum-exp constraint that a trial length
    crosses is modelled by the quadratic through its value and slope at y
    and its value at the trial, and the next trial stops BOUNDARY of the way
    to that quadratic's root (Nocedal & Wright, Numerical Optimization, 2nd
    ed., section 19.2). A feasible trial shorter than half the last crossing
    one gives way to that half, so the result is at least half the largest
    feasible length up to s."""
    mc = stack.m - m0
    f, d = f_all[:mc], df[:mc]
    rising = df[mc:] > 0.0
    s = min(s, BOUNDARY * float(np.min(-f_all[mc:][rising] / df[mc:][rising],
                                       initial=np.inf)))
    crossing = s
    while True:
        values = stack.values(y + s * step)
        trial = values[0][m0:]
        crossed = trial >= 0.0
        if not crossed.any():
            if 2.0 * s >= crossing:
                return s, values
            s = 0.5 * crossing
            continue
        crossing = s
        fc, dc = f[crossed], d[crossed]
        c = np.maximum(trial[crossed] - fc - dc * s, 0.0) / (s * s)
        # the root of fc + dc x + c x^2 in (0, s], in a form without cancellation
        s = BOUNDARY * float(np.min(-2.0 * fc / (dc + np.sqrt(dc * dc - 4.0 * c * fc))))


def _primal_dual(stack, m0, box, y0, settings):
    """Primal-dual interior-point method (Boyd & Vandenberghe, Convex
    Optimization, section 11.7) for min f0 = the sum of the stack's first
    m0 segments subject to its other segments <= 0 and the box, from the
    strictly feasible y0. Every constraint, both sides of the box included,
    has a dual; the duals start at 1/(t0 (-f)). Each iteration aims at t =
    mu m / gap and makes one Newton step on the reduced system, whose
    constraint curvature is weighted by the duals. The stack's values,
    gradients and pair Hessian are taken once per point: the Newton matrix
    is the pair Hessian with scale 1 on the objective and the duals on the
    constraints, plus one dense product over the gradients, and the dual
    residual and the right-hand side are each one product of the gradients
    with (1, ..., 1, duals). The step length keeps the duals positive and
    stops short of the primal boundary (_boundary_step), then backtracks
    until the residual at t falls. After a step of length s the next mu is
    1 + (barrier_mu - 1) s^4: barrier_mu after a full step, near 1 after a
    short one, which re-centers the iterate.

    Returns (point, Newton steps, surrogate gap -f^T lambda, dual residual,
    whether both met their tolerance). A line-search stall returns early;
    the step budget raises GPSolverError."""
    lo, hi = box
    nb = lo.size
    diag = np.arange(nb)
    mc = stack.m - m0
    m = mc + 2 * nb
    budget = _BarrierBudget(settings.max_iter)
    curved = np.zeros(stack.m, dtype=bool)
    curved[stack.curved] = True
    # the gradient outer products' weight: -1 on a curved objective segment,
    # u_i - lam_i on a curved constraint and u_i on an affine one
    outer0 = np.where(curved[:m0], -1.0, 0.0)
    ones0 = np.ones(m0)

    def evaluate(point, values=None):
        """Every constraint value (stack, upper box, lower box), the stack's
        weights and its gradients at point; None outside the domain. values
        are the stack's values there, if known."""
        f, w = values or stack.values(point)
        x = point[:nb]
        f_all = np.concatenate([f[m0:], x - hi, lo - x])
        if np.any(f_all >= 0.0):
            return None
        return f_all, w, stack.gradients(w)

    def lagrangian_gradient(grads, duals):
        """grad f0 plus the constraints' gradients, box sides included,
        weighted by duals."""
        r = np.concatenate([ones0, duals[:mc]]) @ grads
        r[:nb] += duals[mc:mc + nb] - duals[mc + nb:]
        return r

    def residual_norm(f_all, lam, t, dual_sq):
        """2-norm of the whole residual: dual (its square) and centrality at
        t."""
        centrality = -lam * f_all - 1.0 / t
        return math.sqrt(dual_sq + centrality @ centrality)

    y = np.array(y0, dtype=float)
    at = evaluate(y)
    lam = 1.0 / (BARRIER_T0 * -at[0])
    r = lagrangian_gradient(at[2], lam)
    mu = settings.barrier_mu
    while True:
        f_all, w, grads = at
        gap = float(-f_all @ lam)
        dual_sq = r @ r
        residual = math.sqrt(dual_sq)
        if gap <= settings.tol and residual <= settings.feas_tol:
            return y, budget.used, gap, residual, True
        budget.spend()
        t = mu * m / gap
        u = lam / -f_all
        # Hess f0 + sum_i lam_i Hess f_i + sum_i u_i grad f_i grad f_i^T
        outer = np.concatenate([outer0, np.where(curved[m0:], u[:mc] - lam[:mc], u[:mc])])
        hess = (stack.pair_hessian(w, np.concatenate([ones0, lam[:mc]]))
                + grads.T @ (outer[:, None] * grads))
        hess[diag, diag] += u[mc:mc + nb] + u[mc + nb:]
        step = _newton_step(hess, lagrangian_gradient(grads, 1.0 / (t * -f_all)))
        df = np.concatenate([grads[m0:] @ step, step[:nb], -step[:nb]])
        dlam = (lam * df + 1.0 / t) / -f_all - lam

        # the largest step keeping lambda > 0, then strict feasibility, then
        # sufficient decrease of the residual at this t
        shrinking = dlam < 0.0
        s = BOUNDARY * float(np.min(-lam[shrinking] / dlam[shrinking], initial=1.0))
        s, values = _boundary_step(stack, m0, y, step, f_all, df, s)
        r_now = residual_norm(f_all, lam, t, dual_sq)
        while True:
            at_cand = evaluate(y + s * step, values)
            if at_cand is not None:
                lam_cand = lam + s * dlam
                r_cand = lagrangian_gradient(at_cand[2], lam_cand)
                if (residual_norm(at_cand[0], lam_cand, t, r_cand @ r_cand)
                        <= (1.0 - ARMIJO * s) * r_now):
                    break
            s *= BACKTRACK
            values = None
            if s < 1e-14:
                return y, budget.used, gap, residual, False
        y, lam, at, r = y + s * step, lam_cand, at_cand, r_cand
        mu = 1.0 + (settings.barrier_mu - 1.0) * s ** 4


# --- geometric program entry point -------------------------------------------

def _compile_gp(gp: GeometricProgram):
    variables = gp.variables()
    missing = [v for v in variables if v not in gp.bounds]
    if missing:
        raise ValueError(f"variables without bounds: {missing}")
    var_index = {v: i for i, v in enumerate(variables)}
    lo = np.array([gp.bounds[v][0] for v in variables])
    hi = np.array([gp.bounds[v][1] for v in variables])
    return variables, var_index, (np.log(lo), np.log(hi))


def gp_solve(gp: GeometricProgram, settings: SolverSettings = None, *,
             initial: dict) -> GPSolution:
    """Solve a geometric program by the primal-dual method from `initial`, a
    value per variable. The status is "optimal" when the certificate holds:
    the surrogate duality gap is at most settings.tol and the dual residual
    at most settings.feas_tol, both reported in the solution. A line-search
    stall before that reads "inaccurate".

    Raises GPSolverError when `initial` does not satisfy every constraint
    and both sides of the box with log-space slack above 1e-12, and on the
    iteration limit.
    """
    t0 = time.perf_counter()
    settings = settings or SolverSettings()
    variables, var_index, box = _compile_gp(gp)
    stack = _stack_from_factors(var_index, gp.objective, gp.constraints)
    m0 = gp.objective.ptr.size - 1
    compiled = time.perf_counter()

    y0 = np.array([math.log(initial[v]) for v in variables])
    if not _strictly_inside(stack.values(y0)[0][m0:], box, y0, margin=1e-12):
        raise GPSolverError("start point is not strictly feasible")
    newton_start = time.perf_counter()
    y, used, gap, residual, certified = _primal_dual(stack, m0, box, y0, settings)
    newton_s = time.perf_counter() - newton_start
    log_factors = stack.values(y)[0][:m0]
    log_obj = log_factors.sum()
    values = {v: math.exp(y[i]) for v, i in var_index.items()}
    return GPSolution(values=values,
                      objective=float(np.exp(log_obj)),
                      log_objective=float(log_obj),
                      log_factors=log_factors,
                      status="optimal" if certified else "inaccurate",
                      newton_iterations=used,
                      duality_gap=gap, dual_residual=residual,
                      num_variables=len(variables), num_constraints=stack.m - m0,
                      num_terms=stack.d.size,
                      compile_s=compiled - t0, newton_s=newton_s)


# --- linear feasibility entry point -------------------------------------------

def lp_feasible(lp: LinearFeasibilityProblem) -> LPFeasibility:
    """Feasibility of a @ x <= c over 0 <= x <= upper: minimize the largest
    scaled violation s; feasible iff min s <= LP_FEAS_TOL. The barrier path
    stops at the first point with every scaled row below -10 LP_FEAS_TOL,
    or at the gap target LP_GAP.

    Rows are normalized by their magnitude at box scale, so the verdict is
    invariant to positive row rescaling.
    """
    m, n = lp.a.shape
    scale = np.maximum.reduce([np.abs(lp.a) @ lp.upper, np.abs(lp.c),
                               np.ones(m)])
    if m and scale.max() / scale.min() > 1e12:
        logger.warning("lp_feasible: row magnitudes span %.1e, expect reduced accuracy",
                       scale.max() / scale.min())
    a = lp.a / scale[:, None]
    c = lp.c / scale

    if m == 0:
        return LPFeasibility(True, lp.upper / 2.0, -1.0)

    # one affine segment per row: a @ x - c - s <= 0, the box as bounds
    a_s = np.hstack([a, -np.ones((m, 1))])
    nz_row, nz_col = np.nonzero(a_s)
    rows = _Stack(nz_row, nz_col, a_s[nz_row, nz_col], -c, np.arange(m + 1), n + 1)
    box = (np.zeros(n), lp.upper)

    x0 = lp.upper / 2.0
    s0 = max(float((a @ x0 - c).max()), 0.0) + 1.0
    feas_cut = -10.0 * LP_FEAS_TOL

    def strictly_ok(point):
        return float((a @ point[:n] - c).max()) <= feas_cut

    y = _barrier_path(rows, box, np.concatenate([x0, [s0]]), strictly_ok)
    witness = y[:n]
    margin = float((a @ witness - c).max())
    return LPFeasibility(margin <= LP_FEAS_TOL, witness, margin)
