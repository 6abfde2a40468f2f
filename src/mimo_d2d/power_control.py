"""Power control: max-min fairness and max-product-SINR over data powers
(bisection on the minimal-power test / GP), jointly over pilot + data
powers for MR (GP), and the successive monomial-approximation loop for the
joint ZF problem.

With pilot powers fixed, user i's SINR is g_i p_i / (1 + a_i . p) in the
data powers p, a standard interference function given by one gain vector g
and one coupling matrix a, the sum of spectral.sinr_terms' per-mechanism
matrices. Algorithm 1, its LP witness and the data-power GPs read (g, a),
and evaluate_network reads the same arrays. The joint problems compile the
closed-form SINR expressions with pilot powers as variables, in lifted
form: each posynomial factor of a denominator product is one auxiliary GP
variable (_joint_sinr_model). Because every user shares the prelog factor,
a common SE target is equivalent to a common SINR target, which is how the
max-min problems are expressed in GP form.
"""

import enum
import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .scenario import Scenario
from .estimation import PowerAllocation, full_power_allocation
# perfbench/spans.py wraps the gamma functions at this import site
from .estimation import compute_gamma_bs, compute_gamma_d2drx, gamma_cu_bs_full  # noqa: F401
from .spectral import evaluate_network, se_from_sinr, sinr_terms
from .gp import (Monomial, Posynomial, GeometricProgram, LinearFeasibilityProblem,
                 SolverSettings, gp_solve, lp_feasible, monomial_lower_bound,
                 GPInfeasibleError, GPSolverError)

logger = logging.getLogger(__name__)

DEGENERATE_GAIN_RATIO = 1e-15
POWER_FLOOR_RATIO = 1e-12   # GP lower bound as a fraction of p_max
SNAP_RATIO = 1e-9           # snap-to-zero threshold as a fraction of p_max


class Objective(str, enum.Enum):
    MAXMIN = "maxmin"
    MAXPROD = "maxprod"


class VariableScope(str, enum.Enum):
    DATA = "data"
    JOINT = "joint"


class Processing(str, enum.Enum):
    MR = "mr"
    ZF = "zf"


@dataclass
class ControlSettings:
    """Solver tolerances: bisection accuracy in b/s/Hz, the successive
    approximation stopping threshold as a fraction of p_max, and caps."""

    bisection_eps: float = 1e-3
    sca_power_tol: float = 0.001
    bisection_cap: int = 64
    sca_cap: int = 100
    gp: SolverSettings = field(default_factory=SolverSettings)


@dataclass(frozen=True)
class ControlProblemSpec:
    """One optimization problem instance; (ZF, JOINT) routes to the
    successive approximation algorithm, everything else to a single
    bisection or GP solve."""

    objective: Objective
    variables: VariableScope
    processing: Processing
    tolerances: "ControlSettings" = None

    def __post_init__(self):
        object.__setattr__(self, "objective", Objective(self.objective))
        object.__setattr__(self, "variables", VariableScope(self.variables))
        object.__setattr__(self, "processing", Processing(self.processing))
        if self.tolerances is None:
            object.__setattr__(self, "tolerances", ControlSettings())

    @property
    def problem_id(self) -> str:
        return f"{self.processing.value}-{self.objective.value}-{self.variables.value}"


@dataclass
class SolveDiagnostics:
    iterations: int = 0
    objective_trace: list = field(default_factory=list)
    status: str = ""
    active_constraints: list = field(default_factory=list)
    wall_time: float = 0.0
    excluded_users: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    targets: dict = field(default_factory=dict)  # per-user SINR levels certified


# --- variable naming ----------------------------------------------------------

def _pc(b, k):
    return f"pc_{b}_{k}"


def _pd(l):
    return f"pd_{l}"


def _qc(b, k):
    return f"ppc_{b}_{k}"


def _qd(l):
    return f"ppd_{l}"


def _stacked_names(scn: Scenario, pilot=False):
    """GP variable names of the stacked powers [cu (b, k) row-major, d2d]:
    the data powers, or the pilot powers when pilot=True."""
    dims = scn.dims
    cu, d2d = (_qc, _qd) if pilot else (_pc, _pd)
    return ([cu(b, k) for b in range(dims.num_cells) for k in range(dims.cus_per_cell)]
            + [d2d(l) for l in range(dims.num_d2d_pairs)])


def _stacked_pilots(alloc: PowerAllocation):
    return np.concatenate([alloc.pilot_cu.ravel(), alloc.pilot_d2d])


def _stacked_alloc(scn: Scenario, data, pilots):
    """Allocation from stacked data and pilot power vectors, clipped to
    [0, p_max]."""
    dims = scn.dims
    n_cu = dims.num_cells * dims.cus_per_cell
    shape = (dims.num_cells, dims.cus_per_cell)
    data, pilots = np.clip(data, 0.0, scn.p_max), np.clip(pilots, 0.0, scn.p_max)
    return PowerAllocation(data[:n_cu].reshape(shape), data[n_cu:],
                           pilots[:n_cu].reshape(shape), pilots[n_cu:], scn.p_max)


def _alloc_from_values(scn: Scenario, values, pilot_vars, fixed_pilots):
    """Allocation from a GP solution's values; a data power with no value
    is zero, and pilot powers are fixed unless pilot_vars."""
    data = np.array([values.get(name, 0.0) for name in _stacked_names(scn)])
    pilots = (np.array([values[name] for name in _stacked_names(scn, pilot=True)])
              if pilot_vars else _stacked_pilots(fixed_pilots))
    return _stacked_alloc(scn, data, pilots)


def _degenerate_users(scn: Scenario):
    """Users whose desired-link gain is vanishingly small compared to the
    strongest same-kind link; they would drag the max-min level to zero."""
    cells = np.arange(scn.dims.num_cells)
    own = (scn.gains.beta_cu_bs[cells, cells].ravel(), np.diag(scn.gains.beta_d2dtx_d2drx))
    weak = np.concatenate([g < g.max(initial=0.0) * DEGENERATE_GAIN_RATIO for g in own])
    return [user for user, w in zip(_all_users(scn), weak) if w]


def _stacked_upper(scn: Scenario):
    n = scn.dims.num_cells * scn.dims.cus_per_cell + scn.dims.num_d2d_pairs
    return np.full(n, scn.p_max)


# --- max-min over data powers: Algorithm-1 bisection ---------------------------

def _minimal_powers(f, h, t, upper):
    """Minimal power vector p = (I - t f)^-1 t h meeting every SINR row
    g_i p_i >= t (1 + a_i . p) with equality, where f = a / g and h = 1 / g
    (Foschini-Miljanic; Yates, IEEE JSAC 1995); None when the level t is
    infeasible. Since f >= 0 and h > 0, a solution p >= 0 satisfies
    p = t h + t f p >= t h, which certifies rho(t f) < 1 for t > 0, so
    0 <= p <= upper decides feasibility over the box."""
    try:
        p = np.linalg.solve(np.eye(len(h)) - t * f, t * h)
    except np.linalg.LinAlgError:
        return None
    # NaN fails both comparisons and +inf fails the upper one
    return p if np.all((p >= 0.0) & (p <= upper)) else None


def maxmin_data(scn: Scenario, processing, settings: ControlSettings = None,
                fixed_pilots: PowerAllocation = None):
    """Maximize the minimum SE over data powers (pilot powers fixed, default
    full power) by bisection over the SE level. Each level is decided by the
    closed-form minimal-power test; one LP feasibility solve at the final
    level gives the returned powers. Returns (allocation, se_level,
    diagnostics)."""
    t0 = time.perf_counter()
    settings = settings or ControlSettings()
    processing = Processing(processing)
    fixed_pilots = fixed_pilots or full_power_allocation(scn.dims, scn.p_max)
    diag = SolveDiagnostics()
    diag.excluded_users = _degenerate_users(scn)
    if diag.excluded_users:
        logger.warning("max-min: excluding degenerate users %s", diag.excluded_users)

    dims = scn.dims
    # the included users' own columns; excluded users' powers are zero
    users = _all_users(scn)
    cols = np.array([i for i, u in enumerate(users) if u not in diag.excluded_users],
                    dtype=int)
    g, terms = sinr_terms(dims, scn.gains, scn.pilots, fixed_pilots, processing.value)
    g, a = g[cols], terms.sum(axis=0)[cols]
    upper = _stacked_upper(scn)
    prelog = dims.prelog

    # interference-free SE bound at maximum data power; 0 if a user has no desired link
    lam_hi = float(np.log2(1.0 + scn.p_max * g).min()) if g.size else 0.0
    if lam_hi <= 0.0:
        diag.status = "degenerate"
        diag.wall_time = time.perf_counter() - t0
        return (_stacked_alloc(scn, np.zeros_like(upper), _stacked_pilots(fixed_pilots)),
                0.0, diag)
    diag.notes.append(f"lambda_upper_initial={lam_hi:.6f}")

    def sinr_target(lam):
        return 2.0 ** (lam / prelog) - 1.0

    f, h = a[:, cols] / g[:, None], 1.0 / g

    lam_lo = 0.0
    iterations = 0
    while lam_hi - lam_lo > settings.bisection_eps and iterations < settings.bisection_cap:
        lam = (lam_lo + lam_hi) / 2.0
        if _minimal_powers(f, h, sinr_target(lam), upper[cols]) is not None:
            lam_lo = lam
        else:
            lam_hi = lam
        iterations += 1
        diag.objective_trace.append(lam_lo)

    # The returned powers are the LP witness at lam_lo, not the minimal
    # powers: those hold every user exactly at the level, and their mean D2D
    # power does not rise with the link distance the way the LP witness's does.
    witness = upper.copy()  # full power is always feasible at level 0
    if lam_lo > 0.0:
        t = sinr_target(lam_lo)
        lp_a = t * a  # rows g_i p_i >= t (1 + a_i . p) as lp_a @ p <= -t
        lp_a[np.arange(len(g)), cols] -= g
        result = lp_feasible(LinearFeasibilityProblem(lp_a, np.full(len(g), -t), upper))
        if result.feasible:
            witness = result.witness
        else:  # the LP's verdict differs at its tolerance; the minimal powers pass
            witness = np.zeros_like(upper)
            witness[cols] = _minimal_powers(f, h, t, upper[cols])
            diag.notes.append("witness=minimal_powers")

    data = np.zeros_like(upper)  # excluded users' powers stay zero
    data[cols] = witness[cols]
    alloc = _stacked_alloc(scn, data, _stacked_pilots(fixed_pilots))
    alloc = _snap_small_powers(scn, alloc, processing,
                               lambda rep: _min_se(rep, cols) >= lam_lo - 1e-6)

    report = evaluate_network(dims, scn.gains, scn.pilots, alloc, processing.value)
    min_se = _min_se(report, cols)
    se = _stacked_se(report)
    diag.iterations = iterations
    diag.status = ("optimal" if lam_hi - lam_lo <= settings.bisection_eps
                   else "iteration_cap")
    diag.active_constraints = [users[i] for i in cols
                               if se[i] <= lam_lo + settings.bisection_eps]
    diag.notes.append(f"min_se_at_witness={min_se:.6f}")
    diag.wall_time = time.perf_counter() - t0
    return alloc, lam_lo, diag


def _stacked_se(report):
    """Every user's closed-form SE in _all_users order."""
    return np.concatenate([report.cu_se.ravel(), report.d2d_se_approx])


def _min_se(report, cols=slice(None)):
    """The least SE of the users at cols (all by default); 0 for none."""
    se = _stacked_se(report)[cols]
    return float(se.min()) if se.size else 0.0


def _snap_small_powers(scn, alloc, processing, still_ok):
    """Zero out powers below the snap threshold when the re-evaluated
    network still satisfies the caller's requirement."""
    cut = SNAP_RATIO * scn.p_max
    small = (alloc.data_cu < cut).any() or (len(alloc.data_d2d) and (alloc.data_d2d < cut).any())
    if not small:
        return alloc
    candidate = alloc.copy()
    candidate.data_cu = np.where(candidate.data_cu < cut, 0.0, candidate.data_cu)
    candidate.data_d2d = np.where(candidate.data_d2d < cut, 0.0, candidate.data_d2d)
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, candidate, processing.value)
    return candidate if still_ok(report) else alloc


# --- joint SINR model in lifted form --------------------------------------------
#
# A joint SINR denominator is a product of posynomials. Multiplied out, the
# joint-MR GP holds about 27k terms and an Algorithm 2 GP about 197k at the
# reference scale. Instead each shared factor gets one auxiliary GP variable
# with the constraint factor / aux <= 1, and the denominators use aux in its
# place (Boyd, Kim, Vandenberghe & Hassibi, "A tutorial on geometric
# programming", 2007, sec. 3.3; Chiang et al., IEEE TWC 2007). Every
# coupling constraint and every max-product factor increases in each
# auxiliary, so each auxiliary equals its factor at the optimum and the
# lifted GP has the optimum of the multiplied-out one.

# An auxiliary starts this fraction above its factor's value. At 1e-4 the
# reference joint-MR max-product GP (drop_seed(0, 0)) took 92 Newton steps
# instead of 40, to move the auxiliaries off their constraints; at 0.5 the
# max-min GP took 71 instead of 51. A CU denominator holds two auxiliaries,
# so at the start it is up to (1 + LIFT_MARGIN)^2 above the multiplied-out
# one; the max-min target at half the weakest half-power SINR stays
# interior, for every Algorithm 2 GP too.
LIFT_MARGIN = 0.1


def _pilot_sum(scn: Scenario, b, k, leave_out=None):
    """1 + sum over cells b2 of tau beta_{b,b2,k} q_{b2,k}: what BS b
    receives on CU pilot k, optionally without cell leave_out's CU."""
    tau, beta = scn.dims.pilot_len, scn.gains.beta_cu_bs[b]
    return Posynomial([Monomial(1.0)] + [
        Monomial(tau * beta[b2, k], {_qc(b2, k): 1.0})
        for b2 in range(scn.dims.num_cells) if b2 != leave_out])


def _d2d_pilot_sum(scn: Scenario, b, group, leave_out=None):
    """1 + sum over the pairs j of a D2D pilot set of tau beta_{j,b} q_j: what
    BS b receives on that pilot, optionally without pair leave_out."""
    tau, beta = scn.dims.pilot_len, scn.gains.beta_d2dtx_bs[b]
    return Posynomial([Monomial(1.0)] + [
        Monomial(tau * beta[j], {_qd(j): 1.0}) for j in group if j != leave_out])


def _received_at_bs(scn: Scenario, b):
    """1 + every CU's and D2D transmitter's data power received at BS b."""
    dims, gains = scn.dims, scn.gains
    return Posynomial([Monomial(1.0)] + [
        Monomial(gains.beta_cu_bs[b, b2, k2], {_pc(b2, k2): 1.0})
        for b2 in range(dims.num_cells) for k2 in range(dims.cus_per_cell)] + [
        Monomial(gains.beta_d2dtx_bs[b, l], {_pd(l): 1.0})
        for l in range(dims.num_d2d_pairs)])


def _received_at_d2drx(scn: Scenario, l):
    """1 + the data power of every CU and every other D2D transmitter
    received at D2D receiver l."""
    dims, gains = scn.dims, scn.gains
    return Posynomial([Monomial(1.0)] + [
        Monomial(gains.beta_cu_d2drx[l, b, k], {_pc(b, k): 1.0})
        for b in range(dims.num_cells) for k in range(dims.cus_per_cell)] + [
        Monomial(gains.beta_d2dtx_d2drx[l, j], {_pd(j): 1.0})
        for j in range(dims.num_d2d_pairs) if j != l])


def _zf_residual_sum(scn: Scenario, b, pilot_point):
    """1 + R_b, the post-nulling residual interference at ZF BS b with each
    residual ratio's denominator replaced by its local monomial lower bound
    at pilot_point: an upper bound that touches at pilot_point. It depends on
    the cell, not on the CU, so the CUs of a cell share it."""
    dims, gains, cells = scn.dims, scn.gains, range(scn.dims.num_cells)
    terms = [Monomial(1.0)]
    for k2 in range(dims.cus_per_cell):
        anchor = monomial_lower_bound(_pilot_sum(scn, b, k2), pilot_point)
        for b2 in cells:
            power = Monomial(gains.beta_cu_bs[b, b2, k2], {_pc(b2, k2): 1.0}) / anchor
            terms += (_pilot_sum(scn, b, k2, leave_out=b2) * power).terms
    for group in scn.pilots.d2d_pilot_sets:
        anchor = monomial_lower_bound(_d2d_pilot_sum(scn, b, group), pilot_point)
        for l in group:
            power = Monomial(gains.beta_d2dtx_bs[b, l], {_pd(l): 1.0}) / anchor
            terms += (_d2d_pilot_sum(scn, b, group, leave_out=l) * power).terms
    return Posynomial(terms)


def _joint_sinr_model(scn: Scenario, processing: Processing, pilot_point=None):
    """Every user's SINR with pilot and data powers as variables, in lifted
    form. Returns (constraint_map, lifts): constraint_map maps each user to
    (numerator monomial, denominator posynomial over powers and
    auxiliaries); lifts maps each auxiliary's name to the posynomial factor
    it stands for.

    A CU's denominator is s_{b,k} r_b plus its coherent pilot-contamination
    terms, with s_{b,k} the pilot sum at BS b and r_b the received power
    (MR) or the residual sum at the anchor pilot_point (ZF, Algorithm 2). A
    D2D pair's denominator uses the received power at its receiver."""
    dims, gains = scn.dims, scn.gains
    tau = dims.pilot_len
    factor = dims.zf_dof if processing is Processing.ZF else dims.antennas_per_bs
    lifts, out = {}, {}
    for b in range(dims.num_cells):
        beta = gains.beta_cu_bs[b]
        r = f"r_{b}"
        lifts[r] = (_zf_residual_sum(scn, b, pilot_point) if processing is Processing.ZF
                    else _received_at_bs(scn, b))
        for k in range(dims.cus_per_cell):
            s = f"s_{b}_{k}"
            lifts[s] = _pilot_sum(scn, b, k)
            coherent = [factor * tau * beta[b2, k] ** 2 for b2 in range(dims.num_cells)]
            out[("cu", b, k)] = (
                Monomial(coherent[b], {_pc(b, k): 1.0, _qc(b, k): 1.0}),
                Posynomial([Monomial(1.0, {s: 1.0, r: 1.0})] + [
                    Monomial(c, {_pc(b2, k): 1.0, _qc(b2, k): 1.0})
                    for b2, c in enumerate(coherent) if b2 != b]))
    for l in range(dims.num_d2d_pairs):
        rd = f"rd_{l}"
        lifts[rd] = _received_at_d2drx(scn, l)
        beta_row = gains.beta_d2dtx_d2drx[l]
        group = scn.pilots.set_of(l)
        own_pilot = Posynomial([Monomial(1.0)] + [
            Monomial(tau * beta_row[j], {_qd(j): 1.0}) for j in group])
        den = own_pilot * Monomial(1.0, {rd: 1.0}) + Monomial(beta_row[l], {_pd(l): 1.0})
        for j in group:
            if j != l:
                den = den + Monomial(tau * beta_row[l] * beta_row[j],
                                     {_pd(l): 1.0, _qd(j): 1.0})
        out[("d2d", -1, l)] = (Monomial(tau * beta_row[l] ** 2, {_pd(l): 1.0, _qd(l): 1.0}),
                               den)
    return out, lifts


def _posynomial_range(posy: Posynomial, bounds):
    """(lower, upper) bounds of a posynomial over the variable box, each the
    sum of its terms' extremes; exact when every exponent is positive."""
    lower = upper = 0.0
    for t in posy.terms:
        lower += t.value({v: bounds[v][e < 0] for v, e in t.exponents.items()})
        upper += t.value({v: bounds[v][e > 0] for v, e in t.exponents.items()})
    return lower, upper


# --- GP assembly ----------------------------------------------------------------

def _power_bounds(scn: Scenario, joint):
    dims = scn.dims
    lo = POWER_FLOOR_RATIO * scn.p_max
    bounds = {}
    for b in range(dims.num_cells):
        for k in range(dims.cus_per_cell):
            bounds[_pc(b, k)] = (lo, scn.p_max)
            if joint:
                bounds[_qc(b, k)] = (lo, scn.p_max)
    for l in range(dims.num_d2d_pairs):
        bounds[_pd(l)] = (lo, scn.p_max)
        if joint:
            bounds[_qd(l)] = (lo, scn.p_max)
    return bounds


def _all_users(scn: Scenario):
    dims = scn.dims
    return ([("cu", b, k) for b in range(dims.num_cells)
             for k in range(dims.cus_per_cell)]
            + [("d2d", -1, l) for l in range(dims.num_d2d_pairs)])


def _joint_upper_bounds(scn: Scenario, processing: Processing):
    """Contamination-free utopia SINRs with own pilot at full power (valid
    upper bounds however the pilot powers are chosen)."""
    dims = scn.dims
    tau = dims.pilot_len
    factor = dims.zf_dof if processing is Processing.ZF else dims.antennas_per_bs
    out = {}
    for b in range(dims.num_cells):
        for k in range(dims.cus_per_cell):
            beta = scn.gains.beta_cu_bs[b, b, k]
            gamma = tau * scn.p_max * beta ** 2 / (1.0 + tau * scn.p_max * beta)
            out[("cu", b, k)] = scn.p_max * factor * gamma
    for l in range(dims.num_d2d_pairs):
        beta = scn.gains.beta_d2dtx_d2drx[l, l]
        gamma = tau * scn.p_max * beta ** 2 / (1.0 + tau * scn.p_max * beta)
        out[("d2d", -1, l)] = scn.p_max * gamma
    return out


def _half_power_sinrs(scn: Scenario, processing: Processing, fixed_pilots=None):
    """Every user's SINR with all data powers at half budget and the given
    pilot powers (by default at half budget as well)."""
    half = scn.p_max / 2.0
    dims = scn.dims
    cu = np.full((dims.num_cells, dims.cus_per_cell), half)
    d2d = np.full(dims.num_d2d_pairs, half)
    pilots = fixed_pilots or PowerAllocation(cu, d2d, cu, d2d, scn.p_max)
    alloc = PowerAllocation(cu, d2d, pilots.pilot_cu, pilots.pilot_d2d, scn.p_max)
    report = evaluate_network(dims, scn.gains, scn.pilots, alloc, processing.value)
    return dict(zip(_all_users(scn), report.sinr.tolist()))


def _sinr_constraints(scn: Scenario, processing: Processing, joint, fixed_pilots,
                      pilot_point=None):
    """Per-user (numerator, denominator) pairs for the GP compile path and the
    auxiliaries they use: the monomial g_i p_i over the posynomial
    1 + a_i . p at fixed pilot powers, with no auxiliary, or the lifted joint
    MR / Algorithm 2 ZF model of _joint_sinr_model. Returns
    (constraint_map, lifts)."""
    if joint:
        return _joint_sinr_model(scn, processing, pilot_point)
    g, terms = sinr_terms(scn.dims, scn.gains, scn.pilots, fixed_pilots, processing.value)
    names = _stacked_names(scn)
    out = {}
    for user, name, g_i, a_i in zip(_all_users(scn), names, g, terms.sum(axis=0)):
        if g_i <= 0.0:
            raise GPInfeasibleError(f"user {user} has no usable desired link")
        out[user] = (Monomial(g_i, {name: 1.0}), Posynomial(
            [Monomial(1.0)] + [Monomial(c, {names[j]: 1.0})
                               for j, c in enumerate(a_i) if c > 0.0]))
    return out, {}


def _solve_gp_problem(scn, objective, constraint_map, lifts, joint, processing, settings):
    """Assemble and solve one GP; returns (solution, SINR level per user).

    Max-product minimizes the product of den/num over the users, and a
    user's level is its GP-model SINR at the solution. Max-min (joint scope)
    maximizes a common target subject to target * den / num <= 1, which is
    every user's level. Each auxiliary of lifts adds factor / aux <= 1 and
    the box [factor's lower bound, twice its upper bound]. The start puts
    every power at half budget and every auxiliary LIFT_MARGIN above its
    factor's value there, so it is strictly interior.
    """
    bounds = _power_bounds(scn, joint)
    start = dict.fromkeys(bounds, scn.p_max / 2.0)
    lift_constraints = []
    for name, factor in lifts.items():
        lower, upper = _posynomial_range(factor, bounds)
        bounds[name] = (lower, 2.0 * upper)
        start[name] = factor.value(start) * (1.0 + LIFT_MARGIN)
        lift_constraints.append(factor * Monomial(1.0, {name: -1.0}))
    if objective is Objective.MAXPROD:
        gp = GeometricProgram(objective=[den / num for num, den in constraint_map.values()],
                              posy_constraints=lift_constraints, bounds=bounds)
        solution = gp_solve(gp, settings.gp, initial=start)
        return solution, dict(zip(constraint_map, np.exp(-solution.log_factors)))

    ub = _joint_upper_bounds(scn, processing)
    base = _half_power_sinrs(scn, processing)
    # the start sits at half the weakest half-power SINR, strictly above the
    # lower bound
    weakest = min(base[u] for u in constraint_map)
    bounds["target"] = (max(weakest * 0.25, 1e-280), min(ub[u] for u in constraint_map))
    start["target"] = weakest * 0.5
    constraints = [den * Monomial(1.0, {"target": 1.0}) / num
                   for num, den in constraint_map.values()]
    gp = GeometricProgram(objective=Monomial(1.0, {"target": -1.0}),
                          posy_constraints=constraints + lift_constraints, bounds=bounds)
    solution = gp_solve(gp, settings.gp, initial=start)
    return solution, dict.fromkeys(constraint_map, solution.values["target"])


def _solve_single_gp(scn: Scenario, objective: Objective, processing: Processing,
                     joint, settings: ControlSettings = None,
                     fixed_pilots: PowerAllocation = None):
    """Max-product over data powers, or max-min / max-product jointly over
    pilot and data powers with MR, as one GP. Small powers are snapped to
    zero when the objective's own acceptance test still holds. Returns
    (allocation, value, diagnostics): the SE level for max-min, the log
    SINR product for max-product."""
    t0 = time.perf_counter()
    settings = settings or ControlSettings()
    if not joint:
        fixed_pilots = fixed_pilots or full_power_allocation(scn.dims, scn.p_max)
    diag = SolveDiagnostics()

    constraint_map, lifts = _sinr_constraints(scn, processing, joint, fixed_pilots)
    solution, levels = _solve_gp_problem(scn, objective, constraint_map, lifts, joint,
                                         processing, settings)
    alloc = _alloc_from_values(scn, solution.values, joint, fixed_pilots)
    if objective is Objective.MAXMIN:
        value = float(se_from_sinr(solution.values["target"], scn.dims))
        still_ok = lambda rep: _min_se(rep) >= value - 1e-6
    else:
        value = -solution.log_objective
        still_ok = lambda rep: _report_log_product(rep) >= value - 1e-9 * max(1.0, abs(value))
    alloc = _snap_small_powers(scn, alloc, processing, still_ok)

    diag.iterations = solution.newton_iterations
    diag.status = solution.status
    diag.objective_trace = [value]
    diag.targets = levels
    diag.active_constraints = _tight_constraints(
        scn, alloc, processing, levels if objective is Objective.MAXMIN else {})
    diag.wall_time = time.perf_counter() - t0
    return alloc, value, diag


# --- spec'd single-solve entry points -------------------------------------------

def maxprod_data(scn: Scenario, processing, settings: ControlSettings = None,
                 fixed_pilots: PowerAllocation = None):
    """Maximize the product of all user SINRs over data powers (pilot powers
    fixed). Returns (allocation, log_product, diagnostics); the objective is
    reported as the natural log of the SINR product, which stays finite at
    network scale."""
    return _solve_single_gp(scn, Objective.MAXPROD, Processing(processing), False,
                            settings, fixed_pilots)


def maxmin_joint_mr(scn: Scenario, settings: ControlSettings = None):
    """Joint pilot + data max-min fairness with MR processing: one GP over
    all four power families and the common SINR target. Returns
    (allocation, se_level, diagnostics)."""
    return _solve_single_gp(scn, Objective.MAXMIN, Processing.MR, True, settings)


def maxprod_joint_mr(scn: Scenario, settings: ControlSettings = None):
    """Joint pilot + data max-product-SINR with MR processing. Returns
    (allocation, log_product, diagnostics)."""
    return _solve_single_gp(scn, Objective.MAXPROD, Processing.MR, True, settings)


def _report_log_product(report):
    if np.any(report.sinr <= 0):
        return -np.inf
    return float(np.log(report.sinr).sum())


def _tight_constraints(scn, alloc, processing, sinr_levels, rel=1e-5):
    """Active constraints at alloc: every SINR constraint met within rel of
    its level (pass none for max-product, which has no SINR constraint) and
    every power at p_max."""
    out = []
    if sinr_levels:
        report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, processing.value)
        sinr = dict(zip(_all_users(scn), report.sinr))
        out += [("sinr", user) for user, target in sinr_levels.items()
                if sinr[user] <= target * (1 + rel)]
    data = np.concatenate([alloc.data_cu.ravel(), alloc.data_d2d])
    return out + [("p_max", user) for user, p in zip(_all_users(scn), data)
                  if p >= scn.p_max * (1 - 1e-5)]


# --- Algorithm 2: successive approximation for joint ZF --------------------------

def _true_objective(scn, alloc, objective):
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "zf")
    if objective is Objective.MAXPROD:
        return _report_log_product(report)
    return _min_se(report)


def zf_joint_successive(scn: Scenario, objective, settings: ControlSettings = None):
    """Joint pilot + data power control for ZF processing by successive
    monomial approximation of the non-posynomial residual ratios.

    Each iteration rebuilds the approximation at the previous pilot powers
    and solves the resulting GP from the same cold start as the first; the
    previous solution is feasible for it, so the true objective never falls.
    Two rules stop the loop with status "converged", and diag.notes says
    which one fired:
    - no pilot power moved by more than sca_power_tol * p_max;
    - the GP anchored at the last iterate did not raise the true objective.
      That iterate is a point its own approximation cannot improve, which
      is stationary for the true problem (Marks & Wright, Oper. Res. 26(4),
      1978); it is returned, with its targets, and the GP's point is not.
    A GP whose status is not "optimal" is noted in diag.notes. Returns
    (allocation, objective value, diagnostics) where the objective value is
    the max-min SE level or the log SINR product evaluated with the true
    (unapproximated) expressions; objective_trace holds it for the start
    and every accepted iterate.
    """
    t0 = time.perf_counter()
    settings = settings or ControlSettings()
    objective = Objective(objective)
    scn.dims.require_zf()
    diag = SolveDiagnostics()

    alloc = full_power_allocation(scn.dims, scn.p_max)  # full-power initialization
    diag.objective_trace.append(_true_objective(scn, alloc, objective))
    tol = settings.sca_power_tol * scn.p_max
    last_levels = None
    status = "iteration_cap"
    for it in range(1, settings.sca_cap + 1):
        pilot_point = dict(zip(_stacked_names(scn, pilot=True), _stacked_pilots(alloc)))
        constraint_map, lifts = _sinr_constraints(scn, Processing.ZF, True, None,
                                                  pilot_point=pilot_point)
        try:
            solution, levels = _solve_gp_problem(scn, objective, constraint_map, lifts,
                                                 True, Processing.ZF, settings)
        except (GPInfeasibleError, GPSolverError) as exc:
            diag.notes.append(f"iteration {it}: solver failure: {exc}")
            status = "solver_failure"
            break
        if solution.status != "optimal":
            diag.notes.append(f"iteration {it}: GP status {solution.status}")
        new_alloc = _alloc_from_values(scn, solution.values, True, None)
        value = _true_objective(scn, new_alloc, objective)
        diag.iterations = it
        if last_levels is not None and value <= diag.objective_trace[-1]:
            diag.notes.append(f"iteration {it}: objective did not rise; "
                              f"iteration {it - 1} is a fixed point")
            status = "converged"
            break

        move = float(np.max(np.abs(_stacked_pilots(new_alloc) - _stacked_pilots(alloc))))
        alloc = new_alloc
        last_levels = levels
        diag.objective_trace.append(value)
        if move < tol:
            diag.notes.append(f"iteration {it}: pilot move below sca_power_tol")
            status = "converged"
            break

    diag.status = status
    value = diag.objective_trace[-1]
    if last_levels is not None:
        diag.targets = last_levels
        diag.active_constraints = _tight_constraints(
            scn, alloc, Processing.ZF,
            last_levels if objective is Objective.MAXMIN else {})
    diag.wall_time = time.perf_counter() - t0
    return alloc, value, diag


# --- dispatcher -------------------------------------------------------------------

def solve_problem(scn: Scenario, spec: ControlProblemSpec,
                  settings: ControlSettings = None,
                  fixed_pilots: PowerAllocation = None):
    """Route one ControlProblemSpec to its solver. Returns (allocation,
    objective value, diagnostics); the value is an SE level in b/s/Hz for
    max-min objectives and a log SINR product for max-product."""
    settings = settings or spec.tolerances
    joint = spec.variables is VariableScope.JOINT
    if not joint and spec.objective is Objective.MAXMIN:
        return maxmin_data(scn, spec.processing, settings, fixed_pilots)
    if joint and spec.processing is Processing.ZF:
        return zf_joint_successive(scn, spec.objective, settings)
    return _solve_single_gp(scn, spec.objective, spec.processing, joint, settings,
                            fixed_pilots)


# --- JSON round trip of one solve (package API; the CLI writes run tables) -------

def solve_to_json(spec: ControlProblemSpec, alloc: PowerAllocation, value,
                  diag: SolveDiagnostics) -> str:
    """Serialize one solve request/response."""
    return json.dumps({
        "problem": {"objective": spec.objective.value,
                    "variables": spec.variables.value,
                    "processing": spec.processing.value,
                    "tolerances": {"bisection_eps": spec.tolerances.bisection_eps,
                                   "sca_power_tol": spec.tolerances.sca_power_tol,
                                   "bisection_cap": spec.tolerances.bisection_cap,
                                   "sca_cap": spec.tolerances.sca_cap}},
        "allocation": {"data_cu": alloc.data_cu.tolist(),
                       "data_d2d": alloc.data_d2d.tolist(),
                       "pilot_cu": alloc.pilot_cu.tolist(),
                       "pilot_d2d": alloc.pilot_d2d.tolist(),
                       "p_max": alloc.p_max},
        "value": value,
        "diagnostics": {"iterations": diag.iterations,
                        "objective_trace": diag.objective_trace,
                        "status": diag.status,
                        "active_constraints": [list(map(str, c)) for c in diag.active_constraints],
                        "wall_time": diag.wall_time,
                        "excluded_users": [list(map(str, u)) for u in diag.excluded_users],
                        "notes": diag.notes},
    })


def solve_from_json(text: str):
    """Parse a serialized solve back into (spec, allocation, value, status)."""
    raw = json.loads(text)
    prob = raw["problem"]
    tol = ControlSettings(**prob.get("tolerances", {}))
    spec = ControlProblemSpec(objective=prob["objective"],
                              variables=prob["variables"],
                              processing=prob["processing"], tolerances=tol)
    al = raw["allocation"]
    alloc = PowerAllocation(np.array(al["data_cu"]), np.array(al["data_d2d"]),
                            np.array(al["pilot_cu"]), np.array(al["pilot_d2d"]),
                            al["p_max"])
    return spec, alloc, raw["value"], raw["diagnostics"]["status"]
