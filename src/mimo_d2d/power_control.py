"""Power control: max-min fairness and max-product-SINR over data powers
(bisection on the minimal-power test / GP), jointly over pilot + data
powers for MR (GP), and the successive monomial-approximation loop for the
joint ZF problem.

With pilot powers fixed, user i's SINR is g_i p_i / (1 + a_i . p) in the
data powers p, a standard interference function given by one gain vector g
and one coupling matrix a, the sum of spectral.sinr_terms' per-mechanism
matrices. Algorithm 1 and its LP witness read (g, a), and evaluate_network
reads the same arrays. The max-product GP over data powers builds its
objective factors (1 + a_i . p) / (g_i p_i) as gp.Factors straight from
(g, a), with no posynomial object (_maxprod_data_factors). The joint
problems compile the closed-form SINR expressions with pilot powers as
variables, in lifted form: each posynomial factor of a denominator product
is one auxiliary GP variable (_joint_sinr_model). Because every user shares
the prelog factor, a common SE target is equivalent to a common SINR
target, which is how the max-min problems are expressed in GP form.
"""

import enum
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .scenario import Scenario
from .estimation import PowerAllocation, full_power_allocation
# perfbench/spans.py wraps the gamma functions at this import site
from .estimation import compute_gamma_bs, compute_gamma_d2drx, gamma_cu_bs_full  # noqa: F401
from .spectral import evaluate_network, se_from_sinr, sinr_terms
from .gp import (Factors, Monomial, Posynomial, GeometricProgram, LinearFeasibilityProblem,
                 SolverSettings, gp_solve, lp_feasible, monomial_lower_bound,
                 GPInfeasibleError, GPSolverError)

logger = logging.getLogger(__name__)

DEGENERATE_GAIN_RATIO = 1e-15
POWER_FLOOR_RATIO = 1e-12   # GP lower bound as a fraction of p_max
SNAP_RATIO = 1e-9           # snap-to-zero threshold as a fraction of p_max
SCA_TOL = 1e-5              # Algorithm 2 stops on a relative objective rise at most this


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
    """Solver tolerances: bisection accuracy in b/s/Hz and iteration caps.
    Algorithm 2's stop is the module constant SCA_TOL."""

    bisection_eps: float = 1e-3
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

    def __post_init__(self):
        object.__setattr__(self, "objective", Objective(self.objective))
        object.__setattr__(self, "variables", VariableScope(self.variables))
        object.__setattr__(self, "processing", Processing(self.processing))

    @property
    def problem_id(self) -> str:
        return f"{self.processing.value}-{self.objective.value}-{self.variables.value}"


@dataclass
class SolveDiagnostics:
    iterations: int = 0
    objective_trace: list = field(default_factory=list)
    status: str = ""
    wall_time: float = 0.0
    excluded_users: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    targets: dict = field(default_factory=dict)  # per-user SINR levels certified


# --- variable naming ----------------------------------------------------------

def _stacked_names(scn: Scenario, pilot=False):
    """GP variable names of the stacked powers, in dims.users() order: the
    data powers pc_b_k and pd_l, or the pilot powers ppc_b_k and ppd_l when
    pilot=True. The only place a power's name is spelled; the sorted names
    set the GP's column order."""
    prefix = "pp" if pilot else "p"
    return [f"{prefix}c_{b}_{i}" if kind == "cu" else f"{prefix}d_{i}"
            for kind, b, i in scn.dims.users()]


def _alloc_from_values(scn: Scenario, values, pilot_vars, fixed_pilots):
    """Allocation from a GP solution's values, clipped to [0, p_max]; pilot
    powers are fixed unless pilot_vars."""
    data = np.array([values[name] for name in _stacked_names(scn)])
    pilots = (np.array([values[name] for name in _stacked_names(scn, pilot=True)])
              if pilot_vars else fixed_pilots.stacked_pilots())
    return PowerAllocation.from_stacked(scn.dims, np.clip(data, 0.0, scn.p_max),
                                        np.clip(pilots, 0.0, scn.p_max), scn.p_max)


def _degenerate_users(scn: Scenario):
    """Users whose desired-link gain is vanishingly small compared to the
    strongest same-kind link; they would drag the max-min level to zero."""
    cells = np.arange(scn.dims.num_cells)
    own = (scn.gains.beta_cu_bs[cells, cells].ravel(), np.diag(scn.gains.beta_d2dtx_d2drx))
    weak = np.concatenate([g < g.max(initial=0.0) * DEGENERATE_GAIN_RATIO for g in own])
    return [user for user, w in zip(scn.dims.users(), weak) if w]


def _stacked_upper(scn: Scenario):
    return np.full(len(scn.dims.users()), scn.p_max)


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
    cols = np.array([i for i, u in enumerate(dims.users()) if u not in diag.excluded_users],
                    dtype=int)
    g, terms = sinr_terms(dims, scn.gains, scn.pilots, fixed_pilots, processing.value)
    g, a = g[cols], terms.sum(axis=0)[cols]
    upper = _stacked_upper(scn)
    pilots = np.clip(fixed_pilots.stacked_pilots(), 0.0, scn.p_max)
    prelog = dims.prelog

    # interference-free SE bound at maximum data power; 0 if a user has no desired link
    lam_hi = float(np.log2(1.0 + scn.p_max * g).min()) if g.size else 0.0
    if lam_hi <= 0.0:
        diag.status = "degenerate"
        diag.wall_time = time.perf_counter() - t0
        return (PowerAllocation.from_stacked(dims, np.zeros_like(upper), pilots, scn.p_max),
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
    alloc = PowerAllocation.from_stacked(dims, np.clip(data, 0.0, scn.p_max), pilots,
                                         scn.p_max)
    alloc = _snap_small_powers(scn, alloc, processing,
                               lambda rep: _min_se(rep, cols) >= lam_lo - 1e-6)
    diag.iterations = iterations
    diag.status = ("optimal" if lam_hi - lam_lo <= settings.bisection_eps
                   else "iteration_cap")
    diag.wall_time = time.perf_counter() - t0
    return alloc, lam_lo, diag


def _min_se(report, cols=slice(None)):
    """The least closed-form SE of the users at cols (stacked positions, all
    by default); 0 for none."""
    se = np.concatenate([report.cu_se.ravel(), report.d2d_se_approx])[cols]
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


def _lifted_factor(coeffs, names, skip=None):
    """1 + the sum over j != skip of coeffs[j] names[j]: one posynomial factor
    of a joint SINR denominator, a pilot sum 1 + sum tau beta q or a received
    power 1 + sum beta p. coeffs is one row of gains and names the power
    names that row reads, position for position in stacked order."""
    return Posynomial([Monomial(1.0)] + [Monomial(c, {x: 1.0})
                                         for j, (c, x) in enumerate(zip(coeffs, names))
                                         if j != skip])


def _joint_sinr_model(scn: Scenario, processing: Processing, pilot_point=None):
    """Every user's SINR with pilot and data powers as variables, in lifted
    form. Returns (constraint_map, lifts): constraint_map maps each user to
    (numerator monomial, denominator posynomial over powers and
    auxiliaries); lifts maps each auxiliary's name to the posynomial factor
    it stands for.

    A CU's denominator is s_{b,k} r_b plus its coherent pilot-contamination
    terms, with s_{b,k} the pilot sum at BS b and r_b the received power
    (MR) or the residual sum at the anchor pilot_point (ZF, Algorithm 2). A
    D2D pair's denominator uses the received power at its receiver. Every
    factor is _lifted_factor over a gain row and the stacked names p and q:
    user b K + k is CU k of cell b, user n_cu + l is pair l, and q[k:n_cu:K]
    are the CUs on pilot k, cell by cell."""
    dims, gains = scn.dims, scn.gains
    tau, cus = dims.pilot_len, dims.cus_per_cell
    cells = range(dims.num_cells)
    n_cu = dims.num_cells * cus
    factor = dims.zf_dof if processing is Processing.ZF else dims.antennas_per_bs
    p, q = _stacked_names(scn), _stacked_names(scn, pilot=True)
    pd, qd = p[n_cu:], q[n_cu:]
    # every user's gain to BS b (row b) and to D2D receiver l (row l)
    at_bs = np.hstack([gains.beta_cu_bs.reshape(dims.num_cells, n_cu), gains.beta_d2dtx_bs])
    at_rx = np.hstack([gains.beta_cu_d2drx.reshape(dims.num_d2d_pairs, n_cu),
                       gains.beta_d2dtx_d2drx])
    pilot_gain = tau * gains.beta_cu_bs  # [b, b2, k]: CU pilot k's row at BS b is [b, :, k]
    # per D2D pilot: its pairs' pilot gains to every BS (row b), and their names
    sets = scn.pilots.d2d_pilot_sets
    d2d_pilot_gain = [tau * gains.beta_d2dtx_bs[:, group] for group in sets]
    d2d_pilot_names = [[qd[j] for j in group] for group in sets]

    def residual_sum(b):
        """1 + R_b, the post-nulling residual interference at ZF BS b with
        each residual ratio's denominator replaced by its local monomial
        lower bound at pilot_point: an upper bound that touches at
        pilot_point. It depends on the cell, not on the CU, so the CUs of a
        cell share it."""
        terms = [Monomial(1.0)]
        for k2 in range(cus):
            row, names = pilot_gain[b, :, k2], q[k2:n_cu:cus]
            anchor = monomial_lower_bound(_lifted_factor(row, names), pilot_point)
            for b2 in cells:
                j = b2 * cus + k2
                power = Monomial(at_bs[b, j], {p[j]: 1.0}) / anchor
                terms += (_lifted_factor(row, names, skip=b2) * power).terms
        for group, rows, names in zip(sets, d2d_pilot_gain, d2d_pilot_names):
            row = rows[b]
            anchor = monomial_lower_bound(_lifted_factor(row, names), pilot_point)
            for i, l in enumerate(group):
                power = Monomial(at_bs[b, n_cu + l], {pd[l]: 1.0}) / anchor
                terms += (_lifted_factor(row, names, skip=i) * power).terms
        return Posynomial(terms)

    lifts, out = {}, {}
    for b in cells:
        beta = gains.beta_cu_bs[b]
        r = f"r_{b}"
        lifts[r] = (residual_sum(b) if processing is Processing.ZF
                    else _lifted_factor(at_bs[b], p))
        for k in range(cus):
            s = f"s_{b}_{k}"
            pk, qk = p[k:n_cu:cus], q[k:n_cu:cus]  # CU k of each cell
            lifts[s] = _lifted_factor(pilot_gain[b, :, k], qk)
            coherent = [factor * tau * beta[b2, k] ** 2 for b2 in cells]
            out[("cu", b, k)] = (
                Monomial(coherent[b], {pk[b]: 1.0, qk[b]: 1.0}),
                Posynomial([Monomial(1.0, {s: 1.0, r: 1.0})] + [
                    Monomial(c, {pk[b2]: 1.0, qk[b2]: 1.0})
                    for b2, c in enumerate(coherent) if b2 != b]))
    for l in range(dims.num_d2d_pairs):
        rd = f"rd_{l}"
        lifts[rd] = _lifted_factor(at_rx[l], p, skip=n_cu + l)
        beta_row = gains.beta_d2dtx_d2drx[l]
        group = scn.pilots.set_of(l)
        own_pilot = _lifted_factor(tau * beta_row[group],
                                   d2d_pilot_names[scn.pilots.pair_to_pilot[l]])
        den = own_pilot * Monomial(1.0, {rd: 1.0}) + Monomial(beta_row[l], {pd[l]: 1.0})
        for j in group:
            if j != l:
                den = den + Monomial(tau * beta_row[l] * beta_row[j],
                                     {pd[l]: 1.0, qd[j]: 1.0})
        out[("d2d", -1, l)] = (Monomial(tau * beta_row[l] ** 2, {pd[l]: 1.0, qd[l]: 1.0}),
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
    """The box [POWER_FLOOR_RATIO p_max, p_max] of every data power, and of
    every pilot power when joint."""
    names = _stacked_names(scn) + (_stacked_names(scn, pilot=True) if joint else [])
    return dict.fromkeys(names, (POWER_FLOOR_RATIO * scn.p_max, scn.p_max))


def _joint_upper_bounds(scn: Scenario, processing: Processing):
    """Contamination-free utopia SINRs with own pilot at full power (valid
    upper bounds however the pilot powers are chosen), in dims.users()
    order."""
    dims, gains, p_max = scn.dims, scn.gains, scn.p_max
    tau = dims.pilot_len
    factor = dims.zf_dof if processing is Processing.ZF else dims.antennas_per_bs
    cells = np.arange(dims.num_cells)
    own = np.concatenate([gains.beta_cu_bs[cells, cells].ravel(),
                          np.diag(gains.beta_d2dtx_d2drx)])
    # numpy's scalar power per user, which can differ from the vectorized
    # square by an ulp (see _maxprod_data_factors)
    gamma = np.array([tau * p_max * beta ** 2 / (1.0 + tau * p_max * beta) for beta in own])
    n_cu = cells.size * dims.cus_per_cell
    return np.concatenate([p_max * factor * gamma[:n_cu], p_max * gamma[n_cu:]])


def _half_power_sinrs(scn: Scenario, processing: Processing, fixed_pilots=None):
    """Every user's SINR, in dims.users() order, with all data powers at half
    budget and the given pilot powers (by default at half budget as well)."""
    half = scn.p_max / 2.0
    dims = scn.dims
    cu = np.full((dims.num_cells, dims.cus_per_cell), half)
    d2d = np.full(dims.num_d2d_pairs, half)
    pilots = fixed_pilots or PowerAllocation(cu, d2d, cu, d2d, scn.p_max)
    alloc = PowerAllocation(cu, d2d, pilots.pilot_cu, pilots.pilot_d2d, scn.p_max)
    return evaluate_network(dims, scn.gains, scn.pilots, alloc, processing.value).sinr


def _maxprod_data_factors(scn: Scenario, processing: Processing, fixed_pilots):
    """The max-product objective over data powers as Factors, built straight
    from sinr_terms' (g, a). User i's factor (1 + a_i . p) / (g_i p_i), in
    dims.users() order, is the term 1/g_i with exponent -1 on p_i, then one
    term a_ij/g_i per positive coupling, with +1 on p_j and -1 on p_i (a
    constant when j = i). Each coefficient is a_ij * g_i ** -1.0 with
    numpy's scalar power and each offset its math.log: the arithmetic of
    Factors.from_posynomials, which a vectorized reciprocal or log can miss
    by an ulp, so the stack is bit for bit the one the same factors give as
    posynomials. Raises GPInfeasibleError for a user with g_i <= 0, whose
    SINR is identically zero."""
    g, terms = sinr_terms(scn.dims, scn.gains, scn.pilots, fixed_pilots, processing.value)
    dead = np.flatnonzero(g <= 0.0)
    if dead.size:
        raise GPInfeasibleError(f"user {scn.dims.users()[dead[0]]} has no usable desired link")
    a = terms.sum(axis=0)
    inv = np.array([g_i ** -1.0 for g_i in g])
    # row i holds user i's terms: column 0 the constant, column j + 1 the
    # coupling to user j
    coeffs = np.hstack([inv[:, None], a * inv[:, None]])
    kept = np.hstack([np.ones((g.size, 1), dtype=bool), a > 0.0])
    user, col = np.nonzero(kept)
    partner, term = col - 1, np.arange(user.size)
    divided = partner != user            # every term but a_ii's has p_i^-1
    coupled = divided & (partner >= 0)   # a coupling to j != i has p_j
    return Factors(ptr=np.concatenate([[0], np.cumsum(kept.sum(axis=1))]),
                   log_coeff=list(map(math.log, coeffs[kept].tolist())),
                   term=np.concatenate([term[coupled], term[divided]]),
                   var=np.concatenate([partner[coupled], user[divided]]),
                   exp=np.concatenate([np.ones(coupled.sum()), -np.ones(divided.sum())]),
                   names=tuple(_stacked_names(scn)))


def _solve_gp_problem(scn, objective, constraint_map, lifts, processing, settings):
    """Assemble and solve one joint GP over pilot and data powers from the
    lifted model of _joint_sinr_model; returns (solution, SINR level per
    user). The max-product GP over data powers is not assembled here: its
    objective is Factors built from (g, a) by _maxprod_data_factors, and it
    has no constraint. Both reach gp_solve's one compile path, from Factors
    to a log-sum-exp stack.

    Max-product minimizes the product of den/num over the users, and a
    user's level is its GP-model SINR at the solution. Max-min maximizes a
    common target subject to target * den / num <= 1, which is every
    user's level. Each auxiliary of lifts adds factor / aux <= 1 and the box
    [factor's lower bound, twice its upper bound]. The start puts every
    power at half budget and every auxiliary LIFT_MARGIN above its factor's
    value there, so it is strictly interior.
    """
    bounds = _power_bounds(scn, True)
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

    # the start sits at half the weakest half-power SINR, strictly above the
    # lower bound
    weakest = _half_power_sinrs(scn, processing).min()
    bounds["target"] = (max(weakest * 0.25, 1e-280), _joint_upper_bounds(scn, processing).min())
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

    if joint:
        constraint_map, lifts = _joint_sinr_model(scn, processing)
        solution, levels = _solve_gp_problem(scn, objective, constraint_map, lifts,
                                             processing, settings)
    else:
        bounds = _power_bounds(scn, False)
        gp = GeometricProgram(objective=_maxprod_data_factors(scn, processing, fixed_pilots),
                              bounds=bounds)
        solution = gp_solve(gp, settings.gp, initial=dict.fromkeys(bounds, scn.p_max / 2.0))
        levels = dict(zip(scn.dims.users(), np.exp(-solution.log_factors)))
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
    One rule stops the loop with status "converged": a GP iterate raised
    the true objective over the previous GP iterate by at most
    SCA_TOL * |value| (Chiang et al., IEEE TWC 6(7), 2007). The first GP
    iterate is always taken; a later one that did not rise at all is not.
    The previous iterate is then a point its own approximation cannot
    improve, which is stationary for the true problem (Marks & Wright,
    Oper. Res. 26(4), 1978), and it is returned with its targets. A stop on
    a small positive rise certifies no stationarity. diag.notes says which
    case ended the loop, and notes any GP whose status is not "optimal".
    Returns (allocation, objective value, diagnostics) where the objective value is
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
    last_levels = None
    status = "iteration_cap"
    for it in range(1, settings.sca_cap + 1):
        pilot_point = dict(zip(_stacked_names(scn, pilot=True), alloc.stacked_pilots()))
        constraint_map, lifts = _joint_sinr_model(scn, Processing.ZF, pilot_point)
        try:
            solution, levels = _solve_gp_problem(scn, objective, constraint_map, lifts,
                                                 Processing.ZF, settings)
        except (GPInfeasibleError, GPSolverError) as exc:
            diag.notes.append(f"iteration {it}: solver failure: {exc}")
            status = "solver_failure"
            break
        if solution.status != "optimal":
            diag.notes.append(f"iteration {it}: GP status {solution.status}")
        new_alloc = _alloc_from_values(scn, solution.values, True, None)
        value = _true_objective(scn, new_alloc, objective)
        diag.iterations = it
        rise = value - diag.objective_trace[-1]
        if it == 1 or rise > 0.0:
            alloc, last_levels = new_alloc, levels
            diag.objective_trace.append(value)
        if it > 1 and rise <= SCA_TOL * abs(value):
            diag.notes.append(f"iteration {it}: objective did not rise; "
                              f"iteration {it - 1} is a fixed point" if rise <= 0.0 else
                              f"iteration {it}: objective rose by at most SCA_TOL")
            status = "converged"
            break

    diag.status = status
    value = diag.objective_trace[-1]
    if last_levels is not None:
        diag.targets = last_levels
    diag.wall_time = time.perf_counter() - t0
    return alloc, value, diag


# --- dispatcher -------------------------------------------------------------------

def solve_problem(scn: Scenario, spec: ControlProblemSpec,
                  settings: ControlSettings = None,
                  fixed_pilots: PowerAllocation = None):
    """Route one ControlProblemSpec to its solver. Returns (allocation,
    objective value, diagnostics); the value is an SE level in b/s/Hz for
    max-min objectives and a log SINR product for max-product."""
    settings = settings or ControlSettings()
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
                    "processing": spec.processing.value},
        "allocation": {"data_cu": alloc.data_cu.tolist(),
                       "data_d2d": alloc.data_d2d.tolist(),
                       "pilot_cu": alloc.pilot_cu.tolist(),
                       "pilot_d2d": alloc.pilot_d2d.tolist(),
                       "p_max": alloc.p_max},
        "value": value,
        "diagnostics": {"iterations": diag.iterations,
                        "objective_trace": diag.objective_trace,
                        "status": diag.status,
                        "wall_time": diag.wall_time,
                        "excluded_users": [list(map(str, u)) for u in diag.excluded_users],
                        "notes": diag.notes},
    })


def solve_from_json(text: str):
    """Parse a serialized solve back into (spec, allocation, value, status)."""
    raw = json.loads(text)
    prob = raw["problem"]
    spec = ControlProblemSpec(objective=prob["objective"],
                              variables=prob["variables"],
                              processing=prob["processing"])
    al = raw["allocation"]
    alloc = PowerAllocation(np.array(al["data_cu"]), np.array(al["data_d2d"]),
                            np.array(al["pilot_cu"]), np.array(al["pilot_d2d"]),
                            al["p_max"])
    return spec, alloc, raw["value"], raw["diagnostics"]["status"]
