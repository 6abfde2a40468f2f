"""Power control: max-min fairness and max-product-SINR over data powers
(bisection on the minimal-power test / GP), jointly over pilot + data
powers for MR (GP), and the successive monomial-approximation loop for the
joint ZF problem.

All solvers compile the closed-form SINR expressions into the gp module's
problem containers. Because every user shares the prelog factor, a common
SE target is equivalent to a common SINR target, which is how the max-min
problems are expressed in GP form.
"""

import enum
import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .scenario import Scenario
from .estimation import (PowerAllocation, compute_gamma_bs, compute_gamma_d2drx,
                         gamma_cu_bs_full)
from .spectral import evaluate_network, se_from_sinr
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


def _aux_cu(b, k):
    return f"sinr_cu_{b}_{k}"


def _aux_d2d(l):
    return f"sinr_d2d_{l}"


def _alloc_from_values(scn: Scenario, values, pilot_vars, fixed_pilots):
    dims = scn.dims
    data_cu = np.zeros((dims.num_cells, dims.cus_per_cell))
    data_d2d = np.zeros(dims.num_d2d_pairs)
    for b in range(dims.num_cells):
        for k in range(dims.cus_per_cell):
            data_cu[b, k] = values.get(_pc(b, k), 0.0)
    for l in range(dims.num_d2d_pairs):
        data_d2d[l] = values.get(_pd(l), 0.0)
    if pilot_vars:
        pilot_cu = np.array([[values[_qc(b, k)] for k in range(dims.cus_per_cell)]
                             for b in range(dims.num_cells)])
        pilot_d2d = np.array([values[_qd(l)] for l in range(dims.num_d2d_pairs)])
    else:
        pilot_cu = fixed_pilots.pilot_cu.copy()
        pilot_d2d = fixed_pilots.pilot_d2d.copy()
    clip = lambda a: np.clip(a, 0.0, scn.p_max)
    return PowerAllocation(clip(data_cu), clip(data_d2d), clip(pilot_cu),
                           clip(pilot_d2d), scn.p_max)


def _default_pilots(scn: Scenario) -> PowerAllocation:
    dims = scn.dims
    return PowerAllocation(np.full((dims.num_cells, dims.cus_per_cell), scn.p_max),
                           np.full(dims.num_d2d_pairs, scn.p_max),
                           np.full((dims.num_cells, dims.cus_per_cell), scn.p_max),
                           np.full(dims.num_d2d_pairs, scn.p_max), scn.p_max)


def _degenerate_users(scn: Scenario):
    """Users whose desired-link gain is vanishingly small compared to the
    strongest same-kind link; they would drag the max-min level to zero."""
    dims = scn.dims
    out = []
    own_cu = np.array([[scn.gains.beta_cu_bs[b, b, k] for k in range(dims.cus_per_cell)]
                       for b in range(dims.num_cells)])
    if own_cu.size:
        cutoff = own_cu.max() * DEGENERATE_GAIN_RATIO
        out += [("cu", b, k) for b in range(dims.num_cells)
                for k in range(dims.cus_per_cell) if own_cu[b, k] < cutoff]
    if dims.num_d2d_pairs:
        own_d = np.diag(scn.gains.beta_d2dtx_d2drx)
        cutoff = own_d.max() * DEGENERATE_GAIN_RATIO
        out += [("d2d", -1, l) for l in range(dims.num_d2d_pairs) if own_d[l] < cutoff]
    return out


# --- affine SINR coefficients at fixed pilot powers ----------------------------

@dataclass
class _AffineSinr:
    """num_coeffs @ x  >=  t * (den_const + den_coeffs @ x) over the stacked
    power vector x = [data_cu.ravel(), data_d2d]."""

    user: tuple
    num_coeffs: np.ndarray
    den_const: float
    den_coeffs: np.ndarray


def _stacked_upper(scn: Scenario):
    n = scn.dims.num_cells * scn.dims.cus_per_cell + scn.dims.num_d2d_pairs
    return np.full(n, scn.p_max)


def _affine_sinr_rows(scn: Scenario, processing: Processing,
                      fixed_pilots: PowerAllocation, include=None):
    """Affine numerator/denominator of every user's SINR in the data powers,
    with pilot powers held fixed."""
    dims, gains, pilots = scn.dims, scn.gains, scn.pilots
    b_, k_, l_ = dims.num_cells, dims.cus_per_cell, dims.num_d2d_pairs
    n_cu = b_ * k_
    gamma_full = gamma_cu_bs_full(gains, fixed_pilots, dims)
    q_bs = compute_gamma_bs(gains, fixed_pilots, pilots, dims)
    q_rx = compute_gamma_d2drx(gains, fixed_pilots, pilots, dims)
    if processing is Processing.ZF:
        dims.require_zf()
        gain_factor = dims.zf_dof
    else:
        gain_factor = dims.antennas_per_bs

    rows = []
    for b in range(b_):
        for k in range(k_):
            if include is not None and ("cu", b, k) not in include:
                continue
            num = np.zeros(n_cu + l_)
            num[b * k_ + k] = gain_factor * gamma_full[b, b, k]
            den = np.zeros(n_cu + l_)
            if processing is Processing.MR:
                den[:n_cu] = gains.beta_cu_bs[b].ravel()
                den[n_cu:] = gains.beta_d2dtx_bs[b]
            else:
                den[:n_cu] = (gains.beta_cu_bs[b] - gamma_full[b]).ravel()
                den[n_cu:] = gains.beta_d2dtx_bs[b] - q_bs.gamma_d2d_bs[b]
            for b2 in range(b_):
                if b2 != b:
                    den[b2 * k_ + k] += gain_factor * gamma_full[b, b2, k]
            rows.append(_AffineSinr(("cu", b, k), num, 1.0, den))
    for l in range(l_):
        if include is not None and ("d2d", -1, l) not in include:
            continue
        num = np.zeros(n_cu + l_)
        num[n_cu + l] = q_rx.gamma_d2d_d2drx[l, l]
        den = np.zeros(n_cu + l_)
        den[:n_cu] = gains.beta_cu_d2drx[l].ravel()
        den[n_cu:] = gains.beta_d2dtx_d2drx[l]
        den[n_cu + l] = gains.beta_d2dtx_d2drx[l, l] - q_rx.gamma_d2d_d2drx[l, l]
        rows.append(_AffineSinr(("d2d", -1, l), num, 1.0, den))
    return rows


def _sinr_upper_bounds(scn: Scenario, processing: Processing,
                       fixed_pilots: PowerAllocation, users):
    """Interference-free SINR upper bounds at maximum data power and the
    given pilot powers."""
    dims = scn.dims
    gamma_full = gamma_cu_bs_full(scn.gains, fixed_pilots, dims)
    q_rx = compute_gamma_d2drx(scn.gains, fixed_pilots, scn.pilots, dims)
    factor = dims.zf_dof if processing is Processing.ZF else dims.antennas_per_bs
    out = {}
    for user in users:
        kind, b, idx = user
        if kind == "cu":
            out[user] = scn.p_max * factor * gamma_full[b, b, idx]
        else:
            out[user] = scn.p_max * q_rx.gamma_d2d_d2drx[idx, idx]
    return out


# --- max-min over data powers: Algorithm-1 bisection ---------------------------

def _normalized_rows(rows, cols):
    """(f, h) = (a / g, c / g) for the SINR rows g_i p_i >= t (c_i + a_i . p)
    over the columns cols, where cols[i] is row i's own power."""
    gain = np.array([r.num_coeffs[j] for r, j in zip(rows, cols)])
    f = np.array([r.den_coeffs[cols] for r in rows]) / gain[:, None]
    h = np.array([r.den_const for r in rows]) / gain
    return f, h


def _minimal_powers(f, h, t, upper):
    """Minimal power vector p = (I - t f)^-1 t h meeting every SINR row
    g_i p_i >= t (c_i + a_i . p) with equality, where f = a / g and h = c / g
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
    fixed_pilots = fixed_pilots or _default_pilots(scn)
    diag = SolveDiagnostics()
    diag.excluded_users = _degenerate_users(scn)
    if diag.excluded_users:
        logger.warning("max-min: excluding degenerate users %s", diag.excluded_users)

    dims = scn.dims
    included = [u for u in _all_users(scn) if u not in diag.excluded_users]
    rows = _affine_sinr_rows(scn, processing, fixed_pilots, include=set(included))
    upper = _stacked_upper(scn)
    prelog = dims.prelog

    bounds = _sinr_upper_bounds(scn, processing, fixed_pilots, included)
    finite = [np.log2(1.0 + v) for v in bounds.values() if v > 0]
    lam_hi = min(finite) if len(finite) == len(included) and finite else 0.0
    if lam_hi <= 0.0:
        diag.status = "degenerate"
        diag.wall_time = time.perf_counter() - t0
        alloc = _alloc_from_values(scn, {}, False, fixed_pilots)
        return alloc, 0.0, diag
    diag.notes.append(f"lambda_upper_initial={lam_hi:.6f}")

    def sinr_target(lam):
        return 2.0 ** (lam / prelog) - 1.0

    # the included users' own columns, in row order; excluded users' powers are zero
    n_cu = dims.num_cells * dims.cus_per_cell
    cols = np.array([b * dims.cus_per_cell + k if kind == "cu" else n_cu + k
                     for kind, b, k in included])
    f, h = _normalized_rows(rows, cols)

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
        a = np.array([t * r.den_coeffs - r.num_coeffs for r in rows])
        c = np.array([-t * r.den_const for r in rows])
        result = lp_feasible(LinearFeasibilityProblem(a, c, upper), settings.gp)
        if result.feasible:
            witness = result.witness
        else:  # the LP's verdict differs at its tolerance; the minimal powers pass
            witness = np.zeros_like(upper)
            witness[cols] = _minimal_powers(f, h, t, upper[cols])
            diag.notes.append("witness=minimal_powers")

    values = {}
    for b in range(dims.num_cells):
        for k in range(dims.cus_per_cell):
            if ("cu", b, k) not in diag.excluded_users:
                values[_pc(b, k)] = witness[b * dims.cus_per_cell + k]
    for l in range(dims.num_d2d_pairs):
        if ("d2d", -1, l) not in diag.excluded_users:
            values[_pd(l)] = witness[n_cu + l]
    alloc = _alloc_from_values(scn, values, False, fixed_pilots)
    alloc = _snap_small_powers(scn, alloc, processing,
                               lambda rep: _min_se(rep, included) >= lam_lo - 1e-6)

    report = evaluate_network(dims, scn.gains, scn.pilots, alloc, processing.value)
    min_se = _min_se(report, included)
    diag.iterations = iterations
    diag.status = ("optimal" if lam_hi - lam_lo <= settings.bisection_eps
                   else "iteration_cap")
    diag.active_constraints = [u for u in included
                               if _user_se(report, u) <= lam_lo + settings.bisection_eps]
    diag.notes.append(f"min_se_at_witness={min_se:.6f}")
    diag.wall_time = time.perf_counter() - t0
    return alloc, lam_lo, diag


def _user_se(report, user):
    kind, b, idx = user
    return report.cu_se[b, idx] if kind == "cu" else report.d2d_se_approx[idx]


def _min_se(report, users):
    return min(_user_se(report, u) for u in users) if users else 0.0


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


# --- posynomial compilation ----------------------------------------------------

def _mr_sinr_posynomial(scn: Scenario, b, k, joint, fixed_pilots):
    """(numerator monomial, denominator posynomial) of the MR SINR of CU
    (b, k); pilot powers are variables when joint=True."""
    dims, gains = scn.dims, scn.gains
    tau, m = dims.pilot_len, dims.antennas_per_bs
    beta = gains.beta_cu_bs[b]  # (B', K)

    if joint:
        pilot_sum = Posynomial([Monomial(1.0)] + [
            Monomial(tau * beta[b2, k], {_qc(b2, k): 1.0}) for b2 in range(dims.num_cells)])
        num = Monomial(m * tau * beta[b, k] ** 2, {_pc(b, k): 1.0, _qc(b, k): 1.0})
        contamination = [Monomial(m * tau * beta[b2, k] ** 2,
                                  {_pc(b2, k): 1.0, _qc(b2, k): 1.0})
                         for b2 in range(dims.num_cells) if b2 != b]
    else:
        if fixed_pilots.pilot_cu[b, k] <= 0.0:
            raise GPInfeasibleError(f"CU ({b},{k}) has zero pilot power, its SINR "
                                    "is identically zero", margin=np.inf)
        denom_k = 1.0 + tau * float(fixed_pilots.pilot_cu[:, k] @ beta[:, k])
        pilot_sum = Posynomial([Monomial(denom_k)])
        num = Monomial(m * tau * fixed_pilots.pilot_cu[b, k] * beta[b, k] ** 2,
                       {_pc(b, k): 1.0})
        contamination = [
            Monomial(m * tau * fixed_pilots.pilot_cu[b2, k] * beta[b2, k] ** 2,
                     {_pc(b2, k): 1.0})
            for b2 in range(dims.num_cells)
            if b2 != b and fixed_pilots.pilot_cu[b2, k] > 0.0]

    received = Posynomial([Monomial(1.0)] + [
        Monomial(beta[b2, k2], {_pc(b2, k2): 1.0})
        for b2 in range(dims.num_cells) for k2 in range(dims.cus_per_cell)] + [
        Monomial(gains.beta_d2dtx_bs[b, l], {_pd(l): 1.0})
        for l in range(dims.num_d2d_pairs)])
    den = pilot_sum * received
    for term in contamination:
        den = den + term
    return num, den


def _d2d_sinr_posynomial(scn: Scenario, l, joint, fixed_pilots):
    """(numerator monomial, denominator posynomial) of the approximate D2D
    SINR of pair l, in expanded form when pilot powers are variables."""
    dims, gains = scn.dims, scn.gains
    tau = dims.pilot_len
    beta_row = gains.beta_d2dtx_d2drx[l]
    group = scn.pilots.set_of(l)

    received = Posynomial([Monomial(1.0)] + [
        Monomial(gains.beta_cu_d2drx[l, b, k], {_pc(b, k): 1.0})
        for b in range(dims.num_cells) for k in range(dims.cus_per_cell)] + [
        Monomial(beta_row[j], {_pd(j): 1.0})
        for j in range(dims.num_d2d_pairs) if j != l])

    if joint:
        num = Monomial(tau * beta_row[l] ** 2, {_pd(l): 1.0, _qd(l): 1.0})
        own_pilot = Posynomial([Monomial(1.0)] + [
            Monomial(tau * beta_row[j], {_qd(j): 1.0}) for j in group])
        den = own_pilot * received + Monomial(beta_row[l], {_pd(l): 1.0})
        for j in group:
            if j != l:
                den = den + Monomial(tau * beta_row[l] * beta_row[j],
                                     {_pd(l): 1.0, _qd(j): 1.0})
        return num, den

    q_rx = compute_gamma_d2drx(gains, fixed_pilots, scn.pilots, dims).gamma_d2d_d2drx
    gamma_l = q_rx[l, l]
    if gamma_l <= 0.0:
        raise GPInfeasibleError(f"D2D pair {l} has zero estimate quality at the "
                                "fixed pilot powers", margin=np.inf)
    num = Monomial(gamma_l, {_pd(l): 1.0})
    den = received + Monomial(max(beta_row[l] - gamma_l, 1e-300), {_pd(l): 1.0})
    return num, den


def _zf_tilde_denominator(scn: Scenario, b, k, pilot_point):
    """Posynomial upper bound of the ZF interference denominator of CU
    (b, k), obtained by replacing the denominator of each post-nulling
    residual ratio with its local monomial lower bound at pilot_point."""
    dims, gains, pilots = scn.dims, scn.gains, scn.pilots
    tau, dof = dims.pilot_len, dims.zf_dof
    beta = gains.beta_cu_bs[b]

    pilot_sum_k = Posynomial([Monomial(1.0)] + [
        Monomial(tau * beta[b2, k], {_qc(b2, k): 1.0}) for b2 in range(dims.num_cells)])

    den = Posynomial(pilot_sum_k.terms)
    for k2 in range(dims.cus_per_cell):
        full = Posynomial([Monomial(1.0)] + [
            Monomial(tau * beta[b2, k2], {_qc(b2, k2): 1.0})
            for b2 in range(dims.num_cells)])
        anchor = monomial_lower_bound(full, pilot_point)
        for b2 in range(dims.num_cells):
            leave_out = Posynomial([Monomial(1.0)] + [
                Monomial(tau * beta[b3, k2], {_qc(b3, k2): 1.0})
                for b3 in range(dims.num_cells) if b3 != b2])
            residual = leave_out / anchor
            den = den + pilot_sum_k * residual * Monomial(beta[b2, k2], {_pc(b2, k2): 1.0})
    for i, group in enumerate(pilots.d2d_pilot_sets):
        full = Posynomial([Monomial(1.0)] + [
            Monomial(tau * gains.beta_d2dtx_bs[b, j], {_qd(j): 1.0}) for j in group])
        anchor = monomial_lower_bound(full, pilot_point)
        for l in group:
            leave_out = Posynomial([Monomial(1.0)] + [
                Monomial(tau * gains.beta_d2dtx_bs[b, j], {_qd(j): 1.0})
                for j in group if j != l])
            residual = leave_out / anchor
            den = den + pilot_sum_k * residual * Monomial(gains.beta_d2dtx_bs[b, l],
                                                          {_pd(l): 1.0})
    for b2 in range(dims.num_cells):
        if b2 != b:
            den = den + Monomial(dof * tau * beta[b2, k] ** 2,
                                 {_pc(b2, k): 1.0, _qc(b2, k): 1.0})
    return den


def _zf_numerator(scn: Scenario, b, k):
    beta = scn.gains.beta_cu_bs[b, b, k]
    return Monomial(scn.dims.zf_dof * scn.dims.pilot_len * beta ** 2,
                    {_pc(b, k): 1.0, _qc(b, k): 1.0})


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


def _warm_start(scn: Scenario, joint, aux_targets):
    """Interior starting point: every power at half budget, every auxiliary
    at half its SINR there."""
    point = {name: scn.p_max / 2.0 for name in _power_bounds(scn, joint)}
    point.update(aux_targets)
    return point


def _half_power_sinrs(scn: Scenario, processing: Processing, joint, fixed_pilots):
    half = scn.p_max / 2.0
    dims = scn.dims
    pilot_cu = np.full((dims.num_cells, dims.cus_per_cell), half) if joint \
        else fixed_pilots.pilot_cu
    pilot_d2d = np.full(dims.num_d2d_pairs, half) if joint else fixed_pilots.pilot_d2d
    alloc = PowerAllocation(np.full((dims.num_cells, dims.cus_per_cell), half),
                            np.full(dims.num_d2d_pairs, half),
                            pilot_cu, pilot_d2d, scn.p_max)
    report = evaluate_network(dims, scn.gains, scn.pilots, alloc, processing.value)
    return {u: report.breakdowns[u].sinr for u in _all_users(scn)}


def _sinr_constraints(scn: Scenario, processing: Processing, joint, fixed_pilots,
                      pilot_point=None):
    """Per-user (numerator, denominator) pairs for the GP compile path."""
    out = {}
    dims = scn.dims
    for b in range(dims.num_cells):
        for k in range(dims.cus_per_cell):
            if processing is Processing.MR:
                out[("cu", b, k)] = _mr_sinr_posynomial(scn, b, k, joint, fixed_pilots)
            elif joint:
                out[("cu", b, k)] = (_zf_numerator(scn, b, k),
                                     _zf_tilde_denominator(scn, b, k, pilot_point))
            else:
                rows = _affine_sinr_rows(scn, processing, fixed_pilots,
                                         include={("cu", b, k)})
                out[("cu", b, k)] = _affine_to_posynomial(scn, rows[0])
    for l in range(dims.num_d2d_pairs):
        out[("d2d", -1, l)] = _d2d_sinr_posynomial(scn, l, joint, fixed_pilots)
    return out


def _affine_to_posynomial(scn: Scenario, row: _AffineSinr):
    dims = scn.dims
    k_ = dims.cus_per_cell
    n_cu = dims.num_cells * k_
    names = [_pc(i // k_, i % k_) for i in range(n_cu)] + \
            [_pd(l) for l in range(dims.num_d2d_pairs)]
    nz = np.flatnonzero(row.num_coeffs)
    if nz.size != 1:
        raise GPInfeasibleError(f"user {row.user} has no usable desired link",
                                margin=np.inf)
    num = Monomial(row.num_coeffs[nz[0]], {names[nz[0]]: 1.0})
    terms = [Monomial(row.den_const)]
    terms += [Monomial(c, {names[i]: 1.0})
              for i, c in enumerate(row.den_coeffs) if c > 0.0]
    return num, Posynomial(terms)


def _solve_gp_problem(scn, objective, constraint_map, joint, fixed_pilots,
                      processing, settings, warm_aux=None):
    """Assemble and solve one GP; returns (solution, aux values per user)."""
    bounds = _power_bounds(scn, joint)
    ub = _joint_upper_bounds(scn, processing) if joint \
        else _sinr_upper_bounds(scn, processing, fixed_pilots, constraint_map)
    base = _half_power_sinrs(scn, processing, joint, fixed_pilots)

    constraints = []
    aux_start = {}
    if objective is Objective.MAXPROD:
        obj_exps = {}
        for user, (num, den) in constraint_map.items():
            name = _aux_cu(user[1], user[2]) if user[0] == "cu" else _aux_d2d(user[2])
            obj_exps[name] = -1.0
            bounds[name] = (max(base[user] * 1e-9, 1e-280), ub[user])
            constraints.append(den * Monomial(1.0, {name: 1.0}) / num)
            aux_start[name] = base[user] * 0.5
        objective_posy = Posynomial([Monomial(1.0, obj_exps)])
    else:
        # the start sits at half the weakest half-power SINR, strictly above
        # the lower bound, so a warm start needs no phase 1
        weakest = min(base[u] for u in constraint_map)
        bounds["target"] = (max(weakest * 0.25, 1e-280), min(ub[u] for u in constraint_map))
        for user, (num, den) in constraint_map.items():
            constraints.append(den * Monomial(1.0, {"target": 1.0}) / num)
        objective_posy = Posynomial([Monomial(1.0, {"target": -1.0})])
        aux_start["target"] = weakest * 0.5

    gp = GeometricProgram(objective=objective_posy, posy_constraints=constraints,
                          bounds=bounds)
    initial = warm_aux if warm_aux is not None else _warm_start(scn, joint, aux_start)
    solution = gp_solve(gp, settings.gp, initial=initial)

    aux = {}
    for user in constraint_map:
        if objective is Objective.MAXPROD:
            name = _aux_cu(user[1], user[2]) if user[0] == "cu" else _aux_d2d(user[2])
            aux[user] = solution.values[name]
            lo, hi = bounds[name]
            if aux[user] < 2.0 * lo or aux[user] > hi / 1.001:
                logger.warning("auxiliary %s = %.3e close to its box [%a, %a]",
                               name, aux[user], lo, hi)
        else:
            aux[user] = solution.values["target"]
    return solution, aux


def _log_product(aux):
    return float(sum(np.log(v) for v in aux.values()))


# --- spec'd single-solve entry points -------------------------------------------

def maxprod_data(scn: Scenario, processing, settings: ControlSettings = None,
                 fixed_pilots: PowerAllocation = None):
    """Maximize the product of all user SINRs over data powers (pilot powers
    fixed). Returns (allocation, log_product, diagnostics); the objective is
    reported as the natural log of the SINR product, which stays finite at
    network scale."""
    t0 = time.perf_counter()
    settings = settings or ControlSettings()
    processing = Processing(processing)
    fixed_pilots = fixed_pilots or _default_pilots(scn)
    diag = SolveDiagnostics()

    constraint_map = _sinr_constraints(scn, processing, False, fixed_pilots)
    solution, aux = _solve_gp_problem(scn, Objective.MAXPROD, constraint_map,
                                      False, fixed_pilots, processing, settings)
    alloc = _alloc_from_values(scn, solution.values, False, fixed_pilots)
    log_prod = _log_product(aux)
    alloc = _snap_small_powers(
        scn, alloc, processing,
        lambda rep: _report_log_product(rep) >= log_prod - 1e-9 * max(1.0, abs(log_prod)))

    diag.iterations = solution.newton_iterations
    diag.status = solution.status
    diag.objective_trace = [log_prod]
    diag.targets = dict(aux)
    diag.active_constraints = _tight_constraints(scn, alloc, processing, aux)
    diag.wall_time = time.perf_counter() - t0
    return alloc, log_prod, diag


def _report_log_product(report):
    sinrs = [bd.sinr for bd in report.breakdowns.values()]
    if any(s <= 0 for s in sinrs):
        return -np.inf
    return float(sum(np.log(s) for s in sinrs))


def _tight_constraints(scn, alloc, processing, aux, rel=1e-5):
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, processing.value)
    out = []
    for user, target in aux.items():
        achieved = report.breakdowns[user].sinr
        if achieved <= target * (1 + rel):
            out.append(("sinr", user))
    for b in range(scn.dims.num_cells):
        for k in range(scn.dims.cus_per_cell):
            if alloc.data_cu[b, k] >= scn.p_max * (1 - 1e-5):
                out.append(("p_max", ("cu", b, k)))
    for l in range(scn.dims.num_d2d_pairs):
        if alloc.data_d2d[l] >= scn.p_max * (1 - 1e-5):
            out.append(("p_max", ("d2d", -1, l)))
    return out


def maxmin_joint_mr(scn: Scenario, settings: ControlSettings = None):
    """Joint pilot + data max-min fairness with MR processing: one GP over
    all four power families and the common SINR target. Returns
    (allocation, se_level, diagnostics)."""
    t0 = time.perf_counter()
    settings = settings or ControlSettings()
    diag = SolveDiagnostics()
    constraint_map = _sinr_constraints(scn, Processing.MR, True, None)
    solution, aux = _solve_gp_problem(scn, Objective.MAXMIN, constraint_map,
                                      True, None, Processing.MR, settings)
    target = solution.values["target"]
    lam = float(se_from_sinr(target, scn.dims))
    alloc = _alloc_from_values(scn, solution.values, True, None)
    alloc = _snap_small_powers(
        scn, alloc, Processing.MR,
        lambda rep: _min_se(rep, list(constraint_map)) >= lam - 1e-6)
    diag.iterations = solution.newton_iterations
    diag.status = solution.status
    diag.objective_trace = [lam]
    diag.targets = dict(aux)
    diag.active_constraints = _tight_constraints(scn, alloc, Processing.MR, aux)
    diag.wall_time = time.perf_counter() - t0
    return alloc, lam, diag


def maxprod_joint_mr(scn: Scenario, settings: ControlSettings = None):
    """Joint pilot + data max-product-SINR with MR processing. Returns
    (allocation, log_product, diagnostics)."""
    t0 = time.perf_counter()
    settings = settings or ControlSettings()
    diag = SolveDiagnostics()
    constraint_map = _sinr_constraints(scn, Processing.MR, True, None)
    solution, aux = _solve_gp_problem(scn, Objective.MAXPROD, constraint_map,
                                      True, None, Processing.MR, settings)
    alloc = _alloc_from_values(scn, solution.values, True, None)
    log_prod = _log_product(aux)
    diag.iterations = solution.newton_iterations
    diag.status = solution.status
    diag.objective_trace = [log_prod]
    diag.targets = dict(aux)
    diag.active_constraints = _tight_constraints(scn, alloc, Processing.MR, aux)
    diag.wall_time = time.perf_counter() - t0
    return alloc, log_prod, diag


# --- Algorithm 2: successive approximation for joint ZF --------------------------

def _true_objective(scn, alloc, objective, users):
    report = evaluate_network(scn.dims, scn.gains, scn.pilots, alloc, "zf")
    if objective is Objective.MAXPROD:
        return _report_log_product(report)
    return _min_se(report, users)


def zf_joint_successive(scn: Scenario, objective, settings: ControlSettings = None):
    """Joint pilot + data power control for ZF processing by successive
    monomial approximation of the non-posynomial residual ratios.

    Each iteration rebuilds the approximation at the previous pilot powers
    and solves the resulting GP; the loop stops when no pilot power moves by
    more than sca_power_tol * p_max. Returns (allocation, objective value,
    diagnostics) where the objective value is the max-min SE level or the
    log SINR product evaluated with the true (unapproximated) expressions.
    """
    t0 = time.perf_counter()
    settings = settings or ControlSettings()
    objective = Objective(objective)
    scn.dims.require_zf()
    diag = SolveDiagnostics()
    users = _all_users(scn)

    alloc = _default_pilots(scn)  # full-power initialization
    diag.objective_trace.append(_true_objective(scn, alloc, objective, users))
    tol = settings.sca_power_tol * scn.p_max
    warm = None
    last_aux = None
    status = "iteration_cap"
    for it in range(1, settings.sca_cap + 1):
        pilot_point = {}
        for b in range(scn.dims.num_cells):
            for k in range(scn.dims.cus_per_cell):
                pilot_point[_qc(b, k)] = alloc.pilot_cu[b, k]
        for l in range(scn.dims.num_d2d_pairs):
            pilot_point[_qd(l)] = alloc.pilot_d2d[l]

        constraint_map = _sinr_constraints(scn, Processing.ZF, True, None,
                                           pilot_point=pilot_point)
        try:
            solution, aux = _solve_gp_problem(scn, objective, constraint_map,
                                              True, None, Processing.ZF, settings,
                                              warm_aux=warm)
        except (GPInfeasibleError, GPSolverError) as exc:
            diag.notes.append(f"iteration {it}: solver failure: {exc}")
            status = "solver_failure"
            break
        new_alloc = _alloc_from_values(scn, solution.values, True, None)
        diag.objective_trace.append(_true_objective(scn, new_alloc, objective, users))

        move = max(float(np.max(np.abs(new_alloc.pilot_cu - alloc.pilot_cu))),
                   float(np.max(np.abs(new_alloc.pilot_d2d - alloc.pilot_d2d)))
                   if scn.dims.num_d2d_pairs else 0.0)
        alloc = new_alloc
        last_aux = aux
        diag.iterations = it
        warm = {name: val * (1.0 - 1e-3) if name.startswith("sinr_") or name == "target"
                else val for name, val in solution.values.items()}
        if move < tol:
            status = "converged"
            break

    diag.status = status
    value = diag.objective_trace[-1]
    if last_aux is not None:
        diag.targets = dict(last_aux)
        diag.active_constraints = _tight_constraints(scn, alloc, Processing.ZF, last_aux)
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
    if spec.variables is VariableScope.DATA:
        if spec.objective is Objective.MAXMIN:
            return maxmin_data(scn, spec.processing, settings, fixed_pilots)
        return maxprod_data(scn, spec.processing, settings, fixed_pilots)
    if spec.processing is Processing.MR:
        if spec.objective is Objective.MAXMIN:
            return maxmin_joint_mr(scn, settings)
        return maxprod_joint_mr(scn, settings)
    return zf_joint_successive(scn, spec.objective, settings)


# --- JSON schema shared by the CLI and tests -----------------------------------------

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
