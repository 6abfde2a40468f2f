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
(g, a) (_maxprod_data_factors). The joint problems compile the
closed-form SINR expressions with pilot powers as variables, in lifted
form, as arrays built straight from the gain tensors (_joint_sinr_model):
each received power and each ZF residual sum is one auxiliary GP
variable, and the pilot sums are multiplied out. Their objectives and
constraints reach gp_solve as Factors too. Because every user shares the
prelog factor, a common SE target is equivalent to a common SINR target,
which is how the max-min problems are expressed in GP form.
"""

import dataclasses
import enum
import json
import logging
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .scenario import Scenario
from .estimation import PowerAllocation, full_power_allocation
# perfbench/spans.py wraps the gamma functions at this import site
from .estimation import compute_gamma_bs, compute_gamma_d2drx, gamma_cu_bs_full  # noqa: F401
from .spectral import evaluate_network, se_from_sinr, sinr_terms
from .gp import (Factors, GeometricProgram, LinearFeasibilityProblem, SolverSettings,
                 gp_solve, lp_feasible, GPInfeasibleError, GPSolverError)

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


# --- joint SINR model in lifted form, as arrays -------------------------------------
#
# A joint SINR denominator is a product of posynomials. Multiplied out, the
# joint-MR GP holds about 27k terms and an Algorithm 2 GP about 197k at the
# reference scale. Instead each received power or residual sum, which the
# users of a cell or the pair of a receiver share, gets one auxiliary GP
# variable with the constraint factor / aux <= 1, and the denominators use
# aux in its place (Boyd, Kim, Vandenberghe & Hassibi, "A tutorial on
# geometric programming", 2007, sec. 3.3; Chiang et al., IEEE TWC 2007). A
# pilot sum is one user's own and saves too few terms to be worth a
# variable, so it is multiplied out. Every coupling constraint and every
# max-product factor increases in each auxiliary, so each auxiliary equals
# its factor at the optimum and the lifted GP has the optimum of the
# multiplied-out one.

# An auxiliary starts this fraction above its factor's value. At 1e-4 the
# reference joint-MR max-product GP (drop_seed(0, 0)) took 92 Newton steps
# instead of 40, to move the auxiliaries off their constraints; at 0.5 the
# max-min GP took 71 instead of 51. A denominator holds one auxiliary, so at
# the start it is up to 1 + LIFT_MARGIN times the multiplied-out one; the
# max-min target at half the weakest half-power SINR stays interior, for
# every Algorithm 2 GP too.
LIFT_MARGIN = 0.1


class _Posynomials(NamedTuple):
    """Posynomials over the model's columns, as arrays. Posynomial i sums
    the terms ptr[i] to ptr[i + 1] - 1. Term t is exp(log_coeff[t]) times
    the product of x[col[k]] ** exp[k] over the nonzeros k with term[k] ==
    t; exponents on one column of a term add up."""

    ptr: np.ndarray
    log_coeff: np.ndarray
    term: np.ndarray
    col: np.ndarray
    exp: np.ndarray

    def segments(self):
        return np.repeat(np.arange(self.ptr.size - 1), np.diff(self.ptr))

    def _log_terms(self, y_at):
        """Each term's log with nonzero k's variable at exp(y_at[k])."""
        return self.log_coeff + np.bincount(self.term, self.exp * y_at,
                                            minlength=self.log_coeff.size)

    def _sums(self, log_terms):
        return np.bincount(self.segments(), np.exp(log_terms), minlength=self.ptr.size - 1)

    def values(self, y):
        """Each posynomial's value at x = exp(y)."""
        return self._sums(self._log_terms(y[self.col]))

    def box_range(self, y_lo, y_hi):
        """(lower, upper) bounds of each posynomial over the box exp(y_lo) <=
        x <= exp(y_hi), each the sum of its terms' extremes; exact when
        every exponent is positive and no column repeats within a term."""
        up, lo, hi = self.exp > 0.0, y_lo[self.col], y_hi[self.col]
        return (self._sums(self._log_terms(np.where(up, lo, hi))),
                self._sums(self._log_terms(np.where(up, hi, lo))))

    def times(self, mono):
        """Posynomial i times term i of mono, which holds one term per
        posynomial: every term of posynomial i gains its log coefficient and
        its nonzeros."""
        seg = self.segments()
        # mono's nonzeros sorted by term: monomial i has count[i] of them
        # from first[i] on, and term t gains those of monomial seg[t]
        order = np.argsort(mono.term, kind="stable")
        count = np.bincount(mono.term, minlength=self.ptr.size - 1)
        first = np.cumsum(count) - count
        gained = count[seg]
        term = np.repeat(np.arange(seg.size), gained)
        within = np.arange(term.size) - np.repeat(np.cumsum(gained) - gained, gained)
        k = order[first[seg][term] + within]
        return _Posynomials(self.ptr, self.log_coeff + mono.log_coeff[seg],
                            np.concatenate([self.term, term]),
                            np.concatenate([self.col, mono.col[k]]),
                            np.concatenate([self.exp, mono.exp[k]]))

    def reciprocal(self):
        """1 / monomial i, for one term per posynomial."""
        return self._replace(log_coeff=-self.log_coeff, exp=-self.exp)

    def merged(self):
        """The same posynomials with the exponents on one column of a term
        added up and zero exponents dropped."""
        width = self.col.max(initial=0) + 1
        key, inverse = np.unique(self.term * width + self.col, return_inverse=True)
        exp = np.bincount(inverse, self.exp)
        kept = exp != 0.0
        return self._replace(term=key[kept] // width, col=key[kept] % width, exp=exp[kept])

    def factors(self, names):
        """As gp.Factors over the columns names, nonzero for nonzero."""
        return Factors(self.ptr, self.log_coeff, self.term, self.col, self.exp, tuple(names))


def monomial_lower_bound(posys, y):
    """The best local monomial lower bound of each posynomial of posys at x
    = exp(y), one term per posynomial: the weights are each term's share of
    its posynomial there and the exponents are weights^T E, so the bound
    touches at y with matching gradient (Boyd et al. 2007, condensation).
    perfbench/spans.py wraps this module's name as the gp.mlb span."""
    m = posys.ptr.size - 1
    z = posys._log_terms(y[posys.col])
    seg = posys.segments()
    top = np.maximum.reduceat(z, posys.ptr[:-1])
    share = np.exp(z - top[seg])
    total = np.bincount(seg, share, minlength=m)
    term, exp = seg[posys.term], (share / total[seg])[posys.term] * posys.exp
    log_coeff = np.log(total) + top - np.bincount(term, exp * y[posys.col], minlength=m)
    return _Posynomials(np.arange(m + 1), log_coeff, term, posys.col, exp)


def _rows(coeffs, keep, cols, constant=True):
    """One posynomial per row r of coeffs: 1 (when constant) plus the sum
    over the j with keep[r, j] of coeffs[r, j] times the product of x[c[j]]
    over the column arrays c in cols. A pilot sum or a received power is
    one row of a gain matrix."""
    row, j = np.nonzero(keep)
    lead = int(constant)
    ptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1) + lead)])
    term = np.arange(row.size) + lead * (row + 1)
    log_coeff = np.zeros(ptr[-1])
    log_coeff[term] = np.log(coeffs[row, j])
    return _Posynomials(ptr, log_coeff, np.tile(term, len(cols)),
                        np.concatenate([c[j] for c in cols]), np.ones(len(cols) * term.size))


def _monomials(log_coeff, *cols):
    """Monomial i is exp(log_coeff[i]) times the product of x[c[i]] over the
    column arrays c in cols."""
    m = len(log_coeff)
    return _Posynomials(np.arange(m + 1), np.asarray(log_coeff, dtype=float),
                        np.tile(np.arange(m), len(cols)),
                        np.concatenate([np.zeros(0, dtype=np.intp), *cols]),
                        np.ones(m * len(cols)))


def _concat(*parts):
    """The posynomials of every part, part after part."""
    offsets = np.cumsum([0] + [part.log_coeff.size for part in parts[:-1]])
    sizes = np.concatenate([np.diff(part.ptr) for part in parts])
    return _Posynomials(np.concatenate([[0], np.cumsum(sizes)]),
                        np.concatenate([part.log_coeff for part in parts]),
                        np.concatenate([part.term + o for part, o in zip(parts, offsets)]),
                        np.concatenate([part.col for part in parts]),
                        np.concatenate([part.exp for part in parts]))


def _join(*parts):
    """Posynomial i of the result sums posynomial i of every part."""
    joined = _concat(*parts)
    order = np.argsort(np.concatenate([part.segments() for part in parts]), kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return joined._replace(ptr=sum(part.ptr for part in parts),
                           log_coeff=joined.log_coeff[order], term=position[joined.term])


class _Residuals(NamedTuple):
    """ZF's residual sums 1 + R_b, one posynomial per BS, with the condensed
    anchors left as the one part that reads the anchor. Term t of shape in
    row g = (b, j) (b-major; row[t] is one past the last row for the
    constant 1) has the log coefficient shape.log_coeff[t] + log_power[g] -
    A_g, and its nonzero k the exponent shape.exp[k] - w[entry[k]], with w
    zero one past the last entry. A_g and w are the log coefficient and
    exponents of row g of the full pilot sums `sums`, condensed at the
    anchor. Every term holds p_j and every pilot column of row g, so the
    nonzeros do not depend on the anchor; an exponent that cancels to 0
    stays stored."""

    sums: _Posynomials
    shape: _Posynomials
    log_power: np.ndarray
    row: np.ndarray
    entry: np.ndarray

    def at(self, y):
        """The residual sums anchored at the pilot powers exp(y)."""
        anchor = monomial_lower_bound(self.sums, y)
        return self.shape._replace(
            log_coeff=self.shape.log_coeff
            + np.append(self.log_power - anchor.log_coeff, 0.0)[self.row],
            exp=self.shape.exp - np.append(anchor.exp, 0.0)[self.entry])


def _residuals(at_bs, tau, shared, p, q):
    """The residual sums (_Residuals) at every BS: the sum over users j of
    j's leave-one-out pilot sum times at_bs[b, j] p_j over j's full pilot
    sum at b, each a row of tau at_bs (_rows); shared[i, j] when users i and
    j send the same pilot."""
    cells, n = at_bs.shape
    pilot_gain = np.repeat(tau * at_bs, n, axis=0)
    sums = _rows(pilot_gain, np.tile(shared, (cells, 1)), [q])
    loo = _rows(pilot_gain, np.tile(shared & ~np.eye(n, dtype=bool), (cells, 1)), [q])
    row = loo.segments()
    own = np.full(row.size, -1)  # each term's own pilot column; none for the constant
    own[loo.term] = loo.col
    # every term of row g gains the pilot columns of row g of sums, its
    # entries first[g] to first[g] + width[g] - 1, after its p_j
    width = np.diff(sums.ptr) - 1
    first = np.cumsum(width) - width
    per_term = width[row]
    term = np.repeat(np.arange(row.size), per_term)
    entry = (first[row] - np.cumsum(per_term) + per_term)[term] + np.arange(term.size)
    # BS b's posynomial: the constant 1, then its n rows' terms
    index = np.arange(row.size) + row // n + 1
    ptr = loo.ptr[::n] + np.arange(cells + 1)
    log_coeff = np.zeros(ptr[-1])
    log_coeff[index] = loo.log_coeff
    rows = np.full(ptr[-1], cells * n)
    rows[index] = row
    shape = _Posynomials(ptr, log_coeff, np.concatenate([index, index[term]]),
                         np.concatenate([p[row % n], sums.col[entry]]),
                         np.concatenate([np.ones(row.size),
                                         (sums.col[entry] == own[term]).astype(float)]))
    return _Residuals(sums, shape, np.log(at_bs).ravel(), rows,
                      np.concatenate([np.full(row.size, sums.exp.size), entry]))


class _JointModel(NamedTuple):
    """Every user's SINR num / den with pilot and data powers as variables,
    in lifted form, over the columns names: the stacked data powers, the
    stacked pilot powers, then one auxiliary per lift. num holds one
    monomial and den one posynomial per user, in dims.users() order; lifts
    holds the factor that auxiliary i stands for, in column order. For ZF
    the first B lifts are residuals.at(the anchor); for MR residuals is
    None."""

    names: tuple
    num: _Posynomials
    den: _Posynomials
    lifts: _Posynomials
    residuals: _Residuals = None


def _joint_sinr_model(scn: Scenario, processing: Processing, pilot_point=None):
    """The joint SINR model (_JointModel), built straight from the gain
    tensors.

    A CU's denominator is its pilot sum 1 + sum_j tau beta_j q_j over the
    CUs on its pilot, times r_b, plus its coherent pilot-contamination
    terms; r_b is the received power at BS b (MR) or the residual sum at
    the anchor pilot_point (ZF, Algorithm 2), the stacked pilot powers. A
    D2D pair's denominator is its pilot sum times rd_l, the received power
    at its receiver, plus its own-link terms. Every pilot sum and received
    power is one row of a gain matrix (_rows): user i hears user j with
    at_bs[b, j] at BS b and with at_rx[l, j] at receiver l."""
    dims, gains = scn.dims, scn.gains
    tau, cus, cells = dims.pilot_len, dims.cus_per_cell, dims.num_cells
    n_cu = cells * cus
    n = n_cu + dims.num_d2d_pairs
    factor = dims.zf_dof if processing is Processing.ZF else dims.antennas_per_bs
    names = (_stacked_names(scn) + _stacked_names(scn, pilot=True)
             + [f"r_{b}" for b in range(cells)] + [f"rd_{l}" for l in range(n - n_cu)])
    p, q = np.arange(n), n + np.arange(n)
    at_bs = np.hstack([gains.beta_cu_bs.reshape(cells, n_cu), gains.beta_d2dtx_bs])
    at_rx = np.hstack([gains.beta_cu_d2drx.reshape(n - n_cu, n_cu), gains.beta_d2dtx_d2drx])
    # user i's gain from every user: at its BS for a CU, at its receiver for a pair
    heard = np.vstack([np.repeat(at_bs, cus, axis=0), at_rx])
    own = np.diag(heard)
    pilot = np.concatenate([np.arange(n_cu) % cus,
                            cus + np.asarray(scn.pilots.pair_to_pilot, dtype=int)])
    shared = pilot[:, None] == pilot  # users i and j send the same pilot
    others = shared & ~np.eye(n, dtype=bool)
    lift = 2 * n + np.concatenate([np.arange(cells).repeat(cus), cells + np.arange(n - n_cu)])

    residuals = None
    if processing is Processing.ZF:
        # 1 + R_b, the post-nulling residual interference at BS b, with the
        # condensed full pilot sums at pilot_point: an upper bound that
        # touches there
        residuals = _residuals(at_bs, tau, shared, p, q)
        received = residuals.at(_pilot_log_point(pilot_point, n))
    else:
        received = _rows(at_bs, np.ones(at_bs.shape, dtype=bool), [p])
    lifts = _concat(received, _rows(at_rx, ~np.eye(n, dtype=bool)[n_cu:], [p]))

    coherent = _rows(factor * tau * heard[:n_cu] ** 2, others[:n_cu], [p, q], constant=False)
    own_link = _rows(tau * heard[n_cu:], others[n_cu:], [q]).times(
        _monomials(np.log(own[n_cu:]), p[n_cu:]))
    den = _join(_rows(tau * heard, shared, [q]).times(_monomials(np.zeros(n), lift)),
                _concat(coherent, own_link))
    gain = np.concatenate([np.full(n_cu, factor * tau), np.full(n - n_cu, tau)])
    return _JointModel(tuple(names), _monomials(np.log(gain * own ** 2), p, q), den, lifts,
                       residuals)


def _pilot_log_point(pilot_point, n):
    """The log point over the model's power columns with the stacked pilot
    powers pilot_point and every data power at 1."""
    y = np.zeros(2 * n)
    y[n:] = np.log(pilot_point)
    return y


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
    the posynomial oracle's term-for-term conversion (tests/posynomials.py),
    which a vectorized reciprocal or log can miss by an ulp, so the stack is
    bit for bit the one the same factors give as posynomials. Raises GPInfeasibleError for a user with g_i <= 0, whose
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


class _JointGP:
    """One joint GP over pilot and data powers, assembled once from the
    lifted model of _joint_sinr_model; program() hands out the
    GeometricProgram and its start. Objective and constraints are Factors
    built from the model's arrays, as is the max-product objective over data
    powers (_maxprod_data_factors); all reach gp_solve's one compile path,
    from Factors to a log-sum-exp stack.

    Max-product minimizes the product of den/num over the users, and a
    user's level is its GP-model SINR at the solution. Max-min maximizes a
    common target subject to target * den / num <= 1, which is every
    user's level. Each auxiliary adds factor / aux <= 1 and the box
    [factor's lower bound, twice its upper bound]. The start puts every
    power at half budget and every auxiliary LIFT_MARGIN above its factor's
    value there, so it is strictly interior.

    The coupling rows are merged once; the lift rows follow them unmerged,
    their nonzeros unique by construction. Algorithm 2's B residual lifts
    are the first lift rows and the only part that reads the anchor, so
    program(pilot_point) re-anchors them by writing one block of log
    coefficients and one of exponents, and the box and start of their
    auxiliaries."""

    def __init__(self, scn, objective, processing, pilot_point=None):
        model = _joint_sinr_model(scn, processing, pilot_point)
        names, num, den, lifts, self.residuals = model
        bounds = _power_bounds(scn, True)
        start = dict.fromkeys(bounds, scn.p_max / 2.0)
        powers = len(bounds)
        self.aux = names[powers:]
        # every power at its lower bound, upper bound and half budget; the
        # lifts read no auxiliary
        self.log_points = [np.full(len(names), math.log(value))
                           for value in (*bounds[names[0]], scn.p_max / 2.0)]
        self._place(lifts, bounds, start)
        lift_rows = lifts.times(
            _monomials(np.zeros(len(self.aux)), powers + np.arange(len(self.aux))).reciprocal())
        ratios = den.times(num.reciprocal()).merged()  # den / num, user by user
        self.users = scn.dims.users()
        self.maxmin = objective is Objective.MAXMIN
        if self.maxmin:
            # the start sits at half the weakest half-power SINR, strictly
            # above the lower bound
            weakest = _half_power_sinrs(scn, processing).min()
            bounds["target"] = (max(weakest * 0.25, 1e-280),
                                _joint_upper_bounds(scn, processing).min())
            start["target"] = weakest * 0.5
            names = names + ("target",)
            target = _monomials(np.zeros(len(self.users)), np.full(len(self.users), len(names) - 1))
            self.objective = Factors([0, 1], [0.0], [0], [0], [-1.0], ("target",))
            constraints = _concat(ratios.times(target), lift_rows)
        else:
            self.objective = ratios.factors(names)
            constraints = lift_rows
        self.constraints = constraints.factors(names)
        # where the lift rows, the residual lifts first, start among the constraints
        self.first_lift = (constraints.log_coeff.size - lift_rows.log_coeff.size,
                           constraints.exp.size - lift_rows.exp.size)
        self.bounds, self.start = bounds, start

    def program(self, pilot_point=None):
        """(GeometricProgram, start), with the residual lifts re-anchored at
        the stacked pilot powers pilot_point when given."""
        bounds, start, constraints = dict(self.bounds), dict(self.start), self.constraints
        if pilot_point is not None:
            residuals = self.residuals.at(_pilot_log_point(pilot_point, len(self.users)))
            log_coeff, exp = constraints.log_coeff.copy(), constraints.exp.copy()
            term, entry = self.first_lift
            log_coeff[term:term + residuals.log_coeff.size] = residuals.log_coeff
            exp[entry:entry + residuals.exp.size] = residuals.exp
            constraints = dataclasses.replace(constraints, log_coeff=log_coeff, exp=exp)
            self._place(residuals, bounds, start)
        return (GeometricProgram(objective=self.objective, constraints=constraints,
                                 bounds=bounds), start)

    def _place(self, lifts, bounds, start):
        """The box and start of the auxiliaries of lifts, the first lifts."""
        aux = self.aux[:lifts.ptr.size - 1]
        lower, upper = lifts.box_range(*self.log_points[:2])
        bounds.update(zip(aux, zip(lower, 2.0 * upper)))
        start.update(zip(aux, lifts.values(self.log_points[2]) * (1.0 + LIFT_MARGIN)))


def _solve_gp_problem(problem: _JointGP, settings, pilot_point=None):
    """Solve the joint GP problem, re-anchored at pilot_point when given;
    returns (solution, SINR level per user)."""
    gp, start = problem.program(pilot_point)
    solution = gp_solve(gp, settings.gp, initial=start)
    if problem.maxmin:
        return solution, dict.fromkeys(problem.users, solution.values["target"])
    return solution, dict(zip(problem.users, np.exp(-solution.log_factors)))


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
        solution, levels = _solve_gp_problem(_JointGP(scn, objective, processing), settings)
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

    The GP is assembled once (_JointGP); each iteration re-anchors its
    approximation at the previous pilot powers and solves it from the same
    cold start as the first; the previous solution is feasible for it, so
    the true objective never falls.
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
    problem = _JointGP(scn, objective, Processing.ZF, alloc.stacked_pilots())
    last_levels = None
    status = "iteration_cap"
    for it in range(1, settings.sca_cap + 1):
        try:
            solution, levels = _solve_gp_problem(problem, settings, alloc.stacked_pilots())
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
