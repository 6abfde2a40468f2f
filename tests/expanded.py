"""The SINR expressions as posynomial objects, kept as oracles of the
forms that replaced them:
- the joint SINRs multiplied out term by term, for the lifted array model
  of power_control._joint_sinr_model: each denominator here is a product
  of posynomials expanded in full, with no auxiliary variable;
- the data-power SINRs g_i p_i / (1 + a_i . p) as one monomial over one
  posynomial per user, for the max-product factors that
  power_control._maxprod_data_factors builds from the (g, a) arrays.
"""

import numpy as np

from mimo_d2d import se_from_sinr, sinr_terms
from mimo_d2d.gp import (GeometricProgram, GPInfeasibleError, Monomial, Posynomial, gp_solve,
                         monomial_lower_bound)
from mimo_d2d.power_control import (Objective, Processing, _half_power_sinrs,
                                    _joint_upper_bounds, _power_bounds, _stacked_names)


# The GP variable names, spelled here rather than read from the model under
# test: data powers pc_b_k and pd_l, pilot powers ppc_b_k and ppd_l.
def _pc(b, k):
    return f"pc_{b}_{k}"


def _pd(l):
    return f"pd_{l}"


def _qc(b, k):
    return f"ppc_{b}_{k}"


def _qd(l):
    return f"ppd_{l}"


def data_sinr_posynomials(scn, processing, fixed_pilots):
    """Per-user (numerator, denominator): the monomial g_i p_i over the
    posynomial 1 + a_i . p at the pilot powers of fixed_pilots, with a
    term per positive coupling. Raises GPInfeasibleError for g_i <= 0."""
    g, terms = sinr_terms(scn.dims, scn.gains, scn.pilots, fixed_pilots,
                          Processing(processing).value)
    names = _stacked_names(scn)
    out = {}
    for user, name, g_i, a_i in zip(scn.dims.users(), names, g, terms.sum(axis=0)):
        if g_i <= 0.0:
            raise GPInfeasibleError(f"user {user} has no usable desired link")
        out[user] = (Monomial(g_i, {name: 1.0}), Posynomial(
            [Monomial(1.0)] + [Monomial(c, {names[j]: 1.0})
                               for j, c in enumerate(a_i) if c > 0.0]))
    return out


def mr_sinr_posynomial(scn, b, k):
    """(numerator monomial, denominator posynomial) of the MR SINR of CU
    (b, k) with pilot and data powers as variables."""
    dims, gains = scn.dims, scn.gains
    tau, m = dims.pilot_len, dims.antennas_per_bs
    beta = gains.beta_cu_bs[b]  # (B', K)

    pilot_sum = Posynomial([Monomial(1.0)] + [
        Monomial(tau * beta[b2, k], {_qc(b2, k): 1.0}) for b2 in range(dims.num_cells)])
    num = Monomial(m * tau * beta[b, k] ** 2, {_pc(b, k): 1.0, _qc(b, k): 1.0})
    received = Posynomial([Monomial(1.0)] + [
        Monomial(beta[b2, k2], {_pc(b2, k2): 1.0})
        for b2 in range(dims.num_cells) for k2 in range(dims.cus_per_cell)] + [
        Monomial(gains.beta_d2dtx_bs[b, l], {_pd(l): 1.0})
        for l in range(dims.num_d2d_pairs)])
    den = pilot_sum * received
    for b2 in range(dims.num_cells):
        if b2 != b:
            den = den + Monomial(m * tau * beta[b2, k] ** 2,
                                 {_pc(b2, k): 1.0, _qc(b2, k): 1.0})
    return num, den


def d2d_sinr_posynomial(scn, l):
    """(numerator monomial, denominator posynomial) of the approximate D2D
    SINR of pair l, with pilot and data powers as variables."""
    dims, gains = scn.dims, scn.gains
    tau = dims.pilot_len
    beta_row = gains.beta_d2dtx_d2drx[l]
    group = scn.pilots.set_of(l)

    received = Posynomial([Monomial(1.0)] + [
        Monomial(gains.beta_cu_d2drx[l, b, k], {_pc(b, k): 1.0})
        for b in range(dims.num_cells) for k in range(dims.cus_per_cell)] + [
        Monomial(beta_row[j], {_pd(j): 1.0})
        for j in range(dims.num_d2d_pairs) if j != l])
    num = Monomial(tau * beta_row[l] ** 2, {_pd(l): 1.0, _qd(l): 1.0})
    own_pilot = Posynomial([Monomial(1.0)] + [
        Monomial(tau * beta_row[j], {_qd(j): 1.0}) for j in group])
    den = own_pilot * received + Monomial(beta_row[l], {_pd(l): 1.0})
    for j in group:
        if j != l:
            den = den + Monomial(tau * beta_row[l] * beta_row[j],
                                 {_pd(l): 1.0, _qd(j): 1.0})
    return num, den


def zf_tilde_denominator(scn, b, k, pilot_point):
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
    for group in pilots.d2d_pilot_sets:
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


def zf_numerator(scn, b, k):
    beta = scn.gains.beta_cu_bs[b, b, k]
    return Monomial(scn.dims.zf_dof * scn.dims.pilot_len * beta ** 2,
                    {_pc(b, k): 1.0, _qc(b, k): 1.0})


def expanded_sinr_constraints(scn, processing, pilot_point=None):
    """Per-user (numerator, expanded denominator) of the joint MR model, or
    of the Algorithm 2 ZF model at the anchor pilot_point."""
    processing = Processing(processing)
    dims = scn.dims
    out = {}
    for b in range(dims.num_cells):
        for k in range(dims.cus_per_cell):
            out[("cu", b, k)] = (
                mr_sinr_posynomial(scn, b, k) if processing is Processing.MR
                else (zf_numerator(scn, b, k),
                      zf_tilde_denominator(scn, b, k, pilot_point)))
    for l in range(dims.num_d2d_pairs):
        out[("d2d", -1, l)] = d2d_sinr_posynomial(scn, l)
    return out


def solve_expanded_joint_mr(scn, objective):
    """The joint-MR GP over the expanded denominators, with the bounds and
    start of the lifted solve. Returns (GPSolution, value): the SE level for
    max-min, the log SINR product for max-product."""
    constraint_map = expanded_sinr_constraints(scn, Processing.MR)
    bounds = _power_bounds(scn, True)
    start = dict.fromkeys(bounds, scn.p_max / 2.0)
    if Objective(objective) is Objective.MAXPROD:
        gp = GeometricProgram(objective=[den / num for num, den in constraint_map.values()],
                              bounds=bounds)
        solution = gp_solve(gp, initial=start)
        return solution, -solution.log_objective
    weakest = _half_power_sinrs(scn, Processing.MR).min()
    bounds["target"] = (max(weakest * 0.25, 1e-280),
                        _joint_upper_bounds(scn, Processing.MR).min())
    start["target"] = weakest * 0.5
    gp = GeometricProgram(objective=Monomial(1.0, {"target": -1.0}),
                          posy_constraints=[den * Monomial(1.0, {"target": 1.0}) / num
                                            for num, den in constraint_map.values()],
                          bounds=bounds)
    solution = gp_solve(gp, initial=start)
    return solution, float(se_from_sinr(solution.values["target"], scn.dims))


def model_values(model, point, scale=None):
    """(numerators, denominators) of the lifted array model, user by user,
    at the powers of point (a value per power name), with every auxiliary
    at its factor's value there, times scale[i] for auxiliary i where an
    array scale is given."""
    y = np.array([np.log(point[name]) if name in point else 0.0 for name in model.names])
    aux = [i for i, name in enumerate(model.names) if name not in point]
    y[aux] = np.log(model.lifts.values(y) * (1.0 if scale is None else scale))
    return model.num.values(y), model.den.values(y)
