"""The per-user closed-form SINRs, one user and one mechanism at a time: the
expressions the array model spectral.sinr_terms replaced, kept as its
oracle. cu_sinr_mr, cu_sinr_zf and d2d_sinr_approx each build one user's
named breakdown; evaluate_breakdowns loops them over the network in the
order evaluate_network reports; fixed_pilot_model builds the gain vector g
and coupling matrix a of SINR_i = g_i p_i / (1 + a_i . p) directly.
estimate_qualities writes every channel-estimate quality one entry at a
time from the textbook MMSE form.
"""

import numpy as np

from mimo_d2d.estimation import compute_gamma_bs, compute_gamma_d2drx, gamma_cu_bs_full
from mimo_d2d.power_control import Processing
from mimo_d2d.spectral import SinrBreakdown


def _assemble(numerator, terms, prelog):
    total = sum(terms.values())
    sinr = numerator / total if total > 0 else 0.0
    return SinrBreakdown(float(numerator), {k: float(v) for k, v in terms.items()},
                         float(sinr), float(prelog * np.log2(1.0 + sinr)))


def cu_sinr_mr(b, k, gains, alloc, dims, _gamma_full=None):
    """MR lower-bound SINR of CU k served by BS b."""
    m = dims.antennas_per_bs
    gamma = gamma_cu_bs_full(gains, alloc, dims) if _gamma_full is None else _gamma_full
    beta = gains.beta_cu_bs[b]  # (B', K) gains into BS b
    p = alloc.data_cu
    num = m * p[b, k] * gamma[b, b, k]

    cross = p * beta  # (B', K)
    others = np.arange(dims.num_cells) != b
    terms = {
        "noise": 1.0,
        "estimation_error": cross[b, k],
        "intra_cell": cross[b].sum() - cross[b, k],
        "inter_cell": cross[others].sum(),
        "d2d_interference": float(alloc.data_d2d @ gains.beta_d2dtx_bs[b]),
        "coherent_contamination": m * float(p[others, k] @ gamma[b, others, k]),
    }
    return _assemble(num, terms, dims.prelog)


def cu_sinr_zf(b, k, gains, alloc, pilots, dims, _gamma_full=None, _gamma_d2d=None):
    """ZF lower-bound SINR of CU k served by BS b; the detector nulls the
    K own-cell CU directions and the N D2D pilot-set directions."""
    dims.require_zf()
    dof = dims.zf_dof
    gamma = gamma_cu_bs_full(gains, alloc, dims) if _gamma_full is None else _gamma_full
    if _gamma_d2d is None:
        _gamma_d2d = compute_gamma_bs(gains, alloc, pilots, dims).gamma_d2d_bs
    beta = gains.beta_cu_bs[b]
    p = alloc.data_cu
    num = dof * p[b, k] * gamma[b, b, k]

    resid = p * (beta - gamma[b])  # (B', K) post-nulling residuals
    others = np.arange(dims.num_cells) != b
    terms = {
        "noise": 1.0,
        "estimation_error": resid[b, k],
        "intra_cell": resid[b].sum() - resid[b, k],
        "inter_cell": resid[others].sum(),
        "d2d_interference": float(alloc.data_d2d @ (gains.beta_d2dtx_bs[b] - _gamma_d2d[b])),
        "coherent_contamination": dof * float(p[others, k] @ gamma[b, others, k]),
    }
    return _assemble(num, terms, dims.prelog)


def d2d_sinr_approx(l, gains, alloc, pilots, dims, _gamma_rx=None):
    """Closed-form approximate SINR of D2D pair l (expectation of numerator
    and denominator of the exact bound)."""
    if _gamma_rx is None:
        _gamma_rx = compute_gamma_d2drx(gains, alloc, pilots, dims).gamma_d2d_d2drx
    gamma_row = _gamma_rx[l]
    beta_row = gains.beta_d2dtx_d2drx[l]
    pd = alloc.data_d2d
    num = pd[l] * gamma_row[l]
    terms = {
        "noise": 1.0,
        "estimation_error": pd[l] * (beta_row[l] - gamma_row[l]),
        "intra_cell": 0.0,
        "inter_cell": float(np.sum(alloc.data_cu * gains.beta_cu_d2drx[l])),
        "d2d_interference": float(pd @ beta_row - pd[l] * beta_row[l]),
        "coherent_contamination": 0.0,
    }
    return _assemble(num, terms, dims.prelog)


def evaluate_breakdowns(dims, gains, pilots, alloc, processing):
    """Every user's breakdown, CUs (b, k) row-major and then the D2D pairs,
    keyed as SEReport.breakdowns."""
    gamma_full = gamma_cu_bs_full(gains, alloc, dims)
    gamma_d2d_bs = compute_gamma_bs(gains, alloc, pilots, dims).gamma_d2d_bs
    rx = compute_gamma_d2drx(gains, alloc, pilots, dims)
    breakdowns = {}
    for b in range(dims.num_cells):
        for k in range(dims.cus_per_cell):
            if processing == "mr":
                bd = cu_sinr_mr(b, k, gains, alloc, dims, _gamma_full=gamma_full)
            else:
                bd = cu_sinr_zf(b, k, gains, alloc, pilots, dims,
                                _gamma_full=gamma_full, _gamma_d2d=gamma_d2d_bs)
            breakdowns[("cu", b, k)] = bd
    for l in range(dims.num_d2d_pairs):
        breakdowns[("d2d", -1, l)] = d2d_sinr_approx(l, gains, alloc, pilots, dims,
                                                     _gamma_rx=rx.gamma_d2d_d2drx)
    return breakdowns


def fixed_pilot_model(scn, processing, fixed_pilots):
    """With pilot powers fixed, user i's SINR is g_i p_i / (1 + a_i . p) over
    the stacked data powers p. Returns the desired-link gains g (n,) and the
    coupling matrix a (n, n), rows and columns in dims.users() order."""
    dims, gains = scn.dims, scn.gains
    b_, k_, l_ = dims.num_cells, dims.cus_per_cell, dims.num_d2d_pairs
    n_cu = b_ * k_
    gamma_full = gamma_cu_bs_full(gains, fixed_pilots, dims)  # (B, B', K)
    gamma_rx = compute_gamma_d2drx(gains, fixed_pilots, scn.pilots, dims).gamma_d2d_d2drx
    if processing is Processing.ZF:
        dims.require_zf()
        factor = dims.zf_dof
        gamma_d2d_bs = compute_gamma_bs(gains, fixed_pilots, scn.pilots, dims).gamma_d2d_bs
        cu_leak = gains.beta_cu_bs - gamma_full
        d2d_leak = gains.beta_d2dtx_bs - gamma_d2d_bs
    else:
        factor = dims.antennas_per_bs
        cu_leak, d2d_leak = gains.beta_cu_bs, gains.beta_d2dtx_bs
    cells = np.arange(b_)
    g = np.concatenate([factor * gamma_full[cells, cells].ravel(), np.diag(gamma_rx)])

    a = np.empty((n_cu + l_, n_cu + l_))
    a[:n_cu] = np.repeat(np.hstack([cu_leak.reshape(b_, n_cu), d2d_leak]), k_, axis=0)
    # coherent interference from the CUs of other cells on the same pilot
    b, b2, k = np.nonzero(np.broadcast_to(~np.eye(b_, dtype=bool)[:, :, None],
                                          gamma_full.shape))
    a[b * k_ + k, b2 * k_ + k] += factor * gamma_full[b, b2, k]
    a[n_cu:, :n_cu] = gains.beta_cu_d2drx.reshape(l_, n_cu)
    a[n_cu:, n_cu:] = gains.beta_d2dtx_d2drx
    # a D2D receiver's own link interferes only through its estimation error
    own = np.arange(n_cu, n_cu + l_)
    a[own, own] -= np.diag(gamma_rx)
    return g, a


def estimate_qualities(gains, alloc, pilots, dims):
    """Every EstimationQuality field and gamma_cu_bs_full ("full"), one entry
    at a time: user u, seen with gain beta_u, is estimated with quality
    tau p_u beta_u^2 / (1 + tau sum_j p_j beta_j) over the users j on u's
    pilot (CU k of every cell for cellular pilot k, the pairs of set n for
    D2D pilot n). A pilot set's combined estimate has the squared amplitude
    sum (sum_j sqrt(p_j) beta_j)^2 in place of p_u beta_u^2."""
    tau, cells = dims.pilot_len, dims.num_cells
    pc, pd = alloc.pilot_cu, alloc.pilot_d2d

    def observed(on_pilot):  # (power, gain) of every user on one pilot
        return 1.0 + tau * sum(p * g for p, g in on_pilot)

    def cellular(beta):  # (R, B, K): CU k of cell c at receiver r
        out = np.zeros(beta.shape)
        for r, c, k in np.ndindex(beta.shape):
            on_pilot = [(pc[j, k], beta[r, j, k]) for j in range(cells)]
            out[r, c, k] = tau * pc[c, k] * beta[r, c, k] ** 2 / observed(on_pilot)
        return out

    def d2d(beta):  # (R, L): pair l at receiver r
        out = np.zeros(beta.shape)
        for r, l in np.ndindex(beta.shape):
            on_pilot = [(pd[j], beta[r, j]) for j in pilots.set_of(l)]
            out[r, l] = tau * pd[l] * beta[r, l] ** 2 / observed(on_pilot)
        return out

    beta_d = gains.beta_d2dtx_bs
    sets = np.zeros((cells, dims.num_d2d_pilots))
    for b, n in np.ndindex(sets.shape):
        group = pilots.d2d_pilot_sets[n]
        amplitude = sum(np.sqrt(pd[j]) * beta_d[b, j] for j in group)
        sets[b, n] = tau * amplitude ** 2 / observed([(pd[j], beta_d[b, j]) for j in group])
    full = cellular(gains.beta_cu_bs)
    return {"full": full,
            "gamma_cu_bs": np.array([full[b, b] for b in range(cells)]),
            "gamma_set_bs": sets,
            "gamma_d2d_bs": d2d(beta_d),
            "gamma_cu_d2drx": cellular(gains.beta_cu_d2drx),
            "gamma_d2d_d2drx": d2d(gains.beta_d2dtx_d2drx)}
