"""Closed-form spectral-efficiency lower bounds for CUs (MR and ZF receive
processing) and D2D pairs: the closed-form approximation, and the exact
bound, the mean conditional-SINR rate over channel-estimate realizations,
evaluated deterministically as Hamdi's one-dimensional integral of Laplace
transforms (K. A. Hamdi, "A useful lemma for capacity analysis of fading
interference channels", IEEE Trans. Commun. 58(2), 2010).

Given the pilot powers, every closed-form SINR is g_i p_i / (1 + a_i . p) in
the data powers p (Yates, IEEE JSAC 1995); sinr_terms builds g and a, split
into one matrix per interference mechanism, for the whole network at once.
"""

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .scenario import SystemDimensions, LargeScaleGains, PilotAllocation
from .estimation import (PowerAllocation, compute_gamma_bs, compute_gamma_d2drx,
                         gamma_cu_bs_full)

DENOMINATOR_TERMS = ("noise", "intra_cell", "inter_cell", "d2d_interference",
                     "coherent_contamination", "estimation_error")
# key order of each SinrBreakdown.denominator_terms
_BREAKDOWN_KEYS = ("noise", "estimation_error", *DENOMINATOR_TERMS[1:-1])


@dataclass
class SinrBreakdown:
    """One user's SINR split into its interference mechanisms.

    For CUs, inter_cell holds the non-coherent other-cell interference and
    coherent_contamination the pilot-reuse term that scales with the array
    gain. For D2D receivers the cellular interference is reported under
    inter_cell and intra_cell / coherent_contamination are zero.
    """

    numerator: float
    denominator_terms: dict
    sinr: float
    se: float


def se_from_sinr(sinr, dims: SystemDimensions):
    """Spectral efficiency in bits/s/Hz from a linear SINR (>= 0)."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise ValueError("sinr must be non-negative")
    out = dims.prelog * np.log2(1.0 + sinr)
    return out if out.ndim else float(out)


def _cu_terms(dims: SystemDimensions, gains: LargeScaleGains, alloc: PowerAllocation,
              processing, pilots: PilotAllocation = None):
    """The CU rows of sinr_terms: gains (B*K,) and terms (5, B*K, n). MR
    reads no pilot allocation; ZF nulls the K own-cell CU directions and the
    N D2D pilot-set directions, so only the estimation residuals leak."""
    if processing not in ("mr", "zf"):
        raise ValueError("processing must be 'mr' or 'zf'")
    b_, k_ = dims.num_cells, dims.cus_per_cell
    n_cu = b_ * k_
    gamma = gamma_cu_bs_full(gains, alloc, dims)  # (B, B', K)
    if processing == "zf":
        dims.require_zf()
        factor = dims.zf_dof
        cu_leak = gains.beta_cu_bs - gamma
        d2d_leak = (gains.beta_d2dtx_bs
                    - compute_gamma_bs(gains, alloc, pilots, dims).gamma_d2d_bs)
    else:
        factor = dims.antennas_per_bs
        cu_leak, d2d_leak = gains.beta_cu_bs, gains.beta_d2dtx_bs
    # block[t, b, k, b2, k2]: how CU (b2, k2)'s data power reaches CU (b, k)
    block = np.zeros((5, b_, k_, b_, k_))
    cells, ks = np.arange(b_), np.arange(k_)
    own_cell = cu_leak[cells, cells]  # (B, K)
    block[1] = cu_leak[:, None]
    block[1, cells, :, cells] = 0.0
    block[0, cells, :, cells] = own_cell[:, None]
    block[0, cells[:, None], ks, cells[:, None], ks] = 0.0
    block[4, cells[:, None], ks, cells[:, None], ks] = own_cell
    # the other cells' CUs on the same pilot add coherently
    block[3, :, ks, :, ks] = factor * gamma.transpose(2, 0, 1)
    block[3, cells, :, cells] = 0.0
    terms = np.zeros((5, n_cu, n_cu + dims.num_d2d_pairs))
    terms[:, :, :n_cu] = block.reshape(5, n_cu, n_cu)
    terms[2, :, n_cu:] = np.repeat(d2d_leak, k_, axis=0)
    return factor * gamma[cells, cells].ravel(), terms


def sinr_terms(dims: SystemDimensions, gains: LargeScaleGains, pilots: PilotAllocation,
               alloc: PowerAllocation, processing):
    """Every user's closed-form SINR at alloc's pilot powers as
    g_i p_i / (1 + sum_t terms[t, i] . p) over the stacked data powers p.

    Returns g (n,) and terms (5, n, n), one coupling matrix per mechanism of
    DENOMINATOR_TERMS after noise. Rows are the users in dims.users() order
    and columns the data powers in the same order. The D2D rows are the
    closed-form approximation: the expectations of the exact bound's
    numerator and denominator."""
    g_cu, cu = _cu_terms(dims, gains, alloc, processing, pilots)
    l_, n_cu = dims.num_d2d_pairs, len(g_cu)
    gamma = compute_gamma_d2drx(gains, alloc, pilots, dims).gamma_d2d_d2drx  # (L, L')
    beta, own = gains.beta_d2dtx_d2drx, np.eye(l_, dtype=bool)
    d2d = np.zeros((5, l_, n_cu + l_))
    d2d[1, :, :n_cu] = gains.beta_cu_d2drx.reshape(l_, n_cu)
    d2d[2, :, n_cu:] = np.where(own, 0.0, beta)
    # a receiver's own link interferes only through its estimation error
    d2d[4, :, n_cu:] = np.where(own, beta - gamma, 0.0)
    return np.concatenate([g_cu, np.diag(gamma)]), np.concatenate([cu, d2d], axis=1)


def _assess(num, parts, prelog):
    """SINRs, SEs and breakdowns of users with numerators num (n,) and named
    denominator terms parts (5, n)."""
    sinr = num / (1.0 + parts.sum(axis=0))
    se = prelog * np.log2(1.0 + sinr)
    return sinr, se, [
        SinrBreakdown(n, dict(zip(_BREAKDOWN_KEYS, (1.0, t[-1], *t[:-1]))), s, e)
        for n, t, s, e in zip(num.tolist(), parts.T.tolist(), sinr.tolist(), se.tolist())]


def _cu_breakdown(b, k, gains, alloc, pilots, dims, processing):
    """CU (b, k)'s SinrBreakdown from its row of the CU block."""
    g, terms = _cu_terms(dims, gains, alloc, processing, pilots)
    i = b * dims.cus_per_cell + k
    p = alloc.stacked_data()
    return _assess(g[i:i + 1] * p[i:i + 1], terms[:, i:i + 1] @ p, dims.prelog)[2][0]


def cu_sinr_mr(b, k, gains: LargeScaleGains, alloc: PowerAllocation,
               dims: SystemDimensions) -> SinrBreakdown:
    """MR lower-bound SINR of CU k served by BS b (its row of sinr_terms)."""
    return _cu_breakdown(b, k, gains, alloc, None, dims, "mr")


def cu_sinr_zf(b, k, gains: LargeScaleGains, alloc: PowerAllocation,
               pilots: PilotAllocation, dims: SystemDimensions) -> SinrBreakdown:
    """ZF lower-bound SINR of CU k served by BS b (its row of sinr_terms)."""
    return _cu_breakdown(b, k, gains, alloc, pilots, dims, "zf")


# Hamdi's integral by the trapezoid rule in u = ln z. The integrand is
# analytic for |Im u| < pi/2, so the rule's error falls like exp(-pi^2/h),
# about 7e-18 at h = 0.25; each cut-off of the infinite interval drops at
# most _HAMDI_CUTOFF of the integral.
_HAMDI_STEP = 0.25
_HAMDI_CUTOFF = 1e-13


def d2d_se_exact(gains: LargeScaleGains, alloc: PowerAllocation,
                 pilots: PilotAllocation, dims: SystemDimensions) -> np.ndarray:
    """Exact SE lower bound of every D2D pair, shape (L,).

    Given the channel estimates, pair l's SINR is `a·Y_s / (c + Σᵢ wᵢ·Yᵢ)`
    over its receiver's despread pilot observations Yᵢ (one per cellular
    pilot and one per D2D pilot set, Y_s its own), independent exponentials.
    Hamdi's lemma (IEEE Trans. Commun. 58(2), 2010) turns the mean rate into

        ∫₀^∞ e^{−zc} Πᵢ 1/(1 + z·xᵢ) · n / (1 + z·(x_s + n)) dz  nats,

    with xᵢ = wᵢ·E Yᵢ and n = a·E Y_s. The integrand lies between n·e^{−zS}
    (S = c + Σᵢ xᵢ + x_s + n) and n·e^{−zc}, so cutting z below ε/S and
    above (ln(S/c) + ln(1/ε))/c drops at most a fraction ε of it each.
    """
    rx = compute_gamma_d2drx(gains, alloc, pilots, dims)
    pc, pd = alloc.data_cu, alloc.data_d2d
    g_cu, g_d = rx.gamma_cu_d2drx, rx.gamma_d2d_d2drx  # (L, B, K), (L, L)
    sets = np.eye(dims.num_d2d_pilots)[pilots.pair_to_pilot]  # (L, N) membership
    own = pd * np.diag(g_d)  # n
    per_set = (pd * g_d) @ sets
    scales = np.hstack([np.einsum("bk,lbk->lk", pc, g_cu),
                        per_set - own[:, None] * sets])  # x: (L, K + N)
    joint = np.sum(per_set * sets, axis=1)  # x_s + n
    const = (1.0 + np.einsum("bk,lbk->l", pc, gains.beta_cu_d2drx - g_cu)
             + (gains.beta_d2dtx_d2drx - g_d) @ pd)
    total = const + scales.sum(axis=1) + joint

    lo = np.log(_HAMDI_CUTOFF / total)
    hi = np.log((np.log(total / const) - np.log(_HAMDI_CUTOFF)) / const)
    steps = np.arange(int(np.ceil(np.max(hi - lo, initial=0.0) / _HAMDI_STEP)) + 1)
    z = np.exp(lo[:, None] + _HAMDI_STEP * steps)  # (L, nodes)
    log_f = (-z * const[:, None] - np.log1p(z * joint[:, None])
             - np.log1p(z[:, :, None] * scales[:, None, :]).sum(axis=2))
    nats = own * _HAMDI_STEP * np.sum(z * np.exp(log_f), axis=1)
    return dims.prelog * nats / np.log(2.0)


@dataclass
class SEReport:
    """Per-user SE and SINR results of one drop under one allocation."""

    cu_se: np.ndarray                # (B, K)
    d2d_se_approx: np.ndarray        # (L,)
    processing: str                  # "mr" | "zf"
    breakdowns: dict = field(default_factory=dict)  # (user_type, cell, index) -> SinrBreakdown
    d2d_se_exact: np.ndarray = None  # (L,), optional
    sinr: np.ndarray = None          # (B*K + L,), users in breakdowns order

    def rows(self):
        """Yield per-user dicts (user_type, cell, index, sinr, se, terms)."""
        for (kind, cell, idx), bd in self.breakdowns.items():
            use_exact = (kind == "d2d" and self.d2d_se_exact is not None)
            row = {"user_type": kind, "cell": cell, "index": idx,
                   "sinr": bd.sinr,
                   "se": float(self.d2d_se_exact[idx]) if use_exact else bd.se}
            row.update(bd.denominator_terms)
            yield row

    def to_csv(self) -> str:
        buf = io.StringIO()
        fields = ["user_type", "cell", "index", "sinr", "se", *DENOMINATOR_TERMS]
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in self.rows():
            writer.writerow(row)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "processing": self.processing,
            "cu_se": self.cu_se.tolist(),
            "d2d_se_approx": self.d2d_se_approx.tolist(),
            "d2d_se_exact": None if self.d2d_se_exact is None else self.d2d_se_exact.tolist(),
            "users": list(self.rows()),
        })


def evaluate_network(dims: SystemDimensions, gains: LargeScaleGains,
                     pilots: PilotAllocation, alloc: PowerAllocation,
                     processing: str, exact_d2d=False) -> SEReport:
    """Evaluate every user's closed-form SE under one allocation; with
    `exact_d2d`, also every D2D pair's exact bound (Hamdi's integral, see
    `d2d_se_exact`), which `SEReport.rows` then reports as its SE."""
    processing = processing.lower()
    g, terms = sinr_terms(dims, gains, pilots, alloc, processing)
    p = alloc.stacked_data()
    sinr, se, breakdowns = _assess(g * p, terms @ p, dims.prelog)
    b_, k_ = dims.num_cells, dims.cus_per_cell
    exact = d2d_se_exact(gains, alloc, pilots, dims) if exact_d2d else None
    return SEReport(se[:b_ * k_].reshape(b_, k_), se[b_ * k_:], processing,
                    dict(zip(dims.users(), breakdowns)), exact, sinr)
