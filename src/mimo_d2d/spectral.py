"""Closed-form spectral-efficiency lower bounds for CUs (MR and ZF receive
processing) and D2D pairs: the closed-form approximation, and the exact
bound, the mean conditional-SINR rate over channel-estimate realizations,
evaluated deterministically as Hamdi's one-dimensional integral of Laplace
transforms (K. A. Hamdi, "A useful lemma for capacity analysis of fading
interference channels", IEEE Trans. Commun. 58(2), 2010).

Each per-user SINR is reported as a named breakdown so individual
interference mechanisms can be asserted in tests. SINR values are
invariant to the normalization chosen for the breakdown.
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

    @classmethod
    def assemble(cls, numerator, terms, prelog):
        total = sum(terms.values())
        sinr = numerator / total if total > 0 else 0.0
        return cls(float(numerator), {k: float(v) for k, v in terms.items()},
                   float(sinr), float(prelog * np.log2(1.0 + sinr)))


def se_from_sinr(sinr, dims: SystemDimensions):
    """Spectral efficiency in bits/s/Hz from a linear SINR (>= 0)."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise ValueError("sinr must be non-negative")
    out = dims.prelog * np.log2(1.0 + sinr)
    return out if out.ndim else float(out)


def cu_sinr_mr(b, k, gains: LargeScaleGains, alloc: PowerAllocation,
               dims: SystemDimensions, _gamma_full=None) -> SinrBreakdown:
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
    return SinrBreakdown.assemble(num, terms, dims.prelog)


def cu_sinr_zf(b, k, gains: LargeScaleGains, alloc: PowerAllocation,
               pilots: PilotAllocation, dims: SystemDimensions,
               _gamma_full=None, _gamma_d2d=None) -> SinrBreakdown:
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
    return SinrBreakdown.assemble(num, terms, dims.prelog)


def d2d_sinr_approx(l, gains: LargeScaleGains, alloc: PowerAllocation,
                    pilots: PilotAllocation, dims: SystemDimensions,
                    _gamma_rx=None) -> SinrBreakdown:
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
    return SinrBreakdown.assemble(num, terms, dims.prelog)


# Hamdi's integral by the trapezoid rule in u = ln z. The integrand is
# analytic for |Im u| < pi/2, so the rule's error falls like exp(-pi^2/h),
# about 7e-18 at h = 0.25; each cut-off of the infinite interval drops at
# most _HAMDI_CUTOFF of the integral.
_HAMDI_STEP = 0.25
_HAMDI_CUTOFF = 1e-13


def d2d_se_exact(gains: LargeScaleGains, alloc: PowerAllocation,
                 pilots: PilotAllocation, dims: SystemDimensions,
                 _rx=None) -> np.ndarray:
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
    rx = compute_gamma_d2drx(gains, alloc, pilots, dims) if _rx is None else _rx
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
    if processing not in ("mr", "zf"):
        raise ValueError("processing must be 'mr' or 'zf'")
    gamma_full = gamma_cu_bs_full(gains, alloc, dims)
    gamma_d2d_bs = compute_gamma_bs(gains, alloc, pilots, dims).gamma_d2d_bs
    rx = compute_gamma_d2drx(gains, alloc, pilots, dims)

    b_, k_, l_ = dims.num_cells, dims.cus_per_cell, dims.num_d2d_pairs
    cu_se = np.zeros((b_, k_))
    breakdowns = {}
    for b in range(b_):
        for k in range(k_):
            if processing == "mr":
                bd = cu_sinr_mr(b, k, gains, alloc, dims, _gamma_full=gamma_full)
            else:
                bd = cu_sinr_zf(b, k, gains, alloc, pilots, dims,
                                _gamma_full=gamma_full, _gamma_d2d=gamma_d2d_bs)
            cu_se[b, k] = bd.se
            breakdowns[("cu", b, k)] = bd

    d2d_se = np.zeros(l_)
    for l in range(l_):
        bd = d2d_sinr_approx(l, gains, alloc, pilots, dims,
                             _gamma_rx=rx.gamma_d2d_d2drx)
        d2d_se[l] = bd.se
        breakdowns[("d2d", -1, l)] = bd

    exact = d2d_se_exact(gains, alloc, pilots, dims, _rx=rx) if exact_d2d else None
    return SEReport(cu_se, d2d_se, processing, breakdowns, exact)
