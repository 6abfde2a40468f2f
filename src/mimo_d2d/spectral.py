"""Closed-form spectral-efficiency lower bounds for CUs (MR and ZF receive
processing) and D2D pairs (closed-form approximation plus the exact
Monte-Carlo bound over channel-estimate realizations).

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


def d2d_se_exact(l, gains: LargeScaleGains, alloc: PowerAllocation,
                 pilots: PilotAllocation, dims: SystemDimensions,
                 num_samples=10000, rng=None) -> float:
    """Exact SE lower bound of D2D pair l: Monte-Carlo average over joint
    channel-estimate realizations of the conditional-SINR rate.

    Estimates of transmitters sharing a pilot observation are drawn as
    scalings of the same observation, preserving their correlation.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if alloc.data_d2d[l] == 0.0:
        return 0.0
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    tau = dims.pilot_len
    beta_c = gains.beta_cu_d2drx[l]    # (B, K)
    beta_d = gains.beta_d2dtx_d2drx[l]  # (L,)
    pc, pd = alloc.data_cu, alloc.data_d2d
    ppc, ppd = alloc.pilot_cu, alloc.pilot_d2d
    n_sets = dims.num_d2d_pilots

    # Despread pilot observations: one per cellular pilot, one per D2D set.
    var_cu = 1.0 + tau * np.einsum("bk,bk->k", ppc, beta_c)        # (K,)
    coeff_cu = np.sqrt(tau * ppc) * beta_c / var_cu                # (B, K)
    gamma_cu = tau * ppc * beta_c**2 / var_cu
    var_set = np.empty(n_sets)
    for i, grp in enumerate(pilots.d2d_pilot_sets):
        var_set[i] = 1.0 + tau * sum(ppd[j] * beta_d[j] for j in grp)
    coeff_d = np.sqrt(tau * ppd) * beta_d / var_set[pilots.pair_to_pilot]
    gamma_d = tau * ppd * beta_d**2 / var_set[pilots.pair_to_pilot]

    # |estimate|^2 terms collapse to weighted |observation|^2 sums.
    w_cu = np.einsum("bk,bk->k", pc, coeff_cu**2)                  # (K,)
    w_set = np.zeros(n_sets)
    for j in range(dims.num_d2d_pairs):
        if j != l:
            w_set[pilots.pair_to_pilot[j]] += pd[j] * coeff_d[j] ** 2
    const = (pd[l] * (beta_d[l] - gamma_d[l])
             + float(np.sum(pc * (beta_c - gamma_cu)))
             + float(pd @ (beta_d - gamma_d)) - pd[l] * (beta_d[l] - gamma_d[l])
             + 1.0)

    obs_cu = (rng.standard_normal((num_samples, beta_c.shape[1]))**2
              + rng.standard_normal((num_samples, beta_c.shape[1]))**2) * (var_cu / 2.0)
    obs_set = (rng.standard_normal((num_samples, n_sets))**2
               + rng.standard_normal((num_samples, n_sets))**2) * (var_set / 2.0)
    num = pd[l] * coeff_d[l] ** 2 * obs_set[:, pilots.pair_to_pilot[l]]
    den = const + obs_cu @ w_cu + obs_set @ w_set
    return float(dims.prelog * np.mean(np.log2(1.0 + num / den)))


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
                     processing: str, exact_d2d=False, num_samples=10000,
                     rng=None) -> SEReport:
    """Evaluate every user's closed-form SE under one allocation; optionally
    also the exact D2D bound (Monte-Carlo, deterministic given rng)."""
    processing = processing.lower()
    if processing not in ("mr", "zf"):
        raise ValueError("processing must be 'mr' or 'zf'")
    gamma_full = gamma_cu_bs_full(gains, alloc, dims)
    gamma_d2d_bs = compute_gamma_bs(gains, alloc, pilots, dims).gamma_d2d_bs
    gamma_rx = compute_gamma_d2drx(gains, alloc, pilots, dims).gamma_d2d_d2drx

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
        bd = d2d_sinr_approx(l, gains, alloc, pilots, dims, _gamma_rx=gamma_rx)
        d2d_se[l] = bd.se
        breakdowns[("d2d", -1, l)] = bd

    exact = None
    if exact_d2d and l_:
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        exact = np.array([d2d_se_exact(l, gains, alloc, pilots, dims,
                                       num_samples=num_samples, rng=rng)
                          for l in range(l_)])
    return SEReport(cu_se, d2d_se, processing, breakdowns, exact)
