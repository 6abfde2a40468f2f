"""Link-level Monte-Carlo oracles: simulate pilot transmission, MMSE
estimation and MR/ZF combining on explicit M-antenna channels, and report
the empirical SINR decomposition. Used to validate every closed-form
expression against an independent signal-level path.

Intended for small instances only; a dimension guard rejects anything
beyond desk scale.
"""

import os
from concurrent.futures.thread import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .scenario import SystemDimensions, LargeScaleGains, PilotAllocation
from .estimation import PowerAllocation, compute_gamma_bs, gamma_cu_bs_full

DIMENSION_GUARD = 10_000
# Realizations per oracle channel batch.
_ORACLE_BATCH = 1000
# Complex entries per Wishart batch, below one MR-oracle channel batch at the
# acceptance configs, so the Wishart case does not set the link-level peak
# memory.
_WISHART_BATCH_ENTRIES = 125_000
# Batches run concurrently, one thread per CPU this process may use. No result
# depends on it: batch sizes come from the constants above, batch j draws from
# child j of the caller's generator, and batches are reduced in batch order.
_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@dataclass
class EmpiricalSinr:
    """Empirical use-and-forget decomposition with per-term standard errors.

    The whole same-pilot other-cell contribution is reported under
    coherent_contamination (its coherent and non-coherent parts are not
    separable from samples alone).
    """

    numerator: float
    denominator_terms: dict
    sinr: float
    stderr: dict
    num_realizations: int


def _check_guard(dims: SystemDimensions):
    load = dims.antennas_per_bs * (dims.cus_per_cell * dims.num_cells + dims.num_d2d_pairs)
    if load > DIMENSION_GUARD:
        raise ValueError(f"oracle dimension guard exceeded: M*(K*B+L) = {load} > {DIMENSION_GUARD}")


def _crandn(rng, *shape, power=1.0):
    """Circularly-symmetric complex Gaussians of the given shape with
    E|z|^2 = power (broadcast against shape): one real fill read as
    consecutive (re, im) pairs, scaled in place."""
    z = rng.standard_normal(shape + (2,)).view(np.complex128)[..., 0]
    z *= np.sqrt(np.multiply(power, 0.5))
    return z


def _map_batches(rng, total, size, work):
    """work(child, n) on consecutive batches of at most `size` of `total`
    draws, batch j drawing from child j of the generator's spawn, over a pool
    of _THREADS threads; the results in batch order."""
    sizes = [min(size, total - start) for start in range(0, total, size)]
    children = np.random.default_rng(rng).spawn(len(sizes))
    with ThreadPoolExecutor(_THREADS) as pool:
        yield from pool.map(work, children, sizes)


class _Welford:
    """Streaming mean/variance for batched statistics."""

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, batch):
        batch = np.asarray(batch)
        self.n += batch.shape[0]
        self.total += batch.sum(axis=0)
        self.total_sq += np.abs(batch * np.conj(batch)).sum(axis=0).real

    @property
    def mean(self):
        return self.total / self.n

    @property
    def stderr(self):
        var = self.total_sq / self.n - np.abs(self.mean) ** 2
        return np.sqrt(np.maximum(var, 0.0) / self.n)


def empirical_gamma(tau, pilot_powers, betas, target, num_realizations=100_000,
                    rng=None, combined=False):
    """Empirical mean square of the MMSE estimate of one scalar channel that
    shares a despread pilot observation with the given co-pilot channels.

    With combined=True the estimated quantity is the plain sum of the
    co-pilot channels instead of channel `target`.
    """
    rng = np.random.default_rng(rng)
    pilot_powers = np.asarray(pilot_powers, dtype=float)
    betas = np.asarray(betas, dtype=float)
    h = _crandn(rng, num_realizations, betas.size, power=betas)
    y = h @ np.sqrt(tau * pilot_powers) + _crandn(rng, num_realizations)
    den = 1.0 + tau * float(pilot_powers @ betas)
    if combined:
        coeff = float(np.sqrt(tau * pilot_powers) @ betas) / den
    else:
        coeff = np.sqrt(tau * pilot_powers[target]) * betas[target] / den
    return float(np.mean(np.abs(coeff * y) ** 2))


def _draw_channels(rng, batch, dims, gains, b):
    """Channels into BS b for one batch: (batch, B, K, M) CU channels and
    (batch, L, M) D2D channels."""
    m = dims.antennas_per_bs
    h_cu = _crandn(rng, batch, dims.num_cells, dims.cus_per_cell, m,
                   power=gains.beta_cu_bs[b][:, :, None])
    h_d2d = _crandn(rng, batch, dims.num_d2d_pairs, m,
                    power=gains.beta_d2dtx_bs[b][:, None])
    return h_cu, h_d2d


def _despread_cu_obs(rng, h_cu, alloc, tau):
    """Per-pilot despread observations (batch, K, M)."""
    batch, _, k_, m = h_cu.shape
    signal = np.einsum("bk,sbkm->skm", np.sqrt(tau * alloc.pilot_cu), h_cu)
    return signal + _crandn(rng, batch, k_, m)


def _despread_d2d_obs(rng, h_d2d, alloc, pilots, tau, n_sets):
    """Per-pilot-set despread observations (batch, N, M)."""
    batch, l_, m = h_d2d.shape
    obs = _crandn(rng, batch, n_sets, m)
    for j in range(l_):
        obs[:, pilots.pair_to_pilot[j], :] += np.sqrt(tau * alloc.pilot_d2d[j]) * h_d2d[:, j, :]
    return obs


def _uatf_products(v, h_cu, h_d2d, b, k):
    """One batch of combiner/channel inner products, by statistic."""
    batch, b_, k_, m = h_cu.shape
    v_conj = np.conj(v)[:, :, None]
    proj_cu = (h_cu.reshape(batch, b_ * k_, m) @ v_conj).reshape(batch, b_, k_)
    proj_d2d = (h_d2d @ v_conj)[:, :, 0]
    return {"desired": proj_cu[:, b, k][:, None], "cu_sq": np.abs(proj_cu) ** 2,
            "d2d_sq": np.abs(proj_d2d) ** 2, "vnorm": np.sum(np.abs(v) ** 2, axis=1)[:, None]}


def _finalize(batches, alloc, dims, b, k):
    """Fold the batches' inner products in batch order, then decompose."""
    stats = {name: _Welford() for name in ("desired", "cu_sq", "d2d_sq", "vnorm")}
    for products in batches:
        for name, x in products.items():
            stats[name].add(x)
    mean_desired = complex(stats["desired"].mean[0])
    cu_sq = stats["cu_sq"].mean          # (B, K) E|v^H h|^2
    d2d_sq = stats["d2d_sq"].mean        # (L,)
    noise = float(stats["vnorm"].mean[0])
    p = alloc.data_cu
    others = np.arange(dims.num_cells) != b

    numerator = p[b, k] * abs(mean_desired) ** 2
    own_var = p[b, k] * (cu_sq[b, k] - abs(mean_desired) ** 2)
    terms = {
        "noise": noise,
        "estimation_error": float(own_var),
        "intra_cell": float(p[b] @ cu_sq[b] - p[b, k] * cu_sq[b, k]),
        "inter_cell": float((p[others] * cu_sq[others]).sum()
                            - p[others, k] @ cu_sq[others, k]),
        "d2d_interference": float(alloc.data_d2d @ d2d_sq),
        "coherent_contamination": float(p[others, k] @ cu_sq[others, k]),
    }
    total = sum(terms.values())
    stderr = {
        "numerator": 2 * abs(mean_desired) * p[b, k] * float(stats["desired"].stderr[0]),
        "noise": float(stats["vnorm"].stderr[0]),
        "cu_terms": float(np.sum(p * stats["cu_sq"].stderr)),
        "d2d_terms": float(alloc.data_d2d @ stats["d2d_sq"].stderr),
    }
    return EmpiricalSinr(float(numerator), terms, float(numerator / total),
                         stderr, stats["vnorm"].n)


def oracle_uatf_mr(dims: SystemDimensions, gains: LargeScaleGains,
                   pilots: PilotAllocation, alloc: PowerAllocation,
                   b: int, k: int, num_realizations=100_000, rng=None) -> EmpiricalSinr:
    """Empirical MR use-and-forget SINR of CU k at BS b from simulated
    pilot + data transmission."""
    _check_guard(dims)
    tau = dims.pilot_len
    denom = 1.0 + tau * float(alloc.pilot_cu[:, k] @ gains.beta_cu_bs[b, :, k])
    coeff = np.sqrt(tau * alloc.pilot_cu[b, k]) * gains.beta_cu_bs[b, b, k] / denom

    amp = np.sqrt(tau * alloc.pilot_cu[:, k])  # pilot k's amplitude from each cell

    def batch_products(child, nb):
        h_cu, h_d2d = _draw_channels(child, nb, dims, gains, b)
        # MR combines with pilot k's despread observation alone, built in
        # place to keep the batches in flight small
        v = _crandn(child, nb, dims.antennas_per_bs)
        v += amp @ h_cu[:, :, k, :]
        v *= coeff
        return _uatf_products(v, h_cu, h_d2d, b, k)

    batches = _map_batches(rng, num_realizations, _ORACLE_BATCH, batch_products)
    return _finalize(batches, alloc, dims, b, k)


def _zf_column(hhat, k):
    """Column k of the ZF detector hhat (hhat^H hhat)^{-1} for a batch of
    (s, M, K+N) channel estimates: one solve of the Gram system against e_k
    per realization, with no inverse formed."""
    gram = np.conj(hhat).transpose(0, 2, 1) @ hhat
    e_k = np.zeros((hhat.shape[2], 1))
    e_k[k] = 1.0
    return (hhat @ np.linalg.solve(gram, e_k))[:, :, 0]


def oracle_zf(dims: SystemDimensions, gains: LargeScaleGains,
              pilots: PilotAllocation, alloc: PowerAllocation,
              b: int, k: int, num_realizations=100_000, rng=None) -> EmpiricalSinr:
    """Empirical ZF SINR of CU k at BS b. The detector is built per
    realization from the estimated own-cell CU channels and the N combined
    pilot-set channels."""
    _check_guard(dims)
    dims.require_zf()
    tau = dims.pilot_len
    n_sets = dims.num_d2d_pilots
    k_ = dims.cus_per_cell

    gamma_full = gamma_cu_bs_full(gains, alloc, dims)
    q_bs = compute_gamma_bs(gains, alloc, pilots, dims)
    gamma_diag = np.concatenate([gamma_full[b, b, :], q_bs.gamma_set_bs[b]])

    den_cu = 1.0 + tau * np.einsum("jk,jk->k", alloc.pilot_cu, gains.beta_cu_bs[b])
    coeff_cu = np.sqrt(tau * alloc.pilot_cu[b]) * gains.beta_cu_bs[b, b] / den_cu  # (K,)
    coeff_set = np.zeros(n_sets)
    for i, grp in enumerate(pilots.d2d_pilot_sets):
        t = sum(tau * alloc.pilot_d2d[j] * gains.beta_d2dtx_bs[b, j] for j in grp)
        coeff_set[i] = sum(np.sqrt(tau * alloc.pilot_d2d[j]) * gains.beta_d2dtx_bs[b, j]
                           for j in grp) / (1.0 + t)

    def batch_products(child, nb):
        h_cu, h_d2d = _draw_channels(child, nb, dims, gains, b)
        obs_cu = _despread_cu_obs(child, h_cu, alloc, tau)
        obs_set = _despread_d2d_obs(child, h_d2d, alloc, pilots, tau, n_sets)
        est = np.concatenate([coeff_cu[None, :, None] * obs_cu,
                              coeff_set[None, :, None] * obs_set], axis=1)  # (s, K+N, M)
        v = _zf_column(est.transpose(0, 2, 1), k) * np.sqrt(gamma_diag[k])
        return _uatf_products(v, h_cu, h_d2d, b, k)

    batches = _map_batches(rng, num_realizations, _ORACLE_BATCH, batch_products)
    return _finalize(batches, alloc, dims, b, k)


def wishart_inverse_diagonal_mean(m: int, cols: int, num_samples=10_000, rng=None):
    """Empirical mean of [(Z^H Z)^{-1}]_{kk} over i.i.d. complex standard
    Gaussian M x cols matrices, averaged over k; the analytic value is
    1 / (m - cols)."""
    def trace_sum(child, nb):
        z = _crandn(child, nb, m, cols)
        inv = np.linalg.inv(np.conj(z).transpose(0, 2, 1) @ z)
        return np.einsum("sii->s", inv).real.sum() / cols

    batch = max(1, _WISHART_BATCH_ENTRIES // (m * cols))
    return sum(_map_batches(rng, num_samples, batch, trace_sum)) / num_samples
