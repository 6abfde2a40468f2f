"""Mean-square channel-estimate quality factors (gamma) at base stations and
D2D receivers, derived in closed form from the large-scale gains and pilot
powers, plus correlated (estimate, error) sampling for Monte-Carlo use.

Every gamma is the mean square of an MMSE channel estimate, so
0 <= gamma <= beta with beta - gamma the estimation-error variance.
"""

import json
from dataclasses import dataclass

import numpy as np

from .scenario import SystemDimensions, LargeScaleGains, PilotAllocation


@dataclass
class PowerAllocation:
    """Data and pilot transmit powers in mW, all within [0, p_max]."""

    data_cu: np.ndarray   # (B, K)
    data_d2d: np.ndarray  # (L,)
    pilot_cu: np.ndarray  # (B, K)
    pilot_d2d: np.ndarray  # (L,)
    p_max: float

    def __post_init__(self):
        for name in ("data_cu", "data_d2d", "pilot_cu", "pilot_d2d"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.size and (arr.min() < -1e-12 or arr.max() > self.p_max * (1 + 1e-9)):
                raise ValueError(f"{name} outside [0, p_max]")

    @classmethod
    def from_stacked(cls, dims: SystemDimensions, data, pilots, p_max) -> "PowerAllocation":
        """The allocation whose stacked data and pilot powers (in
        dims.users() order) are data and pilots."""
        n_cu, shape = dims.num_cells * dims.cus_per_cell, (dims.num_cells, dims.cus_per_cell)
        return cls(data[:n_cu].reshape(shape), data[n_cu:],
                   pilots[:n_cu].reshape(shape), pilots[n_cu:], p_max)

    def stacked_data(self) -> np.ndarray:
        """Data powers in dims.users() order: CUs (b, k) row-major, then D2D."""
        return np.concatenate([self.data_cu.ravel(), self.data_d2d])

    def stacked_pilots(self) -> np.ndarray:
        """Pilot powers in dims.users() order."""
        return np.concatenate([self.pilot_cu.ravel(), self.pilot_d2d])

    def copy(self) -> "PowerAllocation":
        return PowerAllocation(self.data_cu.copy(), self.data_d2d.copy(),
                               self.pilot_cu.copy(), self.pilot_d2d.copy(), self.p_max)


def full_power_allocation(dims: SystemDimensions, p_max: float) -> PowerAllocation:
    """Everyone transmits pilots and data at p_max (the equal-power baseline)."""
    b, k, l = dims.num_cells, dims.cus_per_cell, dims.num_d2d_pairs
    return PowerAllocation(np.full((b, k), p_max), np.full(l, p_max),
                           np.full((b, k), p_max), np.full(l, p_max), p_max)


@dataclass
class EstimationQuality:
    """Closed-form estimate qualities; BS-side and receiver-side fields can
    be filled independently (None until computed)."""

    gamma_cu_bs: np.ndarray = None      # (B, K)   own-cell CU estimates at each BS
    gamma_set_bs: np.ndarray = None     # (B, N)   combined pilot-set estimates at each BS
    gamma_d2d_bs: np.ndarray = None     # (B, L)   per-pair D2D estimates at each BS
    gamma_cu_d2drx: np.ndarray = None   # (L, B, K) CU estimates at each D2D receiver
    gamma_d2d_d2drx: np.ndarray = None  # (L, L)   D2D estimates at each D2D receiver

    def to_json(self) -> str:
        return json.dumps({k: (None if v is None else np.asarray(v).tolist())
                           for k, v in self.__dict__.items()})


def _pilot_set_indicator(pilots: PilotAllocation, num_pilots: int, num_pairs: int):
    s = np.zeros((num_pilots, num_pairs))
    if num_pairs:
        s[pilots.pair_to_pilot, np.arange(num_pairs)] = 1.0
    return s


def gamma_cu_bs_full(gains: LargeScaleGains, alloc: PowerAllocation,
                     dims: SystemDimensions) -> np.ndarray:
    """Quality of the estimate, at BS b, of the channel from CU k of any
    cell b' (the same despread observation serves all B estimates of pilot
    k, so contamination couples them). Shape (B, B, K)."""
    tau = dims.pilot_len
    beta = gains.beta_cu_bs  # (B, B', K)
    denom = 1.0 + tau * np.einsum("jk,ijk->ik", alloc.pilot_cu, beta)  # (B, K)
    return tau * alloc.pilot_cu[None, :, :] * beta**2 / denom[:, None, :]


def compute_gamma_bs(gains: LargeScaleGains, alloc: PowerAllocation,
                     pilots: PilotAllocation, dims: SystemDimensions) -> EstimationQuality:
    """BS-side gamma factors (own-cell CU, per-pilot-set, per-D2D-pair)."""
    tau = dims.pilot_len
    n, l = dims.num_d2d_pilots, dims.num_d2d_pairs
    out = EstimationQuality()
    full = gamma_cu_bs_full(gains, alloc, dims)
    b_idx = np.arange(dims.num_cells)
    out.gamma_cu_bs = full[b_idx, b_idx, :]

    s = _pilot_set_indicator(pilots, n, l)
    beta_d = gains.beta_d2dtx_bs  # (B, L)
    den = 1.0 + tau * (alloc.pilot_d2d * beta_d) @ s.T          # (B, N)
    num = tau * ((np.sqrt(alloc.pilot_d2d) * beta_d) @ s.T) ** 2
    out.gamma_set_bs = num / den
    if l:
        out.gamma_d2d_bs = tau * alloc.pilot_d2d * beta_d**2 / den[:, pilots.pair_to_pilot]
    else:
        out.gamma_d2d_bs = np.zeros((dims.num_cells, 0))
    return out


def compute_gamma_d2drx(gains: LargeScaleGains, alloc: PowerAllocation,
                        pilots: PilotAllocation, dims: SystemDimensions) -> EstimationQuality:
    """Receiver-side gamma factors at every D2D receiver.

    The cellular pilot powers seen at the D2D receivers are the same
    p^{p,c} the CUs transmit with; there is no per-receiver pilot power.
    """
    tau = dims.pilot_len
    n, l = dims.num_d2d_pilots, dims.num_d2d_pairs
    out = EstimationQuality()
    beta_c = gains.beta_cu_d2drx  # (L, B, K)
    den_c = 1.0 + tau * np.einsum("bk,lbk->lk", alloc.pilot_cu, beta_c)  # (L, K)
    out.gamma_cu_d2drx = tau * alloc.pilot_cu[None, :, :] * beta_c**2 / den_c[:, None, :]

    s = _pilot_set_indicator(pilots, n, l)
    beta_d = gains.beta_d2dtx_d2drx  # (L, L')
    den_d = 1.0 + tau * (alloc.pilot_d2d * beta_d) @ s.T  # (L, N)
    if l:
        out.gamma_d2d_d2drx = tau * alloc.pilot_d2d * beta_d**2 / den_d[:, pilots.pair_to_pilot]
    else:
        out.gamma_d2d_d2drx = np.zeros((0, 0))
    return out


def compute_estimation_quality(gains, alloc, pilots, dims) -> EstimationQuality:
    """Both sides combined."""
    bs = compute_gamma_bs(gains, alloc, pilots, dims)
    rx = compute_gamma_d2drx(gains, alloc, pilots, dims)
    bs.gamma_cu_d2drx = rx.gamma_cu_d2drx
    bs.gamma_d2d_d2drx = rx.gamma_d2d_d2drx
    return bs


def sample_estimate_and_error(beta, gamma, rng, size=None):
    """Draw independent complex-Gaussian (estimate, error) samples with
    variances gamma and beta - gamma; their sum has variance beta.

    beta/gamma broadcast against `size`; raises if gamma exceeds beta.
    """
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma > beta * (1 + 1e-12) + 1e-300):
        raise ValueError("gamma must not exceed beta")
    shape = np.broadcast_shapes(beta.shape, gamma.shape) if size is None else size
    est = np.sqrt(np.maximum(gamma, 0.0) / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    err = np.sqrt(np.maximum(beta - gamma, 0.0) / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return est, err
