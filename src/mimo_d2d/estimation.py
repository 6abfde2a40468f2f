"""Mean-square channel-estimate quality factors (gamma) at base stations and
D2D receivers, derived in closed form from the large-scale gains and pilot
powers.

Every gamma is the mean square of an MMSE channel estimate, so
0 <= gamma <= beta with beta - gamma the estimation-error variance. There
are two pilot kinds: cellular pilot k is shared by CU k of every cell, D2D
pilot n by the pairs of set n. A receiver that sees user u with gain beta_u
estimates it with quality tau p_u beta_u^2 / (1 + tau sum_j p_j beta_j),
the sum running over the users on u's pilot.
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


def _pilot_set_indicator(pilots: PilotAllocation, dims: SystemDimensions):
    """(N, L): 1 where pair l sends D2D pilot n."""
    s = np.zeros((dims.num_d2d_pilots, dims.num_d2d_pairs))
    s[pilots.pair_to_pilot, np.arange(dims.num_d2d_pairs)] = 1.0
    return s


def _cellular_pilot_quality(tau, pilot_cu, beta):
    """Quality, at each of R receivers, of the estimate of CU k of every cell
    from the shared observation of cellular pilot k; beta (R, B, K)."""
    obs = 1.0 + tau * np.einsum("bk,rbk->rk", pilot_cu, beta)  # (R, K)
    return tau * pilot_cu[None, :, :] * beta**2 / obs[:, None, :]


def _d2d_pilot_quality(tau, pilot_d2d, beta, s, pair_to_pilot):
    """Quality, at each of R receivers, of each pair's estimate from its D2D
    pilot's observation; beta (R, L), s the (N, L) pilot-set indicator. Also
    returns the observation power 1 + tau * sum p beta per pilot, (R, N)."""
    obs = 1.0 + tau * (pilot_d2d * beta) @ s.T
    return tau * pilot_d2d * beta**2 / obs[:, pair_to_pilot], obs


def gamma_cu_bs_full(gains: LargeScaleGains, alloc: PowerAllocation,
                     dims: SystemDimensions) -> np.ndarray:
    """Quality of the estimate, at BS b, of the channel from CU k of any
    cell b' (the same despread observation serves all B estimates of pilot
    k, so contamination couples them). Shape (B, B, K)."""
    return _cellular_pilot_quality(dims.pilot_len, alloc.pilot_cu, gains.beta_cu_bs)


def compute_gamma_bs(gains: LargeScaleGains, alloc: PowerAllocation,
                     pilots: PilotAllocation, dims: SystemDimensions) -> EstimationQuality:
    """BS-side gamma factors (own-cell CU, per-pilot-set, per-D2D-pair)."""
    tau, b_idx = dims.pilot_len, np.arange(dims.num_cells)
    s = _pilot_set_indicator(pilots, dims)
    beta_d = gains.beta_d2dtx_bs  # (B, L)
    gamma_d2d, obs = _d2d_pilot_quality(tau, alloc.pilot_d2d, beta_d, s, pilots.pair_to_pilot)
    return EstimationQuality(
        gamma_cu_bs=gamma_cu_bs_full(gains, alloc, dims)[b_idx, b_idx, :],
        gamma_set_bs=tau * ((np.sqrt(alloc.pilot_d2d) * beta_d) @ s.T) ** 2 / obs,
        gamma_d2d_bs=gamma_d2d)


def compute_gamma_d2drx(gains: LargeScaleGains, alloc: PowerAllocation,
                        pilots: PilotAllocation, dims: SystemDimensions) -> EstimationQuality:
    """Receiver-side gamma factors at every D2D receiver.

    The cellular pilot powers seen at the D2D receivers are the same
    p^{p,c} the CUs transmit with; there is no per-receiver pilot power.
    """
    tau = dims.pilot_len
    s = _pilot_set_indicator(pilots, dims)
    return EstimationQuality(
        gamma_cu_d2drx=_cellular_pilot_quality(tau, alloc.pilot_cu, gains.beta_cu_d2drx),
        gamma_d2d_d2drx=_d2d_pilot_quality(tau, alloc.pilot_d2d, gains.beta_d2dtx_d2drx,
                                           s, pilots.pair_to_pilot)[0])
