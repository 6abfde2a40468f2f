"""Network drop generation: BS grid with wrap-around, user placement,
three-slope pathloss and pilot allocation for the D2D pairs.

All large-scale gains are stored normalized by the noise power, so transmit
powers in mW multiply directly onto unit-variance noise.
"""

import json
import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

# Documented defaults for the three-slope model (2 GHz carrier, 15 m BS
# antenna height, 1.65 m user height). Breakpoints 10 m / 50 m; slopes in
# dB per decade above d1, between d0 and d1, and flat below d0.
DEFAULT_FIXED_LOSS_DB = (
    46.3
    + 33.9 * math.log10(2000.0)
    - 13.82 * math.log10(15.0)
    - (1.1 * math.log10(2000.0) - 0.7) * 1.65
    + (1.56 * math.log10(2000.0) - 0.8)
)  # = 141.4646 dB
DEFAULT_SLOPES = (35.0, 20.0, 0.0)
DEFAULT_NOISE_DBM = -94.0


class ScenarioError(ValueError):
    """Raised for invalid dimensions, geometry or configuration."""


@dataclass(frozen=True)
class SystemDimensions:
    """Counts defining one network instance.

    pilot_len is always cus_per_cell + num_d2d_pilots: the cellular pilots
    are reused across cells and the D2D pairs share a disjoint pilot set.
    num_d2d_pairs = 0 with num_d2d_pilots > 0 models a cellular-only network
    that keeps the D2D pilot budget reserved (the comparison baseline).
    """

    num_cells: int
    antennas_per_bs: int
    cus_per_cell: int
    num_d2d_pairs: int
    num_d2d_pilots: int
    coherence_len: int

    def __post_init__(self):
        b, m, k = self.num_cells, self.antennas_per_bs, self.cus_per_cell
        l, n = self.num_d2d_pairs, self.num_d2d_pilots
        if min(b, m, k) < 1:
            raise ScenarioError("num_cells, antennas_per_bs, cus_per_cell must be >= 1")
        if l < 0 or n < 0:
            raise ScenarioError("num_d2d_pairs and num_d2d_pilots must be >= 0")
        if l > 0 and n < 1:
            raise ScenarioError("need at least one D2D pilot when there are D2D pairs")
        if l > 0 and l < n:
            raise ScenarioError("need num_d2d_pairs >= num_d2d_pilots")
        if self.pilot_len >= self.coherence_len:
            raise ScenarioError("pilot length must be smaller than the coherence length")

    @property
    def pilot_len(self) -> int:
        return self.cus_per_cell + self.num_d2d_pilots

    @property
    def prelog(self) -> float:
        return 1.0 - self.pilot_len / self.coherence_len

    @property
    def zf_dof(self) -> int:
        """Array degrees of freedom left after nulling K + N directions."""
        return self.antennas_per_bs - self.pilot_len

    def users(self) -> list:
        """User keys (user_type, cell, index) in stacked order: the CUs (b, k)
        row-major, then the D2D pairs (cell -1). Every stacked power vector,
        SINR vector and SINR-terms row follows this order."""
        return ([("cu", b, k) for b in range(self.num_cells) for k in range(self.cus_per_cell)]
                + [("d2d", -1, l) for l in range(self.num_d2d_pairs)])

    def require_zf(self):
        if self.zf_dof <= 0:
            raise ScenarioError(
                f"ZF processing needs antennas_per_bs > {self.pilot_len} "
                f"(got {self.antennas_per_bs})"
            )


@dataclass(frozen=True)
class PathlossModel:
    """Three-slope distance law, continuous at both breakpoints.

    Gain in dB at distance d (in meters, d_km = d/1000):
        d >  d1:        -fixed_loss_db - slopes[0] * log10(d_km)
        d0 < d <= d1:   -fixed_loss_db - (slopes[0]-slopes[1]) * log10(d1_km)
                                       - slopes[1] * log10(d_km)
        d <= d0:        value at d0 (flat)
    """

    d0: float = 10.0
    d1: float = 50.0
    fixed_loss_db: float = DEFAULT_FIXED_LOSS_DB
    slopes: tuple = DEFAULT_SLOPES

    def __post_init__(self):
        if not (0.0 < self.d0 < self.d1):
            raise ScenarioError("need 0 < d0 < d1")
        if len(self.slopes) != 3:
            raise ScenarioError("slopes must have three entries")


def pathloss_db(d, model: PathlossModel):
    """Three-slope pathloss gain in dB for distance d in meters (d > 0).

    Accepts scalars or arrays; raises for non-positive distances.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0.0):
        raise ScenarioError("pathloss distance must be positive")
    s_far, s_mid, s_near = model.slopes
    d_km = d / 1000.0
    d0_km = model.d0 / 1000.0
    d1_km = model.d1 / 1000.0
    mid_offset = (s_far - s_mid) * math.log10(d1_km)
    far = -model.fixed_loss_db - s_far * np.log10(d_km)
    mid = -model.fixed_loss_db - mid_offset - s_mid * np.log10(d_km)
    near = -model.fixed_loss_db - mid_offset - s_mid * math.log10(d0_km) - s_near * np.log10(d_km / d0_km)
    out = np.where(d > model.d1, far, np.where(d > model.d0, mid, near))
    return out if out.ndim else float(out)


def wrap_distance(p, q, area_side: float):
    """Torus distance between points in [0, area_side)^2.

    Equals the minimum over the 9 translated images of q; supports
    broadcasting over leading axes (last axis holds x, y).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    delta = np.abs(p - q)
    delta = np.minimum(delta, area_side - delta)
    return np.hypot(delta[..., 0], delta[..., 1])


@dataclass
class Geometry:
    """Positions of one drop, in meters, on a wrap-around square area."""

    area_side: float
    bs_positions: np.ndarray  # (B, 2)
    cu_positions: np.ndarray  # (B, K, 2)
    d2d_tx_positions: np.ndarray  # (L, 2)
    d2d_rx_positions: np.ndarray  # (L, 2)
    d2d_link_distance: float

    def validate(self):
        rows, cols = _grid_shape(len(self.bs_positions))
        cell_w = self.area_side / cols
        cell_h = self.area_side / rows
        for b, bs in enumerate(self.bs_positions):
            lo = np.array([(b % cols) * cell_w, (b // cols) * cell_h])
            hi = lo + (cell_w, cell_h)
            if np.any(self.cu_positions[b] < lo) or np.any(self.cu_positions[b] > hi):
                raise ScenarioError(f"CU outside coverage region of cell {b}")
        if len(self.d2d_tx_positions):
            d = wrap_distance(self.d2d_tx_positions, self.d2d_rx_positions, self.area_side)
            if not np.allclose(d, self.d2d_link_distance, rtol=1e-9, atol=1e-9):
                raise ScenarioError("D2D pair distance does not match d2d_link_distance")


@dataclass
class LargeScaleGains:
    """Linear power gains (normalized by noise power) between every
    transmitter and receiver class.

    beta_cu_bs[b, b', k]     : CU k of cell b' -> BS b
    beta_d2dtx_bs[b, l]      : D2D transmitter l -> BS b
    beta_cu_d2drx[l, b, k]   : CU k of cell b -> D2D receiver l
    beta_d2dtx_d2drx[l, l']  : D2D transmitter l' -> D2D receiver l
    """

    beta_cu_bs: np.ndarray
    beta_d2dtx_bs: np.ndarray
    beta_cu_d2drx: np.ndarray
    beta_d2dtx_d2drx: np.ndarray

    def validate(self):
        for name, arr in self.__dict__.items():
            if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
                raise ScenarioError(f"{name} must be strictly positive and finite")


@dataclass
class PilotAllocation:
    """Cellular pilot k is reused by CU k of every cell; D2D pairs are
    partitioned into one index set per D2D pilot."""

    d2d_pilot_sets: list  # N lists of pair indices, disjoint, covering range(L)
    pair_to_pilot: np.ndarray  # (L,)

    def validate(self, dims: SystemDimensions):
        seen = sorted(l for s in self.d2d_pilot_sets for l in s)
        if seen != list(range(dims.num_d2d_pairs)):
            raise ScenarioError("d2d_pilot_sets must partition the pair indices")
        if dims.num_d2d_pairs and any(len(s) == 0 for s in self.d2d_pilot_sets):
            raise ScenarioError("every D2D pilot set must be non-empty")
        for i, s in enumerate(self.d2d_pilot_sets):
            if any(self.pair_to_pilot[l] != i for l in s):
                raise ScenarioError("pair_to_pilot inconsistent with d2d_pilot_sets")

    def set_of(self, l: int) -> list:
        return self.d2d_pilot_sets[self.pair_to_pilot[l]]


def _grid_shape(num_cells: int):
    """Factor pair (rows, cols) with rows*cols == num_cells, closest to square."""
    best = (1, num_cells)
    for r in range(1, int(math.isqrt(num_cells)) + 1):
        if num_cells % r == 0:
            best = (r, num_cells // r)
    return best


def _noise_mw(noise_dbm: float) -> float:
    return 10.0 ** (noise_dbm / 10.0)


def _positive_finite(value) -> bool:
    """True for a real number, not a bool, in (0, inf)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0.0 < value < math.inf)


def build_scenario(config: "ScenarioConfig", rng_seed):
    """Draw one random drop of a config.

    BSs sit at the centers of an exact rectangular tiling of the area; CUs
    are uniform in their serving cell; D2D transmitters are uniform over the
    whole area with the receiver at the fixed link distance in a uniform
    direction (positions wrap).

    Returns (Geometry, LargeScaleGains, PilotAllocation); deterministic
    given the seed.
    """
    dims = config.dimensions()
    area = float(config.area_side)
    d2d_dist = float(config.d2d_link_distance)
    # checked again here: the redraw loop below ends only for such a distance,
    # and a config can be changed after it was loaded
    if not 0.0 < d2d_dist < area:
        raise ScenarioError("d2d_link_distance must be positive and smaller than area_side")

    rng = np.random.default_rng(rng_seed)
    b_, k_, l_, n_ = (dims.num_cells, dims.cus_per_cell,
                      dims.num_d2d_pairs, dims.num_d2d_pilots)

    rows, cols = _grid_shape(b_)
    cell_w, cell_h = area / cols, area / rows
    bs_xy = np.array([[(b % cols + 0.5) * cell_w, (b // cols + 0.5) * cell_h]
                      for b in range(b_)])

    # Redraw the user placement in the zero-probability event that some
    # transmitter lands exactly on a receiver (never emit a zero distance).
    while True:
        cu_xy = np.empty((b_, k_, 2))
        for b in range(b_):
            origin = np.array([(b % cols) * cell_w, (b // cols) * cell_h])
            cu_xy[b] = origin + rng.uniform(0.0, 1.0, size=(k_, 2)) * (cell_w, cell_h)
        tx_xy = rng.uniform(0.0, area, size=(l_, 2))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=l_)
        rx_xy = np.mod(tx_xy + d2d_dist * np.stack([np.cos(angles), np.sin(angles)], axis=-1), area)
        geom = Geometry(area, bs_xy, cu_xy, tx_xy, rx_xy, d2d_dist)
        if _min_link_distance(geom) > 0.0:
            break

    gains = _gains_from_geometry(geom, config.pathloss, float(config.noise_dbm))
    pilots = _allocate_d2d_pilots(l_, n_, rng)
    gains.validate()
    pilots.validate(dims)
    return geom, gains, pilots


def _link_distances(geom: Geometry):
    """The four receiver-by-transmitter wrap-distance matrices of a drop."""
    b_, k_ = geom.cu_positions.shape[:2]
    cu_flat = geom.cu_positions.reshape(b_ * k_, 2)
    area = geom.area_side
    d_cu_bs = wrap_distance(geom.bs_positions[:, None, :], cu_flat[None, :, :], area)
    d_tx_bs = wrap_distance(geom.bs_positions[:, None, :], geom.d2d_tx_positions[None, :, :], area)
    d_cu_rx = wrap_distance(geom.d2d_rx_positions[:, None, :], cu_flat[None, :, :], area)
    d_tx_rx = wrap_distance(geom.d2d_rx_positions[:, None, :], geom.d2d_tx_positions[None, :, :], area)
    return d_cu_bs, d_tx_bs, d_cu_rx, d_tx_rx


def _min_link_distance(geom: Geometry) -> float:
    return min((float(d.min()) for d in _link_distances(geom) if d.size), default=1.0)


def _gains_from_geometry(geom: Geometry, pathloss: PathlossModel,
                         noise_dbm: float) -> LargeScaleGains:
    noise = _noise_mw(noise_dbm)
    b_, k_ = geom.cu_positions.shape[:2]
    l_ = geom.d2d_tx_positions.shape[0]
    d_cu_bs, d_tx_bs, d_cu_rx, d_tx_rx = _link_distances(geom)

    def beta(d):
        return 10.0 ** (pathloss_db(d, pathloss) / 10.0) / noise if d.size else d

    return LargeScaleGains(
        beta(d_cu_bs).reshape(b_, b_, k_),
        beta(d_tx_bs).reshape(b_, l_),
        beta(d_cu_rx).reshape(l_, b_, k_) if l_ else np.zeros((0, b_, k_)),
        beta(d_tx_rx).reshape(l_, l_),
    )


def _allocate_d2d_pilots(num_pairs: int, num_pilots: int, rng) -> PilotAllocation:
    """Two-stage allocation: a random subset of pairs gets the pilots
    one-to-one, every remaining pair reuses a uniformly drawn pilot."""
    pair_to_pilot = np.empty(num_pairs, dtype=int)
    if num_pairs:
        seeded = rng.choice(num_pairs, size=num_pilots, replace=False)
        pair_to_pilot[seeded] = rng.permutation(num_pilots)
        rest = np.setdiff1d(np.arange(num_pairs), seeded)
        pair_to_pilot[rest] = rng.integers(0, num_pilots, size=rest.size)
    sets = [sorted(np.flatnonzero(pair_to_pilot == i).tolist()) for i in range(num_pilots)]
    return PilotAllocation(sets, pair_to_pilot)


# --- configuration and replayable drops -----------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Ingested experiment configuration; all fields have the defaults of
    the reference simulation setup (9 cells on 1 km^2, 5 CUs per cell,
    10 D2D pairs sharing 5 pilots, 200-sample coherence interval,
    P_max = 200 mW, noise -94 dBm)."""

    num_cells: int = 9
    antennas_per_bs: int = 200
    cus_per_cell: int = 5
    num_d2d_pairs: int = 10
    num_d2d_pilots: int = 5
    coherence_len: int = 200
    area_side: float = 1000.0
    d2d_link_distance: float = 10.0
    noise_dbm: float = DEFAULT_NOISE_DBM
    p_max_mw: float = 200.0
    seed: int = 0
    pathloss: PathlossModel = field(default_factory=PathlossModel)

    def __post_init__(self):
        # a malformed value fails when the config is loaded, so the CLI exits
        # 2 before it writes anything or draws a drop
        for name in ("num_cells", "antennas_per_bs", "cus_per_cell", "num_d2d_pairs",
                     "num_d2d_pilots", "coherence_len", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")
        for name in ("area_side", "d2d_link_distance", "p_max_mw"):
            value = getattr(self, name)
            if not _positive_finite(value):
                raise ScenarioError(f"{name} must be positive and finite, got {value!r}")
        try:
            noise_ok = _positive_finite(_noise_mw(self.noise_dbm))
        except (TypeError, OverflowError):
            noise_ok = False
        if not noise_ok:
            raise ScenarioError(f"noise_dbm must give a positive finite noise power, "
                                f"got {self.noise_dbm!r}")
        if self.d2d_link_distance >= self.area_side:
            raise ScenarioError(f"d2d_link_distance must be smaller than area_side "
                                f"({self.area_side!r}), got {self.d2d_link_distance!r}")
        self.dimensions()  # raises for counts no network can have

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ScenarioError("config must be a JSON object")
        pl_raw = raw.pop("pathloss", {})
        known = {f for f in cls.__dataclass_fields__ if f != "pathloss"}
        unknown = set(raw) - known
        if unknown:
            raise ScenarioError(f"unknown config keys: {sorted(unknown)}")
        try:
            pl = PathlossModel(**{**pl_raw, "slopes": tuple(pl_raw.get("slopes", DEFAULT_SLOPES))})
            return cls(**raw, pathloss=pl)
        except TypeError as exc:
            raise ScenarioError(f"bad config value: {exc}") from exc

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, indent=2)

    def dimensions(self) -> SystemDimensions:
        return SystemDimensions(self.num_cells, self.antennas_per_bs,
                                self.cus_per_cell, self.num_d2d_pairs,
                                self.num_d2d_pilots, self.coherence_len)


@dataclass
class Scenario:
    """One reproducible drop bundled with its dimensions and power budget."""

    dims: SystemDimensions
    geometry: Geometry
    gains: LargeScaleGains
    pilots: PilotAllocation
    p_max: float
    seed: int

    @classmethod
    def build(cls, config: ScenarioConfig, seed=None) -> "Scenario":
        use_seed = config.seed if seed is None else seed
        geom, gains, pilots = build_scenario(config, use_seed)
        return cls(config.dimensions(), geom, gains, pilots, config.p_max_mw, use_seed)

    def to_json(self) -> str:
        return json.dumps({
            "dims": asdict(self.dims),
            "p_max": self.p_max,
            "seed": self.seed,
            "geometry": {
                "area_side": self.geometry.area_side,
                "bs_positions": self.geometry.bs_positions.tolist(),
                "cu_positions": self.geometry.cu_positions.tolist(),
                "d2d_tx_positions": self.geometry.d2d_tx_positions.tolist(),
                "d2d_rx_positions": self.geometry.d2d_rx_positions.tolist(),
                "d2d_link_distance": self.geometry.d2d_link_distance,
            },
            "gains": {k: v.tolist() for k, v in self.gains.__dict__.items()},
            "pilots": {
                "d2d_pilot_sets": [list(map(int, s)) for s in self.pilots.d2d_pilot_sets],
                "pair_to_pilot": self.pilots.pair_to_pilot.tolist(),
            },
        })

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        raw = json.loads(text)
        dims = SystemDimensions(**raw["dims"])
        g = raw["geometry"]
        geometry = Geometry(g["area_side"], np.array(g["bs_positions"]),
                            np.array(g["cu_positions"]),
                            np.array(g["d2d_tx_positions"]).reshape(-1, 2),
                            np.array(g["d2d_rx_positions"]).reshape(-1, 2),
                            g["d2d_link_distance"])
        b_, k_ = dims.num_cells, dims.cus_per_cell
        l_ = dims.num_d2d_pairs
        gr = raw["gains"]
        gains = LargeScaleGains(
            np.array(gr["beta_cu_bs"]).reshape(b_, b_, k_),
            np.array(gr["beta_d2dtx_bs"]).reshape(b_, l_),
            np.array(gr["beta_cu_d2drx"]).reshape(l_, b_, k_),
            np.array(gr["beta_d2dtx_d2drx"]).reshape(l_, l_),
        )
        pilots = PilotAllocation([list(s) for s in raw["pilots"]["d2d_pilot_sets"]],
                                 np.array(raw["pilots"]["pair_to_pilot"], dtype=int))
        gains.validate()
        pilots.validate(dims)
        p_max = raw["p_max"]
        if not _positive_finite(p_max):
            raise ScenarioError(f"p_max must be positive and finite, got {p_max!r}")
        return cls(dims, geometry, gains, pilots, p_max, raw["seed"])
